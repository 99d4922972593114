//! A minimal blocking wire client, used by the smoke test and the
//! reference benchmark's wire workloads.

use crate::wire::{take_frame, ErrCode, Request, Response};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One client connection: issues requests synchronously, one at a time.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connect to a running `ntx-serve`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Send `req` and block for its response.
    pub fn call(&mut self, req: Request) -> std::io::Result<Response> {
        self.stream.write_all(&req.encode())?;
        self.read_response()
    }

    /// Block for the next response frame (used after pipelined sends, and
    /// to observe the `ErrBusy` greeting from an admission rejection).
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        let mut tmp = [0u8; 512];
        loop {
            match take_frame(&mut self.buf) {
                Ok(Some(body)) => {
                    return Response::decode(&body).map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response frame")
                    });
                }
                Ok(None) => {}
                Err(()) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "oversized response frame",
                    ));
                }
            }
            let n = self.stream.read(&mut tmp)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&tmp[..n]);
        }
    }

    /// Send without waiting (pipelining); pair with [`read_response`].
    ///
    /// [`read_response`]: Client::read_response
    pub fn send(&mut self, req: Request) -> std::io::Result<()> {
        self.stream.write_all(&req.encode())
    }

    /// `BEGIN` → new top-level handle.
    pub fn begin(&mut self) -> std::io::Result<u32> {
        match self.call(Request::Begin)? {
            Response::Handle(h) => Ok(h),
            other => Err(unexpected(other)),
        }
    }

    /// `CHILD` → new subtransaction handle.
    pub fn child(&mut self, parent: u32) -> std::io::Result<u32> {
        match self.call(Request::Child { parent })? {
            Response::Handle(h) => Ok(h),
            other => Err(unexpected(other)),
        }
    }

    /// `ACCESS` write: add `delta`, returning the new value (or the wire
    /// error code).
    pub fn add(
        &mut self,
        handle: u32,
        obj: u32,
        delta: i64,
    ) -> std::io::Result<Result<i64, ErrCode>> {
        match self.call(Request::Access {
            handle,
            obj,
            write: true,
            delta,
        })? {
            Response::Value(v) => Ok(Ok(v)),
            Response::Err(c) => Ok(Err(c)),
            other => Err(unexpected(other)),
        }
    }

    /// `ACCESS` read: current value under a read lock.
    pub fn get(&mut self, handle: u32, obj: u32) -> std::io::Result<Result<i64, ErrCode>> {
        match self.call(Request::Access {
            handle,
            obj,
            write: false,
            delta: 0,
        })? {
            Response::Value(v) => Ok(Ok(v)),
            Response::Err(c) => Ok(Err(c)),
            other => Err(unexpected(other)),
        }
    }

    /// `COMMIT`.
    pub fn commit(&mut self, handle: u32) -> std::io::Result<Result<(), ErrCode>> {
        match self.call(Request::Commit { handle })? {
            Response::Ok => Ok(Ok(())),
            Response::Err(c) => Ok(Err(c)),
            other => Err(unexpected(other)),
        }
    }

    /// `ABORT`.
    pub fn abort(&mut self, handle: u32) -> std::io::Result<Result<(), ErrCode>> {
        match self.call(Request::Abort { handle })? {
            Response::Ok => Ok(Ok(())),
            Response::Err(c) => Ok(Err(c)),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: Response) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unexpected response shape: {resp:?}"),
    )
}
