//! A minimal blocking wire client, used by the smoke test and the
//! reference benchmark's wire workloads.

use crate::server::OUTBOX_HIGH;
use crate::wire::{split_frame, ErrCode, Request, Response};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Staged request bytes past which [`Client::send`] writes them out: the
/// most the server buffers for a connection the other way.
const STAGE_HIGH: usize = OUTBOX_HIGH;

/// One client connection. Requests are staged, and leave in one `write`.
///
/// [`send`] encodes a request into a staging buffer; nothing reaches the
/// socket yet. The staged bytes go out with one `write_all` at the first
/// of:
///
/// - the client is about to block in `read` ([`read_response`], and so
///   every [`call`] and helper): a request never waits behind a response
///   that needs it, since the client never sleeps with bytes staged;
/// - the caller asks for it with [`flush`], when a request must reach the
///   server although no read follows (to park it behind a lock, say);
/// - a `send` takes the staged bytes past `STAGE_HIGH` (16 KiB). A peer
///   that stops reading then stalls that `send` in the kernel, as an
///   unstaged writer would stall, and the client's memory stays bounded.
///
/// So a pipelined transaction — its frames sent, then its responses read —
/// crosses the wire as one segment and costs the server one wake-up, and a
/// ping-pong `call` makes one `write` and one `read` per frame. Staging
/// changes when bytes leave, never which bytes or their order.
/// Dropping a client makes one non-blocking attempt to write what is still
/// staged, and never blocks.
///
/// [`send`]: Client::send
/// [`read_response`]: Client::read_response
/// [`call`]: Client::call
/// [`flush`]: Client::flush
pub struct Client {
    stream: TcpStream,
    /// Encoded requests not yet written.
    staged: Vec<u8>,
    /// Response bytes read that do not make a whole frame yet.
    buf: Vec<u8>,
}

impl Client {
    /// Connect to a running `ntx-serve`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            staged: Vec::new(),
            buf: Vec::new(),
        })
    }

    /// Send `req` and block for its response.
    pub fn call(&mut self, req: Request) -> std::io::Result<Response> {
        self.send(req)?;
        self.read_response()
    }

    /// Block for the next response frame (used after pipelined sends, and
    /// to observe the `ErrBusy` greeting from an admission rejection).
    /// Writes what is staged before it blocks.
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        let mut tmp = [0u8; 512];
        loop {
            match split_frame(&self.buf) {
                Ok(Some((body, used))) => {
                    let resp = Response::decode(body);
                    self.buf.drain(..used);
                    return resp.map_err(|_| {
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
            self.flush()?;
            let n = self.stream.read(&mut tmp)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&tmp[..n]);
        }
    }

    /// Stage `req` without waiting for its response (pipelining); pair
    /// with [`read_response`]. Writes the staged bytes only once they pass
    /// the staging bound.
    ///
    /// [`read_response`]: Client::read_response
    pub fn send(&mut self, req: Request) -> std::io::Result<()> {
        req.encode_into(&mut self.staged);
        if self.staged.len() > STAGE_HIGH {
            self.flush()?;
        }
        Ok(())
    }

    /// Write every staged request now, with one `write_all`. Needed only
    /// when a request must reach the server and no read follows it.
    ///
    /// The staged bytes are gone either way: after an error the connection
    /// is in an unknown state, and its next read reports the failure.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.staged);
        self.staged.clear();
        written
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

impl Drop for Client {
    /// One non-blocking attempt to write what is staged: a client that
    /// sends and leaves without reading still delivers its requests when
    /// the socket has room, and a full socket cannot hold the drop up.
    fn drop(&mut self) {
        if !self.staged.is_empty() && self.stream.set_nonblocking(true).is_ok() {
            let _ = self.stream.write(&self.staged);
        }
    }
}

fn unexpected(resp: Response) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unexpected response shape: {resp:?}"),
    )
}
