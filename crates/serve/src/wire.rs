//! Length-prefixed wire protocol for `ntx-serve`.
//!
//! Frames are `u32` little-endian body length, then the body. Request
//! bodies start with a one-byte opcode; response bodies start with a
//! one-byte status. All multi-byte integers are little-endian.
//!
//! Requests:
//!
//! | op               | payload                                  | ok payload        |
//! |------------------|------------------------------------------|-------------------|
//! | `BEGIN` (0x01)   | —                                        | `handle: u32`     |
//! | `CHILD` (0x02)   | `parent: u32`                            | `handle: u32`     |
//! | `ACCESS` (0x03)  | `handle: u32, obj: u32, write: u8, delta: i64` | `value: i64` |
//! | `COMMIT` (0x04)  | `handle: u32`                            | —                 |
//! | `ABORT` (0x05)   | `handle: u32`                            | —                 |
//!
//! `ACCESS` with `write = 0` ignores `delta` and returns the counter's
//! value; with `write = 1` it adds `delta` and returns the new value.
//! Handles are per-connection; `CHILD` builds the nested-transaction tree.
//!
//! Error responses carry `STATUS_ERR` plus a one-byte [`ErrCode`]. A server
//! at its admission limit greets the rejected connection with a single
//! `STATUS_ERR`/`ErrBusy` frame and closes.
//!
//! Both ends build frames with `encode_into`, which appends a whole frame
//! to a buffer that may hold others already (a client's staged burst, a
//! connection's outbox), and read them with [`split_frame`], which finds
//! a frame in place; `encode` and [`take_frame`] are their owning forms.

/// Begin a new top-level transaction on this connection.
pub const OP_BEGIN: u8 = 0x01;
/// Begin a subtransaction of an existing handle.
pub const OP_CHILD: u8 = 0x02;
/// Read or read-modify-write one counter object under the handle's locks.
pub const OP_ACCESS: u8 = 0x03;
/// Commit the handle (locks/versions inherit to the parent, per §3).
pub const OP_COMMIT: u8 = 0x04;
/// Abort the handle's subtree.
pub const OP_ABORT: u8 = 0x05;

/// First response byte: request succeeded.
pub const STATUS_OK: u8 = 0x00;
/// First response byte: request failed; an [`ErrCode`] byte follows.
pub const STATUS_ERR: u8 = 0x01;

/// Wire error codes (second byte of a `STATUS_ERR` response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrCode {
    /// Malformed frame or unknown opcode.
    ErrProto = 1,
    /// Unknown or already-finished transaction handle.
    ErrHandle = 2,
    /// Object index out of range.
    ErrObject = 3,
    /// Lock acquisition timed out.
    ErrTimeout = 4,
    /// Transaction was doomed (a deadlock victim, or aborted above); abort it.
    ErrDoomed = 5,
    /// Server is at its admission limit, or the session at its limit of
    /// open handles; retry later.
    ErrBusy = 6,
}

impl ErrCode {
    /// Decode a wire byte back into an [`ErrCode`].
    pub fn from_byte(b: u8) -> Option<ErrCode> {
        Some(match b {
            1 => ErrCode::ErrProto,
            2 => ErrCode::ErrHandle,
            3 => ErrCode::ErrObject,
            4 => ErrCode::ErrTimeout,
            5 => ErrCode::ErrDoomed,
            6 => ErrCode::ErrBusy,
            _ => return None,
        })
    }
}

/// Maximum accepted frame body (requests are tiny; this bounds a hostile
/// length prefix so a connection cannot make the server buffer 4 GiB).
pub const MAX_FRAME: usize = 64;

/// A decoded request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `OP_BEGIN`
    Begin,
    /// `OP_CHILD { parent }`
    Child {
        /// Handle of the parent transaction.
        parent: u32,
    },
    /// `OP_ACCESS { handle, obj, write, delta }`
    Access {
        /// Transaction handle performing the access.
        handle: u32,
        /// Object index.
        obj: u32,
        /// Write (read-modify-write) if true, else read.
        write: bool,
        /// Amount added to the counter on a write.
        delta: i64,
    },
    /// `OP_COMMIT { handle }`
    Commit {
        /// Handle to commit.
        handle: u32,
    },
    /// `OP_ABORT { handle }`
    Abort {
        /// Handle to abort.
        handle: u32,
    },
}

impl Request {
    /// Decode a request body (without the length prefix).
    pub fn decode(body: &[u8]) -> Result<Request, ErrCode> {
        let (&op, rest) = body.split_first().ok_or(ErrCode::ErrProto)?;
        let u32_at = |r: &[u8], i: usize| -> Result<u32, ErrCode> {
            r.get(i..i + 4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .ok_or(ErrCode::ErrProto)
        };
        match op {
            OP_BEGIN if rest.is_empty() => Ok(Request::Begin),
            OP_CHILD if rest.len() == 4 => Ok(Request::Child {
                parent: u32_at(rest, 0)?,
            }),
            OP_ACCESS if rest.len() == 17 => Ok(Request::Access {
                handle: u32_at(rest, 0)?,
                obj: u32_at(rest, 4)?,
                write: rest[8] != 0,
                delta: i64::from_le_bytes(rest[9..17].try_into().unwrap()),
            }),
            OP_COMMIT if rest.len() == 4 => Ok(Request::Commit {
                handle: u32_at(rest, 0)?,
            }),
            OP_ABORT if rest.len() == 4 => Ok(Request::Abort {
                handle: u32_at(rest, 0)?,
            }),
            _ => Err(ErrCode::ErrProto),
        }
    }

    /// Append this request to `out` as a whole frame, length prefix
    /// included. A client stages a burst of requests in one buffer this
    /// way, and sends it with one `write`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_frame(out, |out| match *self {
            Request::Begin => out.push(OP_BEGIN),
            Request::Child { parent } => {
                out.push(OP_CHILD);
                out.extend_from_slice(&parent.to_le_bytes());
            }
            Request::Access {
                handle,
                obj,
                write,
                delta,
            } => {
                out.push(OP_ACCESS);
                out.extend_from_slice(&handle.to_le_bytes());
                out.extend_from_slice(&obj.to_le_bytes());
                out.push(write as u8);
                out.extend_from_slice(&delta.to_le_bytes());
            }
            Request::Commit { handle } => {
                out.push(OP_COMMIT);
                out.extend_from_slice(&handle.to_le_bytes());
            }
            Request::Abort { handle } => {
                out.push(OP_ABORT);
                out.extend_from_slice(&handle.to_le_bytes());
            }
        });
    }

    /// Encode this request as a full frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 18);
        self.encode_into(&mut out);
        out
    }
}

/// A decoded response body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// `STATUS_OK` with a `u32` payload (new transaction handle).
    Handle(u32),
    /// `STATUS_OK` with an `i64` payload (counter value).
    Value(i64),
    /// `STATUS_OK` with no payload (commit/abort acknowledged).
    Ok,
    /// `STATUS_ERR` + code.
    Err(ErrCode),
}

impl Response {
    /// Append this response to `out` as a whole frame, length prefix
    /// included. The server encodes a poll's answers straight into the
    /// connection's outbox this way.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_frame(out, |out| match *self {
            Response::Handle(h) => {
                out.push(STATUS_OK);
                out.extend_from_slice(&h.to_le_bytes());
            }
            Response::Value(v) => {
                out.push(STATUS_OK);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Response::Ok => out.push(STATUS_OK),
            Response::Err(code) => {
                out.push(STATUS_ERR);
                out.push(code as u8);
            }
        });
    }

    /// Encode this response as a full frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 9);
        self.encode_into(&mut out);
        out
    }

    /// Decode a response body (without the length prefix). Payload shape is
    /// inferred from length: 4 bytes = handle, 8 bytes = value.
    pub fn decode(body: &[u8]) -> Result<Response, ErrCode> {
        let (&status, rest) = body.split_first().ok_or(ErrCode::ErrProto)?;
        match (status, rest.len()) {
            (STATUS_OK, 0) => Ok(Response::Ok),
            (STATUS_OK, 4) => Ok(Response::Handle(u32::from_le_bytes(
                rest.try_into().unwrap(),
            ))),
            (STATUS_OK, 8) => Ok(Response::Value(i64::from_le_bytes(
                rest.try_into().unwrap(),
            ))),
            (STATUS_ERR, 1) => Ok(Response::Err(
                ErrCode::from_byte(rest[0]).ok_or(ErrCode::ErrProto)?,
            )),
            _ => Err(ErrCode::ErrProto),
        }
    }
}

/// Append one frame to `out`: a `u32` LE length prefix, then whatever
/// `body` appends.
fn put_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Find the first complete frame at the front of `buf`, without copying
/// or consuming anything: the one framing rule, which [`take_frame`] and
/// both ends of the connection share.
///
/// Returns `Ok(None)` if more bytes are needed, `Ok(Some((body, used)))`
/// with the frame's body borrowed from `buf` and the `used` bytes (prefix
/// and body) the caller consumes, or `Err(())` if the peer announced a body
/// larger than [`MAX_FRAME`] (protocol violation; hang up). A reader walks
/// a whole read's worth of frames by slicing past each `used`, and drops
/// the consumed prefix once.
#[allow(clippy::result_unit_err)] // the only error is "hang up"; it carries no data
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, ()> {
    let Some(prefix) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(prefix.try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(());
    }
    Ok(buf.get(4..4 + len).map(|body| (body, 4 + len)))
}

/// Try to split one complete frame body off the front of `buf`: an owning
/// [`split_frame`].
///
/// Returns `Ok(None)` if more bytes are needed, `Ok(Some(body))` with the
/// consumed prefix removed from `buf`, or `Err(())` if the peer announced a
/// body larger than [`MAX_FRAME`] (protocol violation; hang up).
#[allow(clippy::result_unit_err)] // the only error is "hang up"; it carries no data
pub fn take_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, ()> {
    let Some((body, used)) = split_frame(buf)? else {
        return Ok(None);
    };
    let body = body.to_vec();
    buf.drain(..used);
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Begin,
            Request::Child { parent: 7 },
            Request::Access {
                handle: 3,
                obj: 12,
                write: true,
                delta: -5,
            },
            Request::Access {
                handle: 9,
                obj: 0,
                write: false,
                delta: 0,
            },
            Request::Commit { handle: 1 },
            Request::Abort { handle: u32::MAX },
        ];
        for req in cases {
            let mut buf = req.encode();
            let body = take_frame(&mut buf).unwrap().expect("complete frame");
            assert!(buf.is_empty());
            assert_eq!(Request::decode(&body), Ok(req));
        }
    }

    #[test]
    fn responses_roundtrip() {
        let cases = [
            Response::Ok,
            Response::Handle(42),
            Response::Value(-123456789),
            Response::Err(ErrCode::ErrDoomed),
            Response::Err(ErrCode::ErrBusy),
        ];
        for resp in cases {
            let mut buf = resp.encode();
            let body = take_frame(&mut buf).unwrap().expect("complete frame");
            assert_eq!(Response::decode(&body), Ok(resp));
        }
    }

    #[test]
    fn take_frame_handles_partials_and_pipelining() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&Request::Begin.encode());
        buf.extend_from_slice(&Request::Commit { handle: 1 }.encode());
        let full = buf.clone();
        // Feed byte by byte: frames pop out exactly at their boundaries.
        let mut acc = Vec::new();
        let mut frames = Vec::new();
        for b in full {
            acc.push(b);
            while let Some(body) = take_frame(&mut acc).unwrap() {
                frames.push(body);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(Request::decode(&frames[0]), Ok(Request::Begin));
        assert_eq!(
            Request::decode(&frames[1]),
            Ok(Request::Commit { handle: 1 })
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        buf.push(0);
        assert!(split_frame(&buf).is_err());
        assert!(take_frame(&mut buf).is_err());
    }

    /// `encode_into` appends exactly `encode`'s bytes, whatever the buffer
    /// already holds, and `split_frame` walks a staged burst frame by frame
    /// without consuming it.
    #[test]
    fn encode_into_appends_frames_that_split_frame_walks_in_place() {
        let reqs = [
            Request::Begin,
            Request::Child { parent: 1 },
            Request::Access {
                handle: 2,
                obj: 5,
                write: true,
                delta: 1,
            },
            Request::Commit { handle: 2 },
        ];
        let mut staged = Vec::new();
        for req in reqs {
            let at = staged.len();
            req.encode_into(&mut staged);
            assert_eq!(staged[at..], req.encode()[..]);
        }
        Response::Value(-7).encode_into(&mut staged);
        assert_eq!(
            staged[staged.len() - 13..],
            Response::Value(-7).encode()[..]
        );

        let mut at = 0;
        for req in reqs {
            let (body, used) = split_frame(&staged[at..]).unwrap().expect("whole frame");
            assert_eq!(Request::decode(body), Ok(req));
            at += used;
        }
        let (body, used) = split_frame(&staged[at..]).unwrap().unwrap();
        assert_eq!(Response::decode(body), Ok(Response::Value(-7)));
        assert_eq!(at + used, staged.len());
        // A partial frame at the end asks for more bytes.
        assert_eq!(split_frame(&staged[at..at + used - 1]), Ok(None));
        assert_eq!(split_frame(&staged[..3]), Ok(None));
    }

    #[test]
    fn garbage_bodies_decode_to_proto_errors() {
        assert_eq!(Request::decode(&[]), Err(ErrCode::ErrProto));
        assert_eq!(Request::decode(&[0xFF]), Err(ErrCode::ErrProto));
        // ACCESS with a truncated payload.
        assert_eq!(
            Request::decode(&[OP_ACCESS, 1, 2, 3]),
            Err(ErrCode::ErrProto)
        );
        assert_eq!(
            Response::decode(&[STATUS_ERR, 0xEE]),
            Err(ErrCode::ErrProto)
        );
    }
}
