//! The reactor's edges, driven over raw sockets: partial reads, the
//! flush when a driver parks mid-burst, half-close, and the two ways a
//! server stops.

mod common;

use common::wait_until;
use ntx_serve::wire::{self, take_frame, ErrCode, Request, Response};
use ntx_serve::{Server, ServerConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// A raw connection whose reads give up after five seconds, so a response
/// that never comes fails the test instead of hanging it.
struct Raw {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Raw {
    fn connect(server: &Server) -> Raw {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        Raw {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, reqs: &[Request]) {
        let bytes: Vec<u8> = reqs.iter().flat_map(|r| r.encode()).collect();
        self.stream.write_all(&bytes).unwrap();
    }

    /// The next response, or `None` at EOF.
    fn next(&mut self) -> Option<Response> {
        let mut tmp = [0u8; 4096];
        loop {
            if let Some(body) = take_frame(&mut self.buf).expect("frame length") {
                return Some(Response::decode(&body).expect("response body"));
            }
            match self.stream.read(&mut tmp).expect("response within 5 s") {
                0 => return None,
                n => self.buf.extend_from_slice(&tmp[..n]),
            }
        }
    }
}

fn add(handle: u32, obj: u32, delta: i64) -> Request {
    Request::Access {
        handle,
        obj,
        write: true,
        delta,
    }
}

/// A frame that arrives one byte per segment is decoded once it is whole
/// and answered exactly once.
#[test]
fn request_split_one_byte_per_write_is_answered_once() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Raw::connect(&server);
    for req in [Request::Begin, add(1, 3, 7)] {
        for byte in req.encode() {
            c.stream.write_all(&[byte]).unwrap();
        }
    }
    assert_eq!(c.next(), Some(Response::Handle(1)));
    assert_eq!(c.next(), Some(Response::Value(7)));
    // Nothing else is on its way.
    c.stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let err = c.stream.read(&mut [0u8; 16]).unwrap_err();
    assert!(
        matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "{err}"
    );
    drop(c);
    server.drain();
}

/// 256 pipelined frames, the 102nd of which blocks on a lock another
/// client holds: the 101 answers before it arrive while it is still
/// blocked (the driver writes when its poll returns `Pending` behind the
/// lock, not only when its inbox is empty), and the rest follow in request
/// order once the holder commits.
#[test]
fn burst_is_answered_in_order_around_a_blocked_access() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut holder = Raw::connect(&server);
    holder.send(&[Request::Begin, add(1, 0, 3)]);
    assert_eq!(holder.next(), Some(Response::Handle(1)));
    assert_eq!(holder.next(), Some(Response::Value(3)));

    let mut burst = vec![Request::Begin];
    burst.extend((0..100).map(|_| add(1, 1, 1)));
    burst.push(add(1, 0, 10));
    burst.extend((0..154).map(|_| add(1, 1, 1)));
    assert_eq!(burst.len(), 256);
    let mut c = Raw::connect(&server);
    c.send(&burst);

    assert_eq!(c.next(), Some(Response::Handle(1)));
    for v in 1..=100 {
        assert_eq!(c.next(), Some(Response::Value(v)));
    }
    // The holder has not committed, so the 102nd frame is still waiting.
    assert_eq!(server.manager().queued_waiters(), 1);

    holder.send(&[Request::Commit { handle: 1 }]);
    assert_eq!(holder.next(), Some(Response::Ok));
    assert_eq!(c.next(), Some(Response::Value(13)));
    for v in 101..=254 {
        assert_eq!(c.next(), Some(Response::Value(v)));
    }
    drop(holder);
    drop(c);
    server.drain();
}

/// A write parked on one reactor is answered when the holder's commit
/// releases the lock: the grant's waker posts to the reactor that owns the
/// waiting connection, whichever thread runs the commit.
fn holder_commit_answers_a_parked_write(workers: usize) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut holder = Raw::connect(&server);
    holder.send(&[Request::Begin, add(1, 0, 3)]);
    assert_eq!(holder.next(), Some(Response::Handle(1)));
    assert_eq!(holder.next(), Some(Response::Value(3)));

    let mut waiter = Raw::connect(&server);
    waiter.send(&[Request::Begin, add(1, 0, 10)]);
    assert_eq!(waiter.next(), Some(Response::Handle(1)));
    let mgr = server.manager();
    wait_until("the write to park", || mgr.queued_waiters() == 1);

    holder.send(&[Request::Commit { handle: 1 }]);
    assert_eq!(holder.next(), Some(Response::Ok));
    assert_eq!(waiter.next(), Some(Response::Value(13)));
    drop((holder, waiter));
    server.drain();
}

/// Connections go to the reactors round-robin: with two, the holder is
/// reactor 0's and the waiter reactor 1's.
#[test]
fn commit_on_another_reactor_answers_a_parked_write() {
    holder_commit_answers_a_parked_write(2);
}

/// With one reactor, the commit's grant wakes a connection of the very
/// thread that runs it.
#[test]
fn commit_on_the_same_reactor_answers_a_parked_write() {
    holder_commit_answers_a_parked_write(1);
}

/// A burst whose third frame announces a body over `MAX_FRAME` gets its
/// first two frames answered, in order — the second, a malformed body, with
/// `ErrProto` in its place — and then a hang-up: the frames a read splits
/// before the bad prefix are served, nothing after it is.
#[test]
fn oversized_length_prefix_mid_burst_answers_the_frames_before_it_then_hangs_up() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Raw::connect(&server);
    let mut burst = Request::Begin.encode();
    // An `ACCESS` with a truncated payload.
    burst.extend_from_slice(&3u32.to_le_bytes());
    burst.extend_from_slice(&[wire::OP_ACCESS, 1, 0]);
    burst.extend_from_slice(&(wire::MAX_FRAME as u32 + 1).to_le_bytes());
    burst.extend_from_slice(&[wire::OP_BEGIN; 8]);
    burst.extend_from_slice(&Request::Begin.encode());
    c.stream.write_all(&burst).unwrap();

    assert_eq!(c.next(), Some(Response::Handle(1)));
    assert_eq!(c.next(), Some(Response::Err(ErrCode::ErrProto)));
    assert_eq!(c.next(), None, "EOF after the frames before the bad one");
    wait_until("the session to retire", || server.live_sessions() == 0);
    server.drain();
}

/// A client that sends a burst and shuts its write side down still gets
/// every response, then EOF.
#[test]
fn half_closed_client_reads_every_response_then_eof() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Raw::connect(&server);
    let mut burst = vec![Request::Begin];
    burst.extend((0..50).map(|_| add(1, 2, 1)));
    burst.push(Request::Commit { handle: 1 });
    c.send(&burst);
    c.stream.shutdown(Shutdown::Write).unwrap();

    assert_eq!(c.next(), Some(Response::Handle(1)));
    for v in 1..=50 {
        assert_eq!(c.next(), Some(Response::Value(v)));
    }
    assert_eq!(c.next(), Some(Response::Ok));
    assert_eq!(c.next(), None, "EOF after the last response");
    wait_until("the session to retire", || server.live_sessions() == 0);
    server.drain();
}

/// Dropping a server with 50 sessions mid-transaction — every one holding
/// a write lock, half of them also queued behind a neighbour's — returns
/// promptly, hangs up on every client and leaves no waiter queued.
#[test]
fn drop_with_live_sessions_hangs_up_and_releases() {
    const SESSIONS: u32 = 50;
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut clients: Vec<Raw> = (0..SESSIONS).map(|_| Raw::connect(&server)).collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.send(&[Request::Begin, add(1, i as u32, 1)]);
        assert_eq!(c.next(), Some(Response::Handle(1)));
        assert_eq!(c.next(), Some(Response::Value(1)));
    }
    for (i, c) in clients.iter_mut().enumerate().skip(1).step_by(2) {
        c.send(&[add(1, i as u32 - 1, 1)]);
    }
    let mgr = server.manager().clone();
    wait_until("the blocked half to queue", || {
        mgr.queued_waiters() == SESSIONS as usize / 2
    });

    let started = Instant::now();
    drop(server);
    assert!(started.elapsed() < Duration::from_secs(2));
    for c in &mut clients {
        // A session whose blocked access was granted during the teardown
        // (its neighbour aborted first) may get that one answer out before
        // its own hangup; nothing else may come.
        while let Some(resp) = c.next() {
            assert_eq!(resp, Response::Value(1));
        }
    }
    assert_eq!(mgr.queued_waiters(), 0);
}

/// A server nobody ever connected to drains without help: the eventfd,
/// not a connection to itself, is what wakes the reactor.
#[test]
fn drain_without_any_connection_returns() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    server.drain();
    assert!(TcpStream::connect(addr).is_err(), "listener still open");
}
