//! When a staged request leaves the client: at the drop of a client that
//! never reads, and once the staged bytes pass the staging bound.

mod common;

use common::wait_until;
use ntx_serve::client::Client;
use ntx_serve::wire::{Request, Response};
use ntx_serve::{Server, ServerConfig};
use std::time::{Duration, Instant};

fn add(handle: u32, obj: u32, delta: i64) -> Request {
    Request::Access {
        handle,
        obj,
        write: true,
        delta,
    }
}

/// A client that stages a whole transaction and is dropped without
/// reading still delivers it: the drop's one non-blocking write puts it on
/// the wire, and the server answers it to a closed socket and commits.
#[test]
fn dropped_client_delivers_what_it_staged() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut fire_and_forget = Client::connect(server.local_addr()).unwrap();
    for req in [Request::Begin, add(1, 0, 1), Request::Commit { handle: 1 }] {
        fire_and_forget.send(req).unwrap();
    }
    drop(fire_and_forget);

    let mut c = Client::connect(server.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let t = c.begin().unwrap();
        let v = c.get(t, 0).unwrap().unwrap();
        c.abort(t).unwrap().unwrap();
        if v == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the dropped client's commit never showed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(c);
    wait_until("both sessions to retire", || server.live_sessions() == 0);
    server.drain();
}

/// Staged bytes stay with the client until they pass the bound, then the
/// `send` that passes it writes them: with no read at all, a write staged
/// first reaches the server and parks behind a held lock.
#[test]
fn staging_past_the_bound_writes_without_a_read() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mgr = server.manager();
    let mut holder = Client::connect(server.local_addr()).unwrap();
    let h = holder.begin().unwrap();
    assert_eq!(holder.add(h, 0, 3).unwrap(), Ok(3));

    let mut c = Client::connect(server.local_addr()).unwrap();
    c.send(Request::Begin).unwrap();
    c.send(add(1, 0, 10)).unwrap();
    // 22-byte reads of another object: 700 of them stay under 16 KiB.
    let read = Request::Access {
        handle: 1,
        obj: 1,
        write: false,
        delta: 0,
    };
    let mut reads = 0;
    for _ in 0..700 {
        c.send(read).unwrap();
        reads += 1;
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(mgr.queued_waiters(), 0, "staged bytes reached the server");
    // The next 100 pass the bound.
    for _ in 0..100 {
        c.send(read).unwrap();
        reads += 1;
    }
    wait_until("the staged write to park", || mgr.queued_waiters() == 1);

    holder.commit(h).unwrap().unwrap();
    assert_eq!(c.read_response().unwrap(), Response::Handle(1));
    assert_eq!(c.read_response().unwrap(), Response::Value(13));
    for _ in 0..reads {
        assert_eq!(c.read_response().unwrap(), Response::Value(0));
    }
    drop((holder, c));
    wait_until("both sessions to retire", || server.live_sessions() == 0);
    server.drain();
}
