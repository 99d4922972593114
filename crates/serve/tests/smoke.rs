//! End-to-end smoke tests: the `ntx-serve` binary and the in-process
//! server, driven through the real wire protocol.

mod common;

use common::wait_until;
use ntx_serve::client::Client;
use ntx_serve::wire::{ErrCode, Request, Response};
use ntx_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The satellite's acceptance test: start the `ntx-serve` binary, run 100
/// concurrent wire sessions (each a nested tree with contended writes),
/// close stdin, and require a graceful drain with every update committed.
#[test]
fn binary_serves_100_concurrent_wire_sessions_and_drains() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ntx-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--objects",
            "16",
            "--max-sessions",
            "256",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ntx-serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut ready = String::new();
    stdout.read_line(&mut ready).unwrap();
    let addr = ready
        .trim()
        .strip_prefix("listening on ")
        .expect("readiness line")
        .to_string();

    const SESSIONS: usize = 100;
    const OBJECTS: u32 = 16;
    let failures = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let addr = addr.clone();
            let failures = failures.clone();
            std::thread::spawn(move || {
                let run = || -> std::io::Result<()> {
                    let mut c = Client::connect(&addr)?;
                    let top = c.begin()?;
                    let sub = c.child(top)?;
                    // Contended write through the subtransaction...
                    c.add(sub, (i as u32) % OBJECTS, 1)?.expect("child add");
                    c.commit(sub)?.expect("child commit");
                    // ...and another through the top level after inherit.
                    c.add(top, (i as u32) % OBJECTS, 1)?.expect("top add");
                    c.commit(top)?.expect("top commit");
                    Ok(())
                };
                if run().is_err() {
                    failures.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        failures.load(Ordering::SeqCst),
        0,
        "every session must succeed"
    );

    // Every committed increment must be visible to a fresh session.
    let mut c = Client::connect(&addr).unwrap();
    let tx = c.begin().unwrap();
    let mut total = 0i64;
    for obj in 0..OBJECTS {
        total += c.get(tx, obj).unwrap().expect("read");
    }
    assert_eq!(
        total,
        2 * SESSIONS as i64,
        "all committed increments visible"
    );
    c.abort(tx).unwrap().unwrap();
    drop(c);

    // Graceful drain: close stdin, expect the drain line and a clean exit.
    drop(child.stdin.take());
    let status = child.wait().expect("ntx-serve exit");
    assert!(
        status.success(),
        "ntx-serve must exit cleanly, got {status:?}"
    );
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(rest.contains("drained"), "missing drain line in: {rest:?}");
}

/// Admission control: the (max_sessions+1)-th connection gets a single
/// `ErrBusy` frame and a hangup; capacity frees once a session closes.
#[test]
fn admission_control_rejects_then_recovers() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            objects: 4,
            max_sessions: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    // A served response proves the accept thread admitted the session.
    let ha = a.begin().unwrap();
    let hb = b.begin().unwrap();

    let mut c = Client::connect(addr).unwrap();
    match c.read_response().unwrap() {
        Response::Err(ErrCode::ErrBusy) => {}
        other => panic!("expected ErrBusy greeting, got {other:?}"),
    }
    assert_eq!(server.rejected(), 1);

    // Close one admitted session; the server notices the hangup and frees
    // a slot.
    a.abort(ha).unwrap().unwrap();
    drop(a);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        // Admitted connections get no greeting, so probe with a BEGIN: an
        // admitted session answers Handle, a rejected one has the ErrBusy
        // greeting (or a hangup) waiting in its buffer.
        let mut d = Client::connect(addr).unwrap();
        match d.call(Request::Begin) {
            Ok(Response::Handle(h)) => {
                d.abort(h).unwrap().unwrap();
                break;
            }
            _ => {
                assert!(std::time::Instant::now() < deadline, "slot never freed");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
    b.commit(hb).unwrap().unwrap();
    drop(b);
    server.drain();
}

/// Wire-level lock handoff: a writer blocked behind another session's
/// write lock completes as soon as the holder commits — a suspended
/// `AccessFuture` end to end.
#[test]
fn blocked_wire_writer_completes_on_holder_commit() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut holder = Client::connect(addr).unwrap();
    let h = holder.begin().unwrap();
    assert_eq!(holder.add(h, 0, 3).unwrap(), Ok(3));

    let mut waiter = Client::connect(addr).unwrap();
    let w = waiter.begin().unwrap();
    // Pipeline the blocked write; the driver future parks in the lock
    // queue without pinning a server thread. Staged requests leave at a
    // read, so flush: the write must be parked before the holder commits.
    waiter
        .send(Request::Access {
            handle: w,
            obj: 0,
            write: true,
            delta: 10,
        })
        .unwrap();
    waiter.flush().unwrap();
    wait_until("the write to park", || {
        server.manager().queued_waiters() == 1
    });

    holder.commit(h).unwrap().unwrap();
    match waiter.read_response().unwrap() {
        Response::Value(v) => assert_eq!(v, 13, "must see the committed 3 plus own 10"),
        other => panic!("blocked writer got {other:?}"),
    }
    waiter.commit(w).unwrap().unwrap();
    drop(holder);
    drop(waiter);
    server.drain();
}

/// Protocol errors answer without killing the session; nested semantics
/// (child commit inherits, top commit publishes) hold over the wire.
#[test]
fn wire_errors_and_nested_semantics() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();

    assert_eq!(c.commit(999).unwrap(), Err(ErrCode::ErrHandle));
    let top = c.begin().unwrap();
    assert_eq!(c.add(top, 1_000_000, 1).unwrap(), Err(ErrCode::ErrObject));

    let sub = c.child(top).unwrap();
    assert_eq!(c.add(sub, 1, 5).unwrap(), Ok(5));
    assert_eq!(c.commit(sub).unwrap(), Ok(()));
    // The handle is consumed by commit.
    assert_eq!(c.commit(sub).unwrap(), Err(ErrCode::ErrHandle));
    // Parent inherited the child's lock and version.
    assert_eq!(c.add(top, 1, 2).unwrap(), Ok(7));
    assert_eq!(c.commit(top).unwrap(), Ok(()));

    // A commit refused for a live child leaves the transaction open, and
    // its handle usable: the child, then the top, still commit.
    let top = c.begin().unwrap();
    let sub = c.child(top).unwrap();
    assert_eq!(c.add(sub, 2, 4).unwrap(), Ok(4));
    assert_eq!(c.commit(top).unwrap(), Err(ErrCode::ErrHandle));
    assert_eq!(c.commit(sub).unwrap(), Ok(()));
    assert_eq!(c.commit(top).unwrap(), Ok(()));

    // A second session sees the published values.
    let mut d = Client::connect(addr).unwrap();
    let t2 = d.begin().unwrap();
    assert_eq!(d.get(t2, 1).unwrap(), Ok(7));
    assert_eq!(d.get(t2, 2).unwrap(), Ok(4));
    // Abort discards: add then abort, a fresh read still sees 7.
    assert_eq!(d.add(t2, 1, 100).unwrap(), Ok(107));
    assert_eq!(d.abort(t2).unwrap(), Ok(()));
    let t3 = d.begin().unwrap();
    assert_eq!(d.get(t3, 1).unwrap(), Ok(7));
    d.abort(t3).unwrap().unwrap();

    drop(c);
    drop(d);
    server.drain();
}

/// Sessions dropped mid-transaction (client vanishes without commit) are
/// RAII-aborted: locks release and the lock queue returns to quiescence.
#[test]
fn vanishing_client_releases_locks() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut ghost = Client::connect(addr).unwrap();
    let g = ghost.begin().unwrap();
    assert_eq!(ghost.add(g, 2, 9).unwrap(), Ok(9));
    // Vanish with the write lock held and the transaction open.
    drop(ghost);

    // A new session must acquire the same object (after the reactor
    // notices the hangup and the driver RAII-aborts).
    let mut c = Client::connect(addr).unwrap();
    let t = c.begin().unwrap();
    assert_eq!(
        c.add(t, 2, 1).unwrap(),
        Ok(1),
        "ghost's uncommitted 9 must be rolled back"
    );
    c.commit(t).unwrap().unwrap();
    drop(c);
    assert_eq!(server.manager().queued_waiters(), 0);
    server.drain();
}

/// A client's `delta` is added wrapping, in debug and release builds
/// alike: an overflowing one neither kills a server thread nor leaves the
/// session, or a newcomer on the same thread, unanswered.
#[test]
fn overflowing_delta_wraps_and_the_server_keeps_answering() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let (answered, all_answered) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let t = c.begin().unwrap();
        assert_eq!(c.add(t, 0, i64::MAX).unwrap(), Ok(i64::MAX));
        assert_eq!(c.add(t, 0, i64::MAX).unwrap(), Ok(-2));
        assert_eq!(c.abort(t).unwrap(), Ok(()));
        let mut d = Client::connect(addr).unwrap();
        let t2 = d.begin().unwrap();
        assert_eq!(d.get(t2, 0).unwrap(), Ok(0));
        answered.send(()).unwrap();
    });
    all_answered
        .recv_timeout(std::time::Duration::from_secs(3))
        .expect("both sessions answered within 3 s");
    client.join().unwrap();
    server.drain();
}

/// A session holds at most 1024 open handles: past them `BEGIN` and
/// `CHILD` answer `ErrBusy`, the session keeps answering, and a handle
/// that finishes makes room for the next.
#[test]
fn open_handles_per_session_are_capped() {
    const CAP: u32 = 1024;
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for _ in 0..=CAP {
        c.send(Request::Begin).unwrap();
    }
    for h in 1..=CAP {
        assert_eq!(c.read_response().unwrap(), Response::Handle(h));
    }
    assert_eq!(
        c.read_response().unwrap(),
        Response::Err(ErrCode::ErrBusy),
        "BEGIN number {}",
        CAP + 1
    );
    assert_eq!(
        c.call(Request::Child { parent: 1 }).unwrap(),
        Response::Err(ErrCode::ErrBusy)
    );
    // The handles already open still work.
    assert_eq!(c.add(CAP, 0, 5).unwrap(), Ok(5));

    assert_eq!(c.commit(1).unwrap(), Ok(()));
    assert_eq!(c.begin().unwrap(), CAP + 1);
    assert_eq!(
        c.call(Request::Begin).unwrap(),
        Response::Err(ErrCode::ErrBusy)
    );
    drop(c);
    wait_until("the session to retire", || server.live_sessions() == 0);
    assert_eq!(server.manager().queued_waiters(), 0);
    server.drain();
}
