//! Session futures, not threads: thousands of sessions park as waiters in
//! the lock queues while at most eight executor workers — or, over the
//! wire, two reactors — exist, and the whole backlog drains through the
//! grant waves once the holder releases.

use ntx_runtime::{ObjRef, RtConfig, TxManager};
use ntx_serve::client::Client;
use ntx_serve::wire::{Request, Response};
use ntx_serve::{Executor, Server, ServerConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 8;
const OBJECTS: usize = 64;

/// Park `sessions` futures behind a holder's write locks, check that every
/// one is in flight and queued at once, then release and drain.
fn park_and_drain(sessions: usize) {
    let mgr = TxManager::new(RtConfig {
        // Far above any drain time: a timeout here is a failure.
        wait_timeout: Duration::from_secs(300),
        ..Default::default()
    });
    let objects: Arc<Vec<ObjRef<i64>>> = Arc::new(
        (0..OBJECTS)
            .map(|i| mgr.register(format!("h{i}"), 0i64))
            .collect(),
    );
    let holder = mgr.begin();
    for o in objects.iter() {
        holder.write(o, |_| {}).expect("uncontended holder lock");
    }

    let exec = Executor::new(WORKERS);
    assert!(exec.workers() <= 8);
    let failed = Arc::new(AtomicUsize::new(0));
    for i in 0..sessions {
        let (mgr, objects, failed) = (mgr.clone(), objects.clone(), failed.clone());
        exec.spawn(async move {
            let tx = mgr.begin();
            let wrote = tx.write_async(&objects[i % OBJECTS], |v| *v += 1).await;
            if wrote.is_err() || tx.commit().is_err() {
                failed.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    // In flight from the moment of spawn; the waiter count proves they all
    // reached the lock queues rather than sitting unpolled in run queues.
    let start = Instant::now();
    while mgr.queued_waiters() < sessions {
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "only {} of {sessions} sessions enqueued",
            mgr.queued_waiters()
        );
        std::thread::yield_now();
    }
    assert!(exec.peak_in_flight() >= sessions);

    holder.commit().expect("holder commit");
    exec.drain();
    assert_eq!(failed.load(Ordering::SeqCst), 0, "sessions restarted");
    assert_eq!(mgr.queued_waiters(), 0);
    let snap = mgr.stats();
    assert_eq!((snap.timeouts, snap.deadlocks), (0, 0), "{snap:?}");
    let total: i64 = objects.iter().map(|o| mgr.read_committed(o, |v| *v)).sum();
    assert_eq!(total, sessions as i64, "a session's update was lost");
}

#[test]
fn ten_thousand_sessions_park_on_eight_workers_and_drain() {
    park_and_drain(10_000);
}

#[test]
#[ignore = "parks 120k sessions; tens of seconds"]
fn full_scale_120k_sessions_park_and_drain() {
    park_and_drain(120_000);
}

/// `struct rlimit`.
#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

/// Raise the soft descriptor limit to the hard one, and return it.
fn raise_descriptor_limit() -> u64 {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `struct rlimit` for the whole call.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim.cur = lim.max;
    // SAFETY: `lim` is a live `struct rlimit`, which the kernel only reads.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0);
    lim.max
}

/// The same over the wire: `sessions` connections to a two-reactor server
/// each park a write behind a holder connection's locks; once all are
/// queued the holder commits, and every session is answered, commits and
/// leaves before a graceful drain.
fn park_and_drain_over_the_wire(sessions: usize) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            objects: OBJECTS,
            max_sessions: sessions + 1,
            rt: RtConfig {
                wait_timeout: Duration::from_secs(300),
                ..Default::default()
            },
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mgr = server.manager().clone();
    let mut holder = Client::connect(addr).unwrap();
    let h = holder.begin().unwrap();
    for obj in 0..OBJECTS as u32 {
        holder
            .add(h, obj, 0)
            .unwrap()
            .expect("uncontended holder lock");
    }

    let mut clients: Vec<(Client, u32)> = (0..sessions)
        .map(|i| {
            let mut c = Client::connect(addr).unwrap();
            let t = c.begin().unwrap();
            c.send(Request::Access {
                handle: t,
                obj: (i % OBJECTS) as u32,
                write: true,
                delta: 1,
            })
            .unwrap();
            // Staged requests leave at a read; none follows here.
            c.flush().unwrap();
            (c, t)
        })
        .collect();
    let start = Instant::now();
    while mgr.queued_waiters() < sessions {
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "only {} of {sessions} sessions enqueued",
            mgr.queued_waiters()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.live_sessions(), sessions + 1);

    // Session `i` queued behind `i - OBJECTS` on the same object, which
    // was answered, and committed, before it.
    holder.commit(h).unwrap().expect("holder commit");
    for (c, t) in &mut clients {
        match c.read_response().unwrap() {
            Response::Value(_) => {}
            other => panic!("parked write answered {other:?}"),
        }
        c.commit(*t).unwrap().expect("session commit");
    }
    drop(clients);
    let t = holder.begin().unwrap();
    let total: i64 = (0..OBJECTS as u32)
        .map(|obj| holder.get(t, obj).unwrap().expect("read"))
        .sum();
    assert_eq!(total, sessions as i64, "a session's update was lost");
    drop(holder);
    server.drain();
    assert_eq!(mgr.queued_waiters(), 0);
    let snap = mgr.stats();
    assert_eq!((snap.timeouts, snap.deadlocks), (0, 0), "{snap:?}");
}

#[test]
fn wire_sessions_park_on_two_reactors_and_drain() {
    park_and_drain_over_the_wire(256);
}

#[test]
#[ignore = "parks 10k connections; raises the descriptor limit"]
fn ten_thousand_wire_sessions_park_on_two_reactors_and_drain() {
    const SESSIONS: usize = 10_000;
    // Both ends of every connection are this process's, plus a margin.
    let need = 2 * SESSIONS as u64 + 256;
    let limit = raise_descriptor_limit();
    if limit < need {
        eprintln!("skipped: the descriptor limit is {limit}, {need} are needed");
        return;
    }
    park_and_drain_over_the_wire(SESSIONS);
}
