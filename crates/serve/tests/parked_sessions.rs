//! Session futures, not threads: thousands of sessions park as callback
//! waiters in the lock queues while at most eight executor workers exist,
//! and the whole backlog drains through the grant waves once the holder
//! releases.

use ntx_runtime::{ObjRef, RtConfig, TxManager};
use ntx_serve::Executor;
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
