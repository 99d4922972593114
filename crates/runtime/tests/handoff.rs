//! Queued direct-handoff lock waiting: fairness, liveness, and cleanup.
//!
//! The per-object FIFO waiter queue replaced the park/retry wakeup scheme;
//! these tests pin down the properties that scheme could not provide:
//! grant order matches enqueue order (no barging), a writer behind a
//! continuous reader stream commits promptly (no starvation), and
//! cancelled waiters — timed out or wounded — leave no queue node behind.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ntx_runtime::{RtConfig, TxError, TxManager};

/// Block until `n` requests sit in the lock queues: a test that confirms
/// each spawned request queued before spawning the next fixes the queue
/// order without sleeping.
fn wait_queued(mgr: &TxManager, n: usize) {
    let start = Instant::now();
    while mgr.queued_waiters() < n {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "request {n} never enqueued"
        );
        std::thread::yield_now();
    }
}

/// Grant order equals enqueue order. Writers enqueue one at a time (each
/// confirmed parked before the next starts), the holder releases, and each
/// granted writer appends its index to the shared object — so the committed
/// state *is* the handoff order. Checked for several queue depths.
#[test]
fn handoff_order_is_fifo() {
    for depth in 2..=6usize {
        let mgr = TxManager::new(RtConfig {
            wait_timeout: Duration::from_secs(10),
            ..Default::default()
        });
        let hot = mgr.register("hot", Vec::<usize>::new());
        let holder = mgr.begin();
        holder.write(&hot, |_| {}).unwrap();
        let handles: Vec<_> = (0..depth)
            .map(|i| {
                let tmgr = mgr.clone();
                let h = std::thread::spawn(move || {
                    let tx = tmgr.begin();
                    tx.write(&hot, |v| v.push(i)).unwrap();
                    tx.commit().unwrap();
                });
                // Wait until writer i is actually queued before releasing
                // the next one: enqueue order is then exactly 0, 1, 2, …
                wait_queued(&mgr, i + 1);
                h
            })
            .collect();
        holder.commit().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let order = mgr.read_committed(&hot, |v| v.clone());
        assert_eq!(
            order,
            (0..depth).collect::<Vec<_>>(),
            "handoff order broke FIFO at depth {depth}"
        );
        assert_eq!(mgr.queued_waiters(), 0);
        let snap = mgr.stats();
        assert_eq!(
            snap.handoffs, depth as u64,
            "every queued writer handed off"
        );
    }
}

/// Wave batching preserves FIFO-compatibility order: with the queue built
/// up as R0, R1, W2, R3 behind a write holder, the release grants R0+R1
/// together (one wave), then W2, then R3 — so R0/R1 observe the holder's
/// value, R3 observes W2's write, and the stats record three waves for
/// four grants.
#[test]
fn wave_batching_preserves_fifo_compatibility() {
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let hot = mgr.register("hot", 0i64);
    let holder = mgr.begin();
    holder.write(&hot, |v| *v = 1).unwrap();
    // Enqueue R0, R1, W2, R3 — each confirmed queued before the next
    // starts, so queue order is exactly spawn order.
    let mut handles = Vec::new();
    for i in 0..4usize {
        let tmgr = mgr.clone();
        let h = std::thread::spawn(move || {
            let tx = tmgr.begin();
            let seen = if i == 2 {
                tx.write(&hot, |v| *v = 2).unwrap();
                -1
            } else {
                tx.read(&hot, |v| *v).unwrap()
            };
            tx.commit().unwrap();
            seen
        });
        wait_queued(&mgr, i + 1);
        handles.push(h);
    }
    holder.commit().unwrap();
    let seen: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        seen,
        vec![1, 1, -1, 2],
        "readers before the writer must see the holder's value, after it the writer's"
    );
    assert_eq!(mgr.read_committed(&hot, |v| *v), 2);
    assert_eq!(mgr.queued_waiters(), 0);
    let snap = mgr.stats();
    assert_eq!(snap.wave_grants, 4, "four queued waiters granted");
    assert_eq!(
        snap.handoffs, 3,
        "R0+R1 coalesce into one wave; W2 and R3 get one each"
    );
}

/// Hot-key storm on the default configuration, all-write and with a
/// half-read mix: every blocked request resolves by exactly one wave grant
/// (`waits == wave_grants` — nothing times out, dies or restarts, which
/// the `unwrap`s enforce per request), waves never outnumber grants, and
/// the queue is empty at quiescence. The first round is pinned: all eight
/// requests queue behind a holder before it releases, readers first, so
/// the mix's first wave coalesces them (`wave_grants > handoffs`); the
/// remaining rounds run free.
#[test]
fn hot_key_storm_resolves_every_wait_by_one_wave_grant() {
    const THREADS: usize = 8;
    const TXS: usize = 200;
    for read_mix in [false, true] {
        let mgr = TxManager::new(RtConfig::default());
        let hot = mgr.register("hot", 0i64);
        let holder = mgr.begin();
        holder.write(&hot, |_| {}).unwrap();
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let reads = read_mix && i < THREADS / 2;
                let tmgr = mgr.clone();
                let h = std::thread::spawn(move || {
                    for _ in 0..TXS {
                        let tx = tmgr.begin();
                        if reads {
                            tx.read(&hot, |v| *v).unwrap();
                        } else {
                            tx.write(&hot, |v| *v += 1).unwrap();
                        }
                        tx.commit().unwrap();
                    }
                });
                wait_queued(&mgr, i + 1);
                h
            })
            .collect();
        holder.commit().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let writers = if read_mix { THREADS / 2 } else { THREADS };
        assert_eq!(mgr.read_committed(&hot, |v| *v), (writers * TXS) as i64);
        assert_eq!(mgr.queued_waiters(), 0, "queue must drain at quiescence");
        let snap = mgr.stats();
        assert!(snap.waits >= THREADS as u64, "{snap:?}");
        assert_eq!(snap.waits, snap.wave_grants, "{snap:?}");
        assert!(
            0 < snap.handoffs && snap.handoffs <= snap.wave_grants,
            "{snap:?}"
        );
        assert_eq!((snap.timeouts, snap.deadlocks), (0, 0), "{snap:?}");
        assert_eq!(
            snap.transactions_begun,
            snap.commits + snap.aborts,
            "{snap:?}"
        );
        if read_mix {
            assert!(
                snap.wave_grants > snap.handoffs,
                "four queued readers must share a wave: {snap:?}"
            );
        }
    }
}

/// A writer behind a continuous reader stream (read fraction ≈ 0.9) must
/// commit promptly: once the writer queues, later readers line up behind it
/// instead of barging onto the read lock, so the writer drains through.
#[test]
fn writer_not_starved_by_reader_stream() {
    const READERS: usize = 6;
    const WRITER_TXS: usize = 20;
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(5),
        ..Default::default()
    });
    let hot = mgr.register("hot", 0i64);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let mgr = mgr.clone();
            let stop = stop.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut n = 0u64;
                loop {
                    let tx = mgr.begin();
                    // Readers that hit the writer's queue window time out
                    // of the test's scope quickly and retry.
                    if tx.read(&hot, |v| *v).is_ok() {
                        let _ = tx.commit();
                    }
                    n += 1;
                    // The writer starts once every reader has read once,
                    // whatever the thread start-up timing.
                    if n == 1 {
                        barrier.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        return n;
                    }
                }
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    for i in 0..WRITER_TXS {
        let tx = mgr.begin();
        tx.write(&hot, |v| *v += 1)
            .unwrap_or_else(|e| panic!("writer tx {i} starved: {e:?}"));
        tx.commit().unwrap();
    }
    let writer_time = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let read_txs: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(mgr.read_committed(&hot, |v| *v), WRITER_TXS as i64);
    assert!(read_txs > 0);
    assert!(
        writer_time < Duration::from_secs(20),
        "writer needed {writer_time:?} for {WRITER_TXS} commits against {read_txs} reads"
    );
    assert_eq!(mgr.queued_waiters(), 0, "queue must drain at quiescence");
}

/// Timed-out waiters cancel their queue node in place: with a tiny wait
/// budget and a long-held write lock, a pile of writers times out, and the
/// queue must be empty the moment they have all returned — not just after
/// the holder finally releases.
#[test]
fn timed_out_waiters_withdraw_in_place() {
    const THREADS: usize = 8;
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_millis(40),
        ..Default::default()
    });
    let hot = mgr.register("hot", 0i64);
    let holder = mgr.begin();
    holder.write(&hot, |v| *v = 1).unwrap();
    let barrier = Arc::new(Barrier::new(THREADS));
    let timed_out = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let mgr = mgr.clone();
            let barrier = barrier.clone();
            let timed_out = timed_out.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let tx = mgr.begin();
                match tx.write(&hot, |v| *v += 1) {
                    Err(TxError::Timeout) => {
                        timed_out.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("expected timeout, got {other:?}"),
                }
                tx.abort();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // All waiters returned; the holder still holds the lock, yet the queue
    // must already be empty (in-place withdrawal, not scan-time garbage
    // collection).
    assert_eq!(
        mgr.queued_waiters(),
        0,
        "timed-out waiters left queue nodes"
    );
    assert_eq!(timed_out.load(Ordering::Relaxed), THREADS);
    let snap = mgr.stats();
    assert_eq!(snap.timeouts, THREADS as u64);
    assert!(
        snap.cancelled_waiters >= 1,
        "at least one waiter must have parked and withdrawn: {snap:?}"
    );
    holder.commit().unwrap();
    let tx = mgr.begin();
    tx.write(&hot, |v| *v += 1).unwrap();
    tx.commit().unwrap();
    assert_eq!(mgr.read_committed(&hot, |v| *v), 2);
}

/// Regression (companion to the loom model `loom_timeout_withdraw_vs_grant`):
/// a waiter whose deadline fires *while the holder is releasing* must
/// resolve to exactly one of {granted, timed out} with the object left
/// consistent either way — no wedged write-pending latch, no leaked queue
/// node, no lost grant. The release delay sweeps across the timeout
/// deadline so some iterations land on each side of the race and some
/// right on it.
#[test]
fn timeout_withdrawal_races_concurrent_release() {
    const ITERS: usize = 120;
    let mut granted = 0usize;
    let mut timed_out = 0usize;
    for i in 0..ITERS {
        let mgr = TxManager::new(RtConfig {
            wait_timeout: Duration::from_millis(2),
            ..Default::default()
        });
        let hot = mgr.register("hot", 0i64);
        let holder = mgr.begin();
        holder.write(&hot, |v| *v = 1).unwrap();
        let waiter = {
            let mgr = mgr.clone();
            std::thread::spawn(move || {
                let tx = mgr.begin();
                match tx.write(&hot, |v| *v = 10) {
                    Ok(()) => {
                        tx.commit().unwrap();
                        Ok(())
                    }
                    Err(e) => {
                        tx.abort();
                        Err(e)
                    }
                }
            })
        };
        // Release somewhere in a window straddling the 2ms deadline
        // (0µs..4000µs in 500µs steps), so grant and withdrawal collide.
        let start = Instant::now();
        while mgr.queued_waiters() == 0 && !waiter.is_finished() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "waiter never enqueued"
            );
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_micros((i as u64 % 9) * 500));
        holder.abort();
        match waiter.join().unwrap() {
            Ok(()) => {
                granted += 1;
                assert_eq!(mgr.read_committed(&hot, |v| *v), 10);
            }
            Err(TxError::Timeout) => {
                timed_out += 1;
                // The holder's write rolled back and nobody else wrote.
                assert_eq!(mgr.read_committed(&hot, |v| *v), 0);
            }
            Err(other) => panic!("iteration {i}: expected grant or timeout, got {other:?}"),
        }
        assert_eq!(mgr.queued_waiters(), 0, "iteration {i}: queue node leaked");
        // Whatever the outcome, the lock must be free: a fresh writer gets
        // it immediately (a wedged write-pending latch would block here
        // until its own timeout and fail).
        let probe = mgr.begin();
        probe.write(&hot, |v| *v += 100).unwrap();
        probe.commit().unwrap();
    }
    assert_eq!(granted + timed_out, ITERS);
    // Not a strict requirement of the scheme (timing-dependent), but if
    // every iteration resolved the same way the sweep lost its point; the
    // 0µs and 4000µs endpoints make both outcomes overwhelmingly likely.
    assert!(
        granted > 0 && timed_out > 0,
        "race never exercised both arms: granted={granted} timed_out={timed_out}"
    );
}

/// A blocked `Tx::write` is timed out by the manager's sweeper, like a
/// suspended future: never before its deadline, and late by at most a
/// sweeper tick (`wait_timeout / 8`, here 6.25 ms) plus scheduling — far
/// under a second.
#[test]
fn sync_timeout_fires_after_its_deadline_within_a_tick() {
    let timeout = Duration::from_millis(50);
    let mgr = TxManager::new(RtConfig {
        wait_timeout: timeout,
        ..Default::default()
    });
    let hot = mgr.register("hot", 0i64);
    let holder = mgr.begin();
    holder.write(&hot, |v| *v = 1).unwrap();
    let tx = mgr.begin();
    let start = Instant::now();
    assert_eq!(tx.write(&hot, |v| *v = 2), Err(TxError::Timeout));
    let waited = start.elapsed();
    assert!(waited >= timeout, "timed out early, after {waited:?}");
    assert!(
        waited < Duration::from_secs(1),
        "timed out late, after {waited:?}"
    );
    assert_eq!(mgr.queued_waiters(), 0);
    assert_eq!(mgr.stats().timeouts, 1);
    tx.abort();
    holder.commit().unwrap();
}
