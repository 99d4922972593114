//! Cross-thread stress tests for the sharded hot-path structures.
//!
//! The runtime's statistics, trace log, object store and wait-for graph
//! are all striped/sharded for scalability; these tests drive them from
//! many real threads (more threads than stat stripes would be ideal, but
//! ≥8 threads over 16 stripes still exercises cross-stripe folding) and
//! assert the *aggregated* views remain exact: counter totals equal
//! per-thread ground truth, and the merged trace is a total order
//! consistent with every thread's program order.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use ntx_runtime::{RtConfig, RtEvent, TraceRecorder, TxManager};

const THREADS: usize = 8;

fn config_with_trace(trace: Option<Arc<TraceRecorder>>) -> RtConfig {
    RtConfig {
        wait_timeout: Duration::from_secs(10),
        trace,
        ..Default::default()
    }
}

/// Striped stats must fold to exact totals across ≥8 threads.
#[test]
fn striped_stats_match_per_thread_ground_truth() {
    const TXS: usize = 100;
    const READS_PER_TX: usize = 3;
    const WRITES_PER_TX: usize = 2;

    let mgr = TxManager::new(config_with_trace(None));
    // One private object per thread: no contention, so every access is a
    // clean grant and the expected counts are exact.
    let objs: Vec<_> = (0..THREADS)
        .map(|t| mgr.register(format!("o{t}"), 0i64))
        .collect();
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let mgr = mgr.clone();
            let obj = objs[t];
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..TXS {
                    let tx = mgr.begin();
                    for _ in 0..WRITES_PER_TX {
                        tx.write(&obj, |v| *v += 1).unwrap();
                    }
                    for _ in 0..READS_PER_TX {
                        tx.read(&obj, |v| *v).unwrap();
                    }
                    tx.commit().unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let snap = mgr.stats();
    let total_txs = (THREADS * TXS) as u64;
    assert_eq!(snap.transactions_begun, total_txs);
    assert_eq!(snap.commits, total_txs);
    assert_eq!(snap.top_level_commits, total_txs);
    assert_eq!(snap.write_grants, total_txs * WRITES_PER_TX as u64);
    assert_eq!(snap.read_grants, total_txs * READS_PER_TX as u64);
    assert_eq!(snap.aborts, 0);
    assert_eq!(snap.waits, 0, "disjoint objects must never block");
    // And the data agrees with the counters.
    for obj in &objs {
        assert_eq!(
            mgr.read_committed(obj, |v| *v),
            (TXS * WRITES_PER_TX) as i64
        );
    }
}

/// Stats stay exact under *contention* too (wound-wait aborts, waits): the
/// conserved quantities are begun = commits + aborts at top level.
#[test]
fn striped_stats_consistent_under_contention() {
    let mgr = TxManager::new(config_with_trace(None));
    let hot = mgr.register("hot", 0i64);
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let mgr = mgr.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let mut committed = 0u64;
                for _ in 0..50 {
                    loop {
                        let tx = mgr.begin();
                        if tx.write(&hot, |v| *v += 1).is_ok() && tx.commit().is_ok() {
                            committed += 1;
                            break;
                        }
                        tx.abort();
                    }
                }
                committed
            })
        })
        .collect();
    let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(committed, (THREADS * 50) as u64);
    let snap = mgr.stats();
    assert_eq!(snap.top_level_commits, committed);
    assert_eq!(mgr.read_committed(&hot, |v| *v), committed as i64);
    assert_eq!(
        snap.transactions_begun,
        snap.commits + snap.aborts,
        "every top-level tx either committed or aborted: {snap:?}"
    );
}

/// The sharded trace recorder must still deliver ONE total order that is
/// consistent with each thread's program order: for every thread, its
/// transactions' events appear in execution order, and each transaction's
/// Begin precedes its grants which precede its Commit.
#[test]
fn sharded_trace_is_total_order_consistent_with_program_order() {
    const TXS: usize = 60;
    let recorder = Arc::new(TraceRecorder::new());
    let mgr = TxManager::new(config_with_trace(Some(recorder.clone())));
    let objs: Vec<_> = (0..THREADS)
        .map(|t| mgr.register(format!("o{t}"), 0i64))
        .collect();
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let mgr = mgr.clone();
            let obj = objs[t];
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                // Program order ground truth: the tx ids this thread ran,
                // in the order it ran them (each fully finished before the
                // next begins).
                let mut my_txs = Vec::with_capacity(TXS);
                for _ in 0..TXS {
                    let tx = mgr.begin();
                    my_txs.push(tx.id());
                    tx.write(&obj, |v| *v += 1).unwrap();
                    tx.read(&obj, |v| *v).unwrap();
                    tx.commit().unwrap();
                }
                my_txs
            })
        })
        .collect();
    let per_thread_txs: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let events = recorder.events();
    assert_eq!(recorder.len(), events.len());

    // Index of each transaction's Begin / WriteGrant / ReadGrant / Commit
    // in the merged total order.
    use std::collections::HashMap;
    #[derive(Default, Clone, Copy)]
    struct Marks {
        begin: Option<usize>,
        wgrant: Option<usize>,
        rgrant: Option<usize>,
        commit: Option<usize>,
    }
    let mut marks: HashMap<u64, Marks> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        match *ev {
            RtEvent::Begin { tx, .. } => marks.entry(tx).or_default().begin = Some(i),
            RtEvent::WriteGrant { tx, .. } => marks.entry(tx).or_default().wgrant = Some(i),
            RtEvent::ReadGrant { tx, .. } => marks.entry(tx).or_default().rgrant = Some(i),
            RtEvent::Commit { tx, .. } => marks.entry(tx).or_default().commit = Some(i),
            _ => {}
        }
    }
    for my_txs in &per_thread_txs {
        assert_eq!(my_txs.len(), TXS);
        let mut prev_commit: Option<usize> = None;
        for &tx in my_txs {
            let m = marks[&tx];
            let (b, w, r, c) = (
                m.begin.expect("begin traced"),
                m.wgrant.expect("write grant traced"),
                m.rgrant.expect("read grant traced"),
                m.commit.expect("commit traced"),
            );
            // Intra-transaction program order.
            assert!(b < w && w < r && r < c, "tx {tx}: {b} {w} {r} {c}");
            // Inter-transaction program order within the thread.
            if let Some(pc) = prev_commit {
                assert!(
                    pc < b,
                    "tx {tx} began (pos {b}) before predecessor committed (pos {pc})"
                );
            }
            prev_commit = Some(c);
        }
    }
}

/// Lock-free slab lookups race registration from other threads without
/// tearing: readers always see fully initialised slots.
#[test]
fn slab_reads_race_concurrent_registration() {
    let mgr = TxManager::new(config_with_trace(None));
    let first = mgr.register("seed", 0i64);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Registration starts only once every writer has committed once, so
    // the race is real whatever the thread start-up timing.
    let started = Arc::new(Barrier::new(5));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let mgr = mgr.clone();
            let stop = stop.clone();
            let started = started.clone();
            std::thread::spawn(move || {
                let mut n = 0u64;
                loop {
                    let tx = mgr.begin();
                    tx.write(&first, |v| *v += 1).unwrap();
                    tx.commit().unwrap();
                    n += 1;
                    if n == 1 {
                        started.wait();
                    }
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        return n;
                    }
                }
            })
        })
        .collect();
    started.wait();
    let mut refs = Vec::new();
    for i in 0..400 {
        refs.push(mgr.register(format!("r{i}"), i as i64));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let committed: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(committed >= 4);
    assert_eq!(mgr.read_committed(&first, |v| *v), committed as i64);
    for (i, r) in refs.iter().enumerate() {
        assert_eq!(mgr.read_committed(r, |v| *v), i as i64);
    }
    assert_eq!(mgr.object_count(), 401);
}

/// Targeted wakeups must not strand waiters: a blocked writer is woken
/// promptly when the holder commits (well under the 10s wait budget).
#[test]
fn blocked_writer_woken_by_commit() {
    let mgr = TxManager::new(config_with_trace(None));
    let x = mgr.register("x", 0i64);
    let holder = mgr.begin();
    holder.write(&x, |v| *v = 1).unwrap();
    let mgr2 = mgr.clone();
    let waiter = std::thread::spawn(move || {
        let tx = mgr2.begin();
        let started = std::time::Instant::now();
        tx.write(&x, |v| *v += 10).unwrap();
        tx.commit().unwrap();
        started.elapsed()
    });
    // Let the waiter actually park, then release.
    std::thread::sleep(Duration::from_millis(100));
    holder.commit().unwrap();
    let waited = waiter.join().unwrap();
    assert!(waited >= Duration::from_millis(50), "waiter never blocked");
    assert!(
        waited < Duration::from_secs(5),
        "waiter stalled {waited:?} — wakeup lost"
    );
    assert_eq!(mgr.read_committed(&x, |v| *v), 11);
    assert!(mgr.stats().waits >= 1);
}
