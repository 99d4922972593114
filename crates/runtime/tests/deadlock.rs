//! Die on cycle with the wait-for edges kept in the lock queues: the two
//! cycles the top-keyed edge map lost, the stale-edge case that must not
//! make a victim, and a threaded stress that closes cycles across many
//! tops at once. Every wait has a 2 s budget, and a detected cycle
//! resolves in milliseconds, so an outcome that took the budget is a
//! failure here, not a slow pass. CI runs this file in release too:
//! release timing opens race windows the debug run rarely hits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use ntx_runtime::{ObjRef, RtConfig, TxError, TxManager};

const BUDGET: Duration = Duration::from_secs(2);

/// Well inside the budget: the detection answered, not the timeout.
const PROMPT: Duration = Duration::from_millis(1_000);

fn mgr() -> TxManager {
    TxManager::new(RtConfig {
        wait_timeout: BUDGET,
        ..Default::default()
    })
}

/// Wait until `n` requests sit in lock queues.
fn await_queued(mgr: &TxManager, n: usize) {
    let start = Instant::now();
    while mgr.queued_waiters() < n {
        assert!(
            start.elapsed() < BUDGET,
            "only {} queued",
            mgr.queued_waiters()
        );
        thread::yield_now();
    }
}

/// (a) A holds y; its child a1 waits on x, which B holds; a second child
/// a2 of A aborts; then B writes y. A waits for B through a1, and B for
/// A: a deadlock, and B — the younger — dies. The top-keyed map lost it:
/// a2's abort cleared A's whole entry, a1's edge with it, and both sides
/// waited out the budget (`Timeout`/`Timeout`, `deadlocks == 0`).
#[test]
fn a_sibling_abort_keeps_the_cycle_through_a_waiting_child() {
    let mgr = mgr();
    let (x, y) = (mgr.register("x", 0i64), mgr.register("y", 0i64));
    let a = mgr.begin();
    let b = mgr.begin();
    a.write(&y, |v| *v += 1).unwrap();
    b.write(&x, |v| *v += 1).unwrap();
    let (a1, a2) = (a.child().unwrap(), a.child().unwrap());
    thread::scope(|s| {
        let waiter = s.spawn(|| a1.write(&x, |v| *v += 10));
        await_queued(&mgr, 1);
        a2.abort();
        let started = Instant::now();
        assert_eq!(b.write(&y, |v| *v += 100), Err(TxError::Deadlock));
        assert!(started.elapsed() < PROMPT, "{:?}", started.elapsed());
        b.abort();
        assert_eq!(waiter.join().unwrap(), Ok(()), "a1 proceeds once B is gone");
    });
    a1.commit().unwrap();
    a.commit().unwrap();
    assert_eq!(mgr.read_committed(&x, |v| *v), 10);
    assert_eq!(mgr.read_committed(&y, |v| *v), 1);
    let stats = mgr.stats();
    assert_eq!((stats.deadlocks, stats.timeouts), (1, 0), "{stats:?}");
    assert_eq!(mgr.queued_waiters(), 0);
}

/// (b) Children a1 and a2 of A wait at once, on x (held by B) and z (held
/// by C); then B writes y, which A holds. A waits for B through a1: a
/// deadlock, and B dies. The top-keyed map lost it: a2's edge to C
/// overwrote a1's edge to B.
#[test]
fn concurrent_siblings_keep_each_others_edges() {
    let mgr = mgr();
    let (x, y, z) = (
        mgr.register("x", 0i64),
        mgr.register("y", 0i64),
        mgr.register("z", 0i64),
    );
    let (a, b, c) = (mgr.begin(), mgr.begin(), mgr.begin());
    a.write(&y, |v| *v += 1).unwrap();
    b.write(&x, |v| *v += 1).unwrap();
    c.write(&z, |v| *v += 1).unwrap();
    let (a1, a2) = (a.child().unwrap(), a.child().unwrap());
    thread::scope(|s| {
        let on_x = s.spawn(|| a1.write(&x, |v| *v += 10));
        await_queued(&mgr, 1);
        let on_z = s.spawn(|| a2.write(&z, |v| *v += 10));
        await_queued(&mgr, 2);
        let started = Instant::now();
        assert_eq!(b.write(&y, |v| *v += 100), Err(TxError::Deadlock));
        assert!(started.elapsed() < PROMPT, "{:?}", started.elapsed());
        b.abort();
        assert_eq!(on_x.join().unwrap(), Ok(()), "a1 proceeds once B is gone");
        c.commit().unwrap();
        assert_eq!(on_z.join().unwrap(), Ok(()), "a2 proceeds once C commits");
    });
    a1.commit().unwrap();
    a2.commit().unwrap();
    a.commit().unwrap();
    assert_eq!(mgr.read_committed(&x, |v| *v), 10);
    assert_eq!(mgr.read_committed(&z, |v| *v), 11);
    let stats = mgr.stats();
    assert_eq!((stats.deadlocks, stats.timeouts), (1, 0), "{stats:?}");
    assert_eq!(mgr.queued_waiters(), 0);
}

/// Precision: a1 (A's child) and C hold x for reading, so B's write
/// queues behind both. Then a1 aborts — B now waits only on C — and A
/// writes y, which B holds. A waits on B, B on C, C on nobody: no cycle,
/// so no victim. C commits, B gets x and commits, A gets y. An edge left
/// over from a1's read would close A → B → A and kill someone.
#[test]
fn a_holder_that_left_makes_no_victim() {
    let mgr = mgr();
    let (x, y) = (mgr.register("x", 0i64), mgr.register("y", 0i64));
    let (a, b, c) = (mgr.begin(), mgr.begin(), mgr.begin());
    b.write(&y, |v| *v += 1).unwrap();
    let a1 = a.child().unwrap();
    a1.read(&x, |v| *v).unwrap();
    c.read(&x, |v| *v).unwrap();
    thread::scope(|s| {
        let b_side = s.spawn(|| {
            b.write(&x, |v| *v += 1)?;
            b.commit()
        });
        await_queued(&mgr, 1);
        a1.abort();
        let a_side = s.spawn(|| a.write(&y, |v| *v += 10));
        await_queued(&mgr, 2);
        c.commit().unwrap();
        assert_eq!(b_side.join().unwrap(), Ok(()), "B gets x once C is gone");
        assert_eq!(a_side.join().unwrap(), Ok(()), "A gets y once B commits");
    });
    a.commit().unwrap();
    assert_eq!(mgr.read_committed(&x, |v| *v), 1);
    assert_eq!(mgr.read_committed(&y, |v| *v), 11);
    let stats = mgr.stats();
    assert_eq!((stats.deadlocks, stats.timeouts), (0, 0), "{stats:?}");
    assert_eq!(mgr.queued_waiters(), 0);
}

/// Four pairs of threads keep closing cycles for about a second: a pair's
/// two threads write their pair's two objects in opposite orders (2-cycles),
/// and every other round all eight write around one ring of three objects
/// (3-cycles, and more at once across distinct tops). A victim retries with
/// a fresh transaction. Each cycle is broken exactly once — the manager's
/// deadlock count equals the `Deadlock` errors the threads saw — and none
/// waits out its budget.
#[test]
fn threaded_cycles_are_each_broken_exactly_once() {
    const PAIRS: usize = 4;
    let mgr = mgr();
    let pairs: Vec<[ObjRef<i64>; 2]> = (0..PAIRS)
        .map(|p| [0, 1].map(|i| mgr.register(format!("p{p}.{i}"), 0i64)))
        .collect();
    let ring: Vec<ObjRef<i64>> = (0..3).map(|i| mgr.register(format!("r{i}"), 0)).collect();
    let (errors, commits) = (AtomicU64::new(0), AtomicU64::new(0));
    let until = Instant::now() + Duration::from_millis(1_000);
    thread::scope(|s| {
        for t in 0..2 * PAIRS {
            let (mgr, pairs, ring) = (&mgr, &pairs, &ring);
            let (errors, commits) = (&errors, &commits);
            s.spawn(move || {
                let mut round = 0usize;
                while Instant::now() < until {
                    round += 1;
                    let [a, b] = &pairs[t / 2];
                    let (first, second) = match (round % 2, t % 2) {
                        (0, 0) => (a, b),
                        (0, _) => (b, a),
                        _ => (&ring[t % 3], &ring[(t + 1) % 3]),
                    };
                    let tx = mgr.begin();
                    let r = tx.write(first, |v| *v += 1).and_then(|()| {
                        thread::yield_now();
                        tx.write(second, |v| *v += 1)
                    });
                    match r {
                        Ok(()) => {
                            tx.commit().unwrap();
                            commits.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(TxError::Deadlock) => {
                            errors.fetch_add(1, Ordering::SeqCst);
                            tx.abort();
                        }
                        Err(e) => panic!("thread {t}: {e:?}"),
                    }
                }
            });
        }
    });
    let stats = mgr.stats();
    let errors = errors.load(Ordering::SeqCst);
    assert!(errors > 0, "no cycle closed: {stats:?}");
    assert_eq!(stats.deadlocks, errors, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(mgr.queued_waiters(), 0);
    let written: i64 = pairs
        .iter()
        .flatten()
        .chain(&ring)
        .map(|o| mgr.read_committed(o, |v| *v))
        .sum();
    assert_eq!(written, 2 * commits.load(Ordering::SeqCst) as i64);
}
