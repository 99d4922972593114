//! Integration test: end-to-end serializability of the runtime.
//!
//! Moss' locking inherits every lock up to the top-level transaction, which
//! therefore holds all its locks until commit — strict two-phase locking at
//! the top level. Consequence: replaying the *logged* committed
//! transactions in their commit order against a fresh store must reproduce
//! both every value each transaction read and the final committed state.
//! We check exactly that, under concurrency, with failure injection, for
//! Moss' locking and for the two baselines a caller builds on it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use ntx_runtime::{ObjRef, RtConfig, TxError, TxManager};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One logged operation of a committed transaction.
#[derive(Clone, Copy, Debug)]
enum LoggedOp {
    /// Read object `obj`, observed `value`.
    Read { obj: usize, value: i64 },
    /// Added `delta` to object `obj`.
    Add { obj: usize, delta: i64 },
}

/// How the workload uses the runtime's one locking discipline.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Caller {
    /// Reads and writes as declared: Moss' read/write locking.
    Moss,
    /// Every read issued as a write whose closure only reads: exclusive
    /// locking (the paper's §4.3 remark).
    ReadsAsWrites,
    /// A failed child aborts the whole transaction, which restarts: flat
    /// two-phase locking.
    FlatRestart,
}

/// A committed transaction's log, stamped with its commit sequence number.
#[derive(Clone, Debug)]
struct CommittedTx {
    commit_seq: u64,
    ops: Vec<LoggedOp>,
}

fn run_workload(
    caller: Caller,
    seed: u64,
    threads: usize,
    txs: usize,
) -> (Vec<CommittedTx>, Vec<i64>) {
    const OBJECTS: usize = 6;
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let objects: Arc<Vec<ObjRef<i64>>> = Arc::new(
        (0..OBJECTS)
            .map(|i| mgr.register(format!("o{i}"), 0))
            .collect(),
    );
    let commit_clock = Arc::new(AtomicU64::new(0));
    let log: Arc<Mutex<Vec<CommittedTx>>> = Arc::new(Mutex::new(Vec::new()));
    let barrier = Arc::new(Barrier::new(threads));

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mgr = mgr.clone();
            let objects = objects.clone();
            let commit_clock = commit_clock.clone();
            let log = log.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64) << 17);
                barrier.wait();
                for _ in 0..txs {
                    // Pre-draw the transaction body.
                    let body: Vec<(usize, Option<i64>)> = (0..4)
                        .map(|_| {
                            let obj = rng.gen_range(0..OBJECTS);
                            if rng.gen_bool(0.5) {
                                (obj, None) // read
                            } else {
                                (obj, Some(rng.gen_range(-3..4))) // add delta
                            }
                        })
                        .collect();
                    let use_child = rng.gen_bool(0.5);
                    // Inject at most once per logical transaction — under
                    // flat restart the injected child abort restarts the
                    // whole transaction, so re-injecting on every retry
                    // would never terminate.
                    let mut inject_failure = rng.gen_bool(0.2);
                    'retry: loop {
                        let tx = mgr.begin();
                        let mut ops = Vec::new();
                        // Optionally run a child that gets aborted (its
                        // effects must vanish from the log AND the store).
                        if std::mem::take(&mut inject_failure) {
                            if let Ok(child) = tx.child() {
                                let _ = child.write(&objects[0], |v| *v += 1_000_000);
                                child.abort();
                                if caller == Caller::FlatRestart {
                                    tx.abort();
                                    continue 'retry;
                                }
                            }
                        }
                        let mut failed = false;
                        let access =
                            |t: &ntx_runtime::Tx, obj: usize, delta: Option<i64>| match delta {
                                None if caller == Caller::ReadsAsWrites => t
                                    .write(&objects[obj], |v| *v)
                                    .map(|v| LoggedOp::Read { obj, value: v }),
                                None => t
                                    .read(&objects[obj], |v| *v)
                                    .map(|v| LoggedOp::Read { obj, value: v }),
                                Some(d) => t
                                    .write(&objects[obj], |v| *v += d)
                                    .map(|_| LoggedOp::Add { obj, delta: d }),
                            };
                        for &(obj, delta) in &body {
                            let r: Result<LoggedOp, TxError> = if use_child {
                                tx.run_child(|c| access(c, obj, delta))
                            } else {
                                access(&tx, obj, delta)
                            };
                            match r {
                                Ok(op) => ops.push(op),
                                Err(_) => {
                                    failed = true;
                                    break;
                                }
                            }
                        }
                        if failed {
                            tx.abort();
                            continue 'retry;
                        }
                        // Commit while holding a global commit-order stamp.
                        // Taking the stamp under the top-level locks (before
                        // commit releases them) makes the stamp order agree
                        // with the strict-2PL serialization order.
                        let seq = commit_clock.fetch_add(1, Ordering::SeqCst);
                        match tx.commit() {
                            Ok(()) => {
                                log.lock().unwrap().push(CommittedTx {
                                    commit_seq: seq,
                                    ops,
                                });
                                break 'retry;
                            }
                            Err(_) => continue 'retry,
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let final_state: Vec<i64> = objects
        .iter()
        .map(|o| mgr.read_committed(o, |v| *v))
        .collect();
    let mut committed = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
    committed.sort_by_key(|c| c.commit_seq);
    (committed, final_state)
}

fn check_serializable(committed: &[CommittedTx], final_state: &[i64]) {
    // Replay in commit order; every logged read must see the replayed value.
    let mut state = vec![0i64; final_state.len()];
    for (i, tx) in committed.iter().enumerate() {
        for op in &tx.ops {
            match *op {
                LoggedOp::Read { obj, value } => {
                    assert_eq!(
                        state[obj], value,
                        "tx #{i} read {value} from obj {obj}, replay says {}",
                        state[obj]
                    );
                }
                LoggedOp::Add { obj, delta } => state[obj] += delta,
            }
        }
    }
    assert_eq!(
        state, final_state,
        "final state diverges from commit-order replay"
    );
}

#[test]
fn moss_rw_is_serializable_under_concurrency() {
    for seed in 0..4 {
        let (committed, final_state) = run_workload(Caller::Moss, seed, 6, 60);
        assert_eq!(committed.len(), 6 * 60);
        check_serializable(&committed, &final_state);
    }
}

#[test]
fn exclusive_is_serializable_under_concurrency() {
    let (committed, final_state) = run_workload(Caller::ReadsAsWrites, 7, 4, 50);
    check_serializable(&committed, &final_state);
}

#[test]
fn flat2pl_is_serializable_under_concurrency() {
    let (committed, final_state) = run_workload(Caller::FlatRestart, 11, 4, 50);
    check_serializable(&committed, &final_state);
}

#[test]
fn injected_child_aborts_leak_nothing() {
    // The +1_000_000 writes from aborted children must never surface.
    let (committed, final_state) = run_workload(Caller::Moss, 13, 4, 50);
    for s in &final_state {
        assert!(
            s.abs() < 100_000,
            "aborted child write leaked: {final_state:?}"
        );
    }
    for tx in &committed {
        for op in &tx.ops {
            if let LoggedOp::Read { value, .. } = op {
                assert!(
                    value.abs() < 100_000,
                    "dirty read of aborted write: {value}"
                );
            }
        }
    }
}
