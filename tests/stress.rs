//! Opt-in soak tests (`cargo test --test stress -- --ignored`).
//!
//! Long-running, high-concurrency hammering of the runtime, as Moss'
//! locking and as the two baselines a caller builds on it, checking the global invariants that must never break:
//! conservation of transferred value, zero leaked aborted writes, stats
//! coherence, and that die on cycle alone resolves every deadlock — with a
//! 20 s wait budget no request may time out, and no waiter outlives the
//! run. Excluded from the default test run to keep CI fast.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ntx_runtime::{RtConfig, TxError, TxManager};

/// How the soak uses the runtime's one locking discipline.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Caller {
    /// Reads and writes as declared: Moss' read/write locking.
    Moss,
    /// The balance check issued as a write whose closure only reads:
    /// exclusive locking (the paper's §4.3 remark).
    ReadsAsWrites,
    /// A failed child restarts the whole transfer: flat two-phase locking.
    FlatRestart,
}

fn soak(caller: Caller, threads: usize, txs: usize) {
    const ACCOUNTS: usize = 8;
    const OPENING: i64 = 1_000;
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(20),
        ..Default::default()
    });
    let accounts: Arc<Vec<_>> = Arc::new(
        (0..ACCOUNTS)
            .map(|i| mgr.register(format!("a{i}"), OPENING))
            .collect(),
    );
    let barrier = Arc::new(Barrier::new(threads));
    let retries = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..threads as u64)
        .map(|t| {
            let mgr = mgr.clone();
            let accounts = accounts.clone();
            let barrier = barrier.clone();
            let retries = retries.clone();
            std::thread::spawn(move || {
                let mut s = t.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
                let mut rng = move |n: usize| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s >> 33) as usize % n
                };
                barrier.wait();
                for i in 0..txs {
                    let from = rng(ACCOUNTS);
                    let to = (from + 1 + rng(ACCOUNTS - 1)) % ACCOUNTS;
                    let amount = rng(20) as i64 + 1;
                    let nested = i % 3 != 0; // mix nested and flat bodies
                    let restart = caller == Caller::FlatRestart;
                    'retry: loop {
                        let tx = mgr.begin();
                        let moved: Result<(), TxError> = if nested {
                            tx.retry_child(if restart { 1 } else { 8 }, |c| {
                                // The balance check guards the debit.
                                let balance = if caller == Caller::ReadsAsWrites {
                                    c.write(&accounts[from], |b| *b)?
                                } else {
                                    c.read(&accounts[from], |b| *b)?
                                };
                                let amount = amount.min(balance.max(0));
                                c.write(&accounts[from], |b| *b -= amount)?;
                                // Occasionally inject a poison child that
                                // must roll back cleanly; under flat restart
                                // its failure restarts the whole transfer.
                                if rng(10) == 0 {
                                    if let Ok(bad) = c.child() {
                                        let _ = bad.write(&accounts[to], |b| *b += 1_000_000);
                                        bad.abort();
                                        if restart {
                                            return Err(TxError::Doomed);
                                        }
                                    }
                                }
                                c.write(&accounts[to], |b| *b += amount)?;
                                Ok(())
                            })
                        } else {
                            tx.write(&accounts[from], |b| *b -= amount)
                                .and_then(|()| tx.write(&accounts[to], |b| *b += amount))
                        };
                        match moved {
                            Ok(()) => {
                                if tx.commit().is_ok() {
                                    break 'retry;
                                }
                                retries.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(TxError::Deadlock | TxError::Timeout | TxError::Doomed) => {
                                tx.abort();
                                retries.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total: i64 = accounts.iter().map(|a| mgr.read_committed(a, |b| *b)).sum();
    assert_eq!(
        total,
        ACCOUNTS as i64 * OPENING,
        "conservation broken under {caller:?}"
    );
    for a in accounts.iter() {
        let v = mgr.read_committed(a, |b| *b);
        assert!(v.abs() < 500_000, "poison write leaked: {v}");
    }
    let stats = mgr.stats();
    assert_eq!(stats.top_level_commits as usize, threads * txs);
    assert!(stats.commits >= stats.top_level_commits);
    // Every cycle was found by detection: none waited out the budget.
    assert_eq!(stats.timeouts, 0, "a deadlock went undetected: {stats:?}");
    assert_eq!(mgr.queued_waiters(), 0, "a waiter outlived the run");
}

#[test]
#[ignore = "soak test; run with --ignored"]
fn soak_moss_die_on_cycle() {
    soak(Caller::Moss, 8, 2_000);
}

#[test]
#[ignore = "soak test; run with --ignored"]
fn soak_exclusive() {
    soak(Caller::ReadsAsWrites, 8, 1_000);
}

#[test]
#[ignore = "soak test; run with --ignored"]
fn soak_flat2pl() {
    soak(Caller::FlatRestart, 8, 1_000);
}

/// A quick (non-ignored) smoke version so the soak path is exercised in CI.
#[test]
fn soak_smoke() {
    soak(Caller::Moss, 4, 100);
}
