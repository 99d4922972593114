//! Concurrent banking: many threads transfer money between accounts using
//! nested transactions, with deadlock-driven retries confined to the failed
//! subtransaction. The invariant — total money is conserved — is checked at
//! the end, and the run is repeated under three locking disciplines to
//! show their behavioural differences. The runtime has one, Moss'
//! read/write locking; the other two are the baselines a caller builds on
//! it.
//!
//! Run with: `cargo run --example banking`

use std::sync::Arc;
use std::time::{Duration, Instant};

use ntx_runtime::{RtConfig, TxError, TxManager};

const ACCOUNTS: usize = 16;
const THREADS: usize = 8;
const TRANSFERS_PER_THREAD: usize = 200;
const OPENING_BALANCE: i64 = 1_000;

/// How the transfers use the runtime's locking.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Discipline {
    /// Moss' read/write locking: the balance check takes a read lock, and a
    /// deadlock retries only the transfer's child.
    MossRW,
    /// Exclusive (Lynch–Merritt) locking: the balance check is issued as a
    /// write whose closure only reads — what Moss' algorithm becomes when
    /// every access is declared a write (the paper's §4.3 remark).
    Exclusive,
    /// Flat two-phase locking: a failed child restarts the whole top-level
    /// transaction instead of just itself.
    FlatRestart,
}

fn run(mode: Discipline) -> (i64, Duration, ntx_runtime::StatsSnapshot) {
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(5),
        ..Default::default()
    });
    let accounts: Arc<Vec<_>> = Arc::new(
        (0..ACCOUNTS)
            .map(|i| mgr.register(format!("acct{i}"), OPENING_BALANCE))
            .collect(),
    );

    let start = Instant::now();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let mgr = mgr.clone();
            let accounts = accounts.clone();
            std::thread::spawn(move || {
                // Cheap deterministic PRNG per thread.
                let mut state = (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..TRANSFERS_PER_THREAD {
                    let from = (rng() as usize) % ACCOUNTS;
                    let mut to = (rng() as usize) % ACCOUNTS;
                    if to == from {
                        to = (to + 1) % ACCOUNTS;
                    }
                    let amount = (rng() % 50) as i64 + 1;
                    // Retry the whole top-level transfer until it commits.
                    'retry: loop {
                        let tx = mgr.begin();
                        // The debit and credit run as one nested child so a
                        // deadlock rolls back both sides together, then the
                        // child is retried without redoing anything else the
                        // top-level transaction may have done — unless the
                        // discipline is flat, which restarts the top.
                        let attempts = if mode == Discipline::FlatRestart {
                            1
                        } else {
                            10
                        };
                        let moved = tx.retry_child(attempts, |c| {
                            let available = if mode == Discipline::Exclusive {
                                c.write(&accounts[from], |b| *b)?
                            } else {
                                c.read(&accounts[from], |b| *b)?
                            };
                            let amt = amount.min(available.max(0));
                            c.write(&accounts[from], |b| *b -= amt)?;
                            c.write(&accounts[to], |b| *b += amt)?;
                            Ok(amt)
                        });
                        match moved {
                            Ok(_) => match tx.commit() {
                                Ok(()) => break 'retry,
                                Err(_) => continue 'retry,
                            },
                            Err(TxError::Deadlock | TxError::Timeout | TxError::Doomed) => {
                                tx.abort();
                                continue 'retry;
                            }
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed();
    let total: i64 = accounts.iter().map(|a| mgr.read_committed(a, |b| *b)).sum();
    (total, elapsed, mgr.stats())
}

fn main() {
    println!("{THREADS} threads x {TRANSFERS_PER_THREAD} transfers over {ACCOUNTS} accounts\n");
    for mode in [
        Discipline::MossRW,
        Discipline::Exclusive,
        Discipline::FlatRestart,
    ] {
        let (total, elapsed, stats) = run(mode);
        let expected = (ACCOUNTS as i64) * OPENING_BALANCE;
        assert_eq!(total, expected, "money not conserved under {mode:?}!");
        println!(
            "{mode:?}: conserved {total} ({}ms)  commits={} aborts={} deadlocks={} waits={}",
            elapsed.as_millis(),
            stats.commits,
            stats.aborts,
            stats.deadlocks,
            stats.waits,
        );
    }
    println!("\ninvariant held under every locking discipline ✓");
}
