//! Runtime-level experiments: E3, E4, E5, E7 (see DESIGN.md §4).
//!
//! These sweep Moss' locking and the two baselines a caller builds on it
//! (reads issued as writes; flat restart of the whole transaction) over
//! synthetic workloads and report throughput and contention figures.
//! Absolute numbers depend on the machine; the claims under test are the
//! *shapes*: Moss' R/W locking
//! dominates exclusive locking as the read fraction grows (E3), degrades
//! gracefully under skew (E4), wastes far less work than flat restart when
//! subtransactions fail (E5), and deadlock frequency grows with concurrency
//! (E7).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ntx_runtime::{ObjRef, RtConfig, TxError, TxManager};
use ntx_sim::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// Parameters for a closed-loop runtime workload.
#[derive(Clone, Debug)]
pub struct RtWorkload {
    /// Worker threads (one live top-level transaction each).
    pub threads: usize,
    /// Number of shared counter objects.
    pub objects: usize,
    /// Accesses per transaction.
    pub ops_per_tx: usize,
    /// Probability an access is a read.
    pub read_fraction: f64,
    /// Zipf skew of object popularity.
    pub zipf_theta: f64,
    /// Transactions each thread must commit.
    pub txs_per_thread: usize,
    /// Issue every read as a write whose closure only reads: exclusive
    /// (Lynch–Merritt) locking, which Moss' algorithm becomes when every
    /// access is declared a write (§4.3).
    pub reads_as_writes: bool,
    /// Acquire objects in canonical (index) order — the classic
    /// deadlock-avoidance discipline. Throughput experiments (E3/E4) keep
    /// it on so they measure blocking, not deadlock-retry storms; the
    /// deadlock experiment (E7) turns it off.
    pub sorted_access: bool,
    /// Busy-work iterations after each access, simulating computation done
    /// while the transaction *holds its locks*. Without it transactions
    /// are sub-microsecond and lock conflicts never materialise; with it
    /// the concurrency admitted by each locking discipline dominates.
    pub work_per_op: u32,
}

impl Default for RtWorkload {
    fn default() -> Self {
        RtWorkload {
            threads: 8,
            objects: 64,
            ops_per_tx: 4,
            read_fraction: 0.5,
            zipf_theta: 0.0,
            txs_per_thread: 500,
            reads_as_writes: false,
            sorted_access: true,
            work_per_op: 0,
        }
    }
}

/// Busy loop the optimiser cannot remove.
#[inline]
fn think(iters: u32) {
    let mut acc = 0u64;
    for i in 0..iters {
        acc = std::hint::black_box(acc.wrapping_add(u64::from(i)));
    }
    std::hint::black_box(acc);
}

/// Aggregate outcome of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RtOutcome {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Committed top-level transactions.
    pub committed: u64,
    /// Commits per second.
    pub throughput: f64,
    /// Top-level restarts forced by deadlock/timeout.
    pub restarts: u64,
    /// Deadlock victims.
    pub deadlocks: u64,
    /// Lock requests that blocked.
    pub waits: u64,
}

/// Run the closed-loop workload: every thread commits `txs_per_thread`
/// transactions, retrying on deadlock/timeout.
pub fn run_rt_workload(cfg: &RtWorkload, seed: u64) -> RtOutcome {
    let rt = RtConfig {
        wait_timeout: Duration::from_secs(10),
        ..Default::default()
    };
    run_rt_workload_with(cfg, seed, rt)
}

/// Like [`run_rt_workload`] but over an explicit runtime configuration —
/// the hook-overhead experiment (A3) plugs fault injectors and trace
/// recorders in here.
pub fn run_rt_workload_with(cfg: &RtWorkload, seed: u64, rt: RtConfig) -> RtOutcome {
    let mgr = TxManager::new(rt);
    let objects: Arc<Vec<ObjRef<i64>>> = Arc::new(
        (0..cfg.objects)
            .map(|i| mgr.register(format!("o{i}"), 0))
            .collect(),
    );
    let zipf = Arc::new(Zipf::new(cfg.objects, cfg.zipf_theta));
    let barrier = Arc::new(Barrier::new(cfg.threads));
    let restarts = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let handles: Vec<_> = (0..cfg.threads)
        .map(|t| {
            let mgr = mgr.clone();
            let objects = objects.clone();
            let zipf = zipf.clone();
            let barrier = barrier.clone();
            let restarts = restarts.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
                barrier.wait();
                for _ in 0..cfg.txs_per_thread {
                    // Pre-draw the access list so retries replay the same tx.
                    let mut accesses: Vec<(usize, bool)> = (0..cfg.ops_per_tx)
                        .map(|_| (zipf.sample(&mut rng), rng.gen_bool(cfg.read_fraction)))
                        .collect();
                    if cfg.sorted_access {
                        accesses.sort_unstable();
                    }
                    'retry: loop {
                        let tx = mgr.begin();
                        for &(obj, is_read) in &accesses {
                            let r = if is_read && cfg.reads_as_writes {
                                tx.write(&objects[obj], |v| *v).map(|_| ())
                            } else if is_read {
                                tx.read(&objects[obj], |v| *v).map(|_| ())
                            } else {
                                tx.write(&objects[obj], |v| *v += 1)
                            };
                            match r {
                                Ok(()) => think(cfg.work_per_op),
                                Err(TxError::Deadlock | TxError::Timeout | TxError::Doomed) => {
                                    tx.abort();
                                    // relaxed(bench-restarts): abort tally read after workers join
                                    restarts.fetch_add(1, Ordering::Relaxed);
                                    continue 'retry;
                                }
                                Err(e) => panic!("unexpected: {e}"),
                            }
                        }
                        match tx.commit() {
                            Ok(()) => break 'retry,
                            Err(_) => {
                                // relaxed(bench-restarts): abort tally read after workers join
                                restarts.fetch_add(1, Ordering::Relaxed);
                                continue 'retry;
                            }
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
    let stats = mgr.stats();
    let committed = stats.top_level_commits;
    RtOutcome {
        elapsed,
        committed,
        throughput: committed as f64 / elapsed.as_secs_f64(),
        // relaxed(bench-restarts): workers joined above; plain sum
        restarts: restarts.load(Ordering::Relaxed),
        deadlocks: stats.deadlocks,
        waits: stats.waits,
    }
}

/// Run the workload three times and keep the median throughput — wall-clock
/// noise on short runs otherwise dominates mode differences.
pub fn run_rt_median(cfg: &RtWorkload) -> RtOutcome {
    let mut outs: Vec<RtOutcome> = (0..3).map(|i| run_rt_workload(cfg, 7 + i)).collect();
    outs.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
    outs[1]
}

/// E3 (Fig 1): concurrency admitted vs read fraction.
///
/// Primary measurement is **logical-time makespan** on the formal model
/// (`ntx_sim::parallel_makespan`) — an idealised machine limited only by
/// the locking rules — because the reproduction host has a single CPU core,
/// so wall-clock throughput cannot expose admitted parallelism (see
/// DESIGN.md §4). A runtime corroboration column reports lock waits per
/// 1 000 transactions under real threads: Moss' read locks should wait less
/// and less as the read fraction grows, exclusive locking should not care.
pub fn e3_read_fraction_sweep(txs_per_thread: usize) -> Table {
    use ntx_sim::parallel_makespan;
    use ntx_sim::workload::{Workload, WorkloadConfig};

    let mut t = Table::new(
        "E3 (Fig 1) — admitted concurrency vs read fraction: logical-time speedup \
         (model, mean of 10 workloads) and lock waits per 1k tx (runtime)",
        &[
            "read frac",
            "speedup MossRW",
            "speedup Exclusive",
            "Moss/Excl",
            "rt waits/1k MossRW",
            "rt waits/1k Exclusive",
        ],
    );
    for rf in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
        // Model-level makespans, averaged over several generated workloads.
        let mut speedup = [0.0f64; 2];
        const WORKLOADS: u64 = 10;
        for seed in 0..WORKLOADS {
            let cfg = WorkloadConfig {
                top_level: 8,
                depth: 1,
                fanout: 2,
                accesses_per_leaf: 2,
                objects: 4,
                read_fraction: rf,
                zipf_theta: 0.6,
                ..Default::default()
            };
            let w = Workload::generate(&cfg, seed);
            let moss = parallel_makespan(&w.spec, 100_000);
            let excl = parallel_makespan(&w.exclusive_twin().spec, 100_000);
            speedup[0] += moss.speedup;
            speedup[1] += excl.speedup;
        }
        speedup[0] /= WORKLOADS as f64;
        speedup[1] /= WORKLOADS as f64;

        // Runtime corroboration: waits under real threads.
        let mut waits = [0.0f64; 2];
        for (i, reads_as_writes) in [false, true].into_iter().enumerate() {
            let cfg = RtWorkload {
                reads_as_writes,
                read_fraction: rf,
                objects: 8,
                ops_per_tx: 4,
                zipf_theta: 0.9,
                work_per_op: 1_000,
                txs_per_thread,
                ..Default::default()
            };
            let out = run_rt_median(&cfg);
            waits[i] = out.waits as f64 * 1000.0 / out.committed.max(1) as f64;
        }
        t.row(vec![
            format!("{rf:.2}"),
            format!("{:.2}", speedup[0]),
            format!("{:.2}", speedup[1]),
            format!("{:.2}x", speedup[0] / speedup[1].max(1e-9)),
            format!("{:.0}", waits[0]),
            format!("{:.0}", waits[1]),
        ]);
    }
    t
}

/// E4 (Fig 2): concurrency admitted vs hot-spot skew (read fraction 0.8),
/// measured as logical-time speedup on the model (same substitution as E3).
pub fn e4_skew_sweep(_txs_per_thread: usize) -> Table {
    use ntx_sim::parallel_makespan;
    use ntx_sim::workload::{Workload, WorkloadConfig};

    let mut t = Table::new(
        "E4 (Fig 2) — admitted concurrency vs Zipf skew θ (read fraction 0.8, \
         logical-time speedup, mean of 10 workloads)",
        &["zipf θ", "MossRW", "Exclusive", "Moss/Excl"],
    );
    for theta in [0.0, 0.4, 0.8, 1.0, 1.2] {
        let mut speedup = [0.0f64; 2];
        const WORKLOADS: u64 = 10;
        for seed in 0..WORKLOADS {
            let cfg = WorkloadConfig {
                top_level: 8,
                depth: 1,
                fanout: 2,
                accesses_per_leaf: 2,
                objects: 8,
                read_fraction: 0.8,
                zipf_theta: theta,
                ..Default::default()
            };
            let w = Workload::generate(&cfg, seed);
            speedup[0] += parallel_makespan(&w.spec, 100_000).speedup;
            speedup[1] += parallel_makespan(&w.exclusive_twin().spec, 100_000).speedup;
        }
        speedup[0] /= WORKLOADS as f64;
        speedup[1] /= WORKLOADS as f64;
        t.row(vec![
            format!("{theta:.1}"),
            format!("{:.2}", speedup[0]),
            format!("{:.2}", speedup[1]),
            format!("{:.2}x", speedup[0] / speedup[1].max(1e-9)),
        ]);
    }
    t
}

/// E5 (Fig 3): work amplification under subtransaction failures — nested
/// recovery (retry just the failed child) vs flat restart (redo the whole
/// transaction). Both run Moss' locking; flat two-phase locking is the
/// caller aborting the top on any child failure.
pub fn e5_partial_abort(jobs: usize) -> Table {
    let mut t = Table::new(
        "E5 (Fig 3) — writes executed per completed job vs child failure rate (5-step jobs)",
        &[
            "failure rate",
            "nested MossRW",
            "flat restart",
            "flat/nested",
        ],
    );
    for p in [0.0, 0.1, 0.2, 0.3, 0.5] {
        let nested = e5_run(false, p, jobs);
        let flat = e5_run(true, p, jobs);
        t.row(vec![
            format!("{p:.1}"),
            format!("{nested:.1}"),
            format!("{flat:.1}"),
            format!("{:.2}x", flat / nested.max(0.001)),
        ]);
    }
    t
}

/// One E5 configuration: returns mean writes executed per completed job.
/// `flat` restarts the whole job when a step fails; otherwise only the
/// failed step's child is retried.
fn e5_run(flat: bool, failure_rate: f64, jobs: usize) -> f64 {
    const STEPS: usize = 5;
    const WRITES_PER_STEP: usize = 4;
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let objects: Vec<ObjRef<i64>> = (0..STEPS * WRITES_PER_STEP)
        .map(|i| mgr.register(format!("o{i}"), 0))
        .collect();
    let mut rng = StdRng::seed_from_u64(99);
    let mut total_writes = 0u64;

    for _ in 0..jobs {
        'job: loop {
            let tx = mgr.begin();
            for step in 0..STEPS {
                // Retry the step until it succeeds (transient failures).
                'step: loop {
                    let child = tx.child().expect("a live single-threaded job");
                    let mut ok = true;
                    for wi in 0..WRITES_PER_STEP {
                        let obj = &objects[step * WRITES_PER_STEP + wi];
                        if child.write(obj, |v| *v += 1).is_err() {
                            ok = false;
                            break;
                        }
                        total_writes += 1;
                    }
                    // Inject a transient business failure.
                    if ok && rng.gen_bool(failure_rate) {
                        ok = false;
                    }
                    if ok {
                        if child.commit().is_ok() {
                            break 'step;
                        }
                        tx.abort();
                        continue 'job;
                    } else {
                        child.abort();
                        if flat {
                            tx.abort();
                            continue 'job;
                        }
                        continue 'step;
                    }
                }
            }
            if tx.commit().is_ok() {
                break 'job;
            }
        }
    }
    total_writes as f64 / jobs as f64
}

/// E7 (Fig 4): deadlock frequency and throughput vs thread count on a
/// write-heavy hot spot.
pub fn e7_deadlock_sweep(txs_per_thread: usize) -> Table {
    let mut t = Table::new(
        "E7 (Fig 4) — deadlocks per 1k committed tx and tx/s vs threads (write-heavy, 8 hot objects)",
        &["threads", "tx/s", "deadlocks/1k tx", "waits/1k tx", "restarts/1k tx"],
    );
    for threads in [1usize, 2, 4, 8, 16] {
        let cfg = RtWorkload {
            threads,
            objects: 4,
            ops_per_tx: 4,
            read_fraction: 0.1,
            zipf_theta: 0.9,
            txs_per_thread,
            reads_as_writes: false,
            sorted_access: false, // deadlocks are the point here
            work_per_op: 500,
        };
        let out = run_rt_median(&cfg);
        let per_k = |n: u64| n as f64 * 1000.0 / out.committed.max(1) as f64;
        t.row(vec![
            threads.to_string(),
            format!("{:.0}", out.throughput),
            format!("{:.1}", per_k(out.deadlocks)),
            format!("{:.1}", per_k(out.waits)),
            format!("{:.1}", per_k(out.restarts)),
        ]);
    }
    t
}

/// A3: cost of the chaos-harness hooks on the hot path.
///
/// Three configurations of the same workload: hooks disabled (`fault` and
/// `trace` both `None` — the shipping configuration), a zero-probability
/// injector (every lock request and commit consults the injector but no
/// fault ever fires), and a live trace recorder (every grant/commit/abort
/// appended to the in-memory log). The claim under test: disabled hooks are
/// free — a single branch on an `Option` — so the first column's throughput
/// should match a pre-hook build, and even the enabled configurations stay
/// within a modest factor.
pub fn a3_fault_hook_overhead(txs_per_thread: usize) -> Table {
    use ntx_runtime::TraceRecorder;
    use ntx_sim::fault::{FaultPlan, SeededFaults};

    let mut t = Table::new(
        "A3 — fault/trace hook overhead: commits/s on a read-heavy workload \
         (median of 3 runs; zero-prob injector fires no faults)",
        &["configuration", "tx/s", "relative", "waits"],
    );
    let cfg = RtWorkload {
        threads: 4,
        objects: 32,
        ops_per_tx: 4,
        read_fraction: 0.8,
        zipf_theta: 0.0,
        txs_per_thread,
        reads_as_writes: false,
        sorted_access: true,
        work_per_op: 0,
    };
    let median_with = |rt: &dyn Fn() -> RtConfig| -> RtOutcome {
        let mut outs: Vec<RtOutcome> = (0..3)
            .map(|i| run_rt_workload_with(&cfg, 7 + i, rt()))
            .collect();
        outs.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
        outs[1]
    };
    let base_rt = || RtConfig {
        wait_timeout: Duration::from_secs(10),
        ..Default::default()
    };
    let baseline = median_with(&base_rt);
    let injector = median_with(&|| RtConfig {
        fault: Some(Arc::new(SeededFaults::new(0, FaultPlan::none()))),
        ..base_rt()
    });
    let recorder = median_with(&|| RtConfig {
        trace: Some(Arc::new(TraceRecorder::new())),
        ..base_rt()
    });
    let mut row = |name: &str, out: &RtOutcome| {
        t.row(vec![
            name.to_string(),
            format!("{:.0}", out.throughput),
            format!("{:.2}x", out.throughput / baseline.throughput.max(1e-9)),
            out.waits.to_string(),
        ]);
    };
    row("hooks disabled (None)", &baseline);
    row("zero-prob injector", &injector);
    row("trace recorder", &recorder);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_runner_commits_exactly_requested() {
        let cfg = RtWorkload {
            threads: 4,
            txs_per_thread: 25,
            ..Default::default()
        };
        let out = run_rt_workload(&cfg, 1);
        assert_eq!(out.committed, 100);
        assert!(out.throughput > 0.0);
    }

    #[test]
    fn e5_zero_failure_rate_has_no_amplification() {
        let nested = e5_run(false, 0.0, 20);
        assert!(
            (nested - 20.0).abs() < f64::EPSILON,
            "5 steps x 4 writes = 20, got {nested}"
        );
        let flat = e5_run(true, 0.0, 20);
        assert!((flat - 20.0).abs() < f64::EPSILON);
    }

    #[test]
    fn e5_flat_amplifies_more_than_nested() {
        let nested = e5_run(false, 0.3, 60);
        let flat = e5_run(true, 0.3, 60);
        assert!(
            flat > nested,
            "flat restart ({flat:.1}) should waste more work than nested retry ({nested:.1})"
        );
        // And never less, at any failure rate of the table.
        for r in &e5_partial_abort(60).rows {
            let (nested, flat): (f64, f64) = (r[1].parse().unwrap(), r[2].parse().unwrap());
            assert!(
                flat >= nested,
                "rate {}: flat {flat} < nested {nested}",
                r[0]
            );
        }
    }

    #[test]
    fn a3_all_configurations_commit_the_same_work() {
        let t = a3_fault_hook_overhead(25);
        assert_eq!(t.rows.len(), 3);
        // The baseline row is 1.00x by construction.
        assert_eq!(t.rows[0][2], "1.00x");
        // Every configuration completed (tx/s strictly positive).
        for r in &t.rows {
            let tps: f64 = r[1].parse().unwrap();
            assert!(tps > 0.0, "{r:?}");
        }
    }

    #[test]
    fn e3_table_has_expected_shape() {
        let t = e3_read_fraction_sweep(30);
        assert_eq!(t.rows.len(), 6);
        // Logical-time speedups: equal at read fraction 0 (the §4.3
        // degeneracy), Moss strictly ahead at read fraction 1.
        let first: f64 = t.rows[0][3].trim_end_matches('x').parse().unwrap();
        assert!(
            (first - 1.0).abs() < 0.05,
            "rf=0 should be ~1.0x, got {first}"
        );
        let last: f64 = t.rows[5][3].trim_end_matches('x').parse().unwrap();
        assert!(
            last > 2.0,
            "rf=1 should show a clear Moss advantage, got {last}"
        );
        // Runtime corroboration: Moss has zero waits on an all-read load.
        assert_eq!(t.rows[5][4], "0");
    }

    #[test]
    fn e4_moss_dominates_exclusive_under_skew() {
        let t = e4_skew_sweep(0);
        for r in &t.rows {
            let moss: f64 = r[1].parse().unwrap();
            let excl: f64 = r[2].parse().unwrap();
            assert!(
                moss >= excl,
                "Moss below exclusive at θ={}: {moss} vs {excl}",
                r[0]
            );
        }
    }
}
