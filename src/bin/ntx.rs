//! `ntx` — command-line front end for the nested-transaction workspace.
//!
//! ```text
//! ntx check    [--seed N] [--runs K] [--top T] [--depth D] [--read-frac F]
//!              generate workloads, run them concurrently, machine-check
//!              Theorem 34 on every schedule
//! ntx explore  [--budget N]
//!              exhaustively enumerate a small system and check every
//!              schedule
//! ntx makespan [--read-frac F]
//!              logical-time speedup of Moss R/W locking vs exclusive
//!              locking on a generated workload
//! ntx fuzz     [--seed N | --seeds K] [--faults none|light|heavy]
//!              [--steps S] [--exclusive true] [--footnote8 true]
//!              [--snapshots false] [--async-ops false]
//!              deterministic fault-injection fuzzing of the runtime
//!              (lock-free snapshot reads included unless disabled, and a
//!              seeded half of reads/adds routed through the future
//!              driver unless --async-ops false), differentially checked
//!              against the Theorem 34 model; failing seeds are dumped to
//!              fuzz-failures/seed-N.log
//! ntx fuzz     --crash-points <all|pre-append,mid-commit,post-append,checkpoint>
//!              [--crash-pm P] [--wal-dir DIR] [--seed N | --seeds K]
//!              [--faults none|light|heavy] [--steps S]
//!              kill-and-recover mode: runs a durable workload, kills the
//!              simulated process at the selected WAL yield points, tears
//!              the log, recovers into a fresh manager, and checks the
//!              durability invariants differentially (committed prefix
//!              preserved, nothing uncommitted resurrected)
//! ntx demo     a quick nested-transaction session on the runtime
//! ```

use std::collections::HashMap;

use ntx_model::correctness::{check_exhaustive, check_serial_correctness};
use ntx_sim::workload::{Workload, WorkloadConfig};
use ntx_sim::{parallel_makespan, run_concurrent, DrivePolicy};

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            flags.insert(name.to_owned(), value);
            i += 2;
        } else {
            i += 1;
        }
    }
    flags
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T {
    flags
        .get(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn cmd_check(flags: &HashMap<String, String>) {
    let seed: u64 = flag(flags, "seed", 0);
    let runs: u64 = flag(flags, "runs", 20);
    let cfg = WorkloadConfig {
        top_level: flag(flags, "top", 3),
        depth: flag(flags, "depth", 2),
        fanout: 2,
        accesses_per_leaf: 1,
        objects: flag(flags, "objects", 3),
        read_fraction: flag(flags, "read-frac", 0.5),
        ..Default::default()
    };
    let mut witnesses = 0usize;
    let mut violations = 0usize;
    for i in 0..runs {
        let w = Workload::generate(&cfg, seed + i);
        let out = run_concurrent(&w.spec, seed + i, &DrivePolicy::default());
        let report = check_serial_correctness(&w.spec, out.schedule.as_slice());
        witnesses += report.transactions_checked;
        violations += report.violations.len();
        for v in &report.violations {
            eprintln!("violation (seed {}): {v}", seed + i);
        }
    }
    println!(
        "checked {runs} schedules ({} witnesses): {} violations",
        witnesses, violations
    );
    if violations > 0 {
        std::process::exit(1);
    }
    println!("Theorem 34 held on every schedule ✓");
}

fn cmd_explore(flags: &HashMap<String, String>) {
    use ntx_automata::explore::ExploreConfig;
    use ntx_model::{StdSemantics, SystemSpec};
    use ntx_tree::{TxTree, TxTreeBuilder};

    let budget: usize = flag(flags, "budget", 20_000);
    let mut b = TxTreeBuilder::new();
    let x = b.object("x");
    let t1 = b.internal(TxTree::ROOT, "t1");
    b.write(t1, "w", x, 1);
    let t2 = b.internal(TxTree::ROOT, "t2");
    b.read(t2, "r", x);
    let spec = SystemSpec::new(
        std::sync::Arc::new(b.build()),
        vec![StdSemantics::register(0)],
    );
    let report = check_exhaustive(
        &spec,
        ExploreConfig {
            max_depth: 64,
            max_schedules: budget,
        },
    );
    println!(
        "enumerated {} schedules ({} truncated), {} witnesses: all serially correct = {}",
        report.schedules,
        report.truncated,
        report.transactions_checked,
        report.ok()
    );
    if !report.ok() {
        std::process::exit(1);
    }
}

fn cmd_makespan(flags: &HashMap<String, String>) {
    let cfg = WorkloadConfig {
        top_level: 8,
        depth: 1,
        fanout: 2,
        accesses_per_leaf: 2,
        objects: 4,
        read_fraction: flag(flags, "read-frac", 0.8),
        zipf_theta: flag(flags, "zipf", 0.6),
        ..Default::default()
    };
    let mut moss = 0.0;
    let mut excl = 0.0;
    const N: u64 = 10;
    for seed in 0..N {
        let w = Workload::generate(&cfg, seed);
        moss += parallel_makespan(&w.spec, 100_000).speedup;
        excl += parallel_makespan(&w.exclusive_twin().spec, 100_000).speedup;
    }
    println!(
        "logical-time speedup over {N} workloads (read fraction {}):",
        cfg.read_fraction
    );
    println!("  Moss R/W locking : {:.2}x", moss / N as f64);
    println!("  exclusive locking: {:.2}x", excl / N as f64);
    println!("  advantage        : {:.2}x", moss / excl.max(1e-9));
}

/// Kill-and-recover fuzzing (`--crash-points …`): every seed crashes the
/// process at WAL yield points, recovers, and checks durability.
fn cmd_fuzz_crash(flags: &HashMap<String, String>, plan: ntx_sim::FaultPlan, plan_name: &str) {
    use ntx_sim::{fuzz_crash_run, CrashFuzzConfig, CrashPlan};

    let points = flags.get("crash-points").expect("checked by caller");
    let pm: u32 = flag(flags, "crash-pm", 60);
    let crash = CrashPlan::by_names(points, pm).unwrap_or_else(|| {
        eprintln!(
            "unknown crash points {points:?} (expected all or a comma list of \
             pre-append,mid-commit,post-append,checkpoint)"
        );
        std::process::exit(2);
    });
    let wal_dir = flags.get("wal-dir").cloned().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("ntx-crash-fuzz-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let base = CrashFuzzConfig {
        steps: flag(flags, "steps", 160),
        objects: flag(flags, "objects", 3),
        top_level: flag(flags, "top", 3),
        max_depth: flag(flags, "depth", 2),
        plan,
        crash,
        ..CrashFuzzConfig::new(0, wal_dir.clone().into())
    };
    let seeds: Vec<u64> = match flags.get("seed") {
        Some(s) => vec![s.parse().unwrap_or(0)],
        None => (0..flag(flags, "seeds", 128u64)).collect(),
    };
    let single = seeds.len() == 1;
    let mut failures = 0usize;
    let mut crashes = 0usize;
    for &seed in &seeds {
        let out = fuzz_crash_run(&CrashFuzzConfig {
            seed,
            ..base.clone()
        });
        crashes += usize::from(out.crashed);
        if single {
            println!("--- runtime log (seed {seed}) ---");
            print!("{}", out.log);
            println!("--- verdict ---");
            println!(
                "crashed={} crash_clock={} durable_ts={} recovered_ts={} redone={} failures={:?}",
                out.crashed,
                out.crash_clock,
                out.durable_ts,
                out.recovered_ts,
                out.redone,
                out.failures
            );
        }
        if !out.ok() {
            failures += 1;
            eprintln!(
                "seed {seed}: FAILED (replay: ntx fuzz --crash-points {points} --crash-pm {pm} \
                 --seed {seed} --faults {plan_name})"
            );
            let dir = std::path::Path::new("fuzz-failures");
            if std::fs::create_dir_all(dir).is_ok() {
                let mut dump = String::new();
                dump.push_str(&format!(
                    "seed: {seed}\nplan: {plan_name}\ncrash_points: {points}\ncrash_pm: {pm}\n\
                     crashed: {}\ncrash_clock: {}\ndurable_ts: {}\nrecovered_ts: {}\n\
                     failures: {:?}\nconformance: {:?} {:?} {:?}\n\n--- runtime log ---\n",
                    out.crashed,
                    out.crash_clock,
                    out.durable_ts,
                    out.recovered_ts,
                    out.failures,
                    out.report.schedule_error,
                    out.report.wellformed_error,
                    out.report.correctness_violations
                ));
                if !out.hb.ok() {
                    dump.push_str("--- happens-before violations ---\n");
                    dump.push_str(&out.hb.render_violations());
                }
                dump.push_str(&out.log);
                let _ = std::fs::write(dir.join(format!("crash-seed-{seed}.log")), dump);
            }
        }
    }
    println!(
        "crash-fuzzed {} seed(s) at points {points} (pm {pm}): {} crashed, {} failures",
        seeds.len(),
        crashes,
        failures
    );
    if failures > 0 {
        eprintln!("failing seeds dumped under fuzz-failures/");
        std::process::exit(1);
    }
    println!("every kill-and-recover execution preserved the committed prefix ✓");
}

fn cmd_fuzz(flags: &HashMap<String, String>) {
    use ntx_sim::fault::FaultPlan;
    use ntx_sim::fuzz::{fuzz_run, FuzzConfig};

    let plan_name = flags.get("faults").map_or("light", String::as_str);
    let plan = FaultPlan::by_name(plan_name).unwrap_or_else(|| {
        eprintln!("unknown fault plan {plan_name:?} (expected none|light|heavy)");
        std::process::exit(2);
    });
    if flags.contains_key("crash-points") {
        cmd_fuzz_crash(flags, plan, plan_name);
        return;
    }
    let base = FuzzConfig {
        steps: flag(flags, "steps", 100),
        objects: flag(flags, "objects", 3),
        top_level: flag(flags, "top", 3),
        max_depth: flag(flags, "depth", 3),
        plan,
        exclusive: flag(flags, "exclusive", false),
        footnote8: flag(flags, "footnote8", false),
        // Snapshot reads are on by default: the sweep exercises the
        // lock-free read path against the checker unless --snapshots false.
        snapshot_ops: flag(flags, "snapshots", true),
        // Async alternation likewise: a seeded half of reads/adds run
        // through the future driver unless --async-ops false.
        async_ops: flag(flags, "async-ops", true),
        ..Default::default()
    };
    // --seed N replays one seed verbosely; --seeds K sweeps 0..K.
    let seeds: Vec<u64> = match flags.get("seed") {
        Some(s) => vec![s.parse().unwrap_or(0)],
        None => (0..flag(flags, "seeds", 64u64)).collect(),
    };
    let single = seeds.len() == 1;
    let mut failures = 0usize;
    let mut total_faults = 0usize;
    for &seed in &seeds {
        let out = fuzz_run(&FuzzConfig { seed, ..base });
        total_faults += out.faults_applied;
        if single {
            println!("--- runtime log (seed {seed}) ---");
            print!("{}", out.log);
            println!("--- verdict ---");
            println!(
                "events={} faults={} schedule_error={:?} wellformed_error={:?} violations={:?}",
                out.trace.events.len(),
                out.faults_applied,
                out.report.schedule_error,
                out.report.wellformed_error,
                out.report.correctness_violations
            );
            println!(
                "hb: {} events, {}/{} waits resolved, {} grants checked, {} advances, \
                 {} violations",
                out.hb.events,
                out.hb.waits_resolved,
                out.hb.waits,
                out.hb.grants_checked,
                out.hb.ts_advances,
                out.hb.violations.len()
            );
            print!("{}", out.hb.render_violations());
        }
        if !out.ok() {
            failures += 1;
            eprintln!("seed {seed}: FAILED (replay: ntx fuzz --seed {seed} --faults {plan_name})");
            let dir = std::path::Path::new("fuzz-failures");
            if std::fs::create_dir_all(dir).is_ok() {
                let mut dump = String::new();
                dump.push_str(&format!(
                    "seed: {seed}\nplan: {plan_name}\nschedule_error: {:?}\n\
                     wellformed_error: {:?}\nviolations: {:?}\n",
                    out.report.schedule_error,
                    out.report.wellformed_error,
                    out.report.correctness_violations
                ));
                if !out.hb.ok() {
                    dump.push_str("\n--- happens-before violations ---\n");
                    dump.push_str(&out.hb.render_violations());
                }
                dump.push_str("\n--- runtime log ---\n");
                dump.push_str(&out.log);
                let _ = std::fs::write(dir.join(format!("seed-{seed}.log")), dump);
            }
        }
    }
    println!(
        "fuzzed {} seed(s), plan {plan_name}: {} injected faults, {} conformance failures",
        seeds.len(),
        total_faults,
        failures
    );
    if failures > 0 {
        eprintln!("failing seeds dumped under fuzz-failures/");
        std::process::exit(1);
    }
    println!("every faulty execution conformed to the model ✓");
}

fn cmd_demo() {
    use ntx_runtime::{RtConfig, TxManager};
    let mgr = TxManager::new(RtConfig::default());
    let acct = mgr.register("account", 100i64);
    let tx = mgr.begin();
    let child = tx.child().expect("child");
    child.write(&acct, |b| *b -= 30).expect("write");
    child.commit().expect("commit");
    println!(
        "child moved 30; world still sees {}",
        mgr.read_committed(&acct, |b| *b)
    );
    let risky = tx.child().expect("child");
    risky.write(&acct, |b| *b -= 1_000_000).expect("write");
    risky.abort();
    println!(
        "risky child aborted; tx sees {}",
        tx.read(&acct, |b| *b).expect("read")
    );
    tx.commit().expect("commit");
    println!("published: {}", mgr.read_committed(&acct, |b| *b));
    println!("stats: {:?}", mgr.stats());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let flags = parse_flags(&args[1.min(args.len())..]);
    match cmd {
        "check" => cmd_check(&flags),
        "explore" => cmd_explore(&flags),
        "makespan" => cmd_makespan(&flags),
        "fuzz" => cmd_fuzz(&flags),
        "demo" => cmd_demo(),
        _ => {
            eprintln!(
                "usage: ntx <check|explore|makespan|fuzz|demo> [--flag value …]\n\
                 (see the crate docs or src/bin/ntx.rs for flags)"
            );
            std::process::exit(2);
        }
    }
}
