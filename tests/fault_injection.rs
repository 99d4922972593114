//! Fault-injection fuzzing: the runtime under seeded chaos must still
//! produce traces the Theorem 34 model accepts.
//!
//! Each scenario drives a seeded random workload (begins, nested children,
//! reads, adds, commits, aborts) against a real `TxManager` while a
//! counter-keyed injector fires spontaneous aborts, timeouts,
//! deadlock-victim kills and crash-of-subtree events at the runtime's
//! yield points. The surviving conformance trace is replayed through the
//! R/W Locking automaton, the well-formedness checker, and the serial
//! correctness checker. A failing seed is printed so the run can be
//! replayed with `ntx fuzz --seed N`.

use ntx_sim::fault::FaultPlan;
use ntx_sim::fuzz::{fuzz_run, FuzzConfig};

fn assert_conforms(cfg: &FuzzConfig) {
    let out = fuzz_run(cfg);
    assert!(
        out.ok(),
        "seed {} failed conformance (replay: ntx fuzz --seed {}):\n\
         schedule: {:?}\nwellformed: {:?}\nviolations: {:?}\nruntime log:\n{}",
        cfg.seed,
        cfg.seed,
        out.report.schedule_error,
        out.report.wellformed_error,
        out.report.correctness_violations,
        out.log,
    );
}

#[test]
fn light_faults_conform_over_100_seeds() {
    for seed in 0..100 {
        assert_conforms(&FuzzConfig {
            seed,
            plan: FaultPlan::light(),
            ..Default::default()
        });
    }
}

#[test]
fn heavy_faults_conform_over_50_seeds() {
    for seed in 0..50 {
        assert_conforms(&FuzzConfig {
            seed,
            steps: 120,
            plan: FaultPlan::heavy(),
            ..Default::default()
        });
    }
}

#[test]
fn deep_nesting_heavy_faults_conform() {
    for seed in 0..20 {
        assert_conforms(&FuzzConfig {
            seed: seed + 1000,
            steps: 150,
            objects: 2,
            top_level: 4,
            max_depth: 5,
            plan: FaultPlan::heavy(),
            ..Default::default()
        });
    }
}

#[test]
fn same_seed_replays_byte_identically() {
    for seed in [0u64, 7, 42, 1234, u64::MAX / 3] {
        let cfg = FuzzConfig {
            seed,
            plan: FaultPlan::heavy(),
            ..Default::default()
        };
        let a = fuzz_run(&cfg);
        let b = fuzz_run(&cfg);
        assert_eq!(
            a.log, b.log,
            "seed {seed}: runtime logs diverged between replays"
        );
        assert_eq!(
            a.trace.events, b.trace.events,
            "seed {seed}: traces diverged"
        );
        assert_eq!(a.fault_calls, b.fault_calls);
        assert_eq!(a.stats.aborts, b.stats.aborts);
    }
}

#[test]
fn every_fault_kind_fires_across_the_seed_range() {
    // Aggregate the runtime logs over a seed range: each injected action
    // (spontaneous abort, timeout, victim kill, subtree crash) must occur
    // somewhere, or the harness is not exercising every recovery path.
    let mut seen_actions = std::collections::BTreeSet::new();
    for seed in 0..60 {
        let out = fuzz_run(&FuzzConfig {
            seed,
            steps: 120,
            plan: FaultPlan::heavy(),
            ..Default::default()
        });
        for line in out.log.lines() {
            if let Some(pos) = line.find("action=") {
                seen_actions.insert(line[pos + 7..].to_string());
            }
        }
    }
    for kind in ["abort", "timeout", "victim", "crash"] {
        assert!(
            seen_actions.contains(kind),
            "fault kind {kind:?} never fired over 60 heavy seeds: {seen_actions:?}"
        );
    }
}

#[test]
fn fault_free_runs_record_no_faults() {
    for seed in 0..10 {
        let out = fuzz_run(&FuzzConfig {
            seed,
            plan: FaultPlan::none(),
            ..Default::default()
        });
        assert!(out.ok(), "seed {seed}: {:?}", out.report);
        assert_eq!(out.faults_applied, 0, "seed {seed} applied a fault");
        assert!(!out.log.contains("FAULT"));
    }
}
