//! Model-level experiments: E1, E2, E8, A1, A2 (see DESIGN.md §4).

use std::sync::Arc;

use ntx_automata::explore::ExploreConfig;
use ntx_model::correctness::{check_exhaustive, check_serial_correctness};
use ntx_model::lock_object::{CommitPolicy, LockObjectConfig};
use ntx_model::{StdSemantics, SystemSpec};
use ntx_sim::workload::{SemanticsKind, Workload, WorkloadConfig};
use ntx_sim::{run_concurrent, DrivePolicy};
use ntx_tree::{TxTree, TxTreeBuilder};

use crate::table::Table;

/// E1 (Table 1): randomized Theorem 34 checking across workload shapes.
pub fn e1_theorem34_random(runs_per_config: usize) -> Table {
    let mut t = Table::new(
        "E1 (Table 1) — Theorem 34, randomized: serial correctness of R/W Locking schedules",
        &[
            "depth",
            "read frac",
            "abort policy",
            "schedules",
            "witnesses",
            "violations",
        ],
    );
    for depth in [1u32, 2, 3] {
        for read_fraction in [0.0, 0.5, 0.9] {
            for (policy_name, policy) in [
                ("none", DrivePolicy::no_aborts()),
                ("rare", DrivePolicy::default()),
                ("chaos", DrivePolicy::chaos()),
            ] {
                let cfg = WorkloadConfig {
                    top_level: 3,
                    depth,
                    fanout: 2,
                    accesses_per_leaf: 1,
                    objects: 3,
                    read_fraction,
                    zipf_theta: 0.5,
                    semantics: SemanticsKind::Registers,
                    sequential_children: false,
                };
                let mut witnesses = 0usize;
                let mut violations = 0usize;
                for seed in 0..runs_per_config as u64 {
                    let w = Workload::generate(&cfg, seed);
                    let out = run_concurrent(&w.spec, seed.wrapping_mul(31), &policy);
                    let report = check_serial_correctness(&w.spec, out.schedule.as_slice());
                    witnesses += report.transactions_checked;
                    violations += report.violations.len();
                }
                t.row(vec![
                    depth.to_string(),
                    format!("{read_fraction:.1}"),
                    policy_name.to_owned(),
                    runs_per_config.to_string(),
                    witnesses.to_string(),
                    violations.to_string(),
                ]);
            }
        }
    }
    t
}

/// The tiny systems enumerated exhaustively in E2.
fn e2_systems() -> Vec<(&'static str, SystemSpec<StdSemantics>)> {
    let mut out = Vec::new();
    // (a) one writer, one reader, one register.
    let mut b = TxTreeBuilder::new();
    let x = b.object("x");
    let t1 = b.internal(TxTree::ROOT, "t1");
    b.write(t1, "w", x, 1);
    let t2 = b.internal(TxTree::ROOT, "t2");
    b.read(t2, "r", x);
    out.push((
        "writer ∥ reader",
        SystemSpec::new(Arc::new(b.build()), vec![StdSemantics::register(0)]),
    ));
    // (b) two writers on one register.
    let mut b = TxTreeBuilder::new();
    let x = b.object("x");
    let t1 = b.internal(TxTree::ROOT, "t1");
    b.write(t1, "w1", x, 1);
    let t2 = b.internal(TxTree::ROOT, "t2");
    b.write(t2, "w2", x, 2);
    out.push((
        "writer ∥ writer",
        SystemSpec::new(Arc::new(b.build()), vec![StdSemantics::register(0)]),
    ));
    // (c) nested: parent with child writer, sibling reader.
    let mut b = TxTreeBuilder::new();
    let x = b.object("x");
    let t1 = b.internal(TxTree::ROOT, "t1");
    let c = b.internal(t1, "c");
    b.write(c, "w", x, 1);
    let t2 = b.internal(TxTree::ROOT, "t2");
    b.read(t2, "r", x);
    out.push((
        "nested writer ∥ reader",
        SystemSpec::new(Arc::new(b.build()), vec![StdSemantics::register(0)]),
    ));
    out
}

/// E2 (Table 2): exhaustive small-scope checking.
pub fn e2_exhaustive(max_schedules: usize, max_depth: usize) -> Table {
    let mut t = Table::new(
        "E2 (Table 2) — Theorem 34, exhaustive small scope (every schedule enumerated)",
        &[
            "system",
            "schedules",
            "truncated",
            "witnesses",
            "all serially correct",
        ],
    );
    for (name, spec) in e2_systems() {
        let report = check_exhaustive(
            &spec,
            ExploreConfig {
                max_depth,
                max_schedules,
            },
        );
        t.row(vec![
            name.to_owned(),
            report.schedules.to_string(),
            report.truncated.to_string(),
            report.transactions_checked.to_string(),
            report.ok().to_string(),
        ]);
    }
    t
}

/// E8 (Table 4): §4.3 degeneracy — on all-write workloads, Moss' algorithm
/// with and without the exclusive flag produces *identical* schedules under
/// identical nondeterminism resolution.
pub fn e8_degeneracy(runs: usize) -> Table {
    let mut t = Table::new(
        "E8 (Table 4) — degeneracy: all accesses write ⇒ Moss ≡ exclusive locking",
        &[
            "workload seed",
            "schedule len",
            "identical schedules",
            "serially correct",
        ],
    );
    let cfg = WorkloadConfig {
        read_fraction: 0.0, // all writes
        top_level: 3,
        depth: 1,
        objects: 2,
        ..Default::default()
    };
    for seed in 0..runs as u64 {
        let w = Workload::generate(&cfg, seed);
        let excl = w.exclusive_twin();
        let policy = DrivePolicy::default();
        let a = run_concurrent(&w.spec, seed, &policy);
        let b = run_concurrent(&excl.spec, seed, &policy);
        let identical = a.schedule.as_slice() == b.schedule.as_slice();
        let ok = check_serial_correctness(&w.spec, a.schedule.as_slice()).ok()
            && check_serial_correctness(&excl.spec, b.schedule.as_slice()).ok();
        t.row(vec![
            seed.to_string(),
            a.schedule.len().to_string(),
            identical.to_string(),
            ok.to_string(),
        ]);
    }
    t
}

/// E9 (observation): orphan activity under plain R/W Locking — how often
/// accesses respond after an ancestor has aborted. The paper's §3.5 notes
/// that its systems do not protect orphans ("ensuring [consistency for
/// orphans] requires a much more intricate scheduler") and defers to the
/// [HLMW] orphan-elimination algorithms; this measures how much orphan
/// activity there is to eliminate.
pub fn e9_orphan_activity(runs: usize) -> Table {
    use ntx_sim::analyze;
    let mut t = Table::new(
        "E9 (observation) — orphan accesses per 1k responses vs abort rate and inform promptness",
        &[
            "abort policy",
            "inform weight",
            "responses",
            "orphan responses",
            "per 1k",
        ],
    );
    let cfg = WorkloadConfig {
        top_level: 3,
        depth: 2,
        fanout: 2,
        accesses_per_leaf: 1,
        objects: 2,
        read_fraction: 0.5,
        ..Default::default()
    };
    for (policy_name, abort_weight) in [("rare", 0.02), ("frequent", 0.2), ("chaos", 1.0)] {
        for inform_weight in [0.2, 1.0, 4.0] {
            let policy = DrivePolicy {
                abort_weight,
                inform_weight,
                max_steps: 100_000,
            };
            let mut responses = 0usize;
            let mut orphan = 0usize;
            for seed in 0..runs as u64 {
                let w = Workload::generate(&cfg, seed);
                let out = run_concurrent(&w.spec, seed, &policy);
                let m = analyze(out.schedule.as_slice(), &w.spec.tree);
                responses += m.access_responses;
                orphan += m.orphan_responses;
            }
            t.row(vec![
                policy_name.to_owned(),
                format!("{inform_weight:.1}"),
                responses.to_string(),
                orphan.to_string(),
                format!("{:.1}", orphan as f64 * 1000.0 / responses.max(1) as f64),
            ]);
        }
    }
    t
}

/// A1: the broken lock object (locks released to the top at subcommit) must
/// be *caught* by the Theorem 34 checker.
pub fn a1_broken_variant(runs: usize) -> Table {
    let mut t = Table::new(
        "A1 (ablation) — lock inheritance replaced by release-to-top: checker must catch it",
        &[
            "commit policy",
            "schedules",
            "violating schedules",
            "expected",
        ],
    );
    // A leaked read only violates serial correctness while the leaking
    // writer's ancestor chain has not committed, so the adversarial driver
    // truncates runs mid-flight (max_steps) and delivers INFORMs eagerly
    // (inform_weight) to leak locks as early as possible.
    let policy = DrivePolicy {
        abort_weight: 0.05,
        inform_weight: 4.0,
        max_steps: 100,
    };
    let cfg = WorkloadConfig {
        top_level: 3,
        depth: 2,
        fanout: 2,
        accesses_per_leaf: 1,
        objects: 2,
        read_fraction: 0.6,
        ..Default::default()
    };
    for (name, commit_policy, expect_violations) in [
        ("Inherit (correct)", CommitPolicy::Inherit, false),
        ("ReleaseToTop (broken)", CommitPolicy::ReleaseToTop, true),
    ] {
        let mut violating = 0usize;
        for seed in 0..runs as u64 {
            let mut w = Workload::generate(&cfg, seed);
            w.spec.lock_config = LockObjectConfig {
                commit_policy,
                ..Default::default()
            };
            let out = run_concurrent(&w.spec, seed, &policy);
            if !check_serial_correctness(&w.spec, out.schedule.as_slice()).ok() {
                violating += 1;
            }
        }
        t.row(vec![
            name.to_owned(),
            runs.to_string(),
            violating.to_string(),
            if expect_violations {
                "> 0".to_owned()
            } else {
                "0".to_owned()
            },
        ]);
    }
    t
}

/// A2: Moss' footnote-8 read-lock-removal optimisation preserves
/// Theorem 34.
pub fn a2_footnote8(runs: usize) -> Table {
    let mut t = Table::new(
        "A2 (ablation) — footnote-8 optimisation (drop read lock when write lock held)",
        &["optimisation", "schedules", "witnesses", "violations"],
    );
    let cfg = WorkloadConfig {
        top_level: 3,
        depth: 2,
        fanout: 2,
        accesses_per_leaf: 1,
        objects: 2,
        read_fraction: 0.6,
        ..Default::default()
    };
    for on in [false, true] {
        let mut witnesses = 0usize;
        let mut violations = 0usize;
        for seed in 0..runs as u64 {
            let mut w = Workload::generate(&cfg, seed);
            w.spec.lock_config.drop_read_lock_when_write_held = on;
            let out = run_concurrent(&w.spec, seed, &DrivePolicy::default());
            let report = check_serial_correctness(&w.spec, out.schedule.as_slice());
            witnesses += report.transactions_checked;
            violations += report.violations.len();
        }
        t.row(vec![
            if on { "on" } else { "off" }.to_owned(),
            runs.to_string(),
            witnesses.to_string(),
            violations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_small_run_is_clean() {
        let t = e1_theorem34_random(2);
        assert_eq!(t.rows.len(), 27);
        for r in &t.rows {
            assert_eq!(r[5], "0", "violations in {r:?}");
        }
    }

    #[test]
    fn e2_small_run_is_clean() {
        let t = e2_exhaustive(500, 64);
        assert_eq!(t.rows.len(), 3);
        for r in &t.rows {
            assert_eq!(r[4], "true");
        }
    }

    #[test]
    fn e8_schedules_identical() {
        let t = e8_degeneracy(3);
        for r in &t.rows {
            assert_eq!(r[2], "true", "Moss vs exclusive diverged: {r:?}");
            assert_eq!(r[3], "true");
        }
    }

    #[test]
    fn a1_catches_broken_variant() {
        let t = a1_broken_variant(60);
        // Correct policy: zero violations.
        assert_eq!(t.rows[0][2], "0", "correct policy flagged: {t:?}");
        // Broken policy: at least one violating schedule caught.
        let caught: usize = t.rows[1][2].parse().unwrap();
        assert!(caught > 0, "broken variant never caught: {t:?}");
    }

    #[test]
    fn a2_footnote8_clean() {
        let t = a2_footnote8(5);
        for r in &t.rows {
            assert_eq!(r[3], "0");
        }
    }
}
