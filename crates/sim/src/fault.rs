//! Seeded fault plans for the runtime's injection hooks.
//!
//! [`SeededFaults`] implements [`ntx_runtime::FaultInjector`] as a pure
//! function of `(seed, call index)`: the i-th consultation of the injector
//! always returns the same decision for the same seed. In a single-threaded
//! harness the sequence of consultations is itself deterministic, so one
//! `u64` seed reproduces an entire faulty execution byte for byte.

use std::sync::atomic::{AtomicU64, Ordering};

use ntx_runtime::{FaultAction, FaultContext, FaultInjector, FaultPoint};

/// Per-mille probabilities for each fault kind, by yield point.
///
/// At a lock request (entry or blocked round) the spontaneous kinds
/// (`abort_pm`, `crash_pm`) always apply; the wait-shaped kinds
/// (`timeout_pm`, `victim_pm`) apply only once the request has blocked.
/// At commit only `commit_abort_pm` and `crash_pm` apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// ‰ chance a lock request spontaneously aborts the requester's
    /// subtree.
    pub abort_pm: u32,
    /// ‰ chance a blocked lock request fails as if its wait budget ran
    /// out.
    pub timeout_pm: u32,
    /// ‰ chance a blocked lock request is killed as a deadlock victim.
    pub victim_pm: u32,
    /// ‰ chance the requester's whole top-level transaction crashes.
    pub crash_pm: u32,
    /// ‰ chance a commit spontaneously aborts instead.
    pub commit_abort_pm: u32,
}

impl FaultPlan {
    /// No faults ever (the injector still gets consulted — useful for
    /// measuring hook overhead).
    pub fn none() -> FaultPlan {
        FaultPlan {
            abort_pm: 0,
            timeout_pm: 0,
            victim_pm: 0,
            crash_pm: 0,
            commit_abort_pm: 0,
        }
    }

    /// Rare faults: most transactions complete, every failure path still
    /// gets exercised over a few hundred seeds.
    pub fn light() -> FaultPlan {
        FaultPlan {
            abort_pm: 12,
            timeout_pm: 40,
            victim_pm: 20,
            crash_pm: 4,
            commit_abort_pm: 12,
        }
    }

    /// Frequent faults: abort/recovery paths dominate the execution.
    pub fn heavy() -> FaultPlan {
        FaultPlan {
            abort_pm: 60,
            timeout_pm: 150,
            victim_pm: 80,
            crash_pm: 25,
            commit_abort_pm: 60,
        }
    }

    /// Parse a plan name as used by the `ntx fuzz` CLI.
    pub fn by_name(name: &str) -> Option<FaultPlan> {
        match name {
            "none" => Some(FaultPlan::none()),
            "light" => Some(FaultPlan::light()),
            "heavy" => Some(FaultPlan::heavy()),
            _ => None,
        }
    }
}

/// Seeded process-crash plan for the runtime's WAL yield points.
///
/// Kept separate from [`FaultPlan`] so existing fuzz seeds replay byte for
/// byte: a crash plan of [`CrashPlan::none`] consumes draws at WAL points
/// only when a WAL is configured, which no pre-durability harness does.
/// `pm` is the per-mille chance of killing the process at an *enabled*
/// point; the three flags select which of the runtime's WAL yield points are
/// eligible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// ‰ chance of a process kill at each enabled WAL yield point.
    pub pm: u32,
    /// Eligible: before the commit's record is appended.
    pub pre_append: bool,
    /// Eligible: after the commit's record is appended, before the fsync.
    pub post_append: bool,
    /// Eligible: between a checkpoint's two fsyncs (old segments still on
    /// disk, new segment not yet durable).
    pub checkpoint: bool,
}

impl CrashPlan {
    /// Never crash (WAL yield points always continue).
    pub fn none() -> CrashPlan {
        CrashPlan {
            pm: 0,
            pre_append: false,
            post_append: false,
            checkpoint: false,
        }
    }

    /// Crash with probability `pm`‰ at every WAL yield point.
    pub fn all(pm: u32) -> CrashPlan {
        CrashPlan {
            pm,
            pre_append: true,
            post_append: true,
            checkpoint: true,
        }
    }

    /// Crash only at one specific WAL yield point.
    pub fn at(point: FaultPoint, pm: u32) -> CrashPlan {
        let mut plan = CrashPlan {
            pm,
            ..CrashPlan::none()
        };
        match point {
            FaultPoint::WalPreAppend => plan.pre_append = true,
            FaultPoint::WalPostAppend => plan.post_append = true,
            FaultPoint::WalCheckpoint => plan.checkpoint = true,
            _ => {}
        }
        plan
    }

    /// Parse a crash-point selection as used by the `ntx fuzz` CLI:
    /// `"all"`, or a comma-separated subset of
    /// `pre-append,post-append,checkpoint`.
    pub fn by_names(names: &str, pm: u32) -> Option<CrashPlan> {
        if names == "all" {
            return Some(CrashPlan::all(pm));
        }
        let mut plan = CrashPlan {
            pm,
            ..CrashPlan::none()
        };
        for name in names.split(',') {
            match name.trim() {
                "pre-append" => plan.pre_append = true,
                "post-append" => plan.post_append = true,
                "checkpoint" => plan.checkpoint = true,
                _ => return None,
            }
        }
        Some(plan)
    }

    /// Whether this plan can fire at `point`.
    pub fn enabled(&self, point: FaultPoint) -> bool {
        self.pm > 0
            && match point {
                FaultPoint::WalPreAppend => self.pre_append,
                FaultPoint::WalPostAppend => self.post_append,
                FaultPoint::WalCheckpoint => self.checkpoint,
                _ => false,
            }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic counter-keyed fault injector.
pub struct SeededFaults {
    seed: u64,
    plan: FaultPlan,
    crash: CrashPlan,
    calls: AtomicU64,
}

impl SeededFaults {
    /// An injector whose decision sequence is fixed by `seed` (no process
    /// crashes — WAL yield points always continue).
    pub fn new(seed: u64, plan: FaultPlan) -> SeededFaults {
        SeededFaults::with_crash(seed, plan, CrashPlan::none())
    }

    /// An injector that can also kill the process at WAL yield points.
    pub fn with_crash(seed: u64, plan: FaultPlan, crash: CrashPlan) -> SeededFaults {
        SeededFaults {
            seed,
            plan,
            crash,
            calls: AtomicU64::new(0),
        }
    }

    /// How many times the runtime consulted this injector.
    pub fn calls(&self) -> u64 {
        // relaxed(fault-calls): single-threaded fuzz driver
        self.calls.load(Ordering::Relaxed)
    }
}

impl FaultInjector for SeededFaults {
    fn decide(&self, ctx: &FaultContext) -> FaultAction {
        // relaxed(fault-calls): single-threaded fuzz driver
        let i = self.calls.fetch_add(1, Ordering::Relaxed);
        let r = splitmix64(self.seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F)) % 1000;
        let r = r as u32;
        let p = &self.plan;
        // Stack the per-kind bands on [0, 1000); a draw below the stacked
        // boundary picks the corresponding kind.
        let mut bound = 0u32;
        let mut band = |pm: u32, action: FaultAction| {
            bound += pm;
            (r < bound).then_some(action)
        };
        let hit = match ctx.point {
            FaultPoint::LockRequest => band(p.abort_pm, FaultAction::Abort)
                .or_else(|| band(p.crash_pm, FaultAction::CrashSubtree)),
            FaultPoint::LockWait => band(p.abort_pm, FaultAction::Abort)
                .or_else(|| band(p.crash_pm, FaultAction::CrashSubtree))
                .or_else(|| band(p.timeout_pm, FaultAction::Timeout))
                .or_else(|| band(p.victim_pm, FaultAction::DeadlockVictim)),
            FaultPoint::Commit => band(p.commit_abort_pm, FaultAction::Abort)
                .or_else(|| band(p.crash_pm, FaultAction::CrashSubtree)),
            FaultPoint::WalPreAppend | FaultPoint::WalPostAppend | FaultPoint::WalCheckpoint => {
                (self.crash.enabled(ctx.point) && r < self.crash.pm)
                    .then_some(FaultAction::CrashProcess)
            }
        };
        hit.unwrap_or(FaultAction::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(point: FaultPoint) -> FaultContext {
        FaultContext {
            point,
            tx: 1,
            top: 1,
            depth: 0,
            obj: Some(0),
            write: false,
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = SeededFaults::new(42, FaultPlan::heavy());
        let b = SeededFaults::new(42, FaultPlan::heavy());
        let da: Vec<_> = (0..200)
            .map(|_| a.decide(&ctx(FaultPoint::LockWait)))
            .collect();
        let db: Vec<_> = (0..200)
            .map(|_| b.decide(&ctx(FaultPoint::LockWait)))
            .collect();
        assert_eq!(da, db);
        assert_eq!(a.calls(), 200);
    }

    #[test]
    fn none_plan_never_fires() {
        let inj = SeededFaults::new(7, FaultPlan::none());
        for _ in 0..500 {
            assert_eq!(
                inj.decide(&ctx(FaultPoint::LockWait)),
                FaultAction::Continue
            );
            assert_eq!(inj.decide(&ctx(FaultPoint::Commit)), FaultAction::Continue);
        }
    }

    #[test]
    fn heavy_plan_fires_every_kind() {
        let inj = SeededFaults::new(3, FaultPlan::heavy());
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..3000 {
            seen.insert(format!("{}", inj.decide(&ctx(FaultPoint::LockWait))));
        }
        for kind in ["abort", "crash", "timeout", "victim", "continue"] {
            assert!(seen.contains(kind), "never drew {kind}: {seen:?}");
        }
    }

    #[test]
    fn commit_point_only_aborts_or_crashes() {
        let inj = SeededFaults::new(11, FaultPlan::heavy());
        for _ in 0..2000 {
            let d = inj.decide(&ctx(FaultPoint::Commit));
            assert!(
                matches!(
                    d,
                    FaultAction::Continue | FaultAction::Abort | FaultAction::CrashSubtree
                ),
                "{d:?} at commit"
            );
        }
    }

    #[test]
    fn plan_names_resolve() {
        assert_eq!(FaultPlan::by_name("none"), Some(FaultPlan::none()));
        assert_eq!(FaultPlan::by_name("light"), Some(FaultPlan::light()));
        assert_eq!(FaultPlan::by_name("heavy"), Some(FaultPlan::heavy()));
        assert_eq!(FaultPlan::by_name("bogus"), None);
    }

    #[test]
    fn crash_plan_names_resolve() {
        assert_eq!(CrashPlan::by_names("all", 5), Some(CrashPlan::all(5)));
        assert_eq!(
            CrashPlan::by_names("post-append", 9),
            Some(CrashPlan::at(FaultPoint::WalPostAppend, 9))
        );
        let two = CrashPlan::by_names("pre-append, checkpoint", 1).unwrap();
        assert!(two.pre_append && two.checkpoint && !two.post_append);
        assert_eq!(CrashPlan::by_names("bogus", 1), None);
        // The point between a commit's objects and its fence is gone: a
        // commit is one record.
        assert_eq!(CrashPlan::by_names("mid-commit", 1), None);
    }

    #[test]
    fn crash_plan_gates_wal_points() {
        let plan = CrashPlan::at(FaultPoint::WalPostAppend, 1000);
        assert!(plan.enabled(FaultPoint::WalPostAppend));
        assert!(!plan.enabled(FaultPoint::WalPreAppend));
        assert!(!plan.enabled(FaultPoint::LockRequest));
        assert!(!CrashPlan::all(0).enabled(FaultPoint::WalPostAppend));

        // A certain (1000‰) crash fires at its point and only there.
        let inj = SeededFaults::with_crash(5, FaultPlan::none(), plan);
        assert_eq!(
            inj.decide(&ctx(FaultPoint::WalPostAppend)),
            FaultAction::CrashProcess
        );
        assert_eq!(
            inj.decide(&ctx(FaultPoint::WalPreAppend)),
            FaultAction::Continue
        );
        assert_eq!(inj.decide(&ctx(FaultPoint::Commit)), FaultAction::Continue);
    }

    #[test]
    fn no_crash_plan_never_kills_at_wal_points() {
        let inj = SeededFaults::new(21, FaultPlan::heavy());
        for point in [
            FaultPoint::WalPreAppend,
            FaultPoint::WalPostAppend,
            FaultPoint::WalCheckpoint,
        ] {
            for _ in 0..200 {
                assert_eq!(inj.decide(&ctx(point)), FaultAction::Continue);
            }
        }
    }
}
