//! Assembling serial systems (§3.4) and R/W Locking systems (§5.3).

use std::collections::BTreeMap;
use std::sync::Arc;

use ntx_automata::{BoxedAutomaton, ReplayError, System};
use ntx_tree::{TxId, TxTree};

use crate::action::Action;
use crate::generic_scheduler::{GenericScheduler, GenericSchedulerConfig};
use crate::lock_object::{LockObject, LockObjectConfig};
use crate::object::BasicObject;
use crate::semantics::ObjectSemantics;
use crate::serial_scheduler::{SchedulerConfig, SerialScheduler};
use crate::transaction::{TxAutomaton, TxProgram};

/// Complete description of one nested-transaction system: the system type
/// (tree), per-object data semantics, per-transaction programs and the
/// configuration of schedulers and lock objects.
///
/// From one spec both the **serial system** (transactions + basic objects +
/// serial scheduler) and the **R/W Locking system** (same transactions +
/// lock objects + generic scheduler) can be built — the comparison at the
/// heart of the paper's correctness condition.
#[derive(Clone)]
pub struct SystemSpec<S: ObjectSemantics> {
    /// The system type.
    pub tree: Arc<TxTree>,
    /// Data-type semantics per object (indexed by `ObjectId`).
    pub semantics: Vec<S>,
    /// Programs for internal transactions. Internal transactions without an
    /// entry run the default program: request all children at once, commit
    /// with the sum of the committed children's values.
    pub programs: BTreeMap<TxId, TxProgram>,
    /// Serial scheduler knobs.
    pub serial_config: SchedulerConfig,
    /// Generic scheduler knobs.
    pub generic_config: GenericSchedulerConfig,
    /// Lock object knobs (commit policy, footnote-8 optimisation).
    pub lock_config: LockObjectConfig,
    /// Use [`crate::transaction::BlackBoxTx`] automata instead of
    /// `TxProgram`s: transactions accept *any* well-formedness-preserving
    /// behaviour, as in the paper. Black boxes cannot drive a system, so
    /// this is for replaying externally produced schedules (conformance
    /// checking of the runtime).
    pub blackbox_transactions: bool,
}

impl<S: ObjectSemantics> SystemSpec<S> {
    /// A spec with default programs and configurations.
    ///
    /// # Panics
    /// Panics unless `semantics` has one entry per object of `tree`.
    pub fn new(tree: Arc<TxTree>, semantics: Vec<S>) -> Self {
        assert_eq!(
            semantics.len(),
            tree.object_count(),
            "need exactly one semantics per object"
        );
        SystemSpec {
            tree,
            semantics,
            programs: BTreeMap::new(),
            serial_config: SchedulerConfig::default(),
            generic_config: GenericSchedulerConfig::default(),
            lock_config: LockObjectConfig::default(),
            blackbox_transactions: false,
        }
    }

    /// Switch to black-box transaction automata (see
    /// [`SystemSpec::blackbox_transactions`]).
    pub fn with_blackbox_transactions(mut self) -> Self {
        self.blackbox_transactions = true;
        self
    }

    /// Set the program of internal transaction `t`.
    pub fn with_program(mut self, t: TxId, program: TxProgram) -> Self {
        assert!(!self.tree.is_access(t), "accesses have no program");
        self.programs.insert(t, program);
        self
    }

    /// Program used for internal transaction `t`.
    pub fn program_of(&self, t: TxId) -> TxProgram {
        self.programs
            .get(&t)
            .cloned()
            .unwrap_or_else(|| TxProgram::all_at_once(self.tree.children(t).to_vec()))
    }

    fn tx_components(&self) -> Vec<BoxedAutomaton<Action>> {
        self.tree
            .all_tx()
            .filter(|&t| !self.tree.is_access(t))
            .map(|t| -> BoxedAutomaton<Action> {
                if self.blackbox_transactions {
                    Box::new(crate::transaction::BlackBoxTx::new(self.tree.clone(), t))
                } else {
                    Box::new(TxAutomaton::new(self.tree.clone(), t, self.program_of(t)))
                }
            })
            .collect()
    }

    /// Build the serial system: transaction automata, basic objects and the
    /// serial scheduler.
    pub fn serial_system(&self) -> System<Action> {
        let mut comps = self.tx_components();
        for x in self.tree.all_objects() {
            comps.push(Box::new(BasicObject::new(
                self.tree.clone(),
                x,
                self.semantics[x.index()].clone(),
            )) as _);
        }
        comps.push(Box::new(SerialScheduler::new(self.tree.clone(), self.serial_config)) as _);
        System::new(comps)
    }

    /// Build the R/W Locking system: the same transaction automata, lock
    /// objects `M(X)` and the generic scheduler.
    pub fn concurrent_system(&self) -> System<Action> {
        let mut comps = self.tx_components();
        for x in self.tree.all_objects() {
            comps.push(Box::new(LockObject::new(
                self.tree.clone(),
                x,
                self.semantics[x.index()].clone(),
                self.lock_config,
            )) as _);
        }
        comps.push(Box::new(GenericScheduler::new(
            self.tree.clone(),
            self.generic_config,
        )) as _);
        System::new(comps)
    }

    /// Is `events` a schedule of the serial system? Replays it against
    /// fresh components; fails at the first event not enabled where it
    /// should be. This is the acceptance check used on serializer
    /// witnesses.
    ///
    /// The replay scheduler runs with `dedup_reports` off and aborts on so
    /// that any schedule the paper's serial scheduler accepts is accepted.
    pub fn is_serial_schedule(&self, events: &[Action]) -> Result<(), ReplayError> {
        let mut spec = self.clone();
        spec.serial_config = SchedulerConfig {
            dedup_reports: false,
            allow_aborts: true,
        };
        spec.serial_system().replay(events)
    }

    /// Is `events` a schedule of the R/W Locking system? (Replay check,
    /// with the scheduler's nondeterminism fully open.)
    pub fn is_concurrent_schedule(&self, events: &[Action]) -> Result<(), ReplayError> {
        let mut spec = self.clone();
        spec.generic_config = GenericSchedulerConfig {
            dedup_reports: false,
            dedup_informs: false,
            inform_only_relevant: false,
            ascending_informs: false,
            allow_aborts: true,
        };
        spec.concurrent_system().replay(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Value;
    use crate::semantics::StdSemantics;
    use crate::visibility::Fates;
    use crate::wellformed::{check_concurrent_sequence, check_serial_sequence};
    use ntx_automata::explore::random_walk;

    /// T0 ── t1 ── {r1, w1}, t2 ── {r2, w2}  on one register.
    fn spec() -> SystemSpec<StdSemantics> {
        let mut b = ntx_tree::TxTreeBuilder::new();
        let x = b.object("x");
        let t1 = b.internal(TxTree::ROOT, "t1");
        b.read(t1, "r1", x);
        b.write(t1, "w1", x, 10);
        let t2 = b.internal(TxTree::ROOT, "t2");
        b.read(t2, "r2", x);
        b.write(t2, "w2", x, 20);
        SystemSpec::new(Arc::new(b.build()), vec![StdSemantics::register(0)])
    }

    /// Simple deterministic LCG so the tests need no rand dependency here.
    fn lcg(seed: u64) -> impl FnMut(usize) -> usize {
        let mut s = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        move |n| {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) as usize) % n
        }
    }

    #[test]
    fn serial_schedules_are_well_formed_and_serial() {
        let spec = spec();
        for seed in 0..30 {
            let sched = random_walk(spec.serial_system(), 200, lcg(seed));
            check_serial_sequence(sched.as_slice(), &spec.tree)
                .unwrap_or_else(|e| panic!("seed {seed}: {e:?}\n{sched:?}"));
            // Lemma 5 + closure: the schedule replays as a serial schedule.
            spec.is_serial_schedule(sched.as_slice())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{sched:?}"));
        }
    }

    #[test]
    fn lemma6_only_related_live_in_serial_schedules() {
        let spec = spec();
        for seed in 0..30 {
            let sched = random_walk(spec.serial_system(), 200, lcg(seed));
            // Check at every prefix.
            let mut fates = Fates::new();
            let mut live: Vec<TxId> = Vec::new();
            for a in sched.iter() {
                fates.absorb(a);
                live = spec.tree.all_tx().filter(|&t| fates.is_live(t)).collect();
                for (i, &a1) in live.iter().enumerate() {
                    for &b1 in &live[i + 1..] {
                        assert!(
                            spec.tree.related(a1, b1),
                            "unrelated live {a1},{b1} in serial schedule (seed {seed})"
                        );
                    }
                }
            }
            let _ = live;
        }
    }

    #[test]
    fn concurrent_schedules_are_well_formed() {
        let spec = spec();
        for seed in 0..30 {
            let sched = random_walk(spec.concurrent_system(), 400, lcg(seed));
            check_concurrent_sequence(sched.as_slice(), &spec.tree)
                .unwrap_or_else(|e| panic!("seed {seed}: {e:?}\n{sched:?}"));
            spec.is_concurrent_schedule(sched.as_slice())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{sched:?}"));
        }
    }

    #[test]
    fn concurrent_system_can_interleave_siblings() {
        let spec = spec();
        // Find some schedule where both t1's and t2's subtrees have live
        // transactions simultaneously (impossible serially, Lemma 6).
        let mut found = false;
        for seed in 0..50 {
            let sched = random_walk(spec.concurrent_system(), 400, lcg(seed));
            let mut fates = Fates::new();
            for a in sched.iter() {
                fates.absorb(a);
                let t1 = TxId::from_index(1);
                let t2 = TxId::from_index(4);
                if fates.is_live(t1) && fates.is_live(t2) {
                    found = true;
                }
            }
        }
        assert!(found, "generic scheduler should interleave siblings");
    }

    #[test]
    fn serial_run_completes_root() {
        let spec = spec();
        let mut done = false;
        for seed in 0..50 {
            let mut spec2 = spec.clone();
            spec2.serial_config.allow_aborts = false;
            let sched = random_walk(spec2.serial_system(), 400, lcg(seed));
            let fates = Fates::scan(sched.as_slice());
            // With aborts off everything runs; the root's children commit.
            let t1 = TxId::from_index(1);
            let t2 = TxId::from_index(4);
            if fates.is_committed(t1) && fates.is_committed(t2) {
                done = true;
                // The second transaction's read must have observed the
                // serialised writes: check some REQUEST_COMMIT values exist.
                assert!(sched
                    .iter()
                    .any(|a| matches!(a, Action::RequestCommit(_, Value(_)))));
                break;
            }
        }
        assert!(done, "no seed drove both top-level transactions to commit");
    }

    #[test]
    fn replay_rejects_non_schedules() {
        let spec = spec();
        let t1 = TxId::from_index(1);
        // COMMIT before any request is not a serial schedule.
        let bogus = vec![Action::Commit(t1)];
        assert!(spec.is_serial_schedule(&bogus).is_err());
        // CREATE without REQUEST_CREATE is not a concurrent schedule.
        let bogus2 = vec![Action::Create(t1)];
        assert!(spec.is_concurrent_schedule(&bogus2).is_err());
    }

    #[test]
    fn program_default_covers_children() {
        let spec = spec();
        let t1 = TxId::from_index(1);
        let prog = spec.program_of(t1);
        assert_eq!(prog.waves.len(), 1);
        assert_eq!(prog.waves[0], spec.tree.children(t1).to_vec());
    }
}
