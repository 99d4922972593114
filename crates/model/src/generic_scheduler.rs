//! The generic scheduler (§5.2).
//!
//! The generic scheduler drives R/W Locking systems. It is far more
//! permissive than the serial scheduler: siblings run concurrently, and any
//! requested transaction — even one that has already performed work — may be
//! unilaterally aborted. It additionally emits `INFORM_COMMIT` /
//! `INFORM_ABORT` events telling each lock-managing object `M(X)` about the
//! fates of transactions, with arbitrary delay. The pre/postconditions are
//! transcribed from the paper.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ntx_automata::{Automaton, BoxedAutomaton};
use ntx_tree::{ObjectId, TxId, TxTree};

use crate::action::{Action, Value};

/// Knobs restricting the generic scheduler's nondeterminism so that
/// executions are finite and exploration tractable. Every restriction only
/// *removes* schedules: all schedules of the restricted automaton remain
/// schedules of the paper's scheduler.
#[derive(Clone, Copy, Debug)]
pub struct GenericSchedulerConfig {
    /// Deliver each report at most once.
    pub dedup_reports: bool,
    /// Emit each `INFORM_…_AT(X)OF(T)` at most once per `(X, T)`.
    pub dedup_informs: bool,
    /// Only inform object `X` about transactions whose subtree contains an
    /// access to `X` (informing unrelated objects is a no-op at `M(X)`).
    pub inform_only_relevant: bool,
    /// Deliver `INFORM_COMMIT_AT(X)OF(T)` only after the inform for every
    /// committed relevant child of `T` was delivered (child-first order).
    ///
    /// The paper's scheduler may deliver informs in any order and any
    /// number of times; an out-of-order inform is simply a no-op at `M(X)`
    /// and is repeated later. With `dedup_informs` that repetition is gone,
    /// and an out-of-order inform would strand locks at an intermediate
    /// ancestor forever — a liveness (never a safety) loss. Child-first
    /// ordering restores liveness while remaining a restriction of the
    /// paper's nondeterminism.
    pub ascending_informs: bool,
    /// Allow spontaneous `ABORT`s of requested transactions.
    pub allow_aborts: bool,
}

impl Default for GenericSchedulerConfig {
    fn default() -> Self {
        GenericSchedulerConfig {
            dedup_reports: true,
            dedup_informs: true,
            inform_only_relevant: true,
            ascending_informs: true,
            allow_aborts: true,
        }
    }
}

/// The generic scheduler automaton.
#[derive(Clone)]
pub struct GenericScheduler {
    tree: Arc<TxTree>,
    config: GenericSchedulerConfig,
    // --- state (§5.2) ---
    create_requested: BTreeSet<TxId>,
    created: BTreeSet<TxId>,
    commit_requested: BTreeMap<TxId, BTreeSet<Value>>,
    committed: BTreeSet<TxId>,
    aborted: BTreeSet<TxId>,
    returned: BTreeSet<TxId>,
    // --- dedup bookkeeping (not part of the paper's state) ---
    reported: BTreeSet<TxId>,
    informed: BTreeSet<(ObjectId, TxId)>,
    /// Cache: objects relevant to each transaction's subtree.
    relevant: Arc<Vec<Vec<ObjectId>>>,
}

impl GenericScheduler {
    /// A generic scheduler for the given system type.
    pub fn new(tree: Arc<TxTree>, config: GenericSchedulerConfig) -> Self {
        let mut relevant: Vec<BTreeSet<ObjectId>> = vec![BTreeSet::new(); tree.len()];
        // For each access, mark its object on every ancestor.
        for t in tree.all_tx() {
            if let Some(info) = tree.access(t) {
                for anc in tree.ancestors(t) {
                    relevant[anc.index()].insert(info.object);
                }
            }
        }
        let relevant = Arc::new(
            relevant
                .into_iter()
                .map(|s| s.into_iter().collect::<Vec<_>>())
                .collect::<Vec<_>>(),
        );
        let mut create_requested = BTreeSet::new();
        create_requested.insert(TxTree::ROOT);
        GenericScheduler {
            tree,
            config,
            create_requested,
            created: BTreeSet::new(),
            commit_requested: BTreeMap::new(),
            committed: BTreeSet::new(),
            aborted: BTreeSet::new(),
            returned: BTreeSet::new(),
            reported: BTreeSet::new(),
            informed: BTreeSet::new(),
            relevant,
        }
    }

    fn create_enabled(&self, t: TxId) -> bool {
        self.create_requested.contains(&t) && !self.created.contains(&t)
    }

    fn commit_enabled(&self, t: TxId) -> bool {
        t != TxTree::ROOT
            && self.commit_requested.contains_key(&t)
            && !self.returned.contains(&t)
            && self
                .tree
                .children(t)
                .iter()
                .filter(|c| self.create_requested.contains(c))
                .all(|c| self.returned.contains(c))
    }

    fn abort_enabled(&self, t: TxId) -> bool {
        self.config.allow_aborts
            && t != TxTree::ROOT
            && self.create_requested.contains(&t)
            && !self.returned.contains(&t)
    }

    fn report_commit_enabled(&self, t: TxId, v: Value) -> bool {
        t != TxTree::ROOT
            && self.committed.contains(&t)
            && self
                .commit_requested
                .get(&t)
                .is_some_and(|vs| vs.contains(&v))
            && !(self.config.dedup_reports && self.reported.contains(&t))
    }

    fn report_abort_enabled(&self, t: TxId) -> bool {
        t != TxTree::ROOT
            && self.aborted.contains(&t)
            && !(self.config.dedup_reports && self.reported.contains(&t))
    }

    fn inform_allowed(&self, x: ObjectId, t: TxId) -> bool {
        (!self.config.inform_only_relevant || self.relevant[t.index()].contains(&x))
            && !(self.config.dedup_informs && self.informed.contains(&(x, t)))
    }

    fn inform_commit_enabled(&self, x: ObjectId, t: TxId) -> bool {
        if t == TxTree::ROOT || !self.committed.contains(&t) || !self.inform_allowed(x, t) {
            return false;
        }
        if self.config.ascending_informs {
            for &c in self.tree.children(t) {
                if self.committed.contains(&c)
                    && self.relevant[c.index()].contains(&x)
                    && !self.informed.contains(&(x, c))
                {
                    return false;
                }
            }
        }
        true
    }

    fn inform_abort_enabled(&self, x: ObjectId, t: TxId) -> bool {
        t != TxTree::ROOT && self.aborted.contains(&t) && self.inform_allowed(x, t)
    }
}

impl Automaton for GenericScheduler {
    type Action = Action;

    fn name(&self) -> String {
        "generic-scheduler".to_owned()
    }

    fn is_operation_of(&self, _a: &Action) -> bool {
        true // every operation of a concurrent system touches the scheduler
    }

    fn is_output_of(&self, a: &Action) -> bool {
        !matches!(a, Action::RequestCreate(_) | Action::RequestCommit(..))
    }

    fn enabled_outputs(&self, buf: &mut Vec<Action>) {
        for &t in &self.create_requested {
            if self.create_enabled(t) {
                buf.push(Action::Create(t));
            }
            if self.abort_enabled(t) {
                buf.push(Action::Abort(t));
            }
        }
        for &t in self.commit_requested.keys() {
            if self.commit_enabled(t) {
                buf.push(Action::Commit(t));
            }
        }
        for &t in &self.committed {
            if let Some(vs) = self.commit_requested.get(&t) {
                for &v in vs {
                    if self.report_commit_enabled(t, v) {
                        buf.push(Action::ReportCommit(t, v));
                    }
                }
            }
            for &x in &self.relevant[t.index()] {
                if self.inform_commit_enabled(x, t) {
                    buf.push(Action::InformCommit(x, t));
                }
            }
            if !self.config.inform_only_relevant {
                for x in (0..self.tree.object_count()).map(ObjectId::from_index) {
                    if !self.relevant[t.index()].contains(&x) && self.inform_commit_enabled(x, t) {
                        buf.push(Action::InformCommit(x, t));
                    }
                }
            }
        }
        for &t in &self.aborted {
            if self.report_abort_enabled(t) {
                buf.push(Action::ReportAbort(t));
            }
            for &x in &self.relevant[t.index()] {
                if self.inform_abort_enabled(x, t) {
                    buf.push(Action::InformAbort(x, t));
                }
            }
            if !self.config.inform_only_relevant {
                for x in (0..self.tree.object_count()).map(ObjectId::from_index) {
                    if !self.relevant[t.index()].contains(&x) && self.inform_abort_enabled(x, t) {
                        buf.push(Action::InformAbort(x, t));
                    }
                }
            }
        }
    }

    fn is_enabled(&self, a: &Action) -> bool {
        match *a {
            Action::Create(t) => self.create_enabled(t),
            Action::Commit(t) => self.commit_enabled(t),
            Action::Abort(t) => self.abort_enabled(t),
            Action::ReportCommit(t, v) => self.report_commit_enabled(t, v),
            Action::ReportAbort(t) => self.report_abort_enabled(t),
            Action::InformCommit(x, t) => self.inform_commit_enabled(x, t),
            Action::InformAbort(x, t) => self.inform_abort_enabled(x, t),
            _ => false,
        }
    }

    fn apply(&mut self, a: &Action) {
        match *a {
            Action::RequestCreate(t) => {
                self.create_requested.insert(t);
            }
            Action::RequestCommit(t, v) => {
                self.commit_requested.entry(t).or_default().insert(v);
            }
            Action::Create(t) => {
                self.created.insert(t);
            }
            Action::Commit(t) => {
                self.committed.insert(t);
                self.returned.insert(t);
            }
            Action::Abort(t) => {
                self.aborted.insert(t);
                self.returned.insert(t);
            }
            Action::ReportCommit(t, _) | Action::ReportAbort(t) => {
                self.reported.insert(t);
            }
            Action::InformCommit(x, t) | Action::InformAbort(x, t) => {
                self.informed.insert((x, t));
            }
        }
    }

    fn clone_boxed(&self) -> BoxedAutomaton<Action> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntx_tree::TxTreeBuilder;

    fn setup() -> (Arc<TxTree>, TxId, TxId, TxId, ObjectId) {
        let mut b = TxTreeBuilder::new();
        let x = b.object("x");
        let t1 = b.internal(TxTree::ROOT, "t1");
        let a1 = b.write(t1, "a1", x, 1);
        let t2 = b.internal(TxTree::ROOT, "t2");
        (Arc::new(b.build()), t1, t2, a1, x)
    }

    #[test]
    fn siblings_may_run_concurrently() {
        let (tree, t1, t2, ..) = setup();
        let mut s = GenericScheduler::new(tree, GenericSchedulerConfig::default());
        s.apply(&Action::Create(TxTree::ROOT));
        s.apply(&Action::RequestCreate(t1));
        s.apply(&Action::RequestCreate(t2));
        s.apply(&Action::Create(t1));
        // Unlike the serial scheduler, t2 does not wait for t1.
        assert!(s.is_enabled(&Action::Create(t2)));
    }

    #[test]
    fn created_transactions_can_abort() {
        let (tree, t1, ..) = setup();
        let mut s = GenericScheduler::new(tree, GenericSchedulerConfig::default());
        s.apply(&Action::Create(TxTree::ROOT));
        s.apply(&Action::RequestCreate(t1));
        s.apply(&Action::Create(t1));
        assert!(
            s.is_enabled(&Action::Abort(t1)),
            "generic scheduler aborts after work"
        );
        s.apply(&Action::Abort(t1));
        assert!(!s.is_enabled(&Action::Abort(t1)), "no double return");
        assert!(!s.is_enabled(&Action::Commit(t1)));
    }

    #[test]
    fn informs_follow_fate_and_dedup() {
        let (tree, t1, _, a1, x) = setup();
        let mut s = GenericScheduler::new(tree, GenericSchedulerConfig::default());
        for ev in [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(t1),
            Action::Create(t1),
            Action::RequestCreate(a1),
            Action::Create(a1),
            Action::RequestCommit(a1, Value(1)),
        ] {
            s.apply(&ev);
        }
        assert!(
            !s.is_enabled(&Action::InformCommit(x, a1)),
            "a1 not committed yet"
        );
        s.apply(&Action::Commit(a1));
        assert!(s.is_enabled(&Action::InformCommit(x, a1)));
        assert!(!s.is_enabled(&Action::InformAbort(x, a1)));
        s.apply(&Action::InformCommit(x, a1));
        assert!(!s.is_enabled(&Action::InformCommit(x, a1)), "deduplicated");
    }

    #[test]
    fn inform_only_relevant_restriction() {
        let (tree, _, t2, _, x) = setup();
        let mut s = GenericScheduler::new(tree.clone(), GenericSchedulerConfig::default());
        for ev in [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(t2),
            Action::Create(t2),
            Action::RequestCommit(t2, Value(0)),
            Action::Commit(t2),
        ] {
            s.apply(&ev);
        }
        // t2's subtree has no accesses, so informing X about it is filtered.
        assert!(!s.is_enabled(&Action::InformCommit(x, t2)));
        let mut s2 = GenericScheduler::new(
            tree,
            GenericSchedulerConfig {
                inform_only_relevant: false,
                ..Default::default()
            },
        );
        for ev in [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(t2),
            Action::Create(t2),
            Action::RequestCommit(t2, Value(0)),
            Action::Commit(t2),
        ] {
            s2.apply(&ev);
        }
        assert!(s2.is_enabled(&Action::InformCommit(x, t2)));
        let mut buf = Vec::new();
        s2.enabled_outputs(&mut buf);
        assert!(buf.contains(&Action::InformCommit(x, t2)));
    }

    #[test]
    fn commit_waits_for_requested_children() {
        let (tree, t1, _, a1, _) = setup();
        let mut s = GenericScheduler::new(tree, GenericSchedulerConfig::default());
        for ev in [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(t1),
            Action::Create(t1),
            Action::RequestCreate(a1),
            Action::RequestCommit(t1, Value(0)),
        ] {
            s.apply(&ev);
        }
        assert!(!s.is_enabled(&Action::Commit(t1)));
        s.apply(&Action::Abort(a1));
        assert!(s.is_enabled(&Action::Commit(t1)));
    }

    #[test]
    fn enumeration_matches_is_enabled() {
        let (tree, t1, t2, a1, x) = setup();
        let mut s = GenericScheduler::new(tree, GenericSchedulerConfig::default());
        let drive = [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(t1),
            Action::RequestCreate(t2),
            Action::Create(t1),
            Action::Create(t2),
            Action::RequestCreate(a1),
            Action::Create(a1),
            Action::RequestCommit(a1, Value(1)),
            Action::Commit(a1),
            Action::InformCommit(x, a1),
            Action::Abort(t2),
            Action::ReportAbort(t2),
        ];
        for ev in drive {
            let mut en = Vec::new();
            s.enabled_outputs(&mut en);
            for candidate in [
                Action::Create(t1),
                Action::Create(t2),
                Action::Create(a1),
                Action::Commit(a1),
                Action::Abort(t2),
                Action::InformCommit(x, a1),
                Action::InformAbort(x, t2),
                Action::ReportAbort(t2),
                Action::ReportCommit(a1, Value(1)),
            ] {
                assert_eq!(
                    en.contains(&candidate),
                    s.is_enabled(&candidate),
                    "at {ev:?}"
                );
            }
            s.apply(&ev);
        }
    }
}
