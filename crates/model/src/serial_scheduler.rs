//! The serial scheduler (§3.3).
//!
//! The serial scheduler is the one *fully specified* automaton of the serial
//! system: it runs sibling transactions sequentially (depth-first traversal
//! of the transaction tree) and only aborts transactions that were never
//! created. Its schedules define the correctness condition every other
//! system is judged against. The pre/postconditions below are transcribed
//! from the paper.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ntx_automata::{Automaton, BoxedAutomaton};
use ntx_tree::{TxId, TxTree};

use crate::action::{Action, Value};

/// Knobs restricting the scheduler's nondeterminism for finite exploration.
///
/// Both restrictions only *remove* schedules, so every schedule of the
/// restricted scheduler is a schedule of the paper's scheduler.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Deliver each report at most once. The paper's scheduler may repeat
    /// report operations forever; with deduplication executions stay finite.
    pub dedup_reports: bool,
    /// Allow spontaneous `ABORT`s. The serial scheduler may abort any
    /// requested-but-not-created transaction; turning this off makes it
    /// drive every requested transaction to commit (useful for workload
    /// experiments where aborts are injected deliberately elsewhere).
    pub allow_aborts: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            dedup_reports: true,
            allow_aborts: true,
        }
    }
}

/// The serial scheduler automaton.
#[derive(Clone)]
pub struct SerialScheduler {
    tree: Arc<TxTree>,
    config: SchedulerConfig,
    // --- state (the six sets of §3.3) ---
    create_requested: BTreeSet<TxId>,
    created: BTreeSet<TxId>,
    commit_requested: BTreeMap<TxId, BTreeSet<Value>>,
    committed: BTreeSet<TxId>,
    aborted: BTreeSet<TxId>,
    returned: BTreeSet<TxId>,
    // --- dedup bookkeeping (not part of the paper's state) ---
    reported: BTreeSet<TxId>,
}

impl SerialScheduler {
    /// A serial scheduler for the given system type.
    pub fn new(tree: Arc<TxTree>, config: SchedulerConfig) -> Self {
        let mut create_requested = BTreeSet::new();
        create_requested.insert(TxTree::ROOT);
        SerialScheduler {
            tree,
            config,
            create_requested,
            created: BTreeSet::new(),
            commit_requested: BTreeMap::new(),
            committed: BTreeSet::new(),
            aborted: BTreeSet::new(),
            returned: BTreeSet::new(),
            reported: BTreeSet::new(),
        }
    }

    fn siblings_created_returned(&self, t: TxId) -> bool {
        match self.tree.parent(t) {
            None => true,
            Some(p) => self
                .tree
                .children(p)
                .iter()
                .filter(|&&s| s != t && self.created.contains(&s))
                .all(|s| self.returned.contains(s)),
        }
    }

    fn create_enabled(&self, t: TxId) -> bool {
        self.create_requested.contains(&t)
            && !self.created.contains(&t)
            && !self.aborted.contains(&t)
            && self.siblings_created_returned(t)
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
            && !self.created.contains(&t)
            && !self.aborted.contains(&t)
            && self.siblings_created_returned(t)
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
}

impl Automaton for SerialScheduler {
    type Action = Action;

    fn name(&self) -> String {
        "serial-scheduler".to_owned()
    }

    fn is_operation_of(&self, a: &Action) -> bool {
        a.is_serial()
    }

    fn is_output_of(&self, a: &Action) -> bool {
        matches!(
            a,
            Action::Create(_)
                | Action::Commit(_)
                | Action::Abort(_)
                | Action::ReportCommit(..)
                | Action::ReportAbort(_)
        )
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
        }
        for &t in &self.aborted {
            if self.report_abort_enabled(t) {
                buf.push(Action::ReportAbort(t));
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
            Action::InformCommit(..) | Action::InformAbort(..) => {
                unreachable!("INFORM events are not serial operations")
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

    fn setup() -> (Arc<TxTree>, TxId, TxId) {
        let mut b = TxTreeBuilder::new();
        let t1 = b.internal(TxTree::ROOT, "t1");
        let t2 = b.internal(TxTree::ROOT, "t2");
        (Arc::new(b.build()), t1, t2)
    }

    fn outputs(s: &SerialScheduler) -> Vec<Action> {
        let mut buf = Vec::new();
        s.enabled_outputs(&mut buf);
        buf
    }

    #[test]
    fn initially_only_root_create_enabled() {
        let (tree, ..) = setup();
        let s = SerialScheduler::new(tree, SchedulerConfig::default());
        // ABORT(T0) is excluded by the T ≠ T0 side condition.
        assert_eq!(outputs(&s), vec![Action::Create(TxTree::ROOT)]);
    }

    #[test]
    fn siblings_run_sequentially() {
        let (tree, t1, t2) = setup();
        let mut s = SerialScheduler::new(
            tree,
            SchedulerConfig {
                dedup_reports: true,
                allow_aborts: false,
            },
        );
        s.apply(&Action::Create(TxTree::ROOT));
        s.apply(&Action::RequestCreate(t1));
        s.apply(&Action::RequestCreate(t2));
        assert!(s.is_enabled(&Action::Create(t1)));
        assert!(s.is_enabled(&Action::Create(t2)));
        s.apply(&Action::Create(t1));
        // t2 must now wait for t1 to return.
        assert!(!s.is_enabled(&Action::Create(t2)));
        s.apply(&Action::RequestCommit(t1, Value(5)));
        assert!(s.is_enabled(&Action::Commit(t1)));
        s.apply(&Action::Commit(t1));
        assert!(s.is_enabled(&Action::Create(t2)));
    }

    #[test]
    fn abort_only_before_create() {
        let (tree, t1, _) = setup();
        let mut s = SerialScheduler::new(tree, SchedulerConfig::default());
        s.apply(&Action::Create(TxTree::ROOT));
        s.apply(&Action::RequestCreate(t1));
        assert!(s.is_enabled(&Action::Abort(t1)));
        s.apply(&Action::Create(t1));
        assert!(
            !s.is_enabled(&Action::Abort(t1)),
            "serial scheduler never aborts created tx"
        );
    }

    #[test]
    fn abort_blocked_while_sibling_active() {
        let (tree, t1, t2) = setup();
        let mut s = SerialScheduler::new(tree, SchedulerConfig::default());
        s.apply(&Action::Create(TxTree::ROOT));
        s.apply(&Action::RequestCreate(t1));
        s.apply(&Action::RequestCreate(t2));
        s.apply(&Action::Create(t1));
        assert!(!s.is_enabled(&Action::Abort(t2)), "t1 is live");
        s.apply(&Action::RequestCommit(t1, Value(0)));
        s.apply(&Action::Commit(t1));
        assert!(s.is_enabled(&Action::Abort(t2)));
        s.apply(&Action::Abort(t2));
        assert!(s.is_enabled(&Action::ReportAbort(t2)));
    }

    #[test]
    fn commit_waits_for_requested_children() {
        let mut b = TxTreeBuilder::new();
        let t1 = b.internal(TxTree::ROOT, "t1");
        let c = b.internal(t1, "c");
        let tree = Arc::new(b.build());
        let mut s = SerialScheduler::new(tree, SchedulerConfig::default());
        for ev in [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(t1),
            Action::Create(t1),
            Action::RequestCreate(c),
            Action::RequestCommit(t1, Value(1)),
        ] {
            s.apply(&ev);
        }
        assert!(!s.is_enabled(&Action::Commit(t1)), "child c not returned");
        s.apply(&Action::Create(c));
        s.apply(&Action::RequestCommit(c, Value(2)));
        s.apply(&Action::Commit(c));
        assert!(s.is_enabled(&Action::Commit(t1)));
    }

    #[test]
    fn report_requires_matching_value_and_dedups() {
        let (tree, t1, _) = setup();
        let mut s = SerialScheduler::new(tree, SchedulerConfig::default());
        for ev in [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(t1),
            Action::Create(t1),
            Action::RequestCommit(t1, Value(7)),
            Action::Commit(t1),
        ] {
            s.apply(&ev);
        }
        assert!(s.is_enabled(&Action::ReportCommit(t1, Value(7))));
        assert!(!s.is_enabled(&Action::ReportCommit(t1, Value(8))));
        s.apply(&Action::ReportCommit(t1, Value(7)));
        assert!(
            !s.is_enabled(&Action::ReportCommit(t1, Value(7))),
            "deduplicated"
        );
    }

    #[test]
    fn repeat_reports_allowed_without_dedup() {
        let (tree, t1, _) = setup();
        let mut s = SerialScheduler::new(
            tree,
            SchedulerConfig {
                dedup_reports: false,
                allow_aborts: true,
            },
        );
        for ev in [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(t1),
            Action::Create(t1),
            Action::RequestCommit(t1, Value(7)),
            Action::Commit(t1),
            Action::ReportCommit(t1, Value(7)),
        ] {
            s.apply(&ev);
        }
        assert!(s.is_enabled(&Action::ReportCommit(t1, Value(7))));
    }

    #[test]
    fn no_double_return() {
        let (tree, t1, _) = setup();
        let mut s = SerialScheduler::new(tree, SchedulerConfig::default());
        for ev in [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(t1),
            Action::Create(t1),
            Action::RequestCommit(t1, Value(7)),
            Action::Commit(t1),
        ] {
            s.apply(&ev);
        }
        assert!(!s.is_enabled(&Action::Commit(t1)));
        assert!(!s.is_enabled(&Action::Abort(t1)));
    }

    #[test]
    fn enumeration_matches_is_enabled() {
        let (tree, t1, t2) = setup();
        let mut s = SerialScheduler::new(tree, SchedulerConfig::default());
        let drive = [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(t1),
            Action::RequestCreate(t2),
            Action::Create(t1),
            Action::RequestCommit(t1, Value(3)),
            Action::Commit(t1),
            Action::Abort(t2),
        ];
        for ev in drive {
            let en = outputs(&s);
            for candidate in [
                Action::Create(t1),
                Action::Create(t2),
                Action::Commit(t1),
                Action::Abort(t2),
                Action::ReportCommit(t1, Value(3)),
                Action::ReportAbort(t2),
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
