//! Non-access transaction automata (§3.1).
//!
//! The paper leaves transaction automata almost entirely unspecified: they
//! are "black boxes" that must merely *preserve well-formedness*. For
//! executable systems we need concrete transaction behaviour, so this module
//! provides a programmable family, [`TxProgram`]: a transaction requests its
//! children in *waves* (a wave is requested only after every child of the
//! preceding waves has reported), optionally retries an aborted child with a
//! pre-declared *fallback* sibling, and finally requests commit with a value
//! aggregated from its children's reports. Every program preserves
//! well-formedness by construction, which is verified by tests against
//! [`crate::wellformed::TxWellFormed`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ntx_automata::{Automaton, BoxedAutomaton};
use ntx_tree::{TxId, TxTree};

use crate::action::{Action, Value};

/// How a transaction folds its children's reports into its own
/// `REQUEST_COMMIT` value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Aggregate {
    /// Sum of the values of committed children.
    Sum,
    /// Number of committed children.
    CountCommits,
    /// A fixed value, independent of the children.
    Const(i64),
    /// An order-insensitive mix (sum of `value * 31 + child index`),
    /// useful when tests want commit values to identify *which* children
    /// committed.
    Mix,
}

impl Aggregate {
    fn fold(self, reports: &BTreeMap<TxId, Option<Value>>) -> Value {
        match self {
            Aggregate::Const(v) => Value(v),
            Aggregate::Sum => Value(
                reports
                    .values()
                    .filter_map(|r| r.map(|v| v.0))
                    .fold(0i64, i64::wrapping_add),
            ),
            Aggregate::CountCommits => {
                Value(reports.values().filter(|r| r.is_some()).count() as i64)
            }
            Aggregate::Mix => Value(reports.iter().filter_map(|(c, r)| r.map(|v| (c, v))).fold(
                0i64,
                |acc, (c, v)| {
                    acc.wrapping_mul(31)
                        .wrapping_add(v.0)
                        .wrapping_add(c.index() as i64)
                },
            )),
        }
    }
}

/// The behaviour of one non-access transaction.
#[derive(Clone, Debug)]
pub struct TxProgram {
    /// Children are requested wave by wave; wave `i+1` opens only when every
    /// member of waves `0..=i` has reported. Members must be children of the
    /// owning transaction in the tree.
    pub waves: Vec<Vec<TxId>>,
    /// Fallbacks: when child `c` reports abort and `fallback[c]` exists and
    /// was not yet requested, it joins `c`'s wave (nested-transaction retry,
    /// the recovery idiom Moss' algorithm exists to support).
    pub fallback: BTreeMap<TxId, TxId>,
    /// How the commit value is computed.
    pub aggregate: Aggregate,
}

impl TxProgram {
    /// A leaf-like program: no children, commit immediately with `v`.
    pub fn constant(v: i64) -> Self {
        TxProgram {
            waves: Vec::new(),
            fallback: BTreeMap::new(),
            aggregate: Aggregate::Const(v),
        }
    }

    /// Request all `children` concurrently (a single wave), then commit with
    /// the sum of committed results.
    pub fn all_at_once(children: Vec<TxId>) -> Self {
        TxProgram {
            waves: vec![children],
            fallback: BTreeMap::new(),
            aggregate: Aggregate::Sum,
        }
    }

    /// Request children strictly one after another.
    pub fn sequential(children: Vec<TxId>) -> Self {
        TxProgram {
            waves: children.into_iter().map(|c| vec![c]).collect(),
            fallback: BTreeMap::new(),
            aggregate: Aggregate::Sum,
        }
    }

    /// Add a fallback pair: if `child` aborts, request `backup`.
    pub fn with_fallback(mut self, child: TxId, backup: TxId) -> Self {
        self.fallback.insert(child, backup);
        self
    }

    /// Use a different aggregation function.
    pub fn with_aggregate(mut self, agg: Aggregate) -> Self {
        self.aggregate = agg;
        self
    }
}

/// The I/O automaton running a [`TxProgram`] for one transaction.
#[derive(Clone)]
pub struct TxAutomaton {
    tree: Arc<TxTree>,
    t: TxId,
    program: TxProgram,
    // --- state ---
    created: bool,
    commit_requested: bool,
    requested: BTreeSet<TxId>,
    /// `Some(v)` = commit report; `None` = abort report.
    reports: BTreeMap<TxId, Option<Value>>,
    /// Dynamic wave membership (initial members plus activated fallbacks).
    members: Vec<Vec<TxId>>,
}

impl TxAutomaton {
    /// Build the automaton for transaction `t`.
    ///
    /// # Panics
    /// Panics if a wave member is not a child of `t` in `tree`, or `t` is an
    /// access.
    pub fn new(tree: Arc<TxTree>, t: TxId, program: TxProgram) -> Self {
        assert!(
            !tree.is_access(t),
            "{t} is an access; accesses have no transaction automaton"
        );
        for w in &program.waves {
            for &c in w {
                assert_eq!(
                    tree.parent(c),
                    Some(t),
                    "wave member {c} is not a child of {t}"
                );
            }
        }
        for (&c, &f) in &program.fallback {
            assert_eq!(
                tree.parent(f),
                Some(t),
                "fallback {f} is not a child of {t}"
            );
            assert_ne!(c, f, "fallback of {c} must be a different child");
        }
        let members = program.waves.clone();
        TxAutomaton {
            tree,
            t,
            program,
            created: false,
            commit_requested: false,
            requested: BTreeSet::new(),
            reports: BTreeMap::new(),
            members,
        }
    }

    /// Index of the first incomplete wave, or `members.len()` when all waves
    /// are complete. A wave is complete when every member has reported.
    fn open_wave(&self) -> usize {
        for (i, wave) in self.members.iter().enumerate() {
            if wave.iter().any(|c| !self.reports.contains_key(c)) {
                return i;
            }
        }
        self.members.len()
    }

    fn commit_value(&self) -> Value {
        self.program.aggregate.fold(&self.reports)
    }
}

impl Automaton for TxAutomaton {
    type Action = Action;

    fn name(&self) -> String {
        format!("tx-{}", self.t)
    }

    fn is_operation_of(&self, a: &Action) -> bool {
        a.is_operation_of_tx(self.t, &self.tree)
    }

    fn is_output_of(&self, a: &Action) -> bool {
        match *a {
            Action::RequestCreate(c) => self.tree.parent(c) == Some(self.t),
            Action::RequestCommit(t, _) => t == self.t,
            _ => false,
        }
    }

    fn enabled_outputs(&self, buf: &mut Vec<Action>) {
        if !self.created || self.commit_requested {
            return;
        }
        let open = self.open_wave();
        if open < self.members.len() {
            for &c in &self.members[open] {
                if !self.requested.contains(&c) {
                    buf.push(Action::RequestCreate(c));
                }
            }
        } else {
            buf.push(Action::RequestCommit(self.t, self.commit_value()));
        }
    }

    fn is_enabled(&self, a: &Action) -> bool {
        if !self.created || self.commit_requested {
            return false;
        }
        let open = self.open_wave();
        match *a {
            Action::RequestCreate(c) => {
                open < self.members.len()
                    && self.members[open].contains(&c)
                    && !self.requested.contains(&c)
            }
            Action::RequestCommit(t, v) => {
                t == self.t && open == self.members.len() && v == self.commit_value()
            }
            _ => false,
        }
    }

    fn apply(&mut self, a: &Action) {
        match *a {
            Action::Create(t) if t == self.t => {
                self.created = true;
            }
            Action::ReportCommit(c, v) if self.tree.parent(c) == Some(self.t) => {
                self.reports.insert(c, Some(v));
            }
            Action::ReportAbort(c) if self.tree.parent(c) == Some(self.t) => {
                #[allow(clippy::collapsible_match)]
                if self.reports.insert(c, None).is_none() {
                    // First abort report: activate the fallback, if any.
                    if let Some(&f) = self.program.fallback.get(&c) {
                        if !self.requested.contains(&f) {
                            let wave = self
                                .members
                                .iter()
                                .position(|w| w.contains(&c))
                                .expect("reported child belongs to a wave");
                            if !self.members[wave].contains(&f) {
                                self.members[wave].push(f);
                            }
                        }
                    }
                }
            }
            Action::RequestCreate(c) if self.tree.parent(c) == Some(self.t) => {
                self.requested.insert(c);
            }
            Action::RequestCommit(t, _) if t == self.t => {
                self.commit_requested = true;
            }
            _ => {
                // Foreign or ill-formed input: the paper leaves behaviour
                // after well-formedness violations unconstrained; ignore.
            }
        }
    }

    fn clone_boxed(&self) -> BoxedAutomaton<Action> {
        Box::new(self.clone())
    }
}

/// The paper's actual transaction model: an arbitrary automaton constrained
/// only to *preserve well-formedness* (§3.1). Useful for replaying
/// externally produced schedules — e.g. traces of the `ntx-runtime`
/// manager — where no `TxProgram` describes the behaviour: any output that
/// keeps the transaction's schedule well-formed is accepted as enabled.
///
/// A black box cannot *drive* a system (its enabled outputs are an infinite
/// set — any unrequested child, any commit value — so
/// [`Automaton::enabled_outputs`] yields nothing); it exists for
/// [`ntx_automata::System::replay`].
#[derive(Clone)]
pub struct BlackBoxTx {
    tree: Arc<TxTree>,
    t: TxId,
    created: bool,
    commit_requested: bool,
    requested: BTreeSet<TxId>,
}

impl BlackBoxTx {
    /// A black-box automaton for transaction `t`.
    pub fn new(tree: Arc<TxTree>, t: TxId) -> Self {
        assert!(!tree.is_access(t), "{t} is an access");
        BlackBoxTx {
            tree,
            t,
            created: false,
            commit_requested: false,
            requested: BTreeSet::new(),
        }
    }
}

impl Automaton for BlackBoxTx {
    type Action = Action;

    fn name(&self) -> String {
        format!("blackbox-tx-{}", self.t)
    }

    fn is_operation_of(&self, a: &Action) -> bool {
        a.is_operation_of_tx(self.t, &self.tree)
    }

    fn is_output_of(&self, a: &Action) -> bool {
        match *a {
            Action::RequestCreate(c) => self.tree.parent(c) == Some(self.t),
            Action::RequestCommit(t, _) => t == self.t,
            _ => false,
        }
    }

    fn enabled_outputs(&self, _buf: &mut Vec<Action>) {
        // Intentionally empty: see type docs.
    }

    fn is_enabled(&self, a: &Action) -> bool {
        // Exactly the §3.1 well-formedness constraints on outputs.
        if !self.created || self.commit_requested {
            return false;
        }
        match *a {
            Action::RequestCreate(c) => {
                self.tree.parent(c) == Some(self.t) && !self.requested.contains(&c)
            }
            Action::RequestCommit(t, _) => t == self.t,
            _ => false,
        }
    }

    fn apply(&mut self, a: &Action) {
        match *a {
            Action::Create(t) if t == self.t => self.created = true,
            Action::RequestCreate(c) if self.tree.parent(c) == Some(self.t) => {
                self.requested.insert(c);
            }
            Action::RequestCommit(t, _) if t == self.t => self.commit_requested = true,
            _ => {}
        }
    }

    fn clone_boxed(&self) -> BoxedAutomaton<Action> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellformed::TxWellFormed;
    use ntx_tree::{AccessKind, TxTreeBuilder};

    fn setup() -> (Arc<TxTree>, TxId, TxId, TxId, TxId) {
        let mut b = TxTreeBuilder::new();
        let x = b.object("x");
        let t = b.internal(TxTree::ROOT, "t");
        let c1 = b.access(t, "c1", x, AccessKind::Write, 0, 1);
        let c2 = b.access(t, "c2", x, AccessKind::Write, 0, 2);
        let c3 = b.access(t, "c3", x, AccessKind::Write, 0, 3);
        (Arc::new(b.build()), t, c1, c2, c3)
    }

    fn outputs(a: &TxAutomaton) -> Vec<Action> {
        let mut buf = Vec::new();
        a.enabled_outputs(&mut buf);
        buf
    }

    #[test]
    fn nothing_enabled_before_create() {
        let (tree, t, c1, ..) = setup();
        let a = TxAutomaton::new(tree, t, TxProgram::all_at_once(vec![c1]));
        assert!(outputs(&a).is_empty());
        assert!(!a.is_enabled(&Action::RequestCreate(c1)));
    }

    #[test]
    fn all_at_once_wave() {
        let (tree, t, c1, c2, _) = setup();
        let mut a = TxAutomaton::new(tree, t, TxProgram::all_at_once(vec![c1, c2]));
        a.apply(&Action::Create(t));
        let en = outputs(&a);
        assert_eq!(
            en,
            vec![Action::RequestCreate(c1), Action::RequestCreate(c2)]
        );
        a.apply(&Action::RequestCreate(c1));
        assert_eq!(outputs(&a), vec![Action::RequestCreate(c2)]);
        a.apply(&Action::RequestCreate(c2));
        assert!(outputs(&a).is_empty(), "waiting for reports");
        a.apply(&Action::ReportCommit(c1, Value(5)));
        a.apply(&Action::ReportCommit(c2, Value(7)));
        assert_eq!(outputs(&a), vec![Action::RequestCommit(t, Value(12))]);
    }

    #[test]
    fn sequential_waves_wait_for_reports() {
        let (tree, t, c1, c2, _) = setup();
        let mut a = TxAutomaton::new(tree, t, TxProgram::sequential(vec![c1, c2]));
        a.apply(&Action::Create(t));
        assert_eq!(outputs(&a), vec![Action::RequestCreate(c1)]);
        a.apply(&Action::RequestCreate(c1));
        assert!(outputs(&a).is_empty());
        a.apply(&Action::ReportAbort(c1));
        assert_eq!(outputs(&a), vec![Action::RequestCreate(c2)]);
        a.apply(&Action::RequestCreate(c2));
        a.apply(&Action::ReportCommit(c2, Value(4)));
        // Aborted child contributes nothing to the sum.
        assert_eq!(outputs(&a), vec![Action::RequestCommit(t, Value(4))]);
    }

    #[test]
    fn fallback_child_joins_wave_on_abort() {
        let (tree, t, c1, c2, _) = setup();
        let prog = TxProgram::all_at_once(vec![c1]).with_fallback(c1, c2);
        let mut a = TxAutomaton::new(tree, t, prog);
        a.apply(&Action::Create(t));
        a.apply(&Action::RequestCreate(c1));
        a.apply(&Action::ReportAbort(c1));
        assert_eq!(outputs(&a), vec![Action::RequestCreate(c2)]);
        a.apply(&Action::RequestCreate(c2));
        a.apply(&Action::ReportCommit(c2, Value(2)));
        assert_eq!(outputs(&a), vec![Action::RequestCommit(t, Value(2))]);
    }

    #[test]
    fn fallback_not_activated_on_commit() {
        let (tree, t, c1, c2, _) = setup();
        let prog = TxProgram::all_at_once(vec![c1]).with_fallback(c1, c2);
        let mut a = TxAutomaton::new(tree, t, prog);
        a.apply(&Action::Create(t));
        a.apply(&Action::RequestCreate(c1));
        a.apply(&Action::ReportCommit(c1, Value(1)));
        assert_eq!(outputs(&a), vec![Action::RequestCommit(t, Value(1))]);
    }

    #[test]
    fn no_outputs_after_commit_request() {
        let (tree, t, ..) = setup();
        let mut a = TxAutomaton::new(tree, t, TxProgram::constant(9));
        a.apply(&Action::Create(t));
        assert_eq!(outputs(&a), vec![Action::RequestCommit(t, Value(9))]);
        a.apply(&Action::RequestCommit(t, Value(9)));
        assert!(outputs(&a).is_empty());
    }

    #[test]
    fn aggregates() {
        let mut reports = BTreeMap::new();
        reports.insert(TxId::from_index(1), Some(Value(3)));
        reports.insert(TxId::from_index(2), None);
        reports.insert(TxId::from_index(3), Some(Value(4)));
        assert_eq!(Aggregate::Sum.fold(&reports), Value(7));
        assert_eq!(Aggregate::CountCommits.fold(&reports), Value(2));
        assert_eq!(Aggregate::Const(-1).fold(&reports), Value(-1));
        // Mix distinguishes which child committed which value.
        let mut other = BTreeMap::new();
        other.insert(TxId::from_index(1), Some(Value(4)));
        other.insert(TxId::from_index(2), None);
        other.insert(TxId::from_index(3), Some(Value(3)));
        assert_ne!(Aggregate::Mix.fold(&reports), Aggregate::Mix.fold(&other));
    }

    #[test]
    fn is_enabled_agrees_with_enumeration() {
        let (tree, t, c1, c2, c3) = setup();
        let mut a = TxAutomaton::new(
            tree.clone(),
            t,
            TxProgram {
                waves: vec![vec![c1, c2], vec![c3]],
                fallback: BTreeMap::new(),
                aggregate: Aggregate::Sum,
            },
        );
        let drive = [
            Action::Create(t),
            Action::RequestCreate(c2),
            Action::ReportCommit(c2, Value(1)),
            Action::RequestCreate(c1),
            Action::ReportAbort(c1),
            Action::RequestCreate(c3),
            Action::ReportCommit(c3, Value(10)),
            Action::RequestCommit(t, Value(11)),
        ];
        for ev in drive {
            let en = outputs(&a);
            for candidate in [
                Action::RequestCreate(c1),
                Action::RequestCreate(c2),
                Action::RequestCreate(c3),
                Action::RequestCommit(t, Value(11)),
            ] {
                assert_eq!(
                    en.contains(&candidate),
                    a.is_enabled(&candidate),
                    "at {ev:?}"
                );
            }
            a.apply(&ev);
        }
    }

    #[test]
    fn program_preserves_well_formedness_under_random_drive() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (tree, t, c1, c2, c3) = setup();
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let prog = TxProgram {
                waves: vec![vec![c1, c2], vec![c3]],
                fallback: BTreeMap::new(),
                aggregate: Aggregate::Mix,
            };
            let mut a = TxAutomaton::new(tree.clone(), t, prog);
            let mut wf = TxWellFormed::new(t);
            wf.check(&Action::Create(t), &tree).unwrap();
            a.apply(&Action::Create(t));
            // Alternate randomly: fire an enabled output, or report a
            // requested-but-unreported child.
            for _ in 0..20 {
                let en = outputs(&a);
                let unreported: Vec<TxId> = a
                    .requested
                    .iter()
                    .copied()
                    .filter(|c| !a.reports.contains_key(c))
                    .collect();
                if !en.is_empty() && (unreported.is_empty() || rng.gen_bool(0.5)) {
                    let pick = en[rng.gen_range(0..en.len())];
                    wf.check(&pick, &tree).unwrap();
                    a.apply(&pick);
                } else if !unreported.is_empty() {
                    let c = unreported[rng.gen_range(0..unreported.len())];
                    let ev = if rng.gen_bool(0.5) {
                        Action::ReportCommit(c, Value(rng.gen_range(0..5)))
                    } else {
                        Action::ReportAbort(c)
                    };
                    wf.check(&ev, &tree).unwrap();
                    a.apply(&ev);
                }
            }
        }
    }
}
