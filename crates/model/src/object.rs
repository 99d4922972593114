//! Basic object automata (§3.2).
//!
//! A basic object `X` is the serial system's data component: one automaton
//! per object (not per access). Its inputs are `CREATE(T)` for accesses `T`
//! to `X` (think: operation invocation) and its outputs are
//! `REQUEST_COMMIT(T, v)` (the response). The implementation follows the
//! example object of §4.3 verbatim: the state is a set of *pending* accesses
//! plus an instance of an abstract data type; an atomic step picks a pending
//! access, applies its function to the instance, and responds.
//!
//! That construction makes the §4.3 semantic conditions hold by design:
//! `CREATE` only touches the pending set (conditions 1 and 2), and a read
//! access must not change the instance (condition 3) — enforced against the
//! [`crate::semantics::ObjectSemantics`] contract with a debug assertion.

use std::collections::BTreeSet;
use std::sync::Arc;

use ntx_automata::{Automaton, BoxedAutomaton};
use ntx_tree::{AccessKind, ObjectId, TxId, TxTree};

use crate::action::{Action, Value};
use crate::semantics::ObjectSemantics;

/// The basic object automaton for one object.
#[derive(Clone)]
pub struct BasicObject<S: ObjectSemantics> {
    tree: Arc<TxTree>,
    x: ObjectId,
    semantics: S,
    // --- state ---
    pending: BTreeSet<TxId>,
    responded: BTreeSet<TxId>,
    data: S::State,
}

impl<S: ObjectSemantics> BasicObject<S> {
    /// Build the automaton for object `x` with the given data-type
    /// semantics.
    pub fn new(tree: Arc<TxTree>, x: ObjectId, semantics: S) -> Self {
        let data = semantics.initial();
        BasicObject {
            tree,
            x,
            semantics,
            pending: BTreeSet::new(),
            responded: BTreeSet::new(),
            data,
        }
    }

    /// The response value the object would give access `t` in the current
    /// state.
    fn response(&self, t: TxId) -> Value {
        let info = self.tree.access(t).expect("pending entries are accesses");
        self.semantics.apply(&self.data, &info).1
    }

    /// Current abstract-data-type instance (used by checkers and tests).
    pub fn data(&self) -> &S::State {
        &self.data
    }
}

impl<S: ObjectSemantics> Automaton for BasicObject<S> {
    type Action = Action;

    fn name(&self) -> String {
        format!("object-{}", self.x)
    }

    fn is_operation_of(&self, a: &Action) -> bool {
        a.is_operation_of_basic_object(self.x, &self.tree)
    }

    fn is_output_of(&self, a: &Action) -> bool {
        matches!(*a, Action::RequestCommit(t, _)
            if self.tree.access(t).is_some_and(|i| i.object == self.x))
    }

    fn enabled_outputs(&self, buf: &mut Vec<Action>) {
        for &t in &self.pending {
            buf.push(Action::RequestCommit(t, self.response(t)));
        }
    }

    fn is_enabled(&self, a: &Action) -> bool {
        match *a {
            Action::RequestCommit(t, v) => self.pending.contains(&t) && v == self.response(t),
            _ => false,
        }
    }

    fn apply(&mut self, a: &Action) {
        match *a {
            Action::Create(t) => {
                // A repeated CREATE violates well-formedness; the paper
                // leaves behaviour unconstrained there. We ignore repeats so
                // an access can never respond twice.
                if !self.responded.contains(&t) {
                    self.pending.insert(t);
                }
            }
            Action::RequestCommit(t, _) => {
                assert!(
                    self.pending.remove(&t),
                    "response for non-pending access {t}"
                );
                self.responded.insert(t);
                let info = self.tree.access(t).expect("accesses only");
                let (next, _) = self.semantics.apply(&self.data, &info);
                debug_assert!(
                    info.kind != AccessKind::Read || next == self.data,
                    "read access {t} changed object {} state",
                    self.x
                );
                self.data = next;
            }
            _ => unreachable!("foreign action {a:?} routed to object {}", self.x),
        }
    }

    fn clone_boxed(&self) -> BoxedAutomaton<Action> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::StdSemantics;
    use ntx_tree::TxTreeBuilder;

    fn setup() -> (Arc<TxTree>, ObjectId, TxId, TxId, TxId) {
        let mut b = TxTreeBuilder::new();
        let x = b.object("x");
        let t = b.internal(TxTree::ROOT, "t");
        let r = b.read(t, "r", x);
        let w1 = b.write(t, "w1", x, 10);
        let w2 = b.write(t, "w2", x, 20);
        (Arc::new(b.build()), x, r, w1, w2)
    }

    fn outputs<S: ObjectSemantics>(o: &BasicObject<S>) -> Vec<Action> {
        let mut buf = Vec::new();
        o.enabled_outputs(&mut buf);
        buf
    }

    #[test]
    fn responds_to_pending_accesses_only() {
        let (tree, x, r, w1, _) = setup();
        let mut o = BasicObject::new(tree, x, StdSemantics::register(0));
        assert!(outputs(&o).is_empty());
        o.apply(&Action::Create(r));
        assert_eq!(outputs(&o), vec![Action::RequestCommit(r, Value(0))]);
        o.apply(&Action::Create(w1));
        assert_eq!(outputs(&o).len(), 2);
        assert!(o.is_enabled(&Action::RequestCommit(w1, Value(10))));
        assert!(!o.is_enabled(&Action::RequestCommit(w1, Value(11))));
    }

    #[test]
    fn response_applies_semantics() {
        let (tree, x, r, w1, w2) = setup();
        let mut o = BasicObject::new(tree, x, StdSemantics::register(0));
        o.apply(&Action::Create(w1));
        o.apply(&Action::RequestCommit(w1, Value(10)));
        o.apply(&Action::Create(r));
        // The read now sees 10.
        assert_eq!(outputs(&o), vec![Action::RequestCommit(r, Value(10))]);
        o.apply(&Action::RequestCommit(r, Value(10)));
        o.apply(&Action::Create(w2));
        o.apply(&Action::RequestCommit(w2, Value(20)));
        assert_eq!(o.data(), &crate::semantics::StdState::Int(20));
    }

    #[test]
    fn duplicate_create_after_response_ignored() {
        let (tree, x, _, w1, _) = setup();
        let mut o = BasicObject::new(tree, x, StdSemantics::register(0));
        o.apply(&Action::Create(w1));
        o.apply(&Action::RequestCommit(w1, Value(10)));
        o.apply(&Action::Create(w1));
        assert!(outputs(&o).is_empty(), "no second response possible");
    }

    #[test]
    fn classification() {
        let (tree, x, r, ..) = setup();
        let o = BasicObject::new(tree.clone(), x, StdSemantics::register(0));
        assert!(o.is_operation_of(&Action::Create(r)));
        assert!(o.is_operation_of(&Action::RequestCommit(r, Value(0))));
        assert!(!o.is_output_of(&Action::Create(r)));
        assert!(o.is_output_of(&Action::RequestCommit(r, Value(0))));
        // Internal-transaction operations are not the object's.
        let t = tree.parent(r).unwrap();
        assert!(!o.is_operation_of(&Action::Create(t)));
        assert!(!o.is_operation_of(&Action::InformCommit(x, t)));
    }

    #[test]
    #[should_panic(expected = "non-pending access")]
    fn response_without_create_panics() {
        let (tree, x, r, ..) = setup();
        let mut o = BasicObject::new(tree, x, StdSemantics::register(0));
        o.apply(&Action::RequestCommit(r, Value(0)));
    }
}
