//! The serializer: an executable rendering of the proof of Lemma 33.
//!
//! Lemma 33 is the paper's main technical result: for every concurrent
//! schedule `α` and every non-orphan transaction `T`, there is a *serial*
//! schedule `β` write-equivalent to `visible(α, T)` — and its proof shows
//! how to **construct** `β`, event by event, from witnesses for shorter
//! prefixes. This module maintains exactly that construction online:
//!
//! * a witness `β_T` is kept for every created, non-orphan transaction
//!   (plus `T₀`), represented as a list of indices into `α` — every witness
//!   event *is* an occurrence in `α`, so sequences are permutations by
//!   construction;
//! * each absorbed event `π` updates the affected witnesses following the
//!   proof's case analysis:
//!   1./2. outputs of transactions/objects and 6./7. reports append to the
//!   witnesses of every `T` that `transaction(π)` is visible to;
//!   3. `CREATE(T')` starts `β_{T'} = β_{parent(T')} · π`;
//!   4. `COMMIT(T')` appends for descendants of `T'`, and for the other
//!   descendants `T` of `T'' = parent(T')` splices
//!   `β_T ← γ · (β_{T'} − γ) · π · (β_T − γ)` with `γ = β_{T''}`;
//!   5. `ABORT(T')` splices `β_T ← γ · π · (β_T − γ)` and drops the
//!   witnesses of `T'`'s subtree (now orphans);
//!   `INFORM` events change no visibility and no witness.
//!
//! The witnesses are *claims*; [`crate::correctness`] verifies them (serial
//! replay + write-equivalence), which is how Theorem 34 is machine-checked
//! on every generated schedule. A deliberately broken lock object (ablation
//! A1) produces witnesses that fail verification — the checker is not
//! vacuous.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use ntx_tree::{TxId, TxTree};

use crate::action::Action;
use crate::visibility::Fates;

/// Online witness constructor for Lemma 33.
#[derive(Clone)]
pub struct Serializer {
    tree: Arc<TxTree>,
    events: Vec<Action>,
    fates: Fates,
    /// Witness `β_T` per tracked transaction, as indices into `events`.
    witnesses: BTreeMap<TxId, Vec<u32>>,
}

impl Serializer {
    /// Start serializing a schedule of the given system type.
    pub fn new(tree: Arc<TxTree>) -> Self {
        let mut witnesses = BTreeMap::new();
        witnesses.insert(TxTree::ROOT, Vec::new());
        Serializer {
            tree,
            events: Vec::new(),
            fates: Fates::new(),
            witnesses,
        }
    }

    /// The events absorbed so far (the concurrent schedule `α`).
    pub fn events(&self) -> &[Action] {
        &self.events
    }

    /// The transactions currently holding witnesses: created non-orphans
    /// plus `T₀`.
    pub fn tracked(&self) -> impl Iterator<Item = TxId> + '_ {
        self.witnesses.keys().copied()
    }

    /// The serial witness for `t`, as actions. `None` if `t` is untracked
    /// (never created, or an orphan).
    pub fn witness(&self, t: TxId) -> Option<Vec<Action>> {
        self.witnesses
            .get(&t)
            .map(|idxs| idxs.iter().map(|&i| self.events[i as usize]).collect())
    }

    /// The serial witness for `t` as indices into [`Serializer::events`].
    pub fn witness_indices(&self, t: TxId) -> Option<&[u32]> {
        self.witnesses.get(&t).map(|v| v.as_slice())
    }

    /// Absorb the next event of the concurrent schedule, updating the
    /// affected witnesses per the Lemma 33 case analysis.
    pub fn absorb(&mut self, a: Action) {
        let idx = self.events.len() as u32;
        self.events.push(a);
        self.fates.absorb(&a);

        // INFORM events are invisible to transactions: no witness changes.
        let Some(u) = a.transaction(&self.tree) else {
            return;
        };

        match a {
            Action::Create(t) => {
                // Case 3: π is the very first event of t's subtree; only
                // β_t changes. Orphans are not tracked.
                if self.fates.is_orphan(t, &self.tree) {
                    return;
                }
                let mut w = match self.tree.parent(t) {
                    None => self.witnesses[&TxTree::ROOT].clone(), // CREATE(T0)
                    Some(p) => self
                        .witnesses
                        .get(&p)
                        .unwrap_or_else(|| {
                            panic!("CREATE({t}) but parent {p} untracked — ill-formed input")
                        })
                        .clone(),
                };
                w.push(idx);
                self.witnesses.insert(t, w);
            }
            Action::Commit(tp) => {
                // Case 4. transaction(π) = T'' = parent(T'); every affected
                // T is a descendant of T'' (scheduler preconditions
                // guarantee T'' has not itself returned yet).
                let tpp = self.tree.parent(tp).expect("COMMIT(T0) never occurs");
                let Some(gamma) = self.witnesses.get(&tpp).cloned() else {
                    return; // T'' orphan: all affected T are orphans too.
                };
                let gamma_set: HashSet<u32> = gamma.iter().copied().collect();
                let beta_tp = self.witnesses.get(&tp).cloned().unwrap_or_default();
                let beta1: Vec<u32> = beta_tp
                    .iter()
                    .copied()
                    .filter(|i| !gamma_set.contains(i))
                    .collect();

                let affected: Vec<TxId> = self
                    .witnesses
                    .keys()
                    .copied()
                    .filter(|&t| self.fates.is_visible_to(tpp, t, &self.tree))
                    .collect();
                for t in affected {
                    debug_assert!(
                        self.tree.is_ancestor(tpp, t),
                        "COMMIT affects only descendants of the parent"
                    );
                    let w = self.witnesses.get_mut(&t).expect("affected are tracked");
                    if self.tree.is_ancestor(tp, t) {
                        // T a descendant of T' (including T'): append.
                        w.push(idx);
                    } else {
                        // Splice: γ · β₁ · π · β₂.
                        let beta2: Vec<u32> = w
                            .iter()
                            .copied()
                            .filter(|i| !gamma_set.contains(i))
                            .collect();
                        let mut next =
                            Vec::with_capacity(gamma.len() + beta1.len() + 1 + beta2.len());
                        next.extend_from_slice(&gamma);
                        next.extend_from_slice(&beta1);
                        next.push(idx);
                        next.extend_from_slice(&beta2);
                        *w = next;
                    }
                }
            }
            Action::Abort(tp) => {
                // Case 5: splice γ · π · (β_T − γ) for the non-orphan
                // descendants T of T'' = parent(T'); drop T'-subtree
                // witnesses (they are orphans now).
                let tpp = self.tree.parent(tp).expect("ABORT(T0) never occurs");
                let gamma_opt = self.witnesses.get(&tpp).cloned();
                if let Some(gamma) = gamma_opt {
                    let gamma_set: HashSet<u32> = gamma.iter().copied().collect();
                    let affected: Vec<TxId> = self
                        .witnesses
                        .keys()
                        .copied()
                        .filter(|&t| {
                            !self.tree.is_ancestor(tp, t)
                                && self.fates.is_visible_to(tpp, t, &self.tree)
                        })
                        .collect();
                    for t in affected {
                        debug_assert!(self.tree.is_ancestor(tpp, t));
                        let w = self.witnesses.get_mut(&t).expect("affected are tracked");
                        let beta1: Vec<u32> = w
                            .iter()
                            .copied()
                            .filter(|i| !gamma_set.contains(i))
                            .collect();
                        let mut next = Vec::with_capacity(gamma.len() + 1 + beta1.len());
                        next.extend_from_slice(&gamma);
                        next.push(idx);
                        next.extend_from_slice(&beta1);
                        *w = next;
                    }
                }
                // Remove the new orphans.
                let doomed: Vec<TxId> = self
                    .witnesses
                    .keys()
                    .copied()
                    .filter(|&t| self.tree.is_ancestor(tp, t))
                    .collect();
                for t in doomed {
                    self.witnesses.remove(&t);
                }
            }
            _ => {
                // Cases 1, 2, 6, 7: append to the witness of every tracked
                // T that transaction(π) is visible to.
                let affected: Vec<TxId> = self
                    .witnesses
                    .keys()
                    .copied()
                    .filter(|&t| self.fates.is_visible_to(u, t, &self.tree))
                    .collect();
                for t in affected {
                    self.witnesses.get_mut(&t).expect("tracked").push(idx);
                }
            }
        }
    }

    /// Absorb a whole schedule.
    pub fn absorb_all(&mut self, events: &[Action]) {
        for a in events {
            self.absorb(*a);
        }
    }

    /// Fate information for the absorbed schedule.
    pub fn fates(&self) -> &Fates {
        &self.fates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Value;
    use crate::visibility::visible;
    use ntx_tree::TxTreeBuilder;

    /// T0 ── p ── a (write), q ── b (write), same object.
    fn fix() -> (Arc<TxTree>, TxId, TxId, TxId, TxId) {
        let mut b = TxTreeBuilder::new();
        let x = b.object("x");
        let p = b.internal(TxTree::ROOT, "p");
        let a = b.write(p, "a", x, 1);
        let q = b.internal(TxTree::ROOT, "q");
        let bb = b.write(q, "b", x, 2);
        (Arc::new(b.build()), p, a, q, bb)
    }

    #[test]
    fn create_starts_witness_from_parent() {
        let (tree, p, ..) = fix();
        let mut s = Serializer::new(tree);
        s.absorb(Action::Create(TxTree::ROOT));
        s.absorb(Action::RequestCreate(p));
        s.absorb(Action::Create(p));
        assert_eq!(
            s.witness(p).unwrap(),
            vec![
                Action::Create(TxTree::ROOT),
                Action::RequestCreate(p),
                Action::Create(p)
            ]
        );
    }

    #[test]
    fn child_work_invisible_until_commit() {
        let (tree, p, a, ..) = fix();
        let mut s = Serializer::new(tree.clone());
        for ev in [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(p),
            Action::Create(p),
            Action::RequestCreate(a),
            Action::Create(a),
            Action::RequestCommit(a, Value(1)),
        ] {
            s.absorb(ev);
        }
        // a's CREATE and REQUEST_COMMIT are not yet in p's witness.
        let wp = s.witness(p).unwrap();
        assert!(!wp.contains(&Action::Create(a)));
        assert!(!wp.contains(&Action::RequestCommit(a, Value(1))));
        // They are in a's own witness.
        let wa = s.witness(a).unwrap();
        assert!(wa.contains(&Action::RequestCommit(a, Value(1))));
        // After COMMIT(a) the splice pulls them into p's witness.
        s.absorb(Action::Commit(a));
        let wp = s.witness(p).unwrap();
        assert!(wp.contains(&Action::Create(a)));
        assert!(wp.contains(&Action::RequestCommit(a, Value(1))));
        assert!(wp.contains(&Action::Commit(a)));
    }

    #[test]
    fn abort_drops_subtree_witnesses_and_records_abort() {
        let (tree, p, a, ..) = fix();
        let mut s = Serializer::new(tree.clone());
        for ev in [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(p),
            Action::Create(p),
            Action::RequestCreate(a),
            Action::Create(a),
            Action::Abort(a),
        ] {
            s.absorb(ev);
        }
        assert!(s.witness(a).is_none(), "a is an orphan");
        let wp = s.witness(p).unwrap();
        assert!(wp.contains(&Action::Abort(a)));
        assert!(
            !wp.contains(&Action::Create(a)),
            "orphan work stays invisible"
        );
        // The ABORT lands at the end of the current witness.
        let pos_abort = wp.iter().position(|e| *e == Action::Abort(a)).unwrap();
        assert_eq!(pos_abort, wp.len() - 1);
    }

    #[test]
    fn witness_events_subset_of_visible() {
        let (tree, p, a, q, bb) = fix();
        let mut s = Serializer::new(tree.clone());
        let sched = [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(p),
            Action::RequestCreate(q),
            Action::Create(p),
            Action::Create(q),
            Action::RequestCreate(a),
            Action::Create(a),
            Action::RequestCommit(a, Value(1)),
            Action::Commit(a),
            Action::ReportCommit(a, Value(1)),
            Action::RequestCommit(p, Value(1)),
            Action::Commit(p),
            Action::RequestCreate(bb),
            Action::Create(bb),
            Action::RequestCommit(bb, Value(2)),
        ];
        s.absorb_all(&sched);
        for t in [TxTree::ROOT, p, q, a, bb] {
            let Some(w) = s.witness(t) else { continue };
            let mut vis = visible(s.events(), &tree, t);
            let mut ws = w.clone();
            vis.sort_by_key(|e| format!("{e:?}"));
            ws.sort_by_key(|e| format!("{e:?}"));
            assert_eq!(ws, vis, "witness of {t} is a permutation of visible(α,{t})");
        }
    }

    #[test]
    fn orphan_create_not_tracked() {
        let (tree, p, a, ..) = fix();
        let mut s = Serializer::new(tree.clone());
        for ev in [
            Action::Create(TxTree::ROOT),
            Action::RequestCreate(p),
            Action::Create(p),
            Action::RequestCreate(a),
            Action::Abort(p),
            // Orphan activity: a is created although p aborted.
            Action::Create(a),
        ] {
            s.absorb(ev);
        }
        assert!(s.witness(p).is_none());
        assert!(s.witness(a).is_none());
        // Root still tracked and saw the abort.
        let w0 = s.witness(TxTree::ROOT).unwrap();
        assert!(w0.contains(&Action::Abort(p)));
    }

    #[test]
    fn inform_events_do_not_touch_witnesses() {
        let (tree, p, ..) = fix();
        let x = ntx_tree::ObjectId::from_index(0);
        let mut s = Serializer::new(tree);
        s.absorb(Action::Create(TxTree::ROOT));
        let before = s.witness(TxTree::ROOT).unwrap();
        s.absorb(Action::InformAbort(x, p));
        assert_eq!(s.witness(TxTree::ROOT).unwrap(), before);
        assert_eq!(s.events().len(), 2);
    }
}
