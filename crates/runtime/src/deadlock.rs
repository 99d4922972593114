//! The wait-for graph and the one deadlock rule, die on cycle.
//!
//! The paper leaves deadlocks to the scheduler ("the scheduler must have
//! some power to decide to abort transactions, as when it detects
//! deadlocks"). When a wait-for edge closes a cycle, the youngest
//! top-level transaction on it ([`pick_victim`]) dies.
//!
//! The graph is the set of queued waiter nodes, grouped by top-level
//! transaction: a node is in it exactly while it is in a queue, and its
//! edges follow from its place there, changing only where the queue does
//! (enqueue, leave, head change — `manager.rs`, DESIGN.md §9.3). A top's
//! out-edges are its waiters' edges, counted, so no waiter overwrites or
//! clears a sibling's. A search runs only when some edge points at the
//! searching top, since a cycle through it needs one. One mutex, taken
//! after a slot mutex and never before: this module touches no slot.

use std::collections::hash_map::{Entry, HashMap};

use crate::node::TxNode;
use crate::object::Waiter;
use crate::sync::{Arc, Mutex};

/// One top-level transaction's place in the graph.
#[derive(Default)]
struct Top {
    /// Its queued waiter nodes.
    waiters: Vec<Arc<Waiter>>,
    /// Its out-edges: target top, and how many of `waiters`' edges point
    /// there.
    out: Vec<(u64, usize)>,
    /// Edges of other tops' waiters that point here.
    into: usize,
}

type Tops = HashMap<u64, Top>;

/// The wait-for graph over top-level transactions (see the module docs).
#[derive(Default)]
pub(crate) struct WaitForGraph {
    tops: Mutex<Tops>,
}

/// A cycle a search found.
pub(crate) struct Cycle {
    /// The tops on it, sorted.
    pub members: Vec<u64>,
    /// The youngest member's top-level node.
    pub victim: Arc<TxNode>,
}

/// Youngest-victim policy: among the members of a deadlock cycle, the
/// transaction begun most recently — the largest top-level id — dies, on
/// the heuristic that it has done the least work worth saving.
pub(crate) fn pick_victim(cycle: &[u64]) -> u64 {
    cycle
        .iter()
        .copied()
        .max()
        .expect("deadlock cycle cannot be empty")
}

/// Move one edge of `top` per target from `old` to `new`.
fn retarget(tops: &mut Tops, top: u64, old: &[u64], new: &[u64]) {
    for &t in old {
        let out = &mut tops.get_mut(&top).expect("edge source is queued").out;
        let i = out
            .iter()
            .position(|e| e.0 == t)
            .expect("a removed edge was added");
        out[i].1 -= 1;
        if out[i].1 == 0 {
            out.swap_remove(i);
        }
        let target = tops.get_mut(&t).expect("an edge target is in the graph");
        target.into -= 1;
        if target.into == 0 && target.waiters.is_empty() {
            tops.remove(&t);
        }
    }
    for &t in new {
        tops.entry(t).or_default().into += 1;
        let out = &mut tops.get_mut(&top).expect("edge source is queued").out;
        match out.iter_mut().find(|e| e.0 == t) {
            Some(e) => e.1 += 1,
            None => out.push((t, 1)),
        }
    }
}

/// A cycle through `from`, if any: a walk that remembers where it entered
/// each top, stopped by the first edge back to `from`.
fn cycle_through(tops: &Tops, from: u64) -> Option<Cycle> {
    if tops.get(&from).is_none_or(|t| t.into == 0) {
        return None;
    }
    let mut entered_from: HashMap<u64, u64> = HashMap::new();
    let mut stack = vec![from];
    while let Some(at) = stack.pop() {
        for &(next, _) in tops.get(&at).map_or(&[][..], |t| &t.out) {
            if next == from {
                let mut members = vec![at];
                let mut cur = at;
                while cur != from {
                    cur = entered_from[&cur];
                    members.push(cur);
                }
                members.sort_unstable();
                let victim = tops[&pick_victim(&members)].waiters[0].node.top();
                return Some(Cycle { members, victim });
            }
            if let Entry::Vacant(e) = entered_from.entry(next) {
                e.insert(at);
                stack.push(next);
            }
        }
    }
    None
}

impl WaitForGraph {
    /// `w` joined a queue with out-edges `edges`: add it, then search for a
    /// cycle through its top. A cycle whose victim is `w`'s own top takes
    /// `w` back out before the lock drops — the requester dies without
    /// ever waiting, so no other search can find the same cycle — and the
    /// caller must take it off its queue's tail.
    pub fn enter(&self, w: &Arc<Waiter>, edges: &[u64]) -> Option<Cycle> {
        let top = w.node.top_level_id();
        let mut tops = self.tops.lock();
        tops.entry(top).or_default().waiters.push(w.clone());
        retarget(&mut tops, top, &[], edges);
        let cycle = if edges.is_empty() {
            None
        } else {
            cycle_through(&tops, top)
        };
        if cycle.as_ref().is_some_and(|c| c.victim.id == top) {
            remove(&mut tops, w, edges);
        }
        cycle
    }

    /// `w` left its queue with out-edges `edges`. `next` is its successor's
    /// edge change, `(top, old, new)`: from the leaver's top to the
    /// leaver's predecessor's (`None` where the two share a top, or there
    /// is no predecessor). No search: the successor's reach is a subset of
    /// what it was.
    pub fn leave(
        &self,
        w: &Arc<Waiter>,
        edges: &[u64],
        next: Option<(u64, Option<u64>, Option<u64>)>,
    ) {
        let mut tops = self.tops.lock();
        remove(&mut tops, w, edges);
        if let Some((top, old, new)) = next {
            retarget(&mut tops, top, old.as_slice(), new.as_slice());
        }
    }

    /// The queue head of top `top` changed holder edges from `old` to
    /// `new`. Returns whether `new` adds a target: then a cycle through
    /// `top` may have closed, and the caller searches.
    pub fn rewrite(&self, top: u64, old: &[u64], new: &[u64]) -> bool {
        retarget(&mut self.tops.lock(), top, old, new);
        !new.iter().all(|t| old.contains(t))
    }

    /// A cycle through `top`, if any.
    pub fn search(&self, top: u64) -> Option<Cycle> {
        cycle_through(&self.tops.lock(), top)
    }
}

/// Take `w` and its `edges` out of the graph.
fn remove(tops: &mut Tops, w: &Arc<Waiter>, edges: &[u64]) {
    let top = w.node.top_level_id();
    retarget(tops, top, edges, &[]);
    let entry = tops.get_mut(&top).expect("a queued waiter is in the graph");
    let i = entry
        .waiters
        .iter()
        .position(|x| Arc::ptr_eq(x, w))
        .expect("a queued waiter is in the graph");
    entry.waiters.swap_remove(i);
    if entry.waiters.is_empty() && entry.into == 0 {
        tops.remove(&top);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Test accessors (the manager's tests and the loom models use them).
    impl WaitForGraph {
        /// Queued waiter nodes in the graph (at quiescence: zero).
        pub(crate) fn len(&self) -> usize {
            self.tops.lock().values().map(|t| t.waiters.len()).sum()
        }

        /// Whether `w` is in the graph.
        pub(crate) fn contains(&self, w: &Arc<Waiter>) -> bool {
            self.tops
                .lock()
                .get(&w.node.top_level_id())
                .is_some_and(|t| t.waiters.iter().any(|x| Arc::ptr_eq(x, w)))
        }

        /// `top`'s out-edges with their counts, sorted.
        pub(crate) fn out_edges(&self, top: u64) -> Vec<(u64, usize)> {
            let mut out = self
                .tops
                .lock()
                .get(&top)
                .map_or_else(Vec::new, |t| t.out.clone());
            out.sort_unstable();
            out
        }
    }

    /// A queued request of a fresh top-level transaction `top`.
    fn waiter(top: u64) -> Arc<Waiter> {
        child_waiter(&TxNode::top_level(top))
    }

    /// A queued request of `tx`.
    fn child_waiter(tx: &Arc<TxNode>) -> Arc<Waiter> {
        let now = Instant::now();
        Waiter::new(
            tx.clone(),
            true,
            now,
            now + Duration::from_secs(3600),
            std::task::Waker::noop().clone(),
        )
    }

    fn members(c: Option<Cycle>) -> Vec<u64> {
        c.expect("a cycle").members
    }

    #[test]
    fn no_cycle_on_simple_wait() {
        let g = WaitForGraph::default();
        let w = waiter(1);
        assert!(g.enter(&w, &[2]).is_none());
        assert_eq!(g.len(), 1);
        g.leave(&w, &[2], None);
        assert_eq!(g.len(), 0);
        assert!(g.tops.lock().is_empty(), "no entry outlives its waiters");
    }

    #[test]
    fn two_party_cycle_detected_with_members() {
        let g = WaitForGraph::default();
        let (w1, w2) = (waiter(1), waiter(2));
        assert!(g.enter(&w1, &[2]).is_none());
        let cycle = g.enter(&w2, &[1]).expect("2 waits for 1 waits for 2");
        assert_eq!(cycle.members, vec![1, 2]);
        assert_eq!(cycle.victim.id, 2);
        // The requester was the victim: it never joined the graph.
        assert_eq!(g.len(), 1);
        assert!(!g.contains(&w2));
    }

    #[test]
    fn three_party_cycle_detected_with_members() {
        let g = WaitForGraph::default();
        assert!(g.enter(&waiter(1), &[2]).is_none());
        assert!(g.enter(&waiter(2), &[3]).is_none());
        assert_eq!(members(g.enter(&waiter(3), &[1])), vec![1, 2, 3]);
    }

    #[test]
    fn cycle_detected_across_stripes() {
        // The ids once landed on distinct stripes of a striped edge map,
        // two of them (4 and 20) on the same one; the graph is one map now
        // and the five-cycle must still be found whole.
        let g = WaitForGraph::default();
        assert!(g.enter(&waiter(1), &[2]).is_none());
        assert!(g.enter(&waiter(2), &[3]).is_none());
        assert!(g.enter(&waiter(3), &[20]).is_none());
        assert!(g.enter(&waiter(20), &[4]).is_none());
        assert_eq!(members(g.enter(&waiter(4), &[1])), vec![1, 2, 3, 4, 20]);
    }

    #[test]
    fn self_deadlock_is_a_singleton_cycle() {
        // The manager never adds an edge to a waiter's own top, but the
        // graph itself must handle one (a cycle of length 1).
        let g = WaitForGraph::default();
        let cycle = g.enter(&waiter(7), &[7]).expect("self-wait is a cycle");
        assert_eq!(cycle.members, vec![7]);
        assert_eq!(pick_victim(&cycle.members), 7);
        assert!(g.tops.lock().is_empty(), "the victim took its edge along");
    }

    #[test]
    fn cycle_excludes_bystanders() {
        // 9 waits into the cycle but is not on it; 4 is waited on by a
        // cycle member but waits on nobody.
        let g = WaitForGraph::default();
        assert!(g.enter(&waiter(1), &[2]).is_none());
        assert!(g.enter(&waiter(2), &[3, 4]).is_none());
        assert!(g.enter(&waiter(9), &[1]).is_none());
        let cycle = members(g.enter(&waiter(3), &[1]));
        assert_eq!(cycle, vec![1, 2, 3], "4 and 9 are not cycle members");
    }

    #[test]
    fn youngest_victim_policy_picks_largest_id() {
        assert_eq!(pick_victim(&[3, 1, 2]), 3);
        assert_eq!(pick_victim(&[10]), 10);
        // Ids are begin-ordered, so the largest is the youngest; a victim
        // other than the requester is reported with its node, and the
        // requester stays in the graph.
        let g = WaitForGraph::default();
        assert!(g.enter(&waiter(5), &[11]).is_none());
        assert!(g.enter(&waiter(11), &[2]).is_none());
        let w2 = waiter(2);
        let cycle = g.enter(&w2, &[5]).expect("2→5→11→2");
        assert_eq!(cycle.victim.id, 11, "youngest of {{2,5,11}}");
        assert!(g.contains(&w2));
    }

    #[test]
    fn diamond_without_cycle() {
        let g = WaitForGraph::default();
        assert!(g.enter(&waiter(1), &[2, 3]).is_none());
        assert!(g.enter(&waiter(2), &[4]).is_none());
        assert!(g.enter(&waiter(3), &[4]).is_none());
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn rewrite_replaces_without_detection() {
        let g = WaitForGraph::default();
        let w1 = waiter(1);
        assert!(g.enter(&w1, &[2, 3]).is_none());
        // Shrink 1's wait set to {3}: nothing to search, and 2→1 can no
        // longer close a cycle through 2.
        assert!(!g.rewrite(1, &[2, 3], &[3]));
        assert!(
            g.enter(&waiter(2), &[1]).is_none(),
            "1 no longer waits on 2"
        );
        assert_eq!(members(g.enter(&waiter(3), &[1])), vec![1, 3]);
    }

    #[test]
    fn edges_replaced_not_accumulated() {
        let g = WaitForGraph::default();
        assert!(g.enter(&waiter(1), &[2]).is_none());
        // 1's head now waits only on 3; the old edge to 2 must be gone.
        assert!(g.rewrite(1, &[2], &[3]), "3 is a new target");
        assert!(
            g.enter(&waiter(2), &[1]).is_none(),
            "no cycle: 1 no longer waits on 2"
        );
        assert_eq!(g.out_edges(1), vec![(3, 1)]);
    }

    #[test]
    fn a_grown_rewrite_asks_for_the_search() {
        let g = WaitForGraph::default();
        assert!(g.enter(&waiter(2), &[1]).is_none());
        assert!(g.enter(&waiter(1), &[]).is_none());
        // 1's head gains a holder edge to 2: the cycle closes here.
        assert!(g.rewrite(1, &[], &[2]));
        let cycle = g.search(1).expect("1→2→1");
        assert_eq!((cycle.members, cycle.victim.id), (vec![1, 2], 2));
    }

    #[test]
    fn siblings_keep_their_own_edges() {
        // Two waiting children of top 1: one waits on 2, one on 3. Neither
        // may overwrite the other's edge, and one leaving must not clear
        // the other's.
        let top = TxNode::top_level(1);
        let (a1, a2) = (TxNode::child_of(&top, 10), TxNode::child_of(&top, 11));
        let (w1, w2) = (child_waiter(&a1), child_waiter(&a2));
        let g = WaitForGraph::default();
        assert!(g.enter(&w1, &[2]).is_none());
        assert!(g.enter(&w2, &[3]).is_none());
        assert_eq!(g.out_edges(1), vec![(2, 1), (3, 1)]);
        assert_eq!(members(g.enter(&waiter(3), &[1])), vec![1, 3]);
        g.leave(&w2, &[3], None);
        assert_eq!(g.out_edges(1), vec![(2, 1)]);
        assert!(
            g.enter(&waiter(2), &[1]).is_some(),
            "w1's edge survived its sibling's leave"
        );
    }

    #[test]
    fn leave_moves_the_successor_edge() {
        // Queue [w1 (top 1), w2 (top 2), w3 (top 3)]: w3 points at 2. When
        // w2 leaves, w3 points at 1 instead.
        let g = WaitForGraph::default();
        let (w1, w2, w3) = (waiter(1), waiter(2), waiter(3));
        assert!(g.enter(&w1, &[]).is_none());
        assert!(g.enter(&w2, &[1]).is_none());
        assert!(g.enter(&w3, &[2]).is_none());
        g.leave(&w2, &[1], Some((3, Some(2), Some(1))));
        assert_eq!(g.out_edges(3), vec![(1, 1)]);
        assert_eq!(g.len(), 2);
        assert!(!g.tops.lock().contains_key(&2), "nothing left of top 2");
    }

    #[test]
    fn concurrent_publish_and_clear_do_not_lose_edges() {
        let g = std::sync::Arc::new(WaitForGraph::default());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let g = g.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let top = t * 1000 + i;
                        let w = waiter(top);
                        assert!(g.enter(&w, &[top + 1]).is_none());
                        g.leave(&w, &[top + 1], None);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.len(), 0);
        assert!(g.tops.lock().is_empty());
    }
}
