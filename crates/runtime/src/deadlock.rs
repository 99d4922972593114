//! The wait-for graph and the one deadlock rule, die on cycle.
//!
//! The paper leaves deadlocks to the scheduler ("the scheduler must have
//! some power to decide to abort transactions, as when it detects
//! deadlocks"). When a wait-for edge closes a cycle, the youngest
//! top-level transaction on it ([`pick_victim`]) dies.
//!
//! The graph has no home of its own. Every top-level transaction keeps its
//! place in it, a [`WaitRecord`], inline in its `TxNode`: how many of its
//! requests are queued and their out-edges, counted, behind the record's
//! own mutex, and atomic counts of its queued requests and of the edges
//! that point at it. A queued
//! waiter's edges follow from its place in its queue and change only where
//! the queue does (enqueue, leave, head change — `manager.rs`, DESIGN.md
//! §9.3); each change locks the source top's record and nothing else. A
//! top's out-edges are its waiters' edges, counted, so no waiter overwrites
//! or clears a sibling's. Waiters on disjoint objects share no lock.
//!
//! Three properties, argued where they are kept:
//! - *complete* ([`enter`], [`retarget`], [`search`]): every cycle is found
//!   by some search that runs after it closed;
//! - *sound* ([`claim`]): a victim dies only for edges that coexisted,
//!   checked under all the cycle's record locks at once;
//! - *exactly once* ([`claim`]): a cycle is claimed under those locks, by
//!   one search, and counted once.
//!
//! Lock order: a slot mutex, then records — one at a time, or several in
//! top-id order. This module touches no slot.

use crate::inline::InlineVec;
use crate::node::TxNode;
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, MutexGuard, Weak};

/// One top-level transaction's place in the wait-for graph.
pub(crate) struct WaitRecord {
    edges: Mutex<Edges>,
    /// The top's queued waiter nodes, changed under `edges`' mutex and read
    /// without it: a child's commit rescans its objects only while its top
    /// has one ([`WaitRecord::has_waiters`]).
    waiters: AtomicUsize,
    /// Edges of other tops' waiters that point here.
    into: AtomicUsize,
    /// Bumped under `edges`' mutex by every change, so a search can tell
    /// that a record it read has changed since.
    changes: AtomicU64,
}

/// What a [`WaitRecord`]'s mutex guards.
#[derive(Default)]
struct Edges {
    /// The top's out-edges.
    out: InlineVec<Edge, 2>,
}

/// Edges of one top's waiters to one target top.
#[derive(Default)]
struct Edge {
    to: u64,
    /// The target top. Weak: two records pointing at each other must not
    /// keep a dropped manager's nodes alive.
    node: Weak<TxNode>,
    /// How many of the waiters' edges point there.
    n: usize,
}

impl Edges {
    fn count(&self, to: u64) -> usize {
        self.out.iter().find(|e| e.to == to).map_or(0, |e| e.n)
    }

    fn link(&mut self, to: &Arc<TxNode>) {
        match self.out.iter_mut().find(|e| e.to == to.id) {
            Some(e) => e.n += 1,
            None => self.out.push(Edge {
                to: to.id,
                node: Arc::downgrade(to),
                n: 1,
            }),
        }
    }

    /// Drop one edge to `to` and the target's count of it.
    fn unlink(&mut self, to: u64) {
        let i = self
            .out
            .iter()
            .position(|e| e.to == to)
            .expect("a removed edge was added");
        let e = &mut self.out[i];
        e.n -= 1;
        if let Some(target) = e.node.upgrade() {
            target.wait.into.fetch_sub(1, Ordering::SeqCst);
        }
        if e.n == 0 {
            self.out.swap_remove(i);
        }
    }
}

impl WaitRecord {
    pub(crate) fn new() -> WaitRecord {
        WaitRecord {
            edges: Mutex::new(Edges::default()),
            waiters: AtomicUsize::new(0),
            into: AtomicUsize::new(0),
            changes: AtomicU64::new(0),
        }
    }

    /// Change the record under its mutex, and count the change.
    fn change(&self, f: impl FnOnce(&mut Edges)) {
        let mut edges = self.edges.lock();
        f(&mut edges);
        self.changes.fetch_add(1, Ordering::SeqCst);
    }

    /// Whether a request of this top is queued. A child that commits reads
    /// it after its state changed, and an enqueue bumps it before its
    /// self-scan reads the holders' states (all SeqCst): either the commit
    /// sees the waiter and rescans, or the self-scan sees the commit.
    pub(crate) fn has_waiters(&self) -> bool {
        self.waiters.load(Ordering::SeqCst) > 0
    }

    /// Whether some edge points here: a cycle through this top needs one.
    pub(crate) fn pointed_at(&self) -> bool {
        self.into.load(Ordering::SeqCst) > 0
    }
}

/// A cycle a search found and claimed.
pub(crate) struct Cycle {
    /// The tops on it, sorted.
    pub members: Vec<u64>,
    /// The youngest member's top-level node.
    pub victim: Arc<TxNode>,
    /// The victim is the requester whose enqueue searched, and its new
    /// request is already out of the graph: the caller takes it off its
    /// queue's tail, and nothing else dies. Otherwise the victim is flagged
    /// and the caller aborts it.
    pub requester_out: bool,
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

/// A request of `top` joined a queue with out-edges to the tops `edges`
/// (`node_of` finds each one's node). Add it, then search for a cycle
/// through `top` — unless nothing points at `top`.
///
/// *Complete.* The order is: the own record first, then the targets'
/// `into` (SeqCst), then the own `into` ([`search`]'s first read). Take a
/// cycle whose edges were added by any number of racing enqueues and
/// rewrites, and the adder whose own-`into` read comes last in the SeqCst
/// order: every other adder bumped its targets before its own read, so
/// before this one — the edge into this adder's top among them. So it
/// reads a non-zero `into` and searches, and since every record change
/// precedes its adder's bumps, its search starts after all of them. Of
/// two edges closing a cycle at once, at least one search sees the other.
pub(crate) fn enter<'t>(
    top: &Arc<TxNode>,
    edges: &[u64],
    node_of: impl Fn(u64) -> &'t Arc<TxNode>,
) -> Option<Cycle> {
    top.wait.change(|r| {
        top.wait.waiters.fetch_add(1, Ordering::SeqCst);
        for &t in edges {
            r.link(node_of(t));
        }
    });
    for &t in edges {
        node_of(t).wait.into.fetch_add(1, Ordering::SeqCst);
    }
    if edges.is_empty() {
        return None;
    }
    search(top, Some(edges))
}

/// A request of `top` with out-edges to `edges` left its queue.
pub(crate) fn leave(top: &TxNode, edges: &[u64]) {
    top.wait.change(|r| {
        top.wait.waiters.fetch_sub(1, Ordering::SeqCst);
        for &t in edges {
            r.unlink(t);
        }
    });
}

/// One of `top`'s waiters changed its edges from `old` to `new` (a queue
/// head's holder edges, or the edge a leave ahead of it moved). A target
/// in both keeps its edge and its `into`, which so never drops to zero
/// under a live edge. Returns whether `new` adds a target: then a cycle
/// through `top` may have closed, and the caller searches, in the same
/// order as [`enter`] — the record, the targets' `into`, then the search.
pub(crate) fn retarget<'t>(
    top: &TxNode,
    old: &[u64],
    new: &[u64],
    node_of: impl Fn(u64) -> &'t Arc<TxNode>,
) -> bool {
    let added = |t: &&u64| !old.contains(t);
    top.wait.change(|r| {
        for &t in old.iter().filter(|t| !new.contains(t)) {
            r.unlink(t);
        }
        for &t in new.iter().filter(added) {
            r.link(node_of(t));
        }
    });
    let mut grew = false;
    for &t in new.iter().filter(added) {
        node_of(t).wait.into.fetch_add(1, Ordering::SeqCst);
        grew = true;
    }
    grew
}

/// A cycle through `top`, claimed ([`claim`]). `requester` is the
/// out-edges of the request whose enqueue searches, if one does.
///
/// The walk takes one record lock at a time, so edges may change under
/// it. It remembers each record's change count, and a walk that found
/// nothing reads them again: if none moved, every record it read held
/// those edges at one instant — between its last read and its first
/// re-read — and what a walk from `top` reaches depends on those records
/// only. So the walk saw the graph as it was at that instant, and a cycle
/// through `top` that stands then is found. If a count moved, walk again.
/// A top already flagged as a victim is not walked through: its abort is
/// taking its edges out, and with them every cycle through it.
pub(crate) fn search(top: &Arc<TxNode>, requester: Option<&[u64]>) -> Option<Cycle> {
    loop {
        if !top.wait.pointed_at() || top.deadlock_victim.load(Ordering::SeqCst) {
            return None;
        }
        match walk(top) {
            Walk::Acyclic => return None,
            Walk::Changed => {}
            Walk::Cycle(path) => {
                if let Some(cycle) = claim(top, &path, requester) {
                    return Some(cycle);
                }
            }
        }
    }
}

/// One top a walk reached.
#[derive(Default)]
struct Visit {
    top: u64,
    /// The top the walk entered it from.
    from: u64,
    node: Option<Arc<TxNode>>,
    /// Its record's change count when the walk read it (`None`: skipped).
    seen: Option<u64>,
}

enum Walk {
    Acyclic,
    /// A record changed during the walk: its view is not one instant's.
    Changed,
    /// A cycle through the walk's start, in edge order from it.
    Cycle(Vec<Arc<TxNode>>),
}

/// A breadth-first walk from `top` that stops at the first edge back to it.
fn walk(top: &Arc<TxNode>) -> Walk {
    let mut reached: InlineVec<Visit, 8> = InlineVec::new();
    reached.push(Visit {
        top: top.id,
        from: top.id,
        node: Some(top.clone()),
        seen: None,
    });
    let mut i = 0;
    while i < reached.len() {
        let node = reached[i].node.take().expect("a reached top has its node");
        if i == 0 || !node.deadlock_victim.load(Ordering::SeqCst) {
            let edges = node.wait.edges.lock();
            reached[i].seen = Some(node.wait.changes.load(Ordering::SeqCst));
            for e in edges.out.iter() {
                if e.to == top.id {
                    drop(edges);
                    reached[i].node = Some(node);
                    return Walk::Cycle(path(&reached, i));
                }
                if !reached.iter().any(|v| v.top == e.to) {
                    if let Some(next) = e.node.upgrade() {
                        reached.push(Visit {
                            top: e.to,
                            from: node.id,
                            node: Some(next),
                            seen: None,
                        });
                    }
                }
            }
        }
        reached[i].node = Some(node);
        i += 1;
    }
    let unchanged = reached.iter().all(|v| match (v.seen, &v.node) {
        (Some(seen), Some(n)) => n.wait.changes.load(Ordering::SeqCst) == seen,
        _ => true,
    });
    if unchanged {
        Walk::Acyclic
    } else {
        Walk::Changed
    }
}

/// The walk's path from its start to `reached[i]`, in edge order.
fn path(reached: &[Visit], mut i: usize) -> Vec<Arc<TxNode>> {
    let mut path = Vec::new();
    loop {
        let v = &reached[i];
        path.push(v.node.clone().expect("a reached top has its node"));
        if i == 0 {
            path.reverse();
            return path;
        }
        i = reached
            .iter()
            .position(|u| u.top == v.from)
            .expect("entered from a reached top");
    }
}

/// Validate and claim `cycle` (edge order, `top` first), or `None` if it
/// no longer stands or is claimed already — the caller walks again.
///
/// *Sound.* The members' records are locked together, in top-id order,
/// and every edge of the cycle must be there: the edges coexist now, so
/// the cycle is real at this instant, whatever the walk saw on its way.
///
/// *Exactly once.* The claim is taken under the same locks, so two claims
/// of one cycle are ordered by its victim's record lock. An unclaimed cycle
/// has no flagged member. A requester that is the victim takes its own
/// new request back out, as the one global graph once did, and the
/// cycles through that request's edges are gone; otherwise the victim's
/// `deadlock_victim` flips, and every cycle through it is claimed. Either
/// way a later claim of the same cycle finds an edge gone or a member
/// flagged, and does nothing. (A sibling request of the requester's top
/// whose edge closes the same ring of tops is a cycle of its own: its own
/// search claims it.)
fn claim(top: &Arc<TxNode>, cycle: &[Arc<TxNode>], requester: Option<&[u64]>) -> Option<Cycle> {
    let mut order: Vec<&Arc<TxNode>> = cycle.iter().collect();
    order.sort_unstable_by_key(|n| n.id);
    let mut locked: Vec<MutexGuard<'_, Edges>> =
        order.iter().map(|n| n.wait.edges.lock()).collect();
    let at = |id: u64| order.iter().position(|n| n.id == id).expect("a member");
    for (i, n) in cycle.iter().enumerate() {
        let next = cycle[(i + 1) % cycle.len()].id;
        if locked[at(n.id)].count(next) == 0 || n.deadlock_victim.load(Ordering::SeqCst) {
            return None;
        }
    }
    let members: Vec<u64> = order.iter().map(|n| n.id).collect();
    let victim = order[at(pick_victim(&members))].clone();
    if let Some(edges) = requester.filter(|_| victim.id == top.id) {
        let own = &mut locked[at(top.id)];
        top.wait.waiters.fetch_sub(1, Ordering::SeqCst);
        for &t in edges {
            own.unlink(t);
        }
        top.wait.changes.fetch_add(1, Ordering::SeqCst);
        return Some(Cycle {
            members,
            victim,
            requester_out: true,
        });
    }
    victim.deadlock_victim.store(true, Ordering::SeqCst);
    Some(Cycle {
        members,
        victim,
        requester_out: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Test accessors (the manager's tests and the loom models use them).
    impl WaitRecord {
        /// Queued waiter nodes of this top.
        pub(crate) fn waiters(&self) -> usize {
            self.waiters.load(Ordering::SeqCst)
        }

        /// Out-edges with their counts, sorted.
        pub(crate) fn out_edges(&self) -> Vec<(u64, usize)> {
            let mut out: Vec<(u64, usize)> =
                self.edges.lock().out.iter().map(|e| (e.to, e.n)).collect();
            out.sort_unstable();
            out
        }

        /// Edges pointing here.
        pub(crate) fn inbound(&self) -> usize {
            self.into.load(Ordering::SeqCst)
        }

        /// No waiter, no edge out, no edge in.
        pub(crate) fn is_empty(&self) -> bool {
            self.waiters() == 0 && self.out_edges().is_empty() && self.inbound() == 0
        }
    }

    /// Top-level nodes by id, so edges can name their targets by id.
    struct Tops(HashMap<u64, Arc<TxNode>>);

    impl Tops {
        fn new(ids: &[u64]) -> Tops {
            Tops(ids.iter().map(|&id| (id, TxNode::top_level(id))).collect())
        }

        fn enter(&self, top: u64, edges: &[u64]) -> Option<Cycle> {
            enter(&self.0[&top], edges, |t| &self.0[&t])
        }

        fn leave(&self, top: u64, edges: &[u64]) {
            leave(&self.0[&top], edges);
        }

        fn retarget(&self, top: u64, old: &[u64], new: &[u64]) -> bool {
            retarget(&self.0[&top], old, new, |t| &self.0[&t])
        }

        fn search(&self, top: u64) -> Option<Cycle> {
            search(&self.0[&top], None)
        }

        fn record(&self, top: u64) -> &WaitRecord {
            &self.0[&top].wait
        }

        fn empty(&self) -> bool {
            self.0.values().all(|n| n.wait.is_empty())
        }
    }

    fn members(c: Option<Cycle>) -> Vec<u64> {
        c.expect("a cycle").members
    }

    #[test]
    fn no_cycle_on_simple_wait() {
        let g = Tops::new(&[1, 2]);
        assert!(g.enter(1, &[2]).is_none());
        assert_eq!(g.record(1).waiters(), 1);
        assert_eq!(g.record(2).inbound(), 1);
        g.leave(1, &[2]);
        assert!(g.empty(), "no edge outlives its waiter");
    }

    #[test]
    fn two_party_cycle_detected_with_members() {
        let g = Tops::new(&[1, 2]);
        assert!(g.enter(1, &[2]).is_none());
        let cycle = g.enter(2, &[1]).expect("2 waits for 1 waits for 2");
        assert_eq!(cycle.members, vec![1, 2]);
        assert_eq!(cycle.victim.id, 2);
        // The requester was the victim: it never joined the graph.
        assert!(cycle.requester_out);
        assert_eq!(g.record(2).waiters(), 0);
        assert!(g.record(2).out_edges().is_empty());
        assert_eq!(g.record(1).inbound(), 0);
        assert!(!g.0[&2].deadlock_victim.load(Ordering::SeqCst));
    }

    #[test]
    fn three_party_cycle_detected_with_members() {
        let g = Tops::new(&[1, 2, 3]);
        assert!(g.enter(1, &[2]).is_none());
        assert!(g.enter(2, &[3]).is_none());
        assert_eq!(members(g.enter(3, &[1])), vec![1, 2, 3]);
    }

    #[test]
    fn cycle_detected_across_stripes() {
        // The ids once landed on distinct stripes of a striped edge map,
        // two of them (4 and 20) on the same one; the five-cycle must be
        // found whole across five records.
        let g = Tops::new(&[1, 2, 3, 4, 20]);
        assert!(g.enter(1, &[2]).is_none());
        assert!(g.enter(2, &[3]).is_none());
        assert!(g.enter(3, &[20]).is_none());
        assert!(g.enter(20, &[4]).is_none());
        assert_eq!(members(g.enter(4, &[1])), vec![1, 2, 3, 4, 20]);
    }

    #[test]
    fn self_deadlock_is_a_singleton_cycle() {
        // The manager never adds an edge to a waiter's own top, but the
        // graph itself must handle one (a cycle of length 1).
        let g = Tops::new(&[7]);
        let cycle = g.enter(7, &[7]).expect("self-wait is a cycle");
        assert_eq!(cycle.members, vec![7]);
        assert_eq!(pick_victim(&cycle.members), 7);
        assert!(g.empty(), "the victim took its edge along");
    }

    #[test]
    fn cycle_excludes_bystanders() {
        // 9 waits into the cycle but is not on it; 4 is waited on by a
        // cycle member but waits on nobody.
        let g = Tops::new(&[1, 2, 3, 4, 9]);
        assert!(g.enter(1, &[2]).is_none());
        assert!(g.enter(2, &[3, 4]).is_none());
        assert!(g.enter(9, &[1]).is_none());
        let cycle = members(g.enter(3, &[1]));
        assert_eq!(cycle, vec![1, 2, 3], "4 and 9 are not cycle members");
    }

    #[test]
    fn youngest_victim_policy_picks_largest_id() {
        assert_eq!(pick_victim(&[3, 1, 2]), 3);
        assert_eq!(pick_victim(&[10]), 10);
        // Ids are begin-ordered, so the largest is the youngest; a victim
        // other than the requester is flagged and reported with its node,
        // and the requester stays in the graph.
        let g = Tops::new(&[2, 5, 11]);
        assert!(g.enter(5, &[11]).is_none());
        assert!(g.enter(11, &[2]).is_none());
        let cycle = g.enter(2, &[5]).expect("2→5→11→2");
        assert_eq!(cycle.victim.id, 11, "youngest of {{2,5,11}}");
        assert!(!cycle.requester_out);
        assert!(cycle.victim.deadlock_victim.load(Ordering::SeqCst));
        assert_eq!(g.record(2).waiters(), 1);
        // Claimed: a second search finds the cycle's victim flagged, and
        // walks past it.
        assert!(g.search(5).is_none(), "a claimed cycle is claimed once");
    }

    #[test]
    fn diamond_without_cycle() {
        let g = Tops::new(&[1, 2, 3, 4]);
        assert!(g.enter(1, &[2, 3]).is_none());
        assert!(g.enter(2, &[4]).is_none());
        assert!(g.enter(3, &[4]).is_none());
        assert_eq!(g.record(4).inbound(), 2);
        assert!(g.search(4).is_none() && g.search(2).is_none());
    }

    #[test]
    fn rewrite_replaces_without_detection() {
        let g = Tops::new(&[1, 2, 3]);
        assert!(g.enter(1, &[2, 3]).is_none());
        // Shrink 1's wait set to {3}: nothing to search, and 2→1 can no
        // longer close a cycle through 2.
        assert!(!g.retarget(1, &[2, 3], &[3]));
        assert_eq!((g.record(2).inbound(), g.record(3).inbound()), (0, 1));
        assert!(g.enter(2, &[1]).is_none(), "1 no longer waits on 2");
        assert_eq!(members(g.enter(3, &[1])), vec![1, 3]);
    }

    #[test]
    fn edges_replaced_not_accumulated() {
        let g = Tops::new(&[1, 2, 3]);
        assert!(g.enter(1, &[2]).is_none());
        // 1's head now waits only on 3; the old edge to 2 must be gone.
        assert!(g.retarget(1, &[2], &[3]), "3 is a new target");
        assert!(
            g.enter(2, &[1]).is_none(),
            "no cycle: 1 no longer waits on 2"
        );
        assert_eq!(g.record(1).out_edges(), vec![(3, 1)]);
    }

    #[test]
    fn a_grown_rewrite_asks_for_the_search() {
        let g = Tops::new(&[1, 2]);
        assert!(g.enter(2, &[1]).is_none());
        assert!(g.enter(1, &[]).is_none());
        // 1's head gains a holder edge to 2: the cycle closes here.
        assert!(g.retarget(1, &[], &[2]));
        let cycle = g.search(1).expect("1→2→1");
        assert_eq!((cycle.members, cycle.victim.id), (vec![1, 2], 2));
    }

    #[test]
    fn siblings_keep_their_own_edges() {
        // Two waiting children of top 1: one waits on 2, one on 3. Neither
        // may overwrite the other's edge, and one leaving must not clear
        // the other's.
        let g = Tops::new(&[1, 2, 3]);
        assert!(g.enter(1, &[2]).is_none());
        assert!(g.enter(1, &[3]).is_none());
        assert_eq!(g.record(1).waiters(), 2);
        assert_eq!(g.record(1).out_edges(), vec![(2, 1), (3, 1)]);
        assert_eq!(members(g.enter(3, &[1])), vec![1, 3]);
        g.leave(1, &[3]);
        assert_eq!(g.record(1).out_edges(), vec![(2, 1)]);
        assert!(
            g.enter(2, &[1]).is_some(),
            "the first child's edge survived its sibling's leave"
        );
    }

    #[test]
    fn leave_moves_the_successor_edge() {
        // Queue [w1 (top 1), w2 (top 2), w3 (top 3)]: w3 points at 2. When
        // w2 leaves, w3 points at 1 instead.
        let g = Tops::new(&[1, 2, 3]);
        assert!(g.enter(1, &[]).is_none());
        assert!(g.enter(2, &[1]).is_none());
        assert!(g.enter(3, &[2]).is_none());
        assert!(g.retarget(3, &[2], &[1]));
        g.leave(2, &[1]);
        assert_eq!(g.record(3).out_edges(), vec![(1, 1)]);
        assert_eq!(g.record(1).inbound(), 1);
        assert!(g.record(2).is_empty(), "nothing left of top 2");
    }

    #[test]
    fn concurrent_publish_and_clear_do_not_lose_edges() {
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let ids: Vec<u64> = (0..=200).map(|i| t * 1000 + i).collect();
                    let g = Tops::new(&ids);
                    for &top in &ids[..200] {
                        assert!(g.enter(top, &[top + 1]).is_none());
                        g.leave(top, &[top + 1]);
                    }
                    g.empty()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap(), "an edge outlived its waiter");
        }
    }

    #[test]
    fn a_search_never_claims_a_cycle_that_broke() {
        // 1 → 2 → 1 is found, but the edge 2 → 1 leaves before the claim:
        // the claim fails under the locks and the next walk finds nothing.
        let g = Tops::new(&[1, 2]);
        assert!(g.enter(1, &[2]).is_none());
        // 2's edge back, added without the search its adder would run.
        g.0[&2].wait.change(|r| r.link(&g.0[&1]));
        g.0[&1].wait.into.fetch_add(1, Ordering::SeqCst);
        let Walk::Cycle(path) = walk(&g.0[&1]) else {
            panic!("the walk sees 1 → 2 → 1");
        };
        g.0[&2].wait.change(|r| r.unlink(1));
        assert!(claim(&g.0[&1], &path, None).is_none());
        assert!(g.search(1).is_none());
        assert!(!g.0[&2].deadlock_victim.load(Ordering::SeqCst));
    }

    #[test]
    fn records_hold_their_targets_weakly() {
        // Two records pointing at each other: dropping the nodes frees
        // both.
        let (a, b) = (TxNode::top_level(1), TxNode::top_level(2));
        a.wait.change(|r| r.link(&b));
        b.wait.change(|r| r.link(&a));
        let (wa, wb) = (Arc::downgrade(&a), Arc::downgrade(&b));
        drop((a, b));
        assert!(wa.upgrade().is_none() && wb.upgrade().is_none());
    }
}
