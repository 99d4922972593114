//! Wait-for graph, cycle detection, and victim selection.
//!
//! The paper assigns deadlock handling to the scheduler ("the scheduler
//! must have some power to decide to abort transactions, as when it detects
//! deadlocks"); the runtime implements the standard die-on-cycle scheme: a
//! requester about to block records wait-for edges to its blockers, and if
//! that closes a cycle a victim is chosen by [`pick_victim`] and aborted —
//! the requester itself failing fast with [`crate::TxError::Deadlock`] when
//! it is the victim.
//!
//! The edge map is **striped** by waiter top-level id: the hot operations —
//! publishing one waiter's edges and clearing them on grant — lock a single
//! stripe, so unrelated transactions blocking on unrelated objects no
//! longer serialise on one global mutex. Cycle *detection* needs a
//! consistent view of every stripe; it locks all stripes in index order
//! (deadlock-free among detectors) — acceptable because detection only
//! runs on the already-blocked slow path.

use std::collections::{HashMap, HashSet};

use crate::sync::{Mutex, MutexGuard};

use crate::shard::CachePadded;

/// Number of edge-map stripes (power of two).
pub(crate) const WFG_STRIPES: usize = 16;

type EdgeMap = HashMap<u64, Vec<u64>>;

/// The global wait-for graph (transaction id → ids it waits for), striped
/// by waiter id.
#[derive(Default)]
pub(crate) struct WaitForGraph {
    stripes: [CachePadded<Mutex<EdgeMap>>; WFG_STRIPES],
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

#[inline]
fn stripe_of(waiter: u64) -> usize {
    (waiter as usize) % WFG_STRIPES
}

/// Reachability over the union of all stripes (all guards held).
fn reachable(stripes: &[MutexGuard<'_, EdgeMap>], starts: &[u64]) -> HashSet<u64> {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack: Vec<u64> = starts.to_vec();
    while let Some(n) = stack.pop() {
        if seen.insert(n) {
            if let Some(next) = stripes[stripe_of(n)].get(&n) {
                stack.extend(next.iter().copied());
            }
        }
    }
    seen
}

impl WaitForGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install `waiter`'s current out-edges (replacing earlier ones) and, if
    /// a cycle through `waiter` now exists, return its members (sorted,
    /// `waiter` included). The waiter's edges are removed again on
    /// detection — whichever victim dies, the waiter either fails fast or
    /// re-waits and re-registers.
    ///
    /// Blockers in nested locking are *transactions*; a waiter effectively
    /// waits for the blocker **or any of its ancestors** to release the
    /// lock by committing/aborting, so edges point at the blocker ids that
    /// were actually observed holding the conflicting lock.
    pub fn wait_and_check(&self, waiter: u64, blockers: &[u64]) -> Option<Vec<u64>> {
        // Detection needs a consistent global view: lock every stripe in
        // index order (a fixed order, so detectors never deadlock on each
        // other).
        let mut stripes: Vec<MutexGuard<'_, EdgeMap>> =
            self.stripes.iter().map(|s| s.0.lock()).collect();
        stripes[stripe_of(waiter)].insert(waiter, blockers.to_vec());
        let downstream = reachable(&stripes, blockers);
        if !downstream.contains(&waiter) {
            return None;
        }
        // Cycle members: nodes downstream of the waiter that also reach it.
        let mut members: Vec<u64> = downstream
            .into_iter()
            .filter(|&n| n == waiter || reachable(&stripes, &[n]).contains(&waiter))
            .collect();
        members.sort_unstable();
        stripes[stripe_of(waiter)].remove(&waiter);
        Some(members)
    }

    /// Remove `waiter`'s out-edges (lock granted, or waiter gave up).
    /// Touches only the waiter's stripe.
    pub fn clear(&self, waiter: u64) {
        self.stripes[stripe_of(waiter)].0.lock().remove(&waiter);
    }

    /// Replace `waiter`'s out-edges *without* running cycle detection —
    /// a single-stripe operation for refreshing an already-published wait
    /// set. Shrinking a checked edge set can never close a new cycle; a
    /// *grown* set (a queue-jumped successor became a holder under an
    /// ancestor-held bypass) is also safe here because the
    /// release scan republishes it under the slot mutex before the newly
    /// granted transaction can block again, so any cycle the grown edge
    /// participates in is still closed — and detected — by some waiter's
    /// own [`Self::wait_and_check`] at enqueue time.
    pub fn set_edges(&self, waiter: u64, edges: &[u64]) {
        self.stripes[stripe_of(waiter)]
            .0
            .lock()
            .insert(waiter, edges.to_vec());
    }

    /// Number of currently waiting transactions (diagnostics).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn waiting_count(&self) -> usize {
        self.stripes.iter().map(|s| s.0.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cycle_on_simple_wait() {
        let g = WaitForGraph::new();
        assert!(g.wait_and_check(1, &[2]).is_none());
        assert_eq!(g.waiting_count(), 1);
        g.clear(1);
        assert_eq!(g.waiting_count(), 0);
    }

    #[test]
    fn two_party_cycle_detected_with_members() {
        let g = WaitForGraph::new();
        assert!(g.wait_and_check(1, &[2]).is_none());
        let cycle = g
            .wait_and_check(2, &[1])
            .expect("2 waits for 1 waits for 2");
        assert_eq!(cycle, vec![1, 2]);
        // The detected waiter's edges were removed: 1 can proceed later.
        assert_eq!(g.waiting_count(), 1);
    }

    #[test]
    fn three_party_cycle_detected_with_members() {
        let g = WaitForGraph::new();
        assert!(g.wait_and_check(1, &[2]).is_none());
        assert!(g.wait_and_check(2, &[3]).is_none());
        let cycle = g.wait_and_check(3, &[1]).expect("closes the 3-cycle");
        assert_eq!(cycle, vec![1, 2, 3]);
    }

    #[test]
    fn cycle_detected_across_stripes() {
        // Members chosen to land on distinct stripes (ids 1, 2, 3, 20 with
        // 16 stripes) and to include two ids on the SAME stripe (4 and 20).
        let g = WaitForGraph::new();
        assert!(g.wait_and_check(1, &[2]).is_none());
        assert!(g.wait_and_check(2, &[3]).is_none());
        assert!(g.wait_and_check(3, &[20]).is_none());
        assert!(g.wait_and_check(20, &[4]).is_none());
        let cycle = g.wait_and_check(4, &[1]).expect("1→2→3→20→4→1");
        assert_eq!(cycle, vec![1, 2, 3, 4, 20]);
    }

    #[test]
    fn self_deadlock_is_a_singleton_cycle() {
        // The manager filters self-edges out, but the graph itself must
        // handle a transaction waiting on itself (cycle of length 1).
        let g = WaitForGraph::new();
        let cycle = g.wait_and_check(7, &[7]).expect("self-wait is a cycle");
        assert_eq!(cycle, vec![7]);
        assert_eq!(pick_victim(&cycle), 7);
    }

    #[test]
    fn cycle_excludes_bystanders() {
        // 9 waits into the cycle but is not on it; 4 is waited on by a
        // cycle member but waits on nobody.
        let g = WaitForGraph::new();
        assert!(g.wait_and_check(1, &[2]).is_none());
        assert!(g.wait_and_check(2, &[3, 4]).is_none());
        assert!(g.wait_and_check(9, &[1]).is_none());
        let cycle = g.wait_and_check(3, &[1]).expect("1→2→3→1");
        assert_eq!(cycle, vec![1, 2, 3], "4 and 9 are not cycle members");
    }

    #[test]
    fn youngest_victim_policy_picks_largest_id() {
        assert_eq!(pick_victim(&[3, 1, 2]), 3);
        assert_eq!(pick_victim(&[10]), 10);
        // Ids are begin-ordered, so the largest is the youngest.
        let g = WaitForGraph::new();
        assert!(g.wait_and_check(5, &[11]).is_none());
        assert!(g.wait_and_check(11, &[2]).is_none());
        let cycle = g.wait_and_check(2, &[5]).expect("2→5→11→2");
        assert_eq!(pick_victim(&cycle), 11, "youngest of {{2,5,11}}");
    }

    #[test]
    fn diamond_without_cycle() {
        let g = WaitForGraph::new();
        assert!(g.wait_and_check(1, &[2, 3]).is_none());
        assert!(g.wait_and_check(2, &[4]).is_none());
        assert!(g.wait_and_check(3, &[4]).is_none());
        assert_eq!(g.waiting_count(), 3);
    }

    #[test]
    fn set_edges_replaces_without_detection() {
        let g = WaitForGraph::new();
        assert!(g.wait_and_check(1, &[2, 3]).is_none());
        // Shrink 1's wait set to {3}: 3→1 closing an apparent 1→2→…
        // cycle through 2 is now impossible.
        g.set_edges(1, &[3]);
        assert!(
            g.wait_and_check(2, &[1]).is_none(),
            "1 no longer waits on 2"
        );
        assert_eq!(g.waiting_count(), 2);
        let cycle = g.wait_and_check(3, &[1]).expect("1→3→1 remains");
        assert_eq!(cycle, vec![1, 3]);
    }

    #[test]
    fn edges_replaced_not_accumulated() {
        let g = WaitForGraph::new();
        assert!(g.wait_and_check(1, &[2]).is_none());
        // 1 re-waits, now only on 3; the old edge to 2 must be gone.
        assert!(g.wait_and_check(1, &[3]).is_none());
        assert!(
            g.wait_and_check(2, &[1]).is_none(),
            "no cycle: 1 no longer waits on 2"
        );
    }

    #[test]
    fn concurrent_publish_and_clear_do_not_lose_edges() {
        let g = std::sync::Arc::new(WaitForGraph::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let g = g.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let waiter = t * 1000 + i;
                        assert!(g.wait_and_check(waiter, &[waiter + 1]).is_none());
                        g.clear(waiter);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.waiting_count(), 0);
    }
}
