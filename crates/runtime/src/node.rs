//! The dynamic transaction tree.
//!
//! Unlike `ntx-tree`'s *static* system types (the paper's predeclared
//! naming scheme), the runtime grows its transaction tree dynamically as
//! clients call [`crate::Tx::child`]. Each node caches its full ancestor
//! path, so the ancestor tests at the heart of Moss' locking rule are O(1)
//! array probes with no global locks.

use crate::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use crate::sync::{Arc, Weak};

use crate::sync::Mutex;

/// Lifecycle states of a runtime transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum TxState {
    Active,
    Committed,
    Aborted,
}

const ST_ACTIVE: u8 = 0;
const ST_COMMITTED: u8 = 1;
const ST_ABORTED: u8 = 2;

/// One node of the dynamic transaction tree.
pub(crate) struct TxNode {
    /// Globally unique id (assigned by the manager, monotonically).
    pub id: u64,
    /// Ids of the ancestors from the top level (depth 0) down to this node.
    /// `path.last() == id`; `path.len() - 1` is the depth.
    pub path: Vec<u64>,
    pub parent: Option<Arc<TxNode>>,
    state: AtomicU8,
    /// Live (unreturned) children.
    pub children_live: AtomicUsize,
    /// Children ever created (for subtree walks at abort time).
    pub children: Mutex<Vec<Weak<TxNode>>>,
    /// Objects where this transaction may hold locks or versions, kept as
    /// a sorted set so membership tests are binary searches, not scans.
    pub touched: Mutex<Vec<usize>>,
    /// Object this transaction currently has a queued waiter node on, if
    /// any. Set under that object's slot mutex while enqueued; abort paths
    /// read it to find (and cancel) the subtree's queued waiters.
    pub waiting_on: Mutex<Option<usize>>,
    /// Set when this transaction was chosen as a deadlock victim, so its
    /// blocked accesses report [`crate::TxError::Deadlock`] (retryable)
    /// rather than plain doom.
    pub deadlock_victim: AtomicBool,
}

impl TxNode {
    /// A new top-level transaction.
    pub fn top_level(id: u64) -> Arc<TxNode> {
        Arc::new(TxNode {
            id,
            path: vec![id],
            parent: None,
            state: AtomicU8::new(ST_ACTIVE),
            children_live: AtomicUsize::new(0),
            children: Mutex::new(Vec::new()),
            touched: Mutex::new(Vec::new()),
            waiting_on: Mutex::new(None),
            deadlock_victim: AtomicBool::new(false),
        })
    }

    /// A child of `parent`.
    pub fn child_of(parent: &Arc<TxNode>, id: u64) -> Arc<TxNode> {
        let mut path = parent.path.clone();
        path.push(id);
        let node = Arc::new(TxNode {
            id,
            path,
            parent: Some(parent.clone()),
            state: AtomicU8::new(ST_ACTIVE),
            children_live: AtomicUsize::new(0),
            children: Mutex::new(Vec::new()),
            touched: Mutex::new(Vec::new()),
            waiting_on: Mutex::new(None),
            deadlock_victim: AtomicBool::new(false),
        });
        parent.children_live.fetch_add(1, Ordering::SeqCst);
        parent.children.lock().push(Arc::downgrade(&node));
        node
    }

    pub fn depth(&self) -> usize {
        self.path.len() - 1
    }

    /// `true` iff `self` is an ancestor of `other` (reflexive, as in the
    /// paper).
    pub fn is_ancestor_of(&self, other: &TxNode) -> bool {
        other.path.get(self.depth()) == Some(&self.id)
    }

    /// Id of the top-level ancestor.
    pub fn top_level_id(&self) -> u64 {
        self.path[0]
    }

    /// The top-level ancestor node (self, at depth 0).
    pub fn top(self: &Arc<TxNode>) -> Arc<TxNode> {
        let mut cur = self.clone();
        while let Some(p) = cur.parent.clone() {
            cur = p;
        }
        cur
    }

    /// `true` when this node's top-level ancestor was marked a deadlock
    /// victim.
    pub fn victim_flagged(&self) -> bool {
        let mut cur = Some(self);
        while let Some(n) = cur {
            if n.deadlock_victim.load(Ordering::SeqCst) {
                return true;
            }
            cur = n.parent.as_deref();
        }
        false
    }

    pub fn state(&self) -> TxState {
        match self.state.load(Ordering::SeqCst) {
            ST_ACTIVE => TxState::Active,
            ST_COMMITTED => TxState::Committed,
            _ => TxState::Aborted,
        }
    }

    /// Transition Active → Committed. Returns false if not active.
    pub fn mark_committed(&self) -> bool {
        self.state
            .compare_exchange(ST_ACTIVE, ST_COMMITTED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Transition Active → Aborted. Returns false if not active.
    pub fn mark_aborted(&self) -> bool {
        self.state
            .compare_exchange(ST_ACTIVE, ST_ABORTED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// `true` when this node or any ancestor has aborted.
    pub fn is_doomed(&self) -> bool {
        let mut cur = Some(self);
        while let Some(n) = cur {
            if n.state() == TxState::Aborted {
                return true;
            }
            cur = n.parent.as_deref();
        }
        false
    }

    /// Record that this transaction touched object `obj`. The set stays
    /// sorted, so the dedup test is a binary search — O(log n) instead of
    /// the O(n) scan that made repeated touches quadratic.
    pub fn touch(&self, obj: usize) {
        let mut t = self.touched.lock();
        if let Err(pos) = t.binary_search(&obj) {
            t.insert(pos, obj);
        }
    }

    /// Walk the subtree rooted here (self included), calling `f` on each
    /// still-reachable node.
    pub fn for_subtree(self: &Arc<TxNode>, f: &mut impl FnMut(&Arc<TxNode>)) {
        f(self);
        let children: Vec<Arc<TxNode>> = self
            .children
            .lock()
            .iter()
            .filter_map(Weak::upgrade)
            .collect();
        for c in children {
            c.for_subtree(f);
        }
    }
}

impl std::fmt::Debug for TxNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TxNode(id={}, depth={}, state={:?})",
            self.id,
            self.depth(),
            self.state()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_and_ancestry() {
        let a = TxNode::top_level(1);
        let b = TxNode::child_of(&a, 2);
        let c = TxNode::child_of(&b, 3);
        let d = TxNode::child_of(&a, 4);
        assert!(a.is_ancestor_of(&c));
        assert!(b.is_ancestor_of(&c));
        assert!(c.is_ancestor_of(&c), "reflexive");
        assert!(!c.is_ancestor_of(&b));
        assert!(!d.is_ancestor_of(&c));
        assert_eq!(c.depth(), 2);
        assert_eq!(c.top_level_id(), 1);
    }

    #[test]
    fn state_transitions_are_one_way() {
        let a = TxNode::top_level(1);
        assert_eq!(a.state(), TxState::Active);
        assert!(a.mark_committed());
        assert!(!a.mark_aborted(), "committed cannot abort");
        assert_eq!(a.state(), TxState::Committed);
        let b = TxNode::top_level(2);
        assert!(b.mark_aborted());
        assert!(!b.mark_committed());
    }

    #[test]
    fn doom_propagates_from_ancestors() {
        let a = TxNode::top_level(1);
        let b = TxNode::child_of(&a, 2);
        let c = TxNode::child_of(&b, 3);
        assert!(!c.is_doomed());
        a.mark_aborted();
        assert!(c.is_doomed());
        assert!(b.is_doomed());
    }

    #[test]
    fn children_live_counting() {
        let a = TxNode::top_level(1);
        let _b = TxNode::child_of(&a, 2);
        let _c = TxNode::child_of(&a, 3);
        assert_eq!(a.children_live.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn subtree_walk_visits_descendants() {
        let a = TxNode::top_level(1);
        let b = TxNode::child_of(&a, 2);
        let _c = TxNode::child_of(&b, 3);
        let mut seen = Vec::new();
        a.for_subtree(&mut |n| seen.push(n.id));
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn top_and_victim_flag() {
        let a = TxNode::top_level(1);
        let b = TxNode::child_of(&a, 2);
        let c = TxNode::child_of(&b, 3);
        assert_eq!(c.top().id, 1);
        assert_eq!(a.top().id, 1);
        assert!(!c.victim_flagged());
        a.deadlock_victim.store(true, Ordering::SeqCst);
        assert!(c.victim_flagged(), "flag visible from descendants");
    }

    #[test]
    fn touch_dedupes_and_stays_sorted() {
        let a = TxNode::top_level(1);
        a.touch(6);
        a.touch(5);
        a.touch(5);
        a.touch(6);
        a.touch(2);
        assert_eq!(*a.touched.lock(), vec![2, 5, 6]);
    }
}
