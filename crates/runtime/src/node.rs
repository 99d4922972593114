//! The dynamic transaction tree.
//!
//! Unlike `ntx-tree`'s *static* system types (the paper's predeclared
//! naming scheme), the runtime grows its transaction tree dynamically as
//! clients call [`crate::Tx::child`]. Each node carries its ancestor path
//! inline (up to depth 5; deeper paths spill to the heap), so the ancestor
//! test at the heart of Moss' locking rule is one indexed compare with no
//! global lock. Its touched set and its list of live children are inline
//! too, and so is a top-level node's place in the wait-for graph: a
//! transaction's bookkeeping never reaches the allocator.

use crate::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use crate::sync::{Arc, Weak};

use crate::deadlock::WaitRecord;
use crate::inline::InlineVec;
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

/// [`TxNode::waiting_on`]'s value while no request of the node is queued.
const NOT_WAITING: usize = usize::MAX;

/// One node of the dynamic transaction tree.
pub(crate) struct TxNode {
    /// Globally unique id (assigned by the manager, monotonically).
    pub id: u64,
    /// Ids of the ancestors from the top level (depth 0) down to this node.
    /// `path.last() == id`; `path.len() - 1` is the depth.
    pub path: InlineVec<u64, 6>,
    pub parent: Option<Arc<TxNode>>,
    state: AtomicU8,
    /// Live (unreturned) children: a child joins at creation and leaves
    /// once it has returned ([`TxNode::leave_parent`]). Abort walks the
    /// subtree through it, and a commit waits for it to be empty.
    pub children: Mutex<InlineVec<Weak<TxNode>, 2>>,
    /// Objects where this transaction may hold locks or versions, kept as
    /// a sorted set so membership tests are binary searches, not scans.
    pub touched: Mutex<ObjSet>,
    /// Object this transaction currently has a queued waiter node on, or
    /// [`NOT_WAITING`]. Set under that object's slot mutex at enqueue and
    /// cleared once the request resolved and its requester took the
    /// outcome; abort paths read it to find (and cancel) the subtree's
    /// queued waiters, and a commit under it fails: the access is a live
    /// child.
    waiting_on: AtomicUsize,
    /// Set when this transaction was chosen as a deadlock victim, so its
    /// blocked accesses report [`crate::TxError::Deadlock`] (retryable)
    /// rather than plain doom. Only a top-level node is ever flagged, and
    /// only by the search that claimed a cycle through it.
    pub deadlock_victim: AtomicBool,
    /// This transaction's place in the wait-for graph: used on a top-level
    /// node only (`deadlock.rs`).
    pub wait: WaitRecord,
}

impl TxNode {
    /// A new top-level transaction.
    pub fn top_level(id: u64) -> Arc<TxNode> {
        Arc::new(TxNode {
            id,
            path: InlineVec::extended(&[], id),
            parent: None,
            state: AtomicU8::new(ST_ACTIVE),
            children: Mutex::new(InlineVec::new()),
            touched: Mutex::new(ObjSet::new()),
            waiting_on: AtomicUsize::new(NOT_WAITING),
            deadlock_victim: AtomicBool::new(false),
            wait: WaitRecord::new(),
        })
    }

    /// A child of `parent`.
    pub fn child_of(parent: &Arc<TxNode>, id: u64) -> Arc<TxNode> {
        let node = Arc::new(TxNode {
            id,
            path: InlineVec::extended(&parent.path, id),
            parent: Some(parent.clone()),
            state: AtomicU8::new(ST_ACTIVE),
            children: Mutex::new(InlineVec::new()),
            touched: Mutex::new(ObjSet::new()),
            waiting_on: AtomicUsize::new(NOT_WAITING),
            deadlock_victim: AtomicBool::new(false),
            wait: WaitRecord::new(),
        });
        parent.children.lock().push(Arc::downgrade(&node));
        node
    }

    /// Leave the parent's list of live children. Called once, when this
    /// node has returned: after its commit's inheritance — so an ancestor's
    /// abort racing the commit still walks into its touched set — or after
    /// its abort.
    pub fn leave_parent(self: &Arc<TxNode>) {
        if let Some(p) = &self.parent {
            let mut children = p.children.lock();
            if let Some(i) = children
                .iter()
                .position(|c| c.as_ptr() == Arc::as_ptr(self))
            {
                children.swap_remove(i);
            }
        }
    }

    /// The object this node's queued request waits on, if any.
    pub fn waiting_on(&self) -> Option<usize> {
        let obj = self.waiting_on.load(Ordering::SeqCst);
        (obj != NOT_WAITING).then_some(obj)
    }

    /// Register (`Some`) or clear (`None`) this node's queued request.
    pub fn set_waiting_on(&self, obj: Option<usize>) {
        self.waiting_on
            .store(obj.unwrap_or(NOT_WAITING), Ordering::SeqCst);
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
    pub fn top(self: &Arc<TxNode>) -> &Arc<TxNode> {
        let mut cur = self;
        while let Some(p) = &cur.parent {
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

    /// [`TxState::Aborted`] when this node or any ancestor has aborted,
    /// else this node's own state. One state load per tree level: a
    /// request learns "doomed" and "already returned" from the same walk.
    pub fn fate(&self) -> TxState {
        let own = self.state();
        if own == TxState::Aborted {
            return own;
        }
        let mut cur = self.parent.as_deref();
        while let Some(n) = cur {
            if n.state() == TxState::Aborted {
                return TxState::Aborted;
            }
            cur = n.parent.as_deref();
        }
        own
    }

    /// `true` when this node or any ancestor has aborted.
    pub fn is_doomed(&self) -> bool {
        self.fate() == TxState::Aborted
    }

    /// Record that this transaction touched object `obj`. The set stays
    /// sorted, so the dedup test is a binary search — O(log n) instead of
    /// the O(n) scan that made repeated touches quadratic.
    pub fn touch(&self, obj: usize) {
        insert_sorted(&mut self.touched.lock(), obj);
    }

    /// [`TxNode::touch`] every object of `objs` under one lock hold (a
    /// committing child's set, merged into its heir).
    pub fn touch_all(&self, objs: &[usize]) {
        let mut t = self.touched.lock();
        for &obj in objs {
            insert_sorted(&mut t, obj);
        }
    }

    /// Walk the subtree rooted here (self included), calling `f` on each
    /// live descendant. A returned child is not visited: its locks are its
    /// parent's now, or gone.
    pub fn for_subtree(self: &Arc<TxNode>, f: &mut impl FnMut(&Arc<TxNode>)) {
        f(self);
        // A copy of the list, so no lock is held across the visit.
        let children = self.children.lock().clone();
        for c in children.iter().filter_map(Weak::upgrade) {
            c.for_subtree(f);
        }
    }
}

/// A sorted set of object indices: four inline, the rest spilled.
pub(crate) type ObjSet = InlineVec<usize, 4>;

/// Insert `x` into the sorted set `set` unless it is there already.
pub(crate) fn insert_sorted<T: Ord + Default, const N: usize>(set: &mut InlineVec<T, N>, x: T) {
    if let Err(pos) = set.binary_search(&x) {
        set.insert(pos, x);
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

        // Past the inline path (depth 5): a depth-12 chain beside a
        // sibling branch off depth 7.
        let mut chain = vec![TxNode::top_level(100)];
        for id in 101..=112 {
            chain.push(TxNode::child_of(chain.last().unwrap(), id));
        }
        let side = TxNode::child_of(&chain[7], 200);
        let deep = &chain[12];
        assert_eq!(deep.depth(), 12);
        assert_eq!(deep.top_level_id(), 100);
        assert_eq!(deep.path[..], (100..=112).collect::<Vec<u64>>()[..]);
        for (i, n) in chain.iter().enumerate() {
            assert!(n.is_ancestor_of(deep), "depth {i} is an ancestor");
            assert_eq!(deep.is_ancestor_of(n), i == 12);
            assert_eq!(n.is_ancestor_of(&side), i <= 7);
        }
        assert!(!side.is_ancestor_of(deep) && !a.is_ancestor_of(deep));
        assert!(!deep.is_doomed());
        assert!(chain[9].mark_aborted());
        assert!(deep.is_doomed(), "doom reaches depth 12 from depth 9");
        assert!(!chain[8].is_doomed() && !side.is_doomed());
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
        let b = TxNode::child_of(&a, 2);
        let _c = TxNode::child_of(&a, 3);
        assert_eq!(a.children.lock().len(), 2);
        b.leave_parent();
        assert_eq!(a.children.lock().len(), 1, "a returned child leaves");
        let mut seen = Vec::new();
        a.for_subtree(&mut |n| seen.push(n.id));
        assert_eq!(seen, vec![1, 3]);
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
        assert_eq!(a.touched.lock()[..], [2, 5, 6]);
        a.touch_all(&[9, 1, 5, 7]);
        assert_eq!(a.touched.lock()[..], [1, 2, 5, 6, 7, 9], "spilled");
    }

    #[test]
    fn fate_orders_doom_before_return() {
        let a = TxNode::top_level(1);
        let b = TxNode::child_of(&a, 2);
        assert_eq!(b.fate(), TxState::Active);
        assert!(b.mark_committed());
        assert_eq!(b.fate(), TxState::Committed);
        assert!(a.mark_aborted());
        assert_eq!(b.fate(), TxState::Aborted, "an aborted ancestor wins");
    }
}
