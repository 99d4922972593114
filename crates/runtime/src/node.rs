//! The dynamic transaction tree.
//!
//! Unlike `ntx-tree`'s *static* system types (the paper's predeclared
//! naming scheme), the runtime grows its transaction tree dynamically as
//! clients call [`crate::Tx::child`]. Each node carries its ancestor path
//! inline (up to depth 5; deeper paths spill to the heap), so the ancestor
//! test at the heart of Moss' locking rule is one indexed compare with no
//! global lock. Its touched set and its list of children share one mutex
//! (the node's [`Book`]), both inline, and so does a top-level node's place
//! in the wait-for graph: a transaction's bookkeeping never reaches the
//! allocator.
//!
//! A child's commit is the paper's `COMMIT(T)` alone: it marks the node
//! committed and touches no lock table and no mutex. Its
//! `INFORM_COMMIT_AT(X)OF(T)`, which the paper lets the scheduler send
//! with arbitrary delay, happens where the lock is next looked at: under an
//! object's slot mutex a lock or version owned by a committed node belongs
//! to its nearest uncommitted ancestor ([`TxNode::holder`]). Its touched
//! set stays in its own book, reached through its parent's list of
//! children, until the parent folds it in — at the parent's next child or
//! at the parent's commit — so an ancestor's abort or commit still finds
//! every object its subtree holds.

use crate::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use crate::sync::Arc;

use crate::deadlock::WaitRecord;
use crate::inline::InlineVec;
use crate::manager::ManagerInner;
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

/// A node's touched set and its children, behind one mutex.
#[derive(Default)]
pub(crate) struct Book {
    /// Objects where this transaction may hold locks or versions, kept as
    /// a sorted set so membership tests are binary searches, not scans.
    touched: ObjSet,
    /// Children that joined at creation and have not left: every live
    /// child, and every committed one whose set is not folded in yet. A
    /// child that returns uncommitted leaves at once
    /// ([`TxNode::leave_parent`]).
    children: InlineVec<Option<Arc<TxNode>>, 2>,
}

impl Book {
    /// Fold every returned committed child's subtree into `touched` and
    /// drop it from the list. Locks the children's books below this one
    /// (lock order: parent's book before a child's).
    fn fold_returned(&mut self) {
        let mut i = 0;
        while i < self.children.len() {
            match &self.children[i] {
                Some(c)
                    if c.returned.load(Ordering::Acquire) && c.state() == TxState::Committed =>
                {
                    let c = self.children.swap_remove(i).expect("a listed child");
                    let mut theirs = c.book.lock();
                    theirs.fold_returned();
                    for &obj in theirs.touched.iter() {
                        insert_sorted(&mut self.touched, obj);
                    }
                }
                _ => i += 1,
            }
        }
    }

    /// Whether a listed child has not returned.
    fn has_live_children(&self) -> bool {
        self.children
            .iter()
            .flatten()
            .any(|c| !c.returned.load(Ordering::Acquire))
    }

    /// Whether this book, or a committed child's below it, names `obj`.
    fn reaches(&self, obj: usize) -> bool {
        self.touched.binary_search(&obj).is_ok()
            || self
                .committed_children()
                .any(|c| c.book.lock().reaches(obj))
    }

    /// Add this book's objects, and its committed children's, to `objs`.
    fn collect(&self, objs: &mut ObjSet) {
        for &obj in self.touched.iter() {
            insert_sorted(objs, obj);
        }
        for c in self.committed_children() {
            c.book.lock().collect(objs);
        }
    }

    fn committed_children(&self) -> impl Iterator<Item = &Arc<TxNode>> {
        self.children
            .iter()
            .flatten()
            .filter(|c| c.state() == TxState::Committed)
    }
}

/// One node of the dynamic transaction tree.
pub(crate) struct TxNode {
    /// Globally unique id (assigned by the manager, monotonically).
    pub id: u64,
    /// Ids of the ancestors from the top level (depth 0) down to this node.
    /// `path.last() == id`; `path.len() - 1` is the depth.
    pub path: InlineVec<u64, 6>,
    pub parent: Option<Arc<TxNode>>,
    /// The manager, on a top-level node a manager began (`None` below the
    /// top): a child's handle reaches it through its top.
    pub mgr: Option<Arc<ManagerInner>>,
    state: AtomicU8,
    /// Set at this node's first child: until then a commit has no list of
    /// children to check.
    had_children: AtomicBool,
    /// Set once, when this node returns to its parent
    /// ([`TxNode::leave_parent`]): after its commit's last step, so a
    /// parent that sees it set may fold the child in.
    returned: AtomicBool,
    book: Mutex<Book>,
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
    fn build(id: u64, parent: Option<Arc<TxNode>>, mgr: Option<Arc<ManagerInner>>) -> TxNode {
        TxNode {
            id,
            path: InlineVec::extended(parent.as_ref().map_or(&[][..], |p| &p.path[..]), id),
            parent,
            mgr,
            state: AtomicU8::new(ST_ACTIVE),
            had_children: AtomicBool::new(false),
            returned: AtomicBool::new(false),
            book: Mutex::new(Book::default()),
            waiting_on: AtomicUsize::new(NOT_WAITING),
            deadlock_victim: AtomicBool::new(false),
            wait: WaitRecord::new(),
        }
    }

    /// A new top-level transaction with no manager (unit tests and models
    /// drive the manager's internals with these).
    #[cfg(test)]
    pub fn top_level(id: u64) -> Arc<TxNode> {
        Arc::new(TxNode::build(id, None, None))
    }

    /// A new top-level transaction of `mgr`.
    pub fn top_of(mgr: Arc<ManagerInner>, id: u64) -> Arc<TxNode> {
        Arc::new(TxNode::build(id, None, Some(mgr)))
    }

    /// A child of `parent`. Joining the parent's list is also when the
    /// parent folds in the children that returned committed.
    pub fn child_of(parent: &Arc<TxNode>, id: u64) -> Arc<TxNode> {
        let node = Arc::new(TxNode::build(id, Some(parent.clone()), None));
        let mut book = parent.book.lock();
        book.fold_returned();
        book.children.push(Some(node.clone()));
        if !parent.had_children.load(Ordering::SeqCst) {
            parent.had_children.store(true, Ordering::SeqCst);
        }
        node
    }

    /// Return to the parent, once: after this node's commit — a committed
    /// child stays listed until the parent folds its set in — or after its
    /// abort, which takes it off the list.
    pub fn leave_parent(self: &Arc<TxNode>) {
        if self.returned.load(Ordering::Acquire) {
            return;
        }
        if let (Some(p), false) = (&self.parent, self.state() == TxState::Committed) {
            let mut book = p.book.lock();
            let listed = book
                .children
                .iter()
                .position(|c| c.as_ref().is_some_and(|c| Arc::ptr_eq(c, self)));
            if let Some(i) = listed {
                book.children.swap_remove(i);
            }
        }
        self.returned.store(true, Ordering::Release);
    }

    /// Whether a child has not returned. No mutex for a node that never
    /// had one.
    pub fn has_live_children(&self) -> bool {
        self.had_children.load(Ordering::SeqCst) && self.book.lock().has_live_children()
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

    /// Whoever holds what this node was granted: the node itself, or after
    /// its commit its nearest uncommitted ancestor — the lock's owner once
    /// the paper's `INFORM_COMMIT` arrives. A committed top is its own
    /// holder until its commit pass releases the object.
    pub fn holder(self: &Arc<TxNode>) -> &Arc<TxNode> {
        let mut cur = self;
        while cur.state() == TxState::Committed {
            match &cur.parent {
                Some(p) => cur = p,
                None => break,
            }
        }
        cur
    }

    /// `true` when a lock granted to this node does not block `tx`: its
    /// holder ([`TxNode::holder`]) is an ancestor of `tx`.
    pub fn holds_for(self: &Arc<TxNode>, tx: &TxNode) -> bool {
        self.is_ancestor_of(tx)
            || (self.state() == TxState::Committed && self.holder().is_ancestor_of(tx))
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
        insert_sorted(&mut self.book.lock().touched, obj);
    }

    /// Whether this node or a committed descendant it has not folded in
    /// yet touched `obj`.
    pub fn reaches(&self, obj: usize) -> bool {
        self.book.lock().reaches(obj)
    }

    /// The objects this node and its committed descendants touched.
    pub fn subtree_objects(&self) -> ObjSet {
        let mut objs = ObjSet::new();
        self.book.lock().collect(&mut objs);
        objs
    }

    /// At this node's commit: fold the committed children in and copy the
    /// set out, or `None` while a child has not returned. The book keeps
    /// the set, for an abort that wins the race to the node's state.
    pub fn fold_children(&self) -> Option<ObjSet> {
        let mut book = self.book.lock();
        if book.has_live_children() {
            return None;
        }
        book.fold_returned();
        Some(book.touched.clone())
    }

    /// Children on the list: live ones and committed ones not folded in.
    #[cfg(test)]
    pub fn listed_children(&self) -> usize {
        self.book.lock().children.len()
    }

    /// Walk the subtree rooted here (self included) for an abort, calling
    /// `f` with each node and its touched set. Each node's list of
    /// children is emptied as the walk takes it: an aborted subtree is
    /// done with them, and a committed child holds its parent.
    pub fn drain_subtree(self: &Arc<TxNode>, f: &mut impl FnMut(&Arc<TxNode>, &ObjSet)) {
        let (touched, children) = {
            let mut book = self.book.lock();
            (book.touched.clone(), std::mem::take(&mut book.children))
        };
        f(self, &touched);
        for c in children.iter().flatten() {
            c.drain_subtree(f);
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
        assert_eq!(a.listed_children(), 2);
        assert!(a.has_live_children());
        b.leave_parent();
        b.leave_parent(); // returns once
        assert_eq!(a.listed_children(), 1, "a returned child leaves");
        assert!(a.has_live_children(), "c has not returned");
        let mut seen = Vec::new();
        a.drain_subtree(&mut |n, _| seen.push(n.id));
        assert_eq!(seen, vec![1, 3]);
        assert_eq!(a.listed_children(), 0, "the walk takes the list");
    }

    #[test]
    fn subtree_walk_visits_descendants() {
        let a = TxNode::top_level(1);
        let b = TxNode::child_of(&a, 2);
        let _c = TxNode::child_of(&b, 3);
        let mut seen = Vec::new();
        a.drain_subtree(&mut |n, _| seen.push(n.id));
        assert_eq!(seen, vec![1, 2, 3]);
    }

    /// A committed child stays listed, and its parent reaches its objects,
    /// until the parent folds it in: at the parent's next child, or at the
    /// parent's commit.
    #[test]
    fn committed_children_fold_in_lazily() {
        let a = TxNode::top_level(1);
        let b = TxNode::child_of(&a, 2);
        let g = TxNode::child_of(&b, 3);
        g.touch(7);
        b.touch(5);
        assert!(g.mark_committed());
        g.leave_parent();
        assert!(b.mark_committed());
        assert!(a.has_live_children(), "b has not returned");
        assert!(a.fold_children().is_none());
        b.leave_parent();
        assert!(!a.has_live_children());
        assert!(a.reaches(5) && a.reaches(7) && !a.reaches(6));
        assert_eq!(a.subtree_objects()[..], [5, 7]);
        assert_eq!(a.book.lock().touched.len(), 0, "not folded yet");
        let _next = TxNode::child_of(&a, 4);
        assert_eq!(
            a.book.lock().touched[..],
            [5, 7],
            "folded at the next child"
        );
        assert_eq!(a.listed_children(), 1);
        assert_eq!(b.listed_children(), 0);
    }

    /// A committed node's locks belong to its nearest uncommitted ancestor.
    #[test]
    fn holder_resolves_through_committed_ancestors() {
        let a = TxNode::top_level(1);
        let b = TxNode::child_of(&a, 2);
        let c = TxNode::child_of(&b, 3);
        let s = TxNode::child_of(&a, 4);
        assert_eq!(c.holder().id, 3);
        assert!(!c.holds_for(&s));
        assert!(c.mark_committed());
        assert_eq!(c.holder().id, 2);
        assert!(!c.holds_for(&s), "b still holds: s is no descendant of b");
        assert!(b.mark_committed());
        assert_eq!(c.holder().id, 1);
        assert!(c.holds_for(&s), "a holds now, s's parent");
        assert!(a.mark_committed());
        assert_eq!(c.holder().id, 1, "a committed top holds until released");
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
        assert_eq!(a.book.lock().touched[..], [2, 5, 6]);
        for obj in [9, 1, 5, 7] {
            a.touch(obj);
        }
        assert_eq!(a.book.lock().touched[..], [1, 2, 5, 6, 7, 9], "spilled");
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
