//! Per-object lock tables, version chains, and the handoff waiter queue.
//!
//! This is the runtime counterpart of the model's `M(X)`: each object keeps
//! a *chain* of uncommitted versions — one per write-lock holder, deepest
//! last, `chain.last()` being the current state — and a set of read-lock
//! holders, and nothing else of its own: one version and two readers fit
//! in the table itself. Its committed state is kept once, as the head of
//! its snapshot chain ([`SnapshotCell::head`]): a top-level commit links
//! its version's block there, and an empty chain falls back to it. A
//! version a commit or an abort drops leaves the table in a [`Detached`]
//! list, freed after the slot mutex: its `Drop` is user code.
//!
//! A child's commit does not visit this table. A lock or version granted to
//! a node that has since committed belongs to its nearest uncommitted
//! ancestor ([`TxNode::holder`]): the grant rule, the reads and the writes
//! below resolve holders that way, under the slot mutex, which is the
//! paper's `INFORM_COMMIT` delivered late. A write entry re-owned that way
//! is adopted by its holder ([`ObjectInner::adopt`]) before anyone stacks
//! a version on it, and a read lock when the next reader joins, so neither
//! list grows with the children that came and went. A top-level commit
//! releases the whole tree's locks in one pass ([`ObjectInner::release_top`])
//! and an abort discards its subtree's ([`ObjectInner::discard_subtree`]).
//!
//! Requests that cannot be granted enqueue a [`Waiter`] on the object's
//! FIFO queue and wait until a releasing thread *hands the lock over
//! directly* (see `ManagerInner::release_scan` in the manager module) and
//! fires the node's one wake slot. The queue is the single source of truth
//! for "who is waiting" on an object — and for whom each waiter waits on: a
//! queued waiter waits for the top-level transaction of the waiter ahead of
//! it, and the head for the tops of the holders it conflicts with
//! ([`ObjectInner::head_edges`]). Those are its wait-for edges in its top's
//! record (`deadlock.rs`), changed only where the queue changes; a child's
//! commit moves a lock within its top, so it changes none of them.

use crate::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use crate::sync::{Arc, Mutex};
use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroU64;
use std::task::Waker;
use std::time::Instant;

use crate::inline::{Inline1, Inline2, InlineVec};
use crate::mvcc::{Detached, SnapshotCell, Version};
use crate::node::{insert_sorted, TxNode, TxState};

/// A sorted set of top-level ids: four inline, the rest spilled.
pub(crate) type TopSet = InlineVec<u64, 4>;

/// Type-erased clonable state (object versions).
///
/// `Sync` is required because published committed versions are read by
/// snapshot readers concurrently and without any lock (see
/// [`crate::mvcc::SnapshotCell`]); every registered state type must
/// therefore tolerate shared references from many threads.
pub(crate) trait AnyState: Any + Send + Sync {
    /// A new version holding a clone of this state.
    fn clone_version(&self) -> Version;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any + Clone + Send + Sync> AnyState for T {
    fn clone_version(&self) -> Version {
        Version::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The version an access closure runs on. A read gets it shared: with no
/// ancestor's version on the chain it is the committed head, which
/// lock-free snapshot readers share. A write gets its own uncommitted
/// version.
pub(crate) enum StateRef<'a> {
    Read(&'a dyn AnyState),
    Write(&'a mut dyn AnyState),
}

/// One uncommitted version: the state as of `owner`'s writes.
pub(crate) struct ChainEntry {
    pub owner: Arc<TxNode>,
    pub version: Version,
}

/// Waiter is blocked and queued (its requester spinning, parked or
/// suspended).
pub(crate) const W_WAITING: u8 = 0;
/// A releasing thread granted the lock and installed the lock state; the
/// waiter wakes, applies its closure and proceeds.
pub(crate) const W_GRANTED: u8 = 1;
/// The wait was cancelled (doomed by an abort, or the requester died on a
/// deadlock cycle); the waiter wakes and fails without retrying.
pub(crate) const W_CANCELLED: u8 = 2;
/// The wait was withdrawn in place: expired (the manager's sweeper) or
/// abandoned (its future dropped). Kept distinct from [`W_CANCELLED`] so a
/// poll can classify `Timeout` vs `Doomed` straight off the state CAS — no
/// side flag, no window where a spurious poll misreads who cancelled.
pub(crate) const W_TIMEDOUT: u8 = 3;

/// One blocked lock request, queued FIFO on its [`ObjectSlot`].
///
/// A waiter is a queue node and nothing else: no thread is tied to it. Its
/// state moves once, `W_WAITING` → granted, cancelled or withdrawn, by a CAS
/// under the slot mutex; whoever moved it then fires the node's one wake
/// slot, so a release wakes exactly the requests it resolved — no
/// broadcast, no re-fight for the slot mutex by waiters that cannot
/// proceed. The requester reads the state with plain atomic loads, so a
/// spinning thread costs no locks.
pub(crate) struct Waiter {
    /// The requesting transaction, which the grant makes a lock holder.
    pub node: Arc<TxNode>,
    /// `true` for a write-mode request.
    pub write: bool,
    /// When the request first found itself blocked (read under the slot
    /// mutex): the wait clock behind `Ctr::WaitNanos`.
    pub wait_start: Instant,
    /// `wait_start + wait_timeout`: the only place this wait's timeout
    /// lives; the manager's sweeper reads it off the queue. Both clock
    /// reads happen under the slot mutex and the timeout is one constant,
    /// so FIFO queue order is deadline order.
    pub deadline: Instant,
    state: AtomicU8,
    /// The one wake slot: a parked thread's waker (the blocking driver in
    /// `future.rs`) or a polled task's. Installed under the slot mutex at
    /// enqueue — strictly before the node becomes grantable — pointed at a
    /// new task by a poll from one, and emptied by the one [`Waiter::wake`]
    /// that follows the state transition.
    waker: Mutex<Option<Waker>>,
}

impl Waiter {
    /// A queue node for one blocked request, woken through `waker`.
    pub fn new(
        node: Arc<TxNode>,
        write: bool,
        wait_start: Instant,
        deadline: Instant,
        waker: Waker,
    ) -> Arc<Waiter> {
        Arc::new(Waiter {
            node,
            write,
            wait_start,
            deadline,
            state: AtomicU8::new(W_WAITING),
            waker: Mutex::new(Some(waker)),
        })
    }

    /// Point an unfired wake slot at `waker` (a poll from another task).
    /// Only the latest poller needs waking, and a poll from the task
    /// already installed clones nothing. A fired slot stays empty: its
    /// state is final, and the poll that follows reads it.
    pub fn set_waker(&self, waker: &Waker) {
        if let Some(installed) = self.waker.lock().as_mut() {
            if !installed.will_wake(waker) {
                *installed = waker.clone();
            }
        }
    }

    #[inline]
    pub fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    /// WAITING → GRANTED. Callers hold the slot mutex; the CAS guards
    /// against a cancel that raced in anyway.
    pub fn grant(&self) -> bool {
        self.state
            .compare_exchange(W_WAITING, W_GRANTED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// WAITING → CANCELLED (doom delivery).
    pub fn cancel(&self) -> bool {
        self.state
            .compare_exchange(W_WAITING, W_CANCELLED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// WAITING → TIMEDOUT (in-place withdrawal). The distinct terminal
    /// state is what lets a poll classify `Timeout` vs `Doomed` from the
    /// state alone.
    pub fn cancel_timeout(&self) -> bool {
        self.state
            .compare_exchange(W_WAITING, W_TIMEDOUT, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Fire the wake slot after a state transition, at most once. The
    /// waker was installed before the node could be resolved, so no wake
    /// is lost; an empty slot means this wait was woken already.
    pub fn wake(&self) {
        let waker = self.waker.lock().take();
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// Lock table + versions of one object (guarded by [`ObjectSlot::inner`]).
pub(crate) struct ObjectInner {
    /// Uncommitted versions, shallowest owner first. Owners form an
    /// ancestor chain (the Lemma 21 invariant).
    pub chain: Inline1<ChainEntry>,
    /// Read-lock holders.
    pub readers: Inline2<Arc<TxNode>>,
    /// Blocked requests in FIFO handoff order; every node in it is
    /// [`W_WAITING`] and counted in its top's wait-for record.
    pub queue: VecDeque<Arc<Waiter>>,
    /// The head's wait-for edges as published in its top's record: the
    /// top-level ids of the holders it conflicts with
    /// ([`ObjectInner::holder_tops`]). Empty with an empty queue. Every
    /// other waiter's one edge is implied by its place in `queue` (the top
    /// of the waiter ahead), so this is the only edge state an object keeps.
    pub head_edges: TopSet,
    /// Owner id of a write grant handed off but not yet *applied*: the
    /// releaser installed the version and woke the writer, which has not
    /// reached its closure yet. While set, nothing else is grantable, so no
    /// deeper version can land on top and swallow the woken writer's
    /// update. (Transaction ids start at 1.)
    pub write_pending: Option<NonZeroU64>,
}

impl ObjectInner {
    /// Queued waiters (the queue is the only waiter book-keeping).
    pub fn waiters(&self) -> usize {
        self.queue.len()
    }

    /// The current state: the deepest version, or the committed one at
    /// the head of `snap`, this object's snapshot chain.
    pub fn current<'a>(&'a self, snap: &'a SnapshotCell) -> &'a dyn AnyState {
        match self.chain.last() {
            Some(e) => e.version.state(),
            None => snap.head(self),
        }
    }

    /// The tops of the holders a request of `tx` conflicts with — any write
    /// holder, and readers for a write request, ancestors of `tx` never —
    /// its own top excluded: the edges of `tx`'s waiter at the queue head.
    /// (A holder of another top is never an ancestor of `tx`, however its
    /// commits resolve, so a child's commit moves no edge.)
    pub fn holder_tops(&self, tx: &TxNode, write: bool) -> TopSet {
        let mine = tx.top_level_id();
        let mut tops = TopSet::new();
        let readers = self.readers.iter().filter(|_| write);
        for h in self.chain.iter().map(|e| &e.owner).chain(readers) {
            let top = h.top_level_id();
            if top != mine {
                insert_sorted(&mut tops, top);
            }
        }
        tops
    }

    /// The node of holder top `top` (one of [`Self::holder_tops`]).
    pub fn holder_top(&self, top: u64) -> &Arc<TxNode> {
        self.chain
            .iter()
            .map(|e| &e.owner)
            .chain(self.readers.iter())
            .find(|h| h.top_level_id() == top)
            .expect("an edge target holds a lock")
            .top()
    }

    /// Moss' grant rule, with holders resolved through their commits and
    /// gated on no write handoff being in flight.
    pub fn grantable(&self, tx: &TxNode, write: bool) -> bool {
        if self.write_pending.is_some() {
            return false;
        }
        let writes_ok = self.chain.iter().all(|e| e.owner.holds_for(tx));
        if !write {
            return writes_ok;
        }
        writes_ok && self.readers.iter().all(|r| r.holds_for(tx))
    }

    /// `true` when some current lock holder is an ancestor of `tx`. A
    /// grantable request may then bypass a non-empty waiter queue: queueing
    /// it behind a stranger that waits on its own ancestor would deadlock
    /// (re-entrant and parent/child accesses must never queue behind
    /// requests they themselves block).
    pub fn holder_is_ancestor(&self, tx: &TxNode) -> bool {
        self.chain.iter().any(|e| e.owner.holds_for(tx))
            || self.readers.iter().any(|r| r.holds_for(tx))
    }

    /// `true` when some holder's top has a queued request. A waiter that
    /// [`Self::holder_is_ancestor`] admits shares its top with a holder
    /// and is counted in that top's record while it is queued, so without
    /// such a top no queued waiter can bypass the head.
    pub fn a_holder_top_waits(&self) -> bool {
        let mut holders = self
            .chain
            .iter()
            .map(|e| &e.owner)
            .chain(self.readers.iter());
        holders.any(|h| h.top().wait.has_waiters())
    }

    /// Record a read lock for `owner`. Read locks of committed nodes are
    /// handed to their holders first, so a parent whose children come and
    /// go keeps one entry.
    pub fn add_reader(&mut self, owner: &Arc<TxNode>) {
        let mut i = 0;
        while i < self.readers.len() {
            if self.readers[i].state() == TxState::Committed {
                let h = self.readers[i].holder().clone();
                if self.readers[..i].iter().any(|r| r.id == h.id) {
                    self.readers.remove(i);
                    continue;
                }
                self.readers[i] = h;
            }
            i += 1;
        }
        if !self.readers.iter().any(|r| r.id == owner.id) {
            self.readers.push(owner.clone());
        }
    }

    /// The deepest version owned, through commits, by an ancestor of `tx`.
    /// On the fast path this is exactly `chain.last()` (the grant rule makes
    /// every holder an ancestor); after a queued handoff a deeper
    /// non-ancestor version may already have been granted on top, and Moss'
    /// read semantics say the reader sees its ancestors' state, not the
    /// stranger's.
    pub fn ancestral(&self, tx: &TxNode) -> Option<&dyn AnyState> {
        let i = self.chain.iter().rposition(|e| e.owner.holds_for(tx))?;
        Some(self.chain[i].version.state())
    }

    /// The state a granted *read* by `tx` observes: [`Self::ancestral`],
    /// else the committed state.
    pub fn read_target<'a>(&'a self, tx: &TxNode, snap: &'a SnapshotCell) -> &'a dyn AnyState {
        self.ancestral(tx).unwrap_or_else(|| snap.head(self))
    }

    /// The version a handed-off *write* grant mutates: the entry the
    /// releaser installed for `owner` (found by id — `writable_state`
    /// would wrongly push a fresh entry above any descendant version
    /// granted since). Falls back to installing one for exotic races where
    /// the entry vanished without dooming the owner.
    pub fn write_target(
        &mut self,
        owner: &Arc<TxNode>,
        snap: &SnapshotCell,
        dead: &mut Detached,
    ) -> &mut dyn AnyState {
        match self.chain.iter().position(|e| e.owner.id == owner.id) {
            Some(i) => self.chain[i].version.state_mut(),
            None => self.writable_state(owner, snap, dead),
        }
    }

    /// Whether `owner` owns the top of the chain once committed owners'
    /// entries are adopted by their holders: then a write by `owner`
    /// updates that version in place; otherwise it stacks a new one.
    pub fn owns_top(&mut self, owner: &TxNode, dead: &mut Detached) -> bool {
        let owns = |c: &[ChainEntry]| matches!(c.last(), Some(e) if e.owner.id == owner.id);
        owns(&self.chain) || {
            self.adopt(dead);
            owns(&self.chain)
        }
    }

    /// Hand every committed owner's version to its holder, the deepest of
    /// a holder's versions replacing the shallower, which goes to `dead`:
    /// the chain's owners are then distinct and uncommitted (a committing
    /// top's aside).
    pub fn adopt(&mut self, dead: &mut Detached) {
        for e in self.chain.iter_mut() {
            if e.owner.state() == TxState::Committed {
                e.owner = e.owner.holder().clone();
            }
        }
        let mut i = 1;
        while i < self.chain.len() {
            if self.chain[i].owner.id == self.chain[i - 1].owner.id {
                dead.push(self.chain.remove(i - 1).version);
            } else {
                i += 1;
            }
        }
    }

    /// Ensure the top of the chain is a version owned by `owner`, cloning
    /// the current state into a new version if needed, and return its
    /// state.
    pub fn writable_state(
        &mut self,
        owner: &Arc<TxNode>,
        snap: &SnapshotCell,
        dead: &mut Detached,
    ) -> &mut dyn AnyState {
        if !self.owns_top(owner, dead) {
            let version = self.current(snap).clone_version();
            debug_assert!(
                self.chain.iter().all(|e| e.owner.holds_for(owner)),
                "write version pushed while non-ancestors hold locks"
            );
            self.chain.push(ChainEntry {
                owner: owner.clone(),
                version,
            });
        }
        let top = self.chain.last_mut().expect("just ensured");
        top.version.state_mut()
    }

    /// A top-level commit's one pass over this object: take the deepest
    /// version its tree wrote, for the caller to publish as the committed
    /// state, and release every lock the tree holds — the top's and those
    /// of its committed descendants alike, their versions going to `dead`.
    /// Returns the version and whether anything was released.
    pub fn release_top(&mut self, top: &TxNode, dead: &mut Detached) -> (Option<Version>, bool) {
        let published = match self.chain.last() {
            Some(e) if top.is_ancestor_of(&e.owner) => self.chain.pop().map(|e| e.version),
            _ => None,
        };
        let (versions, readers) = self.discard_subtree(top, dead);
        let released = published.is_some() || versions + readers > 0;
        (published, released)
    }

    /// Abort-time discard: release every version and read lock held by
    /// `tx` or any of its descendants, the versions into `dead`. The
    /// surviving deepest version (or the committed state) *is* the
    /// restored state — no undo log needed. Returns
    /// `(versions_dropped, readers_dropped)` for rollback tracing.
    pub fn discard_subtree(&mut self, tx: &TxNode, dead: &mut Detached) -> (usize, usize) {
        let (nv, nr) = (self.chain.len(), self.readers.len());
        if nv + nr == 0 && self.write_pending.is_none() {
            return (0, 0);
        }
        self.chain
            .retain_or(|e| !tx.is_ancestor_of(&e.owner), |e| dead.push(e.version));
        self.readers.retain(|r| !tx.is_ancestor_of(r));
        // If the discard swallowed an unapplied write handoff's version,
        // lift the latch — the doomed writer will never apply, and leaving
        // it set would wedge the object.
        if let Some(pid) = self.write_pending {
            if !self.chain.iter().any(|e| e.owner.id == pid.get()) {
                self.write_pending = None;
            }
        }
        (nv - self.chain.len(), nr - self.readers.len())
    }
}

/// One object: its lock table plus the waiter handoff queue, and the
/// multi-version snapshot chain (outside the mutex — readers never lock).
/// Its name lives in the manager's name table, not here.
pub(crate) struct ObjectSlot {
    pub inner: Mutex<ObjectInner>,
    /// Committed-version chain for lock-free snapshot reads; its head is the
    /// committed state. Mutated only under `inner`'s mutex (publish on
    /// top-commit, GC), read lock-free.
    pub snap: SnapshotCell,
    /// Set (under the slot mutex) when a waiter is queued here, cleared
    /// (under the slot mutex) by the sweeper pass that finds the queue
    /// empty. The sweeper reads it lock-free to visit only slots that may
    /// hold a wait it has to time out; see `sweeper.rs`.
    pub sweep_hint: AtomicBool,
    /// WAL encode/decode pair for durable objects
    /// ([`crate::TxManager::register_durable`]); `None` means the object is
    /// memory-only and the WAL skips it entirely.
    pub codec: Option<&'static crate::wal::WalCodec>,
}

impl ObjectSlot {
    /// An object whose committed state is `initial`; durable when it has a
    /// `codec`, its committed state then riding the write-ahead log.
    pub fn new(initial: Version, codec: Option<&'static crate::wal::WalCodec>) -> ObjectSlot {
        ObjectSlot {
            inner: Mutex::new(ObjectInner {
                chain: Inline1::new(),
                readers: Inline2::Zero,
                queue: VecDeque::new(),
                head_edges: TopSet::new(),
                write_pending: None,
            }),
            snap: SnapshotCell::new(initial),
            sweep_hint: AtomicBool::new(false),
            codec,
        }
    }
}

/// Every object's name, by slab index, in one buffer: a name costs its
/// bytes and one offset, and no slot carries a `String`.
#[derive(Default)]
pub(crate) struct Names {
    text: String,
    /// `ends[i]` is where name `i` ends in `text`.
    ends: Vec<u32>,
}

impl Names {
    /// Record `name` for object `idx`, the next one registered. Objects
    /// pushed to the store without a name (the unit tests' and models')
    /// get an empty one.
    pub fn set(&mut self, idx: usize, name: &str) {
        debug_assert!(idx >= self.ends.len(), "a name is set once");
        while self.ends.len() <= idx {
            let name = if self.ends.len() == idx { name } else { "" };
            self.text.push_str(name);
            let end = u32::try_from(self.text.len()).expect("object names fit in 4 GiB");
            self.ends.push(end);
        }
    }

    /// Object `idx`'s name, empty if it has none.
    pub fn get(&self, idx: usize) -> &str {
        let Some(&end) = self.ends.get(idx) else {
            return "";
        };
        let start = idx.checked_sub(1).map_or(0, |i| self.ends[i]);
        &self.text[start as usize..end as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes() -> (Arc<TxNode>, Arc<TxNode>, Arc<TxNode>, Arc<TxNode>) {
        let p = TxNode::top_level(1);
        let c = TxNode::child_of(&p, 2);
        let g = TxNode::child_of(&c, 3);
        let q = TxNode::top_level(4);
        (p, c, g, q)
    }

    /// An object whose committed state is `0i64`.
    fn slot() -> ObjectSlot {
        ObjectSlot::new(Version::new(0i64), None)
    }

    /// A waiter for `tx` with a deadline far in the future and a waker
    /// that does nothing.
    fn waiter(tx: &Arc<TxNode>, write: bool) -> Arc<Waiter> {
        let now = Instant::now();
        let deadline = now + std::time::Duration::from_secs(3600);
        Waiter::new(tx.clone(), write, now, deadline, Waker::noop().clone())
    }

    fn read_i64(s: &dyn AnyState) -> i64 {
        *s.as_any().downcast_ref::<i64>().unwrap()
    }

    #[test]
    fn write_creates_version_and_updates_current() {
        let (p, ..) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        *o.writable_state(&p, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 42;
        assert_eq!(read_i64(o.current(&s.snap)), 42);
        assert_eq!(
            read_i64(s.snap.head(&o)),
            0,
            "committed state untouched until top commit"
        );
        assert_eq!(o.chain.len(), 1);
    }

    #[test]
    fn reentrant_write_reuses_version() {
        let (p, ..) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        *o.writable_state(&p, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 1;
        *o.writable_state(&p, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 2;
        assert_eq!(o.chain.len(), 1);
        assert_eq!(read_i64(o.current(&s.snap)), 2);
    }

    #[test]
    fn grant_rule_follows_ancestry() {
        let (p, c, g, q) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        let _ = o.writable_state(&c, &s.snap, &mut Detached::default());
        // Descendant of the holder: fine. Ancestor of the holder: blocked
        // (the holder is not an ancestor of the requester).
        assert!(o.grantable(&g, true));
        assert!(!o.grantable(&p, true));
        assert!(!o.grantable(&q, false));
        // Readers block writers but not readers.
        let s2 = slot();
        let mut o2 = s2.inner.lock();
        o2.add_reader(&c);
        assert!(o2.grantable(&q, false));
        assert!(!o2.grantable(&q, true));
        assert!(o2.grantable(&g, true), "reader is an ancestor of g");
    }

    #[test]
    fn write_pending_blocks_everyone() {
        let (p, c, g, q) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        let _ = o.writable_state(&c, &s.snap, &mut Detached::default());
        o.write_pending = NonZeroU64::new(c.id);
        assert!(!o.grantable(&g, true), "even descendants wait for apply");
        assert!(!o.grantable(&q, false));
        o.write_pending = None;
        assert!(o.grantable(&g, true));
        let _ = p;
    }

    #[test]
    fn discard_clears_orphaned_write_pending() {
        let (p, c, _, q) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        let _ = o.writable_state(&c, &s.snap, &mut Detached::default());
        o.write_pending = NonZeroU64::new(c.id);
        let _ = o.discard_subtree(&p, &mut Detached::default());
        assert_eq!(o.write_pending, None, "doomed handoff must lift the latch");
        // A surviving pending entry keeps the latch.
        let _ = o.writable_state(&q, &s.snap, &mut Detached::default());
        o.write_pending = NonZeroU64::new(q.id);
        let _ = o.discard_subtree(&p, &mut Detached::default());
        assert_eq!(o.write_pending, NonZeroU64::new(q.id));
    }

    #[test]
    fn ancestor_holder_allows_queue_bypass() {
        let (p, c, g, q) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        let _ = o.writable_state(&c, &s.snap, &mut Detached::default());
        let w = waiter(&q, true);
        o.queue.push_back(w);
        assert!(o.holder_is_ancestor(&g), "write holder c is an ancestor");
        assert!(!o.holder_is_ancestor(&q), "stranger must queue");
        assert!(!o.holder_is_ancestor(&p), "parent of holder is not covered");
        let s2 = slot();
        let mut o2 = s2.inner.lock();
        o2.add_reader(&c);
        assert!(o2.holder_is_ancestor(&g), "reader counts too");
    }

    #[test]
    fn read_target_skips_non_ancestor_versions() {
        let (p, c, _, q) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        *o.writable_state(&p, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 7;
        // Simulate a stranger's version granted deeper after p's (cannot
        // happen while p holds, but read_target must not depend on that).
        o.chain.push(ChainEntry {
            owner: q.clone(),
            version: Version::new(99i64),
        });
        assert_eq!(read_i64(o.read_target(&c, &s.snap)), 7);
        assert_eq!(read_i64(o.read_target(&q, &s.snap)), 99);
        let stranger = TxNode::top_level(8);
        assert_eq!(read_i64(o.read_target(&stranger, &s.snap)), 0, "committed");
    }

    #[test]
    fn write_target_finds_entry_by_id_not_top() {
        let (p, c, ..) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        *o.writable_state(&p, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 1;
        *o.writable_state(&c, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 2;
        // p's handed-off write must hit p's own entry, not push above c.
        *o.write_target(&p, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 5;
        assert_eq!(o.chain.len(), 2);
        assert_eq!(read_i64(o.chain[0].version.state()), 5);
        assert_eq!(read_i64(o.current(&s.snap)), 2);
    }

    #[test]
    fn waiter_state_machine_and_queue_removal() {
        let (p, ..) = nodes();
        let w = waiter(&p, false);
        assert_eq!(w.state(), W_WAITING);
        assert!(w.grant());
        assert!(!w.cancel(), "granted waiter cannot be cancelled");
        assert_eq!(w.state(), W_GRANTED);
        let w2 = waiter(&p, true);
        assert!(w2.cancel());
        assert_eq!(w2.state(), W_CANCELLED);
        let s = slot();
        let mut o = s.inner.lock();
        let q1 = waiter(&p, true);
        let q2 = waiter(&p, false);
        o.queue.push_back(q1.clone());
        o.queue.push_back(q2.clone());
        assert_eq!(o.waiters(), 2);
        o.queue.retain(|q| !Arc::ptr_eq(q, &q1));
        assert_eq!(o.waiters(), 1);
        assert!(Arc::ptr_eq(&o.queue[0], &q2));
    }

    #[test]
    fn blockers_reported() {
        let (p, c, g, q) = nodes();
        let r = TxNode::top_level(9);
        let s = slot();
        let mut o = s.inner.lock();
        let _ = o.writable_state(&c, &s.snap, &mut Detached::default());
        o.add_reader(&p);
        o.add_reader(&r);
        // Holders are reported by top, each top once: c and p share top 1.
        assert_eq!(o.holder_tops(&q, true)[..], [1, 9]);
        // For a read request only write holders block.
        assert_eq!(o.holder_tops(&q, false)[..], [1]);
        // Neither ancestors nor the requester's own top are edges.
        assert_eq!(o.holder_tops(&g, true)[..], [9]);
        assert!(Arc::ptr_eq(o.holder_top(1), &p) && Arc::ptr_eq(o.holder_top(9), &r));
    }

    /// A child's commit leaves its version where it is; its holder adopts
    /// it before stacking anything, merging it with its own.
    #[test]
    fn inherit_merges_into_parent_version() {
        let (p, c, g, _) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        *o.writable_state(&c, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 5;
        *o.writable_state(&g, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 9;
        assert!(g.mark_committed());
        assert_eq!(o.chain.len(), 2, "a child's commit touches no table");
        // c's next write adopts g's version, merged with its own.
        assert!(o.owns_top(&c, &mut Detached::default()));
        assert_eq!(o.chain.len(), 1);
        assert_eq!(o.chain[0].owner.id, c.id);
        assert_eq!(read_i64(o.current(&s.snap)), 9);
        // c commits: p's write takes the version over in place.
        assert!(c.mark_committed());
        *o.writable_state(&p, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() += 1;
        assert_eq!(o.chain.len(), 1);
        assert_eq!(o.chain[0].owner.id, p.id);
        // p's top-level commit: the version goes out for publication, and
        // the committed state is the head until the caller publishes it.
        let (out, released) = o.release_top(&p, &mut Detached::default());
        assert!(released && o.chain.is_empty());
        assert_eq!(read_i64(o.current(&s.snap)), 0);
        s.snap.publish(1, out.expect("published"));
        assert_eq!(read_i64(o.current(&s.snap)), 10);
    }

    /// The deepest version a top's tree wrote is published, whoever of the
    /// tree wrote it; every other entry and read lock of the tree goes.
    #[test]
    fn release_top_publishes_the_deepest_and_releases_the_tree() {
        let (p, c, g, q) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        *o.writable_state(&p, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 1;
        *o.writable_state(&c, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 2;
        o.add_reader(&g);
        assert!(g.mark_committed() && c.mark_committed() && p.mark_committed());
        let (out, released) = o.release_top(&p, &mut Detached::default());
        assert!(released && o.chain.is_empty() && o.readers.is_empty());
        assert_eq!(read_i64(out.expect("published").state()), 2);
        // A stranger's read lock stays; a tree holding nothing releases
        // nothing.
        o.add_reader(&q);
        assert!(!o.release_top(&p, &mut Detached::default()).1);
        assert_eq!(o.readers.len(), 1);
    }

    #[test]
    fn inherit_moves_read_locks() {
        let (p, c, _, q) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        let sib = TxNode::child_of(&p, 5);
        o.add_reader(&c);
        assert!(!o.grantable(&sib, true), "c holds its read lock");
        assert!(c.mark_committed());
        assert!(o.grantable(&sib, true), "p holds it now, sib's parent");
        assert!(!o.grantable(&q, true), "a stranger still waits");
        // The next reader hands c's entry to p, once.
        let sib2 = TxNode::child_of(&p, 6);
        o.add_reader(&sib2);
        assert!(sib2.mark_committed());
        o.add_reader(&sib);
        let ids: Vec<u64> = o.readers.iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            vec![p.id, sib.id],
            "one entry for p, however many children"
        );
        // Top-level commit drops the read locks.
        assert!(sib.mark_committed() && p.mark_committed());
        assert!(o.release_top(&p, &mut Detached::default()).1);
        assert!(o.readers.is_empty());
    }

    /// The runtime does not take Moss' footnote 8: a write lock does not
    /// swallow a read lock granted to its holder. The redundant read lock
    /// decides no grant (`footnote8_trace_conforms_with_flag` in
    /// `ntx-conform`).
    #[test]
    fn granted_read_lock_is_kept_beside_write() {
        let (p, c, _, q) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        let _ = o.writable_state(&p, &s.snap, &mut Detached::default());
        o.add_reader(&p);
        assert_eq!(o.readers.len(), 1, "granted beside the write lock");
        assert!(o.grantable(&c, true) && !o.grantable(&q, false));
    }

    /// Nor does it swallow a read lock the holder inherits from a child.
    #[test]
    fn inherited_read_lock_is_kept_beside_write() {
        let (_, c, g, q) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        let _ = o.writable_state(&c, &s.snap, &mut Detached::default());
        o.add_reader(&g);
        assert!(g.mark_committed());
        assert_eq!(o.readers.len(), 1);
        assert_eq!(
            o.readers[0].holder().id,
            c.id,
            "inherited beside the write lock"
        );
        let g2 = TxNode::child_of(&c, 7);
        assert!(o.grantable(&g2, true) && !o.grantable(&q, false));
    }

    #[test]
    fn discard_restores_previous_version() {
        let (p, c, g, _) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        *o.writable_state(&p, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 1;
        *o.writable_state(&c, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 2;
        *o.writable_state(&g, &s.snap, &mut Detached::default())
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 3;
        let mut dead = Detached::default();
        assert_eq!(o.discard_subtree(&c, &mut dead), (2, 0));
        assert_eq!(dead.free(), 2, "the discarded versions are handed back");
        assert_eq!(
            read_i64(o.current(&s.snap)),
            1,
            "c and g versions discarded"
        );
        assert_eq!(o.chain.len(), 1);
        assert_eq!(o.discard_subtree(&p, &mut Detached::default()), (1, 0));
        assert_eq!(
            read_i64(o.current(&s.snap)),
            0,
            "back to the committed state"
        );
    }

    #[test]
    fn discard_removes_subtree_readers() {
        let (p, c, g, q) = nodes();
        let s = slot();
        let mut o = s.inner.lock();
        o.add_reader(&g);
        o.add_reader(&q);
        let _ = o.discard_subtree(&c, &mut Detached::default());
        assert_eq!(o.readers.len(), 1);
        assert_eq!(o.readers[0].id, q.id);
        let _ = p;
    }

    #[test]
    fn waiter_wake_fires_its_waker_once() {
        use std::sync::atomic::{AtomicUsize, Ordering as O};
        use std::task::Wake;
        struct Count(AtomicUsize);
        impl Wake for Count {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, O::SeqCst);
            }
        }
        let (p, ..) = nodes();
        let (first, second) = (
            Arc::new(Count(AtomicUsize::new(0))),
            Arc::new(Count(AtomicUsize::new(0))),
        );
        let w = waiter(&p, true);
        w.set_waker(&Waker::from(first.clone()));
        // A poll from another task re-points the slot; only it is woken.
        w.set_waker(&Waker::from(second.clone()));
        assert!(w.grant());
        w.wake();
        w.wake(); // fired: a second wake is a no-op, never a double fire
        assert_eq!(first.0.load(O::SeqCst), 0, "a replaced waker stays quiet");
        assert_eq!(second.0.load(O::SeqCst), 1);
        // A fired slot stays empty: a later poll installs nothing to fire.
        w.set_waker(&Waker::from(first.clone()));
        w.wake();
        assert_eq!(first.0.load(O::SeqCst), 0);
    }

    #[test]
    fn timeout_withdrawal_state_is_distinct_from_doom() {
        let (p, ..) = nodes();
        let w = waiter(&p, true);
        assert!(w.cancel_timeout());
        assert_eq!(w.state(), W_TIMEDOUT);
        assert!(!w.cancel(), "terminal state cannot be re-cancelled");
        assert!(!w.grant(), "terminal state cannot be granted");
        let w2 = waiter(&p, true);
        assert!(w2.cancel());
        assert!(!w2.cancel_timeout());
        assert_eq!(w2.state(), W_CANCELLED);
    }

    #[test]
    fn names_are_kept_by_index_in_one_buffer() {
        let mut names = Names::default();
        names.set(0, "a");
        names.set(2, "ccc");
        names.set(3, "");
        names.set(4, "é");
        let got: Vec<&str> = (0..6).map(|i| names.get(i)).collect();
        assert_eq!(got, ["a", "", "ccc", "", "é", ""]);
        assert_eq!(names.text, "acccé");
    }
}
