//! Per-object lock tables, version chains, and the handoff waiter queue.
//!
//! This is the runtime counterpart of the model's `M(X)`: each object keeps
//! a *base* (top-level committed) state, a *chain* of uncommitted versions —
//! one per write-lock holder, deepest last, `chain.last()` being the current
//! state — and a set of read-lock holders. The grant rule, inheritance at
//! commit and discard-at-abort follow Moss exactly; the difference from the
//! model is operational: requests that cannot be granted enqueue a
//! [`Waiter`] on the object's FIFO queue and wait until a releasing thread
//! *hands the lock over directly* (see `ManagerInner::release_scan` in the
//! manager module) and fires the node's one wake slot. The queue is the
//! single source of truth for "who is waiting" on an object — and for whom
//! each waiter waits on: a queued waiter waits for the top-level
//! transaction of the waiter ahead of it, and the head for the tops of
//! the holders it conflicts with ([`ObjectInner::head_edges`]). Those are
//! its wait-for edges in `deadlock.rs`'s graph, changed only where the
//! queue changes.

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use crate::sync::{Arc, Mutex};
use std::any::Any;
use std::collections::VecDeque;
use std::task::Waker;
use std::time::Instant;

use crate::mvcc::SnapshotCell;
use crate::node::TxNode;

/// Type-erased clonable state (object versions).
///
/// `Sync` is required because published committed versions are read by
/// snapshot readers concurrently and without any lock (see
/// [`crate::mvcc::SnapshotCell`]); every registered state type must
/// therefore tolerate shared references from many threads.
pub(crate) trait AnyState: Any + Send + Sync {
    fn clone_box(&self) -> Box<dyn AnyState>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any + Clone + Send + Sync> AnyState for T {
    fn clone_box(&self) -> Box<dyn AnyState> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One uncommitted version: the state as of `owner`'s writes.
pub(crate) struct ChainEntry {
    pub owner: Arc<TxNode>,
    pub state: Box<dyn AnyState>,
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
    /// The requesting node. Doom checks target the requester, not the lock
    /// owner: under [`crate::LockMode::Flat2PL`] a subtree fault can doom
    /// the node while the owning top level stays live.
    pub node: Arc<TxNode>,
    /// The lock-owner identity (equals `node` except under Flat2PL).
    pub owner: Arc<TxNode>,
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
        owner: Arc<TxNode>,
        write: bool,
        wait_start: Instant,
        deadline: Instant,
        waker: Waker,
    ) -> Arc<Waiter> {
        Arc::new(Waiter {
            node,
            owner,
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
    /// Top-level committed state.
    pub base: Box<dyn AnyState>,
    /// Uncommitted versions, shallowest owner first. Owners form an
    /// ancestor chain (the Lemma 21 invariant).
    pub chain: Vec<ChainEntry>,
    /// Read-lock holders.
    pub readers: Vec<Arc<TxNode>>,
    /// Blocked requests in FIFO handoff order; every node in it is
    /// [`W_WAITING`] and in the wait-for graph.
    pub queue: VecDeque<Arc<Waiter>>,
    /// The head's wait-for edges as published in the wait-for graph: the
    /// top-level ids of the holders it conflicts with, its own excluded,
    /// sorted. Empty with an empty queue. Every other waiter's one edge is
    /// implied by its place in `queue` (the top of the waiter ahead), so
    /// this is the only edge state an object keeps.
    pub head_edges: Vec<u64>,
    /// Owner id of a write grant handed off but not yet *applied*: the
    /// releaser installed the version and woke the writer, which has not
    /// reached its closure yet. While set, nothing else is grantable, so no
    /// deeper version can land on top and swallow the woken writer's
    /// update.
    pub write_pending: Option<u64>,
    /// When the current tenure (continuous span of the object being held by
    /// anyone) began. Set when locks are installed on a free object,
    /// cleared — and folded into [`ObjectSlot::hold_ewma_ns`] — by the
    /// release scan that observes the object free again. A coarse hint for
    /// the blocking driver's adaptive spin, nothing more.
    #[cfg_attr(loom, allow(dead_code))]
    pub tenure_start: Option<Instant>,
    /// Whether [`ObjectSlot::hold_ewma_ns`] has at least one sample.
    /// Mirrored here (under the slot mutex) so the uncontended grant path
    /// can skip the tenure clock read without a slab lookup.
    #[cfg_attr(loom, allow(dead_code))]
    pub hint_warm: bool,
}

impl ObjectInner {
    /// Queued waiters (the queue is the only waiter book-keeping).
    pub fn waiters(&self) -> usize {
        self.queue.len()
    }

    /// The current state: the deepest version, or the base.
    pub fn current(&self) -> &dyn AnyState {
        match self.chain.last() {
            Some(e) => e.state.as_ref(),
            None => self.base.as_ref(),
        }
    }

    /// Transactions (other than ancestors of `tx`) holding conflicting
    /// locks: any write holder always conflicts; readers conflict only for
    /// write requests.
    pub fn blockers(&self, tx: &TxNode, write: bool) -> Vec<&TxNode> {
        let mut out: Vec<&TxNode> = self
            .chain
            .iter()
            .filter(|e| !e.owner.is_ancestor_of(tx))
            .map(|e| &*e.owner)
            .collect();
        if write {
            for r in &self.readers {
                if !r.is_ancestor_of(tx) && !out.iter().any(|b| b.id == r.id) {
                    out.push(r);
                }
            }
        }
        out
    }

    /// Moss' grant rule, gated on no write handoff being in flight.
    pub fn grantable(&self, tx: &TxNode, write: bool) -> bool {
        if self.write_pending.is_some() {
            return false;
        }
        let writes_ok = self.chain.iter().all(|e| e.owner.is_ancestor_of(tx));
        if !write {
            return writes_ok;
        }
        writes_ok && self.readers.iter().all(|r| r.is_ancestor_of(tx))
    }

    /// `true` when some current lock holder is an ancestor of `tx`. A
    /// grantable request may then bypass a non-empty waiter queue: queueing
    /// it behind a stranger that waits on its own ancestor would deadlock
    /// (re-entrant and parent/child accesses must never queue behind
    /// requests they themselves block).
    pub fn holder_is_ancestor(&self, tx: &TxNode) -> bool {
        self.chain.iter().any(|e| e.owner.is_ancestor_of(tx))
            || self.readers.iter().any(|r| r.is_ancestor_of(tx))
    }

    /// Record a read lock for `owner`.
    pub fn add_reader(&mut self, owner: &Arc<TxNode>, skip_if_writing: bool) {
        if skip_if_writing && self.chain.iter().any(|e| e.owner.id == owner.id) {
            return; // footnote-8: write lock subsumes the read lock
        }
        if !self.readers.iter().any(|r| r.id == owner.id) {
            self.readers.push(owner.clone());
        }
    }

    /// The state a granted *read* by `tx` observes: the deepest version
    /// owned by an ancestor of `tx`, else the base. On the fast path this
    /// is exactly `chain.last()` (the grant rule makes every owner an
    /// ancestor); after a queued handoff a deeper non-ancestor version may
    /// already have been granted on top, and Moss' read semantics say the
    /// reader sees its ancestors' state, not the stranger's.
    pub fn read_target(&mut self, tx: &TxNode) -> &mut Box<dyn AnyState> {
        match self.chain.iter().rposition(|e| e.owner.is_ancestor_of(tx)) {
            Some(i) => &mut self.chain[i].state,
            None => &mut self.base,
        }
    }

    /// The version a handed-off *write* grant mutates: the entry the
    /// releaser installed for `owner` (found by id — `writable_state`
    /// would wrongly push a fresh entry above any descendant version
    /// granted since). Falls back to installing one for exotic races where
    /// the entry vanished without dooming the owner.
    pub fn write_target(&mut self, owner: &Arc<TxNode>) -> &mut Box<dyn AnyState> {
        match self.chain.iter().position(|e| e.owner.id == owner.id) {
            Some(i) => &mut self.chain[i].state,
            None => self.writable_state(owner),
        }
    }

    /// Ensure the top of the chain is a version owned by `owner`, cloning
    /// the current state if needed, and return a mutable handle to it.
    pub fn writable_state(&mut self, owner: &Arc<TxNode>) -> &mut Box<dyn AnyState> {
        let owns_top = matches!(self.chain.last(), Some(e) if e.owner.id == owner.id);
        if !owns_top {
            let snapshot = self.current().clone_box();
            debug_assert!(
                self.chain.iter().all(|e| e.owner.is_ancestor_of(owner)),
                "write version pushed while non-ancestors hold locks"
            );
            self.chain.push(ChainEntry {
                owner: owner.clone(),
                state: snapshot,
            });
        }
        &mut self.chain.last_mut().expect("just ensured").state
    }

    /// Commit-time inheritance: hand `tx`'s locks and version to `heir`
    /// (`None` = publish to the base — top-level commit). Reports what
    /// actually moved so the caller can trace the transfer.
    pub fn inherit(
        &mut self,
        tx: &TxNode,
        heir: Option<&Arc<TxNode>>,
        drop_read_on_write: bool,
    ) -> InheritOutcome {
        let mut outcome = InheritOutcome::default();
        if let Some(pos) = self.chain.iter().position(|e| e.owner.id == tx.id) {
            debug_assert_eq!(
                pos,
                self.chain.len() - 1,
                "committing holder must be deepest"
            );
            let entry = self.chain.remove(pos);
            outcome.moved_version = true;
            match heir {
                None => {
                    self.base = entry.state;
                }
                Some(h) => {
                    if let Some(parent_entry) = self.chain.iter_mut().find(|e| e.owner.id == h.id) {
                        parent_entry.state = entry.state;
                    } else {
                        self.chain.push(ChainEntry {
                            owner: h.clone(),
                            state: entry.state,
                        });
                    }
                    if drop_read_on_write {
                        self.readers.retain(|r| r.id != h.id);
                    }
                }
            }
        }
        if let Some(pos) = self.readers.iter().position(|r| r.id == tx.id) {
            self.readers.swap_remove(pos);
            outcome.moved_read = true;
            if let Some(h) = heir {
                let heir_writes = self.chain.iter().any(|e| e.owner.id == h.id);
                if !(drop_read_on_write && heir_writes) {
                    self.add_reader(h, false);
                }
            }
        }
        outcome
    }

    /// Abort-time discard: drop every version and read lock held by `tx` or
    /// any of its descendants. The surviving deepest version (or the base)
    /// *is* the restored state — no undo log needed. Returns
    /// `(versions_dropped, readers_dropped)` for rollback tracing.
    pub fn discard_subtree(&mut self, tx: &TxNode) -> (usize, usize) {
        let (nv, nr) = (self.chain.len(), self.readers.len());
        self.chain.retain(|e| !tx.is_ancestor_of(&e.owner));
        self.readers.retain(|r| !tx.is_ancestor_of(r));
        // If the discard swallowed an unapplied write handoff's version,
        // lift the latch — the doomed writer will never apply, and leaving
        // it set would wedge the object.
        if let Some(pid) = self.write_pending {
            if !self.chain.iter().any(|e| e.owner.id == pid) {
                self.write_pending = None;
            }
        }
        (nv - self.chain.len(), nr - self.readers.len())
    }
}

/// What a call to [`ObjectInner::inherit`] actually transferred.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct InheritOutcome {
    /// A version owned by the committer moved to the heir (or the base).
    pub moved_version: bool,
    /// A read lock owned by the committer moved to the heir (or lapsed).
    pub moved_read: bool,
}

impl InheritOutcome {
    /// `true` when the commit transferred anything on this object.
    pub fn any(&self) -> bool {
        self.moved_version || self.moved_read
    }
}

/// One object: its lock table plus the waiter handoff queue, and the
/// multi-version snapshot chain (outside the mutex — readers never lock).
pub(crate) struct ObjectSlot {
    pub name: String,
    pub inner: Mutex<ObjectInner>,
    /// Committed-version chain for lock-free snapshot reads. Mutated only
    /// under `inner`'s mutex (publish on top-commit, GC), read lock-free.
    pub snap: SnapshotCell,
    /// EWMA of recent hold-tenure lengths in nanoseconds (0 = no sample
    /// yet). Written by release scans, read lock-free by the blocking
    /// driver's adaptive spin (`future.rs`). Purely a latency hint: a torn
    /// or stale value can only make a waiter spin a little more or less.
    #[cfg_attr(loom, allow(dead_code))]
    hold_ewma_ns: AtomicU64,
    /// Set (under the slot mutex) when a waiter is queued here, cleared
    /// (under the slot mutex) by the sweeper pass that finds the queue
    /// empty. The sweeper reads it lock-free to visit only slots that may
    /// hold a wait it has to time out; see `sweeper.rs`.
    pub sweep_hint: AtomicBool,
    /// WAL encode/decode pair for durable objects
    /// ([`crate::TxManager::register_durable`]); `None` means the object is
    /// memory-only and the WAL skips it entirely.
    pub codec: Option<crate::wal::WalCodec>,
}

impl ObjectSlot {
    pub fn new(name: String, initial: Box<dyn AnyState>) -> ObjectSlot {
        Self::build(name, initial, None)
    }

    /// Like [`ObjectSlot::new`], but the object's committed state rides the
    /// write-ahead log with the given codec.
    pub fn with_codec(
        name: String,
        initial: Box<dyn AnyState>,
        codec: crate::wal::WalCodec,
    ) -> ObjectSlot {
        Self::build(name, initial, Some(codec))
    }

    fn build(
        name: String,
        initial: Box<dyn AnyState>,
        codec: Option<crate::wal::WalCodec>,
    ) -> ObjectSlot {
        let snap = SnapshotCell::new(initial.clone_box());
        ObjectSlot {
            name,
            inner: Mutex::new(ObjectInner {
                base: initial,
                chain: Vec::new(),
                readers: Vec::new(),
                queue: VecDeque::new(),
                head_edges: Vec::new(),
                write_pending: None,
                tenure_start: None,
                hint_warm: false,
            }),
            snap,
            hold_ewma_ns: AtomicU64::new(0),
            sweep_hint: AtomicBool::new(false),
            codec,
        }
    }

    /// Fold one observed hold tenure into the EWMA (α = 1/4; the first
    /// sample seeds the average directly).
    #[cfg_attr(loom, allow(dead_code))]
    pub fn note_hold_ns(&self, ns: u64) {
        // relaxed(hold-ewma): single-writer-at-a-time performance hint (the
        // folding thread holds the slot mutex); readers tolerate any stale
        // value, so no ordering is needed — atomicity only.
        let prev = self.hold_ewma_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            ns.max(1)
        } else {
            (prev - prev / 4 + ns / 4).max(1)
        };
        // relaxed(hold-ewma): see above — hint store, no ordering role.
        self.hold_ewma_ns.store(next, Ordering::Relaxed);
    }

    /// Current hold-time hint in nanoseconds (0 = no sample yet). Read
    /// lock-free from the wait path.
    #[inline]
    #[cfg_attr(loom, allow(dead_code))]
    pub fn hold_hint_ns(&self) -> u64 {
        // relaxed(hold-ewma): lock-free read of a spin-duration hint; any
        // stale value is acceptable.
        self.hold_ewma_ns.load(Ordering::Relaxed)
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

    fn inner() -> ObjectInner {
        ObjectInner {
            base: Box::new(0i64),
            chain: Vec::new(),
            readers: Vec::new(),
            queue: VecDeque::new(),
            head_edges: Vec::new(),
            write_pending: None,
            tenure_start: None,
            hint_warm: false,
        }
    }

    /// A waiter for `tx` (its own owner) with a deadline far in the future
    /// and a waker that does nothing.
    fn waiter(tx: &Arc<TxNode>, write: bool) -> Arc<Waiter> {
        let now = Instant::now();
        let deadline = now + std::time::Duration::from_secs(3600);
        Waiter::new(
            tx.clone(),
            tx.clone(),
            write,
            now,
            deadline,
            Waker::noop().clone(),
        )
    }

    fn read_i64(s: &dyn AnyState) -> i64 {
        *s.as_any().downcast_ref::<i64>().unwrap()
    }

    #[test]
    fn write_creates_version_and_updates_current() {
        let (p, ..) = nodes();
        let mut o = inner();
        *o.writable_state(&p)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 42;
        assert_eq!(read_i64(o.current()), 42);
        assert_eq!(
            read_i64(o.base.as_ref()),
            0,
            "base untouched until top commit"
        );
        assert_eq!(o.chain.len(), 1);
    }

    #[test]
    fn reentrant_write_reuses_version() {
        let (p, ..) = nodes();
        let mut o = inner();
        *o.writable_state(&p)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 1;
        *o.writable_state(&p)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 2;
        assert_eq!(o.chain.len(), 1);
        assert_eq!(read_i64(o.current()), 2);
    }

    #[test]
    fn grant_rule_follows_ancestry() {
        let (p, c, g, q) = nodes();
        let mut o = inner();
        let _ = o.writable_state(&c);
        // Descendant of the holder: fine. Ancestor of the holder: blocked
        // (the holder is not an ancestor of the requester).
        assert!(o.grantable(&g, true));
        assert!(!o.grantable(&p, true));
        assert!(!o.grantable(&q, false));
        // Readers block writers but not readers.
        let mut o2 = inner();
        o2.add_reader(&c, false);
        assert!(o2.grantable(&q, false));
        assert!(!o2.grantable(&q, true));
        assert!(o2.grantable(&g, true), "reader is an ancestor of g");
    }

    #[test]
    fn write_pending_blocks_everyone() {
        let (p, c, g, q) = nodes();
        let mut o = inner();
        let _ = o.writable_state(&c);
        o.write_pending = Some(c.id);
        assert!(!o.grantable(&g, true), "even descendants wait for apply");
        assert!(!o.grantable(&q, false));
        o.write_pending = None;
        assert!(o.grantable(&g, true));
        let _ = p;
    }

    #[test]
    fn discard_clears_orphaned_write_pending() {
        let (p, c, _, q) = nodes();
        let mut o = inner();
        let _ = o.writable_state(&c);
        o.write_pending = Some(c.id);
        o.discard_subtree(&p);
        assert_eq!(o.write_pending, None, "doomed handoff must lift the latch");
        // A surviving pending entry keeps the latch.
        let _ = o.writable_state(&q);
        o.write_pending = Some(q.id);
        o.discard_subtree(&p);
        assert_eq!(o.write_pending, Some(q.id));
    }

    #[test]
    fn ancestor_holder_allows_queue_bypass() {
        let (p, c, g, q) = nodes();
        let mut o = inner();
        let _ = o.writable_state(&c);
        let w = waiter(&q, true);
        o.queue.push_back(w);
        assert!(o.holder_is_ancestor(&g), "write holder c is an ancestor");
        assert!(!o.holder_is_ancestor(&q), "stranger must queue");
        assert!(!o.holder_is_ancestor(&p), "parent of holder is not covered");
        let mut o2 = inner();
        o2.add_reader(&c, false);
        assert!(o2.holder_is_ancestor(&g), "reader counts too");
    }

    #[test]
    fn read_target_skips_non_ancestor_versions() {
        let (p, c, _, q) = nodes();
        let mut o = inner();
        *o.writable_state(&p)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 7;
        // Simulate a stranger's version granted deeper after p's (cannot
        // happen while p holds, but read_target must not depend on that).
        o.chain.push(ChainEntry {
            owner: q.clone(),
            state: Box::new(99i64),
        });
        assert_eq!(read_i64(o.read_target(&c).as_ref()), 7);
        assert_eq!(read_i64(o.read_target(&q).as_ref()), 99);
        let stranger = TxNode::top_level(8);
        assert_eq!(read_i64(o.read_target(&stranger).as_ref()), 0, "base");
    }

    #[test]
    fn write_target_finds_entry_by_id_not_top() {
        let (p, c, ..) = nodes();
        let mut o = inner();
        *o.writable_state(&p)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 1;
        *o.writable_state(&c)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 2;
        // p's handed-off write must hit p's own entry, not push above c.
        *o.write_target(&p)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 5;
        assert_eq!(o.chain.len(), 2);
        assert_eq!(read_i64(o.chain[0].state.as_ref()), 5);
        assert_eq!(read_i64(o.current()), 2);
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
        let mut o = inner();
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
        let (p, c, _, q) = nodes();
        let mut o = inner();
        let _ = o.writable_state(&c);
        o.add_reader(&p, false);
        let b = o.blockers(&q, true);
        let ids: Vec<u64> = b.iter().map(|n| n.id).collect();
        assert!(ids.contains(&c.id));
        assert!(ids.contains(&p.id));
        // For a read request only write holders block.
        let b = o.blockers(&q, false);
        assert_eq!(b.iter().map(|n| n.id).collect::<Vec<_>>(), vec![c.id]);
    }

    #[test]
    fn inherit_merges_into_parent_version() {
        let (p, c, g, _) = nodes();
        let mut o = inner();
        *o.writable_state(&c)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 5;
        *o.writable_state(&g)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 9;
        // g commits: its version replaces... becomes c's (c already owns one).
        let out = o.inherit(&g, Some(&c), false);
        assert!(out.moved_version && !out.moved_read && out.any());
        assert_eq!(o.chain.len(), 1);
        assert_eq!(o.chain[0].owner.id, c.id);
        assert_eq!(read_i64(o.current()), 9);
        // c commits to p (no version yet): rename.
        o.inherit(&c, Some(&p), false);
        assert_eq!(o.chain[0].owner.id, p.id);
        // p top-level commit: publish to base.
        o.inherit(&p, None, false);
        assert!(o.chain.is_empty());
        assert_eq!(read_i64(o.base.as_ref()), 9);
    }

    #[test]
    fn inherit_moves_read_locks() {
        let (p, c, _, _) = nodes();
        let mut o = inner();
        o.add_reader(&c, false);
        o.inherit(&c, Some(&p), false);
        assert_eq!(o.readers.len(), 1);
        assert_eq!(o.readers[0].id, p.id);
        // Top-level commit drops the read lock.
        o.inherit(&p, None, false);
        assert!(o.readers.is_empty());
    }

    #[test]
    fn footnote8_drops_read_when_heir_writes() {
        let (p, c, _, _) = nodes();
        let mut o = inner();
        *o.writable_state(&p)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 1;
        o.add_reader(&c, false);
        o.inherit(&c, Some(&p), true);
        assert!(
            o.readers.is_empty(),
            "p holds a write lock; read lock dropped"
        );
    }

    #[test]
    fn discard_restores_previous_version() {
        let (p, c, g, _) = nodes();
        let mut o = inner();
        *o.writable_state(&p)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 1;
        *o.writable_state(&c)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 2;
        *o.writable_state(&g)
            .as_any_mut()
            .downcast_mut::<i64>()
            .unwrap() = 3;
        assert_eq!(o.discard_subtree(&c), (2, 0));
        assert_eq!(read_i64(o.current()), 1, "c and g versions discarded");
        assert_eq!(o.chain.len(), 1);
        assert_eq!(o.discard_subtree(&p), (1, 0));
        assert_eq!(read_i64(o.current()), 0, "back to base");
    }

    #[test]
    fn discard_removes_subtree_readers() {
        let (p, c, g, q) = nodes();
        let mut o = inner();
        o.add_reader(&g, false);
        o.add_reader(&q, false);
        o.discard_subtree(&c);
        assert_eq!(o.readers.len(), 1);
        assert_eq!(o.readers[0].id, q.id);
        let _ = p;
    }

    #[test]
    fn hold_ewma_converges_and_seeds_from_first_sample() {
        let slot = ObjectSlot::new("x".into(), Box::new(0i64));
        assert_eq!(slot.hold_hint_ns(), 0, "no sample yet");
        slot.note_hold_ns(1_000);
        assert_eq!(slot.hold_hint_ns(), 1_000, "first sample seeds the EWMA");
        for _ in 0..64 {
            slot.note_hold_ns(9_000);
        }
        let hint = slot.hold_hint_ns();
        assert!((8_000..=9_000).contains(&hint), "converges upward: {hint}");
        slot.note_hold_ns(0);
        assert!(slot.hold_hint_ns() >= 1, "a sample keeps the hint non-zero");
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
    fn footnote8_skips_redundant_read_lock() {
        let (p, ..) = nodes();
        let mut o = inner();
        let _ = o.writable_state(&p);
        o.add_reader(&p, true);
        assert!(o.readers.is_empty());
        o.add_reader(&p, false);
        assert_eq!(o.readers.len(), 1);
    }
}
