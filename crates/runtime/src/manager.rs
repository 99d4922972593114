//! The transaction manager: object store, lock service, statistics.
//!
//! The access path is engineered to have **no global contention point**:
//! the object store is an append-only slab with lock-free lookup
//! ([`crate::slab::Slab`]), the stat counters are striped ([`Stats`]), the
//! trace buffer is sharded with an atomic sequence stamp, and there is no
//! global mutex: the wait-for graph lives in per-top records, and a queue
//! change locks only the record of the waiter's own top. Two transactions
//! touching disjoint objects share *nothing* on the hot path but the
//! transaction-id counter, waiting or not.
//!
//! Contended objects use **queued direct handoff** instead of park/retry:
//! a blocked request enqueues a [`Waiter`] — a queue node with one wake
//! slot and one deadline — on the object's FIFO queue, and its requester
//! (a blocking thread or a polled future; `future.rs`) waits for the node
//! to resolve. Whoever releases lock state (a top-level commit, abort
//! rollback, a handed-off writer finishing its apply, and a child's commit
//! while its top has a queued request) runs
//! [`ManagerInner::release_scan`] under the slot mutex: it computes one
//! maximal **grant wave** — the run of compatible waiters pickable under
//! the grant rule (FIFO head, else an ancestor-held bypass) — installs all
//! of its lock state on the releasing thread, publishes one aggregated
//! stats delta and one batched trace record for the whole wave, and wakes
//! exactly the granted waiters. It inspects the waiters it resolves and
//! the head, never the rest of the queue: doom reaches a queued waiter
//! through the abort that caused it ([`ManagerInner::abort_subtree`]), and
//! the one sweeper (`sweeper.rs`) withdraws every wait that outlives its
//! deadline. Waiters never wake to re-fight for the mutex.
//!
//! **Deadlocks** are found in the same queues, by the one rule die on
//! cycle ([`crate::deadlock`]). A waiter's wait-for edges follow from its
//! place in its queue — the top of the waiter ahead of it, or for the head
//! the tops of the holders it conflicts with — so they change only where
//! the queue does, under the slot mutex: an enqueue adds a node and
//! searches ([`ManagerInner::enqueue_waiter`]), a leave moves only its
//! successor's edge ([`ManagerInner::dequeue`]), and the end of every
//! release scan recomputes the head's holder edges. An edge change that
//! adds a target searches from its top, unless nothing points at it.
//! Nothing ever walks a queue to refresh edges.

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, MutexGuard, Weak};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::num::NonZeroU64;
use std::task::Waker;
use std::time::Instant;

use crate::config::RtConfig;
use crate::deadlock::{self, Cycle};
use crate::error::TxError;
use crate::fault::{FaultAction, FaultContext, FaultPoint};
use crate::inline::InlineVec;
use crate::mvcc::{Detached, SnapshotCell, Version};
use crate::node::{insert_sorted, ObjSet, TxNode, TxState};
use crate::object::{
    Names, ObjectInner, ObjectSlot, StateRef, TopSet, Waiter, W_CANCELLED, W_GRANTED, W_TIMEDOUT,
    W_WAITING,
};
use crate::slab::Slab;
use crate::stats::{Ctr, Stats, StatsSnapshot};
use crate::sweeper::Sweeper;
use crate::trace::RtEvent;
use crate::tx::Tx;
use crate::wal::{OpenRecord, SyncClaim, Wal, WalCodec, WalState};

/// Typed handle to a registered object.
///
/// Obtained from [`TxManager::register`]; the phantom type parameter ties
/// every access back to the registration type, so downcasts inside the
/// store cannot fail.
pub struct ObjRef<T> {
    pub(crate) idx: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for ObjRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ObjRef<T> {}

impl<T> std::fmt::Debug for ObjRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObjRef#{}", self.idx)
    }
}

pub(crate) struct ManagerInner {
    pub config: RtConfig,
    pub objects: Slab<ObjectSlot>,
    /// Every object's name, by slab index: read only by diagnostics and
    /// recovery's error messages, so no slot carries one.
    pub names: Mutex<Names>,
    pub next_tx_id: AtomicU64,
    pub stats: Stats,
    /// Commit-timestamp ticket dispenser: a committing top-level
    /// transaction that published at least one version takes
    /// `fetch_add(1) + 1` here, so tickets are dense and start at 1
    /// (timestamp 0 is the pre-registered genesis version).
    pub ts_alloc: AtomicU64,
    /// The snapshot clock: highest commit timestamp whose versions are
    /// *all* published. Advanced ticket-by-ticket through the publication
    /// turnstile of [`ManagerInner::commit_top`], so a snapshot at
    /// `S = commit_ts` sees every version with `ts <= S` on every object.
    pub commit_ts: AtomicU64,
    /// Live snapshot registry: timestamp -> number of open [`Snapshot`]
    /// handles at that timestamp. The mutex serialises snapshot creation
    /// against GC watermark computation (lock order: slot mutex may be
    /// held while taking this; never the reverse).
    pub live_snapshots: Mutex<BTreeMap<u64, usize>>,
    /// Open [`Snapshot`] handles: the registry's total, kept outside its
    /// mutex so [`ManagerInner::gc_watermark`] skips the mutex while no
    /// snapshot is open.
    pub snapshots_open: AtomicUsize,
    /// Write-ahead log (`None` when [`RtConfig::wal_dir`] is unset — the
    /// default — in which case the commit path pays a single `Option`
    /// branch and no io).
    pub wal: Option<Wal>,
    /// Times out every expired waiter ([`Self::sweep_slot`]) and late
    /// group batch: one thread, spawned by the first one, stopped and
    /// joined when the manager drops.
    pub(crate) sweeper: Arc<Sweeper>,
}

impl Drop for ManagerInner {
    fn drop(&mut self) {
        self.sweeper.shutdown();
    }
}

impl ManagerInner {
    fn with_config(config: RtConfig, me: Weak<ManagerInner>) -> ManagerInner {
        let wal = config.wal_dir.as_ref().map(|dir| {
            Wal::open(dir, config.fsync_policy, config.checkpoint_every)
                .unwrap_or_else(|e| panic!("failed to open WAL at {}: {e}", dir.display()))
        });
        ManagerInner {
            sweeper: Sweeper::new(me, config.wait_timeout),
            config,
            wal,
            objects: Slab::new(),
            names: Mutex::new(Names::default()),
            next_tx_id: AtomicU64::new(1),
            stats: Stats::default(),
            ts_alloc: AtomicU64::new(0),
            commit_ts: AtomicU64::new(0),
            live_snapshots: Mutex::new(BTreeMap::new()),
            snapshots_open: AtomicUsize::new(0),
        }
    }
}

/// The nested-transaction manager (cheaply clonable; clones share state).
#[derive(Clone)]
pub struct TxManager {
    pub(crate) inner: Arc<ManagerInner>,
}

impl TxManager {
    /// A fresh manager with no objects.
    pub fn new(config: RtConfig) -> TxManager {
        TxManager {
            inner: Arc::new_cyclic(|me| ManagerInner::with_config(config, me.clone())),
        }
    }

    /// Register a shared object with its initial (committed) state.
    pub fn register<T: Clone + Send + Sync + 'static>(
        &self,
        name: impl Into<String>,
        initial: T,
    ) -> ObjRef<T> {
        let slot = ObjectSlot::new(Version::new(initial), None);
        let idx = self.inner.register(&name.into(), slot);
        ObjRef {
            idx,
            _marker: PhantomData,
        }
    }

    /// Register a *durable* object: like [`TxManager::register`], but the
    /// committed state is appended to the write-ahead log at every
    /// top-level commit and rebuilt by [`TxManager::recover`] after a
    /// crash. Harmless without a WAL configured (the codec never runs).
    ///
    /// Recovery addresses objects by slab index, so durable objects must
    /// be registered in the same order with the same types across
    /// restarts.
    pub fn register_durable<T: WalState>(&self, name: impl Into<String>, initial: T) -> ObjRef<T> {
        let slot = ObjectSlot::new(Version::new(initial), Some(WalCodec::of::<T>()));
        let idx = self.inner.register(&name.into(), slot);
        ObjRef {
            idx,
            _marker: PhantomData,
        }
    }

    /// Begin a top-level transaction.
    pub fn begin(&self) -> Tx {
        // relaxed(tx-id): id allocation only needs uniqueness, which the
        // atomic RMW provides; ids carry no ordering obligations.
        let id = self.inner.next_tx_id.fetch_add(1, Ordering::Relaxed);
        self.inner.stats.bump(Ctr::Begun);
        self.inner.trace(RtEvent::Begin {
            tx: id,
            parent: None,
        });
        Tx::new(TxNode::top_of(self.inner.clone(), id))
    }

    /// Read the *committed* (top-level published) state of an object,
    /// outside any transaction.
    pub fn read_committed<T: 'static, R>(&self, obj: &ObjRef<T>, f: impl FnOnce(&T) -> R) -> R {
        let slot = self.inner.slot(obj.idx);
        let guard = slot.inner.lock();
        f(slot
            .snap
            .head(&guard)
            .as_any()
            .downcast_ref::<T>()
            .expect("ObjRef type mismatch"))
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        let mut s = self.inner.stats.snapshot();
        if let Some(w) = &self.inner.wal {
            s.group_commit_batch_max = w.batch_max();
        }
        s
    }

    /// Number of registered objects.
    pub fn object_count(&self) -> usize {
        self.inner.objects.len()
    }

    /// Name of an object (diagnostics).
    pub fn object_name<T>(&self, obj: &ObjRef<T>) -> String {
        self.inner.object_name(obj.idx)
    }

    /// Total lock waiters currently queued across all objects
    /// (diagnostics; at quiescence this must be zero — cancelled and timed
    /// out waiters are removed in place, never leaked).
    pub fn queued_waiters(&self) -> usize {
        (0..self.inner.objects.len())
            .map(|i| self.inner.objects.get(i).inner.lock().waiters())
            .sum()
    }

    /// Open a consistent read snapshot at the current commit timestamp.
    ///
    /// The snapshot sees every version published by top-level commits with
    /// timestamp `<= ts()` on every object, and nothing newer. Reads
    /// through it are lock-free and never wait. Registration pins the
    /// timestamp against garbage collection until the handle is dropped.
    pub fn snapshot(&self) -> Snapshot {
        let ts = {
            let mut reg = self.inner.live_snapshots.lock();
            // Read the clock under the registry mutex so a concurrent GC
            // watermark computation either sees this entry or computes a
            // watermark from a clock value `<=` the one we are about to pin.
            self.inner.snapshots_open.fetch_add(1, Ordering::SeqCst);
            let ts = self.inner.commit_ts.load(Ordering::SeqCst);
            *reg.entry(ts).or_insert(0) += 1;
            ts
        };
        self.inner.stats.bump(Ctr::SnapshotsOpened);
        Snapshot {
            mgr: self.inner.clone(),
            ts,
        }
    }

    /// Garbage-collect versions unreachable by any live or future
    /// snapshot, across all objects. Returns the number of versions freed.
    ///
    /// Collection also runs incrementally on every publish; this entry
    /// point exists for tests and for reclaiming after the last snapshot
    /// on an idle manager is dropped.
    pub fn collect_garbage(&self) -> usize {
        let watermark = self.inner.gc_watermark();
        let mut freed = 0;
        for i in 0..self.inner.objects.len() {
            let slot = self.inner.objects.get(i);
            let dead = {
                let _guard = slot.inner.lock();
                slot.snap.collect(watermark)
            };
            // Freed with the slot mutex down: a state's `Drop` is user code.
            freed += dead.free();
        }
        self.inner.stats.add(Ctr::VersionsCollected, freed as u64);
        freed
    }

    /// Length of an object's committed-version chain (diagnostics and GC
    /// regression tests; includes the genesis version).
    pub fn version_chain_len<T>(&self, obj: &ObjRef<T>) -> usize {
        let slot = self.inner.slot(obj.idx);
        // The full walk visits nodes below the GC cut, which the reader
        // pin protocol does not protect; the slot mutex serializes it
        // with publication and the incremental GC at publish time.
        let _guard = slot.inner.lock();
        slot.snap.chain_len()
    }

    /// Clone an object's whole committed-version chain as `(ts, value)`
    /// pairs, oldest first (genesis at ts 0 included). The kill-and-recover
    /// differential check uses this to know the committed value at an
    /// arbitrary recovered timestamp; hold a [`TxManager::snapshot`] from
    /// before the first commit if the full history must survive GC.
    pub fn version_history<T: Clone + 'static>(&self, obj: &ObjRef<T>) -> Vec<(u64, T)> {
        let slot = self.inner.slot(obj.idx);
        // Slot mutex, not the reader pin: the walk crosses the GC cut down
        // to genesis (same argument as `version_chain_len`).
        let _guard = slot.inner.lock();
        slot.snap.history(|st| {
            st.as_any()
                .downcast_ref::<T>()
                .expect("ObjRef type mismatch")
                .clone()
        })
    }

    /// The commit clock: highest commit timestamp whose versions are all
    /// published (what a fresh [`TxManager::snapshot`] would read at).
    pub fn commit_clock(&self) -> u64 {
        self.inner.commit_ts.load(Ordering::SeqCst)
    }

    /// Whether a simulated crash (or a WAL io error) has frozen the log.
    /// Always `false` when no WAL is configured.
    pub fn wal_frozen(&self) -> bool {
        self.inner.wal.as_ref().is_some_and(Wal::is_frozen)
    }

    /// Highest commit timestamp the WAL guarantees on stable storage
    /// (trails [`TxManager::commit_clock`] under group commit; 0 when no
    /// WAL is configured).
    pub fn wal_durable_ts(&self) -> u64 {
        self.inner.wal.as_ref().map_or(0, Wal::durable_ts)
    }

    /// Bytes appended to the WAL's live segment but not yet fsynced (0
    /// when no WAL is configured). Lets crash tests aim a torn tail at a
    /// specific record boundary.
    pub fn wal_unsynced_bytes(&self) -> u64 {
        self.inner.wal.as_ref().map_or(0, Wal::unsynced_bytes)
    }

    /// Simulate power loss: freeze the WAL (no further bytes ever reach
    /// disk) and truncate its live segment to the synced prefix plus
    /// `keep_unsynced` bytes of unsynced tail — usually mid-record, which
    /// is exactly the torn tail recovery must repair. The in-memory
    /// manager stays alive so a test driver can wind down open
    /// transactions before reopening from the log.
    pub fn wal_crash_teardown(&self, keep_unsynced: u64) -> Result<(), TxError> {
        let Some(w) = &self.inner.wal else {
            return Err(TxError::Recovery("no WAL configured".into()));
        };
        w.crash_teardown(keep_unsynced)
            .map_err(|e| TxError::Recovery(format!("teardown truncate failed: {e}")))
    }
}

/// A consistent, lock-free read view of all committed state as of a fixed
/// commit timestamp (see [`TxManager::snapshot`]).
///
/// Dropping the handle deregisters the timestamp, allowing version GC to
/// advance past it.
pub struct Snapshot {
    mgr: Arc<ManagerInner>,
    ts: u64,
}

impl Snapshot {
    /// The commit timestamp this snapshot reads at.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Read an object's newest version committed at or before [`Self::ts`].
    /// Takes no lock and never waits.
    pub fn read<T: 'static, R>(&self, obj: &ObjRef<T>, f: impl FnOnce(&T) -> R) -> R {
        let slot = self.mgr.slot(obj.idx);
        let (_ver_ts, out) = slot.snap.read(
            || self.ts,
            |st| f(st.downcast_ref::<T>().expect("ObjRef type mismatch")),
        );
        self.mgr.stats.bump(Ctr::SnapshotReads);
        self.mgr.trace(RtEvent::SnapRead {
            tx: 0,
            obj: obj.idx,
            ts: self.ts,
        });
        out
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut reg = self.mgr.live_snapshots.lock();
        if let Some(n) = reg.get_mut(&self.ts) {
            *n -= 1;
            if *n == 0 {
                reg.remove(&self.ts);
            }
        }
        self.mgr.snapshots_open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The error a doomed requester reports: a deadlock victim's doom is
/// retryable scheduling ([`TxError::Deadlock`]), anything else is
/// [`TxError::Doomed`].
fn doom_error(node: &TxNode) -> TxError {
    if node.victim_flagged() {
        TxError::Deadlock
    } else {
        TxError::Doomed
    }
}

/// Outcome of [`ManagerInner::access_attempt`]: either the request
/// resolved without waiting (inline grant or a fail-fast error), or a
/// waiter node was enqueued and the caller must wait for it to reach a
/// final state before applying the closure. The closure rides along
/// unconsumed so the caller's state machine (`future.rs`) can hand it to
/// [`ManagerInner::finish_after_wait`] once the grant lands.
pub(crate) enum Attempt<R, F> {
    Done(Result<R, TxError>),
    Queued { w: Arc<Waiter>, f: F },
}

/// The edge of a waiter queued right behind `ahead`: `ahead`'s top, unless
/// the two share one (a top's waiters share its out-edges anyway).
pub(crate) fn top_edge(ahead: &Waiter, behind: &Waiter) -> Option<u64> {
    let top = ahead.node.top_level_id();
    (top != behind.node.top_level_id()).then_some(top)
}

/// A deadlock search to run once the slot guard is down: from `top`,
/// found while `waiter` waits.
type Search = (u64, Arc<TxNode>);

/// A search from `top`, unless nothing points at it: then no cycle runs
/// through it, and this read is the search's own (`deadlock::enter` orders
/// it after the edge change that asks for the search).
fn search_from(waiter: u64, top: &Arc<TxNode>) -> Option<Search> {
    top.wait.pointed_at().then(|| (waiter, top.clone()))
}

/// What a release scan leaves for its caller to do once the slot guard is
/// down: wake the waiters whose state it resolved, free the versions its
/// grants made the lock table drop, and search for deadlock cycles from
/// the tops whose edges it grew. Inline for a wave of two and one search,
/// so a handoff allocates nothing.
#[must_use = "the scan's waiters stay asleep until the wake runs"]
#[derive(Default)]
pub(crate) struct Wake {
    waiters: InlineVec<Option<Arc<Waiter>>, 2>,
    dead: Detached,
    search_from: InlineVec<Option<Search>, 1>,
}

impl Wake {
    fn search(&mut self, search: Option<Search>) {
        if search.is_some() {
            self.search_from.push(search);
        }
    }

    /// Deliver. Run with no slot mutex held — a victim's abort re-locks
    /// touched slots.
    pub(crate) fn run(self, mgr: &ManagerInner) {
        for w in self.waiters.iter().flatten() {
            w.wake();
        }
        drop(self.dead);
        for (waiter, top) in self.search_from.iter().flatten() {
            mgr.resolve(*waiter, top);
        }
    }
}

/// One drawn publication ticket; its `Drop` passes the turnstile,
/// advancing `commit_ts` over `ts` — **including on unwind**. Without
/// this, a committer that panics between drawing its ticket and storing
/// `commit_ts` (e.g. a user `encode_wal` panicking while its durable
/// object's version is encoded into the commit record) would leave the
/// clock stuck below its ticket and every later top-level committer
/// spinning forever.
/// A panicking encode now unwinds in the commit's first pass, before the
/// node commits, and the tree is aborted; the ticket still passes the
/// turnstile, with nothing to log.
struct TurnstileTicket<'a> {
    mgr: &'a ManagerInner,
    ts: u64,
    /// The committing top-level transaction (WAL record attribution).
    #[cfg_attr(loom, allow(dead_code))]
    top: u64,
    /// This commit's log record and its buffer, once a durable object is
    /// to be published: the first one opens the record, and each one
    /// appends its entry, encoded under its slot mutex in
    /// `ManagerInner::encode_durable` (`ts` is known from the draw). `drop` closes it — count, length, CRC —
    /// before the turnstile wait, and copies it into the WAL inside the
    /// turnstile window below — after the wait, before the `commit_ts`
    /// store — so durable record order is exactly the dense ticket order.
    wal_record: Option<(Vec<u8>, OpenRecord)>,
}

impl Drop for TurnstileTicket<'_> {
    fn drop(&mut self) {
        // Close the log record while other committers may still be ahead
        // of us: only the copy into the log has to happen in the window.
        // A commit that changed nothing durable skips the log entirely —
        // timestamp gaps in the log are harmless, recovery orders by ts —
        // and so does an unwinding one: a panicking committer may have
        // published only part of its write set, and a record of a partial
        // set must never become durable.
        #[cfg(not(loom))]
        let record = match self.wal_record.take() {
            Some((mut block, rec)) if !std::thread::panicking() => {
                let objects = rec.close(&mut block);
                Some((block, objects))
            }
            _ => None,
        };
        // Publication turnstile: wait for every earlier ticket's versions
        // to be fully published, then advance the snapshot clock over
        // ours. No mutex is held here (the slot guard is released before
        // the ticket drops, on the normal and the unwinding path alike);
        // earlier ticket holders advance through this same guard whether
        // or not they panicked and cannot block on us, so the spin is
        // bounded by their publication work.
        // Spin briefly for the common case (the earlier committer is
        // mid-publication on another core), then yield: if that committer
        // was preempted — guaranteed on a single-core host — burning the
        // rest of this timeslice on `spin_loop` turns every commit into a
        // scheduler-quantum stall and convoys the whole commit stream.
        #[cfg(not(loom))]
        {
            let mut spins = 0u32;
            while self.mgr.commit_ts.load(Ordering::SeqCst) != self.ts - 1 {
                crate::sync::hint::spin_loop();
                spins += 1;
                if spins >= 64 {
                    std::thread::yield_now();
                }
            }
        }
        #[cfg(loom)]
        while self.mgr.commit_ts.load(Ordering::SeqCst) != self.ts - 1 {
            crate::sync::hint::spin_loop();
        }
        // WAL appends ride the turnstile window: we are the only committer
        // between the wait above and the store below, so commit records
        // land in dense ticket order and the durable order can never
        // disagree with the order snapshot readers observe.
        #[cfg(not(loom))]
        let claim = record
            .and_then(|(block, objects)| self.mgr.wal_commit(self.ts, self.top, &block, objects));
        // Stamp the advance while still exclusive in the turnstile window
        // (before the store lets the next ticket through), so TSADV events
        // appear in the trace in dense, strictly increasing ticket order.
        self.mgr.trace(RtEvent::TsAdvance { ts: self.ts });
        self.mgr.commit_ts.store(self.ts, Ordering::SeqCst);
        // A group batch this commit made due: its device flush runs out
        // here, where it holds up no later committer.
        #[cfg(not(loom))]
        if let Some(claim) = claim {
            self.mgr.wal_sync(claim);
        }
    }
}

impl ManagerInner {
    /// Fetch an object slot: a lock-free slab lookup (no reader lock, no
    /// `Arc` clone — the slot lives as long as the manager).
    #[inline]
    pub(crate) fn slot(&self, idx: usize) -> &ObjectSlot {
        self.objects.get(idx)
    }

    /// Append `slot` to the store under `name`, returning its index.
    fn register(&self, name: &str, slot: ObjectSlot) -> usize {
        let mut names = self.names.lock();
        let idx = self.objects.push(slot);
        names.set(idx, name);
        idx
    }

    /// The name object `idx` was registered under.
    pub(crate) fn object_name(&self, idx: usize) -> String {
        self.names.lock().get(idx).to_owned()
    }

    /// Record a trace event if a recorder is configured (no-op otherwise).
    pub(crate) fn trace(&self, ev: RtEvent) {
        if let Some(t) = &self.config.trace {
            t.record(ev);
        }
    }

    /// Consult the configured fault injector at a yield point.
    /// [`FaultAction::Continue`] when no injector is plugged in.
    pub(crate) fn fault_decision(
        &self,
        point: FaultPoint,
        node: &Arc<TxNode>,
        obj: Option<usize>,
        write: bool,
    ) -> FaultAction {
        match &self.config.fault {
            None => FaultAction::Continue,
            Some(inj) => inj.decide(&FaultContext {
                point,
                tx: node.id,
                top: node.top_level_id(),
                depth: node.depth(),
                obj,
                write,
            }),
        }
    }

    /// Apply a non-[`FaultAction::Continue`] injected fault at a lock
    /// request and return the error the request fails with. Must NOT be
    /// called while holding an object slot mutex — aborting a subtree
    /// re-locks touched objects. Faults are consulted only before a waiter
    /// is enqueued, so there are never published wait-for edges to retract.
    fn apply_lock_fault(&self, action: FaultAction, node: &Arc<TxNode>, obj: usize) -> TxError {
        self.trace(RtEvent::Fault {
            tx: node.id,
            obj: Some(obj),
            action,
        });
        match action {
            FaultAction::Abort => {
                self.abort_subtree(node);
                TxError::Doomed
            }
            FaultAction::CrashSubtree => {
                self.abort_subtree(node.top());
                TxError::Doomed
            }
            FaultAction::Timeout => {
                self.stats.bump(Ctr::Timeouts);
                TxError::Timeout
            }
            FaultAction::DeadlockVictim => {
                self.stats.bump(Ctr::Deadlocks);
                TxError::Deadlock
            }
            // A process "crash" at a lock point degrades to dooming the
            // whole top-level tree: the WAL yield points are where crashes
            // are actually simulated (the log freezes there); a lock
            // request cannot kill the host process.
            FaultAction::CrashProcess => {
                self.abort_subtree(node.top());
                TxError::Doomed
            }
            FaultAction::Continue => unreachable!("Continue is not a fault"),
        }
    }

    /// Consult the fault injector at a WAL yield point for top-level `top`.
    /// Returns `true` when the injector asks the process to "crash" here
    /// (the log is then frozen so nothing later becomes durable).
    #[cfg_attr(loom, allow(dead_code))]
    fn wal_crash(&self, point: FaultPoint, top: u64) -> bool {
        let Some(inj) = &self.config.fault else {
            return false;
        };
        let action = inj.decide(&FaultContext {
            point,
            tx: top,
            top,
            depth: 0,
            obj: None,
            write: false,
        });
        if action == FaultAction::CrashProcess {
            self.trace(RtEvent::Fault {
                tx: top,
                obj: None,
                action,
            });
            return true;
        }
        false
    }

    /// Make a top-level commit durable. Runs inside the committer's
    /// turnstile window (after the `commit_ts == ts - 1` wait, before the
    /// `commit_ts.store(ts)`), so append order in the log equals published
    /// MVCC order, and no later committer can interleave records. Crash
    /// points bracket the append; a simulated crash freezes the log
    /// (further appends/fsyncs are dropped) but leaves the in-memory
    /// manager running so the harness can tear it down.
    ///
    /// `record` is the closed `Commit` record of (`ts`, `top`), with
    /// `objects` entries. Returns the `Group` batch this commit made due
    /// and claimed, for [`Self::wal_sync`] once the window is left; an
    /// `Always` fsync runs here.
    #[cfg_attr(loom, allow(dead_code))]
    fn wal_commit(&self, ts: u64, top: u64, record: &[u8], objects: u32) -> Option<SyncClaim> {
        let wal = self.wal.as_ref()?;
        if self.wal_crash(FaultPoint::WalPreAppend, top) {
            wal.freeze();
        }
        let due = wal.append(record, ts);
        if due.is_some() {
            self.stats.bump(Ctr::WalAppends);
            self.trace(RtEvent::WalAppend {
                tx: top,
                ts,
                objects: objects as usize,
            });
        }
        if self.wal_crash(FaultPoint::WalPostAppend, top) {
            wal.freeze();
        }
        // Both are no-ops on a log frozen since the append.
        let due = due?;
        if due.opened_batch {
            self.sweeper.kick();
        }
        let mut claim = due.sync;
        if wal.syncs_before_ack() {
            if let Some(c) = claim.take() {
                self.wal_sync(c);
            }
        }
        if due.checkpoint {
            self.wal_checkpoint(ts, top);
        }
        claim
    }

    /// Run a claimed batch's fsync (no mutex held) and count it.
    #[cfg_attr(loom, allow(dead_code))]
    fn wal_sync(&self, claim: SyncClaim) {
        if self.wal.as_ref().is_some_and(|w| w.sync_claimed(claim)) {
            self.stats.bump(Ctr::WalFsyncs);
        }
    }

    /// The sweeper's half of the `Group` deadline: fsync a batch past due,
    /// or say when the pending one falls due.
    pub(crate) fn wal_sync_overdue(&self, now: Instant) -> Option<Instant> {
        let wal = self.wal.as_ref()?;
        let due = wal.batch_deadline()?;
        if due <= now && wal.sync() {
            self.stats.bump(Ctr::WalFsyncs);
        }
        (due > now).then_some(due)
    }

    /// Write a checkpoint at timestamp `ts` and prune older segments.
    /// Also inside the triggering committer's turnstile window: later
    /// tickets are spinning on `commit_ts`, so no record can land in the
    /// old segment after the cut, and every chain's version at `ts` is
    /// frozen (concurrent publishes use timestamps > `ts` and are skipped
    /// by the lock-free walk).
    #[cfg_attr(loom, allow(dead_code))]
    fn wal_checkpoint(&self, ts: u64, top: u64) {
        let Some(wal) = &self.wal else { return };
        // Encode every durable object's version at `ts` straight into the
        // new segment's leading record.
        let mut objects = 0u32;
        let begun = wal.begin_checkpoint(ts, |out| {
            for idx in 0..self.objects.len() {
                let slot = self.objects.get(idx);
                let Some(codec) = &slot.codec else { continue };
                crate::wal::put_entry(
                    out,
                    u32::try_from(idx).expect("object index fits u32"),
                    |data| {
                        slot.snap.read(|| ts, |st| (codec.encode)(st, data));
                    },
                );
                objects += 1;
            }
            objects
        });
        if !begun {
            return;
        }
        self.stats.bump(Ctr::WalAppends);
        self.stats.bump(Ctr::WalFsyncs);
        if self.wal_crash(FaultPoint::WalCheckpoint, top) {
            wal.freeze();
            return;
        }
        wal.finish_checkpoint();
        self.stats.bump(Ctr::WalFsyncs);
        self.trace(RtEvent::Checkpoint {
            ts,
            objects: objects as usize,
        });
    }

    /// Grant the lock inline (uncontended fast path) and return the state
    /// the access closure runs on. Caller has verified `grantable` and the
    /// no-barge rule, and touched the object; a version the table drops
    /// goes to `dead`.
    fn grant_inline<'a>(
        &self,
        inner: &'a mut ObjectInner,
        snap: &'a SnapshotCell,
        node: &Arc<TxNode>,
        obj_idx: usize,
        write: bool,
        dead: &mut Detached,
    ) -> StateRef<'a> {
        if write {
            self.stats.bump(Ctr::WriteGrants);
            let installs = !inner.owns_top(node, dead);
            self.trace(RtEvent::WriteGrant {
                tx: node.id,
                obj: obj_idx,
            });
            if installs {
                self.trace(RtEvent::VersionInstall {
                    tx: node.id,
                    obj: obj_idx,
                });
            }
            StateRef::Write(inner.writable_state(node, snap, dead))
        } else {
            self.stats.bump(Ctr::ReadGrants);
            self.trace(RtEvent::ReadGrant {
                tx: node.id,
                obj: obj_idx,
            });
            inner.add_reader(node);
            // Read the current version in place, shared: with an empty
            // chain it is the committed head, which snapshot readers share.
            let inner: &'a ObjectInner = inner;
            StateRef::Read(inner.current(snap))
        }
    }

    /// Install lock state for one queued waiter being handed the lock
    /// (stats and trace publication are aggregated per wave by the
    /// caller). Runs on the *releasing* thread under the slot mutex; the
    /// woken waiter only applies its closure. A write handoff leaves
    /// `write_pending` set — nothing else is grantable until the writer's
    /// apply clears it, so no deeper version can land on top of the woken
    /// writer's. Returns `true` when a fresh version was installed; a
    /// version the table drops goes to `dead`.
    fn install_grant(
        &self,
        obj_idx: usize,
        inner: &mut ObjectInner,
        w: &Arc<Waiter>,
        dead: &mut Detached,
    ) -> bool {
        w.node.touch(obj_idx);
        if w.write {
            let installs = !inner.owns_top(&w.node, dead);
            let _ = inner.writable_state(&w.node, &self.slot(obj_idx).snap, dead);
            inner.write_pending = NonZeroU64::new(w.node.id);
            installs
        } else {
            inner.add_reader(&w.node);
            false
        }
    }

    /// Queue index of the next waiter the grant wave takes:
    ///
    /// 1. **strict FIFO**: the head, if grantable;
    /// 2. **ancestor-held bypass**: the first grantable waiter some current
    ///    holder is an ancestor of. Such a request must not stay stuck
    ///    behind a stranger (the stranger may be waiting on exactly that
    ///    ancestor — the same liveness argument as the inline no-barge
    ///    gate), and granting it adds no cross-top wait inversion, since
    ///    it shares its top-level transaction with a current holder.
    ///
    /// The bypass walks past the head only while some holder's top has a
    /// queued request ([`ObjectInner::a_holder_top_waits`]); without one no
    /// waiter shares a holder's top, so there is nothing to find. Nothing
    /// is pickable while a write handoff is unapplied. Every queue entry
    /// it tests is counted ([`crate::sync::inspected`]).
    fn pick_grant(inner: &ObjectInner) -> Option<usize> {
        if inner.write_pending.is_some() {
            return None;
        }
        let head = inner.queue.front()?;
        crate::sync::inspected(1);
        if inner.grantable(&head.node, head.write) {
            return Some(0);
        }
        if inner.queue.len() < 2 || !inner.a_holder_top_waits() {
            return None;
        }
        let bypass = inner.queue.iter().skip(1).position(|q| {
            crate::sync::inspected(1);
            inner.grantable(&q.node, q.write) && inner.holder_is_ancestor(&q.node)
        });
        bypass.map(|i| i + 1)
    }

    /// Take the waiter at queue index `i` out of its queue and out of its
    /// top's wait-for record: the one way a node leaves (grant, doom
    /// cancel, withdrawal). First the successor's edge moves from the
    /// leaver's top to the leaver's predecessor's. Its reach only shrinks,
    /// but a search racing the move may have read the old edge and miss the
    /// leaver's, so a move that adds a target returns a search from the
    /// successor's top. A successor that becomes the head keeps no edge
    /// until the release scan that follows every leave gives it its holder
    /// edges.
    fn dequeue(&self, inner: &mut ObjectInner, i: usize) -> (Arc<Waiter>, Option<Search>) {
        let w = inner.queue.remove(i).expect("dequeue index in range");
        let ahead = i.checked_sub(1).map(|p| &inner.queue[p]);
        let mut search = None;
        if let Some(s) = inner.queue.get(i) {
            let (old, new) = (top_edge(&w, s), ahead.and_then(|a| top_edge(a, s)));
            let top = s.node.top();
            let node_of = |_| ahead.expect("a new edge has a waiter ahead").node.top();
            if old != new && deadlock::retarget(top, old.as_slice(), new.as_slice(), node_of) {
                search = search_from(s.node.id, top);
            }
        }
        match ahead {
            None => deadlock::leave(w.node.top(), &std::mem::take(&mut inner.head_edges)),
            Some(a) => deadlock::leave(w.node.top(), top_edge(a, &w).as_slice()),
        }
        (w, search)
    }

    /// Count and trace a deadlock cycle found while `waiter` waits, and
    /// abort its victim — flagged by the claim, so its queued requests
    /// report [`TxError::Deadlock`]. No slot mutex may be held: the abort
    /// re-locks touched slots.
    fn kill(&self, waiter: u64, cycle: &Cycle) {
        self.note_deadlock(waiter, cycle);
        self.abort_subtree(&cycle.victim);
    }

    /// Count and trace a deadlock cycle found while `waiter` waits.
    fn note_deadlock(&self, waiter: u64, cycle: &Cycle) {
        self.stats.bump(Ctr::Deadlocks);
        self.trace(RtEvent::Deadlock {
            waiter,
            victim: cycle.victim.id,
            cycle_len: cycle.members.len(),
        });
    }

    /// Break every cycle through top `top` (found while `waiter` waits)
    /// by aborting its youngest member; search again after each victim —
    /// an edge may close several cycles.
    fn resolve(&self, waiter: u64, top: &Arc<TxNode>) {
        while let Some(cycle) = deadlock::search(top, None) {
            self.kill(waiter, &cycle);
        }
    }

    /// Cancel the doomed waiter at queue index `i`: it leaves its queue and
    /// its top's record, and `wake` fires its slot once the slot mutex is
    /// down. A waiter queued between two others (a deadlock victim, say)
    /// hands its wait to the one behind, which may still be on a cycle, so
    /// the moved edge's search rides along; a new head gets its holder
    /// edges from the release scan that follows.
    fn cancel_doomed(&self, obj_idx: usize, inner: &mut ObjectInner, i: usize, wake: &mut Wake) {
        let (w, search) = self.dequeue(inner, i);
        let cancelled = w.cancel();
        debug_assert!(cancelled, "a queued node is waiting");
        self.stats.bump(Ctr::CancelledWaiters);
        // Stamped under the slot mutex: this cancel is the wait's
        // resolution, so it must order against any grant wave on the same
        // object (exactly-one-winner in the HB certifier).
        self.trace(RtEvent::CancelWaiter {
            tx: w.node.id,
            obj: obj_idx,
        });
        wake.search(search);
        wake.waiters.push(Some(w));
    }

    /// Hand an object's lock to the waiters its new lock state admits.
    /// Returns the [`Wake`] its caller runs *after* dropping the slot mutex.
    ///
    /// The scan inspects the waiters it resolves, plus the head and the
    /// holders it reads — never the depth of the queue:
    /// 1. compute and install the maximal **grant wave**: repeatedly pick
    ///    the next grantable waiter ([`Self::pick_grant`] — FIFO head,
    ///    else ancestor-held bypass) and install its lock state, until
    ///    nothing is grantable (a write grant sets `write_pending`, which
    ///    ends the wave by itself). A doomed pick is cancelled, not
    ///    granted; doom reaches every other queued waiter through its
    ///    abort ([`Self::abort_subtree`]) or its requester's post-enqueue
    ///    check ([`Self::access_attempt`]). The whole wave costs one
    ///    aggregated stats delta and one batched trace publish
    ///    ([`crate::TraceRecorder::publish_batch`]) instead of per-waiter
    ///    publishes;
    /// 2. recompute the **head's** holder edges — the holders, the head, or
    ///    both may have changed — and, if they gained a target, have the
    ///    [`Wake`] search from the head's top. That is one waiter, never a
    ///    pass over the queue: every other waiter's edge was moved by the
    ///    leave that changed it.
    ///
    /// `pub(crate)` so the loom models can race spurious rescans against
    /// the real release/apply paths.
    pub(crate) fn release_scan(&self, obj_idx: usize, inner: &mut ObjectInner) -> Wake {
        let mut wake = Wake::default();
        if inner.queue.is_empty() {
            return wake;
        }
        // The grant wave.
        let tracing = self.config.trace.is_some();
        let (mut readers, mut writers) = (0usize, 0usize);
        let mut evs: Vec<RtEvent> = Vec::new();
        while let Some(idx) = Self::pick_grant(inner) {
            if inner.queue[idx].node.is_doomed() {
                self.cancel_doomed(obj_idx, inner, idx, &mut wake);
                continue;
            }
            let (w, search) = self.dequeue(inner, idx);
            wake.search(search);
            let granted = w.grant();
            debug_assert!(granted, "a queued node is waiting");
            let installs = self.install_grant(obj_idx, inner, &w, &mut wake.dead);
            if w.write {
                writers += 1;
            } else {
                readers += 1;
            }
            if tracing {
                if w.write {
                    evs.push(RtEvent::WriteGrant {
                        tx: w.node.id,
                        obj: obj_idx,
                    });
                    if installs {
                        evs.push(RtEvent::VersionInstall {
                            tx: w.node.id,
                            obj: obj_idx,
                        });
                    }
                } else {
                    evs.push(RtEvent::ReadGrant {
                        tx: w.node.id,
                        obj: obj_idx,
                    });
                }
            }
            wake.waiters.push(Some(w));
        }
        let wave = readers + writers;
        if wave > 0 {
            // One aggregated stats delta for the whole wave.
            self.stats.bump(Ctr::Handoffs);
            self.stats.add(Ctr::WaveGrants, wave as u64);
            if readers > 0 {
                self.stats.add(Ctr::ReadGrants, readers as u64);
            }
            if writers > 0 {
                self.stats.add(Ctr::WriteGrants, writers as u64);
            }
            if tracing {
                if let Some(t) = &self.config.trace {
                    let mut batch = Vec::with_capacity(evs.len() + 1);
                    batch.push(RtEvent::HandoffWave {
                        obj: obj_idx,
                        readers,
                        writers,
                    });
                    batch.extend(evs);
                    t.publish_batch(&batch);
                }
            }
        }
        // The head's holder edges.
        if let Some(head) = inner.queue.front() {
            let edges = inner.holder_tops(&head.node, head.write);
            if edges[..] != inner.head_edges[..] {
                let top = head.node.top();
                let node_of = |t| inner.holder_top(t);
                if deadlock::retarget(top, &inner.head_edges, &edges, node_of) {
                    wake.search(search_from(head.node.id, top));
                }
                inner.head_edges = edges;
            }
        }
        wake
    }

    /// Phase 2 of [`Self::access_attempt`]: create `node`'s waiter, append
    /// it to the FIFO queue, count it among the node's queued requests, and
    /// enter the node into its top's wait-for record with its edges — the
    /// tops of the holders it conflicts with if it is the head, else the top
    /// of the waiter ahead — searching for a cycle they close. Returns the
    /// node and the cycle its search claimed: with
    /// [`Cycle::requester_out`] the node is already out of the graph again
    /// and the caller takes it off the queue's tail; otherwise the victim
    /// is flagged and the caller aborts it.
    ///
    /// `wait_start` is the caller's clock read from when it found the
    /// request blocked; the node's deadline is that plus the configured
    /// `wait_timeout` and lives nowhere else. The node's wake slot holds a
    /// clone of `waker` *before* the node enters the queue — under the same
    /// slot-mutex hold — so no grant can beat the waker into place and lose
    /// the wakeup. Callers hold the slot mutex for `obj_idx`. Exposed
    /// `pub(crate)` so the loom models race the real enqueue path, not a
    /// copy.
    pub(crate) fn enqueue_waiter(
        &self,
        inner: &mut ObjectInner,
        node: &Arc<TxNode>,
        obj_idx: usize,
        write: bool,
        wait_start: Instant,
        waker: &Waker,
    ) -> (Arc<Waiter>, Option<Cycle>) {
        // Tell the sweeper this queue may hold a wait it has to time out
        // (cleared by the pass that finds the queue empty).
        self.slot(obj_idx).sweep_hint.store(true, Ordering::SeqCst);
        let w = Waiter::new(
            node.clone(),
            write,
            wait_start,
            wait_start + self.config.wait_timeout,
            waker.clone(),
        );
        inner.queue.push_back(w.clone());
        node.queued_request();
        let top = node.top();
        let cycle = match inner.queue.len().checked_sub(2) {
            None => {
                inner.head_edges = inner.holder_tops(node, write);
                deadlock::enter(top, &inner.head_edges, |t| inner.holder_top(t))
            }
            Some(ahead) => {
                let ahead = &inner.queue[ahead];
                deadlock::enter(top, top_edge(ahead, &w).as_slice(), |_| ahead.node.top())
            }
        };
        (w, cycle)
    }

    /// Withdraw a still-waiting queue node in place, under the slot mutex
    /// — unless a grant or doom raced in and won the `state` CAS first, in
    /// which case nothing is withdrawn and the caller classifies the
    /// waiter's (now final) state. Returns `true` when the waiter was
    /// withdrawn; its state is then [`crate::object::W_TIMEDOUT`], a
    /// terminal state distinct from doom so a poll can classify a waiter
    /// from the state word alone. Shared by the sweeper
    /// ([`Self::sweep_slot`]) and drop-of-an-unresolved-request cleanup —
    /// only the first counts a timeout (see [`Self::timeout_withdraw`]).
    pub(crate) fn withdraw_waiter(&self, obj_idx: usize, w: &Arc<Waiter>) -> bool {
        let slot = self.slot(obj_idx);
        let mut guard = slot.inner.lock();
        if w.state() != W_WAITING {
            return false;
        }
        let timed_out = w.cancel_timeout();
        debug_assert!(timed_out, "state is slot-mutex-protected");
        // The CAS above just resolved the wait on the withdrawing side;
        // stamped under the slot mutex so it totally orders against any
        // competing grant wave (the HB certifier's withdraw ⊕ grant check).
        self.trace(RtEvent::Withdraw {
            tx: w.node.id,
            obj: obj_idx,
        });
        let i = guard.queue.iter().position(|q| Arc::ptr_eq(q, w));
        let (_, search) = self.dequeue(&mut guard, i.expect("a waiting node is queued"));
        self.stats.bump(Ctr::CancelledWaiters);
        let mut wake = self.release_scan(obj_idx, &mut guard);
        wake.search(search);
        drop(guard);
        wake.run(self);
        true
    }

    /// [`Self::withdraw_waiter`] counted as a timeout (the request fails
    /// with [`TxError::Timeout`]). Exposed `pub(crate)` so the loom models
    /// race the real withdrawal against a concurrent releaser's grant.
    pub(crate) fn timeout_withdraw(&self, obj_idx: usize, w: &Arc<Waiter>) -> bool {
        if self.withdraw_waiter(obj_idx, w) {
            self.stats.bump(Ctr::Timeouts);
            true
        } else {
            false
        }
    }

    /// One sweeper step: time out the waiters of `obj_idx` whose deadline
    /// is at or before `now` ([`Self::timeout_withdraw`], then the wake
    /// that makes the requester poll again and report the timeout).
    /// Deadlines are `enqueue instant + one constant` and the instant is
    /// read under the slot mutex, so FIFO order is deadline order and the
    /// walk stops at the first unexpired node. A grant, doom or drop that
    /// beats a withdrawal wins the state CAS as usual.
    ///
    /// Returns whether the queue was non-empty; an empty one drops the
    /// slot's `sweep_hint`, so the sweeper stops visiting it.
    pub(crate) fn sweep_slot(&self, obj_idx: usize, now: Instant) -> bool {
        let slot = self.slot(obj_idx);
        let expired: Vec<Arc<Waiter>> = {
            let guard = slot.inner.lock();
            if guard.queue.is_empty() {
                slot.sweep_hint.store(false, Ordering::SeqCst);
                return false;
            }
            guard
                .queue
                .iter()
                .take_while(|w| w.deadline <= now)
                .cloned()
                .collect()
        };
        for w in expired {
            if self.timeout_withdraw(obj_idx, &w) {
                w.wake();
            }
        }
        true
    }

    /// Acquire a lock on `obj_idx` for `node` as far as that goes without
    /// waiting — fault points, the inline grant (running `f` on the state
    /// under the object mutex), and the waiter enqueue with its deadlock
    /// search.
    ///
    /// Returns [`Attempt::Done`] when the request resolved without ever
    /// waiting (inline grant, doom, deadlock victim, zero wait budget), or
    /// [`Attempt::Queued`] with the enqueued waiter — woken through a
    /// clone of `waker` — and the unconsumed closure, which the caller's
    /// state machine (`future.rs`) hands to [`Self::finish_after_wait`]
    /// once the node resolves. A request granted inline reads no clock,
    /// clones no waker and takes no graph lock: the wait's start, deadline
    /// and wake slot are set once, when the request finds itself blocked,
    /// and live in the waiter node.
    pub(crate) fn access_attempt<R, F>(
        &self,
        node: &Arc<TxNode>,
        obj_idx: usize,
        write: bool,
        f: F,
        waker: &Waker,
    ) -> Attempt<R, F>
    where
        F: FnOnce(StateRef<'_>) -> R,
    {
        let slot = self.slot(obj_idx);
        if self.config.fault.is_some() {
            let action = self.fault_decision(FaultPoint::LockRequest, node, Some(obj_idx), write);
            if action != FaultAction::Continue {
                return Attempt::Done(Err(self.apply_lock_fault(action, node, obj_idx)));
            }
        }
        // Versions an inline grant drops from the table, freed after the
        // guard (declared first, so an unwinding closure drops it last).
        let mut dead = Detached::default();
        let mut guard = slot.inner.lock();
        // The touch comes before the fate check: an abort marks its root
        // before it reads the subtree's sets, so a request that finds no
        // abort below has its object in a set the abort will read.
        node.touch(obj_idx);
        // Phase 1 — inline grant or fail fast. A node that has returned
        // (a future first polled after its commit) gets no lock: nothing
        // would ever release it.
        match node.fate() {
            TxState::Active => {}
            TxState::Aborted => return Attempt::Done(Err(doom_error(node))),
            TxState::Committed => return Attempt::Done(Err(TxError::AlreadyFinished)),
        }
        // No-barge rule: an inline grant with waiters queued is allowed
        // only when a current holder is an ancestor of the requester.
        // Queueing such a request behind strangers it does not conflict
        // with could deadlock (the stranger may be waiting on exactly that
        // ancestor); any other grantable request found the queue stuck on
        // a holder that must be its ancestor too, so the gate never starves
        // FIFO waiters.
        if guard.grantable(node, write)
            && (guard.queue.is_empty() || guard.holder_is_ancestor(node))
        {
            let r = f(self.grant_inline(&mut guard, &slot.snap, node, obj_idx, write, &mut dead));
            // A grant beside waiters shares its top with a holder (the
            // ancestor above), so the head's holder tops cannot change:
            // no edge to recompute.
            debug_assert!(guard
                .queue
                .front()
                .is_none_or(|h| guard.holder_tops(&h.node, h.write)[..] == guard.head_edges[..]));
            drop(guard);
            drop(dead);
            return Attempt::Done(Ok(r));
        }
        // Blocked — the only path that reads the clock. The read (under
        // the slot mutex) is the wait's start.
        let wait_start = Instant::now();
        self.stats.bump(Ctr::Waits);
        self.trace(RtEvent::Wait {
            tx: node.id,
            obj: obj_idx,
            write,
        });
        if self.config.fault.is_some() {
            let action = self.fault_decision(FaultPoint::LockWait, node, Some(obj_idx), write);
            if action != FaultAction::Continue {
                // apply_lock_fault may abort subtrees, which re-locks
                // touched slots — release this one first.
                drop(guard);
                return Attempt::Done(Err(self.apply_lock_fault(action, node, obj_idx)));
            }
        }
        if self.config.wait_timeout.is_zero() {
            // Fail fast without ever enqueueing — with a zero wait budget
            // (the deterministic fuzz configuration) blocked requests take
            // exactly this path.
            self.stats.bump(Ctr::Timeouts);
            // Resolve the WAIT recorded above: a fail-fast timeout is a
            // withdrawal too, so every recorded wait has exactly one
            // resolution for the HB certifier to find.
            self.trace(RtEvent::Withdraw {
                tx: node.id,
                obj: obj_idx,
            });
            return Attempt::Done(Err(TxError::Timeout));
        }
        // Phase 2 — enqueue a waiter node; it enters the wait-for graph
        // with its edges, and the search runs there.
        let (w, cycle) = self.enqueue_waiter(&mut guard, node, obj_idx, write, wait_start, waker);
        if let Some(c) = cycle.as_ref().filter(|c| c.requester_out) {
            // Die: the requester is the youngest on the cycle it closed.
            // The graph already took the node back out; so does the queue,
            // whose tail it is — the queue is exactly as before the
            // enqueue.
            self.note_deadlock(node.id, c);
            let cancelled = w.cancel();
            debug_assert!(cancelled, "enqueued under this guard");
            // The cancel resolves the recorded wait.
            self.trace(RtEvent::CancelWaiter {
                tx: node.id,
                obj: obj_idx,
            });
            guard.queue.pop_back();
            if guard.queue.is_empty() {
                guard.head_edges = TopSet::new();
            }
            node.request_resolved();
            return Attempt::Done(Err(TxError::Deadlock));
        }
        // Self-check under the same mutex hold: a doom that raced the
        // enqueue is delivered here or by the abort's own pass over this
        // object — the aborter either found the object in our touched set
        // (the touch above came before our fate check) or we see its abort
        // mark here (SeqCst on both sides), and the slot mutex serialises
        // the two. Our node is the tail: nothing left the queue since the
        // push.
        let wake = if node.is_doomed() {
            let mut wake = Wake::default();
            let tail = guard.queue.len() - 1;
            self.cancel_doomed(obj_idx, &mut guard, tail, &mut wake);
            wake
        } else {
            // Self-scan: a child of our top that committed without seeing
            // our request counted may have made it grantable
            // ([`Self::commit_child`]).
            self.release_scan(obj_idx, &mut guard)
        };
        drop(guard);
        wake.run(self);
        if let Some(c) = cycle {
            // The victim waits elsewhere on the cycle; its abort cancels
            // that wait, and the cancelled request reports Deadlock. The
            // new edges may close more cycles.
            self.kill(node.id, &c);
            self.resolve(node.id, node.top());
        }
        Attempt::Queued { w, f }
    }

    /// Consume a resolved waiter — the one place a terminal waiter state
    /// becomes a `Result`, reached by every requester's state machine
    /// (`future.rs`), and so where the request stops counting among its
    /// node's queued requests. The state must be final: [`W_TIMEDOUT`]
    /// (withdrawn by the sweeper or a drop — already dequeued and counted),
    /// [`W_CANCELLED`] or [`W_GRANTED`]. On a grant the releaser already
    /// installed our lock state and dequeued us: this only applies the
    /// closure and, for writes, lifts the unapplied-write latch — on
    /// return and on unwind alike.
    pub(crate) fn finish_after_wait<R>(
        &self,
        w: &Arc<Waiter>,
        obj_idx: usize,
        f: impl FnOnce(StateRef<'_>) -> R,
    ) -> Result<R, TxError> {
        let node = &w.node;
        let slot = self.slot(obj_idx);
        let st = w.state();
        node.request_resolved();
        if st == W_TIMEDOUT {
            return Err(TxError::Timeout);
        }
        if st == W_CANCELLED {
            // Doom was delivered to the queue node (an abort of this
            // subtree, or a deadlock victim's) — the canceller already took
            // the node out of the queue and the wait-for graph.
            return Err(doom_error(node));
        }
        debug_assert_eq!(st, W_GRANTED, "finish_after_wait needs a final state");
        self.stats
            .add(Ctr::WaitNanos, w.wait_start.elapsed().as_nanos() as u64);
        let mut guard = slot.inner.lock();
        if node.is_doomed() {
            // Granted and doomed in the same window: the closure must not
            // run. The abort's rollback pass reclaims the installed lock
            // state itself.
            self.lift_latch(obj_idx, guard, w);
            return Err(doom_error(node));
        }
        // The woken side's first touch of the object after its grant:
        // stamped under the slot mutex, so it is totally ordered after the
        // releaser's grant install — the HB certifier's wake edge.
        self.trace(RtEvent::Resume {
            tx: node.id,
            obj: obj_idx,
            write: w.write,
        });
        if w.write {
            // A closure that unwinds past the latch would gate every later
            // grant on this object for good: catch it, lift, rethrow.
            let mut dead = Detached::default();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f(StateRef::Write(
                    guard.write_target(node, &slot.snap, &mut dead),
                ))
            }));
            debug_assert_eq!(guard.write_pending, NonZeroU64::new(node.id));
            self.lift_latch(obj_idx, guard, w);
            drop(dead);
            Ok(r.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        } else {
            // The releaser recorded our read lock; read the deepest
            // version owned by one of our ancestors (a stranger's version
            // may have been granted on top since).
            Ok(f(StateRef::Read(guard.read_target(node, &slot.snap))))
        }
    }

    /// End `w`'s write handoff: lift its unapplied-write latch if it still
    /// holds it, then rescan — the queue may have waiters gated only on
    /// the latch — and run the wake once the slot mutex is down. Every
    /// exit of a granted writer comes through here: its apply, its doom,
    /// and a dropped request whose grant won the race.
    pub(crate) fn lift_latch(
        &self,
        obj_idx: usize,
        mut guard: MutexGuard<'_, ObjectInner>,
        w: &Waiter,
    ) {
        if w.write && guard.write_pending == NonZeroU64::new(w.node.id) {
            guard.write_pending = None;
        }
        let wake = self.release_scan(obj_idx, &mut guard);
        drop(guard);
        wake.run(self);
    }

    /// Smallest timestamp any live *or future* snapshot can read at: the
    /// minimum registered snapshot timestamp, or the current commit clock
    /// when no snapshot is open (a future snapshot starts at the clock).
    /// Versions strictly older than the newest version at or below this
    /// watermark are unreachable and collectable.
    ///
    /// The clock is read before the open-snapshot count: a count of 0 then
    /// comes before any snapshot's registration, whose clock read follows it
    /// and so reads at least this clock (SeqCst) — no mutex while no
    /// snapshot is open.
    pub(crate) fn gc_watermark(&self) -> u64 {
        let clock = self.commit_ts.load(Ordering::SeqCst);
        if self.snapshots_open.load(Ordering::SeqCst) == 0 {
            return clock;
        }
        let reg = self.live_snapshots.lock();
        let clock = self.commit_ts.load(Ordering::SeqCst);
        reg.keys().next().map_or(clock, |&t| t.min(clock))
    }

    /// A child's commit: the paper's `COMMIT(T)`, its `INFORM_COMMIT`s left
    /// to whoever next looks at the locks (`TxNode::holder`). It takes no
    /// slot mutex, except in one case: a commit can make only a waiter of
    /// its own top grantable — a sibling queued behind the child's lock, say
    /// — so while the top has a queued request it rescans the objects its
    /// subtree holds. An enqueue counts its request in the top's record
    /// before its self-scan, so either this commit sees the count or that
    /// scan sees the commit. Returns `false` when an abort won the node.
    ///
    /// The commit is traced before its state changes, so no grant that
    /// relies on it is stamped ahead of it.
    pub(crate) fn commit_child(&self, node: &Arc<TxNode>) -> bool {
        self.trace(RtEvent::Commit {
            tx: node.id,
            top: false,
        });
        if !node.mark_committed() {
            return false;
        }
        if node.top().wait.has_waiters() {
            for &obj in node.subtree_objects().iter() {
                let wake = self.release_scan(obj, &mut self.slot(obj).inner.lock());
                wake.run(self);
            }
        }
        true
    }

    /// A top-level commit: encode its durable write set, commit, then one
    /// pass per object publishes the deepest version the tree wrote and
    /// releases the tree's locks. Returns `false` when an abort won the
    /// node.
    ///
    /// Every user call (`encode_wal`) runs in the first pass, before the
    /// node commits: an encode that panics aborts the whole tree, then the
    /// panic goes on to the caller. The publish pass runs no user code
    /// under a slot mutex: the versions it discards and the ones its
    /// garbage collection detaches are dropped after each mutex is
    /// released.
    ///
    /// `touched` is the tree's objects, folded in by `TxNode::fold_children`.
    pub(crate) fn commit_top(&self, node: &Arc<TxNode>, touched: &ObjSet) -> bool {
        let encoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.encode_durable(node, touched)
        }));
        let mut ticket = match encoded {
            Ok(ticket) => ticket,
            Err(panic) => {
                self.abort_subtree(node);
                std::panic::resume_unwind(panic)
            }
        };
        self.trace(RtEvent::Commit {
            tx: node.id,
            top: true,
        });
        if !node.mark_committed() {
            // The abort that won cleans up; the drawn ticket passes the
            // turnstile with nothing to log.
            if let Some(t) = &mut ticket {
                t.wal_record = None;
            }
            return false;
        }
        for &obj in touched.iter() {
            let slot = self.slot(obj);
            let mut collected = None;
            let mut discarded = Detached::default();
            let wake = {
                let mut guard = slot.inner.lock();
                let (version, released) = guard.release_top(node, &mut discarded);
                if released {
                    self.trace(RtEvent::Inherit {
                        tx: node.id,
                        heir: None,
                        obj,
                    });
                }
                if let Some(version) = version {
                    // The version itself joins the snapshot chain as the
                    // committed state, under the commit's ticket.
                    let ts = ticket.get_or_insert_with(|| self.draw_ticket(node.id)).ts;
                    slot.snap.publish(ts, version);
                    self.stats.bump(Ctr::VersionsPublished);
                    self.trace(RtEvent::Publish {
                        tx: node.id,
                        obj,
                        ts,
                    });
                    // Piggyback incremental GC while the slot mutex is
                    // held: watermark < ts, so the version just published
                    // is never reclaimed here.
                    collected = Some(slot.snap.collect(self.gc_watermark()));
                }
                // Hand off only if the lock state changed; an untouched
                // slot's waiters cannot have become grantable, and with
                // none queued the scan has no work.
                (released && !guard.queue.is_empty()).then(|| self.release_scan(obj, &mut guard))
            };
            if let Some(wake) = wake {
                wake.run(self);
            }
            // The discarded and collected versions go with the slot mutex
            // down: their `Drop` is user code, which may take that mutex.
            drop(discarded);
            let freed = collected.map_or(0, Detached::free);
            if freed > 0 {
                self.stats.add(Ctr::VersionsCollected, freed as u64);
            }
        }
        // `ticket` drops here: the turnstile spin-then-advance lives in
        // `TurnstileTicket::drop` so it runs even if publication unwinds.
        drop(ticket);
        true
    }

    /// Draw the next commit timestamp (ticket 0 is genesis, so tickets
    /// start at 1) for top `top`, which must pass it through the turnstile.
    fn draw_ticket(&self, top: u64) -> TurnstileTicket<'_> {
        TurnstileTicket {
            mgr: self,
            // relaxed(ts-alloc): ticket allocation only needs uniqueness
            // and atomicity of the RMW; ordering is provided by the SeqCst
            // commit_ts turnstile that publishes the ticket.
            ts: self.ts_alloc.fetch_add(1, Ordering::Relaxed) + 1,
            top,
            wal_record: None,
        }
    }

    /// The first pass of [`Self::commit_top`]: encode the version each
    /// touched durable object will publish — the deepest one `top`'s tree
    /// wrote, stable while the tree holds its write lock — into the
    /// commit's log record, under a ticket drawn for it. `None` without a
    /// log or a durable write.
    fn encode_durable(&self, top: &Arc<TxNode>, touched: &ObjSet) -> Option<TurnstileTicket<'_>> {
        self.wal.as_ref()?;
        let mut ticket = None;
        for &obj in touched.iter() {
            let slot = self.slot(obj);
            let Some(codec) = &slot.codec else { continue };
            let guard = slot.inner.lock();
            let Some(e) = guard.chain.last().filter(|e| top.is_ancestor_of(&e.owner)) else {
                continue;
            };
            let t = ticket.get_or_insert_with(|| self.draw_ticket(top.id));
            let ts = t.ts;
            let (block, rec) = t.wal_record.get_or_insert_with(|| {
                let mut block = Vec::new();
                let rec = OpenRecord::commit(&mut block, ts, top.id);
                (block, rec)
            });
            rec.entry(
                block,
                u32::try_from(obj).expect("object index fits u32"),
                |out| (codec.encode)(e.version.state().as_any(), out),
            );
        }
        ticket
    }

    /// Abort `root`'s whole subtree: mark nodes aborted, purge locks and
    /// versions, cancel the subtree's own queued waiters, and hand freed
    /// locks to queued waiters. Returns the number of nodes newly aborted.
    ///
    /// This is where doom reaches a queued waiter — the paper's
    /// `INFORM_ABORT_AT(X)OF(T)`, made by the aborting side: the per-object
    /// pass visits every object the subtree touched, after the root is
    /// marked, and cancels the subtree's waiters there. A request touches
    /// its object before it checks its fate and enqueues, so the objects a
    /// subtree waits on are among them; a request the pass cannot see yet
    /// sees the mark in its post-enqueue check ([`Self::access_attempt`]).
    /// No release scan looks for doom. The versions the pass discards are
    /// freed after each slot mutex.
    pub(crate) fn abort_subtree(&self, root: &Arc<TxNode>) -> usize {
        let mut newly_aborted = 0usize;
        // A victim's doom can race the victim's own commit; whoever wins the
        // Active → Committed/Aborted transition on the root decides. A root
        // that committed is past aborting: its commit pass may still be
        // publishing, and discarding now would tear its write set.
        if root.mark_aborted() {
            newly_aborted += 1;
            self.trace(RtEvent::Abort { tx: root.id });
        } else if root.state() == TxState::Committed {
            return 0;
        }
        // The subtree's touched objects, as one sorted set.
        let mut objs = ObjSet::new();
        root.drain_subtree(&mut |n, touched| {
            if n.mark_aborted() {
                newly_aborted += 1;
                self.trace(RtEvent::Abort { tx: n.id });
            }
            for &o in touched.iter() {
                insert_sorted(&mut objs, o);
            }
        });
        let top = root.top();
        for &obj in objs.iter() {
            let slot = self.slot(obj);
            let mut discarded = Detached::default();
            let (cancels, wake) = {
                let mut guard = slot.inner.lock();
                // Discard on waited-on objects too: a release scan that
                // passed its doom check before our abort mark landed may
                // still hand this subtree a grant (installing a version and
                // the write latch) after the set was collected above. The
                // request's touch is older than any such grant, so this
                // pass runs after it (slot-mutex order) and reclaims
                // whatever it installed. Found by the loom model
                // `loom_doomed_waiter_never_granted`.
                let (versions, readers) = guard.discard_subtree(root, &mut discarded);
                if versions + readers > 0 {
                    self.trace(RtEvent::Rollback {
                        tx: root.id,
                        obj,
                        versions,
                        readers,
                    });
                }
                // Cancel the subtree's queued waiters. Taking the slot
                // mutex serialises with a request between its doom check
                // and its enqueue: either it has enqueued (cancelled here)
                // or its post-enqueue check will observe the abort mark.
                // A queued waiter is counted in its top's record, so with
                // none counted there is nothing here to cancel.
                let mut cancels = Wake::default();
                let mut i = 0;
                while i < guard.queue.len() && top.wait.has_waiters() {
                    if root.is_ancestor_of(&guard.queue[i].node) {
                        self.cancel_doomed(obj, &mut guard, i, &mut cancels);
                    } else {
                        i += 1;
                    }
                }
                (cancels, self.release_scan(obj, &mut guard))
            };
            cancels.run(self);
            wake.run(self);
            drop(discarded);
        }
        self.stats.add(Ctr::Aborts, newly_aborted as u64);
        newly_aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn register_and_read_committed() {
        let mgr = TxManager::new(RtConfig::default());
        let a = mgr.register("a", 5i64);
        let b = mgr.register("b", String::from("hello"));
        assert_eq!(mgr.object_count(), 2);
        assert_eq!(mgr.read_committed(&a, |v| *v), 5);
        assert_eq!(mgr.read_committed(&b, |s| s.len()), 5);
        assert_eq!(mgr.object_name(&a), "a");
    }

    #[test]
    fn begin_assigns_fresh_ids() {
        let mgr = TxManager::new(RtConfig::default());
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        assert_ne!(t1.id(), t2.id());
        assert_eq!(mgr.stats().transactions_begun, 2);
        t1.abort();
        t2.abort();
    }

    #[test]
    fn manager_clones_share_state() {
        let mgr = TxManager::new(RtConfig::default());
        let obj = mgr.register("x", 1i64);
        let mgr2 = mgr.clone();
        assert_eq!(mgr2.read_committed(&obj, |v| *v), 1);
        assert_eq!(mgr2.object_count(), 1);
    }

    #[test]
    fn many_registrations_span_slab_chunks() {
        let mgr = TxManager::new(RtConfig::default());
        let refs: Vec<ObjRef<usize>> = (0..500).map(|i| mgr.register(format!("o{i}"), i)).collect();
        assert_eq!(mgr.object_count(), 500);
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(mgr.read_committed(r, |v| *v), i);
            assert_eq!(mgr.object_name(r), format!("o{i}"));
        }
    }

    /// Regression: a waiter that entered the wait-for graph and is then
    /// aborted while parked must leave no count and no edge behind in
    /// either top's record (the retry-loop scheme republished on every
    /// wakeup and could leave the last set behind when the abort landed
    /// between retries).
    #[test]
    fn wound_while_parked_clears_published_edges() {
        let mgr = TxManager::new(RtConfig {
            wait_timeout: Duration::from_secs(10),
            ..Default::default()
        });
        let x = mgr.register("x", 0i64);
        let holder = mgr.begin();
        holder.write(&x, |v| *v = 1).unwrap();
        let waiter = mgr.begin();
        std::thread::scope(|s| {
            let h = s.spawn(|| waiter.write(&x, |v| *v = 2));
            // Wait until the blocked writer has enqueued, and so entered
            // the wait-for graph (under the same slot-mutex hold).
            while mgr.queued_waiters() == 0 {
                assert!(!h.is_finished(), "waiter finished without blocking");
                std::thread::yield_now();
            }
            assert_eq!(waiter.node().wait.out_edges(), vec![(holder.id(), 1)]);
            assert_eq!(holder.node().wait.inbound(), 1);
            // Abort the parked waiter (the abort reaches its queue node).
            waiter.abort();
            let r = h.join().unwrap();
            assert_eq!(r, Err(TxError::Doomed));
        });
        assert!(
            waiter.node().wait.is_empty() && holder.node().wait.is_empty(),
            "stale wait-for count or edge left after the abort"
        );
        assert_eq!(mgr.queued_waiters(), 0, "cancelled waiter leaked");
        assert!(mgr.stats().cancelled_waiters >= 1);
        holder.commit().unwrap();
    }

    /// The soak's workload (`tests/stress.rs`: nested transfers between
    /// eight accounts, poison grandchildren, children retried on deadlock)
    /// under a 20 s budget: every cycle is found by detection, so nothing
    /// times out, and at quiescence every top's wait-for record is as
    /// empty as the queues. Here rather than in the soak because an
    /// integration test cannot see the records.
    #[test]
    fn soak_leaves_an_empty_wait_graph() {
        const ACCOUNTS: usize = 8;
        let mgr = TxManager::new(RtConfig {
            wait_timeout: Duration::from_secs(20),
            ..Default::default()
        });
        let accounts: Vec<ObjRef<i64>> = (0..ACCOUNTS)
            .map(|i| mgr.register(format!("a{i}"), 1_000i64))
            .collect();
        let tops: Vec<Arc<TxNode>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4u64)
                .map(|t| {
                    let (mgr, accounts) = (&mgr, &accounts);
                    s.spawn(move || {
                        let mut tops = Vec::new();
                        let mut r = t.wrapping_mul(0x2545F4914F6CDD1D) | 1;
                        let mut rng = move |n: usize| {
                            r ^= r << 13;
                            r ^= r >> 7;
                            r ^= r << 17;
                            (r >> 33) as usize % n
                        };
                        for _ in 0..100 {
                            let from = rng(ACCOUNTS);
                            let to = (from + 1 + rng(ACCOUNTS - 1)) % ACCOUNTS;
                            loop {
                                let tx = mgr.begin();
                                tops.push(tx.node().clone());
                                let moved = tx.retry_child(8, |c| {
                                    c.write(&accounts[from], |b| *b -= 1)?;
                                    // Hold the first lock across a reschedule
                                    // so transfers overlap and cross.
                                    std::thread::yield_now();
                                    if rng(10) == 0 {
                                        if let Ok(bad) = c.child() {
                                            let _ = bad.write(&accounts[to], |b| *b += 1_000_000);
                                            bad.abort();
                                        }
                                    }
                                    c.write(&accounts[to], |b| *b += 1)
                                });
                                if moved.is_ok() && tx.commit().is_ok() {
                                    break;
                                }
                                tx.abort();
                            }
                        }
                        tops
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let total: i64 = accounts.iter().map(|a| mgr.read_committed(a, |b| *b)).sum();
        assert_eq!(total, 1_000 * ACCOUNTS as i64);
        let stats = mgr.stats();
        assert_eq!(stats.timeouts, 0, "{stats:?}");
        assert_eq!(mgr.queued_waiters(), 0);
        for top in &tops {
            assert!(top.wait.is_empty(), "top {} kept wait-for state", top.id);
        }
    }

    /// A manager dropped while a cycle's waiters are still queued frees
    /// every node: B waits on A's x, A's request on B's y closes the cycle
    /// and claims B, and the manager goes before anyone aborts B. The two
    /// records point at each other, weakly.
    #[test]
    fn a_dropped_manager_frees_a_cycles_nodes() {
        let mgr = TxManager::new(RtConfig::default());
        let inner = &mgr.inner;
        let (a, b) = (TxNode::top_level(1), TxNode::top_level(2));
        let held_by = |holder: &Arc<TxNode>| {
            let obj = inner
                .objects
                .push(ObjectSlot::new(Version::new(0i64), None));
            let slot = inner.slot(obj);
            let _ = slot
                .inner
                .lock()
                .writable_state(holder, &slot.snap, &mut Detached::default());
            holder.touch(obj);
            obj
        };
        let (x, y) = (held_by(&a), held_by(&b));
        let enqueue = |node: &Arc<TxNode>, obj: usize| {
            let mut g = inner.slot(obj).inner.lock();
            let now = Instant::now();
            inner
                .enqueue_waiter(&mut g, node, obj, true, now, Waker::noop())
                .1
        };
        assert!(enqueue(&b, x).is_none());
        let cycle = enqueue(&a, y).expect("A's request closes the cycle");
        assert!(!cycle.requester_out && cycle.victim.id == 2);
        drop(cycle);
        assert_eq!(a.wait.out_edges(), vec![(2, 1)]);
        assert_eq!(b.wait.out_edges(), vec![(1, 1)]);
        let nodes = [Arc::downgrade(&a), Arc::downgrade(&b)];
        drop((a, b));
        drop(mgr);
        assert!(
            nodes.iter().all(|n| n.upgrade().is_none()),
            "a node outlived its manager"
        );
    }

    /// Regression for the leak found by the loom model
    /// `loom_doomed_waiter_never_granted`: a release scan hands a queued
    /// writer the lock (installing its version and the write-pending
    /// latch), but the winning transaction is aborted before its thread
    /// ever wakes to apply. The abort's pass over the objects the request
    /// touched before it enqueued must reclaim the installed state; before
    /// the fix it only re-scanned, leaving the version and latch wedged
    /// forever.
    #[test]
    fn abort_reclaims_grant_installed_before_waiter_wakes() {
        let mgr = TxManager::new(RtConfig::default());
        let inner = &mgr.inner;
        let holder = TxNode::top_level(inner.next_tx_id.fetch_add(1, Ordering::Relaxed));
        let waiter_tx = TxNode::top_level(inner.next_tx_id.fetch_add(1, Ordering::Relaxed));
        let obj = inner
            .objects
            .push(ObjectSlot::new(Version::new(0i64), None));
        let w = {
            let slot = inner.slot(obj);
            let mut g = slot.inner.lock();
            let _ = g.writable_state(&holder, &slot.snap, &mut Detached::default());
            holder.touch(obj);
            // A request touches its object before it enqueues.
            waiter_tx.touch(obj);
            inner
                .enqueue_waiter(&mut g, &waiter_tx, obj, true, Instant::now(), Waker::noop())
                .0
        };
        // The holder aborts: the release scan grants `w` directly,
        // installing waiter_tx's version and the write-pending latch. No
        // thread plays the woken waiter — exactly the window the race
        // exposes.
        inner.abort_subtree(&holder);
        assert_eq!(w.state(), W_GRANTED);
        {
            let g = inner.slot(obj).inner.lock();
            assert_eq!(g.write_pending, NonZeroU64::new(waiter_tx.id));
            assert_eq!(g.chain.len(), 1);
        }
        // Abort the granted-but-never-applied transaction.
        inner.abort_subtree(&waiter_tx);
        let g = inner.slot(obj).inner.lock();
        assert!(
            !g.chain.iter().any(|e| e.owner.id == waiter_tx.id),
            "aborted transaction still owns a version"
        );
        assert!(
            g.write_pending.is_none(),
            "write latch wedged by aborted writer"
        );
        assert!(g.queue.is_empty());
    }
}
