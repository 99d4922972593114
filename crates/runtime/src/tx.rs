//! Transaction handles.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Arc;

use crate::error::TxError;
use crate::fault::{FaultAction, FaultPoint};
use crate::future::{Access, AccessFuture, BoxedAccessFn};
use crate::manager::{ManagerInner, ObjRef};
use crate::node::{TxNode, TxState};
use crate::object::AnyState;
use crate::stats::Ctr;
use crate::trace::RtEvent;

/// A live (sub)transaction.
///
/// Handles are `Send + Sync`: create children and move them into worker
/// threads to run siblings concurrently. Dropping a handle that was neither
/// committed nor aborted aborts it (RAII rollback).
pub struct Tx {
    mgr: Arc<ManagerInner>,
    node: Arc<TxNode>,
    finished: AtomicBool,
}

impl Tx {
    pub(crate) fn new(mgr: Arc<ManagerInner>, node: Arc<TxNode>) -> Tx {
        Tx {
            mgr,
            node,
            finished: AtomicBool::new(false),
        }
    }

    /// This transaction's id.
    pub fn id(&self) -> u64 {
        self.node.id
    }

    /// Nesting depth (0 = top level).
    pub fn depth(&self) -> usize {
        self.node.depth()
    }

    /// `true` once this transaction or an ancestor has aborted.
    pub fn is_doomed(&self) -> bool {
        self.node.is_doomed()
    }

    fn check_usable(&self) -> Result<(), TxError> {
        // Read "finished" before the doom check: an abort from another
        // thread that lands in between must read as `Doomed`, never as
        // `AlreadyFinished`.
        let finished = self.finished.load(Ordering::SeqCst) || self.node.state() != TxState::Active;
        if self.node.is_doomed() {
            return Err(TxError::Doomed);
        }
        if finished {
            return Err(TxError::AlreadyFinished);
        }
        Ok(())
    }

    /// Begin a child transaction.
    pub fn child(&self) -> Result<Tx, TxError> {
        self.check_usable()?;
        // relaxed(tx-id): id allocation only needs uniqueness, which the
        // atomic RMW provides; ids carry no ordering obligations.
        let id = self.mgr.next_tx_id.fetch_add(1, Ordering::Relaxed);
        self.mgr.stats.bump(Ctr::Begun);
        self.mgr.trace(RtEvent::Begin {
            tx: id,
            parent: Some(self.node.id),
        });
        Ok(Tx::new(self.mgr.clone(), TxNode::child_of(&self.node, id)))
    }

    /// Read object `obj` under a read lock. Blocks while a non-ancestor
    /// holds a write lock.
    pub fn read<T: 'static, R>(
        &self,
        obj: &ObjRef<T>,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, TxError> {
        self.check_usable()?;
        Access::new(&self.mgr, &self.node, obj.idx, false, reading(f)).wait()
    }

    /// Read object `obj` without taking any lock and without ever waiting:
    /// the lock-free MVCC snapshot read path.
    ///
    /// Visibility follows the nesting tree, per the paper's §4 read
    /// conditions: if this transaction or an ancestor holds an uncommitted
    /// version of `obj`, that (deepest ancestral) version is returned — a
    /// subtransaction's snapshot must see its ancestors' writes. Otherwise
    /// the newest version published at or before the current commit
    /// timestamp is read straight off the snapshot chain. Neither path
    /// acquires a read lock, enqueues a waiter, or blocks a writer; a
    /// writer never blocks on this read.
    pub fn snapshot_read<T: 'static, R>(
        &self,
        obj: &ObjRef<T>,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, TxError> {
        self.check_usable()?;
        // Ancestral-write intent check: walk the parent chain's touched
        // sets (sorted; binary search each). Only when some ancestor may
        // hold a version do we probe the uncommitted chain — under the
        // slot mutex, a bounded critical section with no wait site.
        let mut ancestral_intent = false;
        let mut cur = Some(self.node.clone());
        while let Some(n) = cur {
            if n.touched.lock().binary_search(&obj.idx).is_ok() {
                ancestral_intent = true;
                break;
            }
            cur = n.parent.clone();
        }
        let slot = self.mgr.slot(obj.idx);
        if ancestral_intent {
            let guard = slot.inner.lock();
            if let Some(i) = guard
                .chain
                .iter()
                .rposition(|e| e.owner.is_ancestor_of(&self.node))
            {
                let r = f(guard.chain[i]
                    .state
                    .as_any()
                    .downcast_ref::<T>()
                    .expect("ObjRef type mismatch"));
                drop(guard);
                self.mgr.stats.bump(Ctr::SnapshotReads);
                self.mgr.trace(RtEvent::SnapRead {
                    tx: self.node.id,
                    obj: obj.idx,
                    ts: self.mgr.commit_ts.load(Ordering::SeqCst),
                });
                return Ok(r);
            }
            // Ancestors touched the object but hold no version (read
            // locks only): fall through to the committed chain.
        }
        // Lock-free committed read. The snapshot timestamp is chosen
        // *after* the chain pin is taken (see `SnapshotCell::read`), which
        // is what makes the ephemeral snapshot safe against concurrent GC.
        let mut ts = 0;
        let r = slot.snap.read(
            || {
                ts = self.mgr.commit_ts.load(Ordering::SeqCst);
                ts
            },
            |st| f(st.downcast_ref::<T>().expect("ObjRef type mismatch")),
        );
        self.mgr.stats.bump(Ctr::SnapshotReads);
        self.mgr.trace(RtEvent::SnapRead {
            tx: self.node.id,
            obj: obj.idx,
            ts,
        });
        Ok(r.1)
    }

    /// Async counterpart of [`Tx::read`]: acquire the read lock without
    /// parking a thread. The returned [`AccessFuture`] is the state machine
    /// [`Tx::read`] drives on its own thread: the same FIFO position, the
    /// same die-on-cycle search at enqueue, completed releaser-side by the
    /// same grant wave, and timed out by the same sweeper (which reads the
    /// deadline off the queue node).
    ///
    /// The future owns `Arc` handles, not a borrow of `self`, so it can
    /// be spawned onto any executor. The closure therefore needs `Send +
    /// 'static` (it travels to whichever thread applies the grant result).
    pub fn read_async<T: 'static, R: 'static>(
        &self,
        obj: &ObjRef<T>,
        f: impl FnOnce(&T) -> R + Send + 'static,
    ) -> AccessFuture<R> {
        self.access_async(obj.idx, false, Box::new(reading(f)))
    }

    /// Async counterpart of [`Tx::write`]; see [`Tx::read_async`] for the
    /// shared semantics (FIFO order, timeouts, executor independence).
    pub fn write_async<T: 'static, R: 'static>(
        &self,
        obj: &ObjRef<T>,
        f: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> AccessFuture<R> {
        self.access_async(obj.idx, true, Box::new(writing(f)))
    }

    fn access_async<R>(&self, obj_idx: usize, write: bool, f: BoxedAccessFn<R>) -> AccessFuture<R> {
        let f = self.check_usable().map(|()| f);
        AccessFuture::new(self.mgr.clone(), self.node.clone(), obj_idx, write, f)
    }

    /// Update object `obj` under a write lock. Blocks while a non-ancestor
    /// holds any lock. The previous version is preserved for rollback.
    pub fn write<T: 'static, R>(
        &self,
        obj: &ObjRef<T>,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, TxError> {
        self.check_usable()?;
        Access::new(&self.mgr, &self.node, obj.idx, true, writing(f)).wait()
    }

    /// Commit. Locks and versions are inherited by the parent; a top-level
    /// commit publishes to the committed store.
    ///
    /// Fails with [`TxError::LiveChildren`] while children are running, and
    /// with [`TxError::Doomed`] (after aborting this subtree) if an
    /// ancestor has aborted meanwhile.
    pub fn commit(&self) -> Result<(), TxError> {
        if self.finished.swap(true, Ordering::SeqCst) {
            return Err(TxError::AlreadyFinished);
        }
        if self.node.is_doomed() {
            // An ancestor died under us; make our own abort explicit.
            self.mgr.abort_subtree(&self.node);
            self.decrement_parent_live();
            return Err(TxError::Doomed);
        }
        if self.node.children_live.load(Ordering::SeqCst) > 0 {
            self.finished.store(false, Ordering::SeqCst);
            return Err(TxError::LiveChildren);
        }
        if self.mgr.config.fault.is_some() {
            let action = self
                .mgr
                .fault_decision(FaultPoint::Commit, &self.node, None, false);
            // Only spontaneous aborts make sense at commit; Timeout and
            // DeadlockVictim describe lock waits and are ignored here.
            if matches!(action, FaultAction::Abort | FaultAction::CrashSubtree) {
                self.mgr.trace(RtEvent::Fault {
                    tx: self.node.id,
                    obj: None,
                    action,
                });
                let target = match action {
                    FaultAction::CrashSubtree => self.node.top(),
                    _ => self.node.clone(),
                };
                self.mgr.abort_subtree(&target);
                self.decrement_parent_live();
                return Err(TxError::Doomed);
            }
        }
        if !self.node.mark_committed() {
            // `finished` rules out a second commit through this handle, so
            // the node was aborted from another thread (a deadlock victim's
            // doom) between the doom check above and here; that abort
            // cleans up.
            self.decrement_parent_live();
            return Err(TxError::Doomed);
        }
        self.mgr.trace(RtEvent::Commit {
            tx: self.node.id,
            top: self.node.parent.is_none(),
        });
        self.mgr.inherit_locks(&self.node);
        self.mgr.stats.bump(Ctr::Commits);
        if self.node.parent.is_none() {
            self.mgr.stats.bump(Ctr::TopCommits);
        }
        self.decrement_parent_live();
        Ok(())
    }

    /// Abort this transaction and its whole subtree; every object it wrote
    /// reverts to the version preceding this subtree.
    ///
    /// Under [`crate::LockMode::Flat2PL`] aborting *any* subtransaction
    /// aborts the entire top-level transaction (no partial rollback — the
    /// behaviour nested transactions exist to improve on).
    pub fn abort(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        let target = match self.mgr.config.mode {
            crate::config::LockMode::Flat2PL => self.mgr.effective_owner(&self.node),
            _ => self.node.clone(),
        };
        self.mgr.abort_subtree(&target);
        if Arc::ptr_eq(&target, &self.node) {
            self.decrement_parent_live();
        } else {
            // Flat mode aborted the whole top-level transaction; our own
            // parent bookkeeping is subsumed by the subtree abort.
        }
    }

    fn decrement_parent_live(&self) {
        if let Some(p) = &self.node.parent {
            p.children_live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Run `f` inside a fresh child: commit on `Ok`, abort on `Err`.
    pub fn run_child<R, E: From<TxError>>(
        &self,
        f: impl FnOnce(&Tx) -> Result<R, E>,
    ) -> Result<R, E> {
        let child = self.child()?;
        match f(&child) {
            Ok(r) => {
                child.commit()?;
                Ok(r)
            }
            Err(e) => {
                child.abort();
                Err(e)
            }
        }
    }

    /// Like [`Tx::run_child`], retrying up to `attempts` times when the
    /// child fails with a retryable error ([`TxError::Deadlock`] or
    /// [`TxError::Timeout`]) — the nested-transaction recovery idiom: only
    /// the failed subtree is redone.
    pub fn retry_child<R>(
        &self,
        attempts: usize,
        mut f: impl FnMut(&Tx) -> Result<R, TxError>,
    ) -> Result<R, TxError> {
        let mut last = TxError::Deadlock;
        for _ in 0..attempts.max(1) {
            match self.run_child(&mut f) {
                Ok(r) => return Ok(r),
                Err(e @ (TxError::Deadlock | TxError::Timeout)) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }
}

/// A read closure over `T`, as the access closure over the type-erased
/// state that the lock protocol runs.
fn reading<T: 'static, R>(f: impl FnOnce(&T) -> R) -> impl FnOnce(&mut dyn AnyState) -> R {
    move |st| f(st.as_any().downcast_ref().expect("ObjRef type mismatch"))
}

/// The write counterpart of [`reading`].
fn writing<T: 'static, R>(f: impl FnOnce(&mut T) -> R) -> impl FnOnce(&mut dyn AnyState) -> R {
    move |st| {
        f(st.as_any_mut()
            .downcast_mut()
            .expect("ObjRef type mismatch"))
    }
}

impl Drop for Tx {
    fn drop(&mut self) {
        if !self.finished.load(Ordering::SeqCst) && self.node.state() == TxState::Active {
            self.abort();
        }
    }
}

impl std::fmt::Debug for Tx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tx(id={}, depth={})", self.node.id, self.node.depth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LockMode, RtConfig};
    use crate::manager::TxManager;
    use std::time::Duration;

    fn quick_mgr(mode: LockMode) -> TxManager {
        TxManager::new(RtConfig {
            mode,
            wait_timeout: Duration::from_millis(200),
            ..Default::default()
        })
    }

    #[test]
    fn read_your_own_writes() {
        let mgr = quick_mgr(LockMode::MossRW);
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        tx.write(&x, |v| *v = 7).unwrap();
        assert_eq!(tx.read(&x, |v| *v).unwrap(), 7);
        assert_eq!(mgr.read_committed(&x, |v| *v), 0);
        tx.commit().unwrap();
        assert_eq!(mgr.read_committed(&x, |v| *v), 7);
    }

    #[test]
    fn child_sees_parent_data_world_does_not() {
        let mgr = quick_mgr(LockMode::MossRW);
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        tx.write(&x, |v| *v = 1).unwrap();
        let child = tx.child().unwrap();
        assert_eq!(
            child.read(&x, |v| *v).unwrap(),
            1,
            "descendant reads parent version"
        );
        child.write(&x, |v| *v += 10).unwrap();
        child.commit().unwrap();
        assert_eq!(
            tx.read(&x, |v| *v).unwrap(),
            11,
            "parent inherited child's version"
        );
        // A stranger is still blocked (bounded wait → timeout).
        let other = mgr.begin();
        assert_eq!(other.read(&x, |v| *v), Err(TxError::Timeout));
        other.abort();
        tx.commit().unwrap();
        assert_eq!(mgr.read_committed(&x, |v| *v), 11);
    }

    #[test]
    fn child_abort_rolls_back_only_child() {
        let mgr = quick_mgr(LockMode::MossRW);
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        tx.write(&x, |v| *v = 5).unwrap();
        let child = tx.child().unwrap();
        child.write(&x, |v| *v = 99).unwrap();
        child.abort();
        assert_eq!(tx.read(&x, |v| *v).unwrap(), 5, "parent version restored");
        tx.commit().unwrap();
        assert_eq!(mgr.read_committed(&x, |v| *v), 5);
    }

    #[test]
    fn top_level_abort_restores_base() {
        let mgr = quick_mgr(LockMode::MossRW);
        let x = mgr.register("x", 3i64);
        let tx = mgr.begin();
        tx.write(&x, |v| *v = 8).unwrap();
        tx.abort();
        assert_eq!(mgr.read_committed(&x, |v| *v), 3);
        // Object is free again.
        let tx2 = mgr.begin();
        assert_eq!(tx2.read(&x, |v| *v).unwrap(), 3);
        tx2.commit().unwrap();
    }

    #[test]
    fn commit_with_live_children_fails() {
        let mgr = quick_mgr(LockMode::MossRW);
        let tx = mgr.begin();
        let child = tx.child().unwrap();
        assert_eq!(tx.commit(), Err(TxError::LiveChildren));
        child.commit().unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn operations_after_finish_fail() {
        let mgr = quick_mgr(LockMode::MossRW);
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        tx.commit().unwrap();
        assert_eq!(tx.read(&x, |v| *v), Err(TxError::AlreadyFinished));
        assert_eq!(tx.child().err(), Some(TxError::AlreadyFinished));
        assert_eq!(tx.commit(), Err(TxError::AlreadyFinished));
    }

    #[test]
    fn descendants_of_aborted_are_doomed() {
        let mgr = quick_mgr(LockMode::MossRW);
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        let child = tx.child().unwrap();
        let grand = child.child().unwrap();
        tx.abort();
        assert!(grand.is_doomed());
        assert_eq!(grand.read(&x, |v| *v), Err(TxError::Doomed));
        assert_eq!(child.commit(), Err(TxError::Doomed));
    }

    #[test]
    fn raii_drop_aborts() {
        let mgr = quick_mgr(LockMode::MossRW);
        let x = mgr.register("x", 1i64);
        {
            let tx = mgr.begin();
            tx.write(&x, |v| *v = 100).unwrap();
            // dropped without commit
        }
        assert_eq!(mgr.read_committed(&x, |v| *v), 1);
        assert!(mgr.stats().aborts >= 1);
    }

    #[test]
    fn run_child_commits_on_ok_aborts_on_err() {
        let mgr = quick_mgr(LockMode::MossRW);
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        let r: Result<i64, TxError> = tx.run_child(|c| {
            c.write(&x, |v| *v = 4)?;
            Ok(4)
        });
        assert_eq!(r.unwrap(), 4);
        let r: Result<(), TxError> = tx.run_child(|c| {
            c.write(&x, |v| *v = 9)?;
            Err(TxError::Deadlock) // simulate failure
        });
        assert!(r.is_err());
        assert_eq!(tx.read(&x, |v| *v).unwrap(), 4, "failed child rolled back");
        tx.commit().unwrap();
    }

    #[test]
    fn siblings_with_read_locks_coexist() {
        let mgr = quick_mgr(LockMode::MossRW);
        let x = mgr.register("x", 42i64);
        let tx = mgr.begin();
        let c1 = tx.child().unwrap();
        let c2 = tx.child().unwrap();
        assert_eq!(c1.read(&x, |v| *v).unwrap(), 42);
        assert_eq!(
            c2.read(&x, |v| *v).unwrap(),
            42,
            "read locks do not conflict"
        );
        c1.commit().unwrap();
        c2.commit().unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn sibling_write_blocks_sibling_read() {
        let mgr = quick_mgr(LockMode::MossRW);
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        let c1 = tx.child().unwrap();
        let c2 = tx.child().unwrap();
        c1.write(&x, |v| *v = 1).unwrap();
        assert_eq!(
            c2.read(&x, |v| *v),
            Err(TxError::Timeout),
            "sibling write blocks"
        );
        // After c1 commits, the lock is the parent's — c2 (descendant) passes.
        c1.commit().unwrap();
        assert_eq!(c2.read(&x, |v| *v).unwrap(), 1);
        c2.commit().unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn exclusive_mode_reads_conflict() {
        let mgr = quick_mgr(LockMode::Exclusive);
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        let c1 = tx.child().unwrap();
        let c2 = tx.child().unwrap();
        assert_eq!(c1.read(&x, |v| *v).unwrap(), 0);
        assert_eq!(
            c2.read(&x, |v| *v),
            Err(TxError::Timeout),
            "exclusive: reads conflict"
        );
        c1.commit().unwrap();
        c2.abort();
        tx.commit().unwrap();
    }

    #[test]
    fn flat2pl_child_abort_dooms_top_level() {
        let mgr = quick_mgr(LockMode::Flat2PL);
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        tx.write(&x, |v| *v = 1).unwrap();
        let child = tx.child().unwrap();
        child.write(&x, |v| *v = 2).unwrap();
        child.abort();
        // The WHOLE transaction died, including the parent's write.
        assert!(tx.is_doomed());
        assert_eq!(tx.read(&x, |v| *v), Err(TxError::Doomed));
        assert_eq!(mgr.read_committed(&x, |v| *v), 0);
    }

    #[test]
    fn flat2pl_children_share_locks() {
        let mgr = quick_mgr(LockMode::Flat2PL);
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        let c1 = tx.child().unwrap();
        c1.write(&x, |v| *v = 1).unwrap();
        let c2 = tx.child().unwrap();
        // In flat mode both children act as the top-level owner: no
        // isolation between siblings.
        assert_eq!(c2.read(&x, |v| *v).unwrap(), 1);
        c1.commit().unwrap();
        c2.commit().unwrap();
        tx.commit().unwrap();
        assert_eq!(mgr.read_committed(&x, |v| *v), 1);
    }

    #[test]
    fn deadlock_detected_across_threads() {
        use std::sync::Barrier;
        let mgr = TxManager::new(RtConfig {
            wait_timeout: Duration::from_secs(5),
            ..Default::default()
        });
        let x = mgr.register("x", 0i64);
        let y = mgr.register("y", 0i64);
        let barrier = Arc::new(Barrier::new(2));
        let mgr2 = mgr.clone();
        let b2 = barrier.clone();
        let h = std::thread::spawn(move || {
            let t = mgr2.begin();
            t.write(&x, |v| *v += 1).unwrap();
            b2.wait();
            let r = t.write(&y, |v| *v += 1);
            t.abort();
            r.err()
        });
        let t = mgr.begin();
        t.write(&y, |v| *v += 1).unwrap();
        barrier.wait();
        let r = t.write(&x, |v| *v += 1);
        t.abort();
        let other = h.join().unwrap();
        // At least one side must observe the deadlock.
        let mine = r.err();
        assert!(
            mine == Some(TxError::Deadlock) || other == Some(TxError::Deadlock),
            "no deadlock detected: {mine:?} / {other:?}"
        );
    }

    #[test]
    fn retry_child_eventually_gives_up() {
        let mgr = quick_mgr(LockMode::MossRW);
        let tx = mgr.begin();
        let mut calls = 0;
        let r: Result<(), TxError> = tx.retry_child(3, |_| {
            calls += 1;
            Err(TxError::Deadlock)
        });
        assert_eq!(r, Err(TxError::Deadlock));
        assert_eq!(calls, 3);
        tx.commit().unwrap();
    }

    #[test]
    fn concurrent_top_level_transactions_serialize_writes() {
        let mgr = TxManager::new(RtConfig {
            wait_timeout: Duration::from_secs(10),
            ..Default::default()
        });
        let x = mgr.register("x", 0i64);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let mgr = mgr.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let t = mgr.begin();
                        t.write(&x, |v| *v += 1).unwrap();
                        t.commit().unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(mgr.read_committed(&x, |v| *v), 400);
        assert_eq!(mgr.stats().top_level_commits, 400);
    }
}
