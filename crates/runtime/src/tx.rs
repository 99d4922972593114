//! Transaction handles.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Arc;

use crate::error::TxError;
use crate::fault::{FaultAction, FaultPoint};
use crate::future::{Access, AccessFuture, BoxedAccessFn};
use crate::manager::{ManagerInner, ObjRef};
use crate::node::{ObjSet, TxNode, TxState};
use crate::object::StateRef;
use crate::stats::Ctr;
use crate::trace::RtEvent;

/// A live (sub)transaction.
///
/// Handles are `Send + Sync`: create children and move them into worker
/// threads to run siblings concurrently. Dropping a handle that was neither
/// committed nor aborted aborts it (RAII rollback).
pub struct Tx {
    node: Arc<TxNode>,
    finished: AtomicBool,
}

impl Tx {
    /// A handle for `node`, whose top carries the manager.
    pub(crate) fn new(node: Arc<TxNode>) -> Tx {
        debug_assert!(node.top().mgr.is_some(), "a handle's top has a manager");
        Tx {
            node,
            finished: AtomicBool::new(false),
        }
    }

    /// The manager, reached through this transaction's top: a child's
    /// handle holds no reference of its own.
    fn mgr(&self) -> &Arc<ManagerInner> {
        self.node
            .top()
            .mgr
            .as_ref()
            .expect("a handle's top has a manager")
    }

    /// The transaction's node (unit tests read its wait-for record).
    #[cfg(test)]
    pub(crate) fn node(&self) -> &Arc<TxNode> {
        &self.node
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
        let finished = self.finished.load(Ordering::SeqCst);
        match self.node.fate() {
            TxState::Aborted => Err(TxError::Doomed),
            TxState::Active if !finished => Ok(()),
            _ => Err(TxError::AlreadyFinished),
        }
    }

    /// Begin a child transaction.
    pub fn child(&self) -> Result<Tx, TxError> {
        self.check_usable()?;
        let mgr = self.mgr();
        // relaxed(tx-id): id allocation only needs uniqueness, which the
        // atomic RMW provides; ids carry no ordering obligations.
        let id = mgr.next_tx_id.fetch_add(1, Ordering::Relaxed);
        mgr.stats.bump(Ctr::Begun);
        mgr.trace(RtEvent::Begin {
            tx: id,
            parent: Some(self.node.id),
        });
        Ok(Tx::new(TxNode::child_of(&self.node, id)))
    }

    /// Read object `obj` under a read lock. Blocks while a non-ancestor
    /// holds a write lock.
    pub fn read<T: 'static, R>(
        &self,
        obj: &ObjRef<T>,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, TxError> {
        self.check_usable()?;
        Access::new(self.mgr(), &self.node, obj.idx, false, reading(f)).wait()
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
        let mgr = self.mgr();
        // Ancestral-write intent check: walk the parent chain's touched
        // sets (sorted; binary search each), with the committed children
        // each has not folded in yet. Only when some ancestor may hold a
        // version do we probe the uncommitted chain — under the slot
        // mutex, a bounded critical section with no wait site.
        let mut ancestral_intent = false;
        let mut cur = Some(&*self.node);
        while let Some(n) = cur {
            if n.reaches(obj.idx) {
                ancestral_intent = true;
                break;
            }
            cur = n.parent.as_deref();
        }
        let slot = mgr.slot(obj.idx);
        if ancestral_intent {
            let guard = slot.inner.lock();
            if let Some(st) = guard.ancestral(&self.node) {
                let r = f(st
                    .as_any()
                    .downcast_ref::<T>()
                    .expect("ObjRef type mismatch"));
                drop(guard);
                mgr.stats.bump(Ctr::SnapshotReads);
                mgr.trace(RtEvent::SnapRead {
                    tx: self.node.id,
                    obj: obj.idx,
                    ts: mgr.commit_ts.load(Ordering::SeqCst),
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
                ts = mgr.commit_ts.load(Ordering::SeqCst);
                ts
            },
            |st| f(st.downcast_ref::<T>().expect("ObjRef type mismatch")),
        );
        mgr.stats.bump(Ctr::SnapshotReads);
        mgr.trace(RtEvent::SnapRead {
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
        AccessFuture::new(self.mgr().clone(), self.node.clone(), obj_idx, write, f)
    }

    /// Update object `obj` under a write lock. Blocks while a non-ancestor
    /// holds any lock. The previous version is preserved for rollback.
    pub fn write<T: 'static, R>(
        &self,
        obj: &ObjRef<T>,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, TxError> {
        self.check_usable()?;
        Access::new(self.mgr(), &self.node, obj.idx, true, writing(f)).wait()
    }

    /// Commit. Locks and versions are inherited by the parent; a top-level
    /// commit publishes to the committed store.
    ///
    /// Fails with [`TxError::LiveChildren`] while children are running —
    /// an access still in flight counts, being a child in the paper — and
    /// with [`TxError::Doomed`] (after aborting this subtree) if an
    /// ancestor has aborted meanwhile.
    ///
    /// A child's commit touches no lock: its parent inherits its locks and
    /// versions where they lie (see `node.rs`).
    pub fn commit(&self) -> Result<(), TxError> {
        if self.finished.swap(true, Ordering::SeqCst) {
            return Err(TxError::AlreadyFinished);
        }
        let mgr = self.mgr();
        if self.node.is_doomed() {
            // An ancestor died under us; make our own abort explicit.
            mgr.abort_subtree(&self.node);
            self.node.leave_parent();
            return Err(TxError::Doomed);
        }
        // A queued request keeps `waiting_on` set until its requester has
        // taken the outcome; committing under it would let the grant wave
        // hand a lock to a finished node.
        // A top folds its committed children in here, under the same book
        // lock that finds a live one.
        let top = self.node.parent.is_none();
        let touched = if top {
            self.node.fold_children()
        } else {
            (!self.node.has_live_children()).then(ObjSet::new)
        };
        let Some(touched) = touched.filter(|_| self.node.waiting_on().is_none()) else {
            self.finished.store(false, Ordering::SeqCst);
            return Err(TxError::LiveChildren);
        };
        if mgr.config.fault.is_some() {
            let action = mgr.fault_decision(FaultPoint::Commit, &self.node, None, false);
            // Only spontaneous aborts make sense at commit; Timeout and
            // DeadlockVictim describe lock waits and are ignored here.
            if matches!(action, FaultAction::Abort | FaultAction::CrashSubtree) {
                mgr.trace(RtEvent::Fault {
                    tx: self.node.id,
                    obj: None,
                    action,
                });
                let target = match action {
                    FaultAction::CrashSubtree => self.node.top(),
                    _ => &self.node,
                };
                mgr.abort_subtree(target);
                self.node.leave_parent();
                return Err(TxError::Doomed);
            }
        }
        let committed = if top {
            mgr.commit_top(&self.node, &touched)
        } else {
            mgr.commit_child(&self.node)
        };
        if !committed {
            // `finished` rules out a second commit through this handle, so
            // the node was aborted from another thread (a deadlock victim's
            // doom) between the doom check above and its commit; that
            // abort cleans up.
            self.node.leave_parent();
            return Err(TxError::Doomed);
        }
        mgr.stats.bump(Ctr::Commits);
        if top {
            mgr.stats.bump(Ctr::TopCommits);
        }
        self.node.leave_parent();
        Ok(())
    }

    /// Abort this transaction and its whole subtree; every object it wrote
    /// reverts to the version preceding this subtree.
    pub fn abort(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        self.mgr().abort_subtree(&self.node);
        self.node.leave_parent();
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
fn reading<T: 'static, R>(f: impl FnOnce(&T) -> R) -> impl FnOnce(StateRef<'_>) -> R {
    move |st| {
        let StateRef::Read(st) = st else {
            unreachable!("a read request is granted a shared version")
        };
        f(st.as_any().downcast_ref().expect("ObjRef type mismatch"))
    }
}

/// The write counterpart of [`reading`].
fn writing<T: 'static, R>(f: impl FnOnce(&mut T) -> R) -> impl FnOnce(StateRef<'_>) -> R {
    move |st| {
        let StateRef::Write(st) = st else {
            unreachable!("a write request is granted its own version")
        };
        f(st.as_any_mut()
            .downcast_mut()
            .expect("ObjRef type mismatch"))
    }
}

impl Drop for Tx {
    fn drop(&mut self) {
        if self.finished.load(Ordering::SeqCst) {
            return;
        }
        if self.node.state() == TxState::Active {
            self.abort();
        } else {
            // Aborted from outside (an ancestor's abort, a victim's doom,
            // an injected fault) and never returned through this handle:
            // the abort cleaned up everything but the parent's list.
            self.node.leave_parent();
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
    use crate::config::RtConfig;
    use crate::manager::TxManager;
    use std::time::Duration;

    fn quick_mgr() -> TxManager {
        TxManager::new(RtConfig {
            wait_timeout: Duration::from_millis(200),
            ..Default::default()
        })
    }

    #[test]
    fn read_your_own_writes() {
        let mgr = quick_mgr();
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
        let mgr = quick_mgr();
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
        let mgr = quick_mgr();
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
        let mgr = quick_mgr();
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
        let mgr = quick_mgr();
        let tx = mgr.begin();
        let child = tx.child().unwrap();
        assert_eq!(tx.commit(), Err(TxError::LiveChildren));
        child.commit().unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn operations_after_finish_fail() {
        let mgr = quick_mgr();
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        tx.commit().unwrap();
        assert_eq!(tx.read(&x, |v| *v), Err(TxError::AlreadyFinished));
        assert_eq!(tx.child().err(), Some(TxError::AlreadyFinished));
        assert_eq!(tx.commit(), Err(TxError::AlreadyFinished));
    }

    #[test]
    fn descendants_of_aborted_are_doomed() {
        let mgr = quick_mgr();
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
        let mgr = quick_mgr();
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
        let mgr = quick_mgr();
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
        let mgr = quick_mgr();
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
        let mgr = quick_mgr();
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

    /// Exclusive locking is a caller's choice (§4.3): a read issued as a
    /// write whose closure only reads takes a write lock, so siblings'
    /// "reads" conflict where Moss' read locks would share.
    #[test]
    fn exclusive_mode_reads_conflict() {
        let mgr = quick_mgr();
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        let c1 = tx.child().unwrap();
        let c2 = tx.child().unwrap();
        assert_eq!(c1.write(&x, |v| *v).unwrap(), 0);
        assert_eq!(
            c2.write(&x, |v| *v),
            Err(TxError::Timeout),
            "exclusive: reads conflict"
        );
        c1.commit().unwrap();
        c2.abort();
        tx.commit().unwrap();
    }

    /// Flat two-phase locking is a caller's choice too: a child failure
    /// aborts the top, which takes the parent's own writes with it.
    #[test]
    fn flat2pl_child_abort_dooms_top_level() {
        let mgr = quick_mgr();
        let x = mgr.register("x", 0i64);
        let tx = mgr.begin();
        tx.write(&x, |v| *v = 1).unwrap();
        let child = tx.child().unwrap();
        child.write(&x, |v| *v = 2).unwrap();
        child.abort();
        tx.abort();
        // The WHOLE transaction died, including the parent's write.
        assert!(tx.is_doomed());
        assert_eq!(tx.read(&x, |v| *v), Err(TxError::Doomed));
        assert_eq!(mgr.read_committed(&x, |v| *v), 0);
    }

    /// A returned child leaves its parent's list: a long-lived parent (a
    /// savepoint loop, a `retry_child` loop, a wire session) keeps nothing
    /// of the children it is done with.
    #[test]
    fn finished_children_leave_the_parent() {
        let mgr = quick_mgr();
        let x = mgr.register("x", 0i64);
        let top = mgr.begin();
        for i in 0..10_000 {
            top.run_child(|c| c.write(&x, |v| *v += 1)).unwrap();
            let c = top.child().unwrap();
            c.write(&x, |v| *v += 1).unwrap();
            if i % 2 == 0 {
                c.abort();
            } // else dropped: RAII abort
        }
        assert_eq!(top.node.listed_children(), 0, "returned children kept");
        top.commit().unwrap();
        assert_eq!(mgr.read_committed(&x, |v| *v), 10_000);
    }

    /// Past the inline ancestor path (depth 5): a depth-12 chain writes at
    /// every level, loses its middle to an abort — doom reaches the bottom
    /// — then reruns and commits all the way up.
    #[test]
    fn depth_twelve_chain_aborts_in_the_middle_and_commits() {
        let mgr = quick_mgr();
        let x = mgr.register("x", 0i64);
        let y = mgr.register("y", 0i64);
        let mut chain = vec![mgr.begin()];
        let grow = |chain: &mut Vec<Tx>| {
            while chain.len() <= 12 {
                let c = chain.last().unwrap().child().unwrap();
                c.write(&x, |v| *v += 1).unwrap();
                chain.push(c);
            }
        };
        grow(&mut chain);
        assert_eq!(chain[12].depth(), 12);
        assert_eq!(chain[12].read(&x, |v| *v).unwrap(), 12);
        let stranger = mgr.begin();
        assert_eq!(stranger.read(&x, |v| *v), Err(TxError::Timeout));
        stranger.abort();
        chain[6].abort();
        assert!(chain[12].is_doomed());
        assert_eq!(chain[12].write(&y, |v| *v = 1), Err(TxError::Doomed));
        assert_eq!(chain[7].commit(), Err(TxError::Doomed));
        chain.truncate(6);
        assert_eq!(
            chain[5].read(&x, |v| *v).unwrap(),
            5,
            "depths 6.. rolled back"
        );
        grow(&mut chain);
        while let Some(c) = chain.pop() {
            c.commit().unwrap();
        }
        assert_eq!(mgr.read_committed(&x, |v| *v), 12);
        assert_eq!(mgr.read_committed(&y, |v| *v), 0);
    }

    /// Past the inline touched set (four objects): 64 objects inherited by
    /// a parent, rolled back by a sibling's abort, published by the
    /// top-level commit, then written and rolled back by a top-level abort.
    #[test]
    fn sixty_four_objects_commit_and_abort() {
        let mgr = quick_mgr();
        let objs: Vec<_> = (0..64)
            .map(|i| mgr.register(format!("o{i}"), i as i64))
            .collect();
        let top = mgr.begin();
        let child = top.child().unwrap();
        let written = |i: usize| i & 1 == 0;
        // Descending order: every insert into the sorted set shifts.
        for (i, o) in objs.iter().enumerate().rev() {
            if written(i) {
                child.write(o, |v| *v += 100).unwrap();
            } else {
                child.read(o, |v| *v).unwrap();
            }
        }
        child.commit().unwrap();
        assert_eq!(
            top.node.subtree_objects().len(),
            64,
            "the heir reaches the set"
        );
        let sibling = top.child().unwrap();
        for o in &objs {
            sibling.write(o, |v| *v = -1).unwrap();
        }
        sibling.abort();
        let expect = |i: usize| i as i64 + if written(i) { 100 } else { 0 };
        for (i, o) in objs.iter().enumerate() {
            assert_eq!(top.read(o, |v| *v).unwrap(), expect(i));
        }
        top.commit().unwrap();
        let doomed = mgr.begin();
        for o in &objs {
            doomed.write(o, |v| *v = -2).unwrap();
        }
        doomed.abort();
        let after = mgr.begin();
        for (i, o) in objs.iter().enumerate() {
            assert_eq!(mgr.read_committed(o, |v| *v), expect(i));
            after.write(o, |v| *v += 1).unwrap();
        }
        after.commit().unwrap();
        assert_eq!(mgr.read_committed(&objs[63], |v| *v), 64);
    }

    /// Past the inline child list (two): sixteen live children, one
    /// aborted, the rest committed; then a top-level abort that walks
    /// sixteen live children.
    #[test]
    fn sixteen_live_children_and_a_sibling_abort() {
        let mgr = quick_mgr();
        let objs: Vec<_> = (0..16)
            .map(|i| mgr.register(format!("o{i}"), 0i64))
            .collect();
        let top = mgr.begin();
        let mut kids: Vec<Tx> = objs.iter().map(|_| top.child().unwrap()).collect();
        for (k, o) in kids.iter().zip(&objs) {
            k.write(o, |v| *v = 1).unwrap();
        }
        assert_eq!(top.node.listed_children(), 16);
        kids.remove(5).abort();
        assert_eq!(top.node.listed_children(), 15);
        assert_eq!(top.commit(), Err(TxError::LiveChildren));
        while let Some(k) = kids.pop() {
            k.commit().unwrap();
        }
        top.commit().unwrap();
        for (i, o) in objs.iter().enumerate() {
            assert_eq!(mgr.read_committed(o, |v| *v), i64::from(i != 5));
        }
        let top = mgr.begin();
        let kids: Vec<Tx> = objs.iter().map(|_| top.child().unwrap()).collect();
        for (k, o) in kids.iter().zip(&objs) {
            k.write(o, |v| *v = 9).unwrap();
        }
        top.abort();
        assert!(kids.iter().all(Tx::is_doomed));
        drop(kids);
        for (i, o) in objs.iter().enumerate() {
            assert_eq!(mgr.read_committed(o, |v| *v), i64::from(i != 5));
        }
        let probe = mgr.begin();
        for o in &objs {
            probe.write(o, |v| *v += 1).unwrap();
        }
        probe.commit().unwrap();
    }

    /// A child aborted from outside — here by an injected fault at its lock
    /// request — whose handle is then dropped has returned too: its parent
    /// can still commit.
    #[test]
    fn child_aborted_from_outside_then_dropped_leaves_the_parent() {
        use crate::fault::{FaultContext, FaultInjector};
        struct AbortChildren;
        impl FaultInjector for AbortChildren {
            fn decide(&self, ctx: &FaultContext) -> FaultAction {
                if ctx.point == FaultPoint::LockRequest && ctx.depth == 1 {
                    FaultAction::Abort
                } else {
                    FaultAction::Continue
                }
            }
        }
        let mgr = TxManager::new(RtConfig {
            fault: Some(Arc::new(AbortChildren)),
            ..Default::default()
        });
        let x = mgr.register("x", 0i64);
        let top = mgr.begin();
        let child = top.child().unwrap();
        assert_eq!(child.write(&x, |v| *v = 1), Err(TxError::Doomed));
        drop(child);
        top.write(&x, |v| *v = 2).unwrap();
        top.commit().unwrap();
        assert_eq!(mgr.read_committed(&x, |v| *v), 2);
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
        let mgr = quick_mgr();
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
