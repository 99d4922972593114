//! Async lock acquisition: [`AccessFuture`], the polled counterpart of
//! `ManagerInner::access`.
//!
//! The future and the parked thread share every byte of the lock
//! protocol. Both run `access_attempt` (fault points, inline grant, FIFO
//! enqueue with its die-on-cycle search) and both hand
//! a resolved waiter to `finish_after_wait`. The only difference is what
//! happens in between: a sync waiter spins then parks on its condvar
//! slot, while the future's waiter carries a wakeup callback (the task
//! [`Waker`]) that the *releasing* thread invokes from the same
//! `release_scan` wave that would have unparked a thread — completing a
//! future is exactly as cheap releaser-side as an unpark, and the sync
//! hot path gains zero new synchronization (the waiter variant is a plain
//! `bool` checked inside `wake()`).
//!
//! Timeouts cannot ride on a parked thread the future does not have. The
//! deadline lives in the queue node either way; for a callback waiter the
//! manager's sweeper (`sweeper.rs`, one thread per manager, joined on
//! manager drop) reads it off the queue and runs the very same
//! `timeout_withdraw` the sync path runs in place, so a queued future
//! holds nothing but its node. The `state` CAS arbitrates grant vs.
//! timeout vs. doom exactly as before — the releaser cannot tell the two
//! waiter representations apart.
//!
//! Dropping an unresolved future withdraws its queue node (never counted
//! as a timeout). If a grant raced the drop and won, the lock is already
//! installed and stays held by the transaction — identical to an `access`
//! call whose closure did nothing — and only the unapplied-write latch is
//! lifted so the queue cannot wedge; commit/abort releases the lock as
//! usual.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::error::TxError;
use crate::manager::{Attempt, ManagerInner};
use crate::node::TxNode;
use crate::object::{AnyState, Waiter, WakeCallback, W_GRANTED, W_WAITING};
use crate::sync::Arc;

/// The boxed access closure: same shape as the closure `access` takes,
/// boxed so the future can store it across polls.
type BoxedAccessFn<R> = Box<dyn FnOnce(&mut dyn AnyState) -> R + Send>;

/// Where the future is in the lock protocol.
enum Stage<R> {
    /// Not yet polled; holds the unconsumed closure.
    Init(BoxedAccessFn<R>),
    /// Creation-time failure (`check_usable`): fail on first poll without
    /// ever touching the object.
    Fail(TxError),
    /// A waiter node is queued on the object; the releaser (or the
    /// sweeper) resolves it and wakes us through the waiter's callback slot.
    Queued { w: Arc<Waiter>, f: BoxedAccessFn<R> },
    /// Resolved (or consumed by drop).
    Done,
}

/// Future returned by [`crate::Tx::read_async`] / [`crate::Tx::write_async`].
///
/// Resolves to the closure's result once the lock is granted, or to the
/// same errors the sync path reports ([`TxError::Timeout`],
/// [`TxError::Deadlock`], [`TxError::Doomed`], ...). The future owns
/// `Arc` handles only — it does not borrow the [`crate::Tx`] — so it can
/// be moved onto any executor; dropping the originating `Tx` aborts the
/// transaction and the future resolves `Doomed` like any other doomed
/// waiter.
pub struct AccessFuture<R> {
    mgr: Arc<ManagerInner>,
    node: Arc<TxNode>,
    obj_idx: usize,
    write: bool,
    stage: Stage<R>,
}

impl<R> AccessFuture<R> {
    pub(crate) fn new(
        mgr: Arc<ManagerInner>,
        node: Arc<TxNode>,
        obj_idx: usize,
        write: bool,
        f: BoxedAccessFn<R>,
    ) -> Self {
        AccessFuture {
            mgr,
            node,
            obj_idx,
            write,
            stage: Stage::Init(f),
        }
    }

    pub(crate) fn failed(
        mgr: Arc<ManagerInner>,
        node: Arc<TxNode>,
        obj_idx: usize,
        write: bool,
        err: TxError,
    ) -> Self {
        AccessFuture {
            mgr,
            node,
            obj_idx,
            write,
            stage: Stage::Fail(err),
        }
    }

    /// Poll a queued waiter: refresh the wakeup callback with the current
    /// task's waker *before* reading the state word (so a grant that lands
    /// between the two takes the fresh callback — no lost wakeup), then
    /// classify.
    fn poll_queued(&mut self, cx: &mut Context<'_>) -> Poll<Result<R, TxError>> {
        let Stage::Queued { w, .. } = &self.stage else {
            unreachable!("poll_queued needs Stage::Queued");
        };
        let waker = cx.waker().clone();
        let cb: WakeCallback = Box::new(move || waker.wake());
        w.set_callback(cb);
        if w.state() == W_WAITING {
            return Poll::Pending;
        }
        // Final state: consume the stage and resolve.
        let Stage::Queued { w, f } = std::mem::replace(&mut self.stage, Stage::Done) else {
            unreachable!("checked above");
        };
        Poll::Ready(self.mgr.finish_after_wait(&w, self.obj_idx, f))
    }
}

impl<R> Future for AccessFuture<R> {
    type Output = Result<R, TxError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match &this.stage {
            Stage::Done => panic!("AccessFuture polled after completion"),
            Stage::Fail(_) => {
                let Stage::Fail(e) = std::mem::replace(&mut this.stage, Stage::Done) else {
                    unreachable!("checked above");
                };
                Poll::Ready(Err(e))
            }
            Stage::Queued { .. } => this.poll_queued(cx),
            Stage::Init(_) => {
                let Stage::Init(f) = std::mem::replace(&mut this.stage, Stage::Done) else {
                    unreachable!("checked above");
                };
                let waker = cx.waker().clone();
                let cb: WakeCallback = Box::new(move || waker.wake());
                let attempt =
                    this.mgr
                        .access_attempt(&this.node, this.obj_idx, this.write, f, Some(cb));
                match attempt {
                    Attempt::Done(r) => Poll::Ready(r),
                    Attempt::Queued { w, f } => {
                        // The node carries its own deadline; all it needs
                        // is a sweeper awake to read it.
                        this.mgr.sweeper.kick(&this.mgr);
                        this.stage = Stage::Queued { w, f };
                        this.poll_queued(cx)
                    }
                }
            }
        }
    }
}

impl<R> Drop for AccessFuture<R> {
    fn drop(&mut self) {
        let stage = std::mem::replace(&mut self.stage, Stage::Done);
        let Stage::Queued { w, f } = stage else {
            return;
        };
        drop(f);
        if self.mgr.withdraw_waiter(self.obj_idx, &w) {
            // Withdrawn in place: the queue slot is gone, nothing leaked,
            // and (unlike expiry) no timeout is counted.
            return;
        }
        // A final state raced the drop and won the CAS.
        *self.node.waiting_on.lock() = None;
        if w.state() == W_GRANTED {
            // The releaser already installed our lock state and dequeued
            // us. The lock stays held by the transaction — exactly as if
            // `access` had returned and the closure done nothing — and is
            // released by commit/abort. Only the unapplied-write latch
            // must be lifted here, or every later grant on this object
            // stays gated on a writer that will never apply.
            let slot = self.mgr.slot(self.obj_idx);
            let mut guard = slot.inner.lock();
            if w.write && guard.write_pending == Some(w.owner.id) {
                guard.write_pending = None;
            }
            let wake = self.mgr.release_scan(self.obj_idx, &mut guard);
            drop(guard);
            wake.run(&self.mgr);
        }
        // W_CANCELLED / W_TIMEDOUT: the canceller (or the sweeper) already
        // dequeued the node and cleaned up.
    }
}
