//! One lock request's state machine, [`Access`], and its two drivers.
//!
//! A request runs `access_attempt` (fault points, inline grant, FIFO
//! enqueue with its die-on-cycle search); if it queued, it waits on its
//! queue node, whose one wake slot (a [`Waker`]) fires after a grant wave,
//! a doom cancel or the sweeper's timeout resolved the node by its state
//! CAS; then `finish_after_wait` turns the final state into the result.
//! [`AccessFuture`] (`Tx::read_async`/`write_async`) polls it with the
//! task's waker. [`Access::wait`] (`Tx::read`/`write`) polls it with the
//! calling thread's waker: on `Pending` it spins on the node's state for
//! one fixed budget, then parks until woken, and polls again. Neither the
//! releaser nor the sweeper can tell the two apart. A request granted
//! inline reads no clock and clones no waker. A request reaches its
//! manager through its node's top, so it holds no reference to the
//! manager of its own.
//!
//! Dropping an unresolved request withdraws its queue node (never counted
//! as a timeout). If a grant raced the drop and won, the lock is already
//! installed and stays held by the transaction — as if the access had run
//! a closure that did nothing — and only the unapplied-write latch is
//! lifted so the queue cannot wedge; commit/abort releases the lock as
//! usual.

use std::borrow::Borrow;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Wake, Waker};
#[cfg(not(loom))]
use std::time::{Duration, Instant};

use crate::error::TxError;
use crate::manager::{Attempt, ManagerInner};
use crate::node::TxNode;
use crate::object::{StateRef, Waiter, W_GRANTED, W_WAITING};
use crate::sync::{Arc, Condvar, Mutex};

/// How long a blocked request spins on its queue node before parking. A
/// direct handoff under short holds often lands within it, saving the
/// park/unpark round trip; kept short because a waiting thread that spins
/// long only steals cycles from the holder it waits on.
#[cfg(not(loom))]
const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// Spin rounds between two reads of the clock.
#[cfg(not(loom))]
const SPIN_ROUNDS: u32 = 64;

/// The boxed access closure a future stores across polls.
pub(crate) type BoxedAccessFn<R> = Box<dyn FnOnce(StateRef<'_>) -> R + Send>;

/// The manager of `node`, reached through its top.
fn manager(node: &Arc<TxNode>) -> &ManagerInner {
    node.top()
        .mgr
        .as_deref()
        .expect("a request's top has a manager")
}

/// Where the request is in the lock protocol.
enum Stage<F> {
    /// Not yet polled; holds the unconsumed closure.
    Init(F),
    /// Creation-time failure (`check_usable`): fail on first poll without
    /// ever touching the object.
    Fail(TxError),
    /// A waiter node is queued on the object; whoever resolves it fires
    /// its wake slot.
    Queued { w: Arc<Waiter>, f: F },
    /// Resolved (or consumed by drop).
    Done,
}

/// One lock request from first poll to result. `N` holds the requesting
/// node: an owned `Arc` in a future, which may move to any executor;
/// borrowed by the blocking driver. The manager is the node's top's, so a
/// request costs no reference count on it. `F` is the closure.
pub(crate) struct Access<N: Borrow<Arc<TxNode>>, F> {
    node: N,
    obj_idx: usize,
    write: bool,
    stage: Stage<F>,
}

impl<N: Borrow<Arc<TxNode>>, F> Access<N, F> {
    pub(crate) fn new<R>(node: N, obj_idx: usize, write: bool, f: F) -> Self
    where
        F: FnOnce(StateRef<'_>) -> R,
    {
        Access {
            node,
            obj_idx,
            write,
            stage: Stage::Init(f),
        }
    }

    fn mgr(&self) -> &ManagerInner {
        manager(self.node.borrow())
    }

    /// Advance the request. `waker` is cloned into the queue node only if
    /// the request blocks, and later only by a poll from another task.
    pub(crate) fn poll_with<R>(&mut self, waker: &Waker) -> Poll<Result<R, TxError>>
    where
        F: FnOnce(StateRef<'_>) -> R,
    {
        let mgr = manager(self.node.borrow());
        let (w, f) = match std::mem::replace(&mut self.stage, Stage::Done) {
            Stage::Done => panic!("AccessFuture polled after completion"),
            Stage::Fail(e) => return Poll::Ready(Err(e)),
            Stage::Init(f) => {
                let node = self.node.borrow();
                match mgr.access_attempt(node, self.obj_idx, self.write, f, waker) {
                    Attempt::Done(r) => return Poll::Ready(r),
                    Attempt::Queued { w, f } => {
                        // The node carries its own deadline; all it needs
                        // is a sweeper awake to read it.
                        mgr.sweeper.kick();
                        (w, f)
                    }
                }
            }
            Stage::Queued { w, f } => {
                // Refresh the slot only while it can still fire. A grant
                // between this read and the one below either takes the
                // fresh waker or is seen by that read: no lost wakeup.
                if w.state() == W_WAITING {
                    w.set_waker(waker);
                }
                (w, f)
            }
        };
        if w.state() == W_WAITING {
            self.stage = Stage::Queued { w, f };
            return Poll::Pending;
        }
        Poll::Ready(mgr.finish_after_wait(&w, self.obj_idx, f))
    }

    /// The blocking driver behind `Tx::read`/`write`, on the calling
    /// thread's parker.
    pub(crate) fn wait<R>(mut self) -> Result<R, TxError>
    where
        F: FnOnce(StateRef<'_>) -> R,
    {
        PARKER.with(|parker| self.drive(&parker.waker, parker))
    }

    /// Poll; on `Pending` spin, then park until woken, and poll again.
    /// `waker` must wake `parker` (the loom model wraps it to count wakes).
    /// Under loom there is no spin: the checker's spin hint holds the
    /// spinner back until every other thread has run, which would resolve
    /// each wait before the driver could park.
    pub(crate) fn drive<R>(&mut self, waker: &Waker, parker: &Parker) -> Result<R, TxError>
    where
        F: FnOnce(StateRef<'_>) -> R,
    {
        loop {
            if let Poll::Ready(r) = self.poll_with(waker) {
                return r;
            }
            let Stage::Queued { w, .. } = &self.stage else {
                unreachable!("a pending request is queued");
            };
            #[cfg(not(loom))]
            let resolved = self.spin(w);
            #[cfg(loom)]
            let resolved = false;
            if !resolved {
                parker.park(|| w.state() != W_WAITING);
            }
        }
    }

    /// Spin on the queued node's state for `SPIN_BUDGET`. Returns whether
    /// the node resolved; a grant seen here counts as a spin grant.
    #[cfg(not(loom))]
    fn spin(&self, w: &Waiter) -> bool {
        let mut st = w.state();
        if st != W_WAITING {
            return true;
        }
        let deadline = Instant::now() + SPIN_BUDGET;
        'spin: loop {
            for _ in 0..SPIN_ROUNDS {
                crate::sync::hint::spin_loop();
                st = w.state();
                if st != W_WAITING {
                    break 'spin;
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        if st == W_GRANTED {
            self.mgr().stats.bump(crate::stats::Ctr::SpinGrants);
        }
        st != W_WAITING
    }
}

impl<N: Borrow<Arc<TxNode>>, F> Drop for Access<N, F> {
    fn drop(&mut self) {
        let Stage::Queued { w, f } = std::mem::replace(&mut self.stage, Stage::Done) else {
            return;
        };
        drop(f);
        let mgr = self.mgr();
        let withdrawn = mgr.withdraw_waiter(self.obj_idx, &w);
        // Withdrawn or resolved, the request's outcome is never taken: it
        // stops counting as queued.
        w.node.request_resolved();
        if withdrawn {
            // Withdrawn in place: the queue slot is gone, nothing leaked,
            // and (unlike expiry) no timeout is counted.
            return;
        }
        // A final state raced the drop and won the CAS.
        if w.state() == W_GRANTED {
            // The releaser already installed our lock state and dequeued
            // us. The lock stays held by the transaction — as if the
            // access had run a closure that did nothing — and is released
            // by commit/abort. Only the unapplied-write latch must be
            // lifted here, or every later grant on this object stays gated
            // on a writer that will never apply.
            mgr.lift_latch(self.obj_idx, mgr.slot(self.obj_idx).inner.lock(), &w);
        }
        // W_CANCELLED / W_TIMEDOUT: the canceller (or the sweeper) already
        // dequeued the node and cleaned up.
    }
}

/// A thread's wake target for the blocking driver: `waker` sets the flag
/// and signals the condvar the thread parks on.
pub(crate) struct Parker {
    pub(crate) waker: Waker,
    signal: Arc<Signal>,
}

struct Signal {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Wake for Signal {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        *self.woken.lock() = true;
        self.cv.notify_one();
    }
}

impl Parker {
    pub(crate) fn new() -> Parker {
        let signal = Arc::new(Signal {
            woken: Mutex::new(false),
            cv: Condvar::new(),
        });
        Parker {
            waker: Waker::from(signal.clone()),
            signal,
        }
    }

    /// Arm, check, park: clear the flag, then sleep until a wake sets it —
    /// unless `resolved()` holds once armed. A wake that fires between the
    /// arm and the check resolved the node first, so the check sees it;
    /// one that fires later sets the flag. No wake is lost, and a stale one
    /// from an earlier wait only ends a park early.
    pub(crate) fn park(&self, resolved: impl Fn() -> bool) {
        *self.signal.woken.lock() = false;
        if resolved() {
            return;
        }
        let mut woken = self.signal.woken.lock();
        while !*woken {
            self.signal.cv.wait(&mut woken);
        }
    }
}

thread_local! {
    /// The calling thread's parker, built by its first access and reused:
    /// a request that blocks clones its waker (a reference count).
    static PARKER: Parker = Parker::new();
}

/// Future returned by [`crate::Tx::read_async`] / [`crate::Tx::write_async`].
///
/// Resolves to the closure's result once the lock is granted, or to the
/// same errors the blocking calls report ([`TxError::Timeout`],
/// [`TxError::Deadlock`], [`TxError::Doomed`], ...). The future owns an
/// `Arc` of its transaction's node only — it does not borrow the
/// [`crate::Tx`] — so it can be moved onto any executor; dropping the
/// originating `Tx` aborts the transaction and the future resolves
/// `Doomed` like any other doomed waiter.
pub struct AccessFuture<R> {
    access: Access<Arc<TxNode>, BoxedAccessFn<R>>,
}

impl<R> AccessFuture<R> {
    /// A request for `f`, or one that fails with the creation-time error
    /// on its first poll.
    pub(crate) fn new(
        node: Arc<TxNode>,
        obj_idx: usize,
        write: bool,
        f: Result<BoxedAccessFn<R>, TxError>,
    ) -> Self {
        AccessFuture {
            access: Access {
                node,
                obj_idx,
                write,
                stage: f.map_or_else(Stage::Fail, Stage::Init),
            },
        }
    }
}

impl<R> Future for AccessFuture<R> {
    type Output = Result<R, TxError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.get_mut().access.poll_with(cx.waker())
    }
}
