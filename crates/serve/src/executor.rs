//! A hand-rolled multi-threaded future executor.
//!
//! `ntx-serve` multiplexes very large numbers of in-flight sessions (each a
//! `Future`) over a small pool of worker threads. There is deliberately no
//! tokio/async-std dependency — the workspace must build offline — and the
//! runtime's `AccessFuture` only needs `Waker` semantics, so a compact
//! executor suffices:
//!
//! - one run queue per worker (`Mutex<VecDeque>` + `Condvar`), tasks pinned
//!   to the worker they were spawned on so wakes stay cache-local;
//! - a four-state task machine (`IDLE`/`QUEUED`/`RUNNING`/`NOTIFIED`) that
//!   makes wakes idempotent and never loses a wake that races a poll;
//! - an `in_flight` gauge with a high-watermark, which is both the
//!   "concurrent sessions" metric and the drain barrier.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Waker};

/// Task is parked: not queued, waiting for a wake.
const T_IDLE: u8 = 0;
/// Task sits in its worker's run queue.
const T_QUEUED: u8 = 1;
/// A worker is currently polling the task.
const T_RUNNING: u8 = 2;
/// A wake arrived *while* the task was being polled; requeue after the poll.
const T_NOTIFIED: u8 = 3;
/// The future completed; all further wakes are no-ops.
const T_DONE: u8 = 4;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// One spawned future plus its scheduling state.
struct Task {
    exec: Weak<ExecInner>,
    /// Home worker index — the task is always queued here.
    worker: usize,
    state: AtomicU8,
    /// The future itself. `None` once complete. The mutex is uncontended in
    /// practice (only the polling worker takes it) but makes `Task: Sync`.
    future: Mutex<Option<BoxFuture>>,
}

impl Task {
    /// Transition towards `QUEUED` and push onto the home run queue if this
    /// wake is the one that takes the task out of `IDLE`.
    fn wake_task(self: &Arc<Self>) {
        loop {
            let st = self.state.load(Ordering::SeqCst);
            match st {
                T_IDLE => {
                    if self
                        .state
                        .compare_exchange(T_IDLE, T_QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        if let Some(exec) = self.exec.upgrade() {
                            exec.push(self.worker, self.clone());
                        }
                        return;
                    }
                }
                T_RUNNING => {
                    if self
                        .state
                        .compare_exchange(T_RUNNING, T_NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued / already notified / finished: idempotent.
                _ => return,
            }
        }
    }
}

impl std::task::Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_task();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.wake_task();
    }
}

/// A worker's run queue.
struct WorkerQueue {
    q: Mutex<VecDeque<Arc<Task>>>,
    cv: Condvar,
}

struct ExecInner {
    queues: Vec<WorkerQueue>,
    /// Round-robin spawn cursor.
    next: AtomicUsize,
    /// Live (spawned, not yet completed) task count.
    in_flight: AtomicUsize,
    /// High watermark of `in_flight` — peak concurrent sessions.
    peak_in_flight: AtomicUsize,
    /// Set by `shutdown()`; workers exit once their queue is empty.
    stop: AtomicBool,
    /// Drain waiters park here until `in_flight` hits zero.
    drain_lock: Mutex<()>,
    drain_cv: Condvar,
}

impl ExecInner {
    fn push(&self, worker: usize, task: Arc<Task>) {
        let wq = &self.queues[worker];
        wq.q.lock().push_back(task);
        wq.cv.notify_one();
    }
}

/// Handle to a running worker pool. Dropping the handle shuts the pool down
/// (completing already-spawned tasks is the caller's job via [`drain`]).
///
/// [`drain`]: Executor::drain
pub struct Executor {
    inner: Arc<ExecInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Start `workers` worker threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(ExecInner {
            queues: (0..workers)
                .map(|_| WorkerQueue {
                    q: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            next: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            peak_in_flight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            drain_lock: Mutex::new(()),
            drain_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("ntx-serve-w{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { inner, handles }
    }

    /// Spawn a future onto the pool (round-robin worker assignment).
    pub fn spawn(&self, fut: impl Future<Output = ()> + Send + 'static) {
        let inner = &self.inner;
        // relaxed(spawn-cursor): the round-robin cursor only needs each
        // spawn to get *some* distinct increment for spreading load; no
        // other state is published through it.
        let worker = inner.next.fetch_add(1, Ordering::Relaxed) % inner.queues.len();
        let n = inner.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        inner.peak_in_flight.fetch_max(n, Ordering::SeqCst);
        let task = Arc::new(Task {
            exec: Arc::downgrade(inner),
            worker,
            state: AtomicU8::new(T_QUEUED),
            future: Mutex::new(Some(Box::pin(fut))),
        });
        inner.push(worker, task);
    }

    /// Number of spawned futures that have not yet completed.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::SeqCst)
    }

    /// High watermark of [`in_flight`](Executor::in_flight) over the pool's
    /// lifetime.
    pub fn peak_in_flight(&self) -> usize {
        self.inner.peak_in_flight.load(Ordering::SeqCst)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// Block until every spawned future has completed (graceful drain).
    pub fn drain(&self) {
        let mut guard = self.inner.drain_lock.lock();
        while self.inner.in_flight.load(Ordering::SeqCst) != 0 {
            self.inner.drain_cv.wait(&mut guard);
        }
    }

    /// Stop the workers and join them. Pending tasks still queued are
    /// dropped (their futures' `Drop` impls run, which for access futures
    /// withdraws any queued lock waiter).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for wq in &self.inner.queues {
            wq.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Drop abandoned tasks' futures deterministically, and account for
        // them so a post-shutdown drain() cannot hang.
        for wq in &self.inner.queues {
            let mut q = wq.q.lock();
            while let Some(task) = q.pop_front() {
                task.state.store(T_DONE, Ordering::SeqCst);
                *task.future.lock() = None;
                self.inner.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.inner.drain_cv.notify_all();
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.stop_and_join();
        }
    }
}

fn worker_loop(inner: &Arc<ExecInner>, index: usize) {
    let wq = &inner.queues[index];
    loop {
        let task = {
            let mut q = wq.q.lock();
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                wq.cv.wait(&mut q);
            }
        };
        poll_task(inner, task);
    }
}

fn poll_task(inner: &Arc<ExecInner>, task: Arc<Task>) {
    task.state.store(T_RUNNING, Ordering::SeqCst);
    let waker = Waker::from(task.clone());
    let mut cx = Context::from_waker(&waker);
    let mut slot = task.future.lock();
    let Some(fut) = slot.as_mut() else {
        // Completed on a previous poll (stale queue entry) — nothing to do.
        return;
    };
    let poll = fut.as_mut().poll(&mut cx);
    match poll {
        Poll::Ready(()) => {
            *slot = None;
            drop(slot);
            task.state.store(T_DONE, Ordering::SeqCst);
            if inner.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _g = inner.drain_lock.lock();
                inner.drain_cv.notify_all();
            }
        }
        Poll::Pending => {
            drop(slot);
            // RUNNING -> IDLE unless a wake arrived mid-poll (NOTIFIED),
            // in which case the task goes straight back on the queue.
            if task
                .state
                .compare_exchange(T_RUNNING, T_IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                task.state.store(T_QUEUED, Ordering::SeqCst);
                let worker = task.worker;
                inner.push(worker, task);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
    use std::sync::Arc as StdArc;

    #[test]
    fn spawned_futures_run_to_completion() {
        let exec = Executor::new(4);
        let counter = StdArc::new(StdAtomicUsize::new(0));
        for _ in 0..1000 {
            let c = counter.clone();
            exec.spawn(async move {
                c.fetch_add(1, StdOrdering::SeqCst);
            });
        }
        exec.drain();
        assert_eq!(counter.load(StdOrdering::SeqCst), 1000);
        assert_eq!(exec.in_flight(), 0);
        assert!(exec.peak_in_flight() >= 1);
        exec.shutdown();
    }

    /// A future that returns Pending once and self-wakes, exercising the
    /// RUNNING -> NOTIFIED -> requeue transition.
    struct YieldOnce(bool);
    impl Future for YieldOnce {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.0 {
                Poll::Ready(())
            } else {
                self.0 = true;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }

    #[test]
    fn self_waking_futures_are_requeued_not_lost() {
        let exec = Executor::new(2);
        let counter = StdArc::new(StdAtomicUsize::new(0));
        for _ in 0..500 {
            let c = counter.clone();
            exec.spawn(async move {
                YieldOnce(false).await;
                c.fetch_add(1, StdOrdering::SeqCst);
            });
        }
        exec.drain();
        assert_eq!(counter.load(StdOrdering::SeqCst), 500);
        exec.shutdown();
    }

    #[test]
    fn cross_thread_wakes_complete_futures() {
        // Future parks until an external thread delivers its waker.
        struct External {
            fired: StdArc<StdAtomicUsize>,
            waker_tx: std::sync::mpsc::Sender<Waker>,
        }
        impl Future for External {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.fired.load(StdOrdering::SeqCst) == 1 {
                    Poll::Ready(())
                } else {
                    let _ = self.waker_tx.send(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
        let exec = Executor::new(2);
        let (tx, rx) = std::sync::mpsc::channel::<Waker>();
        let fired = StdArc::new(StdAtomicUsize::new(0));
        exec.spawn(External {
            fired: fired.clone(),
            waker_tx: tx,
        });
        let w = rx.recv().expect("future must register its waker");
        fired.store(1, StdOrdering::SeqCst);
        w.wake();
        exec.drain();
        assert_eq!(exec.in_flight(), 0);
        exec.shutdown();
    }

    #[test]
    fn peak_in_flight_tracks_concurrent_sessions() {
        // Hold 64 futures open simultaneously via a shared gate.
        struct Gated(StdArc<StdAtomicUsize>, std::sync::mpsc::Sender<Waker>);
        impl Future for Gated {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0.load(StdOrdering::SeqCst) == 1 {
                    Poll::Ready(())
                } else {
                    let _ = self.1.send(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
        let exec = Executor::new(2);
        let gate = StdArc::new(StdAtomicUsize::new(0));
        let (tx, rx) = std::sync::mpsc::channel::<Waker>();
        for _ in 0..64 {
            exec.spawn(Gated(gate.clone(), tx.clone()));
        }
        // Wait until all 64 have parked (registered a waker at least once).
        let mut wakers = Vec::new();
        for _ in 0..64 {
            wakers.push(rx.recv().unwrap());
        }
        assert_eq!(exec.in_flight(), 64);
        gate.store(1, StdOrdering::SeqCst);
        for w in wakers {
            w.wake();
        }
        exec.drain();
        assert!(exec.peak_in_flight() >= 64);
        exec.shutdown();
    }
}
