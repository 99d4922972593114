//! Traced execution sessions over the runtime.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ntx_runtime::{ObjRef, Tx, TxError, TxManager};

/// Drive a future to completion on the current thread (poll, park until
/// the waker fires, re-poll). Lets single-threaded harnesses route
/// accesses through [`Tx::read_async`]/[`Tx::write_async`], the futures
/// a server's sessions poll; the releaser (or the sweeper) wakes this
/// thread exactly as it would wake a polling thread.
fn block_on<F: std::future::Future>(fut: F) -> F::Output {
    struct ThreadWaker(std::thread::Thread);
    impl std::task::Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = std::task::Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = std::task::Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            std::task::Poll::Ready(v) => return v,
            std::task::Poll::Pending => std::thread::park(),
        }
    }
}

/// One recorded runtime event. Object states are `i64` counters and the
/// only write is `add` — rich enough to exercise every locking path while
/// keeping observed values replayable against the model's counter
/// semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A transaction began (`parent == None` for top level).
    Begin {
        /// Trace-local transaction id.
        tx: u64,
        /// Parent transaction, if nested.
        parent: Option<u64>,
    },
    /// A read access: observed `value` on `obj`.
    Read {
        /// Reading transaction.
        tx: u64,
        /// Object index.
        obj: usize,
        /// The value the runtime returned.
        value: i64,
    },
    /// A write access: added `delta` to `obj`, observing the new `value`.
    Add {
        /// Writing transaction.
        tx: u64,
        /// Object index.
        obj: usize,
        /// Amount added.
        delta: i64,
        /// The post-write value the runtime returned.
        value: i64,
    },
    /// A lock-free snapshot read outside any transaction: observed
    /// `value` on `obj` through a [`ntx_runtime::Snapshot`] handle opened
    /// at the current commit timestamp. The checker validates it as a
    /// synthetic top-level read-only transaction placed at the point of
    /// the last top-level commit that published `obj` (the §4 read
    /// condition for a committed-state read).
    SnapshotRead {
        /// Object index.
        obj: usize,
        /// The value the snapshot read returned.
        value: i64,
    },
    /// The transaction committed.
    Commit {
        /// Committing transaction.
        tx: u64,
    },
    /// The transaction (and its subtree) aborted.
    Abort {
        /// Aborting transaction.
        tx: u64,
    },
}

/// A linearised record of a runtime execution.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in linearisation order.
    pub events: Vec<TraceEvent>,
    /// Number of counter objects in the session.
    pub objects: usize,
}

/// Handle for a traced transaction.
pub struct TracedTx {
    id: u64,
    tx: Tx,
}

impl TracedTx {
    /// Trace-local id of this transaction.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// `true` once the underlying transaction or an ancestor aborted —
    /// lets a driver discover doom inflicted from outside (an injected
    /// fault, a deadlock wound) and record the abort in the trace.
    pub fn is_doomed(&self) -> bool {
        self.tx.is_doomed()
    }

    /// The *runtime's* transaction id (distinct from the trace-local
    /// [`TracedTx::id`]). Crash-recovery harnesses match these against the
    /// top-level ids a [`ntx_runtime::RecoveryReport`] redid or discarded.
    pub fn runtime_id(&self) -> u64 {
        self.tx.id()
    }
}

/// A workload session whose every operation is both executed on a real
/// [`TxManager`] and recorded for model replay.
///
/// The recorder mutex is held across each runtime call, so the recorded
/// order is a valid linearisation of the execution (operations of
/// *different* threads interleave freely between events; conflicting data
/// operations are additionally ordered by the locks themselves).
pub struct ConformanceSession {
    mgr: TxManager,
    objects: Vec<ObjRef<i64>>,
    log: Arc<Mutex<Vec<TraceEvent>>>,
    next_id: AtomicU64,
}

impl ConformanceSession {
    /// Start a session over `objects` fresh counter objects (initial 0).
    pub fn new(mgr: TxManager, objects: usize) -> Self {
        let objects = (0..objects)
            .map(|i| mgr.register(format!("c{i}"), 0i64))
            .collect();
        Self::over(mgr, objects)
    }

    /// Like [`ConformanceSession::new`], but the counters are registered
    /// durably ([`TxManager::register_durable`]) so a WAL-configured
    /// manager logs their commits — the kill-and-recover fuzzer's setup.
    pub fn new_durable(mgr: TxManager, objects: usize) -> Self {
        let objects = (0..objects)
            .map(|i| mgr.register_durable(format!("c{i}"), 0i64))
            .collect();
        Self::over(mgr, objects)
    }

    fn over(mgr: TxManager, objects: Vec<ObjRef<i64>>) -> Self {
        ConformanceSession {
            mgr,
            objects,
            log: Arc::new(Mutex::new(Vec::new())),
            next_id: AtomicU64::new(1),
        }
    }

    /// Access the underlying manager.
    pub fn manager(&self) -> &TxManager {
        &self.mgr
    }

    /// The [`ObjRef`] of counter `obj` (the registration handle — lets a
    /// harness query the manager about the object directly, e.g.
    /// [`TxManager::version_history`] in the crash-recovery checks).
    pub fn object(&self, obj: usize) -> ObjRef<i64> {
        self.objects[obj]
    }

    /// Begin a traced top-level transaction.
    pub fn begin(&self) -> TracedTx {
        // relaxed(session-id): unique ids only; the trace mutex orders events
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut log = self.log.lock();
        let tx = self.mgr.begin();
        log.push(TraceEvent::Begin {
            tx: id,
            parent: None,
        });
        TracedTx { id, tx }
    }

    /// Begin a traced child of `parent`.
    pub fn child(&self, parent: &TracedTx) -> Result<TracedTx, TxError> {
        // relaxed(session-id): unique ids only; the trace mutex orders events
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut log = self.log.lock();
        let tx = parent.tx.child()?;
        log.push(TraceEvent::Begin {
            tx: id,
            parent: Some(parent.id),
        });
        Ok(TracedTx { id, tx })
    }

    /// Traced read of counter `obj`.
    pub fn read(&self, t: &TracedTx, obj: usize) -> Result<i64, TxError> {
        let mut log = self.log.lock();
        let value = t.tx.read(&self.objects[obj], |v| *v)?;
        log.push(TraceEvent::Read {
            tx: t.id,
            obj,
            value,
        });
        Ok(value)
    }

    /// Traced read through the *async* waiter path ([`Tx::read_async`]),
    /// driven to completion inline. Semantically identical to
    /// [`ConformanceSession::read`] — same locks, same trace event — but
    /// polled here rather than driven by the blocking call, so fuzz seeds
    /// exercise both drivers of the one request state machine.
    ///
    /// [`Tx::read_async`]: ntx_runtime::Tx::read_async
    pub fn read_async(&self, t: &TracedTx, obj: usize) -> Result<i64, TxError> {
        let mut log = self.log.lock();
        let value = block_on(t.tx.read_async(&self.objects[obj], |v| *v))?;
        log.push(TraceEvent::Read {
            tx: t.id,
            obj,
            value,
        });
        Ok(value)
    }

    /// Traced add to counter `obj`; returns the new value.
    pub fn add(&self, t: &TracedTx, obj: usize, delta: i64) -> Result<i64, TxError> {
        let mut log = self.log.lock();
        let value = t.tx.write(&self.objects[obj], |v| {
            *v += delta;
            *v
        })?;
        log.push(TraceEvent::Add {
            tx: t.id,
            obj,
            delta,
            value,
        });
        Ok(value)
    }

    /// Traced add through the *async* waiter path ([`Tx::write_async`]);
    /// the polled twin of [`ConformanceSession::add`].
    ///
    /// [`Tx::write_async`]: ntx_runtime::Tx::write_async
    pub fn add_async(&self, t: &TracedTx, obj: usize, delta: i64) -> Result<i64, TxError> {
        let mut log = self.log.lock();
        let value = block_on(t.tx.write_async(&self.objects[obj], move |v| {
            *v += delta;
            *v
        }))?;
        log.push(TraceEvent::Add {
            tx: t.id,
            obj,
            delta,
            value,
        });
        Ok(value)
    }

    /// Traced lock-free snapshot read of counter `obj` (no transaction).
    ///
    /// The log mutex is held across the snapshot open *and* the read, so
    /// the recorded position linearises the snapshot's timestamp against
    /// the surrounding commits — the property the checker's splice-point
    /// translation relies on.
    pub fn snapshot_read(&self, obj: usize) -> i64 {
        let mut log = self.log.lock();
        let snap = self.mgr.snapshot();
        let value = snap.read(&self.objects[obj], |v| *v);
        log.push(TraceEvent::SnapshotRead { obj, value });
        value
    }

    /// Traced commit.
    pub fn commit(&self, t: &TracedTx) -> Result<(), TxError> {
        let mut log = self.log.lock();
        t.tx.commit()?;
        log.push(TraceEvent::Commit { tx: t.id });
        Ok(())
    }

    /// Traced abort (aborts the whole subtree, as the runtime does).
    pub fn abort(&self, t: &TracedTx) {
        let mut log = self.log.lock();
        t.tx.abort();
        log.push(TraceEvent::Abort { tx: t.id });
    }

    /// Finish the session, returning the trace.
    pub fn finish(self) -> Trace {
        let events = std::mem::take(&mut *self.log.lock());
        Trace {
            events,
            objects: self.objects.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntx_runtime::RtConfig;

    #[test]
    fn session_records_events_in_order() {
        let s = ConformanceSession::new(TxManager::new(RtConfig::default()), 2);
        let t = s.begin();
        s.add(&t, 0, 3).unwrap();
        let c = s.child(&t).unwrap();
        assert_eq!(s.read(&c, 0).unwrap(), 3);
        s.commit(&c).unwrap();
        s.commit(&t).unwrap();
        let trace = s.finish();
        assert_eq!(trace.objects, 2);
        assert_eq!(trace.events.len(), 6);
        assert!(matches!(
            trace.events[0],
            TraceEvent::Begin { parent: None, .. }
        ));
        assert!(matches!(
            trace.events[1],
            TraceEvent::Add {
                value: 3,
                delta: 3,
                ..
            }
        ));
        assert!(matches!(
            trace.events[2],
            TraceEvent::Begin {
                parent: Some(_),
                ..
            }
        ));
        assert!(matches!(trace.events[3], TraceEvent::Read { value: 3, .. }));
        assert!(matches!(trace.events[5], TraceEvent::Commit { .. }));
    }

    #[test]
    fn aborted_subtree_recorded_once() {
        let s = ConformanceSession::new(TxManager::new(RtConfig::default()), 1);
        let t = s.begin();
        let c = s.child(&t).unwrap();
        s.add(&c, 0, 1).unwrap();
        s.abort(&c);
        s.commit(&t).unwrap();
        let trace = s.finish();
        let aborts = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Abort { .. }))
            .count();
        assert_eq!(aborts, 1);
    }
}
