//! The per-manager sweeper: the one thread that times out waits and keeps
//! the group-commit deadline.
//!
//! Every queued waiter — a blocked thread's or a suspended future's — is
//! a queue node with a deadline and a wake slot, and nothing else carries
//! a timeout. At a tick derived from the config, `(wait_timeout /
//! 8).clamp(1 ms, 100 ms)`, this thread visits the slots whose
//! `sweep_hint` is up and runs [`ManagerInner::sweep_slot`] on each, which
//! withdraws the expired nodes and fires their wakes. Everything about a
//! wait — start, deadline, state — lives in its queue node; the sweeper
//! keeps nothing per wait, so a granted, doomed or dropped wait costs it
//! nothing. Timeouts are late by at most a tick, never early.
//!
//! A pass also fsyncs a `FsyncPolicy::Group` batch past its deadline
//! ([`ManagerInner::wal_sync_overdue`]), and the thread then sleeps until
//! its next tick or that deadline, whichever comes first.
//!
//! Spawned by the first queued waiter or opened batch ([`Sweeper::kick`]),
//! stopped and joined on manager drop; a pass that met no hinted slot and
//! no batch puts it to sleep with no timeout until the next kick. Lock
//! order: the park mutex is a leaf, released before a pass takes a slot or
//! log mutex. Model builds never spawn the thread (the loom models call
//! `sweep_slot` from model threads).

use std::time::{Duration, Instant};

use crate::manager::ManagerInner;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Arc, Condvar, Mutex, Weak};

struct Park {
    thread: Option<std::thread::JoinHandle<()>>,
    stop: bool,
}

pub(crate) struct Sweeper {
    mgr: Weak<ManagerInner>,
    tick: Duration,
    /// `false` while the thread is absent or asleep with no timeout. A
    /// queued waiter raises its slot's hint (a commit, the log's batch
    /// flag) and then reads this; the thread lowers this and then re-reads
    /// them before it sleeps — both SeqCst, so one sees the other.
    ticking: AtomicBool,
    park: Mutex<Park>,
    cv: Condvar,
}

impl Sweeper {
    pub(crate) fn new(mgr: Weak<ManagerInner>, wait_timeout: Duration) -> Arc<Sweeper> {
        Arc::new(Sweeper {
            mgr,
            tick: (wait_timeout / 8).clamp(Duration::from_millis(1), Duration::from_millis(100)),
            ticking: AtomicBool::new(false),
            park: Mutex::new(Park {
                thread: None,
                stop: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// A waiter was just queued, or a group batch opened: make sure the
    /// thread exists and is ticking. One atomic load when it already is.
    pub(crate) fn kick(self: &Arc<Self>) {
        if cfg!(loom) || self.ticking.load(Ordering::SeqCst) {
            return;
        }
        let mut park = self.park.lock();
        self.ticking.store(true, Ordering::SeqCst);
        if park.thread.is_none() {
            let me = self.clone();
            let spawned = std::thread::Builder::new()
                .name("ntx-sweeper".into())
                .spawn(move || me.run());
            park.thread = Some(spawned.expect("spawn sweeper thread"));
        }
        drop(park);
        self.cv.notify_one();
    }

    /// Stop and join the thread. Called from `ManagerInner::drop`, which
    /// may run on the sweeper itself (its pass held the last handle); the
    /// thread then exits on its own instead of joining itself.
    pub(crate) fn shutdown(&self) {
        let mut park = self.park.lock();
        park.stop = true;
        let thread = park.thread.take();
        drop(park);
        self.cv.notify_one();
        if let Some(handle) = thread {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }

    fn run(&self) {
        loop {
            // The manager is borrowed for the pass only, so the thread
            // never keeps it alive across a sleep.
            let (mut met, mut batch_due) = (false, None);
            if let Some(m) = self.mgr.upgrade() {
                let now = Instant::now();
                for i in 0..m.objects.len() {
                    if m.objects.get(i).sweep_hint.load(Ordering::SeqCst) {
                        met |= m.sweep_slot(i, now);
                    }
                }
                batch_due = m.wal_sync_overdue(now);
            }
            let mut park = self.park.lock();
            if park.stop {
                return;
            }
            if met || batch_due.is_some() {
                // Never past a tick: a kick meanwhile found us awake.
                let now = Instant::now();
                let batch = batch_due.map_or(self.tick, |due| due.saturating_duration_since(now));
                self.cv.wait_for(&mut park, batch.min(self.tick));
            } else if !self.ticking.swap(false, Ordering::SeqCst) {
                // Second quiet pass in a row, the first having lowered
                // `ticking`: nothing to do until the next kick.
                self.cv.wait(&mut park);
            }
        }
    }
}
