//! The per-manager sweeper: the thread that times out callback waiters.
//!
//! A parked sync waiter carries its own timeout — it sleeps until its
//! node's deadline and withdraws itself. An async waiter has no thread to
//! come back on, so this one does it: at a tick derived from the config it
//! visits the slots whose `sweep_hint` is up and runs
//! [`ManagerInner::sweep_slot`] on each. Everything about a wait — start,
//! deadline, state — lives in its queue node; the sweeper keeps nothing per
//! wait, so a granted, doomed or dropped wait costs it nothing. Timeouts
//! are late by at most a tick, never early.
//!
//! Spawned by the first queued async waiter ([`Sweeper::kick`]), stopped
//! and joined on manager drop; a pass that met no hinted slot puts it to
//! sleep with no timeout until the next kick. Lock order: the park mutex is
//! a leaf, released before `sweep_slot` takes a slot mutex and never taken
//! under one. Model builds never spawn the thread (the loom models call
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
    /// `false` while the thread is absent or asleep with no timeout. A
    /// queued async waiter raises its slot's hint and then reads this; the
    /// thread lowers this and then re-reads the hints before it sleeps —
    /// both SeqCst, so one of the two always sees the other.
    ticking: AtomicBool,
    park: Mutex<Park>,
    cv: Condvar,
}

impl Sweeper {
    pub(crate) fn new() -> Arc<Sweeper> {
        Arc::new(Sweeper {
            ticking: AtomicBool::new(false),
            park: Mutex::new(Park {
                thread: None,
                stop: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// An async waiter was just queued on `mgr`: make sure the thread
    /// exists and is ticking. One atomic load when it already is.
    pub(crate) fn kick(self: &Arc<Self>, mgr: &Arc<ManagerInner>) {
        if cfg!(loom) || self.ticking.load(Ordering::SeqCst) {
            return;
        }
        let mut park = self.park.lock();
        self.ticking.store(true, Ordering::SeqCst);
        if park.thread.is_none() {
            let tick = (mgr.config.wait_timeout / 8)
                .clamp(Duration::from_millis(1), Duration::from_millis(100));
            let (me, mgr) = (self.clone(), Arc::downgrade(mgr));
            let spawned = std::thread::Builder::new()
                .name("ntx-sweeper".into())
                .spawn(move || me.run(mgr, tick));
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

    fn run(&self, mgr: Weak<ManagerInner>, tick: Duration) {
        loop {
            // The manager is borrowed for the pass only, so the thread
            // never keeps it alive across a sleep.
            let mut met = false;
            if let Some(m) = mgr.upgrade() {
                let now = Instant::now();
                for i in 0..m.objects.len() {
                    if m.objects.get(i).sweep_hint.load(Ordering::SeqCst) {
                        met |= m.sweep_slot(i, now);
                    }
                }
            }
            let mut park = self.park.lock();
            if park.stop {
                return;
            }
            if met {
                self.cv.wait_for(&mut park, tick);
            } else if !self.ticking.swap(false, Ordering::SeqCst) {
                // Second quiet pass in a row, the first having lowered
                // `ticking`: nothing to do until the next kick.
                self.cv.wait(&mut park);
            }
        }
    }
}
