//! The single import point for synchronisation primitives.
//!
//! Every module in this crate gets its mutexes, condvars, atomics, and spin
//! hints from here — never from `std::sync`, `parking_lot`, or `loom`
//! directly (enforced by the `ntx-lint` workspace lint). That indirection is
//! what makes the crate model-checkable: a normal build re-exports
//! `parking_lot` + `std::sync::atomic`, while `RUSTFLAGS="--cfg loom"`
//! swaps in the `loom` stand-in, whose primitives are scheduler yield
//! points explored exhaustively by `loom::model` (see
//! `src/loom_models.rs`).
//!
//! A third build, `RUSTFLAGS="--cfg ntx_count"`, wraps `parking_lot`'s
//! mutex so that every acquisition is counted on the acquiring thread, by
//! the type it guards ([`count`]); the lock-count gate
//! (`tests/lock_count.rs`) reads the tally. Other builds compile none of it.
//!
//! `Arc`/`Weak` are `std` in both modes: the loom stand-in does not model
//! reference-count orderings (they carry no runtime-visible state), so
//! sharing the std types keeps handles identical across builds.

pub(crate) use std::sync::{Arc, Weak};

#[cfg(not(any(loom, ntx_count)))]
pub(crate) use parking_lot::Mutex;
#[cfg(not(loom))]
pub(crate) use parking_lot::{Condvar, MutexGuard};

#[cfg(all(ntx_count, not(loom)))]
pub(crate) use count::Mutex;

#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex, MutexGuard};

/// Atomic types and `Ordering`, switched between `std::sync::atomic` and
/// `loom::sync::atomic`.
pub(crate) mod atomic {
    #[cfg(not(loom))]
    pub(crate) use std::sync::atomic::{
        AtomicBool, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };

    #[cfg(loom)]
    pub(crate) use loom::sync::atomic::{
        AtomicBool, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

/// Spin hints, switched so that model builds deprioritise the spinning
/// thread instead of burning a schedule step.
pub(crate) mod hint {
    /// Spin-loop hint (`std::hint::spin_loop`, or a deprioritising yield
    /// point under loom).
    pub(crate) fn spin_loop() {
        #[cfg(not(loom))]
        std::hint::spin_loop();
        #[cfg(loom)]
        loom::hint::spin_loop();
    }
}

/// Count `n` waiter-queue entries a release scan inspected, on this
/// thread: `lock_count::take_inspected` reads the tally in the
/// `--cfg ntx_count` build; in other builds this is nothing.
#[inline(always)]
pub(crate) fn inspected(_n: u64) {
    #[cfg(all(ntx_count, not(loom)))]
    count::INSPECTED.with(|c| c.set(c.get() + _n));
}

/// Mutex acquisitions counted per thread, by guarded type: the
/// `--cfg ntx_count` build's `Mutex` (see the module docs).
#[cfg(all(ntx_count, not(loom)))]
pub mod count {
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;

    thread_local! {
        static TALLY: RefCell<BTreeMap<&'static str, u64>> = const { RefCell::new(BTreeMap::new()) };
        pub(super) static INSPECTED: Cell<u64> = const { Cell::new(0) };
    }

    /// `parking_lot::Mutex`, counting each `lock` by `T`'s type name.
    pub(crate) struct Mutex<T>(parking_lot::Mutex<T>);

    impl<T> Mutex<T> {
        pub(crate) const fn new(value: T) -> Mutex<T> {
            Mutex(parking_lot::Mutex::new(value))
        }

        pub(crate) fn lock(&self) -> parking_lot::MutexGuard<'_, T> {
            TALLY.with(|t| {
                *t.borrow_mut()
                    .entry(std::any::type_name::<T>())
                    .or_insert(0) += 1
            });
            self.0.lock()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Mutex<T> {
            Mutex::new(T::default())
        }
    }

    /// This thread's acquisitions since the last call, by guarded type
    /// name, and a fresh tally.
    pub fn take() -> BTreeMap<&'static str, u64> {
        TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()))
    }

    /// Waiter-queue entries this thread's release scans inspected since
    /// the last call, and a fresh count.
    pub fn take_inspected() -> u64 {
        INSPECTED.with(|c| c.replace(0))
    }
}
