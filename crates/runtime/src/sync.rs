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
//! `Arc`/`Weak` are `std` in both modes: the loom stand-in does not model
//! reference-count orderings (they carry no runtime-visible state), so
//! sharing the std types keeps handles identical across builds.

pub(crate) use std::sync::{Arc, Weak};

#[cfg(not(loom))]
pub(crate) use parking_lot::{Condvar, Mutex, MutexGuard};

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
