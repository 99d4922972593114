//! The single import point for synchronisation primitives.
//!
//! Mirrors the runtime's shim discipline (R1 in `ntx-lint`): every bench
//! module gets its `Arc`, `Barrier`, and atomics from here. The
//! harness has no loom build — it measures wall-clock behaviour — but the
//! indirection keeps the workspace-wide lint uniform and leaves exactly
//! one file to touch if the bench ever needs instrumented primitives.

pub(crate) use std::sync::{Arc, Barrier};

/// Atomic types and `Ordering`.
pub(crate) mod atomic {
    pub(crate) use std::sync::atomic::{AtomicU64, Ordering};
}
