//! # ntx-e2e — the repo's reference benchmark
//!
//! Six closed-loop workloads run the same nested transaction — top level,
//! one child that reads one object and increments another, child commit,
//! top-level commit — in process and through `ntx-serve`. Every layer is
//! measured from outside, by timing calls into its public functions; nothing
//! outside this package changes. See `README.md` for how to run it and what
//! each workload isolates.

pub mod gen;
pub mod hist;
pub mod probes;
pub mod record;
pub mod report;
pub mod span;
pub mod workloads;

/// Length of the timed phase unless the command line says otherwise, seconds;
/// `run_seconds` in `BENCHMARK.json`. Ten slices of 1.5 s: the longest slice
/// that keeps the driver's 136 runs inside its time cap.
pub const RUN_SECONDS: f64 = 15.0;
