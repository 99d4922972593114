//! # ntx-sim — workload generation and simulation drivers
//!
//! Connects the formal model of `ntx-model` to the experiment suite:
//!
//! * [`workload`] — parameterised random system generation (tree shape,
//!   read fraction, hot-spot skew, object semantics), the synthetic
//!   substitute for the production traces a 1987 theory paper never had;
//! * [`zipf`] — a Zipf(θ) sampler for skewed object popularity;
//! * [`parallel`] — logical-time makespan simulation: the concurrency a
//!   locking discipline admits, measured on an idealised parallel machine
//!   (substitutes for multi-core hardware the reproduction host lacks);
//! * [`driver`] — seeded, policy-weighted resolution of scheduler
//!   nondeterminism (how often to fire `ABORT`s, how eagerly to deliver
//!   `INFORM`s), on top of `ntx-automata`'s neutral choosers;
//! * [`metrics`] — schedule analytics: commits/aborts, access wait times,
//!   sibling concurrency — the quantities the experiment tables report;
//! * [`fault`] — seeded fault plans for the runtime's injection hooks;
//! * [`fuzz`] — deterministic fault-injecting schedule fuzzing over the
//!   real runtime, differentially checked against the Theorem 34 model.

pub mod driver;
pub mod fault;
pub mod fuzz;
pub mod metrics;
pub mod parallel;
pub mod workload;
pub mod zipf;

pub use driver::{run_concurrent, run_serial, DrivePolicy, RunOutcome};
pub use fault::{CrashPlan, FaultPlan, SeededFaults};
pub use fuzz::{
    fuzz_crash_run, fuzz_run, CrashFuzzConfig, CrashFuzzOutcome, FuzzConfig, FuzzOutcome,
};
pub use metrics::{analyze, ScheduleMetrics};
pub use parallel::{parallel_makespan, Makespan};
pub use workload::{Workload, WorkloadConfig};
pub use zipf::Zipf;
