//! # ntx-conform — runtime-to-model conformance checking
//!
//! The strongest claim this reproduction can make about `ntx-runtime` is
//! that its behaviour *is* the behaviour the paper proved correct. This
//! crate makes that claim checkable:
//!
//! 1. a traced workload runs against the real, threaded [`TxManager`],
//!    recording a linearised [`Trace`] of begins, reads, adds, commits and
//!    aborts (conflicting operations are ordered by the locks themselves;
//!    the recorder serialises the rest);
//! 2. [`trace_to_model`] rebuilds the paper's world from the trace: a
//!    transaction tree whose leaves are the observed accesses, and the
//!    corresponding operation sequence — `CREATE`s, `REQUEST_COMMIT`s with
//!    the *observed* values, `COMMIT`/`ABORT`s and `INFORM`s;
//! 3. the sequence is replayed against the formal model with *black-box*
//!    transactions: it must be **a schedule of the R/W Locking system**
//!    (`M(X)`'s lock rules grant exactly what the runtime granted, and
//!    every observed value matches the model state), and Theorem 34's
//!    checker must find it serially correct.
//!
//! A runtime that granted a lock Moss' rules forbid, returned a stale
//! value, or leaked an aborted write would fail step 3.
//!
//! ```
//! use ntx_conform::{ConformanceSession, check_trace};
//! use ntx_runtime::{RtConfig, TxManager};
//!
//! let mgr = TxManager::new(RtConfig::default());
//! let mut s = ConformanceSession::new(mgr, 1); // one counter object
//! let t = s.begin();
//! s.add(&t, 0, 5).unwrap();
//! assert_eq!(s.read(&t, 0).unwrap(), 5);
//! s.commit(&t).unwrap();
//! let report = check_trace(&s.finish(), Default::default());
//! assert!(report.ok(), "{report:?}");
//! ```

mod session;
mod translate;

pub use session::{ConformanceSession, Trace, TraceEvent, TracedTx};
pub use translate::{check_trace, trace_to_model, ConformanceReport, TranslateOptions};
