//! # ntx-runtime — a practical nested-transaction manager
//!
//! Moss' read/write locking algorithm — the one whose correctness the PODS
//! 1987 paper proves, and the data-management core of MIT's Argus system —
//! packaged as a thread-safe, embeddable Rust library. Where `ntx-model` is
//! the paper's automaton rendered executable for verification, this crate is
//! the system a downstream user would actually run: real threads block on
//! real locks, versions are cloned for recovery, and deadlocks are detected
//! and broken.
//!
//! ## Semantics
//!
//! * Transactions nest arbitrarily ([`Tx::child`]). Siblings may run
//!   concurrently in different threads.
//! * Reads take **read locks**, writes take **write locks**. A lock is
//!   grantable when every conflicting holder is an *ancestor* of the
//!   requester (Moss' rule) — so a parent's data is freely available to its
//!   descendants but protected from everyone else.
//! * On **commit**, a transaction's locks and versions are inherited by its
//!   parent; only a top-level commit publishes to the committed store.
//! * On **abort**, the entire subtree's locks are discarded and every
//!   object it wrote reverts to the version preceding the subtree — aborts
//!   are cheap and *local*, the capability that motivates nested
//!   transactions.
//! * Deadlocks are detected by cycle search on the wait-for graph the lock
//!   queues imply, and broken by the one rule, die on cycle: the youngest
//!   top-level transaction on the cycle dies, and its blocked request
//!   receives [`TxError::Deadlock`].
//!
//! ## Quickstart
//!
//! ```
//! use ntx_runtime::{RtConfig, TxManager};
//!
//! let mgr = TxManager::new(RtConfig::default());
//! let acct = mgr.register("account", 100i64);
//!
//! let tx = mgr.begin();
//! let child = tx.child().unwrap();
//! child.write(&acct, |b| *b -= 30).unwrap();
//! child.commit().unwrap();              // parent inherits the lock
//! assert_eq!(mgr.read_committed(&acct, |b| *b), 100); // not yet published
//! tx.commit().unwrap();                 // top-level commit publishes
//! assert_eq!(mgr.read_committed(&acct, |b| *b), 70);
//! ```

mod config;
mod deadlock;
mod error;
mod fault;
mod future;
mod inline;
#[cfg(all(loom, test))]
mod loom_models;
mod manager;
mod mvcc;
mod node;
mod object;
mod recovery;
mod savepoint;
mod shard;
mod slab;
mod stats;
mod sweeper;
mod sync;
mod trace;
mod tx;
mod wal;

pub use config::RtConfig;
pub use error::TxError;
pub use fault::{FaultAction, FaultContext, FaultInjector, FaultPoint};
pub use future::AccessFuture;
pub use manager::{ObjRef, Snapshot, TxManager};
pub use recovery::RecoveryReport;
pub use savepoint::SavepointScope;
pub use stats::StatsSnapshot;
pub use trace::{RtEvent, Stamped, TraceRecorder};
pub use tx::Tx;
pub use wal::{FsyncPolicy, WalState};
