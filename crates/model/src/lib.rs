//! # ntx-model — the executable formal model of the PODS 1987 paper
//!
//! This crate is the primary contribution of the reproduction: an executable
//! rendering of every definition in Fekete, Lynch, Merritt & Weihl, *Nested
//! Transactions and Read/Write Locking* (PODS 1987), plus a machine-checked
//! version of its main theorem.
//!
//! ## Map from the paper
//!
//! | Paper | Here |
//! |---|---|
//! | operations (§3, §5) | [`Action`], [`action`] |
//! | well-formedness (§3.1, §3.2, §5.1) | [`wellformed`] |
//! | transaction automata (§3.1) | [`transaction`] |
//! | basic objects (§3.2) and the example object of §4.3 | [`object`], [`semantics`] |
//! | serial scheduler (§3.3) | [`serial_scheduler`] |
//! | serial systems, visibility, orphans (§3.4) | [`system`], [`visibility`] |
//! | serial correctness (§3.5) | [`correctness`] |
//! | equieffectiveness, transparency, `write(α)` (§4) | [`equieffective`] |
//! | R/W Locking objects `M(X)` — Moss' algorithm (§5.1) | [`lock_object`] |
//! | generic scheduler (§5.2) | [`generic_scheduler`] |
//! | R/W Locking systems (§5.3) | [`system`] |
//! | Lemma 33 / Theorem 34 | [`serializer`], [`correctness`] |
//!
//! ## The headline result, executably
//!
//! Theorem 34 states that every schedule of a R/W Locking system is
//! *serially correct* for every non-orphan transaction: the transaction
//! cannot tell it ran concurrently. The paper's proof of Lemma 33 is
//! constructive — it rearranges the concurrent schedule into a
//! write-equivalent serial one. [`serializer::Serializer`] implements that
//! construction event-by-event, and [`correctness`] verifies the produced
//! witnesses: each must *be* a serial schedule (replayed against the serial
//! system) and be write-equivalent to `visible(α, T)`. Running this over
//! randomly generated and exhaustively enumerated concurrent schedules is
//! experiment E1/E2 of the reproduction.

pub mod action;
pub mod correctness;
pub mod equieffective;
pub mod generic_scheduler;
pub mod lock_object;
pub mod object;
pub mod semantics;
pub mod serial_scheduler;
pub mod serializer;
pub mod system;
pub mod transaction;
pub mod visibility;
pub mod wellformed;

pub use action::{Action, Value};
pub use semantics::{validate_semantics, ObjectSemantics, StdSemantics, StdState};
pub use system::SystemSpec;
