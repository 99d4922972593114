//! # ntx-serve — multiplexing nested-transaction sessions over the wire
//!
//! `ntx-runtime`'s sync API costs one parked OS thread per blocked lock
//! request. This crate is the payoff of the same request polled as a
//! future ([`ntx_runtime::AccessFuture`]): a TCP server that multiplexes very
//! large numbers of concurrent *sessions* — each a nested-transaction tree
//! driven by a client over a length-prefixed wire protocol — onto a few
//! reactor threads. A blocked session costs a lock-queue node plus a parked
//! future; 100k of them fit where 100k threads would not.
//!
//! Pieces:
//!
//! * [`server`] — `workers` reactor threads, each blocked in its own
//!   `epoll_wait`, owning the connections dealt to it at accept and
//!   polling their session drivers where the bytes arrive (admission
//!   control, reads, backpressure, one `write` per driver poll).
//! * [`wire`] — the frame format: begin/child/access/commit/abort.
//! * [`executor`] — a hand-rolled N-worker future executor (no tokio; the
//!   workspace builds offline) for in-process session futures.
//! * [`client`] — a minimal blocking client for tests and benches; it
//!   stages requests and writes them in one go when it waits.
//!
//! The `ntx-serve` binary wires these together behind CLI flags and drains
//! gracefully on stdin EOF.

pub mod client;
pub mod executor;
pub mod server;
mod sys;
pub mod wire;

pub use executor::Executor;
pub use server::{Server, ServerConfig};
