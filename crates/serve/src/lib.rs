//! # ntx-serve — multiplexing nested-transaction sessions over the wire
//!
//! `ntx-runtime`'s sync API costs one parked OS thread per blocked lock
//! request. This crate is the payoff of the same request polled as a
//! future ([`ntx_runtime::AccessFuture`]): a TCP server that multiplexes very
//! large numbers of concurrent *sessions* — each a nested-transaction tree
//! driven by a client over a length-prefixed wire protocol — onto a few
//! worker threads. A blocked session costs a lock-queue node plus a parked
//! future; 100k of them fit where 100k threads would not.
//!
//! Pieces:
//!
//! * [`executor`] — a hand-rolled N-worker future executor (no tokio; the
//!   workspace builds offline).
//! * [`wire`] — the frame format: begin/child/access/commit/abort.
//! * [`server`] — one reactor thread blocked in `epoll_wait` (accept with
//!   admission control, reads, backpressure) and one driver future per
//!   connection, which writes its own responses.
//! * [`client`] — a minimal blocking client for tests and benches.
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
