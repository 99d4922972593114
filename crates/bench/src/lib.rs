//! # ntx-bench — the experiment suite
//!
//! One function per experiment in DESIGN.md §4, each returning a markdown
//! [`Table`] whose rows feed EXPERIMENTS.md. The `harness` binary runs them
//! from the command line:
//!
//! ```text
//! cargo run -p ntx-bench --release --bin harness -- all
//! cargo run -p ntx-bench --release --bin harness -- e3 --full
//! ```
//!
//! Criterion micro-benchmarks (E6 and serializer costs) live in `benches/`.

pub mod model_exps;
pub mod runtime_exps;
pub mod table;

pub(crate) mod sync;

pub use table::Table;
