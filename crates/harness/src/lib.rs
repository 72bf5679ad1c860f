//! # gts-harness — regenerates the paper's evaluation
//!
//! One [`runner::run_config`] call measures a single
//! benchmark × input × sortedness cell: it times the multithreaded CPU
//! baseline over the paper's thread sweep and runs the four GPU variants
//! (lockstep / non-lockstep × autoropes / naïve-recursive) on the
//! simulator. [`suite`] wires the five benchmarks and their inputs,
//! [`table1`]/[`table2`]/[`figures`] format the paper's exhibits,
//! [`ablations`] prices the §5 design choices one at a time, and the
//! `gts-harness` binary drives it all:
//!
//! ```text
//! cargo run --release -p gts-harness -- table1 --scale 0.1
//! cargo run --release -p gts-harness -- table2
//! cargo run --release -p gts-harness -- fig10
//! cargo run --release -p gts-harness -- fig11
//! cargo run --release -p gts-harness -- all --json results.json
//! cargo run --release -p gts-harness -- ablations
//! ```
//!
//! Beyond the paper's exhibits, [`serve`] exposes the `gts-service`
//! batched query engine as a line-oriented interactive server or — with
//! `--listen` — a binary-frame socket server (`gts-harness serve`), and
//! [`netgen`] drives such a server over TCP with a seeded synthetic client
//! mix (`gts-harness loadgen --connect`). The service's wall-clock
//! benchmark is not here: it is the ledger (`ledger/README.md`).
//!
//! Caveats and calibration notes live in EXPERIMENTS.md: GPU times are
//! model-derived (DESIGN.md §5.2); orderings, ratios and crossovers are
//! the reproduction target, not absolute milliseconds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod config;
pub mod counters_view;
pub mod figures;
pub mod netgen;
pub mod profiler_table;
pub mod row;
pub mod runner;
pub mod serve;
pub mod suite;
pub mod table1;
pub mod table2;

pub use config::HarnessConfig;
pub use row::{CellResult, Row};
pub use suite::{run_suite, SuiteResult};
