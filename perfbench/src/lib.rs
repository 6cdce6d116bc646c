//! The ESP simulator's repository benchmark.
//!
//! Runs the paper's evaluation matrix (9 workload families × 29 machine
//! configurations) through the public simulator API in one process on
//! one simulation thread, checks every output, and reports end-to-end
//! metrics (untraced runs) or a per-layer ledger timed from outside at
//! the public calls into each crate (traced runs). `README.md` beside
//! this crate describes the workloads and the ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod gauge;
pub mod host;
pub mod ledger;
pub mod run;
pub mod spans;

pub use run::{run, Metric, RunResult, RunSpec, Workload, DEFAULT_SCALE, DEFAULT_SEED};
