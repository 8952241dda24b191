//! Experiment harness library: one module per table/figure of the paper,
//! shared by the `repro` binary and the criterion benches.
//!
//! Every experiment prints the same rows/series the paper reports and a
//! short note recalling the published shape, so paper-vs-measured
//! comparisons (EXPERIMENTS.md) can be regenerated with one command.

pub mod ablations;
pub mod backend_ablation;
pub mod common;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod harness;
pub mod micro;
pub mod profile;
pub mod regress;
pub mod report;
pub mod scenarios;
pub mod schedule;
pub mod shard;
pub mod table1;
pub mod table2;
pub mod threads;
