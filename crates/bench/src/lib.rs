//! # ldr-bench — experiment harness for the LDR reproduction
//!
//! Reruns the paper's evaluation (§4): scenario definitions, protocol
//! selection, multi-trial runs with 95% confidence intervals, and the
//! table/figure printers used by the `table1`, `fig2`–`fig7` and
//! `ablation` binaries. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod forensics;
pub mod profiling;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sweep;
pub mod telemetry_export;
pub mod workpool;

pub use report::Summary;
pub use runner::{
    build_world, build_world_telemetry, run_fault_trials, run_once, run_once_faulted, run_trials,
    trial_fault_plan,
};
pub use scenario::{Protocol, Scenario, SimFlavor};
