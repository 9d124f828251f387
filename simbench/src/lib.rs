//! End-to-end and per-layer benchmark of the deterministic MANET
//! simulator. See `simbench/README.md` for the workloads, the metrics
//! and how to run it.

pub mod alloc;
pub mod layers;
pub mod pinned;
pub mod report;
pub mod spans;
pub mod workload;
