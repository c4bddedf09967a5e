//! The repository benchmark: three workloads driven through the public
//! API of the oij crates, every output checked against
//! `oij_core::Oracle`, and single-layer timings taken from outside.
//!
//! `run.py` is the entry point; it builds this package, runs each leg
//! of a workload as a process of its own and prints the result. See
//! `NOTES.md` for the workloads and the metric glossary.

pub mod drive;
pub mod layers;
pub mod legs;
pub mod report;
pub mod workload;
