//! The QEI simulator's benchmark: four workloads measured end to end in
//! host time, and a separate traced run that splits each operation's time
//! across the simulator's layers. See `README.md` for the workloads, the
//! metrics and how to compare two commits.
//!
//! Everything here drives the simulator through its public API; spans are
//! recorded around calls into each layer from this crate, never inside the
//! simulator, and no report byte changes.

#![forbid(unsafe_code)]
pub mod batch;
pub mod catalogue;
pub mod daemon;
pub mod measure;
pub mod spans;
pub mod stats;
pub mod traced;
