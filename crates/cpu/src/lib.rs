//! Mechanistic out-of-order core model and micro-op trace IR.
//!
//! This crate substitutes for the Sniper simulator used in the paper. Query
//! routines (in `qei-datastructs`) execute functionally against guest memory
//! and emit a [`trace::Trace`] of micro-ops with concrete virtual addresses,
//! dependence edges, and branch outcomes. [`core::CoreModel`] then prices the
//! trace on a Skylake-SP-like core: 4-wide dispatch, 224-entry ROB, 72/56
//! LQ/SQ, a gshare branch predictor with a 16-cycle mispredict penalty, L1/L2
//! TLBs with page walks, and dependence-aware overlap of memory accesses
//! (memory-level parallelism bounded by the instruction window — the effect
//! the paper's Section II profiles).
//!
//! Accelerator instructions appear in traces as [`trace::Uop::External`]
//! micro-ops; their latency is resolved through the [`engine::Bus`]
//! callback, which the top-level simulator implements by invoking the QEI
//! model. This keeps the core model ignorant of the accelerator's internals
//! while still co-simulating the two.

#![forbid(unsafe_code)]
pub mod core;
pub mod engine;
pub mod predict;
pub mod trace;

pub use crate::core::{CoreModel, RunResult, StallBreakdown};
pub use engine::{Bus, MemBus};
pub use predict::BranchPredictor;
pub use trace::{Trace, TraceStats, Uop};
