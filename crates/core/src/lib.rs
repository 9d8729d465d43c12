//! The QEI accelerator — the paper's primary contribution.
//!
//! QEI accelerates data-query (lookup) operations on common data structures
//! by abstracting every query into a small set of regular steps and mapping
//! each structure to a *configurable finite automaton* (CFA). The hardware is
//! three cooperating blocks:
//!
//! * **Query State Table ([`qst`])** — 10 entries holding the state of
//!   in-flight queries so the engine can time-multiplex them and extract
//!   memory-level parallelism;
//! * **CFA Execution Engine ([`firmware`])** — a microcoded control machine
//!   holding the state-transition rules for each structure's query flow; it is
//!   extensible at runtime ("firmware update") through
//!   [`firmware::FirmwareStore::register`];
//! * **Data Processing Unit ([`dpu`])** — ALUs, key comparators, and a hash
//!   unit that execute the micro-operations the CFAs emit.
//!
//! Queries enter through two instruction flavors: blocking `QUERY_B` (behaves
//! like a long-latency load) and non-blocking `QUERY_NB` (behaves like a
//! store; the result word, [`nb_word`], is written to a software-supplied
//! address). Software describes each queried structure with a 64-byte
//! in-memory [`header`].
//!
//! One driver, [`walk::walk`], runs every query's CFA; a [`walk::WalkHook`]
//! observes it. The functional engine, [`run_query`], is the no-op hook.
//! [`accel::QeiAccelerator`] is the timing model: a pricing hook on the same
//! walk that prices every micro-op against the cache/NoC/TLB substrate under
//! one of the five [`qei_config::Scheme`] integration schemes. The two
//! therefore agree step for step by construction. Its two calls mirror the
//! instructions: [`QeiAccelerator::query_b`] returns the completion cycle
//! and the result, [`QeiAccelerator::query_nb`] the retire cycle and the
//! cycle its result word lands in memory.

#![forbid(unsafe_code)]
pub mod accel;
pub mod contract;
pub mod ctx;
pub mod dpu;
pub mod fault;
pub mod firmware;
pub mod header;
pub mod qst;
pub mod uop;
pub mod walk;

pub use accel::{AccelStats, QeiAccelerator};
pub use contract::QueryCost;
pub use ctx::QueryCtx;
pub use fault::{nb_word, nb_word_matches, FaultCode};
pub use firmware::{CfaProgram, FirmwareStore};
pub use header::{bump_epoch, read_epoch, DsType, Header, HEADER_BYTES, HEADER_EPOCH_OFF};
pub use qst::QueryStateTable;
pub use uop::{MicroOp, OpOutcome};
pub use walk::{run_query, walk, Walk, WalkHook};

/// Result encoding: a query that finds no match returns this value.
pub const RESULT_NOT_FOUND: u64 = 0;
