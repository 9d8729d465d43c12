//! Machine configuration, integration schemes, and timing primitives for the
//! QEI reproduction.
//!
//! This crate is the shared vocabulary of the whole workspace: the simulated
//! CPU model (the paper's Table II), the five accelerator integration schemes
//! (the paper's Section V / Table I), and small timing/statistics types used
//! by every other crate.
//!
//! # Example
//!
//! ```
//! use qei_config::{MachineConfig, Scheme};
//!
//! let machine = MachineConfig::skylake_sp_24();
//! assert_eq!(machine.cores, 24);
//! let scheme = Scheme::CoreIntegrated;
//! assert!(scheme.comparators_in_cha());
//! ```

#![forbid(unsafe_code)]
pub mod contract;
pub mod cycles;
pub mod json;
pub mod load;
pub mod machine;
pub mod registry;
pub mod rng;
pub mod scheme;
pub mod stats;

pub use contract::CostContract;
pub use cycles::Cycles;
pub use load::{AdmissionPolicy, LoadSpec};
pub use machine::{CacheParams, DramParams, MachineConfig, QeiParams, TlbParams};
pub use registry::{StatValue, StatsRegistry};
pub use rng::SimRng;
pub use scheme::{Scheme, SchemeParams};
pub use stats::{Log2Histogram, Ratio};
