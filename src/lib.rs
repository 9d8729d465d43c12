//! # QEI — generic, efficient on-chip query acceleration
//!
//! A from-scratch Rust reproduction of *QEI: Query Acceleration Can be
//! Generic and Efficient in the Cloud* (HPCA 2021): the accelerator itself
//! (CFA model, QST/CEE/DPU microarchitecture, five CPU-integration schemes),
//! the simulation substrate it is evaluated on (guest memory with real
//! paging, cache/NoC/DRAM hierarchy, a mechanistic out-of-order core model),
//! the five cloud workloads, an analytic area/power model, and a harness
//! regenerating every table and figure of the paper's evaluation.
//!
//! This crate is the facade: it re-exports the workspace crates under short
//! module names and hosts the runnable examples and cross-crate tests.
//!
//! ## Quick start
//!
//! ```
//! use qei::prelude::*;
//!
//! // A guest with a hash table in it, described by a 64-byte header.
//! let mut sys = System::new(MachineConfig::skylake_sp_24(), 42);
//! let mut table = ChainedHash::new(sys.guest_mut(), 64, 8, 0xFEED).unwrap();
//! table.insert(sys.guest_mut(), b"hello th", 7).unwrap();
//!
//! // Query it through the accelerator's functional engine.
//! let key = stage_key(sys.guest_mut(), b"hello th");
//! let fw = FirmwareStore::with_builtins();
//! let result = run_query(&fw, sys.guest(), table.header_addr(), key).unwrap();
//! assert_eq!(result, 7);
//! ```
//!
//! ## Layout
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`config`] | `qei-config` | machine config (Table II), schemes (Table I) |
//! | [`trace`] | `qei-trace` | deterministic event tracing + Chrome export |
//! | [`mem`] | `qei-mem` | guest memory, paging, TLBs |
//! | [`noc`] | `qei-noc` | mesh network-on-chip |
//! | [`cache`] | `qei-cache` | L1/L2/NUCA-LLC/DRAM hierarchy |
//! | [`cpu`] | `qei-cpu` | micro-op traces + OoO core model |
//! | [`accel`] | `qei-core` | **the QEI accelerator** |
//! | [`datastructs`] | `qei-datastructs` | guest data structures + baselines |
//! | [`workloads`] | `qei-workloads` | the five paper benchmarks |
//! | [`serve`] | `qei-serve` | open-loop multi-tenant serving layer |
//! | [`sim`] | `qei-sim` | co-simulation driver + [`sim::SimSession`] |
//! | [`served`] | `qei-served` | persistent simulator daemon (socket protocol) |
//! | [`power`] | `qei-power` | area/leakage/dynamic-energy model |
//! | [`experiments`] | `qei-experiments` | every table and figure |

#![forbid(unsafe_code)]
pub use qei_cache as cache;
pub use qei_config as config;
pub use qei_core as accel;
pub use qei_cpu as cpu;
pub use qei_datastructs as datastructs;
pub use qei_experiments as experiments;
pub use qei_mem as mem;
pub use qei_noc as noc;
pub use qei_power as power;
pub use qei_serve as serve;
pub use qei_served as served;
pub use qei_sim as sim;
pub use qei_trace as trace;
pub use qei_workloads as workloads;

/// The items most programs need, in one import.
pub mod prelude {
    pub use qei_config::{AdmissionPolicy, Cycles, LoadSpec, MachineConfig, Scheme};
    pub use qei_core::{
        nb_word_matches, run_query, DsType, FaultCode, FirmwareStore, Header, QeiAccelerator,
        RESULT_NOT_FOUND,
    };
    pub use qei_datastructs::{
        stage_key, AcTrie, BPlusTree, Bst, ChainedHash, CuckooHash, LinkedList, LpmTrie, QueryDs,
        SkipList,
    };
    pub use qei_mem::{GuestMem, VirtAddr};
    pub use qei_serve::ServeStats;
    pub use qei_sim::{
        ConfigOverrides, Engine, RunMode, RunPlan, RunReport, SimSession, SimSnapshot, System,
        WorkloadKind, WorkloadSpec,
    };
    pub use qei_workloads::{QueryJob, StructureMutator, Workload};
}
