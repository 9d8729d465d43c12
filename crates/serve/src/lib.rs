//! The cloud serving layer: open-loop, multi-tenant load generation in front
//! of the QEI accelerator.
//!
//! The paper's evaluation replays fixed query traces, but its pitch is
//! *cloud* query acceleration — QST occupancy, `QUERY_NB` polling, and the
//! integration schemes only differentiate under sustained concurrent load.
//! This crate produces that load and measures the throughput–latency curve:
//!
//! * [`arrival`] — a deterministic, SimRng-driven open-loop arrival process
//!   (Poisson-approximate via integer geometric inter-arrival draws), one
//!   independent stream per tenant, drawn whole or per core lane;
//! * [`queue`] — a bounded admission queue in front of the accelerator's
//!   QST with a configurable full-queue policy (reject / stall / tail-drop),
//!   plus the event loop driving a [`queue::QueryBackend`] and the
//!   client-side retry loop with exponential backoff and `SNAPSHOT_READ`
//!   result polling;
//! * [`stats`] — per-tenant latency histograms, reject/retry/drop/timeout
//!   counters, and offered-vs-achieved throughput, exported under the
//!   `serve` registry group.
//!
//! Everything is simulated cycles — no wall-clock, no floats in state — so
//! a served run's report is byte-identical across `--serial` and `--jobs N`
//! and across processes.

#![forbid(unsafe_code)]
pub mod arrival;
pub mod queue;
pub mod shard;
pub mod stats;

pub use arrival::{arrivals, lane_arrivals, Arrival};
pub use queue::{run_load_lane, AdmissionQueue, QueryBackend};
pub use shard::lane_of_tenant;
pub use stats::{ServeStats, TenantStats};
