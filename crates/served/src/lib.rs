//! `qei-served`: a persistent simulator daemon over [`qei_sim::SimSession`].
//!
//! The batch pipeline rebuilds every workload image from seeds on every
//! run; for interactive exploration (sweep a knob, mutate a structure,
//! re-price) that rebuild dominates wall time. This crate keeps the warmed
//! state alive instead: a daemon holds named [`SimSession`]s — built guest
//! images, their workloads' query streams and ground truth, installed cost
//! contracts, and named snapshots — behind a Unix domain socket, and
//! clients drive it with a line protocol.
//!
//! * [`protocol`] — the `qei-served-v1` wire format: one strict JSON
//!   object per line, schema-tagged, parsed by the workspace's one codec
//!   ([`qei_config::json`], depth-capped) plus the protocol's own field
//!   rules. Malformed input yields a structured error line, never a panic
//!   or a wedged daemon.
//! * [`daemon`] — the state machine ([`daemon::handle_line`]) and the
//!   socket accept loop ([`daemon::serve`]). Ops: `ping`, `build`,
//!   `snapshot`, `revert`, `digest`, `run`, `query`, `mutate`, `stats`,
//!   `close`, `shutdown`.
//! * [`client`] — a minimal blocking client used by `repro serve-client`
//!   and the CI smoke job.
//!
//! Determinism carries over the socket: a `run` request forks the
//! session's image, so identical seeds produce byte-identical reports
//! whether a plan executes in-process, in-daemon, or forked from a
//! snapshot taken hours earlier. State digests in replies are comparable
//! only between replies of the same daemon build (see [`protocol`]).
//!
//! [`SimSession`]: qei_sim::SimSession

#![forbid(unsafe_code)]
pub mod client;
pub mod daemon;
pub mod protocol;

pub use client::Client;
pub use daemon::{handle_line, serve, DaemonState, Step};
pub use protocol::{json_str, parse_request, Request, SCHEMA};
