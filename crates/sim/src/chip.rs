//! The multi-core chip: N per-core accelerator lanes serving one load.
//!
//! A [`RunMode::Served`](crate::engine::RunMode) plan whose load asks for
//! `cores` lanes executes here. Each lane is a full per-core stack — its
//! own [`QeiAccelerator`] (QST + CEE, placed at the lane's core tile), its
//! own private L1/L2, and its own guest-image replica — while the LLC
//! slices and the NoC mesh behave as *shared* chip resources. Tenants are
//! hash-sharded across lanes ([`qei_serve::lane_of_tenant`]), and each lane
//! draws only its shard's arrivals ([`qei_serve::lane_arrivals`]) — once,
//! on the worker that steps it — so a plan draws every tenant's stream
//! exactly once.
//!
//! # The two-pass contention model
//!
//! Genuinely interleaving N mutable lanes on one shared LLC would make the
//! measured numbers depend on host scheduling, which the determinism
//! contract forbids. The chip instead prices cross-core interference in two
//! deterministic passes:
//!
//! 1. **Warm-up pass** — every lane draws its shard's arrivals and serves
//!    them (also warming caches and accelerator TLBs, exactly like a batch
//!    run's warm-up pass). Each lane records its windowed LLC-slice
//!    access profile and its per-link NoC traffic.
//! 2. **Barrier** — [`qei_cache::arbitrate`] converts the slice profiles
//!    into read-only per-lane penalty tables (cycle-window queueing delay,
//!    ties broken by core id), and every lane's NoC learns the *other*
//!    lanes' link traffic as a foreign-traffic background load.
//! 3. **Measured pass** — epochs reset, the tables install, and every lane
//!    replays the arrivals it drew in the warm-up pass against the priced
//!    contention. Lanes never share mutable state while stepping, so both
//!    passes spread across the caller's worker budget
//!    ([`crate::scoped_map`]; `Engine::with_threads(1)` steps them on the
//!    calling thread) with bit-identical results in any interleaving.
//!
//! A single-lane chip records no pressure, installs no tables, and sees no
//! foreign traffic. Its reports are pinned by digest across commits
//! (`served_report_bytes_are_pinned_across_commits`).
//!
//! LLC *capacity* sharing is modeled by giving each lane `1/cores` of the
//! LLC: per-slice sets shrink by the lane count, which keeps the paper's
//! slice geometry while making N lanes compete for the same total bytes.

use crate::mutate::EpochWindows;
use crate::report::CoreLaneData;
use crate::scoped_map;
use qei_cache::{arbitrate, MemStats, MemoryHierarchy, SlicePressure};
use qei_config::{Cycles, LoadSpec, MachineConfig, Scheme};
use qei_core::{nb_word_matches, AccelStats, FaultCode, QeiAccelerator};
use qei_mem::{GuestMem, VirtAddr};
use qei_noc::NocStats;
use qei_serve::{lane_arrivals, run_load_lane, Arrival, QueryBackend, ServeStats};
use qei_trace::{core_track, Event, EventBuf};
use qei_workloads::{QueryJob, Workload};
use std::time::{Duration, Instant};

/// One lane's contribution to the chip report, kept per-core for the
/// `serve_c{i}` stats subtrees and the `--profile` breakdown.
#[derive(Debug, Clone)]
pub(crate) struct LaneReport {
    /// The lane's serving statistics and the contention cycles charged to
    /// it: LLC slice queueing plus the NoC congestion the other lanes'
    /// mesh traffic added.
    pub data: CoreLaneData,
    /// Trace events the lane emitted in the measured pass.
    pub events: u64,
    /// Wall time of the lane's measured stepping (profiling only).
    pub step: Duration,
}

/// Everything the served executor needs to report a chip run.
pub(crate) struct ChipOutcome {
    /// Chip-aggregate serving statistics (tenant-wise lane merge).
    pub serve: ServeStats,
    /// Summed memory-hierarchy counters.
    pub mem: MemStats,
    /// Merged accelerator counters and histograms.
    pub accel: AccelStats,
    /// Summed NoC totals.
    pub noc: NocStats,
    /// Per-lane mean QST occupancy, in lane order.
    pub occupancies: Vec<f64>,
    /// Per-lane reports, in lane order.
    pub lanes: Vec<LaneReport>,
    /// Per-lane trace sources with lane-namespaced tracks, ready for the
    /// executor's trace collector.
    pub trace_sources: Vec<(Vec<Event>, u64)>,
    /// Wall time of the warm-up pass (all lanes).
    pub warmup: Duration,
    /// Wall time of the measured pass (all lanes).
    pub measured: Duration,
    /// Wall time of the deterministic lane merge.
    pub merge: Duration,
}

/// A lane's machine configuration: the full machine with this lane's
/// `1/lanes` share of LLC capacity. Slice count (and so the NUCA hash) is
/// unchanged; per-slice sets shrink.
///
/// # Panics
///
/// Panics when the lane count does not divide the LLC geometry evenly
/// (every power-of-two lane count divides the shipped configurations).
fn lane_config(config: &MachineConfig, lanes: u32) -> MachineConfig {
    let mut c = config.clone();
    assert!(
        divides_llc_evenly(config, lanes),
        "cores={lanes} does not divide the LLC geometry evenly"
    );
    c.llc.size_bytes /= lanes as u64;
    c
}

/// Whether `lanes` divides `config`'s LLC geometry evenly — the
/// [`lane_config`] precondition, exposed (via
/// [`crate::session::cores_divide_llc`]) so daemons can validate a
/// requested core count instead of panicking.
pub(crate) fn divides_llc_evenly(config: &MachineConfig, lanes: u32) -> bool {
    if lanes == 0 {
        return false;
    }
    let share = config.llc.size_bytes / lanes as u64;
    let lines = share / config.llc.line_bytes as u64 / config.cores as u64;
    config.llc.size_bytes.is_multiple_of(lanes as u64)
        && share.is_multiple_of(config.cores as u64)
        && lines.is_multiple_of(config.llc.ways as u64)
}

/// One core lane: a per-core accelerator + private hierarchy + guest
/// replica, serving the tenants its shard assigns.
struct Lane {
    accel: QeiAccelerator,
    mem: MemoryHierarchy,
    guest: GuestMem,
    jobs: Vec<QueryJob>,
    expected: Vec<u64>,
    result_buf: VirtAddr,
    blocking: bool,
    workload: &'static str,
    /// Open mutation windows (served writes' seqlock bookkeeping).
    windows: EpochWindows,
    /// The shard's arrivals, drawn by the warm-up pass and replayed by the
    /// measured pass.
    arrivals: Vec<Arrival>,
    /// Filled at the warm-up → measured barrier.
    warm_serve: ServeStats,
    serve: ServeStats,
    events: EventBuf,
    step: Duration,
}

impl Lane {
    fn new(
        lane: u32,
        config: &MachineConfig,
        scheme: Scheme,
        guest: &GuestMem,
        workload: &dyn Workload,
        blocking: bool,
    ) -> Self {
        let mut guest = guest.clone();
        let n_jobs = workload.jobs().len();
        let result_buf = guest
            .alloc((n_jobs * 8) as u64, 64)
            .unwrap_or_else(|e| panic!("guest alloc for NB results failed: {e}"));
        Lane {
            accel: QeiAccelerator::new(config, scheme, lane % config.cores),
            mem: MemoryHierarchy::new(config),
            guest,
            jobs: workload.jobs().to_vec(),
            expected: workload.expected().to_vec(),
            result_buf,
            blocking,
            workload: workload.name(),
            windows: EpochWindows::default(),
            arrivals: Vec::new(),
            warm_serve: ServeStats::default(),
            serve: ServeStats::default(),
            events: EventBuf::new(),
            step: Duration::ZERO,
        }
    }

    /// Draws this lane's shard, serves it once, and discards its trace: the
    /// chip's warm-up pass, which doubles as the contention-profiling pass.
    fn warm(&mut self, load: &LoadSpec, lane: u32, profile: bool) {
        if profile {
            self.mem.set_pressure_recording(true);
        }
        let arrivals = lane_arrivals(load, self.jobs.len() as u32, lane);
        let mut scratch = EventBuf::new();
        self.warm_serve = run_load_lane(load, &arrivals, self, &mut scratch);
        self.arrivals = arrivals;
        // Warm-up events are not part of the measured epoch.
        let _ = self.accel.drain_trace();
        let _ = self.mem.drain_trace();
    }

    /// Starts the measured epoch: the accelerator's epoch counters reset
    /// before the hierarchy's.
    fn begin_epoch(&mut self) {
        self.accel.reset_epoch();
        self.mem.reset_epoch();
    }

    /// Serves the warm-up pass's arrivals again, for real, with contention
    /// tables installed.
    fn measure(&mut self, load: &LoadSpec) {
        let phase = Instant::now();
        let arrivals = std::mem::take(&mut self.arrivals);
        let mut events = EventBuf::new();
        self.serve = run_load_lane(load, &arrivals, self, &mut events);
        self.events = events;
        self.step = phase.elapsed();
    }
}

impl QueryBackend for Lane {
    fn execute(&mut self, start: Cycles, job: u32) -> (Cycles, Result<u64, FaultCode>) {
        let j = self.jobs[job as usize];
        let exp = self.expected[job as usize];
        self.windows.close_expired(&mut self.guest, start.as_u64());
        if self.blocking {
            let (completion, result) = self.accel.query_b(
                start,
                j.header_addr,
                j.key_addr,
                &mut self.guest,
                &mut self.mem,
            );
            if let Ok(v) = result {
                assert_eq!(
                    v, exp,
                    "served QEI functional mismatch in {}",
                    self.workload
                );
            }
            (completion, result)
        } else {
            let slot = self.result_buf + job as u64 * 8;
            let (_, done) = self.accel.query_nb(
                start,
                j.header_addr,
                j.key_addr,
                slot,
                &mut self.guest,
                &mut self.mem,
            );
            let wire = self.guest.read_u64(slot).unwrap_or(u64::MAX);
            // A read that raced a mutation window (or hit a structural
            // fault) delivers its fault code.
            let matched = match nb_word_matches(wire, exp) {
                Ok(matched) => matched,
                Err(code) => return (done, Err(code)),
            };
            assert!(
                matched,
                "served QEI functional mismatch in {}: wire {wire} vs expected {exp}",
                self.workload
            );
            (done, Ok(wire))
        }
    }

    fn execute_write(&mut self, start: Cycles, job: u32) -> (Cycles, Result<u64, FaultCode>) {
        let header = self.jobs[job as usize].header_addr;
        // Coalesce with any window still open on this structure, then run
        // the write's locate phase as a real accelerated walk (the write
        // touches the same nodes a lookup does) to price its service span.
        self.windows.close_for(&mut self.guest, header);
        let (completion, result) = self.execute(start, job);
        // The mutation publishes over its service window: epoch odd from
        // here until the completion cycle, restored lazily by the next
        // admission past it (or finish()).
        self.windows
            .open(&mut self.guest, header, completion.as_u64());
        (completion, result)
    }

    fn finish(&mut self) {
        self.windows.close_all(&mut self.guest);
    }
}

/// Serves `load` on a chip of `load.cores` lanes and merges the result in
/// core-id order. Lanes step on up to `threads` scoped workers (0 = one
/// per available core, 1 = serially on the calling thread); they share
/// nothing mutable, so the schedule cannot affect any lane's result.
pub(crate) fn run_served_qei(
    config: &MachineConfig,
    guest: &GuestMem,
    workload: &dyn Workload,
    load: &LoadSpec,
    scheme: Scheme,
    threads: usize,
) -> ChipOutcome {
    assert!(load.cores >= 1, "a chip needs at least one lane");
    let lanes_n = load.cores;
    let per_lane = lane_config(config, lanes_n);
    let mut lanes: Vec<Lane> = (0..lanes_n)
        .map(|i| Lane::new(i, &per_lane, scheme, guest, workload, load.blocking))
        .collect();

    // Warm-up pass: steady-state caches/TLBs plus (multi-lane only) the
    // contention profiles.
    let phase = Instant::now();
    let shared = lanes_n > 1;
    scoped_map(lanes.iter_mut().enumerate(), threads, |(i, lane)| {
        lane.warm(load, i as u32, shared);
    });
    let warmup = phase.elapsed();

    // Barrier: price cross-lane contention from the warm-up profiles. All
    // inputs and outputs are pure functions of the profiles, so this is
    // deterministic regardless of how the warm-up pass was scheduled.
    let phase = Instant::now();
    if shared {
        let profiles: Vec<SlicePressure> =
            lanes.iter_mut().map(|l| l.mem.take_pressure()).collect();
        let tables = arbitrate(&profiles, config.cores);
        let traffic: Vec<Vec<u64>> = lanes.iter().map(|l| l.mem.noc().link_traffic()).collect();
        let horizon = lanes
            .iter()
            .map(|l| l.warm_serve.horizon)
            .max()
            .unwrap_or(0)
            .max(1);
        for (i, lane) in lanes.iter_mut().enumerate() {
            lane.begin_epoch();
            let table = tables[i].clone();
            lane.mem
                .set_contention((!table.is_empty()).then_some(table));
            let mut foreign = vec![0u64; traffic[i].len()];
            for (j, t) in traffic.iter().enumerate() {
                if j == i {
                    continue;
                }
                for (f, b) in foreign.iter_mut().zip(t) {
                    *f += b;
                }
            }
            lane.mem.noc_mut().set_foreign_traffic(&foreign, horizon);
        }
    } else {
        lanes.iter_mut().for_each(Lane::begin_epoch);
    }

    // Measured pass: the same per-lane arrivals, priced contention.
    scoped_map(lanes.iter_mut(), threads, |lane| lane.measure(load));
    let measured = phase.elapsed();

    // Deterministic merge, strictly in core-id order.
    let phase = Instant::now();
    let mut serve = lanes[0].serve.clone();
    let mut mem = lanes[0].mem.stats();
    let mut accel = lanes[0].accel.stats();
    let mut noc = *lanes[0].mem.noc().stats();
    for lane in &lanes[1..] {
        serve.merge_lane(&lane.serve);
        mem.merge(&lane.mem.stats());
        accel.merge(&lane.accel.stats());
        let n = lane.mem.noc().stats();
        noc.messages += n.messages;
        noc.bytes += n.bytes;
        noc.hops += n.hops;
    }
    let mut occupancies = Vec::with_capacity(lanes.len());
    let mut reports = Vec::with_capacity(lanes.len());
    let mut trace_sources = Vec::with_capacity(lanes.len() * 3);
    for (i, lane) in lanes.iter_mut().enumerate() {
        occupancies.push(lane.accel.qst_occupancy(Cycles(lane.serve.horizon.max(1))));
        let sources = [
            lane.events.drain(),
            lane.accel.drain_trace(),
            lane.mem.drain_trace(),
        ];
        let mut emitted = 0u64;
        for (mut events, dropped) in sources {
            emitted += events.len() as u64;
            if i > 0 {
                for ev in &mut events {
                    ev.track = core_track(i as u32, ev.track);
                }
            }
            trace_sources.push((events, dropped));
        }
        reports.push(LaneReport {
            data: CoreLaneData {
                serve: lane.serve.clone(),
                contention_cycles: lane.mem.contention_cycles()
                    + lane.mem.noc().foreign_delay_cycles(),
            },
            events: emitted,
            step: lane.step,
        });
    }
    let merge = phase.elapsed();

    ChipOutcome {
        serve,
        mem,
        accel,
        noc,
        occupancies,
        lanes: reports,
        trace_sources,
        warmup,
        measured,
        merge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_config_divides_llc_capacity_only() {
        let base = MachineConfig::skylake_sp_24();
        let c4 = lane_config(&base, 4);
        assert_eq!(c4.llc.size_bytes, base.llc.size_bytes / 4);
        assert_eq!(c4.cores, base.cores);
        assert_eq!(c4.llc.ways, base.llc.ways);
        assert!(c4.validate().is_empty());
        // One lane is the unmodified machine.
        assert_eq!(lane_config(&base, 1).llc.size_bytes, base.llc.size_bytes);
    }

    #[test]
    #[should_panic(expected = "does not divide the LLC geometry")]
    fn indivisible_lane_count_is_rejected() {
        let _ = lane_config(&MachineConfig::skylake_sp_24(), 3);
    }
}
