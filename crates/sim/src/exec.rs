//! The executors: how one run is priced. [`SimSession`](crate::SimSession)
//! is their only caller. Each takes the [`System`] the run executes against
//! (a fork of the session's image, or the image itself) plus the workload
//! that describes it, and returns the run's report.
//!
//! Batch runs perform a warm-up pass (same trace, same machine state)
//! before the measured pass, modelling the steady state the paper
//! measures, and verify functional results against the workload's ground
//! truth. Served runs calibrate on the same baseline pass (software) or
//! warm the [`chip`] (accelerator). Trace collection and the `--profile`
//! lines live here too.

use crate::chip;
use crate::engine::{profiling, RunMode};
use crate::report::{CoreLaneData, QeiRunData, RunReport, ServedRunData};
use crate::{build_qei_trace_blocking, build_qei_trace_nonblocking, QeiBus, System};
use qei_cache::MemoryHierarchy;
use qei_config::{Cycles, LoadSpec, Scheme};
use qei_core::{AccelStats, FaultCode, QeiAccelerator};
use qei_cpu::{CoreModel, MemBus, RunResult, Trace};
use qei_mem::GuestMem;
use qei_serve::{lane_arrivals, run_load_lane, QueryBackend};
use qei_trace::{core_track, Event, EventBuf};
use qei_workloads::Workload;
use std::time::{Duration, Instant};

/// Prices `workload` on `sys` under `mode`. `threads` bounds the workers a
/// served chip steps its lanes on (0 = one per available core, 1 = serial).
///
/// # Panics
///
/// Panics on a functional mismatch, if a QEI mode is given no scheme, or if
/// a served run has no jobs.
pub(crate) fn execute(
    sys: &mut System,
    workload: &dyn Workload,
    mode: RunMode,
    scheme: Option<Scheme>,
    build: Duration,
    tag: &str,
    threads: usize,
) -> RunReport {
    match (mode, scheme) {
        (RunMode::Baseline, _) => baseline(sys, workload, build, tag),
        (RunMode::Served { load }, scheme) => {
            assert!(
                !workload.jobs().is_empty(),
                "served runs need a nonempty job list"
            );
            match scheme {
                Some(scheme) => served_qei(sys, workload, load, scheme, build, tag, threads),
                None => served_software(sys, workload, load, build, tag),
            }
        }
        (_, None) => panic!("QEI modes require a scheme"),
        (RunMode::QeiNonblocking { batch }, Some(scheme)) => {
            let trace = build_qei_trace_nonblocking(workload, batch);
            qei(sys, workload, mode, scheme, trace, build, tag)
        }
        (_, Some(scheme)) => {
            let trace = build_qei_trace_blocking(workload);
            qei(sys, workload, mode, scheme, trace, build, tag)
        }
    }
}

/// Ends every run the same way: gathers the measured pass's buffered trace
/// events into the process-wide collector under a deterministic `label`,
/// builds the report, and prints its `--profile` line (the report column
/// times both steps).
fn finish(
    label: String,
    sources: Vec<(Vec<Event>, u64)>,
    build: Duration,
    warmup: Duration,
    measured: Duration,
    report: impl FnOnce() -> RunReport,
) -> RunReport {
    let phase = Instant::now();
    collect_trace(label, sources);
    let report = report();
    if profiling() {
        let label = match report.scheme {
            Some(scheme) => format!("{}/{scheme}", report.mode),
            None => report.mode.to_string(),
        };
        eprintln!(
            "[profile] {:8} {:32} build {:>10.3?}  warm-up {:>10.3?}  measured {:>10.3?}  report {:>10.3?}",
            report.workload,
            label,
            build,
            warmup,
            measured,
            phase.elapsed()
        );
    }
    report
}

/// Files one run's trace events with the process-wide collector, and
/// prints a one-line `[trace]` summary when profiling. No-op while tracing
/// is disabled.
fn collect_trace(plan: String, sources: Vec<(Vec<Event>, u64)>) {
    if !qei_trace::tracing_enabled() {
        return;
    }
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for (src_events, src_dropped) in sources {
        events.extend(src_events);
        dropped += src_dropped;
    }
    events.sort_unstable();
    let trace = qei_trace::RunTrace {
        plan,
        events,
        dropped,
    };
    if profiling() {
        eprintln!("[trace] {}", qei_trace::summarize(&trace));
    }
    qei_trace::collect(trace);
}

/// The software baseline's pricing pass, shared by the baseline and the
/// served-software executors. The measured pass's trace events stay
/// buffered in `core` and `bus`.
struct BaselinePass<'a> {
    core: CoreModel,
    bus: MemBus<'a>,
    run: RunResult,
    warmup: Duration,
    measured: Duration,
}

/// Builds the baseline trace, checks its results against ground truth,
/// then runs a warm-up pass and the measured pass on one core and
/// hierarchy.
fn baseline_pass<'a>(sys: &'a System, workload: &dyn Workload) -> BaselinePass<'a> {
    let phase = Instant::now();
    let mut trace = Trace::new();
    let results = workload.baseline_trace(sys.guest(), &mut trace);
    assert_eq!(
        results,
        workload.expected(),
        "baseline functional mismatch in {}",
        workload.name()
    );
    let mut bus = MemBus::new(MemoryHierarchy::new(sys.config()), sys.guest().space());
    let mut core = CoreModel::new(sys.config(), sys.core_id());
    // Warm-up pass: caches, TLBs, branch predictor reach steady state.
    let _ = core.run(&trace, &mut bus);
    // Warm-up events are not part of the measured epoch.
    let _ = core.drain_trace();
    let _ = bus.mem.drain_trace();
    let warmup = phase.elapsed();
    let phase = Instant::now();
    bus.mem.reset_epoch();
    let run = core.run(&trace, &mut bus);
    BaselinePass {
        core,
        bus,
        run,
        warmup,
        measured: phase.elapsed(),
    }
}

fn baseline(sys: &System, workload: &dyn Workload, build: Duration, tag: &str) -> RunReport {
    let mut pass = baseline_pass(sys, workload);
    let sources = vec![pass.core.drain_trace(), pass.bus.mem.drain_trace()];
    finish(
        format!("{}/baseline/sw/{tag}", workload.name()),
        sources,
        build,
        pass.warmup,
        pass.measured,
        || RunReport::from_software(workload, pass.run, pass.bus.mem.stats()),
    )
}

fn qei(
    sys: &mut System,
    workload: &dyn Workload,
    mode: RunMode,
    scheme: Scheme,
    trace: Trace,
    build: Duration,
    tag: &str,
) -> RunReport {
    // Result buffer for non-blocking queries: one u64 per job.
    let phase = Instant::now();
    let n_jobs = workload.jobs().len();
    let result_buf = sys
        .guest_mut()
        .alloc((n_jobs.max(1) * 8) as u64, 64)
        .unwrap_or_else(|e| panic!("guest alloc for NB results failed: {e}"));

    let mut core = CoreModel::new(sys.config(), sys.core_id());
    let mut accel = QeiAccelerator::new(sys.config(), scheme, sys.core_id());
    accel.set_force_local_compare(matches!(mode, RunMode::LocalCompareAblation));
    let config = sys.config().clone();
    let jobs = workload.jobs().to_vec();
    let mut bus = QeiBus::new(
        MemoryHierarchy::new(&config),
        accel,
        sys.guest_mut(),
        jobs,
        result_buf,
    );
    // Warm-up pass then measured pass over the *same* bus, so caches,
    // accelerator TLBs, and the predictor are in steady state.
    let _ = core.run(&trace, &mut bus);
    // Warm-up events are not part of the measured epoch.
    let _ = core.drain_trace();
    let _ = bus.drain_trace();
    let warmup = phase.elapsed();
    let phase = Instant::now();
    bus.begin_epoch();
    let run = core.run(&trace, &mut bus);
    let measured = phase.elapsed();

    let nonblocking = matches!(mode, RunMode::QeiNonblocking { .. });
    let correct = bus.verify(workload.expected(), nonblocking);
    assert!(
        correct,
        "QEI functional mismatch in {} under {}",
        workload.name(),
        scheme
    );
    let sources = vec![core.drain_trace(), bus.drain_trace()];
    finish(
        format!("{}/{mode}/{scheme}/{tag}", workload.name()),
        sources,
        build,
        warmup,
        measured,
        || {
            let occupancy = bus.accel().qst_occupancy(Cycles(run.cycles.max(1)));
            RunReport::from_qei(
                workload,
                mode,
                scheme,
                QeiRunData {
                    run,
                    mem: bus.mem_hierarchy().stats(),
                    accel: bus.accel().stats(),
                    qst_occupancy: occupancy,
                    noc: *bus.mem_hierarchy().noc().stats(),
                },
            )
        },
    )
}

/// Static service-cycle bound for the served structure, from the shipped
/// cost contracts: the first job's header identifies the `(dtype, subtype)`
/// pair (a served workload queries one structure type). 0 when the header
/// is unreadable or no contract covers it.
fn served_contract_bound(workload: &dyn Workload, guest: &GuestMem) -> u64 {
    qei_verify::install_contracts();
    let Some(job) = workload.jobs().first() else {
        return 0;
    };
    let Ok(h) = qei_core::Header::read_from(guest, job.header_addr) else {
        return 0;
    };
    qei_core::contract::lookup(h.dtype.to_byte(), h.subtype)
        .filter(|c| c.covers(h.key_len, h.aux0))
        .map(qei_config::CostContract::service_bound)
        .unwrap_or(0)
}

/// Served run over the software baseline: prices the baseline ROI once
/// ([`baseline_pass`]) to calibrate an integer per-query service time, then
/// serves each core lane's tenant shard through its own single-server queue
/// at that rate. A software "chip" has no shared accelerator state to
/// contend on, so lanes are fully independent.
fn served_software(
    sys: &System,
    workload: &dyn Workload,
    load: LoadSpec,
    build: Duration,
    tag: &str,
) -> RunReport {
    let mut pass = baseline_pass(sys, workload);
    let phase = Instant::now();
    // Calibration events belong to the pricing pass, not the served run.
    let _ = pass.core.drain_trace();
    let _ = pass.bus.mem.drain_trace();
    let service = (pass.run.cycles / workload.jobs().len() as u64).max(1);

    let n_jobs = workload.jobs().len() as u32;
    let contract_bound = served_contract_bound(workload, sys.guest());
    let mut lanes = Vec::new();
    let mut sources = Vec::new();
    for lane in 0..load.cores {
        let mut backend = CalibratedBackend {
            service,
            free_at: 0,
            expected: workload.expected(),
        };
        let mut events = EventBuf::new();
        let arrivals = lane_arrivals(&load, n_jobs, lane);
        let mut serve = run_load_lane(&load, &arrivals, &mut backend, &mut events);
        serve.contract_bound = contract_bound;
        serve.service_estimate = service;
        let (mut evs, dropped) = events.drain();
        if lane > 0 {
            for ev in &mut evs {
                ev.track = core_track(lane, ev.track);
            }
        }
        sources.push((evs, dropped));
        lanes.push(CoreLaneData {
            serve,
            contention_cycles: 0,
        });
    }
    let Some((first, rest)) = lanes.split_first() else {
        unreachable!("a validated load has at least one core lane")
    };
    let mut serve = first.serve.clone();
    for lane in rest {
        serve.merge_lane(&lane.serve);
    }
    let measured = pass.measured + phase.elapsed();

    let mode = RunMode::Served { load };
    finish(
        format!("{}/{mode}/sw/{tag}", workload.name()),
        sources,
        build,
        pass.warmup,
        measured,
        || {
            RunReport::from_served(
                workload,
                mode,
                None,
                ServedRunData {
                    serve,
                    mem: pass.bus.mem.stats(),
                    accel: None,
                    noc: None,
                    qst_occupancy: 0.0,
                    cores: load.cores,
                    per_core: lanes,
                },
            )
        },
    )
}

/// Served run over the accelerator, on the multi-core [`chip`]:
/// `load.cores` per-core lanes with shared LLC/NoC contention, stepped on
/// up to `threads` workers and merged in core-id order.
fn served_qei(
    sys: &System,
    workload: &dyn Workload,
    load: LoadSpec,
    scheme: Scheme,
    build: Duration,
    tag: &str,
    threads: usize,
) -> RunReport {
    let mut outcome =
        chip::run_served_qei(sys.config(), sys.guest(), workload, &load, scheme, threads);
    outcome.serve.contract_bound = served_contract_bound(workload, sys.guest());
    outcome.serve.service_estimate = accel_service_estimate(&outcome.accel);
    let mode = RunMode::Served { load };
    let lanes = &outcome.lanes;
    let report = finish(
        format!("{}/{mode}/{scheme}/{tag}", workload.name()),
        outcome.trace_sources,
        build,
        outcome.warmup,
        outcome.measured,
        || {
            let occupancy =
                outcome.occupancies.iter().sum::<f64>() / outcome.occupancies.len() as f64;
            RunReport::from_served(
                workload,
                mode,
                Some(scheme),
                ServedRunData {
                    serve: outcome.serve,
                    mem: outcome.mem,
                    accel: Some(outcome.accel),
                    noc: Some(outcome.noc),
                    qst_occupancy: occupancy,
                    cores: load.cores,
                    per_core: lanes.iter().map(|l| l.data.clone()).collect(),
                },
            )
        },
    );
    if profiling() {
        for (i, lane) in lanes.iter().enumerate() {
            eprintln!(
                "[profile]   lane{i}: step {:>10.3?}  horizon {:>12} cyc  events {:>8}  contention {:>8} cyc  completed {:>6}",
                lane.step,
                lane.data.serve.horizon,
                lane.events,
                lane.data.contention_cycles,
                lane.data.serve.completed(),
            );
        }
        eprintln!("[profile]   lane merge {:>10.3?}", outcome.merge);
    }
    report
}

/// Mean observed submit-to-completion cycles of successful accelerated
/// queries — the dynamic side of the bound-vs-observed tightness ratio.
fn accel_service_estimate(accel: &AccelStats) -> u64 {
    accel
        .latency_sum
        .checked_div(accel.queries.saturating_sub(accel.faults))
        .unwrap_or(0)
}

/// The served software backend: a single-server queue at the calibrated
/// baseline rate, answering from the workload's ground truth.
struct CalibratedBackend<'a> {
    /// Calibrated integer service cycles per query.
    service: u64,
    /// When the server frees up.
    free_at: u64,
    expected: &'a [u64],
}

impl QueryBackend for CalibratedBackend<'_> {
    fn execute(&mut self, start: Cycles, job: u32) -> (Cycles, Result<u64, FaultCode>) {
        let begin = self.free_at.max(start.as_u64());
        self.free_at = begin + self.service;
        (Cycles(self.free_at), Ok(self.expected[job as usize]))
    }
}
