//! The run pipeline: declarative [`RunPlan`]s executed by an [`Engine`].
//!
//! A plan says *what* to measure — which workload to build (from seeds, so
//! the run is reproducible and self-contained), how to execute its ROI
//! ([`RunMode`]), under which integration [`Scheme`], and with which
//! machine-configuration overrides ([`ConfigOverrides`]). The engine owns
//! the base [`MachineConfig`] and turns plans into [`RunReport`]s:
//!
//! * [`Engine::run`] — one plan;
//! * [`Engine::run_all`] — a list of independent plans, executed in
//!   parallel with `std::thread::scope`, results in plan order;
//! * [`Engine::run_workload`] — an ad-hoc, already-built workload (for
//!   examples and benches that construct their own data structures).
//!
//! Every plan rebuilds its own [`System`] and workload from the seeds it
//! carries, so plans share no state: running them serially or in parallel,
//! in any order, produces byte-identical reports.

use crate::chip;
use crate::report::{CoreLaneData, QeiRunData, RunReport, ServedRunData};
use crate::session::SimSession;
use crate::{build_qei_trace_blocking, build_qei_trace_nonblocking, QeiBus, System, NB_BATCH};
use qei_cache::MemoryHierarchy;
use qei_config::{Cycles, LoadSpec, MachineConfig, Scheme};
use qei_core::{AccelStats, FaultCode, QeiAccelerator, QueryOutcome, QueryRequest, SubmitCtx};
use qei_cpu::{CoreModel, MemBus, Trace};
use qei_mem::{GuestMem, VirtAddr};
use qei_serve::{lane_arrivals, run_load, run_load_lane, QueryBackend, ServeStats};
use qei_workloads::dpdk::{DpdkFib, TupleSpace};
use qei_workloads::flann::FlannLsh;
use qei_workloads::jvm::JvmGc;
use qei_workloads::rocksdb::RocksDbMem;
use qei_workloads::snort::SnortAc;
use qei_workloads::Workload;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Process-wide default worker count for newly-created engines.
/// 0 = one worker per available core.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Whether runs print per-phase wall-time lines to stderr.
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Sets the default worker count every subsequently-created [`Engine`]
/// uses for [`Engine::run_all`] (0 = one per available core, 1 = serial).
/// Individual engines can still override with [`Engine::with_threads`].
/// The `repro` binary's `--jobs`/`--serial` flags call this.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::SeqCst);
}

/// Enables per-phase wall-time profiling: every run prints one stderr line
/// with its workload-build, warm-up, measured-pass, and report-serialization
/// times. The `repro` binary's `--profile` flag calls this; reports
/// themselves are unaffected.
pub fn set_profiling(enabled: bool) {
    PROFILING.store(enabled, Ordering::SeqCst);
}

fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Worker budget for the chip's per-lane stepping: the same process-wide
/// knob `run_all` consults, so `--serial` serializes lanes too (the merged
/// report is byte-identical either way — the lanes share nothing mutable
/// while stepping).
pub(crate) fn lane_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// How a plan executes the workload's ROI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The unmodified software routines.
    Baseline,
    /// ROI rewritten with blocking `QUERY_B` instructions.
    QeiBlocking,
    /// `QUERY_NB` batches polled with `SNAPSHOT_READ`-style loads.
    QeiNonblocking {
        /// Jobs issued between polls.
        batch: usize,
    },
    /// Blocking QEI with the near-data comparison path disabled: lines are
    /// fetched to the DPU and compared locally (the compare-placement
    /// ablation).
    LocalCompareAblation,
    /// Open-loop multi-tenant serving: the workload's queries arrive on the
    /// load pattern's schedule through a bounded admission queue. The plan's
    /// scheme selects the backend — `None` serves through the calibrated
    /// software baseline, `Some(scheme)` through the accelerator
    /// (`load.blocking` picks `QUERY_B` vs `QUERY_NB` + `SNAPSHOT_READ`).
    Served {
        /// The arrival process, admission policy, and retry discipline.
        load: LoadSpec,
    },
}

impl RunMode {
    /// Non-blocking mode at the paper's default poll interval
    /// ([`NB_BATCH`] keys).
    pub fn nonblocking_default() -> Self {
        RunMode::QeiNonblocking { batch: NB_BATCH }
    }

    /// Short machine-readable label (stable across runs; lands in the
    /// stats registry).
    pub fn label(&self) -> &'static str {
        match self {
            RunMode::Baseline => "baseline",
            RunMode::QeiBlocking => "qei-blocking",
            RunMode::QeiNonblocking { .. } => "qei-nonblocking",
            RunMode::LocalCompareAblation => "qei-local-compare",
            RunMode::Served { .. } => "served",
        }
    }

    /// Whether this mode drives the accelerator at all. A served run only
    /// does when its plan carries a scheme; without one it serves through
    /// the calibrated software baseline.
    pub fn uses_qei(&self) -> bool {
        !matches!(self, RunMode::Baseline)
    }
}

impl std::fmt::Display for RunMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunMode::QeiNonblocking { batch } => write!(f, "qei-nonblocking(batch={batch})"),
            RunMode::Served { load } => write!(f, "served({})", load.tag()),
            other => f.write_str(other.label()),
        }
    }
}

/// Which paper workload a plan builds, with its dataset sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// DPDK L3 forwarding table (cuckoo hash, 16 B keys).
    DpdkFib {
        /// Flow-table entries.
        flows: u64,
        /// Lookups issued.
        queries: usize,
    },
    /// Tuple-space search over several flow tables (Fig. 10).
    TupleSpace {
        /// Number of tuple tables.
        tuples: usize,
        /// Flows per table.
        flows_per_table: u64,
        /// Packets classified (each probes every table).
        packets: usize,
    },
    /// JVM GC live-object tree (BST).
    JvmGc {
        /// Objects in the tree.
        objects: u64,
        /// Reference lookups issued.
        queries: usize,
    },
    /// RocksDB memtable (skip list, 100 B keys).
    RocksDbMem {
        /// Memtable items.
        items: u64,
        /// Point lookups issued.
        queries: usize,
    },
    /// Snort Aho–Corasick literal matching.
    SnortAc {
        /// Dictionary keywords.
        keywords: usize,
        /// Payloads scanned.
        scans: usize,
        /// Payload length in bytes.
        text_len: usize,
    },
    /// FLANN LSH similarity search.
    FlannLsh {
        /// Hash tables probed per search.
        tables: usize,
        /// Items indexed.
        items: u64,
        /// Searches issued.
        searches: usize,
    },
}

/// A workload identified by seeds, so any plan can rebuild it from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Guest-memory layout seed (the [`System`] seed).
    pub guest_seed: u64,
    /// Workload-construction seed (data contents and query stream).
    pub build_seed: u64,
    /// Which workload, at which size.
    pub kind: WorkloadKind,
}

impl WorkloadSpec {
    /// Creates a spec.
    pub fn new(guest_seed: u64, build_seed: u64, kind: WorkloadKind) -> Self {
        WorkloadSpec {
            guest_seed,
            build_seed,
            kind,
        }
    }

    /// Builds the workload image — the guest memory holding the data
    /// structure plus the workload's query stream and ground truth. The
    /// image depends only on the spec's seeds, never on the machine
    /// configuration, which is what lets sweep plans that differ only in
    /// [`ConfigOverrides`] share one build.
    ///
    /// # Panics
    ///
    /// Panics if guest allocation fails (dataset larger than guest memory).
    pub fn build_image(&self) -> (GuestMem, Box<dyn Workload>) {
        let mut guest = GuestMem::new(self.guest_seed);
        let seed = self.build_seed;
        let w: Box<dyn Workload> = match self.kind {
            WorkloadKind::DpdkFib { flows, queries } => {
                Box::new(DpdkFib::build(&mut guest, flows, queries, seed))
            }
            WorkloadKind::TupleSpace {
                tuples,
                flows_per_table,
                packets,
            } => Box::new(TupleSpace::build(
                &mut guest,
                tuples,
                flows_per_table,
                packets,
                seed,
            )),
            WorkloadKind::JvmGc { objects, queries } => {
                Box::new(JvmGc::build(&mut guest, objects, queries, seed))
            }
            WorkloadKind::RocksDbMem { items, queries } => {
                Box::new(RocksDbMem::build(&mut guest, items, queries, seed))
            }
            WorkloadKind::SnortAc {
                keywords,
                scans,
                text_len,
            } => Box::new(SnortAc::build(&mut guest, keywords, scans, text_len, seed)),
            WorkloadKind::FlannLsh {
                tables,
                items,
                searches,
            } => Box::new(FlannLsh::build(&mut guest, tables, items, searches, seed)),
        };
        (guest, w)
    }

    /// Builds a fresh system and the workload inside it.
    ///
    /// # Panics
    ///
    /// Panics if guest allocation fails (dataset larger than guest memory).
    pub fn build(&self, config: &MachineConfig) -> (System, Box<dyn Workload>) {
        let (guest, w) = self.build_image();
        (System::from_parts(config.clone(), guest), w)
    }
}

/// Per-plan machine-configuration overrides — the knobs the sweeps and
/// ablations vary. `None` keeps the engine's base configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfigOverrides {
    /// Device-interface data-access latency, cycles (Fig. 8 sweep).
    pub device_data_latency: Option<u64>,
    /// QST entries per accelerator instance (QST-depth ablation).
    pub qst_entries: Option<u32>,
    /// Comparators per CHA (comparator ablation).
    pub comparators_per_cha: Option<u32>,
    /// Dedicated accelerator-TLB entries (TLB-size ablation).
    pub accel_tlb_entries: Option<u32>,
}

impl ConfigOverrides {
    /// No overrides.
    pub fn none() -> Self {
        Self::default()
    }

    /// Applies the overrides to a machine configuration.
    pub fn apply(&self, config: &mut MachineConfig) {
        if let Some(lat) = self.device_data_latency {
            config.qei.device_data_latency = Some(lat);
        }
        if let Some(n) = self.qst_entries {
            config.qei.qst_entries = n;
        }
        if let Some(n) = self.comparators_per_cha {
            config.qei.comparators_per_cha = n;
        }
        if let Some(n) = self.accel_tlb_entries {
            config.qei.accel_tlb_entries = n;
        }
    }
}

/// One self-contained measurement: workload, execution mode, scheme, and
/// configuration overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPlan {
    /// The workload to build and measure.
    pub workload: WorkloadSpec,
    /// How the ROI executes.
    pub mode: RunMode,
    /// Integration scheme for QEI modes; `None` for the software baseline.
    pub scheme: Option<Scheme>,
    /// Machine-configuration overrides for this plan only.
    pub overrides: ConfigOverrides,
}

impl RunPlan {
    /// A software-baseline plan.
    pub fn baseline(workload: WorkloadSpec) -> Self {
        RunPlan {
            workload,
            mode: RunMode::Baseline,
            scheme: None,
            overrides: ConfigOverrides::none(),
        }
    }

    /// A served (open-loop load) plan; `scheme` `None` serves through the
    /// calibrated software baseline.
    pub fn served(workload: WorkloadSpec, scheme: Option<Scheme>, load: LoadSpec) -> Self {
        RunPlan {
            workload,
            mode: RunMode::Served { load },
            scheme,
            overrides: ConfigOverrides::none(),
        }
    }

    /// A blocking-QEI plan under `scheme`.
    pub fn qei(workload: WorkloadSpec, scheme: Scheme) -> Self {
        RunPlan {
            workload,
            mode: RunMode::QeiBlocking,
            scheme: Some(scheme),
            overrides: ConfigOverrides::none(),
        }
    }

    /// A non-blocking plan polling every `batch` jobs.
    pub fn qei_nonblocking(workload: WorkloadSpec, scheme: Scheme, batch: usize) -> Self {
        RunPlan {
            workload,
            mode: RunMode::QeiNonblocking { batch },
            scheme: Some(scheme),
            overrides: ConfigOverrides::none(),
        }
    }

    /// A local-compare ablation plan (near-data comparison disabled).
    pub fn local_compare(workload: WorkloadSpec, scheme: Scheme) -> Self {
        RunPlan {
            workload,
            mode: RunMode::LocalCompareAblation,
            scheme: Some(scheme),
            overrides: ConfigOverrides::none(),
        }
    }

    /// Replaces the plan's overrides (builder style).
    pub fn with_overrides(mut self, overrides: ConfigOverrides) -> Self {
        self.overrides = overrides;
        self
    }

    /// Overrides the device-interface latency (builder style).
    pub fn with_device_latency(mut self, cycles: u64) -> Self {
        self.overrides.device_data_latency = Some(cycles);
        self
    }

    /// Overrides the QST depth (builder style).
    pub fn with_qst_entries(mut self, entries: u32) -> Self {
        self.overrides.qst_entries = Some(entries);
        self
    }

    /// Overrides the per-CHA comparator count (builder style).
    pub fn with_comparators_per_cha(mut self, n: u32) -> Self {
        self.overrides.comparators_per_cha = Some(n);
        self
    }

    /// Overrides the accelerator-TLB size (builder style).
    pub fn with_accel_tlb_entries(mut self, entries: u32) -> Self {
        self.overrides.accel_tlb_entries = Some(entries);
        self
    }

    /// A short deterministic tag naming this plan's seeds and overrides —
    /// used to label the plan's [`qei_trace::RunTrace`] so sweep plans that
    /// share a workload stay distinguishable in a Chrome export.
    pub fn tag(&self) -> String {
        let mut tag = format!("g{}b{}", self.workload.guest_seed, self.workload.build_seed);
        if let Some(v) = self.overrides.device_data_latency {
            tag.push_str(&format!("+dl{v}"));
        }
        if let Some(v) = self.overrides.qst_entries {
            tag.push_str(&format!("+qst{v}"));
        }
        if let Some(v) = self.overrides.comparators_per_cha {
            tag.push_str(&format!("+cmp{v}"));
        }
        if let Some(v) = self.overrides.accel_tlb_entries {
            tag.push_str(&format!("+tlb{v}"));
        }
        tag
    }
}

/// Executes [`RunPlan`]s against a base machine configuration.
#[derive(Debug, Clone)]
pub struct Engine {
    config: MachineConfig,
    /// Worker threads for [`Engine::run_all`]; 0 = one per available core.
    threads: usize,
}

impl Engine {
    /// An engine over `config`, parallelising `run_all` across all
    /// available cores (unless [`set_default_threads`] capped it).
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.validate().is_empty(), "invalid machine config");
        Engine {
            config,
            threads: DEFAULT_THREADS.load(Ordering::SeqCst),
        }
    }

    /// An engine over the paper's Table II machine.
    pub fn paper() -> Self {
        Self::new(MachineConfig::skylake_sp_24())
    }

    /// Caps `run_all` at `threads` workers (1 = serial). 0 restores the
    /// one-per-core default.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The base machine configuration (before per-plan overrides).
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs one plan: builds a one-shot [`SimSession`] from the plan's
    /// seeds, applies its overrides, and prices it.
    ///
    /// # Panics
    ///
    /// Panics if functional results disagree with the workload's ground
    /// truth — that is a simulator bug, not a measurement.
    pub fn run(&self, plan: &RunPlan) -> RunReport {
        SimSession::build(self.config.clone(), plan.workload).run_consuming(
            plan.mode,
            plan.scheme,
            plan.overrides,
            &plan.tag(),
        )
    }

    /// Runs independent plans in parallel (scoped threads, work-stealing by
    /// index) and returns reports in plan order.
    ///
    /// Plans that share a [`WorkloadSpec`] — the sweep/ablation pattern,
    /// where only the mode, scheme, or [`ConfigOverrides`] vary — share one
    /// immutable workload build: the guest image and query stream are built
    /// once per unique spec and the image is cloned (a flat memcpy) per
    /// plan, instead of re-deriving it from seeds every time. A cloned
    /// image is indistinguishable from a fresh build, so the reports stay
    /// byte-identical to running each plan serially through [`Engine::run`].
    pub fn run_all(&self, plans: &[RunPlan]) -> Vec<RunReport> {
        if plans.is_empty() {
            return Vec::new();
        }
        let workers = match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
        .min(plans.len());

        // Deduplicate specs in first-appearance order, then build one
        // prototype image per unique spec.
        let mut unique: Vec<WorkloadSpec> = Vec::new();
        for plan in plans {
            if !unique.contains(&plan.workload) {
                unique.push(plan.workload);
            }
        }
        let protos = Self::build_prototypes(&unique, workers);
        let run_plan = |plan: &RunPlan| -> RunReport {
            let started = Instant::now();
            let Some((_, guest, workload)) =
                protos.iter().find(|(spec, _, _)| *spec == plan.workload)
            else {
                unreachable!("a prototype was built for every plan's spec")
            };
            // Workers only read the prototype; a poisoned lock still holds a
            // usable image, so recover it rather than propagating the panic.
            let guest = guest
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone();
            let session = SimSession::from_prototype(
                self.config.clone(),
                guest,
                Arc::clone(workload),
                Some(plan.workload),
            )
            .with_build_time(started.elapsed());
            session.run_consuming(plan.mode, plan.scheme, plan.overrides, &plan.tag())
        };

        if workers <= 1 {
            return plans.iter().map(run_plan).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RunReport>>> = plans.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= plans.len() {
                        break;
                    }
                    let report = run_plan(&plans[i]);
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(report);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                let filled = slot
                    .into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                match filled {
                    Some(report) => report,
                    None => unreachable!("the work-stealing loop fills every slot"),
                }
            })
            .collect()
    }

    /// Builds the per-spec prototype images, in parallel when several specs
    /// and workers are available. The `Mutex` only serializes the per-plan
    /// image clone, not the runs themselves.
    #[allow(clippy::type_complexity)]
    fn build_prototypes(
        unique: &[WorkloadSpec],
        workers: usize,
    ) -> Vec<(WorkloadSpec, Mutex<GuestMem>, Arc<dyn Workload>)> {
        let builders = workers.min(unique.len());
        if builders <= 1 {
            return unique
                .iter()
                .map(|spec| {
                    let (guest, w) = spec.build_image();
                    (*spec, Mutex::new(guest), Arc::from(w))
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(GuestMem, Box<dyn Workload>)>>> =
            unique.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..builders {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= unique.len() {
                        break;
                    }
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) =
                        Some(unique[i].build_image());
                });
            }
        });
        unique
            .iter()
            .zip(slots)
            .map(|(spec, slot)| {
                let filled = slot
                    .into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let Some((guest, w)) = filled else {
                    unreachable!("the builder loop fills every slot")
                };
                (*spec, Mutex::new(guest), Arc::from(w))
            })
            .collect()
    }

    /// Prices an already-built workload living in `sys` — for callers that
    /// construct their own data structures instead of using a
    /// [`WorkloadSpec`]. `scheme` must be `Some` for QEI modes.
    ///
    /// Compatibility shim: new code should wrap the system in a
    /// [`SimSession`] ([`SimSession::adopt`]) and call
    /// [`SimSession::run_adhoc`], which reproduces this path byte-for-byte
    /// and adds snapshot/revert and interactive submission on top.
    ///
    /// # Panics
    ///
    /// Panics on a functional mismatch, or if a QEI mode is given no
    /// scheme.
    pub fn run_workload(
        sys: &mut System,
        workload: &dyn Workload,
        mode: RunMode,
        scheme: Option<Scheme>,
    ) -> RunReport {
        Self::execute(sys, workload, mode, scheme, Duration::ZERO, "adhoc")
    }

    pub(crate) fn execute(
        sys: &mut System,
        workload: &dyn Workload,
        mode: RunMode,
        scheme: Option<Scheme>,
        build: Duration,
        tag: &str,
    ) -> RunReport {
        match mode {
            RunMode::Baseline => Self::execute_baseline(sys, workload, build, tag),
            RunMode::QeiBlocking | RunMode::LocalCompareAblation => {
                let Some(scheme) = scheme else {
                    panic!("QEI modes require a scheme")
                };
                let trace = build_qei_trace_blocking(workload);
                Self::execute_qei(sys, workload, mode, scheme, trace, build, tag)
            }
            RunMode::QeiNonblocking { batch } => {
                let Some(scheme) = scheme else {
                    panic!("QEI modes require a scheme")
                };
                let trace = build_qei_trace_nonblocking(workload, batch);
                Self::execute_qei(sys, workload, mode, scheme, trace, build, tag)
            }
            RunMode::Served { load } => {
                Self::execute_served(sys, workload, load, scheme, build, tag)
            }
        }
    }

    /// Gathers one run's buffered events into the process-wide trace
    /// collector under a deterministic plan label, and prints a one-line
    /// `[trace]` summary when profiling. No-op while tracing is disabled.
    fn collect_trace(plan: String, sources: Vec<(Vec<qei_trace::Event>, u64)>) {
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

    /// Prints one per-run phase-timing line when profiling is enabled.
    fn emit_profile(
        report: &RunReport,
        build: Duration,
        warmup: Duration,
        measured: Duration,
        serialize: Duration,
    ) {
        if !profiling() {
            return;
        }
        let label = match report.scheme {
            Some(scheme) => format!("{}/{scheme}", report.mode),
            None => report.mode.to_string(),
        };
        eprintln!(
            "[profile] {:8} {:32} build {:>10.3?}  warm-up {:>10.3?}  measured {:>10.3?}  report {:>10.3?}",
            report.workload, label, build, warmup, measured, serialize
        );
    }

    fn execute_baseline(
        sys: &mut System,
        workload: &dyn Workload,
        build: Duration,
        tag: &str,
    ) -> RunReport {
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
        let measured = phase.elapsed();

        let phase = Instant::now();
        Self::collect_trace(
            format!("{}/baseline/sw/{tag}", workload.name()),
            vec![core.drain_trace(), bus.mem.drain_trace()],
        );
        let report = RunReport::from_software(workload, run, bus.mem.stats());
        Self::emit_profile(&report, build, warmup, measured, phase.elapsed());
        report
    }

    fn execute_qei(
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
        let phase = Instant::now();
        Self::collect_trace(
            format!("{}/{mode}/{scheme}/{tag}", workload.name()),
            vec![core.drain_trace(), bus.drain_trace()],
        );
        let occupancy = bus.accel().qst_occupancy(Cycles(run.cycles.max(1)));
        let report = RunReport::from_qei(
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
        );
        Self::emit_profile(&report, build, warmup, measured, phase.elapsed());
        report
    }

    /// Serves the workload's queries under the open-loop load pattern.
    /// Scheme `None` routes through the calibrated software baseline,
    /// `Some` through the accelerator.
    fn execute_served(
        sys: &mut System,
        workload: &dyn Workload,
        load: LoadSpec,
        scheme: Option<Scheme>,
        build: Duration,
        tag: &str,
    ) -> RunReport {
        assert!(
            !workload.jobs().is_empty(),
            "served runs need a nonempty job list"
        );
        match scheme {
            Some(scheme) => Self::execute_served_qei(sys, workload, load, scheme, build, tag),
            None => Self::execute_served_software(sys, workload, load, build, tag),
        }
    }

    /// Static service-cycle bound for the served structure, from the
    /// shipped cost contracts: the first job's header identifies the
    /// `(dtype, subtype)` pair (a served workload queries one structure
    /// type). 0 when the header is unreadable or no contract covers it.
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
    /// (warm-up + measured, exactly like [`Engine::execute_baseline`]) to
    /// calibrate an integer per-query service time, then serves the load
    /// through a single-server queue at that rate.
    fn execute_served_software(
        sys: &mut System,
        workload: &dyn Workload,
        load: LoadSpec,
        build: Duration,
        tag: &str,
    ) -> RunReport {
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
        let _ = core.run(&trace, &mut bus);
        let _ = core.drain_trace();
        let _ = bus.mem.drain_trace();
        let warmup = phase.elapsed();
        let phase = Instant::now();
        bus.mem.reset_epoch();
        let run = core.run(&trace, &mut bus);
        // Calibration events belong to the pricing pass, not the served run.
        let _ = core.drain_trace();
        let _ = bus.mem.drain_trace();
        let service = (run.cycles / workload.jobs().len() as u64).max(1);

        // One calibrated single-server queue per core lane, each serving
        // the arrivals of its own tenant shard (a software "chip" has no
        // shared accelerator state to contend on, so lanes are fully
        // independent).
        let n_jobs = workload.jobs().len() as u32;
        let contract_bound = Self::served_contract_bound(workload, sys.guest());
        let mut serve: Option<ServeStats> = None;
        let mut lane_serves = Vec::new();
        let mut trace_sources = Vec::new();
        for lane in 0..load.cores {
            let mut backend = CalibratedBackend {
                service,
                contract_bound,
                free_at: 0,
                expected: workload.expected(),
            };
            let mut events = qei_trace::EventBuf::new();
            let arrivals = lane_arrivals(&load, n_jobs, lane);
            let mut lane_serve = run_load_lane(&load, &arrivals, &mut backend, &mut events);
            lane_serve.contract_bound = backend.contract_bound;
            lane_serve.service_estimate = backend.service;
            let (mut evs, dropped) = events.drain();
            if lane > 0 {
                for ev in &mut evs {
                    ev.track = qei_trace::core_track(lane, ev.track);
                }
            }
            trace_sources.push((evs, dropped));
            match serve.as_mut() {
                Some(agg) => agg.merge_lane(&lane_serve),
                None => serve = Some(lane_serve.clone()),
            }
            lane_serves.push(lane_serve);
        }
        let Some(serve) = serve else {
            unreachable!("a validated load has at least one core lane")
        };
        let measured = phase.elapsed();

        let phase = Instant::now();
        let mode = RunMode::Served { load };
        Self::collect_trace(
            format!("{}/{mode}/sw/{tag}", workload.name()),
            trace_sources,
        );
        let per_core = if load.cores > 1 {
            lane_serves
                .into_iter()
                .map(|serve| CoreLaneData {
                    serve,
                    contention_cycles: 0,
                })
                .collect()
        } else {
            Vec::new()
        };
        let report = RunReport::from_served(
            workload,
            mode,
            None,
            ServedRunData {
                serve,
                mem: bus.mem.stats(),
                accel: None,
                noc: None,
                qst_occupancy: 0.0,
                cores: load.cores,
                per_core,
            },
        );
        Self::emit_profile(&report, build, warmup, measured, phase.elapsed());
        report
    }

    /// Served run over the accelerator: every served-QEI plan now executes
    /// on the multi-core [`chip`] — `load.cores` per-core lanes with shared
    /// LLC/NoC contention, merged in core-id order. A single-lane chip is
    /// byte-identical to the pre-chip single-`System` path (pinned by
    /// [`tests::single_core_chip_matches_the_legacy_single_system_path`]).
    fn execute_served_qei(
        sys: &mut System,
        workload: &dyn Workload,
        load: LoadSpec,
        scheme: Scheme,
        build: Duration,
        tag: &str,
    ) -> RunReport {
        Self::execute_served_qei_with(sys, workload, load, scheme, build, tag, lane_threads())
    }

    /// [`Engine::execute_served_qei`] with an explicit lane-thread budget —
    /// the determinism tests drive this directly to compare serial and
    /// threaded lane schedules without touching the process-wide knob.
    #[allow(clippy::too_many_arguments)]
    fn execute_served_qei_with(
        sys: &mut System,
        workload: &dyn Workload,
        load: LoadSpec,
        scheme: Scheme,
        build: Duration,
        tag: &str,
        threads: usize,
    ) -> RunReport {
        let mut outcome =
            chip::run_served_qei(sys.config(), sys.guest(), workload, &load, scheme, threads);
        outcome.serve.contract_bound = Self::served_contract_bound(workload, sys.guest());
        outcome.serve.service_estimate = Self::accel_service_estimate(&outcome.accel);
        let phase = Instant::now();
        let mode = RunMode::Served { load };
        Self::collect_trace(
            format!("{}/{mode}/{scheme}/{tag}", workload.name()),
            outcome.trace_sources,
        );
        let occupancy = outcome.occupancies.iter().sum::<f64>() / outcome.occupancies.len() as f64;
        let per_core = if load.cores > 1 {
            outcome
                .lanes
                .iter()
                .map(|l| CoreLaneData {
                    serve: l.serve.clone(),
                    contention_cycles: l.contention_cycles,
                })
                .collect()
        } else {
            Vec::new()
        };
        let report = RunReport::from_served(
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
                per_core,
            },
        );
        Self::emit_profile(
            &report,
            build,
            outcome.warmup,
            outcome.measured,
            phase.elapsed(),
        );
        Self::emit_lane_profile(&outcome.lanes, outcome.merge);
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

    /// Prints the per-lane phase breakdown under `--profile`: each lane's
    /// measured-pass wall time, simulated horizon, emitted trace events,
    /// and charged contention cycles, plus the deterministic merge time.
    fn emit_lane_profile(lanes: &[chip::LaneReport], merge: Duration) {
        if !profiling() {
            return;
        }
        for (i, lane) in lanes.iter().enumerate() {
            eprintln!(
                "[profile]   lane{i}: step {:>10.3?}  horizon {:>12} cyc  events {:>8}  contention {:>8} cyc  completed {:>6}",
                lane.step,
                lane.serve.horizon,
                lane.events,
                lane.contention_cycles,
                lane.serve.completed(),
            );
        }
        eprintln!("[profile]   lane merge {:>10.3?}", merge);
    }

    /// The pre-chip served-QEI path: one `System`, one accelerator, no
    /// lane sharding. Kept (test-only) to pin that a single-lane chip
    /// reproduces it byte-for-byte.
    #[cfg_attr(not(test), allow(dead_code))]
    fn execute_served_qei_legacy(
        sys: &mut System,
        workload: &dyn Workload,
        load: LoadSpec,
        scheme: Scheme,
        build: Duration,
        tag: &str,
    ) -> RunReport {
        let phase = Instant::now();
        let n_jobs = workload.jobs().len();
        let result_buf = sys
            .guest_mut()
            .alloc((n_jobs * 8) as u64, 64)
            .unwrap_or_else(|e| panic!("guest alloc for NB results failed: {e}"));
        let config = sys.config().clone();
        let jobs = workload.jobs().to_vec();
        let expected = workload.expected().to_vec();
        let mut backend = QeiServeBackend {
            accel: QeiAccelerator::new(&config, scheme, sys.core_id()),
            mem: MemoryHierarchy::new(&config),
            guest: sys.guest_mut(),
            jobs,
            expected,
            result_buf,
            blocking: load.blocking,
            workload: workload.name(),
            windows: crate::mutate::EpochWindows::default(),
        };

        let mut scratch = qei_trace::EventBuf::new();
        let _ = run_load(&load, n_jobs as u32, &mut backend, &mut scratch);
        crate::session::discard_warmup(&mut backend.accel, &mut backend.mem);
        let warmup = phase.elapsed();
        let phase = Instant::now();
        crate::session::begin_measured_epoch(&mut backend.accel, &mut backend.mem);
        let mut events = qei_trace::EventBuf::new();
        let mut serve = run_load(&load, n_jobs as u32, &mut backend, &mut events);
        let measured = phase.elapsed();
        serve.contract_bound = Self::served_contract_bound(workload, backend.guest);
        serve.service_estimate = Self::accel_service_estimate(&backend.accel.stats());

        let phase = Instant::now();
        let mode = RunMode::Served { load };
        Self::collect_trace(
            format!("{}/{mode}/{scheme}/{tag}", workload.name()),
            vec![
                events.drain(),
                backend.accel.drain_trace(),
                backend.mem.drain_trace(),
            ],
        );
        let occupancy = backend.accel.qst_occupancy(Cycles(serve.horizon.max(1)));
        let report = RunReport::from_served(
            workload,
            mode,
            Some(scheme),
            ServedRunData {
                serve,
                mem: backend.mem.stats(),
                accel: Some(backend.accel.stats()),
                noc: Some(*backend.mem.noc().stats()),
                qst_occupancy: occupancy,
                cores: 1,
                per_core: Vec::new(),
            },
        );
        Self::emit_profile(&report, build, warmup, measured, phase.elapsed());
        report
    }
}

/// The served software backend: a single-server queue at the calibrated
/// baseline rate, answering from the workload's ground truth.
struct CalibratedBackend<'a> {
    /// Calibrated integer service cycles per query.
    service: u64,
    /// Static worst-case service cycles from the served structure's cost
    /// contract (0 when uncovered) — the admission-facing a-priori estimate
    /// the serve layer reports alongside the calibrated observation.
    contract_bound: u64,
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

/// The pre-chip served accelerator backend: each admitted query goes
/// through [`QeiAccelerator::submit`] at its admission cycle — `QUERY_B`
/// when the load pattern is blocking, `QUERY_NB` with a result-buffer
/// store otherwise. Production served runs now use the chip's per-lane
/// backend (`chip::Lane`, same submit logic); this one survives for the
/// single-lane equivalence test.
#[cfg_attr(not(test), allow(dead_code))]
struct QeiServeBackend<'a> {
    accel: QeiAccelerator,
    mem: MemoryHierarchy,
    guest: &'a mut GuestMem,
    jobs: Vec<qei_workloads::QueryJob>,
    expected: Vec<u64>,
    result_buf: VirtAddr,
    blocking: bool,
    workload: &'static str,
    windows: crate::mutate::EpochWindows,
}

impl QueryBackend for QeiServeBackend<'_> {
    fn execute(&mut self, start: Cycles, job: u32) -> (Cycles, Result<u64, FaultCode>) {
        let j = self.jobs[job as usize];
        let exp = self.expected[job as usize];
        self.windows.close_expired(self.guest, start.as_u64());
        if self.blocking {
            let out = self.accel.submit(
                QueryRequest::blocking(j.header_addr, j.key_addr),
                SubmitCtx::new(start, self.guest, &mut self.mem),
            );
            let QueryOutcome::Completed { completion, result } = out else {
                unreachable!("blocking submit returned {out:?}")
            };
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
            let out = self.accel.submit(
                QueryRequest::nonblocking(j.header_addr, j.key_addr, slot),
                SubmitCtx::new(start, self.guest, &mut self.mem),
            );
            let QueryOutcome::Accepted { done, .. } = out else {
                unreachable!("non-blocking submit returned {out:?}")
            };
            let wire = self.guest.read_u64(slot).unwrap_or(u64::MAX);
            if let Some(code) = FaultCode::decode(wire) {
                return (done, Err(code));
            }
            assert!(
                wire == exp || (exp == 0 && wire == 1),
                "served QEI functional mismatch in {}: wire {wire} vs expected {exp}",
                self.workload
            );
            (done, Ok(wire))
        }
    }

    fn execute_write(&mut self, start: Cycles, job: u32) -> (Cycles, Result<u64, FaultCode>) {
        let header = self.jobs[job as usize].header_addr;
        self.windows.close_for(self.guest, header);
        let (completion, result) = self.execute(start, job);
        self.windows.open(self.guest, header, completion.as_u64());
        (completion, result)
    }

    fn finish(&mut self) {
        self.windows.close_all(self.guest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jvm_spec() -> WorkloadSpec {
        WorkloadSpec::new(
            7,
            2,
            WorkloadKind::JvmGc {
                objects: 5_000,
                queries: 120,
            },
        )
    }

    #[test]
    fn plan_builders_set_mode_and_scheme() {
        let spec = jvm_spec();
        assert_eq!(RunPlan::baseline(spec).mode, RunMode::Baseline);
        assert_eq!(RunPlan::baseline(spec).scheme, None);
        let q = RunPlan::qei(spec, Scheme::ChaTlb);
        assert_eq!(q.mode, RunMode::QeiBlocking);
        assert_eq!(q.scheme, Some(Scheme::ChaTlb));
        let nb = RunPlan::qei_nonblocking(spec, Scheme::DeviceDirect, 16);
        assert_eq!(nb.mode, RunMode::QeiNonblocking { batch: 16 });
        let lc = RunPlan::local_compare(spec, Scheme::CoreIntegrated);
        assert_eq!(lc.mode, RunMode::LocalCompareAblation);
    }

    fn small_load() -> LoadSpec {
        LoadSpec {
            tenants: 2,
            mean_interarrival: 2_000,
            arrivals_per_tenant: 24,
            queue_depth: 8,
            ..LoadSpec::default()
        }
    }

    #[test]
    fn served_software_run_reports_serve_stats() {
        let engine = Engine::paper();
        let r = engine.run(&RunPlan::served(jvm_spec(), None, small_load()));
        assert_eq!(r.mode.label(), "served");
        assert_eq!(r.scheme, None);
        assert_eq!(r.stats.count("serve", "offered"), 48);
        assert!(r.stats.count("serve", "completed") > 0);
        assert!(r.stats.count("serve", "latency_p99") > 0);
        assert!(r.stats.get("run", "load").is_some());
        assert_eq!(r.cycles, r.stats.count("serve", "horizon_cycles"));
    }

    #[test]
    fn served_qei_sustains_more_throughput_under_saturation() {
        // At a saturating arrival rate the single-server software baseline
        // serializes while the accelerator overlaps queries across QST
        // slots — the throughput knee the load sweep renders.
        let engine = Engine::paper();
        let spec = jvm_spec();
        // Queue depth must exceed the software server's one-at-a-time
        // capacity for the accelerator's QST concurrency to show.
        let load = LoadSpec {
            mean_interarrival: 100,
            queue_depth: 32,
            ..small_load()
        };
        let sw = engine.run(&RunPlan::served(spec, None, load));
        let qei = engine.run(&RunPlan::served(spec, Some(Scheme::CoreIntegrated), load));
        let again = engine.run(&RunPlan::served(spec, Some(Scheme::CoreIntegrated), load));
        assert_eq!(qei.to_json(), again.to_json());
        assert!(qei.accel.is_some());
        assert_eq!(
            qei.stats.count("serve", "offered"),
            sw.stats.count("serve", "offered")
        );
        assert!(
            qei.stats.count("serve", "throughput_qpmc")
                > sw.stats.count("serve", "throughput_qpmc"),
            "qei {} qpmc vs software {} qpmc",
            qei.stats.count("serve", "throughput_qpmc"),
            sw.stats.count("serve", "throughput_qpmc")
        );
    }

    #[test]
    fn served_nonblocking_run_verifies_and_reports() {
        let engine = Engine::paper();
        let load = LoadSpec {
            blocking: false,
            ..small_load()
        };
        let r = engine.run(&RunPlan::served(jvm_spec(), Some(Scheme::ChaTlb), load));
        assert!(r.stats.count("serve", "completed") > 0);
        // Client-observed latencies are quantized to SNAPSHOT_READ polls.
        assert!(r.stats.count("serve", "latency_p50") > 0);
    }

    #[test]
    fn overrides_apply_only_what_they_set() {
        let mut config = MachineConfig::skylake_sp_24();
        let before = config.clone();
        ConfigOverrides::none().apply(&mut config);
        assert_eq!(config, before);
        ConfigOverrides {
            qst_entries: Some(40),
            device_data_latency: Some(500),
            ..ConfigOverrides::none()
        }
        .apply(&mut config);
        assert_eq!(config.qei.qst_entries, 40);
        assert_eq!(config.qei.device_data_latency, Some(500));
        assert_eq!(config.qei.accel_tlb_entries, before.qei.accel_tlb_entries);
    }

    #[test]
    fn engine_runs_a_baseline_plan() {
        let engine = Engine::paper();
        let r = engine.run(&RunPlan::baseline(jvm_spec()));
        assert_eq!(r.workload, "JVM");
        assert_eq!(r.mode, RunMode::Baseline);
        assert!(r.cycles > 0 && r.correct);
        assert!(r.stats.get("core", "cycles").is_some());
    }

    #[test]
    fn run_all_returns_reports_in_plan_order() {
        let engine = Engine::paper().with_threads(2);
        let spec = jvm_spec();
        let plans = [
            RunPlan::baseline(spec),
            RunPlan::qei(spec, Scheme::ChaTlb),
            RunPlan::qei(spec, Scheme::CoreIntegrated),
        ];
        let reports = engine.run_all(&plans);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].mode, RunMode::Baseline);
        assert_eq!(reports[1].scheme, Some(Scheme::ChaTlb));
        assert_eq!(reports[2].scheme, Some(Scheme::CoreIntegrated));
        // The accelerated runs beat software on this dense-query workload.
        assert!(reports[1].cycles < reports[0].cycles);
    }

    #[test]
    fn empty_plan_list_is_fine() {
        assert!(Engine::paper().run_all(&[]).is_empty());
    }

    #[test]
    fn shared_build_sweep_matches_independent_runs() {
        // run_all builds each distinct WorkloadSpec once and clones the
        // prototype image per plan; the sweep must stay byte-identical to
        // fresh per-plan builds even when overrides diverge the configs.
        let engine = Engine::paper();
        let spec = jvm_spec();
        let plans = [
            RunPlan::baseline(spec),
            RunPlan::qei(spec, Scheme::CoreIntegrated),
            RunPlan::qei(spec, Scheme::CoreIntegrated).with_qst_entries(8),
            RunPlan::qei(spec, Scheme::ChaTlb).with_device_latency(900),
        ];
        let shared: Vec<String> = engine
            .run_all(&plans)
            .iter()
            .map(RunReport::to_json)
            .collect();
        let independent: Vec<String> = plans.iter().map(|p| engine.run(p).to_json()).collect();
        assert_eq!(shared, independent);
    }

    /// A short but non-trivial served load for the chip tests.
    fn chip_load(cores: u32) -> LoadSpec {
        LoadSpec {
            tenants: 4 * cores.max(1),
            mean_interarrival: 400,
            arrivals_per_tenant: 16,
            queue_depth: 16,
            cores,
            ..LoadSpec::default()
        }
    }

    #[test]
    fn single_core_chip_matches_the_legacy_single_system_path() {
        // The pre-refactor single-System served path and a one-lane chip
        // must produce byte-identical reports, for both submit flavors.
        let spec = jvm_spec();
        let config = MachineConfig::skylake_sp_24();
        for blocking in [true, false] {
            let load = chip_load(1).with_blocking(blocking);
            let (mut sys, workload) = spec.build(&config);
            let legacy = Engine::execute_served_qei_legacy(
                &mut sys,
                workload.as_ref(),
                load,
                Scheme::CoreIntegrated,
                Duration::ZERO,
                "eq",
            );
            let (mut sys, workload) = spec.build(&config);
            let chip = Engine::execute_served_qei(
                &mut sys,
                workload.as_ref(),
                load,
                Scheme::CoreIntegrated,
                Duration::ZERO,
                "eq",
            );
            assert_eq!(
                legacy.to_json(),
                chip.to_json(),
                "blocking={blocking}: one-lane chip diverged from the legacy path"
            );
        }
    }

    #[test]
    fn multi_core_chip_is_schedule_independent() {
        // Serial lane stepping, threaded lane stepping, and a threaded
        // repeat must all produce byte-identical reports.
        let spec = jvm_spec();
        let config = MachineConfig::skylake_sp_24();
        for cores in [2u32, 4] {
            let load = chip_load(cores);
            let mut runs = Vec::new();
            for threads in [1usize, 4, 4] {
                let (mut sys, workload) = spec.build(&config);
                runs.push(
                    Engine::execute_served_qei_with(
                        &mut sys,
                        workload.as_ref(),
                        load,
                        Scheme::CoreIntegrated,
                        Duration::ZERO,
                        "det",
                        threads,
                    )
                    .to_json(),
                );
            }
            assert_eq!(runs[0], runs[1], "cores={cores}: serial vs threaded lanes");
            assert_eq!(runs[1], runs[2], "cores={cores}: threaded repeat");
        }
    }

    #[test]
    fn multi_core_report_has_per_lane_subtrees_and_consistent_sums() {
        let spec = jvm_spec();
        let config = MachineConfig::skylake_sp_24();
        let load = chip_load(4);
        let (mut sys, workload) = spec.build(&config);
        let report = Engine::execute_served_qei(
            &mut sys,
            workload.as_ref(),
            load,
            Scheme::CoreIntegrated,
            Duration::ZERO,
            "lanes",
        );
        assert_eq!(report.stats.count("run", "cores"), 4);
        let offered: u64 = (0..4)
            .map(|i| report.stats.count(&format!("serve_c{i}"), "offered"))
            .sum();
        assert_eq!(offered, report.stats.count("serve", "offered"));
        let completed: u64 = (0..4)
            .map(|i| report.stats.count(&format!("serve_c{i}"), "completed"))
            .sum();
        assert_eq!(completed, report.stats.count("serve", "completed"));
        // Every lane served part of the shard (the hash leaves no lane
        // idle at 4 tenants per lane).
        for i in 0..4 {
            assert!(
                report.stats.count(&format!("serve_c{i}"), "offered") > 0,
                "lane {i} served nothing"
            );
        }
        // The aggregate contention counter exists (it may be zero at this
        // light rate; the load sweep exercises the contended regime).
        assert!(report.stats.get("serve", "contention_cycles").is_some());
        // Single-core reports carry none of the multi-core keys.
        let load1 = chip_load(1);
        let (mut sys, workload) = spec.build(&config);
        let single = Engine::execute_served_qei(
            &mut sys,
            workload.as_ref(),
            load1,
            Scheme::CoreIntegrated,
            Duration::ZERO,
            "lanes",
        );
        assert!(single.stats.get("run", "cores").is_none());
        assert!(single.stats.get("serve_c0", "offered").is_none());
        assert!(single.stats.get("serve", "contention_cycles").is_none());
    }

    #[test]
    fn served_software_shards_across_lanes_too() {
        let spec = jvm_spec();
        let config = MachineConfig::skylake_sp_24();
        let load = chip_load(2);
        let (mut sys, workload) = spec.build(&config);
        let report = Engine::execute_served_software(
            &mut sys,
            workload.as_ref(),
            load,
            Duration::ZERO,
            "sw",
        );
        assert_eq!(report.stats.count("run", "cores"), 2);
        let offered: u64 = (0..2)
            .map(|i| report.stats.count(&format!("serve_c{i}"), "offered"))
            .sum();
        assert_eq!(offered, report.stats.count("serve", "offered"));
        // Two calibrated servers sustain more than one at a saturating
        // rate: per-lane queues drain disjoint shards.
        assert!(report.stats.count("serve", "completed") > 0);
    }

    #[test]
    fn device_latency_override_slows_device_scheme() {
        let engine = Engine::paper();
        let spec = WorkloadSpec::new(
            5,
            5,
            WorkloadKind::DpdkFib {
                flows: 1_000,
                queries: 100,
            },
        );
        let fast = engine
            .run(&RunPlan::qei(spec, Scheme::DeviceIndirect).with_device_latency(50))
            .cycles;
        let slow = engine
            .run(&RunPlan::qei(spec, Scheme::DeviceIndirect).with_device_latency(2000))
            .cycles;
        assert!(slow > fast, "{slow} vs {fast}");
    }
}
