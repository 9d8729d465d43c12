//! The run pipeline: declarative [`RunPlan`]s scheduled by an [`Engine`].
//!
//! A plan says *what* to measure — which workload to build (from seeds, so
//! the run is reproducible and self-contained), how to execute its ROI
//! ([`RunMode`]), under which integration [`Scheme`], and with which
//! machine-configuration overrides ([`ConfigOverrides`]). The engine owns
//! the base [`MachineConfig`] and a worker budget, and schedules plans onto
//! [`SimSession`]s, which execute them into [`RunReport`]s:
//!
//! * [`Engine::run`] — one plan;
//! * [`Engine::run_all`] — a list of independent plans, executed in
//!   parallel with `std::thread::scope`, results in plan order.
//!
//! Every plan's session starts from an image that depends only on the
//! plan's seeds, so plans share no mutable state: running them serially or
//! in parallel, in any order, produces byte-identical reports.

use crate::report::RunReport;
use crate::session::SimSession;
use crate::{scoped_map, System};
use qei_config::{LoadSpec, MachineConfig, Scheme};
use qei_mem::GuestMem;
use qei_workloads::dpdk::{DpdkFib, TupleSpace};
use qei_workloads::flann::FlannLsh;
use qei_workloads::jvm::JvmGc;
use qei_workloads::rocksdb::RocksDbMem;
use qei_workloads::snort::SnortAc;
use qei_workloads::Workload;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Process-wide default worker budget for new engines and for sessions'
/// own runs. 0 = one worker per available core.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Whether runs print per-phase wall-time lines to stderr.
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Sets the default worker budget (0 = one per available core, 1 =
/// serial) of every subsequently-created [`Engine`], and of the served
/// chips that [`SimSession`]'s own run methods step. Individual engines can
/// still override with [`Engine::with_threads`]. The `repro` binary's
/// `--jobs`/`--serial` flags call this.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::SeqCst);
}

pub(crate) fn default_threads() -> usize {
    DEFAULT_THREADS.load(Ordering::SeqCst)
}

/// Enables per-phase wall-time profiling: every run prints one stderr line
/// with its workload-build, warm-up, measured-pass, and report-serialization
/// times. The `repro` binary's `--profile` flag calls this; reports
/// themselves are unaffected.
pub fn set_profiling(enabled: bool) {
    PROFILING.store(enabled, Ordering::SeqCst);
}

pub(crate) fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
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

/// Schedules [`RunPlan`]s onto [`SimSession`]s against a base machine
/// configuration.
#[derive(Debug, Clone)]
pub struct Engine {
    config: MachineConfig,
    /// Worker budget for plans and for each served chip's lanes; 0 = one
    /// per available core.
    threads: usize,
}

impl Engine {
    /// An engine over `config`, with the process-wide worker budget (one
    /// worker per available core unless [`set_default_threads`] capped it).
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.validate().is_empty(), "invalid machine config");
        Engine {
            config,
            threads: default_threads(),
        }
    }

    /// An engine over the paper's Table II machine.
    pub fn paper() -> Self {
        Self::new(MachineConfig::skylake_sp_24())
    }

    /// Caps this engine at `threads` workers (1 = serial, 0 = one per
    /// available core): for the plans of [`Engine::run_all`], and for the
    /// lanes each served chip steps, so `with_threads(1)` runs everything
    /// on the calling thread.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The base machine configuration (before per-plan overrides).
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs one plan: builds a one-shot [`SimSession`] from the plan's
    /// seeds and forks the plan's run from it.
    ///
    /// # Panics
    ///
    /// Panics if functional results disagree with the workload's ground
    /// truth — that is a simulator bug, not a measurement.
    pub fn run(&self, plan: &RunPlan) -> RunReport {
        self.price(&SimSession::build(self.config.clone(), plan.workload), plan)
    }

    /// Runs independent plans in parallel (scoped threads, work-stealing by
    /// index) and returns reports in plan order.
    ///
    /// Plans that share a [`WorkloadSpec`] — the sweep/ablation pattern,
    /// where only the mode, scheme, or [`ConfigOverrides`] vary — share one
    /// immutable workload build: the guest image and query stream are built
    /// once per unique spec (in parallel) and the image is cloned (a
    /// copy-on-write frame table) per plan, instead of re-deriving it from
    /// seeds every time. A cloned image is indistinguishable from a fresh
    /// build, so the reports stay byte-identical to running each plan
    /// serially through [`Engine::run`].
    pub fn run_all(&self, plans: &[RunPlan]) -> Vec<RunReport> {
        let mut unique: Vec<WorkloadSpec> = Vec::new();
        for plan in plans {
            if !unique.contains(&plan.workload) {
                unique.push(plan.workload);
            }
        }
        // The Mutex only serializes the per-plan image clone, not the runs.
        let protos: Vec<(Mutex<GuestMem>, Arc<dyn Workload>)> =
            scoped_map(&unique, self.threads, |spec| {
                let (guest, workload) = spec.build_image();
                (Mutex::new(guest), Arc::from(workload))
            });
        scoped_map(plans, self.threads, |plan| {
            let started = Instant::now();
            let Some(i) = unique.iter().position(|spec| *spec == plan.workload) else {
                unreachable!("a prototype was built for every plan's spec")
            };
            let (guest, workload) = &protos[i];
            let guest = guest.lock().unwrap_or_else(PoisonError::into_inner).clone();
            let session = SimSession::from_prototype(
                self.config.clone(),
                guest,
                Arc::clone(workload),
                Some(plan.workload),
            )
            .with_build_time(started.elapsed());
            self.price(&session, plan)
        })
    }

    /// Forks `plan`'s run from `session` within this engine's worker budget.
    fn price(&self, session: &SimSession, plan: &RunPlan) -> RunReport {
        session.fork_run(
            plan.mode,
            plan.scheme,
            plan.overrides,
            &plan.tag(),
            self.threads,
        )
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

    /// A Core-integrated served plan on a chip of `cores` lanes.
    fn chip_plan(cores: u32) -> RunPlan {
        RunPlan::served(jvm_spec(), Some(Scheme::CoreIntegrated), chip_load(cores))
    }

    #[test]
    fn multi_core_chip_is_schedule_independent() {
        // Serial lane stepping, threaded lane stepping, and a threaded
        // repeat must all produce byte-identical reports.
        for cores in [2u32, 4] {
            let run = |threads| Engine::paper().with_threads(threads).run(&chip_plan(cores));
            let runs = [1, 4, 4].map(|threads| run(threads).to_json());
            assert_eq!(runs[0], runs[1], "cores={cores}: serial vs threaded lanes");
            assert_eq!(runs[1], runs[2], "cores={cores}: threaded repeat");
        }
    }

    #[test]
    fn multi_core_report_has_per_lane_subtrees_and_consistent_sums() {
        let engine = Engine::paper();
        let report = engine.run(&chip_plan(4));
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
        let single = engine.run(&chip_plan(1));
        assert!(single.stats.get("run", "cores").is_none());
        assert!(single.stats.get("serve_c0", "offered").is_none());
        assert!(single.stats.get("serve", "contention_cycles").is_none());
    }

    #[test]
    fn served_software_shards_across_lanes_too() {
        let report = Engine::paper().run(&RunPlan::served(jvm_spec(), None, chip_load(2)));
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
