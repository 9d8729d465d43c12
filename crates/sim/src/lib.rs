//! Top-level co-simulation driver.
//!
//! A [`RunPlan`] names a workload (by seeds and sizing), an execution
//! [`RunMode`] (software baseline, blocking QEI, non-blocking QEI, the
//! local-compare ablation, or open-loop serving), an integration
//! [`Scheme`](qei_config::Scheme), and per-plan machine-configuration
//! [`ConfigOverrides`].
//!
//! The run path has three layers, each calling only the next:
//!
//! * [`Engine`] schedules plans onto sessions — one at a time
//!   ([`Engine::run`]) or an independent list on scoped worker threads
//!   ([`Engine::run_all`], results in plan order). Its thread budget
//!   ([`Engine::with_threads`]) also bounds the workers a served chip
//!   steps its lanes on.
//! * [`SimSession`] holds a built image: it forks it per run
//!   (byte-identical to a cold build), snapshots/reverts mutations, and
//!   submits single queries interactively — the surface the `qei-served`
//!   daemon serves over a socket. Callers with hand-built workloads wrap
//!   their own [`System`] with [`SimSession::adopt`].
//! * The executors (crate-private) price one run on a [`System`]: the
//!   guest memory a workload was built into plus the machine
//!   configuration. Every batch run performs a warm-up pass (same trace,
//!   same machine state) before the measured pass, modelling the steady
//!   state the paper measures, and verifies functional results against the
//!   workload's ground truth.

#![forbid(unsafe_code)]
pub mod bus;
pub(crate) mod chip;
pub mod engine;
pub(crate) mod exec;
pub(crate) mod mutate;
pub mod report;
pub mod session;

pub use bus::QeiBus;
pub use engine::{ConfigOverrides, Engine, RunMode, RunPlan, WorkloadKind, WorkloadSpec};
pub use report::{CoreLaneData, QeiRunData, RunReport, ServedRunData};
pub use session::{cores_divide_llc, SimSession, SimSnapshot};

use qei_config::MachineConfig;
use qei_cpu::Trace;
use qei_mem::GuestMem;
use qei_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Batch size for the non-blocking polling pattern (the paper polls every
/// 32 keys).
pub const NB_BATCH: usize = 32;

/// The simulated system owning a guest and its workload data.
#[derive(Debug, Clone)]
pub struct System {
    config: MachineConfig,
    guest: GuestMem,
    /// Core the single-threaded benchmarks run on.
    core_id: u32,
}

impl System {
    /// Creates a system with a deterministic guest layout.
    pub fn new(config: MachineConfig, seed: u64) -> Self {
        Self::from_parts(config, GuestMem::new(seed))
    }

    /// Assembles a system around an already-built guest image. The engine's
    /// shared workload builds construct one prototype image per
    /// [`WorkloadSpec`] and clone it per plan; a fresh build and a cloned
    /// image are indistinguishable, so reports stay byte-identical.
    pub fn from_parts(config: MachineConfig, guest: GuestMem) -> Self {
        assert!(config.validate().is_empty(), "invalid machine config");
        System {
            config,
            guest,
            core_id: 0,
        }
    }

    /// The guest memory, for building workloads into.
    pub fn guest_mut(&mut self) -> &mut GuestMem {
        &mut self.guest
    }

    /// Immutable guest access.
    pub fn guest(&self) -> &GuestMem {
        &self.guest
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Mutable access to the machine configuration — for callers tuning a
    /// hand-built system before [`SimSession::adopt`]. Plan sweeps use
    /// [`ConfigOverrides`] instead.
    pub fn config_mut(&mut self) -> &mut MachineConfig {
        &mut self.config
    }

    /// The core the benchmark issues from.
    pub fn core_id(&self) -> u32 {
        self.core_id
    }
}

/// Maps `f` over `items` on up to `threads` scoped workers (0 = one per
/// available core), each claiming the next unclaimed item, and returns the
/// results in item order. With one worker or one item, everything runs on
/// the calling thread.
pub(crate) fn scoped_map<I, R, F>(items: I, threads: usize, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let workers = match threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
    .min(items.len());
    if workers <= 1 {
        return items.map(f).collect();
    }
    #[cfg(test)]
    tests::SPAWNED.with(|n| n.set(n.get() + workers));
    // Each slot holds its item until a worker claims it, then its result.
    let slots: Vec<_> = items.map(|item| Mutex::new((Some(item), None))).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let item = slot.lock().unwrap_or_else(PoisonError::into_inner).0.take();
                    if let Some(item) = item {
                        let result = f(item);
                        slot.lock().unwrap_or_else(PoisonError::into_inner).1 = Some(result);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let (_, result) = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            result.unwrap_or_else(|| unreachable!("the workers fill every slot"))
        })
        .collect()
}

/// Builds the blocking-QEI trace: per query, the surrounding application
/// work plus register setup and one `QUERY_B`.
///
/// Software is responsible for tracking QST availability (paper §IV-A:
/// overflowing the accelerator blocks the machine), so the program issues
/// blocking queries in windows of the QST depth: query `i` consumes the
/// completion of query `i − QST_ENTRIES` before issuing. This applies to
/// every scheme — portable software cannot know how many accelerator
/// instances the NUCA hash will spread its queries over.
pub fn build_qei_trace_blocking(workload: &dyn Workload) -> Trace {
    let window = qei_config::MachineConfig::default().qei.qst_entries as usize;
    let mut trace = Trace::new();
    let mut prev_query = None;
    let mut ring: Vec<u32> = Vec::new();
    for (i, _) in workload.jobs().iter().enumerate() {
        workload.emit_qei_surrounding(&mut trace, i, prev_query);
        // Software slot tracking: consume the (i - window)'th completion.
        let tracking_dep = if i >= window {
            Some(ring[i % window])
        } else {
            None
        };
        // Stage header/key pointers into registers.
        let setup = trace.alu(1, tracking_dep, None);
        let q = trace.query_b(i as u32, Some(setup));
        prev_query = Some(q);
        if ring.len() < window {
            ring.push(q);
        } else {
            ring[i % window] = q;
        }
    }
    trace
}

/// Builds the non-blocking trace: batches of `QUERY_NB` followed by a
/// polling loop reading the result lines.
pub fn build_qei_trace_nonblocking(workload: &dyn Workload, batch_size: usize) -> Trace {
    let mut trace = Trace::new();
    let jobs = workload.jobs();
    let batch_size = batch_size.max(1);
    for (b, batch) in jobs.chunks(batch_size).enumerate() {
        for (j, _) in batch.iter().enumerate() {
            let i = b * batch_size + j;
            workload.emit_qei_surrounding(&mut trace, i, None);
            let setup = trace.alu1(None);
            trace.query_nb(i as u32, Some(setup));
        }
        // SNAPSHOT_READ polling: a wide load per 8 results plus the check
        // branch. Token u32::MAX signals the bus to return the drain time —
        // the poll that finally observes completion.
        let lines = batch.len().div_ceil(8);
        for _ in 0..lines.saturating_sub(1) {
            let probe = trace.alu1(None);
            trace.branch(0x300, true, Some(probe));
        }
        let wait = trace.push(qei_cpu::Uop::External {
            token: u32::MAX,
            blocking: true,
            dep: None,
        });
        trace.branch(0x300, false, Some(wait));
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use qei_config::{LoadSpec, Scheme};
    use qei_cpu::Uop;
    use std::cell::Cell;

    thread_local! {
        /// Workers [`scoped_map`] spawned from this thread.
        pub(super) static SPAWNED: Cell<usize> = const { Cell::new(0) };
    }

    fn dpdk(flows: u64, queries: usize, guest_seed: u64, build_seed: u64) -> WorkloadSpec {
        WorkloadSpec::new(
            guest_seed,
            build_seed,
            WorkloadKind::DpdkFib { flows, queries },
        )
    }

    /// Builds a workload instance for direct trace-builder inspection.
    fn build_workload(queries: usize) -> Box<dyn Workload> {
        let config = qei_config::MachineConfig::skylake_sp_24();
        let (_, w) = dpdk(256, queries, 5, 1).build(&config);
        w
    }

    /// Indices of the query uops (External) in issue order.
    fn query_indices(trace: &Trace, blocking: bool) -> Vec<u32> {
        trace
            .uops()
            .iter()
            .enumerate()
            .filter_map(|(i, u)| match u {
                Uop::External {
                    blocking: b, token, ..
                } if *b == blocking && *token != u32::MAX => Some(i as u32),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn blocking_trace_enforces_qst_window_ring() {
        let window = qei_config::MachineConfig::default().qei.qst_entries as usize;
        let queries = 3 * window + 2; // wraps the ring twice
        let w = build_workload(queries);
        let trace = build_qei_trace_blocking(w.as_ref());
        let qidx = query_indices(&trace, true);
        assert_eq!(qidx.len(), queries);
        for (i, &q) in qidx.iter().enumerate() {
            // Query -> setup ALU -> (query i - window), the software's QST
            // slot-tracking chain.
            let Uop::External {
                dep: Some(setup), ..
            } = trace.uops()[q as usize]
            else {
                panic!("query {i} lost its setup dependence");
            };
            let Uop::Alu { dep, .. } = trace.uops()[setup as usize] else {
                panic!("query {i} setup is not an ALU op");
            };
            let expected = if i >= window {
                Some(qidx[i - window])
            } else {
                None
            };
            assert_eq!(dep, expected, "query {i} window dependence");
        }
    }

    #[test]
    fn nonblocking_trace_batch_larger_than_jobs_is_one_batch() {
        let w = build_workload(12);
        let trace = build_qei_trace_nonblocking(w.as_ref(), 1_000);
        assert_eq!(query_indices(&trace, false).len(), 12);
        // One batch -> exactly one drain poll (the u32::MAX External).
        let polls = trace
            .uops()
            .iter()
            .filter(|u| matches!(u, Uop::External { token, .. } if *token == u32::MAX))
            .count();
        assert_eq!(polls, 1);
    }

    #[test]
    fn nonblocking_trace_batch_one_polls_every_query() {
        let w = build_workload(9);
        let trace = build_qei_trace_nonblocking(w.as_ref(), 1);
        assert_eq!(query_indices(&trace, false).len(), 9);
        let polls = trace
            .uops()
            .iter()
            .filter(|u| matches!(u, Uop::External { token, .. } if *token == u32::MAX))
            .count();
        assert_eq!(polls, 9, "each single-query batch drains itself");
        // Degenerate batch size clamps to 1 rather than looping forever.
        let clamped = build_qei_trace_nonblocking(w.as_ref(), 0);
        assert_eq!(clamped.len(), trace.len());
    }

    #[test]
    fn nonblocking_trace_zero_jobs_is_empty() {
        let w = build_workload(0);
        let trace = build_qei_trace_nonblocking(w.as_ref(), 32);
        assert_eq!(trace.len(), 0);
        let blocking = build_qei_trace_blocking(w.as_ref());
        assert_eq!(blocking.len(), 0);
    }

    #[test]
    fn serial_engine_steps_chip_lanes_on_the_calling_thread() {
        // An engine's worker budget bounds a served chip's lanes as well as
        // its plans: one worker spawns no thread at all, while four step a
        // 4-lane chip's two passes on four workers each. The reports agree.
        let load = LoadSpec {
            tenants: 16,
            mean_interarrival: 300,
            arrivals_per_tenant: 8,
            cores: 4,
            ..LoadSpec::default()
        };
        let plan = RunPlan::served(dpdk(400, 60, 3, 11), Some(Scheme::CoreIntegrated), load);
        let spawned = |run: &dyn Fn() -> RunReport| {
            SPAWNED.with(|n| n.set(0));
            let json = run().to_json();
            (SPAWNED.with(Cell::get), json)
        };
        let serial = Engine::paper().with_threads(1);
        let (workers, one) = spawned(&|| serial.run(&plan));
        assert_eq!(workers, 0, "Engine::run");
        let (workers, batch) = spawned(&|| serial.run_all(&[plan]).remove(0));
        assert_eq!(workers, 0, "Engine::run_all");
        let (workers, four) = spawned(&|| Engine::paper().with_threads(4).run(&plan));
        assert_eq!(workers, 8, "two passes over 4 lanes on 4 workers");
        assert_eq!(one, batch);
        assert_eq!(one, four);
    }

    #[test]
    fn baseline_runs_and_reports() {
        let r = Engine::paper().run(&RunPlan::baseline(dpdk(512, 100, 7, 1)));
        assert!(r.cycles > 0);
        assert!(r.uops > 1_000);
        assert_eq!(r.queries, 100);
        assert!(r.correct);
        assert!(r.cycles_per_query() > 10.0);
    }

    #[test]
    fn qei_blocking_beats_baseline_on_dense_queries() {
        let engine = Engine::paper();
        let spec = WorkloadSpec::new(
            7,
            2,
            WorkloadKind::JvmGc {
                objects: 20_000,
                queries: 300,
            },
        );
        let base = engine.run(&RunPlan::baseline(spec));
        let qei = engine.run(&RunPlan::qei(spec, Scheme::CoreIntegrated));
        assert!(qei.correct);
        let speedup = base.cycles as f64 / qei.cycles as f64;
        assert!(
            speedup > 2.0,
            "expected a clear win, got {speedup:.2}x ({} vs {})",
            base.cycles,
            qei.cycles
        );
    }

    #[test]
    fn scheme_ordering_holds() {
        let engine = Engine::paper();
        let spec = dpdk(2_000, 200, 7, 3);
        let cha = engine.run(&RunPlan::qei(spec, Scheme::ChaTlb)).cycles;
        let core_int = engine
            .run(&RunPlan::qei(spec, Scheme::CoreIntegrated))
            .cycles;
        let dev_ind = engine
            .run(&RunPlan::qei(spec, Scheme::DeviceIndirect))
            .cycles;
        // CHA-TLB fastest; Device-indirect slowest (paper Fig. 7 shape).
        assert!(cha <= core_int * 2, "cha {cha} vs core {core_int}");
        assert!(
            dev_ind > core_int,
            "device-indirect {dev_ind} must trail core-integrated {core_int}"
        );
    }

    #[test]
    fn nonblocking_runs_and_verifies() {
        let engine = Engine::paper();
        let spec = dpdk(1_000, 128, 7, 4);
        let r = engine.run(&RunPlan::qei_nonblocking(
            spec,
            Scheme::CoreIntegrated,
            NB_BATCH,
        ));
        assert!(r.correct);
        assert!(r.cycles > 0);
        assert_eq!(r.mode, RunMode::QeiNonblocking { batch: NB_BATCH });
    }
}
