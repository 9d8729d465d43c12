//! Run reports: the measured quantities every experiment consumes.

use crate::engine::RunMode;
use qei_cache::MemStats;
use qei_config::{Scheme, StatsRegistry};
use qei_core::AccelStats;
use qei_cpu::RunResult;
use qei_noc::NocStats;
use qei_serve::ServeStats;
use qei_workloads::Workload;

/// The raw measurements of one QEI run, bundled for [`RunReport::from_qei`].
#[derive(Debug, Clone, Copy)]
pub struct QeiRunData {
    /// Core-model outcome.
    pub run: RunResult,
    /// Memory-hierarchy access counts.
    pub mem: MemStats,
    /// Accelerator statistics.
    pub accel: AccelStats,
    /// Mean QST occupancy over the run.
    pub qst_occupancy: f64,
    /// NoC traffic totals.
    pub noc: NocStats,
}

/// One core lane's slice of a multi-core served run, reported under the
/// per-core `serve_c{i}` stats subtree.
#[derive(Debug, Clone)]
pub struct CoreLaneData {
    /// The lane's serving statistics over its tenant shard.
    pub serve: ServeStats,
    /// Extra LLC cycles the chip's contention arbiter charged this lane.
    pub contention_cycles: u64,
}

/// The raw measurements of one served (open-loop load) run, bundled for
/// [`RunReport::from_served`]. The accelerator-side fields are `None` when
/// the run served through the calibrated software baseline.
#[derive(Debug, Clone)]
pub struct ServedRunData {
    /// Serving-layer statistics (per-tenant latency, admission outcomes;
    /// the chip-aggregate merge on a multi-core run).
    pub serve: ServeStats,
    /// Memory-hierarchy access counts (the calibration pass's for software
    /// serving, the serve loop's for QEI serving; summed across lanes).
    pub mem: MemStats,
    /// Accelerator statistics (QEI serving only; merged across lanes).
    pub accel: Option<AccelStats>,
    /// NoC traffic totals (QEI serving only; summed across lanes).
    pub noc: Option<NocStats>,
    /// Mean QST occupancy over the served horizon (QEI serving only; the
    /// lane mean on a multi-core run).
    pub qst_occupancy: f64,
    /// Core lanes the load was sharded across (1 = the single-core path).
    pub cores: u32,
    /// Per-lane reports, in core-id order. Exported only when `cores > 1`,
    /// so a single-core run's stats tree carries no per-lane subtrees.
    pub per_core: Vec<CoreLaneData>,
}

/// The outcome of one priced run (baseline or QEI).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// How the ROI was executed.
    pub mode: RunMode,
    /// Integration scheme (`None` for the software baseline).
    pub scheme: Option<Scheme>,
    /// End-to-end ROI cycles.
    pub cycles: u64,
    /// Micro-ops the *core* executed.
    pub uops: u64,
    /// Queries in the stream.
    pub queries: u64,
    /// Core-model detail (stalls, mispredicts, TLB misses…).
    pub run: RunResult,
    /// Memory-hierarchy access counts.
    pub mem: MemStats,
    /// Accelerator statistics (QEI runs only).
    pub accel: Option<AccelStats>,
    /// Mean QST occupancy over the run (QEI runs only).
    pub qst_occupancy: f64,
    /// Total bytes moved on the NoC.
    pub noc_bytes: u64,
    /// Whether functional results matched the ground truth.
    pub correct: bool,
    /// Non-query application work accompanying each query (for end-to-end
    /// extrapolation).
    pub non_roi_work_per_query: u32,
    /// The uniformly-named machine-readable stats tree for this run.
    pub stats: StatsRegistry,
}

/// Fills the `run` group shared by both report constructors.
fn run_group(
    stats: &mut StatsRegistry,
    workload: &dyn Workload,
    mode: RunMode,
    scheme: Option<Scheme>,
    cycles: u64,
    queries: u64,
) {
    stats.set("run", "workload", workload.name());
    stats.set("run", "mode", mode.label());
    stats.set(
        "run",
        "scheme",
        scheme.map_or_else(|| "none".to_owned(), |s| s.label().to_owned()),
    );
    if let RunMode::QeiNonblocking { batch } = mode {
        stats.set("run", "nb_batch", batch as u64);
    }
    stats.set("run", "cycles", cycles);
    stats.set("run", "queries", queries);
    stats.set(
        "run",
        "cycles_per_query",
        if queries == 0 {
            0.0
        } else {
            cycles as f64 / queries as f64
        },
    );
    stats.set(
        "run",
        "non_roi_work_per_query",
        u64::from(workload.non_roi_work_per_query()),
    );
    stats.set("run", "correct", true);
}

impl RunReport {
    /// Builds a report for a software-baseline run.
    pub fn from_software(workload: &dyn Workload, run: RunResult, mem: MemStats) -> Self {
        let queries = workload.jobs().len() as u64;
        let mut stats = StatsRegistry::new();
        run_group(
            &mut stats,
            workload,
            RunMode::Baseline,
            None,
            run.cycles,
            queries,
        );
        run.export_stats(&mut stats);
        mem.export_stats(&mut stats);
        RunReport {
            workload: workload.name(),
            mode: RunMode::Baseline,
            scheme: None,
            cycles: run.cycles,
            uops: run.uops,
            queries,
            run,
            mem,
            accel: None,
            qst_occupancy: 0.0,
            noc_bytes: 0,
            correct: true,
            non_roi_work_per_query: workload.non_roi_work_per_query(),
            stats,
        }
    }

    /// Builds a report for a QEI run.
    pub fn from_qei(
        workload: &dyn Workload,
        mode: RunMode,
        scheme: Scheme,
        data: QeiRunData,
    ) -> Self {
        let queries = workload.jobs().len() as u64;
        let mut stats = StatsRegistry::new();
        run_group(
            &mut stats,
            workload,
            mode,
            Some(scheme),
            data.run.cycles,
            queries,
        );
        stats.set("run", "qst_occupancy", data.qst_occupancy);
        data.run.export_stats(&mut stats);
        data.mem.export_stats(&mut stats);
        data.accel.export_stats(&mut stats);
        data.noc.export_stats(&mut stats);
        RunReport {
            workload: workload.name(),
            mode,
            scheme: Some(scheme),
            cycles: data.run.cycles,
            uops: data.run.uops,
            queries,
            run: data.run,
            mem: data.mem,
            accel: Some(data.accel),
            qst_occupancy: data.qst_occupancy,
            noc_bytes: data.noc.bytes,
            correct: true,
            non_roi_work_per_query: workload.non_roi_work_per_query(),
            stats,
        }
    }

    /// Builds a report for a served (open-loop load) run. `cycles` is the
    /// served horizon (first arrival to last observed result) and `queries`
    /// the offered load, so throughput math stays meaningful.
    pub fn from_served(
        workload: &dyn Workload,
        mode: RunMode,
        scheme: Option<Scheme>,
        data: ServedRunData,
    ) -> Self {
        let mut stats = StatsRegistry::new();
        run_group(
            &mut stats,
            workload,
            mode,
            scheme,
            data.serve.horizon,
            data.serve.offered(),
        );
        if let RunMode::Served { load } = mode {
            stats.set("run", "load", load.tag());
        }
        if data.accel.is_some() {
            stats.set("run", "qst_occupancy", data.qst_occupancy);
        }
        if data.cores > 1 {
            stats.set("run", "cores", u64::from(data.cores));
            let mut contention = 0u64;
            for (i, lane) in data.per_core.iter().enumerate() {
                lane.serve.export_core_into(&mut stats, i as u32);
                stats.set(
                    &format!("serve_c{i}"),
                    "contention_cycles",
                    lane.contention_cycles,
                );
                contention += lane.contention_cycles;
            }
            stats.set("serve", "contention_cycles", contention);
        }
        data.serve.export_into(&mut stats);
        data.mem.export_stats(&mut stats);
        if let Some(accel) = data.accel {
            accel.export_stats(&mut stats);
        }
        if let Some(noc) = data.noc {
            noc.export_stats(&mut stats);
        }
        RunReport {
            workload: workload.name(),
            mode,
            scheme,
            cycles: data.serve.horizon,
            uops: 0,
            queries: data.serve.offered(),
            run: RunResult::default(),
            mem: data.mem,
            accel: data.accel,
            qst_occupancy: data.qst_occupancy,
            noc_bytes: data.noc.map_or(0, |n| n.bytes),
            correct: true,
            non_roi_work_per_query: workload.non_roi_work_per_query(),
            stats,
        }
    }

    /// The run's full stats tree as deterministic JSON (sorted keys).
    pub fn to_json(&self) -> String {
        self.stats.to_json()
    }

    /// Mean cycles per query.
    pub fn cycles_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cycles as f64 / self.queries as f64
        }
    }

    /// Core micro-ops per query (the Fig. 11 metric).
    pub fn uops_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.uops as f64 / self.queries as f64
        }
    }

    /// End-to-end cycles including the non-ROI application work, assuming
    /// that work runs near the dispatch-width IPC (it is cache-resident,
    /// predictable code).
    pub fn end_to_end_cycles(&self, dispatch_width: u32) -> f64 {
        let non_roi =
            self.queries as f64 * self.non_roi_work_per_query as f64 / dispatch_width as f64;
        self.cycles as f64 + non_roi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, uops: u64, queries: u64) -> RunReport {
        RunReport {
            workload: "test",
            mode: RunMode::Baseline,
            scheme: None,
            cycles,
            uops,
            queries,
            run: RunResult::default(),
            mem: MemStats::default(),
            accel: None,
            qst_occupancy: 0.0,
            noc_bytes: 0,
            correct: true,
            non_roi_work_per_query: 100,
            stats: StatsRegistry::new(),
        }
    }

    #[test]
    fn per_query_math() {
        let r = report(10_000, 4_000, 100);
        assert!((r.cycles_per_query() - 100.0).abs() < 1e-12);
        assert!((r.uops_per_query() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn zero_queries_is_safe() {
        let r = report(10, 10, 0);
        assert_eq!(r.cycles_per_query(), 0.0);
        assert_eq!(r.uops_per_query(), 0.0);
    }

    #[test]
    fn end_to_end_adds_non_roi_work() {
        let r = report(10_000, 4_000, 100);
        // 100 queries × 100 non-ROI uops / 4-wide = 2_500 extra cycles.
        assert!((r.end_to_end_cycles(4) - 12_500.0).abs() < 1e-9);
    }
}
