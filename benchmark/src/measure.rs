//! What every workload shares: the measured-phase loop, the end-to-end
//! summary, and the per-layer accumulator the traced run fills.

use crate::catalogue;
use crate::spans::Recorder;
use crate::stats::{mean, median, percentile, Tally};
use qei_sim::RunReport;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Fewest whole cycles an untraced run measures.
pub const MIN_CYCLES: usize = 20;

/// How one run is configured.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub traced: bool,
}

impl Opts {
    /// Length of the untraced phase: the whole run, or the first third of
    /// a traced run (its reference for the tracing overhead).
    pub fn untraced_budget(&self) -> Duration {
        let share = if self.traced { 1.0 / 3.0 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Length of a traced run's traced phase.
    pub fn traced_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 2.0 / 3.0)
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The catalogue's metrics for this run kind.
    pub metrics: Metrics,
    /// Human-readable lines for stderr.
    pub notes: Vec<String>,
    /// Spans of the traced phase.
    pub spans: Recorder,
}

/// Runs `op(i)` for whole periods of `period` operations until `budget` has
/// passed and at least `min_ops` have run, or until `op` returns `false`
/// (the system under test is gone).
pub fn phase(period: usize, budget: Duration, min_ops: usize, mut op: impl FnMut(usize) -> bool) {
    let started = Instant::now();
    let mut i = 0;
    loop {
        for _ in 0..period {
            if !op(i) {
                return;
            }
            i += 1;
        }
        if started.elapsed() >= budget && i >= min_ops {
            return;
        }
    }
}

/// The end-to-end metrics. `op_ms` holds whole cycles of `period`
/// operations; a cycle (the Fig. 7 matrix, one served plan, one daemon
/// script period) is the unit timed, because host-speed drift on a shared
/// machine moves single-operation percentiles far more than the median of
/// whole cycles. `sim_queries` is what all the cycles answered.
///
/// # Errors
///
/// When fewer than 20 cycles ran (the median needs ten beyond it).
pub fn end_to_end(
    out: &mut Metrics,
    op_ms: &[f64],
    period: usize,
    sim_queries: f64,
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Result<(), String> {
    let cycles = cycles(op_ms, period);
    let cycle_ms = percentile(&cycles, 50)
        .ok_or_else(|| format!("only {} cycles ran; lengthen --seconds", cycles.len()))?;
    let queries_per_cycle = sim_queries / cycles.len() as f64;
    out.insert("cycle_ms", cycle_ms);
    out.insert("sim_queries_per_s", queries_per_cycle * 1e3 / cycle_ms);
    out.insert("peak_rss_mb", peak_rss_mb);
    out.insert("setup_s", median(setup_s));
    Ok(())
}

/// Wall time of each whole cycle of `period` operations.
pub fn cycles(op_ms: &[f64], period: usize) -> Vec<f64> {
    op_ms.chunks_exact(period).map(|c| c.iter().sum()).collect()
}

/// Per-operation percentiles, for the human summary.
pub fn op_note(op_ms: &[f64]) -> String {
    let show = |p| percentile(op_ms, p).map_or("n/a".to_string(), |v| format!("{v:.4} ms"));
    format!(
        "operations {}: op p50 {} p90 {}",
        op_ms.len(),
        show(50),
        show(90)
    )
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one), MB.
///
/// # Errors
///
/// When `/proc` has no readable VmHWM line for the process.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// The share metric a span's self time counts towards (`None` for spans
/// whose time is accounted by the workload itself).
fn share_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "workloads.baseline_trace" | "sim.qei_trace" => "workloads.trace_share",
        "mem.fork" => "mem.fork_share",
        "mem.digest" => "mem.digest_share",
        "sim.setup" | "sim.verify" => "sim.setup_share",
        "cpu.warmup" | "cpu.measured" => "cpu.self_share",
        "core.submit" => "core.submit_share",
        "sim.report" | "sim.report_json" => "sim.report_share",
        "datastructs.mutate" => "datastructs.mutate_share",
        _ => return None,
    })
}

/// The per-layer accumulator of one traced phase.
#[derive(Debug, Default)]
pub struct Layers {
    share_ns: BTreeMap<&'static str, f64>,
    op_ns: f64,
    calls: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    /// Per-operation times of the untraced and traced phases (whole
    /// cycles of each), ms.
    pub untraced_ms: Vec<f64>,
    /// See `untraced_ms`.
    pub traced_ms: Vec<f64>,
}

impl Layers {
    /// Adds `ns` to share metric `metric`.
    pub fn add_share(&mut self, metric: &'static str, ns: f64) {
        *self.share_ns.entry(metric).or_default() += ns;
    }

    /// Adds `ns` of operation time (the shares' denominator).
    pub fn add_op(&mut self, ns: f64) {
        self.op_ns += ns;
    }

    /// Records one call's cost for a per-call mean metric.
    pub fn add_call(&mut self, metric: &'static str, value: f64) {
        self.calls.entry(metric).or_default().push(value);
    }

    /// Adds `weight` × `value` to per-operation count `metric`.
    pub fn add_count(&mut self, metric: &'static str, value: f64, weight: f64) {
        *self.counts.entry(metric).or_default() += value * weight;
    }

    /// Adds every span's self time recorded from span `first` on to the
    /// share it counts towards, plus the summed dispatches.
    pub fn add_spans(&mut self, rec: &Recorder, first: usize) {
        let own = rec.self_times();
        for s in &rec.spans()[first..] {
            if let Some(metric) = share_of(s.name) {
                self.add_share(metric, own[s.id] as f64);
            }
            let per_call = match s.name {
                "sim.report_json" => Some(("sim.report_json_us", 1e3)),
                "mem.fork" => Some(("mem.fork_ms", 1e6)),
                "mem.digest" => Some(("mem.digest_ms", 1e6)),
                _ => None,
            };
            if let Some((metric, ns_per_unit)) = per_call {
                self.add_call(metric, (s.end_ns - s.start_ns) as f64 / ns_per_unit);
            }
        }
        for a in rec.aggregates().iter().filter(|a| a.parent >= first) {
            if let Some(metric) = share_of(a.name) {
                self.add_share(metric, a.sum_ns as f64);
            }
        }
    }

    /// The work counts `report` carries, weighted per operation.
    pub fn add_report(&mut self, report: &RunReport, weight: f64) {
        let s = &report.stats;
        let accel = report.accel.unwrap_or_default();
        let counts = [
            ("cpu.uops", report.uops),
            ("core.submits", accel.queries),
            ("core.faults", accel.faults),
            ("cache.l1_accesses", report.mem.l1_accesses),
            ("cache.l2_accesses", report.mem.l2_accesses),
            ("cache.llc_accesses", report.mem.llc_accesses),
            ("cache.dram_accesses", report.mem.dram_accesses),
            ("noc.messages", s.count("noc", "messages")),
            ("noc.bytes", report.noc_bytes),
            ("serve.rejects", s.count("serve", "rejects")),
            ("serve.retries", s.count("serve", "retries")),
            ("serve.timeouts", s.count("serve", "timeouts")),
            ("serve.stale_faults", s.count("serve", "stale_faults")),
            ("serve.writes", s.count("serve", "writes")),
        ];
        for (metric, value) in counts {
            self.add_count(metric, value as f64, weight);
        }
        let offered = s.count("serve", "offered");
        if offered > 0 {
            let ratio = s.count("serve", "completed") as f64 / offered as f64;
            self.add_count("serve.completed_ratio", ratio, weight);
        }
    }

    /// Writes every per-layer metric: shares of operation time (the rest
    /// unattributed), per-call means, per-operation counts, and the
    /// tracing overhead on the median cycle of `period` operations. Shares
    /// and counts of layers a workload never touches read 0; every time is
    /// measured on every workload.
    ///
    /// # Panics
    ///
    /// When a workload left a per-layer time unmeasured.
    pub fn finish(&self, out: &mut Metrics, period: usize) {
        let mut attributed = 0.0;
        for metric in catalogue::share_metrics().filter(|m| *m != "bench.unattributed_share") {
            let share = self.share_ns.get(metric).copied().unwrap_or(0.0) / self.op_ns;
            out.insert(metric, share);
            attributed += share;
        }
        out.insert("bench.unattributed_share", 1.0 - attributed);
        for (metric, values) in &self.calls {
            out.insert(metric, mean(values));
        }
        for (metric, value) in &self.counts {
            out.insert(metric, *value);
        }
        let untraced = median(&cycles(&self.untraced_ms, period));
        let traced = median(&cycles(&self.traced_ms, period));
        out.insert(
            "bench.trace_overhead_pct",
            (traced / untraced - 1.0) * 100.0,
        );
        for m in catalogue::PER_LAYER {
            let timed = matches!(m.unit, "s" | "ms" | "us" | "MB");
            assert!(
                !timed || out.contains_key(m.name),
                "{} was never measured",
                m.name
            );
            out.entry(m.name).or_insert(0.0);
        }
    }
}
