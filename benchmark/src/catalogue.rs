//! The benchmark's contract: its workloads, its metrics with units,
//! directions and regression bounds, and the `BENCHMARK.json` rendered from
//! them. `tests/catalogue.rs` fails when the committed file drifts from
//! this module, so the file and the binary cannot disagree.

use std::fmt::Write as _;

/// Seconds each run measures for.
pub const RUN_SECONDS: u64 = 25;

/// How a checkout runs the benchmark (it builds on first use).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// One workload and why it is in the set.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work counts).
    Lower,
    /// Larger is better (throughput, useful-outcome ratios).
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` per layer).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "suite_batch",
        why: "Paper-scale Fig. 7 matrix (5 workloads x baseline + 5 schemes) forked from warm sessions: core model and accelerator dispatch; bypasses arrivals and the daemon",
    },
    Workload {
        name: "served_light_c4",
        why: "Light open-loop DPDK load on a 4-lane chip: host time is mostly arrival generation, regenerated per lane and pass, plus 5 image forks per plan",
    },
    Workload {
        name: "served_saturated_rw",
        why: "DPDK load past the knee on 2 lanes with 30% writes: arrivals are cheap; accelerator rejects, retries and stale-epoch faults dominate",
    },
    Workload {
        name: "daemon_mixed",
        why: "One client on the socket daemon: cheap queries interleaved with mutates whose reply pays a full-image digest, plus periodic revert and run",
    },
];

/// End-to-end metrics, measured untraced (`--trace 0`).
pub const END_TO_END: [Metric; 4] = [
    e2e("cycle_ms", "ms", Better::Lower, 0.25),
    e2e("sim_queries_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics, measured in a separate traced run (`--trace 1`).
/// Shares are of summed operation time; a layer an operation never calls
/// has share 0. Counts are per operation over one period of the op cycle,
/// so they repeat exactly for a seed.
pub const PER_LAYER: [Metric; 34] = [
    layer("workloads.build_ms", "ms", Better::Lower),
    layer("mem.fork_ms", "ms", Better::Lower),
    layer("mem.digest_ms", "ms", Better::Lower),
    layer("sim.report_json_us", "us", Better::Lower),
    layer("mem.image_mb", "MB", Better::Lower),
    layer("bench.trace_overhead_pct", "%", Better::Lower),
    layer("workloads.trace_share", "ratio", Better::Lower),
    layer("mem.fork_share", "ratio", Better::Lower),
    layer("mem.digest_share", "ratio", Better::Lower),
    layer("sim.setup_share", "ratio", Better::Lower),
    layer("cpu.self_share", "ratio", Better::Lower),
    layer("core.submit_share", "ratio", Better::Lower),
    layer("sim.report_share", "ratio", Better::Lower),
    layer("serve.arrival_share", "ratio", Better::Lower),
    layer("serve.chip_share", "ratio", Better::Lower),
    layer("datastructs.mutate_share", "ratio", Better::Lower),
    layer("served.protocol_share", "ratio", Better::Lower),
    layer("bench.unattributed_share", "ratio", Better::Lower),
    layer("cpu.uops", "count", Better::Lower),
    layer("core.submits", "count", Better::Lower),
    layer("core.faults", "count", Better::Lower),
    layer("cache.l1_accesses", "count", Better::Lower),
    layer("cache.l2_accesses", "count", Better::Lower),
    layer("cache.llc_accesses", "count", Better::Lower),
    layer("cache.dram_accesses", "count", Better::Lower),
    layer("noc.messages", "count", Better::Lower),
    layer("noc.bytes", "count", Better::Lower),
    layer("serve.arrival_calls", "count", Better::Lower),
    layer("serve.completed_ratio", "ratio", Better::Higher),
    layer("serve.rejects", "count", Better::Lower),
    layer("serve.retries", "count", Better::Lower),
    layer("serve.timeouts", "count", Better::Lower),
    layer("serve.stale_faults", "count", Better::Lower),
    layer("serve.writes", "count", Better::Lower),
];

/// The share metrics, which sum to 1 over an operation's time.
pub fn share_metrics() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|n| n.ends_with("_share"))
}

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The metrics a run emits: end-to-end untraced, per-layer traced.
pub fn metrics(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Every workload and metric name, one per line, prefixed by its section.
pub fn listing() -> String {
    let mut out = String::new();
    for w in WORKLOADS {
        let _ = writeln!(out, "workload {}", w.name);
    }
    for m in END_TO_END {
        let _ = writeln!(out, "end_to_end {}", m.name);
    }
    for m in PER_LAYER {
        let _ = writeln!(out, "per_layer {}", m.name);
    }
    out
}

fn quoted(items: &[&str]) -> String {
    items
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `BENCHMARK.json`, byte for byte.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.unwrap_or(0.0)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal workload or metric name.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name("-x"));
        assert!(!valid_name("a b"));
    }

    #[test]
    fn end_to_end_metrics_carry_bounds_and_setup_has_the_largest() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in END_TO_END {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(bound <= setup.bound.unwrap_or(0.0), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn whys_fit_on_one_line() {
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
    }
}
