//! `load-sweep` — the cloud-serving throughput–latency knee: sweep the
//! open-loop arrival rate against the served DPDK workload and compare the
//! calibrated software baseline with QEI blocking and non-blocking serving.
//!
//! Not a paper figure: the paper replays fixed traces, but its cloud pitch
//! (and related serving-accelerator work — E3, Cheetah) characterizes an
//! accelerator by where its latency curve knees as offered load grows. The
//! single-threaded software server saturates at one query per service time,
//! while QEI overlaps admitted queries across QST slots, so its knee sits at
//! a higher offered rate.

use crate::render;
use crate::suite::{engine, suite_specs, Scale};
use qei_config::{LoadSpec, Scheme};
use qei_sim::{RunPlan, RunReport};

/// Swept mean inter-arrival gaps in cycles, densest last (offered load
/// rises left to right in the rendered table).
pub const RATES: [u64; 5] = [4_000, 1_200, 400, 150, 60];

/// The served backends compared, as (label, scheme, blocking) triples.
pub const BACKENDS: [(&str, Option<Scheme>, bool); 3] = [
    ("software", None, true),
    ("qei-b", Some(Scheme::CoreIntegrated), true),
    ("qei-nb", Some(Scheme::CoreIntegrated), false),
];

/// One (backend, rate) measurement, read back from the run's StatsRegistry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadPoint {
    /// Mean inter-arrival gap per tenant (cycles).
    pub mean_interarrival: u64,
    /// Nominal offered load, queries per million cycles across tenants.
    pub offered_qpmc: u64,
    /// Achieved throughput, completed queries per million cycles.
    pub achieved_qpmc: u64,
    /// Client-observed latency percentiles (cycles).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Admission rejections (every bounce, including failed retries).
    pub rejects: u64,
    /// Backed-off resubmissions.
    pub retries: u64,
    /// Static per-query service-cycle bound from the served structure's
    /// cost contract.
    pub contract_bound: u64,
    /// Bound-vs-observed service ratio, integer percent (100 = exact).
    pub contract_tightness: u64,
}

/// One backend's full sweep.
#[derive(Debug, Clone)]
pub struct LoadSweepRow {
    /// Backend label from [`BACKENDS`].
    pub backend: &'static str,
    /// One point per entry of [`RATES`].
    pub points: Vec<LoadPoint>,
    /// Per-tenant `(p50, p90, p99, rejects, retries)` at the densest rate.
    pub tenants_at_knee: Vec<(u64, u64, u64, u64, u64)>,
}

/// The load pattern at one swept rate.
fn load_at(scale: Scale, mean_interarrival: u64, blocking: bool) -> LoadSpec {
    LoadSpec {
        mean_interarrival,
        blocking,
        arrivals_per_tenant: match scale {
            Scale::Quick => 32,
            Scale::Paper => 128,
        },
        // Deep enough that the software server's one-at-a-time capacity,
        // not the admission bound, is what saturates first.
        queue_depth: 32,
        ..LoadSpec::default()
    }
}

/// The load pattern at one swept rate on a chip of `cores` lanes: tenants
/// scale with the lane count (4 per lane keeps every hash shard populated)
/// so the *per-tenant* offered rate is constant and the aggregate offered
/// load grows linearly with the chip size.
fn scaled_load_at(scale: Scale, mean_interarrival: u64, blocking: bool, cores: u32) -> LoadSpec {
    LoadSpec {
        tenants: 4 * cores,
        cores,
        ..load_at(scale, mean_interarrival, blocking)
    }
}

fn point(load: &LoadSpec, r: &RunReport) -> LoadPoint {
    LoadPoint {
        mean_interarrival: load.mean_interarrival,
        offered_qpmc: load.tenants as u64 * 1_000_000 / load.mean_interarrival,
        achieved_qpmc: r.stats.count("serve", "throughput_qpmc"),
        p50: r.stats.count("serve", "latency_p50"),
        p90: r.stats.count("serve", "latency_p90"),
        p99: r.stats.count("serve", "latency_p99"),
        rejects: r.stats.count("serve", "rejects"),
        retries: r.stats.count("serve", "retries"),
        contract_bound: r.stats.count("serve", "contract_bound"),
        contract_tightness: r.stats.count("serve", "contract_tightness"),
    }
}

/// Runs the sweep: per backend, one served plan per rate, all through one
/// parallel [`qei_sim::Engine::run_all`] batch over a shared workload build.
pub fn rows(scale: Scale) -> Vec<LoadSweepRow> {
    let spec = suite_specs(scale)[0]; // DPDK: the paper's headline workload
    let mut plans = Vec::new();
    for (_, scheme, blocking) in BACKENDS {
        for rate in RATES {
            plans.push(RunPlan::served(
                spec,
                scheme,
                load_at(scale, rate, blocking),
            ));
        }
    }
    let reports = engine().run_all(&plans);
    BACKENDS
        .iter()
        .zip(reports.chunks(RATES.len()))
        .map(|(&(backend, _, blocking), chunk)| {
            let points = RATES
                .iter()
                .zip(chunk)
                .map(|(&rate, r)| point(&load_at(scale, rate, blocking), r))
                .collect();
            let knee = &chunk[RATES.len() - 1];
            let tenants = load_at(scale, RATES[0], blocking).tenants;
            let tenants_at_knee = (0..tenants)
                .map(|t| {
                    (
                        knee.stats.count("serve", &format!("t{t}_p50")),
                        knee.stats.count("serve", &format!("t{t}_p90")),
                        knee.stats.count("serve", &format!("t{t}_p99")),
                        knee.stats.count("serve", &format!("t{t}_rejects")),
                        knee.stats.count("serve", &format!("t{t}_retries")),
                    )
                })
                .collect();
            LoadSweepRow {
                backend,
                points,
                tenants_at_knee,
            }
        })
        .collect()
}

/// Renders the sweep: the aggregate throughput–latency table plus the
/// per-tenant breakdown at the densest (knee) rate.
pub fn render(scale: Scale) -> String {
    let rows = rows(scale);
    let header = [
        "backend", "offered", "achieved", "p50", "p90", "p99", "rejects", "retries", "tight%",
    ];
    let mut body = Vec::new();
    for row in &rows {
        for p in &row.points {
            body.push(vec![
                row.backend.to_owned(),
                p.offered_qpmc.to_string(),
                p.achieved_qpmc.to_string(),
                p.p50.to_string(),
                p.p90.to_string(),
                p.p99.to_string(),
                p.rejects.to_string(),
                p.retries.to_string(),
                p.contract_tightness.to_string(),
            ]);
        }
    }
    let mut out = render::table(
        "Load sweep — served DPDK throughput (queries/Mcycle) and client latency vs offered load (QEI knees above software; tight% = static contract bound over observed mean service)",
        &header,
        &body,
    );
    let tenant_header = [
        "backend", "tenant", "p50", "p90", "p99", "rejects", "retries",
    ];
    let tenant_body: Vec<Vec<String>> = rows
        .iter()
        .flat_map(|row| {
            row.tenants_at_knee
                .iter()
                .enumerate()
                .map(|(t, &(p50, p90, p99, rej, retry))| {
                    vec![
                        row.backend.to_owned(),
                        format!("t{t}"),
                        p50.to_string(),
                        p90.to_string(),
                        p99.to_string(),
                        rej.to_string(),
                        retry.to_string(),
                    ]
                })
        })
        .collect();
    out.push('\n');
    out.push_str(&render::table(
        "Per-tenant latency and admission outcomes at the densest rate",
        &tenant_header,
        &tenant_body,
    ));
    out
}

/// One chip size's sweep in the multi-core scaling experiment.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Core lanes on the chip.
    pub cores: u32,
    /// One aggregate point per entry of [`RATES`].
    pub points: Vec<LoadPoint>,
    /// Summed cross-lane LLC contention cycles at the densest rate (zero
    /// on a single-core chip, which has nobody to contend with).
    pub contention_at_knee: u64,
}

/// Runs the multi-core scaling sweep (`load-sweep --cores`): the blocking
/// Core-integrated backend at every swept rate, once per requested chip
/// size, all through one parallel `run_all` batch.
pub fn scaling_rows(scale: Scale, cores_list: &[u32]) -> Vec<ScalingRow> {
    let spec = suite_specs(scale)[0];
    let mut plans = Vec::new();
    for &cores in cores_list {
        for rate in RATES {
            plans.push(RunPlan::served(
                spec,
                Some(Scheme::CoreIntegrated),
                scaled_load_at(scale, rate, true, cores),
            ));
        }
    }
    let reports = engine().run_all(&plans);
    cores_list
        .iter()
        .zip(reports.chunks(RATES.len()))
        .map(|(&cores, chunk)| {
            let points = RATES
                .iter()
                .zip(chunk)
                .map(|(&rate, r)| point(&scaled_load_at(scale, rate, true, cores), r))
                .collect();
            let contention_at_knee = chunk[RATES.len() - 1]
                .stats
                .count("serve", "contention_cycles");
            ScalingRow {
                cores,
                points,
                contention_at_knee,
            }
        })
        .collect()
}

/// Renders the scaling sweep: aggregate queries/Mcycle and client latency
/// per (chip size, offered rate), plus per-lane throughput at the densest
/// rate so the knee shift is visible at a glance.
pub fn render_scaling(scale: Scale, cores_list: &[u32]) -> String {
    let rows = scaling_rows(scale, cores_list);
    let header = [
        "cores",
        "offered",
        "achieved",
        "per-lane",
        "p50",
        "p99",
        "rejects",
        "contention",
    ];
    let mut body = Vec::new();
    for row in &rows {
        for (i, p) in row.points.iter().enumerate() {
            let knee = i == row.points.len() - 1;
            body.push(vec![
                row.cores.to_string(),
                p.offered_qpmc.to_string(),
                p.achieved_qpmc.to_string(),
                (p.achieved_qpmc / row.cores as u64).to_string(),
                p.p50.to_string(),
                p.p99.to_string(),
                p.rejects.to_string(),
                if knee {
                    row.contention_at_knee.to_string()
                } else {
                    "-".to_owned()
                },
            ]);
        }
    }
    render::table(
        "Multi-core scaling — aggregate served DPDK throughput (queries/Mcycle) vs chip size (shared-LLC contention shifts the knee)",
        &header,
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qei_knees_above_software() {
        let rows = rows(Scale::Quick);
        assert_eq!(rows.len(), BACKENDS.len());
        let by_name =
            |name: &str| -> &LoadSweepRow { rows.iter().find(|r| r.backend == name).unwrap() };
        let sw = by_name("software");
        let qei = by_name("qei-b");
        // At the lightest rate nobody saturates: achieved tracks offered.
        assert!(sw.points[0].achieved_qpmc > 0);
        // At the densest rate the accelerator sustains more throughput than
        // the single-server software baseline — the knee separation.
        let last = RATES.len() - 1;
        assert!(
            qei.points[last].achieved_qpmc > sw.points[last].achieved_qpmc,
            "qei {} vs software {}",
            qei.points[last].achieved_qpmc,
            sw.points[last].achieved_qpmc
        );
        // The saturated software server sheds load: rejects appear.
        assert!(sw.points[last].rejects > 0);
        // Achieved throughput never decreases as offered load grows (the
        // admission queue sheds the excess instead of collapsing).
        for row in &rows {
            for w in row.points.windows(2) {
                assert!(
                    w[1].achieved_qpmc + w[1].achieved_qpmc / 4 >= w[0].achieved_qpmc,
                    "{}: throughput collapsed {} -> {}",
                    row.backend,
                    w[0].achieved_qpmc,
                    w[1].achieved_qpmc
                );
            }
        }
        // Per-tenant breakdown is populated for every tenant.
        for row in &rows {
            assert_eq!(
                row.tenants_at_knee.len(),
                LoadSpec::default().tenants as usize
            );
        }
        // Every backend reports the contract bound, and on the accelerated
        // backends the static bound covers the observed mean service time
        // (tightness >= 100%): the soundness signal admission relies on.
        for row in &rows {
            for p in &row.points {
                assert!(
                    p.contract_bound > 0,
                    "{}: served DPDK structure must have a contract",
                    row.backend
                );
            }
            if row.backend.starts_with("qei") {
                for p in &row.points {
                    assert!(
                        p.contract_tightness >= 100,
                        "{}: bound below observed mean (tightness {}%)",
                        row.backend,
                        p.contract_tightness
                    );
                }
            }
        }
    }

    #[test]
    fn aggregate_throughput_scales_with_cores() {
        // The ISSUE's acceptance shape: at the densest rate, a 2-lane chip
        // sustains more aggregate queries/Mcycle than a single lane.
        let rows = scaling_rows(Scale::Quick, &[1, 2]);
        assert_eq!(rows.len(), 2);
        let last = RATES.len() - 1;
        let one = rows[0].points[last].achieved_qpmc;
        let two = rows[1].points[last].achieved_qpmc;
        assert!(
            two > one,
            "2-core chip ({two} q/Mc) should out-serve 1 core ({one} q/Mc)"
        );
        // A single-core chip has nobody to contend with.
        assert_eq!(rows[0].contention_at_knee, 0);
    }

    #[test]
    fn scaling_render_lists_every_chip_size() {
        let out = render_scaling(Scale::Quick, &[1, 2]);
        assert!(out.contains("Multi-core scaling"));
        assert!(out.contains("per-lane"));
        assert!(out.contains("contention"));
    }

    #[test]
    fn render_contains_both_tables() {
        let out = render(Scale::Quick);
        assert!(out.contains("Load sweep"));
        assert!(out.contains("Per-tenant"));
        assert!(out.contains("software"));
        assert!(out.contains("qei-nb"));
        assert!(out.contains("t3"));
    }
}
