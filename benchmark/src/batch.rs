//! The in-process workloads: the paper-scale Fig. 7 matrix and the two
//! served loads. An operation prices one plan on a warm session and
//! serialises its report (`SimSession::run_plan` + `RunReport::to_json`).

use crate::measure::{
    end_to_end, op_note, peak_rss_mb, phase, Layers, Opts, Outcome, MIN_CYCLES, SETUPS,
};
use crate::spans::Recorder;
use crate::stats::{fnv1a, mix, ms, DigestBook, Tally};
use crate::traced;
use qei_config::{LoadSpec, MachineConfig, Scheme};
use qei_experiments::Scale;
use qei_mem::GuestMem;
use qei_sim::{RunMode, RunPlan, RunReport, SimSession, WorkloadSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The five paper workloads at Paper scale, their seeds drawn from `seed`.
pub fn suite_specs(seed: u64) -> Vec<WorkloadSpec> {
    qei_experiments::suite::suite_specs(Scale::Paper)
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            WorkloadSpec::new(mix(seed, 2 * i as u64), mix(seed, 2 * i as u64 + 1), s.kind)
        })
        .collect()
}

/// The Fig. 7 matrix over `specs`: per spec, the software baseline then
/// one blocking plan per scheme, tagged with the spec's index.
pub fn suite_plans(specs: &[WorkloadSpec]) -> Vec<(usize, RunPlan)> {
    let mut plans = Vec::new();
    for (i, &spec) in specs.iter().enumerate() {
        plans.push((i, RunPlan::baseline(spec)));
        for scheme in Scheme::ALL {
            plans.push((i, RunPlan::qei(spec, scheme)));
        }
    }
    plans
}

/// The served DPDK table at Paper scale, seeded from `seed`.
pub fn served_spec(seed: u64) -> WorkloadSpec {
    let dpdk = qei_experiments::suite::suite_specs(Scale::Paper)[0];
    WorkloadSpec::new(mix(seed, 20), mix(seed, 21), dpdk.kind)
}

/// Light blocking load on a 4-lane chip: far below the knee, so serving is
/// cheap and regenerating the arrival stream dominates.
pub fn light_load(seed: u64) -> LoadSpec {
    LoadSpec {
        cores: 4,
        tenants: 16,
        mean_interarrival: 4_000,
        arrivals_per_tenant: 64,
        queue_depth: 32,
        seed: mix(seed, 22),
        ..LoadSpec::default()
    }
}

/// Non-blocking load past the knee on 2 lanes with 30% writes, long enough
/// that serving rather than each plan's fixed cost (lane cache allocation
/// and image forks, which swing most with host memory contention)
/// dominates its time.
pub fn saturated_load(seed: u64) -> LoadSpec {
    LoadSpec {
        cores: 2,
        tenants: 8,
        mean_interarrival: 60,
        arrivals_per_tenant: 512,
        queue_depth: 32,
        blocking: false,
        write_pct: 30,
        seed: mix(seed, 23),
        ..LoadSpec::default()
    }
}

/// Runs a workload whose operations are `plans`, in order, repeated.
///
/// # Errors
///
/// When too few cycles ran or the peak RSS is unreadable.
pub fn run(
    specs: &[WorkloadSpec],
    plans: &[(usize, RunPlan)],
    opts: &Opts,
) -> Result<Outcome, String> {
    let config = MachineConfig::skylake_sp_24();
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut setup_s = Vec::new();
    let mut sessions: Vec<SimSession> = Vec::new();
    let mut images: Vec<GuestMem> = Vec::new();
    if opts.traced {
        // The traced path forks the image itself, so it keeps one.
        for &spec in specs {
            let started = Instant::now();
            let (image, workload) = spec.build_image();
            layers.add_call("workloads.build_ms", ms(started.elapsed()));
            let session = SimSession::from_prototype(
                config.clone(),
                image.clone(),
                Arc::from(workload),
                Some(spec),
            );
            sessions.push(session);
            images.push(image);
        }
        let mb = images.iter().map(|i| i.heap_used() as f64).sum::<f64>() / 1e6;
        out.metrics.insert("mem.image_mb", mb);
    } else {
        for _ in 0..SETUPS {
            sessions.clear();
            let started = Instant::now();
            sessions = specs
                .iter()
                .map(|&s| SimSession::build(config.clone(), s))
                .collect();
            setup_s.push(started.elapsed().as_secs_f64());
        }
    }
    let image_digests = digests(&sessions, &mut layers);

    let mut book = DigestBook::default();
    let mut op_ms = Vec::new();
    let mut queries = 0.0;
    let min_ops = if opts.traced {
        0
    } else {
        MIN_CYCLES * plans.len()
    };
    phase(plans.len(), opts.untraced_budget(), min_ops, |i| {
        let (s, plan) = &plans[i % plans.len()];
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let report = sessions[*s].run_plan(plan);
            let json = report.to_json();
            (report, json)
        }));
        op_ms.push(ms(started.elapsed()));
        let digest = result
            .ok()
            .filter(|(r, _)| sound(plan, r))
            .map(|(r, json)| {
                queries += r.queries as f64;
                fnv1a(json.as_bytes())
            });
        check(&mut out.tally, &mut book, &plan_key(i, plans.len()), digest);
        true
    });

    if opts.traced {
        phase(plans.len(), opts.traced_budget(), 0, |i| {
            let k = i % plans.len();
            let (s, plan) = &plans[k];
            let rec = &mut out.spans;
            rec.set_request(i as u64);
            let first = rec.spans().len();
            let root = rec.open("op");
            let result = catch_unwind(AssertUnwindSafe(|| match plan.mode {
                RunMode::Served { load } => {
                    served_op(rec, &mut layers, &sessions[*s], &images[*s], plan, load)
                }
                _ => {
                    let workload = sessions[*s].workload();
                    let report = traced::run_plan(rec, &config, &images[*s], workload, plan);
                    let json = rec.span("sim.report_json", || report.to_json());
                    (report, json)
                }
            }));
            rec.close_through(root);
            let op_ns = rec.duration_ns(root) as f64;
            layers.traced_ms.push(op_ns / 1e6);
            if !matches!(plan.mode, RunMode::Served { .. }) {
                layers.add_spans(rec, first);
                layers.add_op(op_ns);
            }
            let digest = result
                .ok()
                .filter(|(r, _)| sound(plan, r))
                .map(|(r, json)| {
                    if i < plans.len() {
                        layers.add_report(&r, 1.0 / plans.len() as f64);
                        if let RunMode::Served { load } = plan.mode {
                            let calls = 2.0 * f64::from(load.cores);
                            layers.add_count(
                                "serve.arrival_calls",
                                calls,
                                1.0 / plans.len() as f64,
                            );
                        }
                    }
                    fnv1a(json.as_bytes())
                });
            check(&mut out.tally, &mut book, &plan_key(i, plans.len()), digest);
            true
        });
    }

    // Forking must leave every warm image untouched.
    if digests(&sessions, &mut layers) != image_digests {
        out.tally.fail_check();
    }
    out.notes
        .push(format!("sim_digest {:016x}", book.sim_digest()));
    out.notes
        .push(format!("{} (cycle of {})", op_note(&op_ms), plans.len()));
    if opts.traced {
        layers.untraced_ms = op_ms;
        layers.finish(&mut out.metrics, plans.len());
    } else {
        end_to_end(
            &mut out.metrics,
            &op_ms,
            plans.len(),
            queries,
            &setup_s,
            peak_rss_mb("self")?,
        )?;
    }
    Ok(out)
}

fn plan_key(i: usize, period: usize) -> String {
    format!("plan{:02}", i % period)
}

/// Whether a report is believable: correct results, and for a served plan
/// every arrival offered.
fn sound(plan: &RunPlan, report: &RunReport) -> bool {
    let offered = match plan.mode {
        RunMode::Served { load } => report.stats.count("serve", "offered") == load.total_arrivals(),
        _ => true,
    };
    report.correct && offered
}

/// Each session's image digest, each call timed into `mem.digest_ms`.
fn digests(sessions: &[SimSession], layers: &mut Layers) -> Vec<u64> {
    sessions
        .iter()
        .map(|s| {
            let started = Instant::now();
            let digest = s.state_digest();
            layers.add_call("mem.digest_ms", ms(started.elapsed()));
            digest
        })
        .collect()
}

/// A traced served plan. The chip is internal to the simulator, so its
/// layers are measured from outside: one timed `arrivals` call and one
/// timed image fork beside the plan, scaled by how often the plan makes
/// them (each lane regenerates the stream in each of two passes; the
/// session and every lane fork the image). The rest of the plan is the
/// chip: admission queues, accelerator, caches, and report assembly.
fn served_op(
    rec: &mut Recorder,
    layers: &mut Layers,
    session: &SimSession,
    image: &GuestMem,
    plan: &RunPlan,
    load: LoadSpec,
) -> (RunReport, String) {
    let n_jobs = session.workload().jobs().len() as u32;
    let (_, arrivals_ns) = rec.timed("serve.arrivals", || {
        std::hint::black_box(qei_serve::arrivals(&load, n_jobs));
    });
    let (_, fork_ns) = rec.timed("mem.fork", || drop(std::hint::black_box(image.clone())));
    let (report, plan_ns) = rec.timed("serve.chip", || session.run_plan(plan));
    let (json, json_ns) = rec.timed("sim.report_json", || report.to_json());
    let cores = f64::from(load.cores);
    let arrivals_est = arrivals_ns * 2.0 * cores;
    let fork_est = fork_ns * (1.0 + cores);
    layers.add_share("serve.arrival_share", arrivals_est);
    layers.add_share("mem.fork_share", fork_est);
    layers.add_share(
        "serve.chip_share",
        (plan_ns - arrivals_est - fork_est).max(0.0),
    );
    layers.add_share("sim.report_share", json_ns);
    layers.add_op(plan_ns + json_ns);
    layers.add_call("mem.fork_ms", fork_ns / 1e6);
    layers.add_call("sim.report_json_us", json_ns / 1e3);
    (report, json)
}

/// Records one operation's outcome: failed when it panicked, reported
/// incorrect results, or repeated with a different output digest.
fn check(tally: &mut Tally, book: &mut DigestBook, key: &str, outcome: Option<u64>) {
    tally.record(outcome.is_some_and(|digest| book.record(key, digest)));
}
