//! `qei-benchmark`: runs one workload (or all, one process each) and
//! prints its metrics; the last stdout line is the result as JSON.

use qei_benchmark::catalogue::{self, RUN_SECONDS, WORKLOADS};
use qei_benchmark::measure::{Opts, Outcome};
use qei_benchmark::{batch, daemon};
use qei_config::{MachineConfig, Scheme};
use qei_sim::RunPlan;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};

const USAGE: &str = "usage: qei-benchmark --workload NAME|all --seed N [--seconds S] [--trace 0|1 | --traced] [--out DIR]
       qei-benchmark --list | --manifest";

fn usage(why: &str) -> ! {
    eprintln!("qei-benchmark: {why}\n{USAGE}");
    exit(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS as f64;
    let mut traced = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            traced = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--out" => out = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if workload != "all" && catalogue::workload(&workload).is_none() {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        traced,
        out,
    }
}

fn run(name: &str, opts: &Opts, out: &Path) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let served = |load| {
        let spec = batch::served_spec(opts.seed);
        batch::run(
            &[spec],
            &[(0, RunPlan::served(spec, Some(Scheme::CoreIntegrated), load))],
            opts,
        )
    };
    match name {
        "suite_batch" => {
            let specs = batch::suite_specs(opts.seed);
            batch::run(&specs, &batch::suite_plans(&specs), opts)
        }
        "served_light_c4" => served(batch::light_load(opts.seed)),
        "served_saturated_rw" => served(batch::saturated_load(opts.seed)),
        "daemon_mixed" => daemon::run(opts, &exe, out),
        other => Err(format!("no runner for workload {other}")),
    }
}

/// The result line: every catalogue metric for this run kind, no other.
fn result_json(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let expected = catalogue::metrics(traced);
    if outcome.metrics.len() != expected.len() {
        return Err(format!(
            "measured {} metrics, the catalogue lists {}",
            outcome.metrics.len(),
            expected.len()
        ));
    }
    let mut metrics = Vec::new();
    for m in expected {
        let value = outcome
            .metrics
            .get(m.name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let t = outcome.tally;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0 && t.attempted > 0,
        t.attempted,
        t.failed,
        metrics.join(", ")
    ))
}

fn summary(name: &str, args: &Args, outcome: &Outcome) -> String {
    let mut s = format!(
        "[qei-benchmark] {name} seed={} seconds={} traced={}\n",
        args.seed, args.seconds, args.traced
    );
    for m in catalogue::metrics(args.traced) {
        let value = outcome.metrics.get(m.name).copied().unwrap_or(f64::NAN);
        let _ = writeln!(s, "  {:28} {value:>16.6} {}", m.name, m.unit);
    }
    let t = outcome.tally;
    let _ = writeln!(s, "  attempted {} failed {}", t.attempted, t.failed);
    for note in &outcome.notes {
        let _ = writeln!(s, "  {note}");
    }
    s
}

fn run_one(args: &Args) -> Result<String, String> {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    let outcome = run(&args.workload, &opts, &args.out)?;
    eprint!("{}", summary(&args.workload, args, &outcome));
    if args.traced {
        std::fs::create_dir_all(&args.out)
            .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
        let path = args.out.join(format!("{}.spans.json", args.workload));
        std::fs::write(&path, outcome.spans.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    result_json(&outcome, args.traced)
}

/// Each workload in a process of its own, one after another, so peak RSS
/// and allocator state do not carry over.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name))?;
        print!("{}", String::from_utf8_lossy(&child.stdout));
        if !child.status.success() {
            return Err(format!("{} exited with {}", w.name, child.status));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", catalogue::listing());
            return;
        }
        Some("--manifest") => {
            print!("{}", catalogue::manifest_json());
            return;
        }
        Some("--daemon-child") => {
            let Some(socket) = args.get(1) else {
                usage("--daemon-child needs a socket path")
            };
            qei_sim::engine::set_default_threads(1);
            match qei_served::serve(Path::new(socket), MachineConfig::skylake_sp_24()) {
                Ok(()) => return,
                Err(e) => {
                    eprintln!("qei-benchmark daemon: {e}");
                    exit(1)
                }
            }
        }
        _ => {}
    }
    let args = parse(&args);
    // One host thread: the chip spawns a thread per lane otherwise, and
    // four lanes would oversubscribe a small host.
    qei_sim::engine::set_default_threads(1);
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args).map(|line| println!("{line}"))
    };
    if let Err(e) = result {
        eprintln!("qei-benchmark: {e}");
        exit(1);
    }
}
