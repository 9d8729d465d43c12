//! Bench results as data: a [`BenchSuite`] session collects the
//! [`BenchRecord`]s a bench binary produces, writes them to a deterministic
//! `BENCH_<suite>.json` report, and — in `--check <baseline>` mode — fails
//! the process when any bench's median time regresses past a threshold
//! relative to a committed baseline report, or when the run and the
//! baseline disagree about which benches exist (a dropped bench would
//! otherwise silently escape the gate). The median, not the mean, is
//! compared: one scheduler hiccup moves a mean but not a median.
//!
//! No serde: the environment is offline, so the encoder streams
//! `StatsRegistry`'s layout style (sorted keys, `{:?}` float formatting)
//! by hand, and the baseline reader walks a [`qei_config::json`] tree —
//! the workspace's one strict parser.
//!
//! CLI (arguments after `cargo bench --`):
//!
//! * `--check <path>` — compare against a baseline `BENCH_<suite>.json`
//!   (or a directory containing one) and exit non-zero on regression;
//! * `--threshold <pct>` — median-time regression tolerance in percent
//!   (default 25).
//!
//! Reports land in `target/qei-bench/` unless `QEI_BENCH_OUT` names another
//! directory. Relative paths resolve against the workspace root, not the
//! bench binary's working directory. The baseline is read before anything
//! is written, and a run whose report would overwrite its own baseline is
//! refused.

use qei_config::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Component, Path, PathBuf};

/// Statistics for one measured bench, in nanoseconds per call.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Bench name as printed (e.g. `accel_submit/CHA-TLB`).
    pub name: String,
    /// Fastest sampled call.
    pub min_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Median over all samples — the statistic the regression gate
    /// compares (robust against scheduler outliers).
    pub median_ns: f64,
    /// Slowest sampled call.
    pub max_ns: f64,
    /// Number of measured samples.
    pub samples: usize,
}

/// Default median-regression tolerance, in percent.
pub const DEFAULT_THRESHOLD_PCT: f64 = 25.0;

/// A bench binary's result session: collects records, then writes the
/// report and runs the optional regression check in [`BenchSuite::finish`].
#[derive(Debug)]
pub struct BenchSuite {
    name: &'static str,
    records: Vec<BenchRecord>,
    check: Option<PathBuf>,
    threshold_pct: f64,
}

impl BenchSuite {
    /// Opens a suite, parsing `--check` / `--threshold` from the process
    /// arguments. Unknown arguments (cargo's own flags) are ignored.
    pub fn from_args(name: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_arg_slice(name, &args)
    }

    fn from_arg_slice(name: &'static str, args: &[String]) -> Self {
        let mut suite = BenchSuite {
            name,
            records: Vec::new(),
            check: None,
            threshold_pct: DEFAULT_THRESHOLD_PCT,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--check" => {
                    i += 1;
                    match args.get(i) {
                        Some(p) => suite.check = Some(PathBuf::from(p)),
                        None => eprintln!("warning: --check takes a baseline path; ignored"),
                    }
                }
                "--threshold" => {
                    i += 1;
                    match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                        Some(pct) if pct >= 0.0 => suite.threshold_pct = pct,
                        _ => eprintln!(
                            "warning: --threshold takes a non-negative percentage; using {DEFAULT_THRESHOLD_PCT}"
                        ),
                    }
                }
                _ => {}
            }
            i += 1;
        }
        suite
    }

    /// Times `f` via [`crate::harness::bench`] and records the result.
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) {
        let rec = crate::harness::bench(name, f);
        self.records.push(rec);
    }

    /// Times `f` with per-call setup via [`crate::harness::bench_with_setup`]
    /// and records the result.
    pub fn bench_with_setup<S, T>(
        &mut self,
        name: &str,
        setup: impl FnMut() -> S,
        f: impl FnMut(S) -> T,
    ) {
        let rec = crate::harness::bench_with_setup(name, setup, f);
        self.records.push(rec);
    }

    /// The records collected so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Reads the `--check` baseline if one was requested, writes
    /// `BENCH_<suite>.json`, runs the comparison, and exits the process
    /// non-zero on regression or I/O failure. Call as the last statement of
    /// a bench `main`.
    pub fn finish(self) {
        let out_dir = std::env::var_os("QEI_BENCH_OUT").map(PathBuf::from);
        let paths = report_paths(
            self.name,
            workspace_root(),
            out_dir.as_deref(),
            self.check.as_deref(),
            Path::is_dir,
        );
        let (out_path, baseline) = match paths {
            Ok(paths) => paths,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let baseline = baseline.map(|path| {
            let medians = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| baseline_medians(&text));
            match medians {
                Ok(medians) => (path, medians),
                Err(e) => {
                    eprintln!("error: baseline {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        });

        let mut body = render_report(self.name, &self.records);
        body.push('\n');
        let written = match out_path.parent() {
            Some(dir) => {
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&out_path, body))
            }
            None => std::fs::write(&out_path, body),
        };
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", out_path.display());
            std::process::exit(1);
        }
        println!("bench report written to {}", out_path.display());

        let Some((baseline, medians)) = baseline else {
            return;
        };
        let outcome = compare(&self.records, &medians, self.threshold_pct);
        println!(
            "check vs {} (median-time threshold +{}%)",
            baseline.display(),
            self.threshold_pct
        );
        for line in &outcome.lines {
            println!("  {line}");
        }
        let mut failed = false;
        if !outcome.regressed.is_empty() {
            eprintln!(
                "check FAILED: {} bench(es) regressed past +{}%: {}",
                outcome.regressed.len(),
                self.threshold_pct,
                outcome.regressed.join(", ")
            );
            failed = true;
        }
        if !outcome.mismatched.is_empty() {
            eprintln!(
                "check FAILED: {} bench(es) present on only one side (stale baseline or dropped bench): {}",
                outcome.mismatched.len(),
                outcome.mismatched.join(", ")
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed: no bench regressed past the threshold");
    }
}

/// The workspace root, independent of the bench binary's working directory
/// (cargo runs bench targets from the package directory).
fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Default report directory, relative to the workspace root.
const DEFAULT_OUT_DIR: &str = "target/qei-bench";

/// Decides where a run writes `BENCH_<suite>.json` and which baseline file
/// it checks against, as `(report, baseline)`. Reports go to `out_dir` or,
/// by default, [`DEFAULT_OUT_DIR`]; a `check` path that `is_dir` names the
/// suite's report inside it. Relative paths resolve against `root`.
///
/// # Errors
///
/// Refuses a report path that is the baseline itself: the run would
/// overwrite its baseline and then compare against its own numbers.
fn report_paths(
    suite: &str,
    root: &Path,
    out_dir: Option<&Path>,
    check: Option<&Path>,
    is_dir: impl Fn(&Path) -> bool,
) -> Result<(PathBuf, Option<PathBuf>), String> {
    let file = format!("BENCH_{suite}.json");
    let resolve = |p: &Path| normalize(&root.join(p));
    let report = resolve(out_dir.unwrap_or(Path::new(DEFAULT_OUT_DIR))).join(&file);
    let baseline = check
        .map(resolve)
        .map(|b| if is_dir(&b) { b.join(&file) } else { b });
    if let Some(b) = baseline.as_ref().filter(|&b| *b == report) {
        return Err(format!(
            "the report {} would overwrite the --check baseline {}; point QEI_BENCH_OUT elsewhere",
            report.display(),
            b.display()
        ));
    }
    Ok((report, baseline))
}

/// `p` with `.` components dropped and each `..` folded into its parent, so
/// two spellings of one path compare equal without touching the filesystem.
fn normalize(p: &Path) -> PathBuf {
    let mut out = PathBuf::new();
    for c in p.components() {
        match c {
            Component::CurDir => {}
            Component::ParentDir if out.file_name().is_some() => {
                out.pop();
            }
            c => out.push(c),
        }
    }
    out
}

// --- report encoding -------------------------------------------------------

/// Renders the deterministic report: benches in sorted order, fields in
/// sorted order, `{:?}` float formatting (matching `StatsRegistry`).
pub fn render_report(suite: &str, records: &[BenchRecord]) -> String {
    let sorted: BTreeMap<&str, &BenchRecord> =
        records.iter().map(|r| (r.name.as_str(), r)).collect();
    let mut out = String::from("{\"benches\":{");
    for (i, (name, r)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_string(&mut out, name);
        let _ = write!(
            out,
            ":{{\"max_ns\":{:?},\"mean_ns\":{:?},\"median_ns\":{:?},\"min_ns\":{:?},\"samples\":{}}}",
            r.max_ns, r.mean_ns, r.median_ns, r.min_ns, r.samples
        );
    }
    out.push_str("},\"suite\":");
    json::write_string(&mut out, suite);
    out.push('}');
    out
}

// --- report decoding -------------------------------------------------------

/// Median times per bench from a baseline report body: a strict
/// [`json::parse`] (a duplicated bench name is an error, not a silent
/// overwrite), then a `benches` object whose every record carries a
/// numeric `median_ns`.
///
/// # Errors
///
/// A human-readable description of the first problem.
pub fn baseline_medians(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(text)?;
    let Some(Value::Obj(benches)) = doc.get("benches") else {
        return Err("report has no \"benches\" object".into());
    };
    benches
        .iter()
        .map(
            |(name, record)| match record.get("median_ns").and_then(Value::as_f64) {
                Some(median) => Ok((name.clone(), median)),
                None => Err(format!("bench {name:?} has no numeric median_ns")),
            },
        )
        .collect()
}

/// Result of comparing a run against a baseline.
struct CompareOutcome {
    /// Human-readable per-bench lines, in sorted bench order.
    lines: Vec<String>,
    /// Names of benches whose median regressed past the threshold.
    regressed: Vec<String>,
    /// Benches present on only one side — a stale baseline or a silently
    /// dropped bench, either of which would let regressions slip through.
    mismatched: Vec<String>,
}

/// Compares current records against a baseline's medians. Benches present
/// only on one side land in `mismatched` and fail the check: a bench that
/// disappears from the run is exactly how a regression gate goes blind.
fn compare(
    current: &[BenchRecord],
    baseline: &BTreeMap<String, f64>,
    threshold_pct: f64,
) -> CompareOutcome {
    let current: BTreeMap<&str, &BenchRecord> =
        current.iter().map(|r| (r.name.as_str(), r)).collect();
    let mut lines = Vec::new();
    let mut regressed = Vec::new();
    let mut mismatched = Vec::new();
    for (name, rec) in &current {
        let Some(&base) = baseline.get(*name) else {
            lines.push(format!("{name:40} new bench (no baseline entry)"));
            mismatched.push((*name).to_owned());
            continue;
        };
        let delta_pct = if base > 0.0 {
            (rec.median_ns - base) / base * 100.0
        } else if rec.median_ns > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        let fail = delta_pct > threshold_pct;
        lines.push(format!(
            "{name:40} {:>12.1}ns median vs {:>12.1}ns baseline  ({delta_pct:+.1}%)  {}",
            rec.median_ns,
            base,
            if fail { "REGRESSED" } else { "ok" }
        ));
        if fail {
            regressed.push((*name).to_owned());
        }
    }
    for name in baseline.keys() {
        if !current.contains_key(name.as_str()) {
            lines.push(format!("{name:40} in baseline but not measured this run"));
            mismatched.push(name.clone());
        }
    }
    CompareOutcome {
        lines,
        regressed,
        mismatched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, median_ns: f64) -> BenchRecord {
        BenchRecord {
            name: name.to_owned(),
            min_ns: median_ns * 0.8,
            mean_ns: median_ns * 1.05,
            median_ns,
            max_ns: median_ns * 1.5,
            samples: 50,
        }
    }

    /// A baseline's medians, as `finish` reads them from a report.
    fn medians(records: &[BenchRecord]) -> BTreeMap<String, f64> {
        baseline_medians(&render_report("s", records)).unwrap()
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let records = [rec("b/two", 120.5), rec("a_one", 60.0)];
        let body = render_report("substrate", &records);
        // Benches sort by name regardless of record order.
        assert!(body.find("a_one").unwrap() < body.find("b/two").unwrap());
        let medians = baseline_medians(&body).unwrap();
        assert_eq!(medians.len(), 2);
        assert_eq!(medians["a_one"], 60.0);
        assert_eq!(medians["b/two"], 120.5);
    }

    #[test]
    fn render_is_deterministic_across_record_order() {
        let a = render_report("s", &[rec("x", 1.0), rec("y", 2.0)]);
        let b = render_report("s", &[rec("y", 2.0), rec("x", 1.0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn compare_flags_only_past_threshold_regressions() {
        let baseline = medians(&[rec("fast", 100.0), rec("slow", 100.0)]);
        // fast regresses 10% (within 25%), slow regresses 60% (fails).
        let outcome = compare(&[rec("fast", 110.0), rec("slow", 160.0)], &baseline, 25.0);
        assert_eq!(outcome.regressed, vec!["slow".to_owned()]);
        assert!(outcome.lines.iter().any(|l| l.contains("REGRESSED")));
    }

    #[test]
    fn compare_fails_a_bench_missing_from_the_run() {
        // A bench in the baseline that this run never measured means the
        // gate is blind to it — that must fail, not warn.
        let baseline = medians(&[rec("kept", 100.0), rec("dropped", 100.0)]);
        let outcome = compare(&[rec("kept", 100.0)], &baseline, 25.0);
        assert!(outcome.regressed.is_empty());
        assert_eq!(outcome.mismatched, vec!["dropped".to_owned()]);
        assert!(outcome.lines.iter().any(|l| l.contains("not measured")));
    }

    #[test]
    fn compare_fails_a_bench_missing_from_the_baseline() {
        // A new bench with no baseline entry means the committed baseline
        // is stale and must be regenerated.
        let baseline = medians(&[rec("old", 100.0)]);
        let outcome = compare(&[rec("old", 100.0), rec("new", 5_000.0)], &baseline, 25.0);
        assert!(outcome.regressed.is_empty());
        assert_eq!(outcome.mismatched, vec!["new".to_owned()]);
        assert!(outcome.lines.iter().any(|l| l.contains("new bench")));
    }

    #[test]
    fn matched_benches_produce_no_mismatches() {
        let baseline = medians(&[rec("a", 100.0), rec("b", 100.0)]);
        let outcome = compare(&[rec("a", 101.0), rec("b", 99.0)], &baseline, 25.0);
        assert!(outcome.mismatched.is_empty());
        assert!(outcome.regressed.is_empty());
    }

    #[test]
    fn improvements_never_fail() {
        let baseline = medians(&[rec("b", 100.0)]);
        let outcome = compare(&[rec("b", 10.0)], &baseline, 0.0);
        assert!(outcome.regressed.is_empty());
    }

    #[test]
    fn compare_reads_medians_not_means() {
        let baseline = medians(&[rec("a", 100.0), rec("b", 100.0)]);
        // An outlier-inflated mean with a steady median passes; a median
        // regression fails even when the mean looks steady.
        let mut noisy = rec("a", 100.0);
        noisy.mean_ns = 1_000.0;
        let mut slower = rec("b", 200.0);
        slower.mean_ns = 105.0;
        let outcome = compare(&[noisy, slower], &baseline, 25.0);
        assert_eq!(outcome.regressed, vec!["b".to_owned()]);
        assert!(outcome.lines.iter().all(|l| l.contains("median")));
    }

    #[test]
    fn baseline_reader_rejects_garbage() {
        for bad in [
            "not json",
            "{\"a\":}",
            "{} trailing",
            "{\"suite\":\"s\"}",
            "{\"benches\":{\"x\":{\"mean_ns\":1.0}}}",
            "{\"benches\":{\"x\":{\"median_ns\":\"fast\"}}}",
            "{\"benches\":{\"x\":{\"median_ns\":1.0},\"x\":{\"median_ns\":2.0}}}",
            "{\"benches\":{\"\\q\":{\"median_ns\":1.0}}}",
        ] {
            assert!(baseline_medians(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn reports_default_under_target_and_baselines_resolve_against_root() {
        let root = Path::new("/ws/crates/bench/../..");
        let is_dir = |p: &Path| p == Path::new("/ws");
        let (report, baseline) =
            report_paths("sub", root, None, Some(Path::new(".")), is_dir).unwrap();
        assert_eq!(report, Path::new("/ws/target/qei-bench/BENCH_sub.json"));
        assert_eq!(baseline.as_deref(), Some(Path::new("/ws/BENCH_sub.json")));
        // QEI_BENCH_OUT overrides the directory; a baseline file is taken
        // as named; no --check means no baseline.
        let out = Some(Path::new("out"));
        let check = Some(Path::new("old/BENCH_sub.json"));
        let (report, baseline) = report_paths("sub", root, out, check, is_dir).unwrap();
        assert_eq!(report, Path::new("/ws/out/BENCH_sub.json"));
        assert_eq!(
            baseline.as_deref(),
            Some(Path::new("/ws/old/BENCH_sub.json"))
        );
        let (_, baseline) = report_paths("sub", root, out, None, is_dir).unwrap();
        assert_eq!(baseline, None);
    }

    #[test]
    fn a_report_never_overwrites_its_baseline() {
        let root = Path::new("/ws");
        let is_dir = |p: &Path| p == Path::new("/ws");
        // The same file, spelled as a directory and as a file, relative and
        // absolute.
        for (out, check) in [
            (".", "."),
            ("/ws", "BENCH_sub.json"),
            ("./target/..", "/ws/./BENCH_sub.json"),
        ] {
            let err = report_paths(
                "sub",
                root,
                Some(Path::new(out)),
                Some(Path::new(check)),
                is_dir,
            )
            .unwrap_err();
            assert_eq!(
                err.matches("/ws/BENCH_sub.json").count(),
                2,
                "names the report and the baseline: {err}"
            );
        }
        // The default directory never collides with a root baseline.
        assert!(report_paths("sub", root, None, Some(Path::new(".")), is_dir).is_ok());
    }

    #[test]
    fn arg_parsing_reads_check_and_threshold() {
        let args: Vec<String> = ["--quiet", "--check", "base.json", "--threshold", "50"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let suite = BenchSuite::from_arg_slice("s", &args);
        assert_eq!(suite.check.as_deref(), Some(Path::new("base.json")));
        assert_eq!(suite.threshold_pct, 50.0);
        let plain = BenchSuite::from_arg_slice("s", &[]);
        assert!(plain.check.is_none());
        assert_eq!(plain.threshold_pct, DEFAULT_THRESHOLD_PCT);
    }
}
