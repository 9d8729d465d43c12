//! Workspace automation. The one subcommand that matters:
//!
//! ```text
//! cargo xtask lint
//! ```
//!
//! A zero-dependency source scanner enforcing the determinism and
//! robustness rules this repository's reproducibility story rests on. The
//! simulator must produce bit-identical results run-to-run and
//! machine-to-machine, and its reports must never die on a `panic!` midway
//! through a 20-minute sweep — properties the type system cannot express,
//! so we grep for their known failure modes instead:
//!
//! * **hash-iter** — `HashMap`/`HashSet` in simulation-state crates.
//!   Hash-container iteration order is randomized per process, which turns
//!   into run-to-run divergence the moment anyone folds over one (that is
//!   exactly how the NoC utilization bug happened). Use `BTreeMap` or
//!   dense `Vec` indexing.
//! * **wall-clock** — `Instant::now`/`SystemTime` outside the bench
//!   harness. Simulated time comes from the cycle counters; host time in
//!   the model is nondeterminism smuggled in through the back door.
//! * **unwrap** — `.unwrap()`/`.expect(` in non-test code of the
//!   report-producing crates. A corrupt header or exhausted guest heap
//!   must surface as a typed error or a `panic!` with context, not
//!   `called Option::unwrap() on a None value`.
//! * **float-stats** — `f64` state fields in simulation crates.
//!   Accumulate in integers; divide once at the edge of the report.
//! * **json-codec** — a JSON parser (`struct Parser`, `fn skip_ws`) or a
//!   `\\u{:04x}` string escaper outside `crates/config/src/json.rs`. Copies
//!   drift: each one ends up with its own idea of valid JSON.
//!
//! Findings print as `path:line: [rule] message` and the process exits
//! nonzero. `xtask/lint.allow` grants file-level exemptions — each entry
//! carries a justification and goes stale (errors) when the code it
//! excuses disappears.

#![forbid(unsafe_code)]
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod scan;

use scan::{ScrubbedFile, RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        _ => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::from(2)
        }
    }
}

/// One lint finding.
struct Finding {
    rule: &'static str,
    /// Repo-relative path.
    path: String,
    line: usize,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

fn lint() -> ExitCode {
    let root = repo_root();
    let allow = match Allowlist::load(&root.join("xtask/lint.allow")) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressed = vec![0usize; allow.entries.len()];

    for file in rust_sources(&root) {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = std::fs::read_to_string(&file) else {
            eprintln!("error: cannot read {rel}");
            return ExitCode::FAILURE;
        };
        let scrubbed = ScrubbedFile::new(&text);
        for rule in RULES {
            if !(rule.applies)(&rel) {
                continue;
            }
            for (line, message) in (rule.check)(&scrubbed) {
                match allow.lookup(rule.name, &rel) {
                    Some(i) => suppressed[i] += 1,
                    None => findings.push(Finding {
                        rule: rule.name,
                        path: rel.clone(),
                        line,
                        message,
                    }),
                }
            }
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    for f in &findings {
        println!("{f}");
    }

    let mut stale = false;
    for (i, entry) in allow.entries.iter().enumerate() {
        if suppressed[i] == 0 {
            stale = true;
            println!(
                "xtask/lint.allow:{}: stale allowlist entry `{} {}` suppresses nothing; remove it",
                entry.line, entry.rule, entry.path
            );
        }
    }

    if findings.is_empty() && !stale {
        println!("lint clean: {} rules over the workspace", RULES.len());
        ExitCode::SUCCESS
    } else {
        println!(
            "{} finding(s){}",
            findings.len(),
            if stale {
                " + stale allowlist entries"
            } else {
                ""
            }
        );
        ExitCode::FAILURE
    }
}

/// The workspace root: xtask's manifest dir is `<root>/xtask`.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent() {
        Some(p) => p.to_path_buf(),
        None => manifest,
    }
}

/// All `.rs` files under `crates/*/src`, the facade crate's `src`, and
/// `xtask/src` (the linter lints itself), skipping `tests/`, `benches/` and
/// `examples/` trees — the rules target shipping simulation code, not test
/// scaffolding.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut roots: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for e in entries.flatten() {
            roots.push(e.path().join("src"));
        }
    }
    roots.push(root.join("src"));
    roots.push(root.join("xtask/src"));
    for r in roots {
        walk(&r, &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

struct AllowEntry {
    rule: String,
    path: String,
    line: usize,
}

struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    fn load(path: &Path) -> Result<Allowlist, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(_) => {
                return Ok(Allowlist {
                    entries: Vec::new(),
                })
            }
        };
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (Some(rule), Some(file)) = (parts.next(), parts.next()) else {
                return Err(format!(
                    "xtask/lint.allow:{}: expected `<rule> <path> <justification>`",
                    i + 1
                ));
            };
            if !RULES.iter().any(|r| r.name == rule) {
                return Err(format!("xtask/lint.allow:{}: unknown rule `{rule}`", i + 1));
            }
            let justification = parts.next().map(str::trim).unwrap_or("");
            if justification.is_empty() {
                return Err(format!(
                    "xtask/lint.allow:{}: entry for `{file}` has no justification",
                    i + 1
                ));
            }
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path: file.to_string(),
                line: i + 1,
            });
        }
        Ok(Allowlist { entries })
    }

    fn lookup(&self, rule: &str, path: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.rule == rule && e.path == path)
    }
}
