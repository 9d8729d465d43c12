//! `BENCHMARK.json` and the binary must name the same workloads and
//! metrics, and a run must print exactly those metrics.

use qei_benchmark::catalogue;
use std::collections::BTreeSet;
use std::process::Command;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
const BIN: &str = env!("CARGO_BIN_EXE_qei-benchmark");

fn manifest() -> String {
    std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json sits at the repository root")
}

/// `(section, name)` for every `"name"` in the manifest; the section is the
/// last array key seen above it.
fn manifest_names(text: &str) -> BTreeSet<(String, String)> {
    let mut section = String::new();
    let mut out = BTreeSet::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(key) = line.strip_suffix(": [").and_then(|k| k.strip_prefix('"')) {
            section = key.trim_end_matches('"').to_string();
        }
        if let Some(rest) = line.strip_prefix("{\"name\": \"") {
            let name = rest.split('"').next().expect("a closing quote");
            let section = section.trim_end_matches('s').to_string();
            out.insert((section, name.to_string()));
        }
    }
    out
}

#[test]
fn benchmark_json_is_the_rendered_catalogue() {
    assert_eq!(
        manifest(),
        catalogue::manifest_json(),
        "BENCHMARK.json drifted; regenerate it with `qei-benchmark --manifest > BENCHMARK.json`"
    );
}

#[test]
fn the_file_and_the_listing_name_the_same_things() {
    let listing = Command::new(BIN)
        .arg("--list")
        .output()
        .expect("the binary runs");
    assert!(listing.status.success());
    let listed: BTreeSet<(String, String)> = String::from_utf8_lossy(&listing.stdout)
        .lines()
        .map(|l| {
            let (section, name) = l.split_once(' ').expect("section and name");
            (section.to_string(), name.to_string())
        })
        .collect();
    let in_file = manifest_names(&manifest());
    assert_eq!(listed, in_file);
    assert_eq!(
        in_file.len(),
        4 + catalogue::END_TO_END.len() + catalogue::PER_LAYER.len()
    );
}

#[test]
fn a_run_prints_exactly_the_catalogue_metrics() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("catalogue-run");
    for (trace, metrics) in [
        ("0", &catalogue::END_TO_END[..]),
        ("1", &catalogue::PER_LAYER[..]),
    ] {
        let run = Command::new(BIN)
            .args([
                "--workload",
                "served_saturated_rw",
                "--seed",
                "3",
                "--seconds",
                "0.01",
            ])
            .args(["--trace", trace])
            .arg("--out")
            .arg(&out)
            .output()
            .expect("the binary runs");
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        assert_eq!(last.matches("\"value\": ").count(), metrics.len(), "{last}");
        for m in metrics {
            assert!(
                last.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{}",
                m.name
            );
        }
    }
    let spans = std::fs::read_to_string(out.join("served_saturated_rw.spans.json"))
        .expect("a traced run writes its spans");
    assert!(spans.contains("\"name\":\"serve.arrivals\""));
    let _ = std::fs::remove_dir_all(&out);
}
