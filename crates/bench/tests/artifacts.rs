//! The committed artifacts at the workspace root pass their strict readers,
//! both built on `qei_config::json`.

use qei_bench::report::baseline_medians;
use qei_verify::ContractSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(name: &str) -> String {
    std::fs::read_to_string(workspace_root().join(name))
        .unwrap_or_else(|e| panic!("cannot read {name}: {e}"))
}

#[test]
fn contracts_json_parses_and_re_renders_byte_for_byte() {
    let text = read("CONTRACTS.json");
    let set = ContractSet::parse(&text).unwrap();
    assert_eq!(set.contracts.len(), 8);
    assert_eq!(set.to_json(), text);
}

#[test]
fn committed_bench_baselines_pass_the_strict_reader() {
    let mut names: Vec<String> = std::fs::read_dir(workspace_root())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    assert!(names.len() >= 6, "{names:?}");
    for name in names {
        let medians = baseline_medians(&read(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!medians.is_empty(), "{name} has no benches");
        assert!(medians.values().all(|m| *m > 0.0), "{name}");
    }
}

#[test]
fn a_baseline_naming_one_bench_twice_is_rejected() {
    // A lenient reader would keep the last entry and gate against it.
    let twice = r#"{"benches":{"a":{"median_ns":1.0},"a":{"median_ns":9.0}},"suite":"s"}"#;
    let err = baseline_medians(twice).unwrap_err();
    assert!(err.contains("duplicate key \"a\""), "{err}");
}
