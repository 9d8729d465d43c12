//! The central statistics registry every run report carries.
//!
//! Each timing component (core model, cache hierarchy, NoC, accelerator)
//! exports its counters into one [`StatsRegistry`] under a uniform
//! `group.stat` naming scheme, replacing the scattered per-component structs
//! an experiment previously had to know field-by-field. The registry
//! serializes to deterministic JSON (groups and stats in sorted order, fixed
//! float formatting), so a `RunReport` is machine-readable and two identical
//! runs — serial or parallel — produce byte-identical output.
//!
//! No serde: the environment is offline, so the encoder streams the tree
//! by hand and escapes strings with [`crate::json::write_string`].
//!
//! # Example
//!
//! ```
//! use qei_config::{StatValue, StatsRegistry};
//!
//! let mut reg = StatsRegistry::new();
//! reg.set("core", "cycles", 1234u64);
//! reg.set("core", "ipc", 2.5f64);
//! reg.set("run", "workload", "DPDK");
//! assert_eq!(reg.get("core", "cycles"), Some(&StatValue::UInt(1234)));
//! assert!(reg.to_json().starts_with("{\"core\":{"));
//! ```

use crate::json::write_string;
use std::collections::BTreeMap;
use std::fmt;

/// One recorded statistic.
#[derive(Debug, Clone, PartialEq)]
pub enum StatValue {
    /// An event count or configured size.
    UInt(u64),
    /// A derived rate, fraction, or mean.
    Float(f64),
    /// A flag.
    Bool(bool),
    /// A label (workload name, scheme, mode).
    Str(String),
    /// A log2-bucketed histogram as `(bucket index, count)` pairs in
    /// ascending bucket order (only occupied buckets are stored).
    Hist(Vec<(u32, u64)>),
}

impl From<u64> for StatValue {
    fn from(v: u64) -> Self {
        StatValue::UInt(v)
    }
}

impl From<f64> for StatValue {
    fn from(v: f64) -> Self {
        StatValue::Float(v)
    }
}

impl From<bool> for StatValue {
    fn from(v: bool) -> Self {
        StatValue::Bool(v)
    }
}

impl From<&str> for StatValue {
    fn from(v: &str) -> Self {
        StatValue::Str(v.to_owned())
    }
}

impl From<String> for StatValue {
    fn from(v: String) -> Self {
        StatValue::Str(v)
    }
}

impl From<&crate::Log2Histogram> for StatValue {
    fn from(h: &crate::Log2Histogram) -> Self {
        StatValue::Hist(h.nonzero_buckets())
    }
}

impl StatValue {
    /// The value as a u64 count, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            StatValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float (counts widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            StatValue::UInt(v) => Some(*v as f64),
            StatValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            StatValue::UInt(v) => out.push_str(&v.to_string()),
            // `{:?}` is Rust's shortest round-trip float form — stable
            // across runs, which keeps report JSON byte-identical.
            StatValue::Float(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            StatValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            StatValue::Str(v) => write_string(out, v),
            StatValue::Hist(buckets) => {
                out.push('[');
                for (i, (k, c)) in buckets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{k},{c}]"));
                }
                out.push(']');
            }
        }
    }
}

/// A two-level tree of uniformly named statistics: `group` → `stat` → value.
///
/// Both levels are kept sorted, so iteration order — and therefore the JSON
/// rendering — is deterministic regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsRegistry {
    groups: BTreeMap<String, BTreeMap<String, StatValue>>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `group.name = value`, overwriting any previous value.
    pub fn set(&mut self, group: &str, name: &str, value: impl Into<StatValue>) {
        self.groups
            .entry(group.to_owned())
            .or_default()
            .insert(name.to_owned(), value.into());
    }

    /// Looks up `group.name`.
    pub fn get(&self, group: &str, name: &str) -> Option<&StatValue> {
        self.groups.get(group)?.get(name)
    }

    /// Convenience: `group.name` as a count, zero when absent or non-integer.
    pub fn count(&self, group: &str, name: &str) -> u64 {
        self.get(group, name)
            .and_then(StatValue::as_u64)
            .unwrap_or(0)
    }

    /// Iterates groups in sorted order.
    pub fn groups(&self) -> impl Iterator<Item = (&str, &BTreeMap<String, StatValue>)> {
        self.groups.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether no statistic has been recorded.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Absorbs every stat of `other`, overwriting on collision.
    pub fn merge(&mut self, other: &StatsRegistry) {
        for (g, stats) in &other.groups {
            let dst = self.groups.entry(g.clone()).or_default();
            for (k, v) in stats {
                dst.insert(k.clone(), v.clone());
            }
        }
    }

    /// Deterministic single-line JSON rendering of the whole tree.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        for (gi, (group, stats)) in self.groups.iter().enumerate() {
            if gi > 0 {
                out.push(',');
            }
            write_string(&mut out, group);
            out.push_str(":{");
            for (si, (name, value)) in stats.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                write_string(&mut out, name);
                out.push(':');
                value.write_json(&mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

impl fmt::Display for StatsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_count() {
        let mut reg = StatsRegistry::new();
        reg.set("mem", "l1_accesses", 10u64);
        reg.set("mem", "l1_accesses", 12u64);
        assert_eq!(reg.count("mem", "l1_accesses"), 12);
        assert_eq!(reg.count("mem", "missing"), 0);
        assert_eq!(reg.get("nope", "l1_accesses"), None);
    }

    #[test]
    fn json_is_sorted_and_typed() {
        let mut reg = StatsRegistry::new();
        reg.set("run", "workload", "JVM");
        reg.set("run", "correct", true);
        reg.set("accel", "queries", 300u64);
        reg.set("accel", "occupancy", 0.75f64);
        assert_eq!(
            reg.to_json(),
            r#"{"accel":{"occupancy":0.75,"queries":300},"run":{"correct":true,"workload":"JVM"}}"#
        );
    }

    #[test]
    fn json_is_insertion_order_independent() {
        let mut a = StatsRegistry::new();
        a.set("x", "b", 1u64);
        a.set("x", "a", 2u64);
        a.set("w", "c", 3u64);
        let mut b = StatsRegistry::new();
        b.set("w", "c", 3u64);
        b.set("x", "a", 2u64);
        b.set("x", "b", 1u64);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_escapes_strings() {
        let mut reg = StatsRegistry::new();
        reg.set("run", "label", "a\"b\\c\nd");
        assert_eq!(reg.to_json(), "{\"run\":{\"label\":\"a\\\"b\\\\c\\nd\"}}");
    }

    #[test]
    fn merge_overwrites_and_extends() {
        let mut a = StatsRegistry::new();
        a.set("run", "cycles", 10u64);
        let mut b = StatsRegistry::new();
        b.set("run", "cycles", 20u64);
        b.set("noc", "bytes", 64u64);
        a.merge(&b);
        assert_eq!(a.count("run", "cycles"), 20);
        assert_eq!(a.count("noc", "bytes"), 64);
    }

    #[test]
    fn histogram_values_render_as_bucket_pairs() {
        let mut h = crate::Log2Histogram::new();
        for v in [0u64, 1, 1, 5] {
            h.record(v);
        }
        let mut reg = StatsRegistry::new();
        reg.set("accel", "latency_hist", &h);
        assert_eq!(
            reg.to_json(),
            r#"{"accel":{"latency_hist":[[0,1],[1,2],[3,1]]}}"#
        );
        assert_eq!(
            reg.get("accel", "latency_hist").and_then(StatValue::as_u64),
            None
        );
        let empty = crate::Log2Histogram::new();
        reg.set("accel", "latency_hist", &empty);
        assert_eq!(reg.to_json(), r#"{"accel":{"latency_hist":[]}}"#);
    }

    #[test]
    fn float_rendering_is_stable() {
        let mut reg = StatsRegistry::new();
        reg.set("x", "mean", 141.25f64);
        reg.set("x", "nan", f64::NAN);
        assert_eq!(reg.to_json(), r#"{"x":{"mean":141.25,"nan":null}}"#);
    }
}
