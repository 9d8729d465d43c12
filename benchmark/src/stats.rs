//! Sample statistics and outcome accounting shared by every workload.

use std::collections::BTreeMap;
use std::time::Duration;

/// FNV-1a over `bytes`: the digest a report or response is pinned by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 of `seed` and `salt`: derives every input seed from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile `p` (in percent) of `samples`, or `None` when
/// fewer than ten samples lie beyond it: a tail read off a handful of
/// points is noise, so it is refused rather than reported.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    let n = samples.len();
    let rank = (p as usize * n).div_ceil(100);
    if rank == 0 || n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median with the midpoint rule, for small sample sets (set-up times)
/// where the ten-beyond rule cannot apply.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Milliseconds in `d`, with every digit the clock gave.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Operations attempted and failed. A failure is a panicking plan, an
/// `"ok":false` response or socket error, a wrong answer, or a repeat whose
/// output digest differs from the first run of the same operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a failed end-of-run check against the operations already
    /// attempted.
    pub fn fail_check(&mut self) {
        self.failed += 1;
    }
}

/// First-seen output digest per operation: repeats of a deterministic
/// operation must reproduce it exactly.
#[derive(Debug, Default)]
pub struct DigestBook {
    first: BTreeMap<String, u64>,
}

impl DigestBook {
    /// Records `digest` for operation `key`; `false` when a previous run of
    /// `key` produced a different digest.
    pub fn record(&mut self, key: &str, digest: u64) -> bool {
        *self.first.entry(key.to_string()).or_insert(digest) == digest
    }

    /// FNV over the distinct operations' first digests, in key order: the
    /// run's simulated-statistics fingerprint (host time does not enter).
    pub fn sim_digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for (key, digest) in &self.first {
            bytes.extend_from_slice(key.as_bytes());
            bytes.extend_from_slice(&digest.to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let s999: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&s999, 99), None);
        let s1000: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&s1000, 99), Some(989.0));
    }

    #[test]
    fn p90_and_p50_follow_the_same_rule() {
        let s99: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&s99, 90), None);
        let s100: Vec<f64> = (0..100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s100, 90), Some(89.0));
        assert_eq!(percentile(&s100, 50), Some(49.0));
        assert_eq!(percentile(&[1.0; 19], 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tampered_repeat_digest_counts_as_a_failure() {
        let mut book = DigestBook::default();
        let mut tally = Tally::default();
        tally.record(book.record("plan-0", 0xAB));
        tally.record(book.record("plan-1", 0xCD));
        tally.record(book.record("plan-0", 0xAB));
        assert_eq!(tally.failed, 0);
        tally.record(book.record("plan-0", 0xAB ^ 1));
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        // The first digest stays the reference after a mismatch.
        assert!(book.record("plan-0", 0xAB));
    }

    #[test]
    fn sim_digest_depends_on_outputs_only() {
        let mut a = DigestBook::default();
        let mut b = DigestBook::default();
        a.record("x", 1);
        a.record("y", 2);
        b.record("y", 2);
        b.record("x", 1);
        b.record("x", 1);
        assert_eq!(a.sim_digest(), b.sim_digest());
        b.record("z", 3);
        assert_ne!(a.sim_digest(), b.sim_digest());
    }

    #[test]
    fn mix_separates_salts_and_seeds() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
