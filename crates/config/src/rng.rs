//! Deterministic pseudo-random number generation for the simulation.
//!
//! The environment this reproduction builds in is fully offline, so instead
//! of an external `rand` dependency the workspace shares this one small,
//! seeded generator. Determinism is load-bearing: the [`crate::registry`]
//! JSON a run emits must be byte-identical whether plans execute serially or
//! in parallel, which requires every workload build and guest layout to be a
//! pure function of its seed.
//!
//! The core is xoshiro256** (Blackman & Vigna), seeded through splitmix64 —
//! the same construction `rand`'s small-rng family uses.
//!
//! # Example
//!
//! ```
//! use qei_config::SimRng;
//!
//! let mut a = SimRng::seed_from_u64(7);
//! let mut b = SimRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// A small, fast, deterministic PRNG (xoshiro256**).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator whose whole stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    // `next_u64` and `below` are `#[inline]` so other crates can inline
    // them without LTO: the arrival process calls `below` once per
    // simulated gap cycle, and a call per draw costs more than the draw.

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift rejection (Lemire): unbiased without division in
        // the common case.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in `[lo, hi]` (inclusive bounds).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // 53 bits of mantissa are plenty for the hit-rate knobs used here.
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_produce_distinct_streams() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn range_inclusive_hits_both_ends() {
        let mut rng = SimRng::seed_from_u64(4);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..400 {
            let v = rng.range_inclusive(3, 12);
            assert!((3..=12).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 12;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SimRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.9)).count();
        assert!((8_700..=9_300).contains(&hits), "hits {hits}");
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
    }

    #[test]
    fn shuffle_permutes_deterministically() {
        let mut a: Vec<u32> = (0..64).collect();
        let mut b = a.clone();
        SimRng::seed_from_u64(6).shuffle(&mut a);
        SimRng::seed_from_u64(6).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(a, sorted, "64 elements should not shuffle to identity");
    }
}
