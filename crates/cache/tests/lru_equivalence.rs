//! Property test: the flat-arena [`SetCache`] is observationally identical
//! to a straightforward MRU-ordered-list reference model — same [`Touch`]
//! sequence (hit/miss and writeback victim), same [`CacheStats`], same
//! residency — over randomized access streams across several geometries.
//! The streams mix in the fused read-through touch
//! ([`SetCache::access_if_resident`]), whose reference is the `probe` then
//! `access` pair it replaced.

use qei_cache::set_cache::Touch;
use qei_cache::SetCache;
use qei_config::{CacheParams, SimRng};

/// The pre-rewrite implementation: per set, an MRU-ordered `(line, dirty)`
/// list. Hits move to the front; misses insert at the front and evict the
/// back once the set overflows.
struct MruReference {
    sets: Vec<Vec<(u64, bool)>>,
    ways: usize,
    hits: u64,
    total: u64,
    evictions: u64,
    writebacks: u64,
}

impl MruReference {
    fn new(params: CacheParams) -> Self {
        let lines = params.size_bytes / params.line_bytes as u64;
        let n_sets = (lines / params.ways as u64) as usize;
        MruReference {
            sets: vec![Vec::new(); n_sets],
            ways: params.ways as usize,
            hits: 0,
            total: 0,
            evictions: 0,
            writebacks: 0,
        }
    }

    fn set_index(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn access(&mut self, line: u64, write: bool) -> Touch {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        self.total += 1;
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let (l, d) = set.remove(pos);
            set.insert(0, (l, d || write));
            self.hits += 1;
            return Touch {
                hit: true,
                writeback: None,
            };
        }
        set.insert(0, (line, write));
        let mut writeback = None;
        if set.len() > self.ways {
            let (evicted, dirty) = set.pop().expect("overfull set");
            self.evictions += 1;
            if dirty {
                self.writebacks += 1;
                writeback = Some(evicted);
            }
        }
        Touch {
            hit: false,
            writeback,
        }
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let (_, dirty) = set.remove(pos);
            dirty
        } else {
            false
        }
    }

    fn probe(&self, line: u64) -> bool {
        self.sets[self.set_index(line)]
            .iter()
            .any(|&(l, _)| l == line)
    }

    /// The Core-integrated read-through path before the fused touch: an
    /// `access` only when a `probe` finds the line.
    fn access_if_resident(&mut self, line: u64, write: bool) -> bool {
        if !self.probe(line) {
            return false;
        }
        self.access(line, write);
        true
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Drives both models with the same randomized stream and asserts they never
/// diverge. The line range is kept narrow relative to capacity so sets see
/// heavy conflict, eviction, and re-reference traffic.
fn assert_equivalent(params: CacheParams, seed: u64, accesses: usize) {
    let mut flat = SetCache::new(params);
    let mut reference = MruReference::new(params);
    let lines = params.size_bytes / params.line_bytes as u64;
    let hot_range = (lines * 3).max(8);
    let mut rng = SimRng::seed_from_u64(seed);
    for step in 0..accesses {
        let line = rng.below(hot_range);
        if rng.gen_bool(0.02) {
            assert_eq!(
                flat.invalidate(line),
                reference.invalidate(line),
                "invalidate({line}) diverged at step {step}"
            );
            continue;
        }
        let write = rng.gen_bool(0.3);
        if rng.gen_bool(0.15) {
            let before = (flat.stats(), flat.resident_lines());
            let hit = flat.access_if_resident(line, write);
            assert_eq!(
                hit,
                reference.access_if_resident(line, write),
                "access_if_resident({line}, {write}) diverged at step {step}"
            );
            if !hit {
                let after = (flat.stats(), flat.resident_lines());
                assert_eq!(
                    format!("{after:?}"),
                    format!("{before:?}"),
                    "miss changed state"
                );
            }
            continue;
        }
        let got = flat.access(line, write);
        let want = reference.access(line, write);
        assert_eq!(got, want, "access({line}, {write}) diverged at step {step}");
        if rng.gen_bool(0.05) {
            let probe_line = rng.below(hot_range);
            assert_eq!(
                flat.probe(probe_line),
                reference.probe(probe_line),
                "probe({probe_line}) diverged at step {step}"
            );
        }
    }
    let stats = flat.stats();
    assert_eq!(stats.accesses.hits, reference.hits);
    assert_eq!(stats.accesses.total, reference.total);
    assert_eq!(stats.evictions, reference.evictions);
    assert_eq!(stats.writebacks, reference.writebacks);
    assert_eq!(flat.resident_lines(), reference.resident_lines());
    for line in 0..hot_range {
        assert_eq!(flat.probe(line), reference.probe(line), "residency {line}");
    }
}

#[test]
fn flat_arena_matches_mru_reference_across_geometries() {
    let geometries = [
        // Direct-mapped.
        CacheParams {
            size_bytes: 1024,
            ways: 1,
            line_bytes: 64,
            latency: 1,
        },
        // Small 2-way (power-of-two sets).
        CacheParams {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 4,
        },
        // 4-way with a non-power-of-two set count (12 sets).
        CacheParams {
            size_bytes: 3072,
            ways: 4,
            line_bytes: 64,
            latency: 4,
        },
        // Single-set, fully associative at 8 ways.
        CacheParams {
            size_bytes: 512,
            ways: 8,
            line_bytes: 64,
            latency: 10,
        },
        // L1-shaped: 64 sets x 8 ways.
        CacheParams {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 4,
        },
    ];
    for (i, &params) in geometries.iter().enumerate() {
        for seed in 0..4u64 {
            assert_equivalent(params, seed * 31 + i as u64, 20_000);
        }
    }
}
