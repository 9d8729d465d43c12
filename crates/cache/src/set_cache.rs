//! A set-associative cache tag store with true-LRU replacement and
//! write-back dirty tracking.
//!
//! Storage is a two-level flat arena, like [`qei_mem`]'s physical memory: a
//! per-set index (`set_slot`, 4 bytes per set, 0 = never touched) points
//! into one dense `slots` array of `(tag, age << 1 | dirty)` pairs that
//! grows by one `ways`-sized group the first time a set is accessed.
//! Construction therefore touches memory proportional to the *set count*
//! (a few KB even for a 33 MB LLC slice), and steady-state accesses are a
//! single forward scan of at most `ways` contiguous pairs — no per-set
//! `Vec`s, no per-access allocation, no element shifting. Hierarchies are
//! constructed inside measured runs, so both properties matter: a naive
//! `n_sets * ways` flat preallocation costs a multi-megabyte zeroing (or,
//! via `alloc_zeroed`, the same cost again as first-touch page faults) per
//! run.
//!
//! Recency is tracked with monotonically increasing age stamps: a hit
//! restamps its slot, and the miss victim is the slot with the smallest
//! stamp (an empty slot carries stamp 0, so sets fill before they evict).
//! The dirty bit sits below the age, and an empty slot is always clean, so
//! the smallest packed word is the smallest age. This is observationally
//! identical to an MRU-ordered list — the victim is always the
//! least-recently-accessed line. `tests/lru_equivalence.rs` pins the
//! equivalence against a reference MRU-list model.

use qei_config::{CacheParams, Ratio};

/// An empty slot: a line no physical address reaches (line numbers are
/// below 2^58) and age 0, clean — the packed word every resident line beats.
const EMPTY: (u64, u64) = (u64::MAX, 0);

/// One cache's tag array. Data always lives in guest memory (the simulator is
/// functionally coherent by construction); the cache decides *timing* only.
#[derive(Debug, Clone)]
pub struct SetCache {
    /// Per-set handle into `slots`: 0 = set never touched, else
    /// `dense_group + 1` where the set's slots live at
    /// `dense_group * ways ..`.
    set_slot: Box<[u32]>,
    /// `(line, age << 1 | dirty)` per allocated slot; empty slots hold
    /// [`EMPTY`].
    slots: Vec<(u64, u64)>,
    n_sets: u64,
    /// `n_sets - 1` when the set count is a power of two, else 0 — lets the
    /// common geometry index with a mask instead of a division.
    set_mask: u64,
    ways: usize,
    latency: u64,
    /// Global age counter; incremented once per [`SetCache::access`].
    clock: u64,
    stats: CacheStats,
}

/// Hit/miss and eviction statistics for one cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Access outcomes.
    pub accesses: Ratio,
    /// Lines evicted.
    pub evictions: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

/// Result of touching one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// Whether the line was resident.
    pub hit: bool,
    /// A dirty line that was evicted to make room, if any.
    pub writeback: Option<u64>,
}

impl SetCache {
    /// Builds a cache from its geometry. For sliced caches (the LLC) pass the
    /// per-slice capacity.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry.
    pub fn new(params: CacheParams) -> Self {
        let lines = params.size_bytes / params.line_bytes as u64;
        assert!(lines > 0 && params.ways > 0);
        assert!(
            lines.is_multiple_of(params.ways as u64),
            "geometry must divide evenly"
        );
        let n_sets = lines / params.ways as u64;
        assert!(n_sets <= u32::MAX as u64, "set count overflows the index");
        SetCache {
            set_slot: vec![0u32; n_sets as usize].into_boxed_slice(),
            slots: Vec::new(),
            n_sets,
            set_mask: if n_sets.is_power_of_two() {
                n_sets - 1
            } else {
                0
            },
            ways: params.ways as usize,
            latency: params.latency,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// This level's access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        (if self.set_mask != 0 {
            line & self.set_mask
        } else {
            line % self.n_sets
        }) as usize
    }

    /// Base slot of `line`'s set in `slots`, if the set has ever been
    /// touched.
    #[inline]
    fn dense_base(&self, line: u64) -> Option<usize> {
        match self.set_slot[self.set_index(line)] {
            0 => None,
            group => Some((group as usize - 1) * self.ways),
        }
    }

    /// Base slot of `line`'s set, allocating the set's dense group on first
    /// touch.
    #[inline]
    fn dense_base_or_alloc(&mut self, line: u64) -> usize {
        let set = self.set_index(line);
        match self.set_slot[set] {
            0 => {
                let group = self.slots.len() / self.ways;
                self.set_slot[set] = group as u32 + 1;
                self.slots.resize(self.slots.len() + self.ways, EMPTY);
                group * self.ways
            }
            group => (group as usize - 1) * self.ways,
        }
    }

    /// Accesses `line` (a 64 B-aligned line address divided by 64), filling on
    /// miss. `write` marks the line dirty. One pass over the set: the same
    /// scan that finds the line also finds the fill/victim slot.
    pub fn access(&mut self, line: u64, write: bool) -> Touch {
        debug_assert_ne!(line, EMPTY.0, "line out of range");
        let base = self.dense_base_or_alloc(line);
        self.clock += 1;
        let set = &mut self.slots[base..base + self.ways];
        let mut victim = 0;
        let mut victim_meta = u64::MAX;
        for (i, slot) in set.iter_mut().enumerate() {
            let meta = slot.1;
            if slot.0 == line {
                slot.1 = (self.clock << 1) | (meta & 1) | u64::from(write);
                self.stats.accesses.record(true);
                return Touch {
                    hit: true,
                    writeback: None,
                };
            }
            if meta < victim_meta {
                victim_meta = meta;
                victim = i;
            }
        }
        // Miss: fill an empty slot if the set has one (age 0 always loses
        // the min-age race), otherwise evict the LRU line.
        let mut writeback = None;
        if victim_meta != 0 {
            self.stats.evictions += 1;
            if victim_meta & 1 != 0 {
                self.stats.writebacks += 1;
                writeback = Some(set[victim].0);
            }
        }
        set[victim] = (line, (self.clock << 1) | u64::from(write));
        self.stats.accesses.record(false);
        Touch {
            hit: false,
            writeback,
        }
    }

    /// [`SetCache::access`] for a line that is resident, and nothing for
    /// one that is not. A hit restamps, marks dirty on `write` and counts
    /// exactly as `access` does; a miss allocates no set, ticks no clock and
    /// counts nothing. The set is scanned once. Returns whether the line was
    /// resident.
    pub fn access_if_resident(&mut self, line: u64, write: bool) -> bool {
        let Some(base) = self.dense_base(line) else {
            return false;
        };
        let set = &mut self.slots[base..base + self.ways];
        let Some(slot) = set.iter_mut().find(|s| s.0 == line) else {
            return false;
        };
        self.clock += 1;
        slot.1 = (self.clock << 1) | (slot.1 & 1) | u64::from(write);
        self.stats.accesses.record(true);
        true
    }

    /// Probes residency without changing state.
    pub fn probe(&self, line: u64) -> bool {
        self.dense_base(line).is_some_and(|base| {
            self.slots[base..base + self.ways]
                .iter()
                .any(|&(tag, _)| tag == line)
        })
    }

    /// Invalidates a single line (back-invalidation), returning whether it
    /// was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let Some(base) = self.dense_base(line) else {
            return false;
        };
        let set = &mut self.slots[base..base + self.ways];
        match set.iter_mut().find(|s| s.0 == line) {
            Some(slot) => {
                let dirty = slot.1 & 1 != 0;
                *slot = EMPTY;
                dirty
            }
            None => false,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident lines (for occupancy assertions in tests).
    pub fn resident_lines(&self) -> usize {
        self.slots.iter().filter(|&&s| s != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetCache {
        // 4 sets x 2 ways of 64 B lines.
        SetCache::new(CacheParams {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(100, false).hit);
        assert!(c.access(100, false).hit);
        assert_eq!(c.stats().accesses.hits, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny(); // lines 0,4,8 map to set 0
        c.access(0, false);
        c.access(4, false);
        c.access(0, false); // 4 now LRU
        let t = c.access(8, false);
        assert!(!t.hit);
        assert!(t.writeback.is_none(), "clean eviction has no writeback");
        assert!(c.probe(0));
        assert!(!c.probe(4));
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(4, false);
        let t = c.access(8, false); // evicts dirty 0? No: LRU is 0 after 4,8 inserted
                                    // MRU order after: 8,4 — evicted was 0 (dirty).
        assert_eq!(t.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // now dirty via hit
        c.access(4, false);
        let t = c.access(8, false);
        assert_eq!(t.writeback, Some(0));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access(0, true);
        c.access(4, false);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(4));
        assert!(!c.invalidate(12)); // absent
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn probe_and_invalidate_of_untouched_sets_allocate_nothing() {
        let mut c = tiny();
        assert!(!c.probe(3));
        assert!(!c.invalidate(3));
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access_if_resident(3, true));
        assert!(c.slots.is_empty(), "read-only paths must not allocate sets");
        assert_eq!(c.stats().accesses.total, 0);
    }

    #[test]
    fn access_if_resident_hits_like_access_and_misses_silently() {
        let mut c = tiny(); // lines 0, 4, 8 share set 0
        c.access(0, false);
        c.access(4, false);
        let clock = c.clock;
        assert!(!c.access_if_resident(8, true), "absent line");
        assert_eq!(c.clock, clock, "a miss ticks no clock");
        assert_eq!(c.stats().accesses.total, 2, "a miss counts nothing");
        assert!(!c.probe(8), "a miss fills nothing");
        // A hit refreshes 0 and dirties it, so 4 is now the LRU victim and 0
        // writes back when it goes.
        assert!(c.access_if_resident(0, true));
        assert_eq!(c.stats().accesses.hits, 1);
        assert_eq!(c.access(8, false).writeback, None, "4 was the LRU line");
        assert!(!c.probe(4));
        assert_eq!(c.access(12, false).writeback, Some(0), "0 was dirtied");
    }

    #[test]
    fn refilled_slot_does_not_inherit_the_old_dirty_bit() {
        let mut c = tiny();
        c.access(0, true); // dirty line in set 0
        assert!(c.invalidate(0));
        c.access(8, false); // clean refill of the same slot
        c.access(4, false);
        let t = c.access(0, false); // evicts clean 8
        assert_eq!(t.writeback, None, "stale dirty bit leaked into refill");
    }

    #[test]
    fn eviction_order_is_true_lru_at_four_ways() {
        // One set of 4 ways: every line maps to set 0.
        let mut c = SetCache::new(CacheParams {
            size_bytes: 256,
            ways: 4,
            line_bytes: 64,
            latency: 4,
        });
        // Fill: recency order (oldest first) is 0, 1, 2, 3.
        for line in 0..4 {
            assert!(!c.access(line, false).hit);
        }
        // Touch 0: recency order becomes 1, 2, 3, 0.
        assert!(c.access(0, false).hit);
        // Overflow: the victim must be 1, not the first-filled 0.
        assert!(!c.access(4, false).hit);
        assert!(!c.probe(1), "LRU line 1 should have been evicted");
        for line in [0, 2, 3, 4] {
            assert!(c.probe(line), "line {line} should survive");
        }
        // Next overflows follow the recency chain: 2, then 3.
        c.access(5, false);
        assert!(!c.probe(2));
        c.access(6, false);
        assert!(!c.probe(3));
        assert!(c.probe(0), "recently touched 0 still outlives 2 and 3");
        assert_eq!(c.stats().evictions, 3);
    }

    #[test]
    fn non_power_of_two_set_count_indexes_by_modulo() {
        // 6 sets x 2 ways: lines 1 and 7 collide (7 % 6 == 1), 1 and 3 do not.
        let mut c = SetCache::new(CacheParams {
            size_bytes: 768,
            ways: 2,
            line_bytes: 64,
            latency: 4,
        });
        c.access(1, false);
        c.access(7, false);
        c.access(13, false); // third line of set 1: evicts line 1
        assert!(!c.probe(1));
        assert!(c.probe(7) && c.probe(13));
        assert_eq!(c.resident_lines(), 2);
    }
}
