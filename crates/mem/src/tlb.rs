//! Set-associative TLB model with true-LRU replacement.
//!
//! Used for the core's L1 dTLB and L2-TLB, and for the dedicated accelerator
//! TLBs in the CHA-TLB and Device-based schemes.

use qei_config::{Ratio, TlbParams};

/// An empty slot: a vpn no address reaches (VPNs are below 2^52) and the
/// stamp every resident entry beats.
const EMPTY: (u64, u64) = (u64::MAX, 0);

/// One TLB: a timing structure tracking which virtual page numbers are
/// resident. Translation correctness lives in [`crate::AddressSpace`]; the
/// TLB only decides whether translation *costs* a page walk.
///
/// Storage is one flat slot array allocated at construction, set by set,
/// with the same recency scheme as `qei-cache`'s `SetCache`: every access
/// ticks an age clock, a hit restamps its slot, and a miss fills the slot
/// with the smallest stamp — an empty slot (stamp 0) before any resident
/// one, else the least recently used. Nothing shifts and nothing allocates
/// after construction. `tests/tlb_lru_equivalence.rs` pins the equivalence
/// against an MRU-ordered-list reference model.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// `(vpn, stamp)` per slot; set `s` owns `slots[s * ways..(s + 1) * ways]`.
    /// Empty slots hold [`EMPTY`].
    slots: Box<[(u64, u64)]>,
    ways: usize,
    set_mask: u64,
    /// Age counter, incremented once per [`Tlb::access`].
    clock: u64,
    stats: TlbStats,
}

/// Hit/miss statistics for one TLB.
#[derive(Debug, Clone, Copy, Default)]
pub struct TlbStats {
    /// Lookup outcomes.
    pub lookups: Ratio,
    /// Number of entries evicted.
    pub evictions: u64,
    /// Number of whole-TLB flushes.
    pub flushes: u64,
}

impl Tlb {
    /// Builds a TLB from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if entries/ways geometry is degenerate or not a power of two
    /// number of sets.
    pub fn new(params: TlbParams) -> Self {
        assert!(params.entries > 0 && params.ways > 0);
        assert!(
            params.entries.is_multiple_of(params.ways),
            "entries must divide by ways"
        );
        let n_sets = (params.entries / params.ways) as usize;
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        Tlb {
            slots: vec![EMPTY; params.entries as usize].into_boxed_slice(),
            ways: params.ways as usize,
            set_mask: n_sets as u64 - 1,
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// The slots of `vpn`'s set.
    #[inline]
    fn set(&self, vpn: u64) -> &[(u64, u64)] {
        let base = (vpn & self.set_mask) as usize * self.ways;
        &self.slots[base..base + self.ways]
    }

    /// Looks up `vpn`, filling on miss. Returns whether it hit.
    pub fn access(&mut self, vpn: u64) -> bool {
        debug_assert_ne!(vpn, EMPTY.0, "vpn out of range");
        self.clock += 1;
        let base = (vpn & self.set_mask) as usize * self.ways;
        let set = &mut self.slots[base..base + self.ways];
        let mut victim = 0;
        let mut victim_stamp = u64::MAX;
        for (i, slot) in set.iter_mut().enumerate() {
            if slot.0 == vpn {
                slot.1 = self.clock;
                self.stats.lookups.record(true);
                return true;
            }
            if slot.1 < victim_stamp {
                victim_stamp = slot.1;
                victim = i;
            }
        }
        if victim_stamp != 0 {
            self.stats.evictions += 1;
        }
        set[victim] = (vpn, self.clock);
        self.stats.lookups.record(false);
        false
    }

    /// Probes without modifying state (no fill, no LRU update).
    pub fn probe(&self, vpn: u64) -> bool {
        self.set(vpn).iter().any(|&(v, _)| v == vpn)
    }

    /// Invalidates everything (context switch / TLB shootdown).
    pub fn flush(&mut self) {
        self.slots.fill(EMPTY);
        self.stats.flushes += 1;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbParams {
            entries: 8,
            ways: 2,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tiny();
        assert!(!t.access(5));
        assert!(t.access(5));
        assert!(t.probe(5));
        assert_eq!(t.stats().lookups.hits, 1);
        assert_eq!(t.stats().lookups.misses(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut t = tiny(); // 4 sets, 2 ways; vpns 0,4,8 share set 0
        t.access(0);
        t.access(4);
        t.access(0); // 0 becomes MRU, 4 is LRU
        t.access(8); // evicts 4
        assert!(t.probe(0));
        assert!(!t.probe(4));
        assert!(t.probe(8));
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn flush_clears() {
        let mut t = tiny();
        t.access(1);
        t.access(2);
        t.flush();
        assert!(!t.probe(1));
        assert!(!t.probe(2));
        assert_eq!(t.stats().flushes, 1);
    }

    #[test]
    fn capacity_matches_geometry() {
        let t = Tlb::new(TlbParams {
            entries: 1536,
            ways: 12,
            hit_latency: 7,
        });
        assert_eq!(t.capacity(), 1536);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = Tlb::new(TlbParams {
            entries: 12,
            ways: 2,
            hit_latency: 1,
        });
    }
}
