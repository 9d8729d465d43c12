//! Property test: the flat-slot [`Tlb`] is observationally identical to the
//! MRU-ordered-list TLB it replaced — same hit/miss sequence, same probes,
//! same [`TlbStats`], and the same behaviour after a flush — over
//! randomized VPN streams across the core's dTLB and STLB geometries, the
//! accelerator TLB, a 1-way TLB and a fully associative one.

use qei_config::{SimRng, TlbParams};
use qei_mem::{Tlb, TlbStats};

/// The pre-rewrite implementation: per set, an MRU-ordered vpn list. Hits
/// move to the front; misses insert at the front and evict the back once
/// the set overflows.
struct MruReference {
    sets: Vec<Vec<u64>>,
    ways: usize,
    set_mask: u64,
    stats: TlbStats,
}

impl MruReference {
    fn new(params: TlbParams) -> Self {
        let n_sets = (params.entries / params.ways) as usize;
        MruReference {
            sets: vec![Vec::new(); n_sets],
            ways: params.ways as usize,
            set_mask: n_sets as u64 - 1,
            stats: TlbStats::default(),
        }
    }

    fn access(&mut self, vpn: u64) -> bool {
        let set = &mut self.sets[(vpn & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&v| v == vpn) {
            let v = set.remove(pos);
            set.insert(0, v);
            self.stats.lookups.record(true);
            true
        } else {
            set.insert(0, vpn);
            if set.len() > self.ways {
                set.pop();
                self.stats.evictions += 1;
            }
            self.stats.lookups.record(false);
            false
        }
    }

    fn probe(&self, vpn: u64) -> bool {
        self.sets[(vpn & self.set_mask) as usize].contains(&vpn)
    }

    fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats.flushes += 1;
    }
}

fn assert_same_stats(got: TlbStats, want: TlbStats, at: &str) {
    assert_eq!(got.lookups.hits, want.lookups.hits, "hits {at}");
    assert_eq!(got.lookups.total, want.lookups.total, "lookups {at}");
    assert_eq!(got.evictions, want.evictions, "evictions {at}");
    assert_eq!(got.flushes, want.flushes, "flushes {at}");
}

/// Drives both models with the same stream. The VPN range is three times
/// the capacity, so sets see conflicts, evictions and re-references; about
/// one access in 2,000 is replaced by a flush.
fn assert_equivalent(params: TlbParams, seed: u64, accesses: usize) {
    let mut flat = Tlb::new(params);
    let mut reference = MruReference::new(params);
    assert_eq!(flat.capacity(), params.entries as usize);
    let hot_range = u64::from(params.entries) * 3;
    let mut rng = SimRng::seed_from_u64(seed);
    for step in 0..accesses {
        if rng.below(2_000) == 0 {
            flat.flush();
            reference.flush();
            continue;
        }
        let vpn = rng.below(hot_range);
        assert_eq!(
            flat.access(vpn),
            reference.access(vpn),
            "access({vpn}) diverged at step {step}"
        );
        if rng.gen_bool(0.05) {
            let probe = rng.below(hot_range);
            assert_eq!(
                flat.probe(probe),
                reference.probe(probe),
                "probe({probe}) diverged at step {step}"
            );
        }
    }
    assert_same_stats(flat.stats(), reference.stats, "at the end");
    for vpn in 0..hot_range {
        assert_eq!(flat.probe(vpn), reference.probe(vpn), "residency {vpn}");
    }
    // A flush empties both, and both refill identically afterwards.
    flat.flush();
    reference.flush();
    for vpn in 0..hot_range {
        assert!(!flat.probe(vpn), "vpn {vpn} survived the flush");
    }
    for step in 0..accesses / 4 {
        let vpn = rng.below(hot_range);
        assert_eq!(
            flat.access(vpn),
            reference.access(vpn),
            "access({vpn}) diverged at step {step} after the flush"
        );
    }
    assert_same_stats(flat.stats(), reference.stats, "after the flush");
}

#[test]
fn flat_slots_match_mru_reference_across_geometries() {
    let tlb = |entries, ways| TlbParams {
        entries,
        ways,
        hit_latency: 1,
    };
    let geometries = [
        tlb(64, 4),    // core L1 dTLB
        tlb(1536, 12), // core STLB (also Core-integrated's accelerator TLB)
        tlb(1024, 4),  // CHA-TLB / Device accelerator TLB
        tlb(32, 1),    // 1-way
        tlb(16, 16),   // fully associative
    ];
    for (i, &params) in geometries.iter().enumerate() {
        for seed in 0..3u64 {
            assert_equivalent(params, seed * 37 + i as u64, 30_000);
        }
    }
}
