//! The full memory hierarchy: private L1D/L2 per core, a sliced NUCA LLC,
//! DRAM channels, and the mesh NoC gluing them together.

use crate::contention::{PenaltyTable, SlicePressure};
use crate::dram::Dram;
use crate::set_cache::SetCache;
use qei_config::{Cycles, MachineConfig};
use qei_mem::PhysAddr;
use qei_noc::{Mesh, Tile};
use qei_trace::{Event, EventBuf, EventKind, TRACK_CACHE};

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Private L1 data cache.
    L1,
    /// Private L2 cache.
    L2,
    /// Shared LLC (some slice).
    Llc,
    /// Main memory.
    Dram,
}

/// Timing outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total load-to-use latency.
    pub latency: Cycles,
    /// The level that supplied the line.
    pub level: HitLevel,
}

/// Aggregate hierarchy statistics, primarily for energy accounting and the
/// private-cache-pollution analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemStats {
    /// L1D accesses (core-side only).
    pub l1_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// LLC slice accesses.
    pub llc_accesses: u64,
    /// DRAM line fetches.
    pub dram_accesses: u64,
}

impl MemStats {
    /// Adds another hierarchy's counters (the chip's per-lane aggregate).
    pub fn merge(&mut self, other: &MemStats) {
        self.l1_accesses += other.l1_accesses;
        self.l2_accesses += other.l2_accesses;
        self.llc_accesses += other.llc_accesses;
        self.dram_accesses += other.dram_accesses;
    }

    /// Exports the hierarchy counters into the run's central registry under
    /// the `mem` group.
    pub fn export_stats(&self, reg: &mut qei_config::StatsRegistry) {
        reg.set("mem", "l1_accesses", self.l1_accesses);
        reg.set("mem", "l2_accesses", self.l2_accesses);
        reg.set("mem", "llc_accesses", self.llc_accesses);
        reg.set("mem", "dram_accesses", self.dram_accesses);
    }
}

/// The memory system of the simulated machine.
#[derive(Debug)]
pub struct MemoryHierarchy {
    l1d: Vec<SetCache>,
    l2: Vec<SetCache>,
    llc: Vec<SetCache>,
    dram: Dram,
    noc: Mesh,
    cores: u32,
    stats: MemStats,
    /// Cache miss/evict event ring (no-op unless tracing is enabled).
    trace: EventBuf,
    /// Windowed slice-access profile collected during a chip warm-up pass
    /// (`None` outside multi-core runs; see `contention`).
    pressure: Option<SlicePressure>,
    /// Read-only cross-core slice penalties applied during a chip measured
    /// pass (`None` outside multi-core runs).
    contention: Option<PenaltyTable>,
    /// Extra cycles charged by the contention table this epoch.
    contention_cycles: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a machine configuration.
    pub fn new(config: &MachineConfig) -> Self {
        let slice_params = qei_config::CacheParams {
            size_bytes: config.llc_slice_bytes(),
            ..config.llc
        };
        MemoryHierarchy {
            l1d: (0..config.cores)
                .map(|_| SetCache::new(config.l1d))
                .collect(),
            l2: (0..config.cores)
                .map(|_| SetCache::new(config.l2))
                .collect(),
            llc: (0..config.cores)
                .map(|_| SetCache::new(slice_params))
                .collect(),
            dram: Dram::new(config.dram),
            noc: Mesh::new(config),
            cores: config.cores,
            stats: MemStats::default(),
            trace: EventBuf::new(),
            pressure: None,
            contention: None,
            contention_cycles: 0,
        }
    }

    /// Starts (or stops) recording the windowed LLC slice-access profile —
    /// the chip's warm-up pass turns this on so the arbiter can price
    /// cross-core slice contention for the measured pass. Recording only
    /// observes; it never changes an access's timing.
    pub fn set_pressure_recording(&mut self, on: bool) {
        self.pressure = on.then(|| SlicePressure::new(self.cores));
    }

    /// Takes the recorded slice-access profile (empty if recording was off).
    pub fn take_pressure(&mut self) -> SlicePressure {
        self.pressure
            .take()
            .unwrap_or_else(|| SlicePressure::new(self.cores))
    }

    /// Installs the read-only cross-core slice penalty table for the
    /// measured pass; `None` removes it.
    pub fn set_contention(&mut self, table: Option<PenaltyTable>) {
        self.contention = table;
    }

    /// Extra LLC cycles the contention table charged this epoch.
    pub fn contention_cycles(&self) -> u64 {
        self.contention_cycles
    }

    /// The LLC home slice of a physical line (the NUCA hash).
    pub fn home_slice(&self, pa: PhysAddr) -> u32 {
        // A simple stirred hash of the line address, as real CHAs use an
        // (undocumented) hash to spread lines across slices.
        let line = pa.line();
        let h = line
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (h % self.cores as u64) as u32
    }

    /// The mesh NoC (shared with the accelerator model for remote micro-ops).
    pub fn noc_mut(&mut self) -> &mut Mesh {
        &mut self.noc
    }

    /// Immutable access to the NoC.
    pub fn noc(&self) -> &Mesh {
        &self.noc
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// A core-originated access (software baseline path): L1 → L2 → LLC →
    /// DRAM, with NoC hops from the core tile to the line's home slice.
    pub fn access_core(&mut self, core: u32, pa: PhysAddr, write: bool, now: u64) -> AccessResult {
        let line = pa.line();
        self.stats.l1_accesses += 1;
        let l1 = self.l1d[core as usize].access(line, write);
        let l1_lat = self.l1d[core as usize].latency();
        if l1.hit {
            return AccessResult {
                latency: Cycles(l1_lat),
                level: HitLevel::L1,
            };
        }
        self.trace
            .emit(now, TRACK_CACHE, EventKind::CacheMiss, 1, line);
        if let Some(victim) = l1.writeback {
            self.trace
                .emit(now, TRACK_CACHE, EventKind::CacheEvict, 1, victim);
        }
        let inner = self.access_from_l2(core, pa, write, now);
        AccessResult {
            latency: Cycles(l1_lat) + inner.latency,
            level: inner.level,
        }
    }

    /// The rest of a core access after an L1 miss: L2 → LLC → DRAM. Does
    /// not touch the L1.
    fn access_from_l2(&mut self, core: u32, pa: PhysAddr, write: bool, now: u64) -> AccessResult {
        let line = pa.line();
        self.stats.l2_accesses += 1;
        let l2 = self.l2[core as usize].access(line, write);
        let l2_lat = self.l2[core as usize].latency();
        if l2.hit {
            return AccessResult {
                latency: Cycles(l2_lat),
                level: HitLevel::L2,
            };
        }
        self.trace
            .emit(now, TRACK_CACHE, EventKind::CacheMiss, 2, line);
        if let Some(victim) = l2.writeback {
            self.trace
                .emit(now, TRACK_CACHE, EventKind::CacheEvict, 2, victim);
        }
        // Miss: go to the home LLC slice over the NoC.
        let home = self.home_slice(pa);
        let hop = self.noc.transfer(Tile(core), Tile(home), 64, now);
        let inner = self.access_at_slice(home, pa, write, now);
        AccessResult {
            latency: Cycles(l2_lat) + hop + inner.latency,
            level: inner.level,
        }
    }

    /// An accelerator access on the Core-integrated path: probes the L2 (the
    /// accelerator sits beside it and may find lines the core already owns)
    /// but does **not** allocate on a miss — the paper's Table I promises no
    /// private-cache pollution; data-heavy lines stay in the LLC.
    pub fn access_l2_read_through(
        &mut self,
        core: u32,
        pa: PhysAddr,
        write: bool,
        now: u64,
    ) -> AccessResult {
        let line = pa.line();
        self.stats.l2_accesses += 1;
        let l2_lat = self.l2[core as usize].latency();
        if self.l2[core as usize].access_if_resident(line, write) {
            // Genuine hit: LRU refreshed in the same scan that found it.
            return AccessResult {
                latency: Cycles(l2_lat),
                level: HitLevel::L2,
            };
        }
        // Miss: only the tag probe is on the path (the data array is never
        // read); go to the home LLC slice without filling the L2.
        self.trace
            .emit(now, TRACK_CACHE, EventKind::CacheMiss, 2, line);
        const TAG_PROBE: u64 = 4;
        let home = self.home_slice(pa);
        let hop = self.noc.transfer(Tile(core), Tile(home), 64, now);
        let inner = self.access_at_slice(home, pa, write, now);
        AccessResult {
            latency: Cycles(TAG_PROBE) + hop + inner.latency,
            level: inner.level,
        }
    }

    /// An access served at a specific LLC slice, as issued by a CHA-resident
    /// accelerator or comparator. If `slice` is not the line's home, the
    /// request first hops to the home slice.
    pub fn access_cha(&mut self, slice: u32, pa: PhysAddr, write: bool, now: u64) -> AccessResult {
        let home = self.home_slice(pa);
        let hop = if slice != home {
            self.noc.transfer(Tile(slice), Tile(home), 64, now)
        } else {
            Cycles::ZERO
        };
        let inner = self.access_at_slice(home, pa, write, now);
        AccessResult {
            latency: hop + inner.latency,
            level: inner.level,
        }
    }

    fn access_at_slice(&mut self, slice: u32, pa: PhysAddr, write: bool, now: u64) -> AccessResult {
        let line = pa.line();
        self.stats.llc_accesses += 1;
        if let Some(p) = &mut self.pressure {
            p.record(slice, now);
        }
        // Cross-core slice arbitration: queue behind the other lanes'
        // traffic in this window (zero outside multi-core measured passes).
        let queued = match &self.contention {
            Some(t) => t.penalty(slice, now),
            None => 0,
        };
        self.contention_cycles += queued;
        let t = self.llc[slice as usize].access(line, write);
        let llc_lat = self.llc[slice as usize].latency() + queued;
        if t.hit {
            return AccessResult {
                latency: Cycles(llc_lat),
                level: HitLevel::Llc,
            };
        }
        self.trace
            .emit(now, TRACK_CACHE, EventKind::CacheMiss, 3, line);
        if let Some(victim) = t.writeback {
            self.trace
                .emit(now, TRACK_CACHE, EventKind::CacheEvict, 3, victim);
        }
        self.stats.dram_accesses += 1;
        let dram_lat = self.dram.access(line, now);
        AccessResult {
            latency: Cycles(llc_lat) + dram_lat,
            level: HitLevel::Dram,
        }
    }

    /// Pre-loads a physical line into the LLC only (used to model data sets
    /// that are LLC-resident but not in private caches at ROI start).
    pub fn warm_llc(&mut self, pa: PhysAddr) {
        let home = self.home_slice(pa);
        self.llc[home as usize].access(pa.line(), false);
    }

    /// Whether a line is resident in a core's private caches (pollution probe).
    pub fn in_private_caches(&self, core: u32, pa: PhysAddr) -> bool {
        let line = pa.line();
        self.l1d[core as usize].probe(line) || self.l2[core as usize].probe(line)
    }

    /// DRAM model accessor (for utilization reporting).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Starts a new measurement epoch: clears access statistics and
    /// NoC/DRAM traffic accounting while keeping cache contents warm.
    /// Used between a warm-up pass and the measured pass, whose clock
    /// restarts at zero.
    pub fn reset_epoch(&mut self) {
        self.stats = MemStats::default();
        self.noc.reset_traffic();
        self.dram.reset();
        self.trace.clear();
        self.contention_cycles = 0;
    }

    /// Takes the buffered cache *and* NoC trace events plus the combined
    /// overwrite count, leaving both buffers empty.
    pub fn drain_trace(&mut self) -> (Vec<Event>, u64) {
        let (mut events, mut dropped) = self.trace.drain();
        let (noc_events, noc_dropped) = self.noc.drain_trace();
        events.extend(noc_events);
        dropped += noc_dropped;
        (events, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&MachineConfig::skylake_sp_24())
    }

    #[test]
    fn first_touch_misses_to_dram_then_hits_l1() {
        let mut m = hierarchy();
        let pa = PhysAddr(0x10_0000);
        let first = m.access_core(0, pa, false, 0);
        assert_eq!(first.level, HitLevel::Dram);
        let second = m.access_core(0, pa, false, 0);
        assert_eq!(second.level, HitLevel::L1);
        assert!(second.latency < first.latency);
    }

    #[test]
    fn latency_ordering_l1_l2_llc_dram() {
        let mut m = hierarchy();
        let pa = PhysAddr(0x20_0000);
        let dram = m.access_core(0, pa, false, 0).latency;
        let l1 = m.access_core(0, pa, false, 0).latency;
        // Evict from L1 by touching many conflicting lines, then re-access: L2 hit.
        for i in 1..=64u64 {
            // L1: 64 sets; stride of one set's worth to conflict.
            m.access_core(0, PhysAddr(0x20_0000 + i * 64 * 64), false, 0);
        }
        let l2 = m.access_core(0, pa, false, 0);
        assert_eq!(l2.level, HitLevel::L2);
        assert!(l1 < l2.latency && l2.latency < dram);
    }

    #[test]
    fn cha_access_skips_private_caches() {
        let mut m = hierarchy();
        let pa = PhysAddr(0x30_0000);
        let home = m.home_slice(pa);
        let r1 = m.access_cha(home, pa, false, 0);
        assert_eq!(r1.level, HitLevel::Dram);
        let r2 = m.access_cha(home, pa, false, 0);
        assert_eq!(r2.level, HitLevel::Llc);
        assert!(
            !m.in_private_caches(0, pa),
            "CHA path must not pollute L1/L2"
        );
    }

    #[test]
    fn remote_slice_pays_noc_hop() {
        let mut m = hierarchy();
        let pa = PhysAddr(0x40_0000);
        m.warm_llc(pa);
        let home = m.home_slice(pa);
        let local = m.access_cha(home, pa, false, 0).latency;
        let far_slice = (home + 12) % 24;
        let remote = m.access_cha(far_slice, pa, false, 0).latency;
        assert!(remote > local);
    }

    #[test]
    fn l2_entry_does_not_touch_l1() {
        let mut m = hierarchy();
        let pa = PhysAddr(0x50_0000);
        m.access_from_l2(0, pa, false, 0);
        m.access_from_l2(0, pa, false, 0);
        let r = m.access_core(0, pa, false, 0);
        // The line is in L2 (from the L2-side fills) but not L1.
        assert_eq!(r.level, HitLevel::L2);
    }

    #[test]
    fn home_slice_is_stable_and_spread() {
        let m = hierarchy();
        let mut counts = vec![0u32; 24];
        for i in 0..24_000u64 {
            let s = m.home_slice(PhysAddr(i * 64));
            assert_eq!(s, m.home_slice(PhysAddr(i * 64)));
            counts[s as usize] += 1;
        }
        // Roughly uniform: every slice within 3x of the mean.
        for &c in &counts {
            assert!(c > 300 && c < 3000, "slice count {c} badly skewed");
        }
    }

    #[test]
    fn pressure_recording_observes_without_changing_timing() {
        let pa = PhysAddr(0x70_0000);
        let mut plain = hierarchy();
        let mut recorded = hierarchy();
        recorded.set_pressure_recording(true);
        for i in 0..32u64 {
            let p = PhysAddr(0x70_0000 + i * 64);
            assert_eq!(
                plain.access_core(0, p, false, i * 10),
                recorded.access_core(0, p, false, i * 10)
            );
        }
        let profile = recorded.take_pressure();
        assert!(profile.total() >= 32, "every LLC access is profiled");
        assert_eq!(plain.access_core(0, pa, false, 999), {
            // Recording was taken: the hierarchy observes nothing further.
            recorded.access_core(0, pa, false, 999)
        });
    }

    #[test]
    fn installed_penalties_slow_llc_accesses_and_are_counted() {
        use crate::contention::{arbitrate, SlicePressure, SLICE_SERVICE_CYCLES, WINDOW_SHIFT};
        let mut m = hierarchy();
        let pa = PhysAddr(0x80_0000);
        m.warm_llc(pa);
        let home = m.home_slice(pa);
        let quiet = m.access_cha(home, pa, false, 0).latency;
        // A saturating foreign lane shares every slice in window 0.
        let cap = ((1u64 << WINDOW_SHIFT) / SLICE_SERVICE_CYCLES) as u32;
        let mut mine = SlicePressure::new(24);
        let mut foreign = SlicePressure::new(24);
        for s in 0..24 {
            mine.record(s, 1);
            for _ in 0..2 * cap {
                foreign.record(s, 1);
            }
        }
        let tables = arbitrate(&[mine, foreign], 24);
        m.set_contention(Some(tables[0].clone()));
        let contended = m.access_cha(home, pa, false, 0).latency;
        assert!(contended > quiet, "{contended} vs {quiet}");
        assert!(m.contention_cycles() > 0);
        m.reset_epoch();
        assert_eq!(m.contention_cycles(), 0, "epoch reset clears the charge");
        m.set_contention(None);
        assert_eq!(m.access_cha(home, pa, false, 0).latency, quiet);
    }

    #[test]
    fn warm_llc_makes_cha_hit() {
        let mut m = hierarchy();
        let pa = PhysAddr(0x60_0000);
        m.warm_llc(pa);
        let r = m.access_cha(m.home_slice(pa), pa, false, 0);
        assert_eq!(r.level, HitLevel::Llc);
    }
}
