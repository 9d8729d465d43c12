//! The mechanistic out-of-order core model.
//!
//! A scoreboard walk over a micro-op trace: micro-ops dispatch in order at up
//! to `dispatch_width` per cycle, subject to ROB / load-queue / store-queue
//! occupancy and branch-mispredict frontend refills; they *execute* out of
//! order, constrained only by their dependence edges and their own latency.
//! Loads pay address translation (L1 dTLB → L2-TLB → page walk) plus the
//! memory-hierarchy access latency at their issue time. Retirement is
//! in-order. The model is O(n) in trace length.

use crate::engine::Bus;
use crate::predict::BranchPredictor;
use crate::trace::{Trace, Uop};
use qei_config::{Cycles, MachineConfig};
use qei_mem::{Tlb, VirtAddr};
use qei_trace::{Event, EventBuf, EventKind};

/// Where dispatch stall cycles were spent (the top-down attribution that
/// backs the paper's Fig. 1 discussion).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StallBreakdown {
    /// Cycles the frontend was refilling after branch mispredicts.
    pub frontend: f64,
    /// Cycles dispatch waited on ROB/LQ/SQ occupied by incomplete memory ops.
    pub backend_memory: f64,
    /// Cycles dispatch waited on ROB occupied by non-memory work.
    pub backend_core: f64,
}

impl StallBreakdown {
    /// Total attributed stall cycles.
    pub fn total(&self) -> f64 {
        self.frontend + self.backend_memory + self.backend_core
    }
}

/// Result of pricing one trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunResult {
    /// End-to-end cycles (last in-order retirement).
    pub cycles: u64,
    /// Micro-ops executed.
    pub uops: u64,
    /// Dynamic branches and mispredicts.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// dTLB lookups that missed.
    pub dtlb_misses: u64,
    /// L2-TLB lookups that missed (page walks).
    pub stlb_misses: u64,
    /// Stall attribution.
    pub stalls: StallBreakdown,
    /// Sum of individual load latencies (for mean-latency reporting).
    pub load_latency_sum: u64,
    /// Number of loads.
    pub loads: u64,
}

impl RunResult {
    /// Retired micro-ops per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.uops as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles attributed to frontend stalls.
    pub fn frontend_bound(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stalls.frontend / self.cycles as f64
        }
    }

    /// Fraction of cycles attributed to memory-backend stalls.
    pub fn backend_bound(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.stalls.backend_memory + self.stalls.backend_core) / self.cycles as f64
        }
    }

    /// Mean load-to-use latency.
    pub fn mean_load_latency(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.load_latency_sum as f64 / self.loads as f64
        }
    }

    /// Exports the core-side counters into the run's central registry under
    /// the `core` group.
    pub fn export_stats(&self, reg: &mut qei_config::StatsRegistry) {
        reg.set("core", "cycles", self.cycles);
        reg.set("core", "uops", self.uops);
        reg.set("core", "branches", self.branches);
        reg.set("core", "mispredicts", self.mispredicts);
        reg.set("core", "dtlb_misses", self.dtlb_misses);
        reg.set("core", "stlb_misses", self.stlb_misses);
        reg.set("core", "loads", self.loads);
        reg.set("core", "load_latency_sum", self.load_latency_sum);
        reg.set("core", "ipc", self.ipc());
        reg.set("core", "frontend_bound", self.frontend_bound());
        reg.set("core", "backend_bound", self.backend_bound());
        reg.set("core", "stall_frontend_cycles", self.stalls.frontend);
        reg.set(
            "core",
            "stall_backend_memory_cycles",
            self.stalls.backend_memory,
        );
        reg.set(
            "core",
            "stall_backend_core_cycles",
            self.stalls.backend_core,
        );
    }
}

/// One simulated core's frontend/backend state.
#[derive(Debug)]
pub struct CoreModel {
    config: MachineConfig,
    core_id: u32,
    dtlb: Tlb,
    stlb: Tlb,
    predictor: BranchPredictor,
    /// Dispatch-stall event ring (no-op unless tracing is enabled).
    trace: EventBuf,
}

impl CoreModel {
    /// Creates the model for core `core_id` of the configured machine.
    pub fn new(config: &MachineConfig, core_id: u32) -> Self {
        assert!(core_id < config.cores, "core id out of range");
        CoreModel {
            config: config.clone(),
            core_id,
            dtlb: Tlb::new(config.l1_dtlb),
            stlb: Tlb::new(config.l2_tlb),
            predictor: BranchPredictor::default(),
            trace: EventBuf::new(),
        }
    }

    /// The core's tile/id.
    pub fn core_id(&self) -> u32 {
        self.core_id
    }

    /// Takes the buffered stall events plus the overwrite count, leaving the
    /// buffer empty.
    pub fn drain_trace(&mut self) -> (Vec<Event>, u64) {
        self.trace.drain()
    }

    /// Prices `trace` against the bus's memory hierarchy, resolving
    /// accelerator micro-ops and VA→PA translation through the same bus.
    pub fn run(&mut self, trace: &Trace, bus: &mut dyn Bus) -> RunResult {
        let uops = trace.uops();
        let n = uops.len();
        let mut result = RunResult {
            uops: n as u64,
            ..RunResult::default()
        };
        if n == 0 {
            return result;
        }

        let rob = self.config.rob_entries as usize;
        let lq = self.config.lq_entries as usize;
        let sq = self.config.sq_entries as usize;
        let width = self.config.dispatch_width as u64;

        // Completion time of every uop (execution done).
        let mut complete = vec![0u64; n];
        // In-order retirement time ring (ROB release times).
        let mut retire_ring = vec![0u64; rob];
        let mut last_retire = 0u64;
        // LQ/SQ release rings: completion times of the last `lq`/`sq`
        // occupying uops.
        let mut lq_ring = vec![0u64; lq];
        let mut sq_ring = vec![0u64; sq];
        let mut lq_count = 0usize;
        let mut sq_count = 0usize;

        // Frontend state.
        let mut fetch_ready = 0u64; // earliest dispatch cycle for next uop
        let mut cycle = 0u64;
        let mut slots_this_cycle = 0u64;

        for (i, uop) in uops.iter().enumerate() {
            // --- Dispatch constraints -----------------------------------
            let mut dispatch = cycle.max(fetch_ready);
            if dispatch > cycle {
                // Frontend was refilling: those were frontend-lost slots.
                result.stalls.frontend += (dispatch - cycle) as f64;
                self.trace.emit(
                    cycle,
                    self.core_id,
                    EventKind::CpuStall,
                    0,
                    dispatch - cycle,
                );
                cycle = dispatch;
                slots_this_cycle = 0;
            }

            // ROB space: uop i needs uop i-rob retired.
            if i >= rob {
                let need = retire_ring[i % rob];
                if need > dispatch {
                    let wait = need - dispatch;
                    // Attribute by what the blocking (oldest) uop was.
                    let oldest = &uops[i - rob];
                    let kind = if oldest.uses_lq() || oldest.uses_sq() {
                        result.stalls.backend_memory += wait as f64;
                        1
                    } else {
                        result.stalls.backend_core += wait as f64;
                        2
                    };
                    self.trace
                        .emit(dispatch, self.core_id, EventKind::CpuStall, kind, wait);
                    dispatch = need;
                    cycle = need;
                    slots_this_cycle = 0;
                }
            }

            // LQ/SQ space.
            if uop.uses_lq() {
                if lq_count >= lq {
                    let need = lq_ring[lq_count % lq];
                    if need > dispatch {
                        result.stalls.backend_memory += (need - dispatch) as f64;
                        self.trace.emit(
                            dispatch,
                            self.core_id,
                            EventKind::CpuStall,
                            1,
                            need - dispatch,
                        );
                        dispatch = need;
                        cycle = need;
                        slots_this_cycle = 0;
                    }
                }
            } else if uop.uses_sq() && sq_count >= sq {
                let need = sq_ring[sq_count % sq];
                if need > dispatch {
                    result.stalls.backend_memory += (need - dispatch) as f64;
                    self.trace.emit(
                        dispatch,
                        self.core_id,
                        EventKind::CpuStall,
                        1,
                        need - dispatch,
                    );
                    dispatch = need;
                    cycle = need;
                    slots_this_cycle = 0;
                }
            }

            // Width limit.
            if slots_this_cycle >= width {
                cycle += 1;
                slots_this_cycle = 0;
                dispatch = dispatch.max(cycle);
            }
            slots_this_cycle += 1;

            // --- Execute -------------------------------------------------
            let dep_time = |d: Option<u32>| d.map_or(0, |j| complete[j as usize]);
            let done = match *uop {
                Uop::Load { addr, dep } => {
                    let start = dispatch.max(dep_time(dep));
                    let lat = self.load_latency(addr, bus, start, &mut result);
                    result.loads += 1;
                    result.load_latency_sum += lat;
                    start + lat
                }
                Uop::Store { addr, dep } => {
                    let start = dispatch.max(dep_time(dep));
                    // Stores commit from the store buffer off the critical
                    // path; we still touch the hierarchy to keep cache state
                    // honest, and charge translation.
                    let tlb_lat = self.translate_latency(addr, &mut result);
                    if let Ok(pa) = bus.translate(addr) {
                        let _ = bus.mem().access_core(self.core_id, pa, true, start);
                    }
                    start + 1 + tlb_lat
                }
                Uop::Alu { latency, dep, dep2 } => {
                    let start = dispatch.max(dep_time(dep)).max(dep_time(dep2));
                    start + latency as u64
                }
                Uop::Branch { site, taken, dep } => {
                    let start = dispatch.max(dep_time(dep));
                    let done = start + 1;
                    result.branches += 1;
                    if !self.predictor.predict_and_update(site, taken) {
                        result.mispredicts += 1;
                        // Frontend refill: nothing dispatches until resolve +
                        // penalty.
                        fetch_ready = done + self.config.mispredict_penalty;
                    }
                    done
                }
                Uop::External {
                    token,
                    blocking,
                    dep,
                } => {
                    let start = dispatch.max(dep_time(dep));
                    if blocking {
                        bus.dispatch_blocking(Cycles(start), token).as_u64()
                    } else {
                        bus.dispatch_nonblocking(Cycles(start), token).as_u64()
                    }
                }
                Uop::Fence => {
                    // Serializes: waits for everything dispatched so far.
                    last_retire.max(dispatch) + 1
                }
            };
            complete[i] = done;

            // --- Queues & retirement ------------------------------------
            if uop.uses_lq() {
                lq_ring[lq_count % lq] = done;
                lq_count += 1;
            } else if uop.uses_sq() {
                sq_ring[sq_count % sq] = done;
                sq_count += 1;
            }
            last_retire = last_retire.max(done);
            retire_ring[i % rob] = last_retire;
        }

        result.cycles = last_retire.max(bus.drain_time().as_u64());
        result
    }

    fn translate_latency(&mut self, addr: VirtAddr, result: &mut RunResult) -> u64 {
        if self.dtlb.access(addr.vpn()) {
            self.config.l1_dtlb.hit_latency
        } else {
            result.dtlb_misses += 1;
            if self.stlb.access(addr.vpn()) {
                self.config.l2_tlb.hit_latency
            } else {
                result.stlb_misses += 1;
                self.config.l2_tlb.hit_latency + self.config.page_walk_latency
            }
        }
    }

    fn load_latency(
        &mut self,
        addr: VirtAddr,
        bus: &mut dyn Bus,
        now: u64,
        result: &mut RunResult,
    ) -> u64 {
        let tlb = self.translate_latency(addr, result);
        match bus.translate(addr) {
            Ok(pa) => {
                let r = bus.mem().access_core(self.core_id, pa, false, now);
                tlb + r.latency.as_u64()
            }
            // A faulting access in a software routine would trap; the traces
            // we generate never contain one, but stay robust.
            Err(_) => tlb + self.config.page_walk_latency,
        }
    }

    /// Branch predictor statistics.
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MemBus;
    use qei_cache::MemoryHierarchy;
    use qei_mem::GuestMem;

    fn setup() -> (MachineConfig, GuestMem) {
        (MachineConfig::skylake_sp_24(), GuestMem::new(11))
    }

    fn bus<'a>(config: &MachineConfig, guest: &'a GuestMem) -> MemBus<'a> {
        MemBus::new(MemoryHierarchy::new(config), guest.space())
    }

    #[test]
    fn empty_trace_is_free() {
        let (config, guest) = setup();
        let mut hier = bus(&config, &guest);
        let mut core = CoreModel::new(&config, 0);
        let r = core.run(&Trace::new(), &mut hier);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn independent_alus_achieve_dispatch_width() {
        let (config, guest) = setup();
        let mut hier = bus(&config, &guest);
        let mut core = CoreModel::new(&config, 0);
        let mut t = Trace::new();
        t.alu_block(4000);
        let r = core.run(&t, &mut hier);
        let ipc = r.ipc();
        assert!(
            (ipc - config.dispatch_width as f64).abs() < 0.2,
            "ipc {ipc}"
        );
    }

    #[test]
    fn dependent_chain_serializes() {
        let (config, guest) = setup();
        let mut hier = bus(&config, &guest);
        let mut core = CoreModel::new(&config, 0);
        let mut t = Trace::new();
        let mut prev = t.alu1(None);
        for _ in 0..999 {
            prev = t.alu1(Some(prev));
        }
        let r = core.run(&t, &mut hier);
        assert!(r.cycles >= 1000, "chain must serialize, got {}", r.cycles);
    }

    #[test]
    fn independent_loads_overlap_but_chased_loads_do_not() {
        let (config, mut guest) = setup();
        // Allocate a big region so loads are real.
        let base = guest.alloc(1 << 20, 4096).unwrap();
        let mut hier = bus(&config, &guest);

        // 64 independent loads to distinct lines.
        let mut t1 = Trace::new();
        for i in 0..64u64 {
            t1.load(base + i * 4096, None);
        }
        let mut core1 = CoreModel::new(&config, 0);
        let r1 = core1.run(&t1, &mut hier);

        // 64 dependent loads (pointer chase) to distinct lines.
        let mut hier2 = bus(&config, &guest);
        let mut t2 = Trace::new();
        let mut prev = None;
        for i in 0..64u64 {
            prev = Some(t2.load(base + i * 4096, prev));
        }
        let mut core2 = CoreModel::new(&config, 0);
        let r2 = core2.run(&t2, &mut hier2);

        assert!(
            r2.cycles > 4 * r1.cycles,
            "chased {} should be far slower than independent {}",
            r2.cycles,
            r1.cycles
        );
    }

    #[test]
    fn mispredicts_cost_frontend_cycles() {
        let (config, guest) = setup();
        let mut hier = bus(&config, &guest);
        let mut core = CoreModel::new(&config, 0);
        let mut t = Trace::new();
        // Pseudo-random outcomes defeat the predictor.
        let mut x = 0xdead_beefu64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            t.branch(1, x & 1 == 0, None);
            t.alu_block(2);
        }
        let r = core.run(&t, &mut hier);
        assert!(r.mispredicts > 200);
        assert!(r.frontend_bound() > 0.3, "fe {}", r.frontend_bound());
    }

    #[test]
    fn lq_limit_throttles_outstanding_loads() {
        let (config, mut guest) = setup();
        let base = guest.alloc(64 << 20, 4096).unwrap();
        let mut hier = bus(&config, &guest);
        let mut t = Trace::new();
        // Far more independent cold loads than LQ entries.
        for i in 0..2048u64 {
            t.load(base + i * 4096, None);
        }
        let mut core = CoreModel::new(&config, 0);
        let r = core.run(&t, &mut hier);
        assert!(
            r.stalls.backend_memory > 0.0,
            "expected LQ-full backend stalls"
        );
        assert!(r.backend_bound() > 0.2, "be {}", r.backend_bound());
    }

    #[test]
    fn fence_serializes() {
        let (config, guest) = setup();
        let mut hier = bus(&config, &guest);
        let mut t_nofence = Trace::new();
        t_nofence.alu_block(100);
        let mut core = CoreModel::new(&config, 0);
        let base = core.run(&t_nofence, &mut hier).cycles;

        let mut t = Trace::new();
        for _ in 0..50 {
            t.alu1(None);
            t.fence();
        }
        let mut core2 = CoreModel::new(&config, 0);
        let fenced = core2.run(&t, &mut hier).cycles;
        assert!(fenced > base, "fenced {fenced} vs base {base}");
    }

    #[test]
    fn tlb_misses_are_counted() {
        let (config, mut guest) = setup();
        // Touch far more pages than the dTLB holds.
        let base = guest.alloc(4096 * 512, 4096).unwrap();
        let mut hier = bus(&config, &guest);
        let mut t = Trace::new();
        for i in 0..512u64 {
            t.load(base + i * 4096, None);
        }
        let mut core = CoreModel::new(&config, 0);
        let r = core.run(&t, &mut hier);
        assert!(r.dtlb_misses > 0);
    }
}
