//! The QEI accelerator timing model and the five integration schemes.
//!
//! [`QeiAccelerator`] co-simulates queries against the shared substrate: it
//! runs the one CFA walk driver ([`crate::walk()`]) with a pricing hook, so it
//! takes the functional engine's exact steps, and prices each of them on
//! shared hardware resources:
//!
//! * **QST slots** bound in-flight queries (backpressure on dispatch);
//! * the **CEE issue port** processes one ready entry per cycle per instance;
//! * **memory micro-ops** pay address translation (scheme-dependent) plus the
//!   scheme's data-access path through the cache/NoC substrate;
//! * **comparisons** queue on the comparator pools — in the line's home CHA
//!   for CHA-compare schemes (a *remote micro-op* across the NoC), or local
//!   to the device for Device-based schemes;
//! * **hash/ALU** micro-ops run on the instance's DPU.
//!
//! Scheme placement (paper §V / Table I):
//!
//! | scheme | instances | translation | data path |
//! |---|---|---|---|
//! | CHA-TLB | one per CHA | dedicated 1024-entry TLB | LLC slice direct |
//! | CHA-noTLB | one per CHA | round trip to core MMU | LLC slice direct |
//! | Device-direct | one, own NoC stop | dedicated TLB | NoC to home slice |
//! | Device-indirect | one, behind device interface | dedicated TLB | NoC + interface latency each access |
//! | Core-integrated | control at the core's L2 | L2-TLB geometry (own copy) | L2 → LLC; compares remote in CHAs |
//!
//! The paper's Core-integrated scheme shares the core's L2-TLB. This model
//! gives it a private [`Tlb`] with the L2-TLB's geometry instead: the core
//! model never sees the accelerator's entries, nor the accelerator the
//! core's.

use crate::ctx::QueryCtx;
use crate::dpu;
use crate::fault::{nb_word, FaultCode};
use crate::firmware::FirmwareStore;
use crate::qst::QueryStateTable;
use crate::uop::MicroOp;
use crate::walk::{walk, WalkHook};
use qei_cache::{AccessResult, HitLevel, MemoryHierarchy};
use qei_config::{Cycles, Log2Histogram, MachineConfig, Scheme, TlbParams};
use qei_mem::{GuestMem, Tlb, VirtAddr};
use qei_noc::Tile;
use qei_trace::{qst_track, Event, EventBuf, EventKind, TRACK_ISSUE};

/// Aggregate accelerator statistics (inputs to the power model and the
/// occupancy analysis).
#[derive(Debug, Clone, Copy, Default)]
pub struct AccelStats {
    /// Queries completed (including faulted ones).
    pub queries: u64,
    /// Queries that faulted.
    pub faults: u64,
    /// Memory micro-ops issued.
    pub mem_ops: u64,
    /// Cache lines fetched by memory micro-ops.
    pub lines_fetched: u64,
    /// Comparison micro-ops issued.
    pub compares: u64,
    /// Bytes compared.
    pub compare_bytes: u64,
    /// Hash micro-ops issued.
    pub hashes: u64,
    /// ALU micro-ops issued.
    pub alu_ops: u64,
    /// Remote (cross-NoC) comparator invocations.
    pub remote_compares: u64,
    /// TLB lookups performed by the accelerator path.
    pub tlb_lookups: u64,
    /// TLB misses (page walks) on the accelerator path.
    pub tlb_misses: u64,
    /// Sum of per-query latencies of *successful* queries (submit →
    /// completion), cycles. Faulted queries accumulate into
    /// `fault_latency_sum` instead, so a faulting workload no longer skews
    /// the success mean.
    pub latency_sum: u64,
    /// Sum of per-query latencies of faulted queries, cycles.
    pub fault_latency_sum: u64,
    /// Latency distribution of successful queries (log2 buckets).
    pub latency_hist: Log2Histogram,
    /// Latency distribution of faulted queries (log2 buckets).
    pub fault_latency_hist: Log2Histogram,
    /// Non-blocking queries aborted by flushes.
    pub nb_aborts: u64,
}

impl AccelStats {
    /// Mean per-query latency of successful completions only (0 when every
    /// query faulted or none ran).
    pub fn mean_latency(&self) -> f64 {
        let ok = self.queries - self.faults;
        if ok == 0 {
            0.0
        } else {
            self.latency_sum as f64 / ok as f64
        }
    }

    /// Adds another accelerator instance's counters (the chip's per-lane
    /// aggregate): plain sums plus histogram merges, so the merged stats
    /// are order-independent across lanes.
    pub fn merge(&mut self, other: &AccelStats) {
        self.queries += other.queries;
        self.faults += other.faults;
        self.mem_ops += other.mem_ops;
        self.lines_fetched += other.lines_fetched;
        self.compares += other.compares;
        self.compare_bytes += other.compare_bytes;
        self.hashes += other.hashes;
        self.alu_ops += other.alu_ops;
        self.remote_compares += other.remote_compares;
        self.tlb_lookups += other.tlb_lookups;
        self.tlb_misses += other.tlb_misses;
        self.latency_sum += other.latency_sum;
        self.fault_latency_sum += other.fault_latency_sum;
        self.latency_hist.merge(&other.latency_hist);
        self.fault_latency_hist.merge(&other.fault_latency_hist);
        self.nb_aborts += other.nb_aborts;
    }

    /// Records one completed query's latency into the per-outcome sum and
    /// histogram, keyed on the typed fault (if any) so fault accounting can
    /// never be conflated with the serving layer's reject/timeout keys
    /// (those live in `qei-serve`, under the `serve` registry group).
    fn record_latency(&mut self, latency: u64, fault: Option<FaultCode>) {
        if fault.is_some() {
            self.fault_latency_sum += latency;
            self.fault_latency_hist.record(latency);
        } else {
            self.latency_sum += latency;
            self.latency_hist.record(latency);
        }
    }

    /// Exports the accelerator counters into the run's central registry
    /// under the `accel` group.
    pub fn export_stats(&self, reg: &mut qei_config::StatsRegistry) {
        reg.set("accel", "queries", self.queries);
        reg.set("accel", "faults", self.faults);
        reg.set("accel", "mem_ops", self.mem_ops);
        reg.set("accel", "lines_fetched", self.lines_fetched);
        reg.set("accel", "compares", self.compares);
        reg.set("accel", "compare_bytes", self.compare_bytes);
        reg.set("accel", "hashes", self.hashes);
        reg.set("accel", "alu_ops", self.alu_ops);
        reg.set("accel", "remote_compares", self.remote_compares);
        reg.set("accel", "tlb_lookups", self.tlb_lookups);
        reg.set("accel", "tlb_misses", self.tlb_misses);
        reg.set("accel", "latency_sum", self.latency_sum);
        reg.set("accel", "latency_p50", self.latency_hist.p50());
        reg.set("accel", "latency_p90", self.latency_hist.p90());
        reg.set("accel", "latency_p99", self.latency_hist.p99());
        reg.set("accel", "latency_max", self.latency_hist.max());
        reg.set("accel", "latency_hist", &self.latency_hist);
        reg.set("accel", "fault_latency_sum", self.fault_latency_sum);
        reg.set("accel", "fault_latency_p99", self.fault_latency_hist.p99());
        reg.set("accel", "fault_latency_max", self.fault_latency_hist.max());
        reg.set("accel", "fault_latency_hist", &self.fault_latency_hist);
        reg.set("accel", "nb_aborts", self.nb_aborts);
        reg.set("accel", "mean_latency", self.mean_latency());
    }
}

/// The `MemAccess` event's level payload.
fn level_code(level: HitLevel) -> u64 {
    match level {
        HitLevel::L1 => 1,
        HitLevel::L2 => 2,
        HitLevel::Llc => 3,
        HitLevel::Dram => 4,
    }
}

/// One accelerator deployment for a single issuing core (the paper evaluates
/// single-threaded benchmarks; the instance layout still follows the scheme).
#[derive(Debug)]
pub struct QeiAccelerator {
    /// The installed CFAs. A walk reads them while its pricing hook mutates
    /// `hw`, so the two are separate fields.
    firmware: FirmwareStore,
    hw: Hardware,
    /// Latest non-blocking completion (drain point).
    nb_drain: Cycles,
    /// Pending non-blocking completions not yet polled.
    nb_outstanding: Vec<(VirtAddr, Cycles)>,
}

/// The accelerator's timed resources and counters: everything a walk's
/// pricing hook reads or mutates.
#[derive(Debug)]
struct Hardware {
    scheme: Scheme,
    config: MachineConfig,
    core_id: u32,
    /// One QST per instance (per CHA for CHA-based, one for the others).
    qsts: Vec<QueryStateTable>,
    /// CEE issue-port cumulative op count per instance. The CEE processes
    /// one ready entry per cycle, so op `n` cannot issue before cycle `n` —
    /// a throughput bound that is independent of simulation (submit) order.
    cee_issued: Vec<u64>,
    /// Per-instance translation TLB (empty vec for CHA-noTLB).
    tlbs: Vec<Tlb>,
    /// Comparator pools: (comparator count, cumulative busy cycles) per CHA
    /// for CHA-compare schemes, a single device pool otherwise. Cumulative
    /// busy time over pool width bounds throughput.
    comparators: Vec<(u32, u64)>,
    /// Device interface latency added to every data access (Device-indirect);
    /// the Fig. 8 sweep overrides this.
    device_data_latency: u64,
    /// Ablation switch: force comparisons to run locally in the accelerator
    /// (fetch the line, compare in the DPU) even under CHA-compare schemes.
    force_local_compare: bool,
    stats: AccelStats,
    /// Query-lifecycle event ring (no-op unless tracing is enabled).
    trace: EventBuf,
}

impl QeiAccelerator {
    /// Builds the accelerator for `scheme`, issuing from core `core_id`.
    pub fn new(config: &MachineConfig, scheme: Scheme, core_id: u32) -> Self {
        let cores = config.cores as usize;
        let qst_entries = config.qei.qst_entries;
        let (instances, entries_per) = match scheme {
            Scheme::ChaTlb | Scheme::ChaNoTlb => (cores, qst_entries),
            Scheme::CoreIntegrated => (1, qst_entries),
            // Device schemes: one centralized accelerator sized for the chip
            // (10 × cores entries, paper §VI-A).
            Scheme::DeviceDirect | Scheme::DeviceIndirect => (1, qst_entries * config.cores),
        };
        let tlb_params = |entries: u32| TlbParams {
            entries,
            ways: 4,
            hit_latency: 1,
        };
        let accel_tlb = config.qei.accel_tlb_entries;
        let tlbs = match scheme {
            Scheme::ChaTlb => (0..instances)
                .map(|_| Tlb::new(tlb_params(accel_tlb)))
                .collect(),
            Scheme::ChaNoTlb => Vec::new(),
            // Core-integrated stands in for the core's L2-TLB with a private
            // TLB of the same geometry (the core model keeps its own); its
            // area is *not* charged to QEI (see `qei-power`).
            Scheme::CoreIntegrated => vec![Tlb::new(config.l2_tlb)],
            Scheme::DeviceDirect | Scheme::DeviceIndirect => {
                vec![Tlb::new(tlb_params(accel_tlb))]
            }
        };
        let comparators = if scheme.comparators_in_cha() {
            vec![(config.qei.comparators_per_cha, 0u64); cores]
        } else {
            vec![(config.qei.comparators_per_dpu_device, 0u64)]
        };
        QeiAccelerator {
            firmware: FirmwareStore::with_builtins(),
            hw: Hardware {
                scheme,
                config: config.clone(),
                core_id,
                qsts: (0..instances)
                    .map(|_| QueryStateTable::new(entries_per))
                    .collect(),
                cee_issued: vec![0; instances],
                tlbs,
                comparators,
                device_data_latency: config
                    .qei
                    .device_data_latency
                    .unwrap_or(scheme.params().accel_data_latency),
                force_local_compare: false,
                stats: AccelStats::default(),
                trace: EventBuf::new(),
            },
            nb_drain: Cycles::ZERO,
            nb_outstanding: Vec::new(),
        }
    }

    /// The integration scheme.
    pub fn scheme(&self) -> Scheme {
        self.hw.scheme
    }

    /// Replaces the firmware store (to exercise firmware updates).
    pub fn firmware_mut(&mut self) -> &mut FirmwareStore {
        &mut self.firmware
    }

    /// Ablation: disable the near-data (in-CHA) comparison path — every
    /// comparison fetches its line to the accelerator and runs in a local
    /// comparator instead. Quantifies what the distributed comparators buy.
    pub fn set_force_local_compare(&mut self, force: bool) {
        self.hw.force_local_compare = force;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AccelStats {
        self.hw.stats
    }

    /// Starts a new measurement epoch: clears every busy-until clock
    /// (QST slots, CEE port, comparators), pending non-blocking state, and
    /// statistics, while keeping the translation TLBs warm. Used between a
    /// warm-up pass and the measured pass.
    pub fn reset_epoch(&mut self) {
        let hw = &mut self.hw;
        for q in &mut hw.qsts {
            q.reset();
        }
        hw.cee_issued.fill(0);
        for pool in &mut hw.comparators {
            pool.1 = 0;
        }
        self.nb_drain = Cycles::ZERO;
        self.nb_outstanding.clear();
        hw.stats = AccelStats::default();
        hw.trace.clear();
    }

    /// Takes the buffered trace events (chronological) plus the overwrite
    /// count, leaving the buffer empty.
    pub fn drain_trace(&mut self) -> (Vec<Event>, u64) {
        self.hw.trace.drain()
    }

    /// QST occupancy over a window (paper: 50–90% at 10 entries).
    pub fn qst_occupancy(&self, window: Cycles) -> f64 {
        let qsts = &self.hw.qsts;
        let total: f64 = qsts
            .iter()
            .map(|q| q.stats().occupancy(q.entries(), window))
            .sum();
        total / qsts.len() as f64
    }

    /// Earliest time all issued non-blocking results are in memory.
    pub fn nb_drain_time(&self) -> Cycles {
        self.nb_drain
    }

    // ------------------------------------------------------------------
    // Query instructions
    // ------------------------------------------------------------------

    /// Dispatches a blocking `QUERY_B` issued at `now`: returns the cycle
    /// the result reaches the core through the Result Queue, and the result
    /// or the delivered exception. A full QST shows up as backpressure
    /// folded into that cycle; the accelerator never refuses a query.
    pub fn query_b(
        &mut self,
        now: Cycles,
        header: VirtAddr,
        key: VirtAddr,
        guest: &mut GuestMem,
        mem: &mut MemoryHierarchy,
    ) -> (Cycles, Result<u64, FaultCode>) {
        let (qid, done, result) = self.issue(now, header, key, true, guest, mem);
        let completion = done + Cycles(self.hw.request_latency(mem));
        self.retire(qid, now, completion, result);
        (completion, result)
    }

    /// Dispatches a non-blocking `QUERY_NB` issued at `now`: returns the
    /// cycle the instruction retires (the request is enqueued) and the cycle
    /// the result word ([`nb_word`]) reaches `result` in memory.
    pub fn query_nb(
        &mut self,
        now: Cycles,
        header: VirtAddr,
        key: VirtAddr,
        result: VirtAddr,
        guest: &mut GuestMem,
        mem: &mut MemoryHierarchy,
    ) -> (Cycles, Cycles) {
        let (qid, done, outcome) = self.issue(now, header, key, false, guest, mem);
        let _ = guest.write_u64(result, nb_word(outcome));
        let store_done = match guest.translate(result) {
            Ok(pa) => done + self.hw.data_access(mem, pa, true, done).latency,
            Err(_) => done,
        };
        self.nb_drain = self.nb_drain.max(store_done);
        self.nb_outstanding.push((result, store_done));
        self.retire(qid, now, store_done, outcome);
        (now + Cycles(ENQUEUE_CYCLES), store_done)
    }

    /// Numbers and walks one query under the pricing hook: returns its
    /// number, when the walk finished (QST backpressure included) and its
    /// result.
    fn issue(
        &mut self,
        now: Cycles,
        header: VirtAddr,
        key: VirtAddr,
        blocking: bool,
        guest: &mut GuestMem,
        mem: &mut MemoryHierarchy,
    ) -> (u64, Cycles, Result<u64, FaultCode>) {
        let hw = &mut self.hw;
        let qid = hw.stats.queries;
        hw.stats.queries += 1;
        hw.trace.emit(
            now.as_u64(),
            TRACK_ISSUE,
            EventKind::QueryIssue,
            qid,
            u64::from(blocking),
        );
        let mut pricing = Pricing {
            hw,
            guest,
            mem,
            header,
            key,
            qid,
            now,
            inst: 0,
            slot: 0,
            start: None,
            t: now,
            staged: None,
        };
        let result = walk(&self.firmware, guest, header, key, &mut pricing).result;
        let done = pricing.finish();
        if result.is_err() {
            self.hw.stats.faults += 1;
        }
        (qid, done, result)
    }

    /// Records query `qid`, issued at `now`, as delivered at `done`: its
    /// latency and its trace event.
    fn retire(&mut self, qid: u64, now: Cycles, done: Cycles, result: Result<u64, FaultCode>) {
        let hw = &mut self.hw;
        hw.stats.record_latency((done - now).as_u64(), result.err());
        hw.trace.emit(
            done.as_u64(),
            TRACK_ISSUE,
            EventKind::QueryDone,
            result.err().map_or(0, |c| c.encode() & 0xFF),
            qid,
        );
    }

    /// Flushes the accelerator (interrupt/context switch, §IV-D). Abort codes
    /// are written with coalesced non-temporal stores for non-blocking
    /// entries; returns the cycle the flush completes (the core cannot start
    /// the interrupt handler before this).
    pub fn flush(&mut self, now: Cycles, guest: &mut GuestMem) -> Cycles {
        let mut aborted_nb = 0u32;
        for q in &mut self.hw.qsts {
            q.flush(now);
        }
        let pending: Vec<(VirtAddr, Cycles)> = self
            .nb_outstanding
            .drain(..)
            .filter(|&(_, done)| done > now)
            .collect();
        for (addr, _) in &pending {
            let _ = guest.write_u64(*addr, nb_word(Err(FaultCode::Aborted)));
            aborted_nb += 1;
        }
        self.hw.stats.nb_aborts += aborted_nb as u64;
        // Coalesced non-temporal stores: ~1 store per cacheline of results,
        // after address translation (already translated at submit).
        let lines = aborted_nb
            .div_ceil(8)
            .max(if aborted_nb > 0 { 1 } else { 0 });
        let flush_done = now + Cycles(lines as u64 * 4);
        self.nb_drain = flush_done;
        flush_done
    }
}

impl Hardware {
    /// Which instance serves a query. CHA-based schemes distribute requests
    /// across the CHAs with the NUCA hash (HALO-style); we key it on the
    /// query key's line, which is what spreads lookups into one shared
    /// structure over all slices.
    fn instance_of(&self, mem: &MemoryHierarchy, guest: &GuestMem, key_addr: VirtAddr) -> usize {
        if self.qsts.len() == 1 {
            return 0;
        }
        match guest.translate(key_addr) {
            Ok(pa) => mem.home_slice(pa) as usize,
            Err(_) => 0,
        }
    }

    /// One-way core ↔ accelerator request latency for this scheme.
    fn request_latency(&self, mem: &MemoryHierarchy) -> u64 {
        let base = match self.scheme {
            // Device-direct: real mesh hops to the device stop plus the
            // heterogeneous-core interface machinery.
            Scheme::DeviceDirect => {
                let hops = mem.noc().hops(Tile(self.core_id), mem.noc().device_tile()) as u64;
                hops * self.config.noc_hop_latency + 60
            }
            // Core-integrated: the Query Queue lives beside the L2.
            // CHA-based: Table I's 40–60 cycle midpoint covers the mesh
            // traversal to the serving CHA. Device-indirect: the standard
            // device interface dominates.
            Scheme::CoreIntegrated | Scheme::ChaTlb | Scheme::ChaNoTlb | Scheme::DeviceIndirect => {
                self.scheme.params().core_accel_latency
            }
        };
        base.max(self.config.l2.latency)
    }

    /// Translation latency on the accelerator path for this scheme.
    fn translate(&mut self, mem: &MemoryHierarchy, inst: usize, addr: VirtAddr) -> u64 {
        self.stats.tlb_lookups += 1;
        match self.scheme {
            Scheme::ChaNoTlb => {
                // Translation round-trips to the owning core's MMU. The
                // request/response messages are tiny and pipelined on a
                // dedicated virtual channel, so the cost is one traversal's
                // worth of hops plus the MMU lookup (the core's L2-TLB is
                // warm for the structure being queried).
                let hops = mem.noc().hops(Tile(inst as u32), Tile(self.core_id)) as u64;
                hops * self.config.noc_hop_latency + self.config.l2_tlb.hit_latency + 4
            }
            _ => {
                let idx = inst.min(self.tlbs.len() - 1);
                let tlb = &mut self.tlbs[idx];
                if tlb.access(addr.vpn()) {
                    1
                } else {
                    self.stats.tlb_misses += 1;
                    1 + self.config.page_walk_latency
                }
            }
        }
    }

    /// A data access (line-granular) from the accelerator's position. The
    /// returned latency folds in the scheme's path (NoC hops, interface
    /// latency); the level is the cache level that serviced the line.
    fn data_access(
        &mut self,
        mem: &mut MemoryHierarchy,
        pa: qei_mem::PhysAddr,
        write: bool,
        t: Cycles,
    ) -> AccessResult {
        let now = t.as_u64();
        match self.scheme {
            Scheme::ChaTlb | Scheme::ChaNoTlb => {
                // Served at the home slice; the instance *is* a CHA. The
                // instance→home hop is inside access_cha.
                let home = mem.home_slice(pa);
                mem.access_cha(home, pa, write, now)
            }
            Scheme::CoreIntegrated => mem.access_l2_read_through(self.core_id, pa, write, now),
            Scheme::DeviceDirect => {
                let dev = mem.noc().device_tile();
                let home = mem.home_slice(pa);
                let hop = mem.noc_mut().transfer(dev, Tile(home), 64, now);
                let inner = mem.access_cha(home, pa, write, now);
                AccessResult {
                    latency: hop + inner.latency,
                    level: inner.level,
                }
            }
            Scheme::DeviceIndirect => {
                let dev = mem.noc().device_tile();
                let home = mem.home_slice(pa);
                let hop = mem.noc_mut().transfer(dev, Tile(home), 64, now);
                let inner = mem.access_cha(home, pa, write, now);
                AccessResult {
                    latency: hop + inner.latency + Cycles(self.device_data_latency),
                    level: inner.level,
                }
            }
        }
    }

    /// Throughput-based comparator queueing: the pool's cumulative busy time
    /// divided by its width bounds when a new comparison can begin.
    fn comparator_queue(&mut self, pool: usize, cmp_cycles: u64, ready: Cycles) -> Cycles {
        let (width, busy) = &mut self.comparators[pool];
        let earliest = Cycles(*busy / *width as u64);
        *busy += cmp_cycles;
        earliest.saturating_sub(ready)
    }
}

/// Fixed cost of parsing the header and initializing a QST entry.
pub const HEADER_PARSE_CYCLES: u64 = 2;
/// Cost of enqueueing a request into the Query Queue.
pub const ENQUEUE_CYCLES: u64 = 2;
/// Pipelined extra-line cost for multi-line reads (beyond the first line).
pub const EXTRA_LINE_CYCLES: u64 = 8;

/// The timing model's [`WalkHook`]: claims a QST slot when the header is
/// admitted, keeps the walk's clock, and prices each fetch and micro-op on
/// the shared substrate as the walk issues it.
struct Pricing<'a> {
    hw: &'a mut Hardware,
    guest: &'a GuestMem,
    mem: &'a mut MemoryHierarchy,
    header: VirtAddr,
    key: VirtAddr,
    qid: u64,
    /// Cycle at which the core dispatched the query.
    now: Cycles,
    /// The serving instance and the QST slot claimed in it.
    inst: usize,
    slot: usize,
    /// When the slot was claimed; `None` until the header is admitted.
    start: Option<Cycles>,
    /// The walk's clock.
    t: Cycles,
    /// The staged intermediate data `[start, end)`: when a Compare targets
    /// bytes inside the most recently fetched region, the comparison runs
    /// locally in the DPU on the staged line instead of as a remote
    /// micro-op (paper §V-A: "a small key comparison can be done in one of
    /// the DPUs if the key is part of the fetched cacheline").
    staged: Option<(u64, u64)>,
}

impl WalkHook for Pricing<'_> {
    fn admitted(&mut self) {
        self.inst = self.hw.instance_of(self.mem, self.guest, self.key);
        // Request flight + QST claim (backpressure if full).
        let arrive = self.now + Cycles(ENQUEUE_CYCLES + self.hw.request_latency(self.mem));
        let (start, slot) = self.hw.qsts[self.inst].claim(arrive);
        self.hw.trace.emit(
            start.as_u64(),
            qst_track(self.inst, slot),
            EventKind::QstClaim,
            self.qid,
            slot as u64,
        );
        self.slot = slot;
        self.start = Some(start);
        self.t = start;
        // Header fetch + parse (one line).
        let fetch = self.mem_op(self.header, 64);
        self.t += fetch + Cycles(HEADER_PARSE_CYCLES);
    }

    fn key_fetched(&mut self, key: &[u8]) {
        let fetch = self.mem_op(self.key, key.len() as u32);
        self.t += fetch;
    }

    fn before_step(&mut self) {
        // CEE issue port: one ready entry processed per cycle. The
        // cumulative op count is a lower bound on this op's issue time.
        let issued = &mut self.hw.cee_issued[self.inst];
        self.t = self.t.max(Cycles(*issued)) + Cycles(1);
        *issued += 1;
    }

    fn before_op(&mut self, ctx: &QueryCtx, op: MicroOp) {
        let class = match op {
            MicroOp::Read { .. } => 0,
            MicroOp::Compare { .. } => 1,
            MicroOp::Hash { .. } => 2,
            _ => 3,
        };
        let track = qst_track(self.inst, self.slot);
        self.hw
            .trace
            .emit(self.t.as_u64(), track, EventKind::UopIssue, class, self.qid);
        let cost = match op {
            MicroOp::Read { addr, len } => {
                let cost = self.mem_op(addr, len);
                self.staged = Some((addr.0, addr.0.saturating_add(len as u64)));
                cost
            }
            MicroOp::Compare { addr, len, .. } => {
                let end = addr.0.saturating_add(len as u64);
                let inline = self.staged.is_some_and(|(s, e)| addr.0 >= s && end <= e);
                self.compare_op(addr, len, inline)
            }
            MicroOp::Hash { .. } => {
                self.hw.stats.hashes += 1;
                // Hash unit latency scales with key length (8 B per cycle
                // through the pipeline) plus the fixed pipeline depth.
                let chunks = (ctx.key.len() as u64).div_ceil(8);
                Cycles(self.hw.config.qei.hash_latency + chunks)
            }
            MicroOp::Alu { n } => {
                self.hw.stats.alu_ops += n as u64;
                // `alus_per_dpu` ALU ops complete per cycle.
                Cycles((n as u64).div_ceil(self.hw.config.qei.alus_per_dpu as u64))
            }
            MicroOp::Done { .. } | MicroOp::Fault { .. } => Cycles::ZERO,
        };
        self.t += cost;
    }
}

impl Pricing<'_> {
    /// Releases the QST slot and returns when the walk finished. A header
    /// that failed the gate claimed no slot: it completes after one request
    /// flight.
    fn finish(self) -> Cycles {
        let Some(start) = self.start else {
            return self.now + Cycles(self.hw.request_latency(self.mem));
        };
        self.hw.qsts[self.inst].complete(self.slot, start, self.t);
        self.hw.trace.emit(
            self.t.as_u64(),
            qst_track(self.inst, self.slot),
            EventKind::QstRelease,
            self.qid,
            self.slot as u64,
        );
        self.t
    }

    /// A memory fetch: translation + line fetch(es).
    fn mem_op(&mut self, addr: VirtAddr, len: u32) -> Cycles {
        let (t, inst) = (self.t, self.inst);
        let hw = &mut *self.hw;
        hw.stats.mem_ops += 1;
        let lines = dpu::span_lines(addr.0, len).max(1);
        hw.stats.lines_fetched += lines;
        let tlb = hw.translate(self.mem, inst, addr);
        let Ok(pa) = self.guest.translate(addr) else {
            // The fault will surface in the functional step; charge the
            // walk that discovered it.
            return Cycles(tlb + hw.config.page_walk_latency);
        };
        let first = hw.data_access(self.mem, pa, false, t + Cycles(tlb));
        hw.trace.emit(
            t.as_u64(),
            qst_track(inst, self.slot),
            EventKind::MemAccess,
            level_code(first.level),
            lines,
        );
        // Subsequent lines pipeline behind the first.
        Cycles(tlb) + first.latency + Cycles((lines - 1) * EXTRA_LINE_CYCLES)
    }

    /// A comparison micro-op. `inline` compares run on the staged line in a
    /// local DPU comparator; others are remote micro-ops to the home CHA.
    fn compare_op(&mut self, addr: VirtAddr, len: u32, inline: bool) -> Cycles {
        let (t, inst) = (self.t, self.inst);
        let (hw, mem) = (&mut *self.hw, &mut *self.mem);
        hw.stats.compares += 1;
        hw.stats.compare_bytes += len as u64;
        let cmp_cycles = (len as u64).div_ceil(hw.config.qei.comparator_bytes_per_cycle as u64);
        if inline {
            // Already staged: no translation, no data movement. The local
            // comparator pool is per instance; contention is negligible at
            // one compare per staged line, so charge the compare itself.
            return Cycles(cmp_cycles);
        }
        let tlb = hw.translate(mem, inst, addr);
        let Ok(pa) = self.guest.translate(addr) else {
            return Cycles(tlb + hw.config.page_walk_latency);
        };
        let after_tlb = t + Cycles(tlb);

        if hw.scheme.comparators_in_cha() && !hw.force_local_compare {
            // Remote micro-op: travel to the home CHA, read the line there,
            // run on one of its comparators, return the verdict.
            let home = mem.home_slice(pa);
            let origin = match hw.scheme {
                Scheme::CoreIntegrated => Tile(hw.core_id),
                _ => Tile(inst as u32),
            };
            let mut travel = Cycles::ZERO;
            if origin != Tile(home) {
                hw.stats.remote_compares += 1;
                // Request there + verdict back (16 B messages).
                let at = after_tlb.as_u64();
                travel += mem.noc_mut().transfer(origin, Tile(home), 16, at);
                travel += mem.noc_mut().transfer(Tile(home), origin, 16, at);
            }
            let data = mem.access_cha(home, pa, false, after_tlb.as_u64()).latency;
            let queue = hw.comparator_queue(home as usize, cmp_cycles, after_tlb + data);
            (after_tlb + data + queue + Cycles(cmp_cycles) + travel) - t
        } else {
            // Device: fetch the line to the device, compare locally.
            let data = hw.data_access(mem, pa, false, after_tlb).latency;
            let queue = hw.comparator_queue(0, cmp_cycles, after_tlb + data);
            (after_tlb + data + queue + Cycles(cmp_cycles)) - t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{DsType, Header, HEADER_BYTES};
    use crate::walk::run_query;

    /// Builds a linked list of `n` nodes with 8-byte keys k0..k(n-1).
    fn build_list(mem: &mut GuestMem, n: u64) -> VirtAddr {
        let mut head = 0u64;
        for i in (0..n).rev() {
            let key = format!("k{i:07}");
            let kb = mem.alloc(8, 8).unwrap();
            mem.write(kb, key.as_bytes()).unwrap();
            let node = mem.alloc(24, 8).unwrap();
            mem.write_u64(node, head).unwrap();
            mem.write_u64(node + 8, kb.0).unwrap();
            mem.write_u64(node + 16, 100 + i).unwrap();
            head = node.0;
        }
        let header = Header {
            ds_ptr: VirtAddr(head),
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len: 8,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let ha = mem.alloc(HEADER_BYTES, 64).unwrap();
        header.write_to(mem, ha).unwrap();
        ha
    }

    fn key_at(mem: &mut GuestMem, i: u64) -> VirtAddr {
        let kb = mem.alloc(8, 8).unwrap();
        mem.write(kb, format!("k{i:07}").as_bytes()).unwrap();
        kb
    }

    #[test]
    fn timing_result_matches_functional_result() {
        let config = MachineConfig::skylake_sp_24();
        for scheme in Scheme::ALL {
            let mut guest = GuestMem::new(31);
            let mut hier = MemoryHierarchy::new(&config);
            let mut accel = QeiAccelerator::new(&config, scheme, 0);
            let fw = FirmwareStore::with_builtins();
            let ha = build_list(&mut guest, 16);
            for i in [0u64, 7, 15, 99] {
                let ka = key_at(&mut guest, i);
                let functional = run_query(&fw, &guest, ha, ka);
                let (completion, result) = accel.query_b(Cycles(0), ha, ka, &mut guest, &mut hier);
                assert_eq!(result, functional, "{scheme}: key {i}");
                assert!(completion > Cycles(0));
            }
        }
    }

    #[test]
    fn overlapped_queries_beat_serial_sum() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(32);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 12);

        // Serial: each submitted after the previous completes.
        let mut t = Cycles(0);
        let mut serial_span = 0u64;
        for i in 0..8u64 {
            let ka = key_at(&mut guest, i % 12);
            let (completion, _) = accel.query_b(t, ha, ka, &mut guest, &mut hier);
            serial_span += (completion - t).as_u64();
            t = completion;
        }

        // Overlapped: all submitted at once (fresh accelerator, same data).
        let mut hier2 = MemoryHierarchy::new(&config);
        let mut accel2 = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let mut last = Cycles(0);
        for i in 0..8u64 {
            let ka = key_at(&mut guest, i % 12);
            let (completion, _) = accel2.query_b(Cycles(0), ha, ka, &mut guest, &mut hier2);
            last = last.max(completion);
        }
        assert!(
            last.as_u64() < serial_span,
            "overlapped {last} should beat serial {serial_span}"
        );
    }

    #[test]
    fn qst_capacity_creates_backpressure() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(33);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 64);
        // Far more simultaneous queries than the 10-entry QST.
        let mut completions = Vec::new();
        for i in 0..40u64 {
            let ka = key_at(&mut guest, 63 - (i % 64));
            let (completion, _) = accel.query_b(Cycles(0), ha, ka, &mut guest, &mut hier);
            completions.push(completion.as_u64());
        }
        let max = *completions.iter().max().unwrap();
        let min = *completions.iter().min().unwrap();
        // With only 10 slots, the last queries must wait for earlier ones.
        assert!(max > min * 2, "no backpressure observed: {min}..{max}");
    }

    #[test]
    fn device_indirect_latency_sweep_monotone() {
        let config = MachineConfig::skylake_sp_24();
        let mut spans = Vec::new();
        for lat in [50u64, 500, 2000] {
            let mut config = config.clone();
            config.qei.device_data_latency = Some(lat);
            let mut guest = GuestMem::new(34);
            let mut hier = MemoryHierarchy::new(&config);
            let mut accel = QeiAccelerator::new(&config, Scheme::DeviceIndirect, 0);
            let ha = build_list(&mut guest, 8);
            let ka = key_at(&mut guest, 7);
            let (completion, _) = accel.query_b(Cycles(0), ha, ka, &mut guest, &mut hier);
            spans.push(completion.as_u64());
        }
        assert!(spans[0] < spans[1] && spans[1] < spans[2], "{spans:?}");
    }

    #[test]
    fn nonblocking_writes_result_and_drains() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(35);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 8);
        let ka = key_at(&mut guest, 3);
        let ra = guest.alloc(8, 8).unwrap();
        let (accept, done) = accel.query_nb(Cycles(5), ha, ka, ra, &mut guest, &mut hier);
        assert!(accept >= Cycles(5));
        assert!(done > accept);
        assert!(accel.nb_drain_time() > accept);
        assert_eq!(guest.read_u64(ra).unwrap(), 103);
    }

    #[test]
    fn nonblocking_fault_is_encoded_at_result_address() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(36);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::ChaTlb, 0);
        // Header points at unmapped memory.
        let header = Header {
            ds_ptr: VirtAddr(0xbad0_0000),
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len: 8,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let ha = guest.alloc(HEADER_BYTES, 64).unwrap();
        header.write_to(&mut guest, ha).unwrap();
        let ka = key_at(&mut guest, 0);
        let ra = guest.alloc(8, 8).unwrap();
        accel.query_nb(Cycles(0), ha, ka, ra, &mut guest, &mut hier);
        let wire = guest.read_u64(ra).unwrap();
        assert_eq!(FaultCode::decode(wire), Some(FaultCode::PageFault));
    }

    #[test]
    fn flush_aborts_outstanding_nonblocking() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(37);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 32);
        let ra = guest.alloc(8 * 4, 8).unwrap();
        for i in 0..4u64 {
            let ka = key_at(&mut guest, 31 - i);
            accel.query_nb(Cycles(0), ha, ka, ra + i * 8, &mut guest, &mut hier);
        }
        // Flush *before* any completion time: everything outstanding aborts.
        let done = accel.flush(Cycles(1), &mut guest);
        assert!(done > Cycles(1));
        assert_eq!(accel.stats().nb_aborts, 4);
        for i in 0..4u64 {
            let wire = guest.read_u64(ra + i * 8).unwrap();
            assert_eq!(FaultCode::decode(wire), Some(FaultCode::Aborted));
        }
    }

    #[test]
    fn core_integrated_issues_remote_compares_for_out_of_line_keys() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(39);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 12);
        for i in 0..12u64 {
            let ka = key_at(&mut guest, i);
            let _ = accel.query_b(Cycles(0), ha, ka, &mut guest, &mut hier);
        }
        let s = accel.stats();
        // Linked-list keys live out of line; most comparisons travel to a
        // remote CHA (only lines homed at the issuing core's slice stay
        // local).
        assert!(
            s.remote_compares > s.compares / 2,
            "remote {} of {}",
            s.remote_compares,
            s.compares
        );
    }

    #[test]
    fn tiny_accel_tlb_misses_show_up() {
        let mut config = MachineConfig::skylake_sp_24();
        config.qei.accel_tlb_entries = 8;
        let mut guest = GuestMem::new(40);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::DeviceDirect, 0);
        // The bump allocator packs nodes densely (~48 B per item including
        // the key buffer), so 400 items span a handful of pages; the first
        // walk must still take compulsory misses on each of them.
        let ha = build_list(&mut guest, 400);
        let ka = key_at(&mut guest, 399);
        let _ = accel.query_b(Cycles(0), ha, ka, &mut guest, &mut hier);
        let s = accel.stats();
        assert!(s.tlb_misses >= 3, "misses {}", s.tlb_misses);
        assert!(s.tlb_lookups > 100 * s.tlb_misses, "dense pages amortize");
    }

    #[test]
    fn occupancy_reflects_submitted_work() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(41);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 32);
        let mut last = Cycles(0);
        for i in 0..20u64 {
            let ka = key_at(&mut guest, 31 - (i % 32));
            let (completion, _) = accel.query_b(Cycles(0), ha, ka, &mut guest, &mut hier);
            last = last.max(completion);
        }
        let occ = accel.qst_occupancy(last);
        assert!(occ > 0.2 && occ <= 1.0, "occupancy {occ}");
    }

    #[test]
    fn reset_epoch_clears_clocks_but_keeps_tlb_warm() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(42);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::ChaTlb, 0);
        let ha = build_list(&mut guest, 8);
        let ka = key_at(&mut guest, 7);
        let _ = accel.query_b(Cycles(0), ha, ka, &mut guest, &mut hier);
        let warm_misses = accel.stats().tlb_misses;
        assert!(warm_misses > 0);
        accel.reset_epoch();
        assert_eq!(accel.stats().queries, 0);
        // Same query again: the TLB stayed warm across the epoch.
        let _ = accel.query_b(Cycles(0), ha, ka, &mut guest, &mut hier);
        assert_eq!(accel.stats().tlb_misses, 0, "TLB must stay warm");
    }

    #[test]
    fn stats_accumulate() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(38);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::ChaTlb, 0);
        let ha = build_list(&mut guest, 10);
        for i in 0..10u64 {
            let ka = key_at(&mut guest, i);
            let _ = accel.query_b(Cycles(0), ha, ka, &mut guest, &mut hier);
        }
        let s = accel.stats();
        assert_eq!(s.queries, 10);
        assert!(s.mem_ops > 20);
        assert!(s.compares >= 10);
        assert!(s.tlb_lookups > 0);
        assert!(s.mean_latency() > 0.0);
        assert_eq!(s.faults, 0);
        assert_eq!(s.latency_hist.count(), 10);
        assert_eq!(s.fault_latency_hist.count(), 0);
        assert_eq!(s.fault_latency_sum, 0);
        assert!(s.latency_hist.p50() <= s.latency_hist.p99());
    }

    #[test]
    fn injected_faults_fill_only_the_fault_histogram() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(43);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::ChaTlb, 0);
        let ha = build_list(&mut guest, 8);
        for i in 0..5u64 {
            let ka = key_at(&mut guest, i);
            let _ = accel.query_b(Cycles(0), ha, ka, &mut guest, &mut hier);
        }
        let before = accel.stats();
        assert_eq!(before.faults, 0);

        // A header whose data pointer walks into unmapped memory: the
        // firmware's first node read page-faults.
        let bad = Header {
            ds_ptr: VirtAddr(0xbad0_0000),
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len: 8,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let bha = guest.alloc(HEADER_BYTES, 64).unwrap();
        bad.write_to(&mut guest, bha).unwrap();
        for i in 0..3u64 {
            let ka = key_at(&mut guest, i);
            let (_, result) = accel.query_b(Cycles(0), bha, ka, &mut guest, &mut hier);
            assert!(result.is_err());
        }

        let after = accel.stats();
        assert_eq!(after.faults, 3);
        // Faults land in the fault histogram; the success histogram and its
        // mean are untouched.
        assert_eq!(after.fault_latency_hist.count(), 3);
        assert!(after.fault_latency_sum > 0);
        assert_eq!(after.latency_hist, before.latency_hist);
        assert_eq!(after.latency_sum, before.latency_sum);
        assert_eq!(after.mean_latency(), before.mean_latency());

        // The registry gains the per-outcome keys.
        let mut reg = qei_config::StatsRegistry::new();
        after.export_stats(&mut reg);
        assert!(reg.count("accel", "fault_latency_sum") > 0);
        assert!(reg.count("accel", "latency_p99") >= reg.count("accel", "latency_p50"));
        assert!(matches!(
            reg.get("accel", "fault_latency_hist"),
            Some(qei_config::StatValue::Hist(b)) if !b.is_empty()
        ));
    }
}
