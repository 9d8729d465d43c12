//! Abstract cost interpretation: worst-case per-query resource bounds.
//!
//! The explored configuration graph ([`mod@crate::explore`]) records, for every
//! configuration, the micro-op it emitted — operands included. The cost
//! analysis abstracts that graph per *CFA state byte*: the abstract value
//! for a state is the interval `[0, worst]` of what a single execution of
//! that state may consume for each metric, joined (component-wise max) over
//! every explored configuration at that state. Loops make a state's
//! execution count unbounded in the graph alone, so execution counts widen
//! to the structural bound `W` from [`widen_spec`] — B+-tree depth, cuckoo
//! probe count, trie text length, skip-list towers are all `<= W` for any
//! structure the contract covers. The worst-case bound per metric is then
//! the sum over states of `W x worst(state)`: sound whenever (a) the header
//! lies inside the widening envelope (`key_len`/`aux0` caps, several of
//! which header validation already enforces) and (b) no CFA state executes
//! more than `W` times, which holds for every structure whose traversal
//! depth (chain length, tree depth, text length) stays under `W`.
//!
//! Operand sizes that derive from header fields are captured by exploring a
//! *widened* header set: every model header is re-explored with `key_len`
//! and `aux0` raised to the envelope caps, so the recorded `Read`/`Compare`
//! operands at each state are the worst any in-envelope header can produce.
//! Operand sizes that derive from fetched data (child counts) are covered
//! by the models' corrupt-count line shapes plus the firmware clamps
//! (`MAX_CHILDREN`, fanout) that verification separately pins.
//!
//! Completion-cycle bounds price the same walk at four assumed servicing
//! levels (every access L1 / L2 / LLC / DRAM), uncontended — one query
//! alone on the accelerator, which is exactly the service-time view the
//! serving layer wants. All arithmetic saturates: a deliberately broken CFA
//! gets a finite (possibly useless) contract, never a panic.

use crate::explore::{self, ConfigEnd};
use crate::model::StructureModel;
use qei_config::{CostContract, MachineConfig};
use qei_core::accel::{ENQUEUE_CYCLES, EXTRA_LINE_CYCLES, HEADER_PARSE_CYCLES};
use qei_core::firmware::{CfaProgram, STEP_LIMIT};
use qei_core::{Header, MicroOp};

/// Per-structure widening parameters: the envelope the contract covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidenSpec {
    /// Max executions of any single CFA state (traversal-depth bound).
    pub iters: u64,
    /// Max header `key_len` covered.
    pub key_len: u32,
    /// Max header `aux0` covered (`u64::MAX` when `aux0` never sizes an
    /// operand for this structure).
    pub aux0: u64,
}

/// The widening table. Where header validation already caps a field
/// (cuckoo `aux0 <= 16`, skip-list `aux0 <= 32`, `key_len <= 4096`, BST
/// `key_len == 8`), the envelope uses exactly the validation cap, so every
/// valid header of that type is covered. `iters` is the structural
/// traversal bound: generous multiples of the deepest walk any tier-1
/// workload produces (BST depth ~55 at 200 k random keys, 12 skip-list
/// levels, two cuckoo buckets of <= 16 entries, text scans amortizing <= 2
/// state executions per byte).
pub fn widen_spec(dtype: u8, subtype: u8) -> WidenSpec {
    match (dtype, subtype) {
        // Linked list: chain length is data-bounded; no aux0-sized operands.
        (1, _) => WidenSpec {
            iters: 4096,
            key_len: 512,
            aux0: u64::MAX,
        },
        // Chained hash: per-bucket chain walk.
        (2, 0) => WidenSpec {
            iters: 1024,
            key_len: 512,
            aux0: u64::MAX,
        },
        // Cuckoo hash: two buckets x aux0 <= 16 entries (validation cap).
        (2, 1) => WidenSpec {
            iters: 64,
            key_len: 512,
            aux0: 16,
        },
        // Skip list: aux0 <= 32 towers (validation cap) x horizontal walk.
        (3, _) => WidenSpec {
            iters: 4096,
            key_len: 512,
            aux0: 32,
        },
        // BST: depth-bounded descent; validation forces key_len == 8.
        (4, _) => WidenSpec {
            iters: 512,
            key_len: 8,
            aux0: u64::MAX,
        },
        // Tries (AC and LPM): per-text-byte loops up to the 4 KB key cap,
        // plus amortized failure-link hops.
        (5, _) => WidenSpec {
            iters: 65536,
            key_len: 4096,
            aux0: u64::MAX,
        },
        // Loadable B+-tree: fanout-8 descent, depth <= 8 covers 16M keys.
        (16, 0) => WidenSpec {
            iters: 64,
            key_len: 512,
            aux0: u64::MAX,
        },
        // Unknown firmware: the universal caps.
        _ => WidenSpec {
            iters: 65536,
            key_len: 4096,
            aux0: u64::MAX,
        },
    }
}

/// One state's worst single-execution cost, per metric.
#[derive(Debug, Clone, Copy, Default)]
struct StateWorst {
    executes: bool,
    read_ops: u64,
    read_bytes: u64,
    compare_ops: u64,
    compare_bytes: u64,
    hash_ops: u64,
    alu_ops: u64,
    mem_lines: u64,
    cycles: [u64; 4],
}

/// Worst-alignment line count for an `len`-byte access: `ceil(len/64) + 1`
/// (the span may start mid-line).
fn worst_lines(len: u32) -> u64 {
    if len == 0 {
        0
    } else {
        (len as u64).div_ceil(64) + 1
    }
}

/// Translation cost assumed per servicing level: L1/L2 hits ride a warm
/// L1 TLB, LLC-resident sets fall to the L2 TLB, DRAM-resident sets pay
/// the full page walk.
fn tlb_cost(machine: &MachineConfig, level: usize) -> u64 {
    match level {
        0 | 1 => 1,
        2 => 1 + machine.l2_tlb.hit_latency,
        _ => 1 + machine.page_walk_latency,
    }
}

fn level_latency(machine: &MachineConfig, level: usize) -> u64 {
    match level {
        0 => machine.l1d.latency,
        1 => machine.l2.latency,
        2 => machine.llc.latency,
        _ => machine.dram.latency,
    }
}

/// Worst-case mesh round trip (request + response) between any two tiles,
/// for remote-compare messaging.
fn mesh_round_trip(machine: &MachineConfig) -> u64 {
    let hops = (machine.mesh_width as u64 - 1) + (machine.mesh_height() as u64 - 1);
    2 * hops * machine.noc_hop_latency
}

/// Prices one micro-op at an assumed servicing level, uncontended. Every op
/// also pays its CEE issue slot (one cycle).
fn op_cycles(machine: &MachineConfig, op: MicroOp, key_len: u32, level: usize) -> u64 {
    let issue = 1u64;
    let mem = |len: u32| {
        tlb_cost(machine, level)
            .saturating_add(level_latency(machine, level))
            .saturating_add(
                worst_lines(len)
                    .saturating_sub(1)
                    .saturating_mul(EXTRA_LINE_CYCLES),
            )
    };
    let cmp_unit =
        |len: u32| (len as u64).div_ceil(machine.qei.comparator_bytes_per_cycle.max(1) as u64);
    issue.saturating_add(match op {
        MicroOp::Read { len, .. } => mem(len),
        // Compare worst case: the remote path — fetch at the home CHA plus
        // the mesh round trip for request/verdict, plus the compare itself.
        MicroOp::Compare { len, .. } => mem(len)
            .saturating_add(cmp_unit(len))
            .saturating_add(mesh_round_trip(machine)),
        MicroOp::Hash { .. } => machine
            .qei
            .hash_latency
            .saturating_add((key_len as u64).div_ceil(8)),
        MicroOp::Alu { n } => (n as u64).div_ceil(machine.qei.alus_per_dpu.max(1) as u64),
        MicroOp::Done { .. } | MicroOp::Fault { .. } => 0,
    })
}

/// The universal per-op worst case, used when exploration exhausts its
/// budget (the graph may be incomplete, so per-state operand maxima cannot
/// be trusted): every state may issue the largest op the DPU issue budget
/// admits.
fn budget_cap_worst(machine: &MachineConfig, key_len: u32) -> StateWorst {
    let mut w = StateWorst {
        executes: true,
        read_ops: 1,
        read_bytes: qei_core::uop::MAX_READ_BYTES as u64,
        compare_ops: 1,
        compare_bytes: qei_core::uop::MAX_COMPARE_BYTES as u64,
        hash_ops: 1,
        alu_ops: qei_core::uop::MAX_ALU_BATCH as u64,
        mem_lines: worst_lines(qei_core::uop::MAX_READ_BYTES)
            + worst_lines(qei_core::uop::MAX_COMPARE_BYTES),
        cycles: [0; 4],
    };
    for (level, slot) in w.cycles.iter_mut().enumerate() {
        let ops = [
            MicroOp::Read {
                addr: qei_mem::VirtAddr(0),
                len: qei_core::uop::MAX_READ_BYTES,
            },
            MicroOp::Compare {
                addr: qei_mem::VirtAddr(0),
                len: qei_core::uop::MAX_COMPARE_BYTES,
                key_off: 0,
            },
            MicroOp::Hash { seed: 0 },
            MicroOp::Alu {
                n: qei_core::uop::MAX_ALU_BATCH,
            },
        ];
        *slot = ops
            .into_iter()
            .map(|op| op_cycles(machine, op, key_len, level))
            .fold(0u64, |a, b| a.max(b));
    }
    w
}

/// Derives the cost contract for one firmware program against its model.
/// Never panics: exploration catches step panics, and all cost arithmetic
/// saturates, so deliberately broken CFAs get finite contracts.
pub fn analyze(program: &dyn CfaProgram, model: &StructureModel) -> CostContract {
    let machine = MachineConfig::skylake_sp_24();
    let spec = widen_spec(model.dtype, model.subtype);

    // Explore the model headers plus envelope-widened copies, so recorded
    // operand sizes reflect the worst in-envelope header.
    let mut headers: Vec<Header> = model.headers.clone();
    for base in &model.headers {
        let mut h = *base;
        h.key_len = h.key_len.max(spec.key_len.min(u16::MAX as u32) as u16);
        if spec.aux0 != u64::MAX {
            h.aux0 = h.aux0.max(spec.aux0);
        }
        if !headers.contains(&h) {
            headers.push(h);
        }
    }
    let ex = explore::explore_with_headers(program, model, headers);

    // Fold per-state worst single-execution costs over the graph.
    let mut worst: std::collections::BTreeMap<u8, StateWorst> = std::collections::BTreeMap::new();
    if ex.budget_exhausted {
        // Incomplete graph: fall back to the DPU issue-budget caps for every
        // declared state (still finite, still sound for in-budget firmware).
        let cap = budget_cap_worst(&machine, spec.key_len);
        for s in 0..program.state_count().max(1) {
            worst.insert(s, cap);
        }
    } else {
        for cfg in &ex.configs {
            let Some(op) = cfg.op else { continue };
            if matches!(cfg.end, ConfigEnd::Done { .. } | ConfigEnd::Fault) {
                continue; // terminal ops never reach the DPU
            }
            let w = worst.entry(cfg.state).or_default();
            w.executes = true;
            match op {
                MicroOp::Read { len, .. } => {
                    w.read_ops = w.read_ops.max(1);
                    w.read_bytes = w.read_bytes.max(len as u64);
                    w.mem_lines = w.mem_lines.max(worst_lines(len));
                }
                MicroOp::Compare { len, .. } => {
                    w.compare_ops = w.compare_ops.max(1);
                    w.compare_bytes = w.compare_bytes.max(len as u64);
                    w.mem_lines = w.mem_lines.max(worst_lines(len));
                }
                MicroOp::Hash { .. } => w.hash_ops = w.hash_ops.max(1),
                MicroOp::Alu { n } => w.alu_ops = w.alu_ops.max(n as u64),
                MicroOp::Done { .. } | MicroOp::Fault { .. } => {}
            }
            for (level, slot) in w.cycles.iter_mut().enumerate() {
                *slot = (*slot).max(op_cycles(&machine, op, spec.key_len, level));
            }
        }
    }

    // Sum W x worst(state) over the executing states.
    let mut c = CostContract {
        cfa: program.name().to_string(),
        model: model.name.to_string(),
        dtype: model.dtype,
        subtype: model.subtype,
        widen_iters: spec.iters,
        widen_key_len: spec.key_len,
        widen_aux0: spec.aux0,
        states: 0,
        read_ops: 0,
        read_bytes: 0,
        compare_ops: 0,
        compare_bytes: 0,
        hash_ops: 0,
        alu_ops: 0,
        mem_lines: 0,
        cycles_l1: 0,
        cycles_l2: 0,
        cycles_llc: 0,
        cycles_dram: 0,
    };
    let mut cycles = [0u64; 4];
    for w in worst.values() {
        if !w.executes {
            continue;
        }
        c.states = c.states.saturating_add(spec.iters);
        c.read_ops = c
            .read_ops
            .saturating_add(spec.iters.saturating_mul(w.read_ops));
        c.read_bytes = c
            .read_bytes
            .saturating_add(spec.iters.saturating_mul(w.read_bytes));
        c.compare_ops = c
            .compare_ops
            .saturating_add(spec.iters.saturating_mul(w.compare_ops));
        c.compare_bytes = c
            .compare_bytes
            .saturating_add(spec.iters.saturating_mul(w.compare_bytes));
        c.hash_ops = c
            .hash_ops
            .saturating_add(spec.iters.saturating_mul(w.hash_ops));
        c.alu_ops = c
            .alu_ops
            .saturating_add(spec.iters.saturating_mul(w.alu_ops));
        c.mem_lines = c
            .mem_lines
            .saturating_add(spec.iters.saturating_mul(w.mem_lines));
        for (level, slot) in cycles.iter_mut().enumerate() {
            *slot = slot.saturating_add(spec.iters.saturating_mul(w.cycles[level]));
        }
    }
    // The executor's watchdog caps micro-ops independently of the analysis.
    c.states = c.states.min(STEP_LIMIT);

    // Per-query fixed work: enqueue, header line fetch + parse, key fetch,
    // and the terminal op's issue slot.
    for (level, slot) in cycles.iter_mut().enumerate() {
        let header_fetch = tlb_cost(&machine, level).saturating_add(level_latency(&machine, level));
        let key_fetch = tlb_cost(&machine, level)
            .saturating_add(level_latency(&machine, level))
            .saturating_add(
                worst_lines(spec.key_len)
                    .saturating_sub(1)
                    .saturating_mul(EXTRA_LINE_CYCLES),
            );
        *slot = slot
            .saturating_add(ENQUEUE_CYCLES)
            .saturating_add(header_fetch)
            .saturating_add(HEADER_PARSE_CYCLES)
            .saturating_add(key_fetch)
            .saturating_add(1);
    }
    c.cycles_l1 = cycles[0];
    c.cycles_l2 = cycles[1];
    c.cycles_llc = cycles[2];
    c.cycles_dram = cycles[3];
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;
    use qei_core::firmware::FirmwareStore;

    fn analyze_builtin(dtype: u8, subtype: u8) -> CostContract {
        let fw = FirmwareStore::with_builtins();
        let program = fw
            .lookup(dtype, subtype)
            .unwrap_or_else(|| panic!("builtin ({dtype},{subtype}) missing"));
        let m = model::builtin_models()
            .into_iter()
            .find(|m| m.dtype == dtype && m.subtype == subtype)
            .unwrap_or_else(|| panic!("model ({dtype},{subtype}) missing"));
        analyze(program.as_ref(), &m)
    }

    #[test]
    fn cycle_bounds_are_monotone_in_level() {
        for (d, s) in [(1u8, 0u8), (2, 0), (2, 1), (3, 0), (4, 0), (5, 0), (5, 1)] {
            let c = analyze_builtin(d, s);
            assert!(c.cycles_l1 <= c.cycles_l2, "{d}/{s}");
            assert!(c.cycles_l2 <= c.cycles_llc, "{d}/{s}");
            assert!(c.cycles_llc <= c.cycles_dram, "{d}/{s}");
            assert!(c.cycles_l1 > 0, "{d}/{s} must have positive cost");
        }
    }

    #[test]
    fn bounds_are_finite_and_nonzero_for_builtins() {
        for (d, s) in [(1u8, 0u8), (2, 0), (2, 1), (3, 0), (4, 0), (5, 0), (5, 1)] {
            let c = analyze_builtin(d, s);
            assert!(c.states > 0 && c.states <= STEP_LIMIT, "{d}/{s}");
            assert!(c.read_ops > 0, "{d}/{s} traversals read memory");
            assert!(c.read_bytes >= c.read_ops, "{d}/{s}");
            assert!(c.mem_lines > 0, "{d}/{s}");
        }
    }

    #[test]
    fn widened_operands_reflect_validation_caps() {
        // Cuckoo bucket reads scale with aux0; the widened exploration must
        // see the validation-cap bucket (16 entries x 16 bytes).
        let c = analyze_builtin(2, 1);
        assert_eq!(c.widen_aux0, 16);
        assert!(
            c.read_bytes >= 256,
            "cuckoo read bound {} must cover a 16-entry bucket",
            c.read_bytes
        );
        // Skip-list head reads scale with aux0 towers (24 + 8*32 = 280).
        let s = analyze_builtin(3, 0);
        assert_eq!(s.widen_aux0, 32);
        assert!(
            s.read_bytes >= 280,
            "skip-list read bound {} must cover 32 towers",
            s.read_bytes
        );
    }

    #[test]
    fn trie_bound_tracks_max_children() {
        // The corrupt-count model line drives a MAX_CHILDREN-clamped read:
        // the contract must include the full 4 KB child-array fetch, so
        // loosening MAX_CHILDREN visibly changes CONTRACTS.json.
        let c = analyze_builtin(5, 0);
        assert!(
            c.read_bytes >= qei_core::firmware::trie::MAX_CHILDREN * 16,
            "trie read bound {} must cover a MAX_CHILDREN child array",
            c.read_bytes
        );
    }

    #[test]
    fn generic_model_never_panics_the_analyzer() {
        let fw = FirmwareStore::with_builtins();
        for (key, program) in fw.iter() {
            let m = model::generic_model(key.0, key.1);
            let c = analyze(program.as_ref(), &m);
            assert!(c.states <= STEP_LIMIT);
        }
    }
}
