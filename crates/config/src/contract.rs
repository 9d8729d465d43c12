//! Static per-structure cost contracts.
//!
//! A [`CostContract`] is the output of `qei-verify`'s abstract cost
//! interpretation: worst-case bounds on what one query against a given
//! firmware CFA may consume, valid for every header inside the contract's
//! widening envelope (`key_len <= widen_key_len`, `aux0 <= widen_aux0`) and
//! every structure whose traversal revisits no CFA state more than
//! `widen_iters` times. The type lives here (not in `qei-verify`) so that
//! `qei-core` can enforce contracts at runtime and `qei-serve` can consume
//! the cycle bounds as admission signals without either depending on the
//! verifier.

/// Worst-case per-query resource bounds for one firmware CFA.
///
/// All resource fields bound a *successful* query (one that reaches `Done`);
/// faulting queries are bounded by the executor's step watchdog instead.
/// The four `cycles_*` fields price the same worst-case walk under four
/// assumed servicing levels for every memory access (uncontended, one query
/// alone on the accelerator), so `cycles_l1 <= cycles_l2 <= cycles_llc <=
/// cycles_dram` always holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostContract {
    /// CFA name (as reported by the firmware program).
    pub cfa: String,
    /// Model name the contract was derived against.
    pub model: String,
    /// Data-structure type byte.
    pub dtype: u8,
    /// Data-structure subtype byte.
    pub subtype: u8,
    /// Widening bound: max times any single CFA state may execute.
    pub widen_iters: u64,
    /// Envelope: max header `key_len` the contract covers.
    pub widen_key_len: u32,
    /// Envelope: max header `aux0` the contract covers.
    pub widen_aux0: u64,
    /// Bound on micro-ops executed (state transitions; `ctx.steps`).
    pub states: u64,
    /// Bound on `Read` micro-ops issued.
    pub read_ops: u64,
    /// Bound on bytes fetched by `Read` micro-ops.
    pub read_bytes: u64,
    /// Bound on `Compare` micro-ops issued.
    pub compare_ops: u64,
    /// Bound on bytes examined by `Compare` micro-ops.
    pub compare_bytes: u64,
    /// Bound on `Hash` micro-ops issued.
    pub hash_ops: u64,
    /// Bound on 1-cycle ALU operations (summed `Alu { n }`).
    pub alu_ops: u64,
    /// Bound on 64-byte lines touched by `Read`/`Compare` micro-ops.
    pub mem_lines: u64,
    /// Completion-cycle bound assuming every access hits the L1.
    pub cycles_l1: u64,
    /// Completion-cycle bound assuming every access hits the L2.
    pub cycles_l2: u64,
    /// Completion-cycle bound assuming every access hits the LLC.
    pub cycles_llc: u64,
    /// Completion-cycle bound assuming every access goes to DRAM.
    pub cycles_dram: u64,
}

impl CostContract {
    /// Whether a header with the given `key_len`/`aux0` falls inside the
    /// envelope this contract was widened over. Out-of-envelope headers
    /// (possible only through corruption for types whose validation caps the
    /// fields) are not covered by the bound.
    pub fn covers(&self, key_len: u16, aux0: u64) -> bool {
        key_len as u32 <= self.widen_key_len && aux0 <= self.widen_aux0
    }

    /// The contract-derived uncontended service-time estimate in cycles for
    /// an assumed LLC-resident working set — the signal the serving layer
    /// reports against observed service times.
    pub fn service_bound(&self) -> u64 {
        self.cycles_llc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CostContract {
        CostContract {
            cfa: "cfa".into(),
            model: "model".into(),
            dtype: 1,
            subtype: 0,
            widen_iters: 64,
            widen_key_len: 512,
            widen_aux0: 16,
            states: 10,
            read_ops: 4,
            read_bytes: 96,
            compare_ops: 4,
            compare_bytes: 32,
            hash_ops: 1,
            alu_ops: 8,
            mem_lines: 8,
            cycles_l1: 100,
            cycles_l2: 200,
            cycles_llc: 300,
            cycles_dram: 400,
        }
    }

    #[test]
    fn envelope_coverage() {
        let c = sample();
        assert!(c.covers(512, 16));
        assert!(c.covers(8, 0));
        assert!(!c.covers(513, 16));
        assert!(!c.covers(8, 17));
    }

    #[test]
    fn service_bound_is_llc_level() {
        assert_eq!(sample().service_bound(), 300);
    }
}
