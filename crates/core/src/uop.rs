//! Accelerator micro-operations and their outcomes.
//!
//! A CFA advances by emitting one micro-op per state transition; the DPU
//! executes it (functionally against guest memory, and with a latency in the
//! timing model) and hands the outcome back to the CFA.

use crate::fault::FaultCode;
use qei_mem::VirtAddr;
use std::cmp::Ordering;

/// DPU issue budget: most bytes a single `Read` micro-op may fetch (the
/// hardware's intermediate-data staging limit, matching the 4 KB key-length
/// cap enforced by header validation).
pub const MAX_READ_BYTES: u32 = 4096;

/// DPU issue budget: most bytes a single `Compare` micro-op may examine
/// (bounded by the maximum key length).
pub const MAX_COMPARE_BYTES: u32 = 4096;

/// DPU issue budget: most 1-cycle ALU operations one `Alu` micro-op may
/// batch. CFAs batch index math and in-node searches; anything larger than
/// this is an unrolled loop that belongs in separate transitions.
pub const MAX_ALU_BATCH: u32 = 64;

/// A micro-operation issued by a CFA state transition (paper §IV-B: memory
/// access, arithmetic/logic, comparison — plus the terminal transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Fetch `len` bytes starting at `addr` into the query's intermediate
    /// data (cacheline-granular in hardware: `ceil(len/64)` line fetches).
    Read {
        /// Start of the fetched region.
        addr: VirtAddr,
        /// Bytes to fetch (1..=4096).
        len: u32,
    },
    /// Compare `len` stored bytes at `addr` against the query key starting at
    /// key offset `key_off`. Executed by a comparator — remotely in the CHA
    /// of the line's home slice under CHA-compare schemes.
    Compare {
        /// Address of the stored key bytes.
        addr: VirtAddr,
        /// Bytes to compare.
        len: u32,
        /// Offset into the query key to compare from.
        key_off: u32,
    },
    /// Hash the query key with the given seed on the hash unit.
    Hash {
        /// Seed selecting/parameterizing the hash function.
        seed: u64,
    },
    /// `n` simple arithmetic/logic operations on intermediate data (index
    /// math, signature checks, level bookkeeping).
    Alu {
        /// Number of 1-cycle ALU operations.
        n: u32,
    },
    /// Query complete; `result` goes to the core or the result address.
    Done {
        /// The query result (0 = not found).
        result: u64,
    },
    /// Query faulted; transition to the EXCEPTION state.
    Fault {
        /// The exception code.
        code: FaultCode,
    },
}

impl MicroOp {
    /// Whether this op terminates the query.
    pub fn is_terminal(&self) -> bool {
        matches!(self, MicroOp::Done { .. } | MicroOp::Fault { .. })
    }

    /// Checks the op against the DPU issue budget: `Read`/`Compare` lengths
    /// must be `1..=MAX_*_BYTES` and an `Alu` batch `1..=MAX_ALU_BATCH`.
    /// Returns a diagnostic for the first violated bound; `None` when the op
    /// fits the budget. Terminal ops always fit (they never reach the DPU).
    pub fn issue_budget_violation(&self) -> Option<String> {
        match *self {
            MicroOp::Read { len: 0, .. } => Some("Read of zero bytes".into()),
            MicroOp::Read { len, .. } if len > MAX_READ_BYTES => Some(format!(
                "Read of {len} bytes exceeds the {MAX_READ_BYTES}-byte issue budget"
            )),
            MicroOp::Compare { len: 0, .. } => Some("Compare of zero bytes".into()),
            MicroOp::Compare { len, .. } if len > MAX_COMPARE_BYTES => Some(format!(
                "Compare of {len} bytes exceeds the {MAX_COMPARE_BYTES}-byte issue budget"
            )),
            MicroOp::Alu { n: 0 } => Some("empty Alu batch".into()),
            MicroOp::Alu { n } if n > MAX_ALU_BATCH => Some(format!(
                "Alu batch of {n} exceeds the {MAX_ALU_BATCH}-op issue budget"
            )),
            _ => None,
        }
    }
}

/// The outcome of an executed micro-op, delivered to the CFA's next step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// First invocation — no micro-op has run yet.
    Start,
    /// A `Read` completed; the bytes are in [`crate::QueryCtx::line`].
    Data,
    /// A `Compare` completed: ordering of the *stored* bytes relative to the
    /// query key slice.
    Cmp(Ordering),
    /// A `Hash` completed with this value.
    Hashed(u64),
    /// An `Alu` batch completed.
    AluDone,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_classification() {
        assert!(MicroOp::Done { result: 1 }.is_terminal());
        assert!(MicroOp::Fault {
            code: FaultCode::NullPointer
        }
        .is_terminal());
        assert!(!MicroOp::Alu { n: 1 }.is_terminal());
        assert!(!MicroOp::Hash { seed: 0 }.is_terminal());
    }

    #[test]
    fn issue_budget_bounds() {
        let ok = [
            MicroOp::Read {
                addr: VirtAddr(0x40),
                len: MAX_READ_BYTES,
            },
            MicroOp::Compare {
                addr: VirtAddr(0x40),
                len: 1,
                key_off: 0,
            },
            MicroOp::Alu { n: MAX_ALU_BATCH },
            MicroOp::Hash { seed: 0 },
            MicroOp::Done { result: 0 },
        ];
        for op in ok {
            assert_eq!(op.issue_budget_violation(), None, "{op:?}");
        }
        let bad = [
            MicroOp::Read {
                addr: VirtAddr(0x40),
                len: 0,
            },
            MicroOp::Read {
                addr: VirtAddr(0x40),
                len: MAX_READ_BYTES + 1,
            },
            MicroOp::Compare {
                addr: VirtAddr(0x40),
                len: MAX_COMPARE_BYTES + 1,
                key_off: 0,
            },
            MicroOp::Alu { n: 0 },
            MicroOp::Alu {
                n: MAX_ALU_BATCH + 1,
            },
        ];
        for op in bad {
            assert!(op.issue_budget_violation().is_some(), "{op:?}");
        }
    }
}
