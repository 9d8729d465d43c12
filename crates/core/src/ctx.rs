//! Per-query execution context — the software view of one QST entry.

use crate::contract::QueryCost;
use crate::header::Header;
use qei_mem::bytes::{le_u16, le_u64};
use qei_mem::VirtAddr;

/// The architectural state of one in-flight query: the parsed header, the
/// fetched key, the CFA state byte, and the intermediate-data registers the
/// 64-byte QST `data` field provides.
#[derive(Debug, Clone)]
pub struct QueryCtx {
    /// Parsed data-structure metadata.
    pub header: Header,
    /// The query key, fetched from `key_addr` at query start.
    pub key: Vec<u8>,
    /// Current CFA state (1 byte in hardware — max 256 states).
    pub state: u8,
    /// Primary pointer register (current node / bucket).
    pub cursor: u64,
    /// Secondary pointer register (next node / alternate bucket).
    pub cursor2: u64,
    /// Generic counter (entry index, text position, level).
    pub counter: u64,
    /// Accumulator (hash value, match count, staged result).
    pub acc: u64,
    /// The 64-byte QST intermediate-data field as eight 64-bit words
    /// (retained pointers, partial results).
    pub scratch: [u64; 8],
    /// Last fetched bytes (the staged cacheline(s) of intermediate data).
    /// Each Read clears and refills it in place, so one allocation serves
    /// every Read of the query.
    pub line: Vec<u8>,
    /// Micro-ops executed so far (watchdog input).
    pub steps: u64,
    /// Observed resource counters (checked against the static cost
    /// contract for this structure type on successful completion).
    pub cost: QueryCost,
}

impl QueryCtx {
    /// Builds a fresh context for a query with the given metadata and key.
    pub fn new(header: Header, key: Vec<u8>) -> Self {
        QueryCtx {
            header,
            key,
            state: 0,
            cursor: 0,
            cursor2: 0,
            counter: 0,
            acc: 0,
            scratch: [0; 8],
            line: Vec::new(),
            steps: 0,
            cost: QueryCost::default(),
        }
    }

    /// Reads a little-endian `u64` out of the staged line data.
    ///
    /// # Panics
    ///
    /// Panics if `off + 8` exceeds the staged data (a CFA bug, not a guest
    /// fault — the CFA sized the preceding `Read`).
    pub fn line_u64(&self, off: usize) -> u64 {
        le_u64(&self.line, off)
    }

    /// Reads a little-endian `u16` out of the staged line data.
    ///
    /// # Panics
    ///
    /// Panics if `off + 2` exceeds the staged data.
    pub fn line_u16(&self, off: usize) -> u16 {
        le_u16(&self.line, off)
    }

    /// Reads one staged byte.
    ///
    /// # Panics
    ///
    /// Panics if `off` exceeds the staged data.
    pub fn line_u8(&self, off: usize) -> u8 {
        self.line[off]
    }

    /// The cursor as a virtual address.
    pub fn cursor_addr(&self) -> VirtAddr {
        VirtAddr(self.cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::DsType;

    fn ctx() -> QueryCtx {
        let header = Header {
            ds_ptr: VirtAddr(0x1000),
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
        QueryCtx::new(header, vec![1, 2, 3, 4, 5, 6, 7, 8])
    }

    #[test]
    fn fresh_context_is_zeroed() {
        let c = ctx();
        assert_eq!(c.state, 0);
        assert_eq!(c.cursor, 0);
        assert_eq!(c.acc, 0);
        assert_eq!(c.steps, 0);
        assert_eq!(c.scratch, [0; 8]);
        assert!(c.line.is_empty());
    }

    #[test]
    fn line_accessors() {
        let mut c = ctx();
        c.line = 0xdead_beef_0102_0304u64
            .to_le_bytes()
            .iter()
            .chain(&[0xAA, 0xBB])
            .copied()
            .collect();
        assert_eq!(c.line_u64(0), 0xdead_beef_0102_0304);
        assert_eq!(c.line_u16(8), 0xBBAA);
        assert_eq!(c.line_u8(9), 0xBB);
        c.cursor = 0x4000;
        assert_eq!(c.cursor_addr(), VirtAddr(0x4000));
    }
}
