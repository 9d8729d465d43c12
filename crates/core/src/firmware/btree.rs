//! B+-tree query CFA — loadable firmware for the in-memory database index
//! traversals that Meet-the-Walkers-style accelerators target (the paper's
//! reference \[45\]).
//!
//! Unlike the five built-in CFAs, this program is *not* pre-loaded: it ships
//! as loadable firmware ([`BTREE_TYPE`] is outside the built-in type range)
//! and demonstrates the §IV-B firmware-update path on a real structure.
//! Install it with:
//!
//! ```
//! use qei_core::firmware::btree::{BPlusTreeCfa, BTREE_TYPE};
//! use qei_core::FirmwareStore;
//! use std::sync::Arc;
//!
//! let mut fw = FirmwareStore::with_builtins();
//! fw.register(BTREE_TYPE, 0, Arc::new(BPlusTreeCfa));
//! ```
//!
//! Node layout (fanout [`FANOUT`] = 8, 128 bytes = two cache lines):
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 2 | `is_leaf` (0/1) |
//! | 2 | 2 | `count` — keys stored (≤ 7) |
//! | 8 | 56 | `keys[7]` — 8-byte big-endian keys, sorted |
//! | 64 | 64 | internal: `children[8]`; leaf: `values[7]` then `next_leaf` |

use super::{CfaProgram, STATE_DONE, STATE_START};
use crate::ctx::QueryCtx;
use crate::fault::FaultCode;
use crate::uop::{MicroOp, OpOutcome};
use crate::RESULT_NOT_FOUND;
use qei_mem::bytes::be_u64;
use qei_mem::VirtAddr;

/// Type byte for the loadable B+-tree firmware.
pub const BTREE_TYPE: u8 = 16;

/// Node fanout: up to 8 children / 7 keys.
pub const FANOUT: usize = 8;
/// Node size in bytes (two cache lines).
pub const NODE_BYTES: u64 = 128;
/// Offset of the `is_leaf` flag.
pub const NODE_IS_LEAF_OFF: u64 = 0;
/// Offset of the key count.
pub const NODE_COUNT_OFF: u64 = 2;
/// Offset of the sorted key array.
pub const NODE_KEYS_OFF: u64 = 8;
/// Offset of the child-pointer / value array.
pub const NODE_PTRS_OFF: u64 = 64;

const BT_NODE: u8 = 1; // node staged
const BT_SEARCH: u8 = 2; // in-node binary search (ALU)

/// The loadable B+-tree CFA.
#[derive(Debug, Clone, Copy, Default)]
pub struct BPlusTreeCfa;

impl BPlusTreeCfa {
    fn fetch(ctx: &mut QueryCtx, node: u64) -> MicroOp {
        ctx.cursor = node;
        ctx.state = BT_NODE;
        MicroOp::Read {
            addr: VirtAddr(node),
            len: NODE_BYTES as u32,
        }
    }

    /// Index of the first stored key > query (searching the staged node).
    fn upper_bound(ctx: &QueryCtx, count: usize) -> usize {
        let query = be_u64(&ctx.key, 0);
        let mut idx = 0;
        while idx < count {
            let stored = be_u64(&ctx.line, (NODE_KEYS_OFF as usize) + idx * 8);
            if stored > query {
                break;
            }
            idx += 1;
        }
        idx
    }
}

impl CfaProgram for BPlusTreeCfa {
    fn step(&self, ctx: &mut QueryCtx, last: OpOutcome) -> MicroOp {
        match (ctx.state, last) {
            (STATE_START, OpOutcome::Start) => {
                // Loadable firmware: `Header::validate` cannot constrain
                // custom types, so the CFA itself rejects keys shorter than
                // the 8-byte inline comparisons below require.
                if ctx.key.len() < 8 {
                    return MicroOp::Fault {
                        code: FaultCode::MalformedHeader,
                    };
                }
                if ctx.header.ds_ptr.is_null() {
                    ctx.state = STATE_DONE;
                    return MicroOp::Done {
                        result: RESULT_NOT_FOUND,
                    };
                }
                Self::fetch(ctx, ctx.header.ds_ptr.0)
            }
            (BT_NODE, OpOutcome::Data) => {
                // In-node binary search over ≤7 keys: 3 comparator-width
                // ALU steps on staged data.
                ctx.state = BT_SEARCH;
                MicroOp::Alu { n: 3 }
            }
            (BT_SEARCH, OpOutcome::AluDone) => {
                let is_leaf = ctx.line_u16(NODE_IS_LEAF_OFF as usize) != 0;
                // A corrupt node can carry any `u16` count; clamp to the
                // fanout so the scan stays inside the staged 128-byte line.
                let count = (ctx.line_u16(NODE_COUNT_OFF as usize) as usize).min(FANOUT - 1);
                let query = be_u64(&ctx.key, 0);
                if is_leaf {
                    // Exact-match scan of the staged leaf.
                    for i in 0..count {
                        let stored = be_u64(&ctx.line, (NODE_KEYS_OFF as usize) + i * 8);
                        if stored == query {
                            let v = ctx.line_u64((NODE_PTRS_OFF as usize) + i * 8);
                            ctx.state = STATE_DONE;
                            return MicroOp::Done { result: v };
                        }
                    }
                    ctx.state = STATE_DONE;
                    return MicroOp::Done {
                        result: RESULT_NOT_FOUND,
                    };
                }
                // Internal node: descend into child `upper_bound`.
                let idx = Self::upper_bound(ctx, count);
                let child = ctx.line_u64((NODE_PTRS_OFF as usize) + idx * 8);
                if child == 0 {
                    ctx.state = STATE_DONE;
                    return MicroOp::Done {
                        result: RESULT_NOT_FOUND,
                    };
                }
                Self::fetch(ctx, child)
            }
            (s, o) => unreachable!("B+-tree CFA: state {s} got {o:?}"),
        }
    }

    fn name(&self) -> &'static str {
        "bplus-tree"
    }

    fn state_count(&self) -> u8 {
        4
    }
}
