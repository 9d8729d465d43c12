//! The CFA Execution Engine's firmware: one configurable finite automaton per
//! data-structure query flow.
//!
//! A [`CfaProgram`] is the microcode for one (type, subtype) pair. It is a
//! pure state-transition function: given the query context and the outcome of
//! the last micro-op, it updates the context and emits the next micro-op.
//! The one walk driver, [`crate::walk()`], owns the loop for both the
//! functional engine and the timing model.
//!
//! The CEE is a *microcoded control machine* (paper §IV-B): new programs can
//! be installed at runtime through [`FirmwareStore::register`], modelling the
//! paper's firmware-update extensibility for emerging data structures.

pub mod bst;
pub mod btree;
pub mod hash_table;
pub mod linked_list;
pub mod lpm;
pub mod skip_list;
pub mod trie;

pub use bst::BstCfa;
pub use btree::BPlusTreeCfa;
pub use hash_table::{ChainedHashCfa, CuckooHashCfa};
pub use linked_list::LinkedListCfa;
pub use lpm::LpmCfa;
pub use skip_list::SkipListCfa;
pub use trie::TrieCfa;

use crate::ctx::QueryCtx;
use crate::header::DsType;
use crate::uop::{MicroOp, OpOutcome};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Shared CFA state-byte conventions. Programs may define more states (up to
/// 256, the width of the QST `state` field), but every program starts in
/// [`STATE_START`]; [`STATE_DONE`] and [`STATE_EXCEPTION`] are the terminal
/// values.
pub const STATE_START: u8 = 0;
/// The query finished and its result is staged.
pub const STATE_DONE: u8 = 254;
/// The query faulted (paper §IV-D EXCEPTION state).
pub const STATE_EXCEPTION: u8 = 255;

/// Watchdog: the most micro-ops a single query may execute. Structure
/// corruption (e.g. a cyclic "linked list") otherwise hangs the engine.
pub const STEP_LIMIT: u64 = 2_000_000;

/// One data structure's query microcode.
pub trait CfaProgram: fmt::Debug + Send + Sync {
    /// Advances the automaton: consumes the previous micro-op's outcome,
    /// updates the context (including `ctx.state`), and returns the next
    /// micro-op. The first call receives [`OpOutcome::Start`].
    fn step(&self, ctx: &mut QueryCtx, last: OpOutcome) -> MicroOp;

    /// Human-readable CFA name (for diagnostics and the experiment reports).
    fn name(&self) -> &'static str;

    /// Number of distinct states this CFA uses (must fit the 1-byte field).
    fn state_count(&self) -> u8;
}

/// The installed firmware: (type, subtype) → program.
///
/// Backed by a `BTreeMap` so iteration (e.g. the verifier walking every
/// installed program) is deterministic without sorting at each call site.
#[derive(Debug, Clone)]
pub struct FirmwareStore {
    programs: BTreeMap<(u8, u8), Arc<dyn CfaProgram>>,
}

impl FirmwareStore {
    /// A store with the five built-in CFAs installed (chained and cuckoo hash
    /// tables are two subtypes of [`DsType::HashTable`]).
    pub fn with_builtins() -> Self {
        let mut s = FirmwareStore {
            programs: BTreeMap::new(),
        };
        s.register(DsType::LinkedList.to_byte(), 0, Arc::new(LinkedListCfa));
        s.register(DsType::HashTable.to_byte(), 0, Arc::new(ChainedHashCfa));
        s.register(DsType::HashTable.to_byte(), 1, Arc::new(CuckooHashCfa));
        s.register(DsType::SkipList.to_byte(), 0, Arc::new(SkipListCfa));
        s.register(DsType::Bst.to_byte(), 0, Arc::new(BstCfa));
        s.register(DsType::Trie.to_byte(), 0, Arc::new(TrieCfa));
        s.register(DsType::Trie.to_byte(), lpm::SUBTYPE_LPM, Arc::new(LpmCfa));
        s
    }

    /// Installs (or replaces) a program — the firmware-update path.
    pub fn register(&mut self, dtype: u8, subtype: u8, program: Arc<dyn CfaProgram>) {
        assert!(
            program.state_count() as usize <= 256,
            "CFA exceeds the 256-state limit"
        );
        self.programs.insert((dtype, subtype), program);
    }

    /// Looks up the program for a header's type/subtype.
    pub fn lookup(&self, dtype: u8, subtype: u8) -> Option<&Arc<dyn CfaProgram>> {
        self.programs.get(&(dtype, subtype))
    }

    /// Number of installed programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether no programs are installed.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Iterates installed programs in `(dtype, subtype)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((u8, u8), &Arc<dyn CfaProgram>)> {
        self.programs.iter().map(|(&k, v)| (k, v))
    }
}

impl Default for FirmwareStore {
    fn default() -> Self {
        Self::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultCode;

    #[test]
    fn builtins_are_installed() {
        let s = FirmwareStore::with_builtins();
        assert_eq!(s.len(), 7);
        assert!(!s.is_empty());
        for t in DsType::ALL {
            assert!(s.lookup(t.to_byte(), 0).is_some(), "{t:?} missing");
        }
        assert!(s.lookup(DsType::HashTable.to_byte(), 1).is_some());
        assert!(s.lookup(DsType::HashTable.to_byte(), 9).is_none());
    }

    /// A trivial custom CFA: always returns "not found" immediately.
    #[derive(Debug)]
    struct AlwaysMiss;

    impl CfaProgram for AlwaysMiss {
        fn step(&self, ctx: &mut QueryCtx, _last: OpOutcome) -> MicroOp {
            ctx.state = STATE_DONE;
            MicroOp::Done { result: 0 }
        }
        fn name(&self) -> &'static str {
            "always-miss"
        }
        fn state_count(&self) -> u8 {
            2
        }
    }

    #[test]
    fn firmware_update_registers_new_program() {
        let mut s = FirmwareStore::with_builtins();
        let before = s.len();
        s.register(200, 0, Arc::new(AlwaysMiss));
        assert_eq!(s.len(), before + 1);
        assert_eq!(s.lookup(200, 0).unwrap().name(), "always-miss");
    }

    #[test]
    fn firmware_update_can_replace_builtin() {
        let mut s = FirmwareStore::with_builtins();
        s.register(DsType::LinkedList.to_byte(), 0, Arc::new(AlwaysMiss));
        assert_eq!(
            s.lookup(DsType::LinkedList.to_byte(), 0).unwrap().name(),
            "always-miss"
        );
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn state_constants_are_distinct() {
        assert_ne!(STATE_START, STATE_DONE);
        assert_ne!(STATE_DONE, STATE_EXCEPTION);
        let _ = FaultCode::StepLimit; // referenced by the watchdog
        const { assert!(STEP_LIMIT > 1_000) };
    }
}
