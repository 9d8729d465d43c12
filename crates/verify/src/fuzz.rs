//! Differential invariant fuzzing over the mutable structures, with
//! shrinking.
//!
//! The static explorer ([`mod@crate::explore`]) proves properties of the CFAs
//! against *abstract* memory shapes; this module attacks the complementary
//! surface: the **builders and mutators** in `qei-datastructs`. A campaign
//! drives seeded random op sequences (insert / remove / query over a small
//! key pool) through each mutable structure living in real guest memory,
//! and differentially compares three answers after every op:
//!
//! 1. the accelerator — `run_query` through the structure's real firmware
//!    CFA;
//! 2. the software baseline — `QueryDs::query_software`;
//! 3. a trivially-correct reference model — a `BTreeMap` mirror of the op
//!    sequence.
//!
//! Any disagreement (value mismatch, unexpected fault, or a remove
//! returning the wrong old value) is a *divergence*. The eyewitness op
//! sequence is then **shrunk** to a locally-minimal failing sequence by
//! greedy delta-debugging: repeatedly drop any op whose removal preserves
//! the failure, to fixpoint. Everything is `SimRng`-seeded and the shrink
//! order is deterministic, so two runs of the same campaign produce
//! byte-identical reports — which CI exploits by diffing the shrunk repro
//! of a deliberately-injected bug across runs.

use qei_config::SimRng;
use qei_core::firmware::btree::{BPlusTreeCfa, BTREE_TYPE};
use qei_core::{run_query, FaultCode, FirmwareStore};
use qei_datastructs::{
    stage_key, BPlusTree, Bst, ChainedHash, CuckooHash, LinkedList, MutableDs, MutateError,
    SkipList,
};
use qei_mem::GuestMem;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Distinct keys the op generator draws from. Small enough that sequences
/// revisit keys (the interesting cases are insert-over, remove-then-query,
/// and re-insert-after-remove), large enough to populate multi-node shapes.
pub const KEY_POOL: u64 = 16;

/// One fuzz operation over the shared key pool. Keys are indices into the
/// pool (`key_bytes` maps them to the 8-byte big-endian wire form every
/// mutable structure accepts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Upsert `key` → `value` (values are nonzero; 0 is the miss sentinel).
    Insert {
        /// Key-pool index.
        key: u8,
        /// Value to store (nonzero).
        value: u64,
    },
    /// Remove `key`, checking the returned old value.
    Remove {
        /// Key-pool index.
        key: u8,
    },
    /// Query `key` through firmware and software, checking both.
    Query {
        /// Key-pool index.
        key: u8,
    },
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Insert { key, value } => write!(f, "insert(k{key},{value})"),
            Op::Remove { key } => write!(f, "remove(k{key})"),
            Op::Query { key } => write!(f, "query(k{key})"),
        }
    }
}

/// The 8-byte wire form of key-pool index `k` (big-endian, so the ordered
/// structures sort the pool naturally; offset by 1 so no key is all-zero).
fn key_bytes(k: u8) -> [u8; 8] {
    (k as u64 + 1).to_be_bytes()
}

/// The mutable structures a campaign covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Singly-linked list.
    LinkedList,
    /// Chained hash table.
    ChainedHash,
    /// Two-choice cuckoo hash table.
    CuckooHash,
    /// Skip list.
    SkipList,
    /// Binary search tree.
    Bst,
    /// B+-tree (loadable firmware).
    BplusTree,
}

impl Target {
    /// Every fuzzable structure, in report order.
    pub const ALL: [Target; 6] = [
        Target::LinkedList,
        Target::ChainedHash,
        Target::CuckooHash,
        Target::SkipList,
        Target::Bst,
        Target::BplusTree,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Target::LinkedList => "linked-list",
            Target::ChainedHash => "chained-hash",
            Target::CuckooHash => "cuckoo-hash",
            Target::SkipList => "skip-list",
            Target::Bst => "bst",
            Target::BplusTree => "bplus-tree",
        }
    }
}

/// A deliberately-injected bug, for exercising the shrinker (and CI's
/// shrink-determinism check) without waiting for a real defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Structure-side removes are silently dropped: the reference model
    /// forgets the key but the guest structure keeps it. The minimal
    /// eyewitness is `insert(k,v); remove(k); query(k)`.
    DropRemove,
}

impl Injection {
    /// Stable display name (report header).
    pub fn name(self) -> &'static str {
        match self {
            Injection::DropRemove => "drop-remove",
        }
    }
}

/// One observed disagreement between the structure and the reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the diverging op within its sequence.
    pub op_index: usize,
    /// The diverging op.
    pub op: Op,
    /// What the reference model says the op should produce.
    pub expected: u64,
    /// What the structure produced (firmware result, or the remove's
    /// returned old value).
    pub got: Result<u64, FaultCode>,
    /// What the software query baseline said (query ops only; mirrors
    /// `got` for removes).
    pub software: u64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op[{}]={} expected {} got {:?} (software {})",
            self.op_index, self.op, self.expected, self.got, self.software
        )
    }
}

/// Builds a fresh instance of `target` in `mem`.
///
/// The B+-tree builder wants a nonempty item list, so it is seeded with a
/// sentinel key far outside the pool (never queried, never removed).
fn build(target: Target, mem: &mut GuestMem) -> Box<dyn MutableDs> {
    match target {
        Target::LinkedList => Box::new(
            LinkedList::new(mem, 8).unwrap_or_else(|e| panic!("fuzz guest alloc failed: {e:?}")),
        ),
        Target::ChainedHash => Box::new(
            ChainedHash::new(mem, 16, 8, 0xFEED)
                .unwrap_or_else(|e| panic!("fuzz guest alloc failed: {e:?}")),
        ),
        Target::CuckooHash => Box::new(
            CuckooHash::new(mem, 16, 4, 8, (0xA5, 0x5A))
                .unwrap_or_else(|e| panic!("fuzz guest alloc failed: {e:?}")),
        ),
        Target::SkipList => Box::new(
            SkipList::new(mem, 12, 8, 0x5EED)
                .unwrap_or_else(|e| panic!("fuzz guest alloc failed: {e:?}")),
        ),
        Target::Bst => {
            Box::new(Bst::new(mem).unwrap_or_else(|e| panic!("fuzz guest alloc failed: {e:?}")))
        }
        Target::BplusTree => Box::new(
            BPlusTree::build(mem, &[(u64::MAX, 1)])
                .unwrap_or_else(|e| panic!("fuzz guest alloc failed: {e:?}")),
        ),
    }
}

fn firmware() -> FirmwareStore {
    let mut fw = FirmwareStore::with_builtins();
    fw.register(BTREE_TYPE, 0, Arc::new(BPlusTreeCfa));
    fw
}

/// Executes `ops` against a fresh `target`, returning the first divergence
/// (or `None` if the structure, firmware, and reference model agreed
/// throughout).
pub fn run_ops(target: Target, ops: &[Op], inject: Option<Injection>) -> Option<Divergence> {
    let mut mem = GuestMem::new(0xF0_0D);
    let mut ds = build(target, &mut mem);
    let fw = firmware();
    let mut model: BTreeMap<[u8; 8], u64> = BTreeMap::new();

    for (op_index, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert { key, value } => {
                let k = key_bytes(key);
                match ds.ds_insert(&mut mem, &k, value) {
                    Ok(()) => {
                        model.insert(k, value);
                    }
                    // A full table rejects the op and leaves both sides
                    // unchanged (the mutator rolls back).
                    Err(MutateError::TableFull) => {}
                    Err(e) => panic!("guest memory failed mid-fuzz: {e}"),
                }
            }
            Op::Remove { key } => {
                let k = key_bytes(key);
                let expected = model.remove(&k).unwrap_or(0);
                if inject == Some(Injection::DropRemove) {
                    // Bug under test: the structure never sees the remove.
                    continue;
                }
                let got = match ds.ds_remove(&mut mem, &k) {
                    Ok(v) => v,
                    Err(e) => panic!("guest memory failed mid-fuzz: {e}"),
                };
                if got != expected {
                    return Some(Divergence {
                        op_index,
                        op,
                        expected,
                        got: Ok(got),
                        software: got,
                    });
                }
            }
            Op::Query { key } => {
                let k = key_bytes(key);
                let expected = model.get(&k).copied().unwrap_or(0);
                let software = ds.query_software(&mem, &k);
                let ka = stage_key(&mut mem, &k);
                let got = run_query(&fw, &mem, ds.header_addr(), ka);
                if got != Ok(expected) || software != expected {
                    return Some(Divergence {
                        op_index,
                        op,
                        expected,
                        got,
                        software,
                    });
                }
            }
        }
    }
    None
}

/// Shrinks a failing op sequence to a locally-minimal one by greedy
/// delta-debugging: drop any single op whose removal keeps the sequence
/// failing, repeating to fixpoint. Deterministic (left-to-right scan), so
/// identical inputs shrink to identical repros.
pub fn shrink(target: Target, ops: &[Op], inject: Option<Injection>) -> Vec<Op> {
    let mut cur = ops.to_vec();
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if run_ops(target, &cand, inject).is_some() {
                cur = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            return cur;
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Campaign {
    /// Master seed; each target derives an independent substream.
    pub seed: u64,
    /// Op sequences generated per target.
    pub sequences: u32,
    /// Ops per sequence.
    pub ops_per_seq: u32,
    /// Optional deliberate bug (shrinker demonstration / CI determinism).
    pub injection: Option<Injection>,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign {
            seed: 0xD1FF_F422,
            sequences: 24,
            ops_per_seq: 48,
            injection: None,
        }
    }
}

/// One target's campaign outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetOutcome {
    /// The structure fuzzed.
    pub target: Target,
    /// Sequences executed (stops at the first divergence).
    pub sequences_run: u32,
    /// Total ops executed across those sequences.
    pub ops_run: u64,
    /// The first divergence and its shrunk minimal repro, if any diverged.
    pub divergence: Option<(Divergence, Vec<Op>)>,
}

/// A full campaign report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// The parameters that produced it.
    pub campaign: Campaign,
    /// Per-target outcomes, in [`Target::ALL`] order.
    pub outcomes: Vec<TargetOutcome>,
}

impl FuzzReport {
    /// Whether every target survived the campaign divergence-free.
    pub fn clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.divergence.is_none())
    }

    /// Deterministic textual rendering (CI diffs this across runs).
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "fuzz seed={:#x} sequences={} ops_per_seq={} inject={}\n",
            self.campaign.seed,
            self.campaign.sequences,
            self.campaign.ops_per_seq,
            self.campaign.injection.map_or("none", Injection::name),
        );
        for o in &self.outcomes {
            match &o.divergence {
                None => {
                    s.push_str(&format!(
                        "  {}: ok ({} sequences, {} ops)\n",
                        o.target.name(),
                        o.sequences_run,
                        o.ops_run
                    ));
                }
                Some((d, min)) => {
                    s.push_str(&format!("  {}: DIVERGED {}\n", o.target.name(), d));
                    let pretty: Vec<String> = min.iter().map(Op::to_string).collect();
                    s.push_str(&format!(
                        "    minimal repro ({} ops): {}\n",
                        min.len(),
                        pretty.join("; ")
                    ));
                }
            }
        }
        s
    }
}

/// Generates one op sequence from `rng`: ~40% inserts, ~30% removes, ~30%
/// queries over the shared key pool.
fn gen_ops(rng: &mut SimRng, n: u32) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let key = rng.below(KEY_POOL) as u8;
            match rng.below(10) {
                0..=3 => Op::Insert {
                    key,
                    value: 1 + rng.below(1_000_000),
                },
                4..=6 => Op::Remove { key },
                _ => Op::Query { key },
            }
        })
        .collect()
}

/// Runs the campaign over every target in [`Target::ALL`]. Each target gets
/// its own `SimRng` substream (so adding a target never perturbs the
/// others), stops at its first divergence, and shrinks the eyewitness.
pub fn run_campaign(campaign: &Campaign) -> FuzzReport {
    let outcomes = Target::ALL
        .iter()
        .enumerate()
        .map(|(ti, &target)| {
            let stream = campaign
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ti as u64 + 1));
            let mut rng = SimRng::seed_from_u64(stream);
            let mut sequences_run = 0;
            let mut ops_run = 0u64;
            let mut divergence = None;
            for _ in 0..campaign.sequences {
                let ops = gen_ops(&mut rng, campaign.ops_per_seq);
                sequences_run += 1;
                ops_run += ops.len() as u64;
                if let Some(d) = run_ops(target, &ops, campaign.injection) {
                    let min = shrink(target, &ops, campaign.injection);
                    divergence = Some((d, min));
                    break;
                }
            }
            TargetOutcome {
                target,
                sequences_run,
                ops_run,
                divergence,
            }
        })
        .collect();
    FuzzReport {
        campaign: *campaign,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_campaign_over_all_six_structures() {
        let report = run_campaign(&Campaign {
            sequences: 8,
            ops_per_seq: 32,
            ..Campaign::default()
        });
        assert_eq!(report.outcomes.len(), 6);
        assert!(report.clean(), "divergence found:\n{}", report.to_text());
    }

    #[test]
    fn campaign_report_is_deterministic() {
        let c = Campaign {
            sequences: 4,
            ops_per_seq: 24,
            ..Campaign::default()
        };
        assert_eq!(run_campaign(&c).to_text(), run_campaign(&c).to_text());
    }

    #[test]
    fn injected_remove_bug_is_found_and_shrinks_to_three_ops() {
        let report = run_campaign(&Campaign {
            sequences: 8,
            ops_per_seq: 48,
            injection: Some(Injection::DropRemove),
            ..Campaign::default()
        });
        for o in &report.outcomes {
            let (d, min) = o
                .divergence
                .as_ref()
                .unwrap_or_else(|| panic!("{} never diverged under injection", o.target.name()));
            assert!(
                matches!(d.op, Op::Query { .. }),
                "{}: divergence must surface at a query, got {}",
                o.target.name(),
                d.op
            );
            // insert(k,v); remove(k); query(k) — nothing shorter fails.
            assert_eq!(
                min.len(),
                3,
                "{}: repro not minimal: {:?}",
                o.target.name(),
                min
            );
            assert!(matches!(min[0], Op::Insert { .. }));
            assert!(matches!(min[1], Op::Remove { .. }));
            assert!(matches!(min[2], Op::Query { .. }));
        }
        // The shrunk repro is part of the deterministic report.
        let again = run_campaign(&Campaign {
            sequences: 8,
            ops_per_seq: 48,
            injection: Some(Injection::DropRemove),
            ..Campaign::default()
        });
        assert_eq!(report.to_text(), again.to_text());
    }

    #[test]
    fn shrink_keeps_a_failing_sequence_failing() {
        let ops = vec![
            Op::Insert { key: 3, value: 77 },
            Op::Query { key: 9 },
            Op::Insert { key: 1, value: 5 },
            Op::Remove { key: 3 },
            Op::Query { key: 3 },
            Op::Remove { key: 1 },
        ];
        let inject = Some(Injection::DropRemove);
        assert!(run_ops(Target::Bst, &ops, inject).is_some());
        let min = shrink(Target::Bst, &ops, inject);
        assert!(run_ops(Target::Bst, &min, inject).is_some());
        assert_eq!(min.len(), 3);
    }
}
