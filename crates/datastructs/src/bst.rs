//! Guest-memory binary search tree — the JVM garbage collector's live
//! object tree in the paper's benchmark suite.
//!
//! Node layout matches `qei_core::firmware::bst`: `{key: u64 big-endian,
//! value: u64, left: u64, right: u64}` (32 bytes). Keys are stored
//! big-endian so the byte comparator's memcmp order equals numeric order.
//! Inserting keys in random order yields the ~2·ln(n) expected depth that
//! drives the paper's "39.9 memory accesses per query" observation for the
//! JVM workload.

use crate::baseline::{self, sites};
use crate::{epoch_bump, MutableDs, MutateError, QueryDs};
use qei_core::firmware::bst::{
    NODE_BYTES, NODE_KEY_OFF, NODE_LEFT_OFF, NODE_RIGHT_OFF, NODE_VALUE_OFF,
};
use qei_core::header::{DsType, Header, HEADER_BYTES};
use qei_cpu::Trace;
use qei_mem::{GuestMem, MemError, VirtAddr};

/// A binary search tree living in guest memory.
#[derive(Debug, Clone)]
pub struct Bst {
    header_addr: VirtAddr,
    header: Header,
    len: usize,
}

impl Bst {
    /// Builds an empty tree.
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    pub fn new(mem: &mut GuestMem) -> Result<Self, MemError> {
        let header = Header {
            ds_ptr: VirtAddr::NULL,
            dtype: DsType::Bst,
            subtype: 0,
            key_len: 8,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let header_addr = mem.alloc(HEADER_BYTES, 64)?;
        header.write_to(mem, header_addr)?;
        Ok(Bst {
            header_addr,
            header,
            len: 0,
        })
    }

    /// Inserts an object id → value mapping (plain unbalanced insert), or
    /// overwrites the value in place if the key exists (upsert).
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    ///
    /// # Panics
    ///
    /// Panics on zero value.
    pub fn insert(&mut self, mem: &mut GuestMem, key: u64, value: u64) -> Result<(), MemError> {
        assert_ne!(value, 0, "zero is the not-found sentinel");
        // Locate the attach point (or an existing node) before opening the
        // mutation window so the epoch stays odd only across the writes.
        let mut attach: Option<(u64, u64)> = None; // (parent, branch offset)
        let mut existing: Option<u64> = None;
        if !self.header.ds_ptr.is_null() {
            let mut cur = self.header.ds_ptr.0;
            loop {
                let ck = self.node_u64(mem, cur)?;
                if ck == key {
                    existing = Some(cur);
                    break;
                }
                let branch = if key < ck {
                    NODE_LEFT_OFF
                } else {
                    NODE_RIGHT_OFF
                };
                let child = mem.read_u64(VirtAddr(cur + branch))?;
                if child == 0 {
                    attach = Some((cur, branch));
                    break;
                }
                cur = child;
            }
        }
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        if let Some(node) = existing {
            mem.write_u64(VirtAddr(node + NODE_VALUE_OFF), value)?;
        } else {
            let node = mem.alloc(NODE_BYTES, 8)?;
            mem.write(node + NODE_KEY_OFF, &key.to_be_bytes())?;
            mem.write_u64(node + NODE_VALUE_OFF, value)?;
            match attach {
                Some((parent, branch)) => mem.write_u64(VirtAddr(parent + branch), node.0)?,
                None => {
                    self.header.ds_ptr = node;
                    self.header.write_to(mem, self.header_addr)?;
                }
            }
            self.len += 1;
        }
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        Ok(())
    }

    /// Deletes `key`, returning its value (0 if absent). Standard BST
    /// delete: leaf and one-child nodes are spliced out; two-child nodes
    /// take their in-order successor's key/value, and the successor node is
    /// spliced out of the right subtree.
    ///
    /// # Errors
    ///
    /// Propagates guest memory failures.
    pub fn remove(&mut self, mem: &mut GuestMem, key: u64) -> Result<u64, MemError> {
        // Find the node and its parent link.
        let mut parent: Option<(u64, u64)> = None; // (parent node, branch off)
        let mut cur = self.header.ds_ptr.0;
        while cur != 0 {
            let ck = self.node_u64(mem, cur)?;
            if ck == key {
                break;
            }
            let branch = if key < ck {
                NODE_LEFT_OFF
            } else {
                NODE_RIGHT_OFF
            };
            parent = Some((cur, branch));
            cur = mem.read_u64(VirtAddr(cur + branch))?;
        }
        if cur == 0 {
            return Ok(0);
        }
        let value = mem.read_u64(VirtAddr(cur + NODE_VALUE_OFF))?;
        let left = mem.read_u64(VirtAddr(cur + NODE_LEFT_OFF))?;
        let right = mem.read_u64(VirtAddr(cur + NODE_RIGHT_OFF))?;

        epoch_bump(mem, &mut self.header, self.header_addr)?;
        if left != 0 && right != 0 {
            // Two children: splice the in-order successor (leftmost node of
            // the right subtree, which has no left child) into `cur`.
            let mut succ_parent: Option<u64> = None;
            let mut succ = right;
            loop {
                let l = mem.read_u64(VirtAddr(succ + NODE_LEFT_OFF))?;
                if l == 0 {
                    break;
                }
                succ_parent = Some(succ);
                succ = l;
            }
            let mut succ_key = [0u8; 8];
            mem.read(VirtAddr(succ + NODE_KEY_OFF), &mut succ_key)?;
            let succ_val = mem.read_u64(VirtAddr(succ + NODE_VALUE_OFF))?;
            let succ_right = mem.read_u64(VirtAddr(succ + NODE_RIGHT_OFF))?;
            match succ_parent {
                // Successor is deeper: its parent adopts its right child.
                Some(sp) => mem.write_u64(VirtAddr(sp + NODE_LEFT_OFF), succ_right)?,
                // Successor is `right` itself: cur's right becomes its right.
                None => mem.write_u64(VirtAddr(cur + NODE_RIGHT_OFF), succ_right)?,
            }
            mem.write(VirtAddr(cur + NODE_KEY_OFF), &succ_key)?;
            mem.write_u64(VirtAddr(cur + NODE_VALUE_OFF), succ_val)?;
        } else {
            // Zero or one child: splice it into the parent slot.
            let child = if left != 0 { left } else { right };
            match parent {
                Some((p, branch)) => mem.write_u64(VirtAddr(p + branch), child)?,
                None => {
                    self.header.ds_ptr = VirtAddr(child);
                    self.header.write_to(mem, self.header_addr)?;
                }
            }
        }
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        self.len -= 1;
        Ok(value)
    }

    /// `node`'s key, stored big-endian: the byte-swapped little-endian word.
    fn node_u64(&self, mem: &GuestMem, node: u64) -> Result<u64, MemError> {
        Ok(mem.read_u64(VirtAddr(node + NODE_KEY_OFF))?.swap_bytes())
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Functional query by numeric key.
    pub fn query_u64(&self, mem: &GuestMem, key: u64) -> u64 {
        self.query_software(mem, &key.to_be_bytes())
    }
}

impl MutableDs for Bst {
    fn ds_insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), MutateError> {
        let key = u64::from_be_bytes(key.try_into().expect("BST keys are 8 bytes"));
        self.insert(mem, key, value).map_err(MutateError::from)
    }

    fn ds_remove(&mut self, mem: &mut GuestMem, key: &[u8]) -> Result<u64, MutateError> {
        let key = u64::from_be_bytes(key.try_into().expect("BST keys are 8 bytes"));
        self.remove(mem, key).map_err(MutateError::from)
    }
}

impl QueryDs for Bst {
    fn header_addr(&self) -> VirtAddr {
        self.header_addr
    }

    fn query_software(&self, mem: &GuestMem, key: &[u8]) -> u64 {
        let key = u64::from_be_bytes(key.try_into().expect("BST keys are 8 bytes"));
        let mut cur = self.header.ds_ptr.0;
        while cur != 0 {
            let ck = self.node_u64(mem, cur).expect("node readable");
            if ck == key {
                return baseline::guest_u64(mem, VirtAddr(cur + NODE_VALUE_OFF));
            }
            let branch = if key < ck {
                NODE_LEFT_OFF
            } else {
                NODE_RIGHT_OFF
            };
            cur = baseline::guest_u64(mem, VirtAddr(cur + branch));
        }
        0
    }

    fn query_traced(&self, mem: &GuestMem, key_addr: VirtAddr, trace: &mut Trace) -> u64 {
        let key = mem
            .read_u64(key_addr)
            .expect("query key readable")
            .swap_bytes();

        baseline::emit_call_overhead(trace);
        baseline::emit_key_stage(trace, key_addr, 8);
        let root_load = trace.load(self.header_addr, None);

        let mut cur = self.header.ds_ptr.0;
        let mut cur_dep = root_load;
        while cur != 0 {
            // One node line holds key/value/children.
            let node_load = trace.load(VirtAddr(cur), Some(cur_dep));
            let ck = self.node_u64(mem, cur).expect("node readable");
            let cmp = trace.alu(1, Some(node_load), None);
            let matched = ck == key;
            trace.branch(sites::MATCH, matched, Some(cmp));
            if matched {
                let v = trace.load(VirtAddr(cur + NODE_VALUE_OFF), Some(node_load));
                trace.alu1(Some(v));
                return baseline::guest_u64(mem, VirtAddr(cur + NODE_VALUE_OFF));
            }
            // Direction branch: data-dependent, essentially random for
            // random queries — the frontend pressure the paper profiles.
            let go_left = key < ck;
            trace.branch(sites::WALK_LOOP, go_left, Some(cmp));
            let branch = if go_left {
                NODE_LEFT_OFF
            } else {
                NODE_RIGHT_OFF
            };
            cur = baseline::guest_u64(mem, VirtAddr(cur + branch));
            let advance = trace.alu1(Some(node_load));
            let _ = advance;
            cur_dep = node_load;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage_key;
    use qei_config::SimRng;
    use qei_core::{run_query, FirmwareStore};

    fn sample(mem: &mut GuestMem, n: u64) -> Bst {
        let mut t = Bst::new(mem).unwrap();
        let mut keys: Vec<u64> = (1..=n).map(|i| i * 37).collect();
        SimRng::seed_from_u64(17).shuffle(&mut keys);
        for k in keys {
            t.insert(mem, k, k + 1_000_000).unwrap();
        }
        t
    }

    #[test]
    fn software_hits_and_misses() {
        let mut mem = GuestMem::new(90);
        let t = sample(&mut mem, 500);
        assert_eq!(t.len(), 500);
        for k in [37u64, 37 * 250, 37 * 500] {
            assert_eq!(t.query_u64(&mem, k), k + 1_000_000);
        }
        assert_eq!(t.query_u64(&mem, 38), 0);
        assert_eq!(t.query_u64(&mem, 0), 0);
    }

    #[test]
    fn firmware_agrees_with_software() {
        let mut mem = GuestMem::new(91);
        let t = sample(&mut mem, 300);
        let fw = FirmwareStore::with_builtins();
        for k in [37u64, 740, 37 * 299, 5, 99999] {
            let ka = stage_key(&mut mem, &k.to_be_bytes());
            assert_eq!(
                run_query(&fw, &mem, t.header_addr(), ka).unwrap(),
                t.query_u64(&mem, k),
                "key {k}"
            );
        }
    }

    #[test]
    fn traced_matches_and_depth_scales() {
        let mut mem = GuestMem::new(92);
        let t = sample(&mut mem, 1000);
        let ka = stage_key(&mut mem, &(37u64 * 700).to_be_bytes());
        let mut tr = Trace::new();
        let r = t.query_traced(&mem, ka, &mut tr);
        assert_eq!(r, 37 * 700 + 1_000_000);
        // Depth ~ 2 ln(1000) ≈ 14 nodes → ~6 uops per node + overhead.
        assert!(tr.len() > 30, "trace len {}", tr.len());
    }

    #[test]
    fn empty_tree_misses() {
        let mut mem = GuestMem::new(93);
        let t = Bst::new(&mut mem).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.query_u64(&mem, 42), 0);
    }

    #[test]
    fn duplicate_insert_upserts_value() {
        let mut mem = GuestMem::new(94);
        let mut t = Bst::new(&mut mem).unwrap();
        t.insert(&mut mem, 5, 1).unwrap();
        t.insert(&mut mem, 5, 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.query_u64(&mem, 5), 2);
    }

    #[test]
    fn remove_all_delete_shapes() {
        let mut mem = GuestMem::new(95);
        let mut t = Bst::new(&mut mem).unwrap();
        // Shape:        50
        //            30    70
        //          20  40 60  80
        for k in [50u64, 30, 70, 20, 40, 60, 80] {
            t.insert(&mut mem, k, k * 10).unwrap();
        }
        // Leaf delete.
        assert_eq!(t.remove(&mut mem, 20).unwrap(), 200);
        // Two-child interior delete (30 adopts successor 40).
        assert_eq!(t.remove(&mut mem, 30).unwrap(), 300);
        // Two-child ROOT delete (50 adopts successor 60).
        assert_eq!(t.remove(&mut mem, 50).unwrap(), 500);
        // One-child delete: 70 now has children 60?... verify by queries.
        assert_eq!(t.remove(&mut mem, 999).unwrap(), 0, "absent key");
        assert_eq!(t.len(), 4);
        for (k, want) in [(20u64, 0u64), (30, 0), (50, 0), (40, 400), (60, 600)] {
            assert_eq!(t.query_u64(&mem, k), want, "key {k}");
        }
        // Firmware agrees after the mutations and epoch is even.
        let hd = Header::read_from(&mem, t.header_addr()).unwrap();
        assert!(!hd.stale());
        let fw = FirmwareStore::with_builtins();
        for k in [40u64, 60, 70, 80, 50] {
            let ka = stage_key(&mut mem, &k.to_be_bytes());
            assert_eq!(
                run_query(&fw, &mem, t.header_addr(), ka).unwrap(),
                t.query_u64(&mem, k),
                "key {k}"
            );
        }
    }

    #[test]
    fn remove_root_chain_to_empty() {
        let mut mem = GuestMem::new(96);
        let mut t = Bst::new(&mut mem).unwrap();
        for k in [2u64, 1, 3] {
            t.insert(&mut mem, k, k).unwrap();
        }
        for k in [2u64, 1, 3] {
            assert_eq!(t.remove(&mut mem, k).unwrap(), k);
        }
        assert!(t.is_empty());
        assert_eq!(t.query_u64(&mem, 2), 0);
        // Reinsert into the emptied tree (root path again).
        t.insert(&mut mem, 9, 99).unwrap();
        assert_eq!(t.query_u64(&mem, 9), 99);
    }
}
