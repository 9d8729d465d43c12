//! Guest-memory chained hash table (subtype 0) — a hash of linked lists,
//! the paper's "combined data structure" treated as one structure with its
//! own CFA.
//!
//! Layout: `ds_ptr` → array of `capacity` 8-byte chain-head pointers; chain
//! nodes use the linked-list layout `{next, key_ptr, value}`.

use crate::baseline::{self, sites};
use crate::{epoch_bump, MutableDs, MutateError, QueryDs};
use qei_core::dpu::hash_bytes;
use qei_core::header::{DsType, Header, HEADER_BYTES};
use qei_cpu::Trace;
use qei_mem::{GuestMem, MemError, VirtAddr};

/// A chained hash table living in guest memory.
#[derive(Debug, Clone)]
pub struct ChainedHash {
    header_addr: VirtAddr,
    header: Header,
    len: usize,
}

impl ChainedHash {
    /// Builds an empty table with `capacity` buckets.
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(
        mem: &mut GuestMem,
        capacity: u64,
        key_len: u16,
        seed: u64,
    ) -> Result<Self, MemError> {
        assert!(capacity > 0, "capacity must be nonzero");
        let buckets = mem.alloc(capacity * 8, 64)?;
        let header = Header {
            ds_ptr: buckets,
            dtype: DsType::HashTable,
            subtype: 0,
            key_len,
            flags: 0,
            capacity,
            aux0: 0,
            aux1: seed,
            aux2: 0,
            epoch: 0,
        };
        let header_addr = mem.alloc(HEADER_BYTES, 64)?;
        header.write_to(mem, header_addr)?;
        Ok(ChainedHash {
            header_addr,
            header,
            len: 0,
        })
    }

    fn bucket_slot(&self, key: &[u8]) -> u64 {
        let h = hash_bytes(self.header.aux1, key);
        self.header.ds_ptr.0 + (h % self.header.capacity) * 8
    }

    /// Inserts a key-value pair at its chain's head, or overwrites the value
    /// in place if the key is already chained (upsert).
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    ///
    /// # Panics
    ///
    /// Panics on key-length mismatch or zero value.
    pub fn insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), MemError> {
        assert_eq!(key.len(), self.header.key_len as usize, "key length");
        assert_ne!(value, 0, "zero is the not-found sentinel");
        let slot = VirtAddr(self.bucket_slot(key));
        // Scan the chain for an existing node first (upsert semantics).
        let mut cur = mem.read_u64(slot)?;
        let mut existing = None;
        while cur != 0 {
            let key_ptr = mem.read_u64(VirtAddr(cur + 8))?;
            if mem.bytes_equal(VirtAddr(key_ptr), key)? {
                existing = Some(cur);
                break;
            }
            cur = mem.read_u64(VirtAddr(cur))?;
        }
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        if let Some(node) = existing {
            mem.write_u64(VirtAddr(node + 16), value)?;
        } else {
            let head = mem.read_u64(slot)?;
            let key_buf = mem.alloc(key.len() as u64, 8)?;
            mem.write(key_buf, key)?;
            let node = mem.alloc(24, 8)?;
            mem.write_u64(node, head)?;
            mem.write_u64(node + 8, key_buf.0)?;
            mem.write_u64(node + 16, value)?;
            mem.write_u64(slot, node.0)?;
            self.len += 1;
        }
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        Ok(())
    }

    /// Unlinks `key` from its chain, returning its value (0 if absent).
    ///
    /// # Errors
    ///
    /// Propagates guest memory failures.
    ///
    /// # Panics
    ///
    /// Panics on key-length mismatch.
    pub fn remove(&mut self, mem: &mut GuestMem, key: &[u8]) -> Result<u64, MemError> {
        assert_eq!(key.len(), self.header.key_len as usize, "key length");
        let slot = VirtAddr(self.bucket_slot(key));
        let mut prev: Option<u64> = None;
        let mut cur = mem.read_u64(slot)?;
        while cur != 0 {
            let key_ptr = mem.read_u64(VirtAddr(cur + 8))?;
            if mem.bytes_equal(VirtAddr(key_ptr), key)? {
                let value = mem.read_u64(VirtAddr(cur + 16))?;
                let next = mem.read_u64(VirtAddr(cur))?;
                epoch_bump(mem, &mut self.header, self.header_addr)?;
                match prev {
                    Some(p) => mem.write_u64(VirtAddr(p), next)?,
                    None => mem.write_u64(slot, next)?,
                }
                epoch_bump(mem, &mut self.header, self.header_addr)?;
                self.len -= 1;
                return Ok(value);
            }
            prev = Some(cur);
            cur = mem.read_u64(VirtAddr(cur))?;
        }
        Ok(0)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl MutableDs for ChainedHash {
    fn ds_insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), MutateError> {
        self.insert(mem, key, value).map_err(MutateError::from)
    }

    fn ds_remove(&mut self, mem: &mut GuestMem, key: &[u8]) -> Result<u64, MutateError> {
        self.remove(mem, key).map_err(MutateError::from)
    }
}

impl QueryDs for ChainedHash {
    fn header_addr(&self) -> VirtAddr {
        self.header_addr
    }

    fn query_software(&self, mem: &GuestMem, key: &[u8]) -> u64 {
        let mut cur = baseline::guest_u64(mem, VirtAddr(self.bucket_slot(key)));
        while cur != 0 {
            let key_ptr = baseline::guest_u64(mem, VirtAddr(cur + 8));
            if mem
                .bytes_equal(VirtAddr(key_ptr), key)
                .expect("chain key readable")
            {
                return baseline::guest_u64(mem, VirtAddr(cur + 16));
            }
            cur = baseline::guest_u64(mem, VirtAddr(cur));
        }
        0
    }

    fn query_traced(&self, mem: &GuestMem, key_addr: VirtAddr, trace: &mut Trace) -> u64 {
        let key_len = self.header.key_len as usize;
        let key = mem.read_vec(key_addr, key_len).expect("query key readable");

        baseline::emit_call_overhead(trace);
        let key_dep = baseline::emit_key_stage(trace, key_addr, key_len);
        let hash = baseline::emit_hash(trace, Some(key_dep), key_len);
        // idx = h % capacity; slot address math.
        let idx = trace.alu(3, Some(hash), None);
        let slot = VirtAddr(self.bucket_slot(&key));
        let head_load = trace.load(slot, Some(idx));

        let mut cur = baseline::guest_u64(mem, slot);
        let mut cur_dep = head_load;
        let mut stored = Vec::new();
        trace.branch(sites::WALK_LOOP, cur != 0, Some(head_load));
        while cur != 0 {
            let node_load = trace.load(VirtAddr(cur), Some(cur_dep));
            trace.load(VirtAddr(cur + 16), Some(node_load));
            let key_ptr = baseline::guest_u64(mem, VirtAddr(cur + 8));
            mem.read_into(VirtAddr(key_ptr), key_len, &mut stored)
                .expect("chain key readable");
            let cmp = baseline::emit_memcmp(
                trace,
                VirtAddr(key_ptr),
                Some(node_load),
                &stored,
                &key,
                key_len,
            );
            let matched = stored == key;
            trace.branch(sites::MATCH, matched, Some(cmp));
            if matched {
                let v = trace.load(VirtAddr(cur + 16), Some(node_load));
                trace.alu1(Some(v));
                return baseline::guest_u64(mem, VirtAddr(cur + 16));
            }
            cur = baseline::guest_u64(mem, VirtAddr(cur));
            let advance = trace.alu1(Some(node_load));
            trace.branch(sites::WALK_LOOP, cur != 0, Some(advance));
            cur_dep = node_load;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage_key;
    use qei_core::{run_query, FirmwareStore};

    fn sample(mem: &mut GuestMem) -> ChainedHash {
        let mut h = ChainedHash::new(mem, 64, 16, 0xFEED).unwrap();
        for i in 0..200u64 {
            h.insert(mem, format!("chained-key-{i:04}").as_bytes(), 1 + i)
                .unwrap();
        }
        h
    }

    #[test]
    fn software_hits_and_misses() {
        let mut mem = GuestMem::new(60);
        let h = sample(&mut mem);
        assert_eq!(h.len(), 200);
        for i in [0u64, 63, 199] {
            let k = format!("chained-key-{i:04}");
            assert_eq!(h.query_software(&mem, k.as_bytes()), 1 + i);
        }
        assert_eq!(h.query_software(&mem, b"chained-key-9999"), 0);
    }

    #[test]
    fn firmware_agrees_with_software() {
        let mut mem = GuestMem::new(61);
        let h = sample(&mut mem);
        let fw = FirmwareStore::with_builtins();
        for i in [0u64, 17, 100, 199, 500] {
            let k = format!("chained-key-{i:04}");
            let ka = stage_key(&mut mem, k.as_bytes());
            assert_eq!(
                run_query(&fw, &mem, h.header_addr(), ka).unwrap(),
                h.query_software(&mem, k.as_bytes()),
                "key {i}"
            );
        }
    }

    #[test]
    fn traced_matches_and_costs_include_hash() {
        let mut mem = GuestMem::new(62);
        let h = sample(&mut mem);
        let ka = stage_key(&mut mem, b"chained-key-0042");
        let mut t = Trace::new();
        let r = h.query_traced(&mem, ka, &mut t);
        assert_eq!(r, 43);
        // Call overhead + key staging + hash + walk: tens of micro-ops.
        assert!(t.len() > 25, "trace len {}", t.len());
        assert!(t.stats().alus > 10);
    }

    #[test]
    fn upsert_and_remove_round_trip() {
        let mut mem = GuestMem::new(64);
        let mut h = sample(&mut mem);
        // Upsert an existing key: value changes, no new node.
        h.insert(&mut mem, b"chained-key-0042", 9999).unwrap();
        assert_eq!(h.len(), 200);
        assert_eq!(h.query_software(&mem, b"chained-key-0042"), 9999);
        // Remove mid-chain and head-of-chain keys.
        assert_eq!(h.remove(&mut mem, b"chained-key-0042").unwrap(), 9999);
        assert_eq!(h.len(), 199);
        assert_eq!(h.query_software(&mem, b"chained-key-0042"), 0);
        assert_eq!(h.remove(&mut mem, b"chained-key-0042").unwrap(), 0);
        // Firmware agrees after mutation; epoch is even again.
        let hd = Header::read_from(&mem, h.header_addr()).unwrap();
        assert!(!hd.stale());
        let fw = FirmwareStore::with_builtins();
        for i in [0u64, 41, 43, 199] {
            let k = format!("chained-key-{i:04}");
            let ka = stage_key(&mut mem, k.as_bytes());
            assert_eq!(run_query(&fw, &mem, h.header_addr(), ka).unwrap(), 1 + i);
        }
    }

    #[test]
    fn chains_absorb_collisions() {
        let mut mem = GuestMem::new(63);
        // Tiny capacity forces long chains.
        let mut h = ChainedHash::new(&mut mem, 2, 8, 1).unwrap();
        for i in 0..50u64 {
            h.insert(&mut mem, format!("k{i:07}").as_bytes(), i + 1)
                .unwrap();
        }
        for i in 0..50u64 {
            let k = format!("k{i:07}");
            assert_eq!(h.query_software(&mem, k.as_bytes()), i + 1);
        }
    }
}
