//! Guest-memory cuckoo hash table (subtype 1) — the DPDK hash-library shape
//! the paper's networking workloads query.
//!
//! Layout: `ds_ptr` → `capacity` buckets × `entries` 16-byte slots
//! `{sig: u64, kv_ptr: u64}`; the key-value record is `{value: u64,
//! key: [u8; key_len]}`. Every key has two candidate buckets (two hash
//! seeds); inserts displace ("kick") residents cuckoo-style.

use crate::baseline::{self, sites};
use crate::{epoch_bump, MutableDs, MutateError, QueryDs};
use qei_core::dpu::hash_bytes;
use qei_core::firmware::hash_table::CuckooHashCfa;
use qei_core::header::{DsType, Header, HEADER_BYTES};
use qei_cpu::Trace;
use qei_mem::{GuestMem, MemError, VirtAddr};

/// Hard ceiling on the displacement chain length. The effective bound per
/// table is [`CuckooHash::displacement_bound`], which also caps at the slot
/// count: a kick chain longer than the table must be revisiting slots, so a
/// pathological key set (or adversarial seed pair) terminates with
/// [`TableFull`] instead of walking a cycle for long.
const MAX_KICKS: u64 = 128;

/// A cuckoo hash table living in guest memory.
#[derive(Debug, Clone)]
pub struct CuckooHash {
    header_addr: VirtAddr,
    header: Header,
    len: usize,
}

/// Error returned when an insert cannot find a home after displacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cuckoo table full: displacement limit reached")
    }
}

impl std::error::Error for TableFull {}

impl CuckooHash {
    /// Builds an empty table with `capacity` buckets of `entries` slots each.
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry.
    pub fn new(
        mem: &mut GuestMem,
        capacity: u64,
        entries: u64,
        key_len: u16,
        seeds: (u64, u64),
    ) -> Result<Self, MemError> {
        assert!(capacity > 0 && (1..=16).contains(&entries));
        let buckets = mem.alloc(capacity * entries * 16, 64)?;
        let header = Header {
            ds_ptr: buckets,
            dtype: DsType::HashTable,
            subtype: 1,
            key_len,
            flags: 0,
            capacity,
            aux0: entries,
            aux1: seeds.0,
            aux2: seeds.1,
            epoch: 0,
        };
        let header_addr = mem.alloc(HEADER_BYTES, 64)?;
        header.write_to(mem, header_addr)?;
        Ok(CuckooHash {
            header_addr,
            header,
            len: 0,
        })
    }

    fn buckets_of(&self, key: &[u8]) -> (u64, u64, u64) {
        let h1 = hash_bytes(self.header.aux1, key);
        let h2 = hash_bytes(self.header.aux2, key);
        let sig = CuckooHashCfa::signature(h1);
        (h1 % self.header.capacity, h2 % self.header.capacity, sig)
    }

    fn entry_addr(&self, bucket: u64, entry: u64) -> VirtAddr {
        VirtAddr(self.header.ds_ptr.0 + (bucket * self.header.aux0 + entry) * 16)
    }

    /// Effective displacement bound for this table's geometry: the kick
    /// chain visits one slot per step, so a chain longer than the slot count
    /// is provably cycling. Capped at `MAX_KICKS` for big tables.
    pub fn displacement_bound(&self) -> u64 {
        (self.header.capacity * self.header.aux0).min(MAX_KICKS)
    }

    /// Inserts a key-value pair, displacing residents if needed. Inserting
    /// an existing key overwrites its value in place (upsert).
    ///
    /// On [`TableFull`] the entire kick chain is rolled back, so every
    /// previously-inserted key is still findable — without the rollback the
    /// final displaced victim would silently vanish from the table.
    ///
    /// # Errors
    ///
    /// [`TableFull`] when the displacement bound is reached (guest
    /// allocation failures panic: the table was sized at build time).
    ///
    /// # Panics
    ///
    /// Panics on key-length mismatch or zero value.
    pub fn insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), TableFull> {
        assert_eq!(key.len(), self.header.key_len as usize, "key length");
        assert_ne!(value, 0, "zero is the not-found sentinel");

        // Upsert: overwrite the value through the existing kv pointer.
        if let Some((_, kv)) = self.find_entry(mem, key) {
            epoch_bump(mem, &mut self.header, self.header_addr).expect("header mapped");
            mem.write_u64(VirtAddr(kv), value).expect("kv mapped");
            epoch_bump(mem, &mut self.header, self.header_addr).expect("header mapped");
            return Ok(());
        }

        let kv = mem
            .alloc(8 + key.len() as u64, 8)
            .expect("guest heap exhausted");
        mem.write_u64(kv, value).expect("kv mapped");
        mem.write(kv + 8, key).expect("kv mapped");

        epoch_bump(mem, &mut self.header, self.header_addr).expect("header mapped");
        let (b1, _, sig) = self.buckets_of(key);
        let mut carry_sig = sig;
        let mut carry_kv = kv.0;
        let mut bucket = b1;
        // Journal of displaced slots (entry addr, previous sig, previous kv)
        // so a failed insert can unwind and leave the table untouched.
        let mut journal: Vec<(VirtAddr, u64, u64)> = Vec::new();
        let mut full = true;
        for kick in 0..self.displacement_bound() {
            // Try an empty slot in the current bucket.
            if let Some(ea) = (0..self.header.aux0)
                .map(|e| self.entry_addr(bucket, e))
                .find(|&ea| baseline::guest_u64(mem, ea) == 0)
            {
                mem.write_u64(ea, carry_sig).expect("bucket mapped");
                mem.write_u64(ea + 8, carry_kv).expect("bucket mapped");
                self.len += 1;
                full = false;
                break;
            }
            // Displace a pseudo-random resident and move it to its alternate.
            let victim = (carry_sig.wrapping_add(kick)) % self.header.aux0;
            let ea = self.entry_addr(bucket, victim);
            let v_sig = baseline::guest_u64(mem, ea);
            let v_kv = baseline::guest_u64(mem, ea + 8);
            journal.push((ea, v_sig, v_kv));
            mem.write_u64(ea, carry_sig).expect("bucket mapped");
            mem.write_u64(ea + 8, carry_kv).expect("bucket mapped");
            // The victim's alternate bucket: recompute from its stored key.
            let v_key = mem
                .read_vec(VirtAddr(v_kv + 8), self.header.key_len as usize)
                .expect("victim key readable");
            let (vb1, vb2, _) = self.buckets_of(&v_key);
            carry_sig = v_sig;
            carry_kv = v_kv;
            bucket = if vb1 == bucket { vb2 } else { vb1 };
        }
        if full {
            // Unwind the kick chain back-to-front: every displaced resident
            // returns to its original slot and the new key is dropped.
            for &(ea, old_sig, old_kv) in journal.iter().rev() {
                mem.write_u64(ea, old_sig).expect("bucket mapped");
                mem.write_u64(ea + 8, old_kv).expect("bucket mapped");
            }
        }
        epoch_bump(mem, &mut self.header, self.header_addr).expect("header mapped");
        if full {
            Err(TableFull)
        } else {
            Ok(())
        }
    }

    /// Clears `key`'s slot, returning its value (0 if absent).
    ///
    /// # Panics
    ///
    /// Panics on key-length mismatch.
    pub fn remove(&mut self, mem: &mut GuestMem, key: &[u8]) -> u64 {
        assert_eq!(key.len(), self.header.key_len as usize, "key length");
        let Some((ea, kv)) = self.find_entry(mem, key) else {
            return 0;
        };
        let value = baseline::guest_u64(mem, VirtAddr(kv));
        epoch_bump(mem, &mut self.header, self.header_addr).expect("header mapped");
        mem.write_u64(ea, 0).expect("bucket mapped");
        mem.write_u64(ea + 8, 0).expect("bucket mapped");
        epoch_bump(mem, &mut self.header, self.header_addr).expect("header mapped");
        self.len -= 1;
        value
    }

    /// Locates `key`'s occupied slot: `(entry addr, kv record addr)`.
    fn find_entry(&self, mem: &GuestMem, key: &[u8]) -> Option<(VirtAddr, u64)> {
        let (b1, b2, sig) = self.buckets_of(key);
        for bucket in [b1, b2] {
            for e in 0..self.header.aux0 {
                let ea = self.entry_addr(bucket, e);
                if baseline::guest_u64(mem, ea) == sig {
                    let kv = baseline::guest_u64(mem, ea + 8);
                    if mem
                        .bytes_equal(VirtAddr(kv + 8), key)
                        .expect("kv key readable")
                    {
                        return Some((ea, kv));
                    }
                }
            }
            if b1 == b2 {
                break;
            }
        }
        None
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn scan_bucket_software(&self, mem: &GuestMem, bucket: u64, sig: u64, key: &[u8]) -> u64 {
        for e in 0..self.header.aux0 {
            let ea = self.entry_addr(bucket, e);
            if baseline::guest_u64(mem, ea) == sig {
                let kv = baseline::guest_u64(mem, ea + 8);
                if mem
                    .bytes_equal(VirtAddr(kv + 8), key)
                    .expect("kv key readable")
                {
                    return baseline::guest_u64(mem, VirtAddr(kv));
                }
            }
        }
        0
    }
}

impl MutableDs for CuckooHash {
    fn ds_insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), MutateError> {
        self.insert(mem, key, value)
            .map_err(|TableFull| MutateError::TableFull)
    }

    fn ds_remove(&mut self, mem: &mut GuestMem, key: &[u8]) -> Result<u64, MutateError> {
        Ok(self.remove(mem, key))
    }
}

impl QueryDs for CuckooHash {
    fn header_addr(&self) -> VirtAddr {
        self.header_addr
    }

    fn query_software(&self, mem: &GuestMem, key: &[u8]) -> u64 {
        let (b1, b2, sig) = self.buckets_of(key);
        let v = self.scan_bucket_software(mem, b1, sig, key);
        if v != 0 {
            return v;
        }
        self.scan_bucket_software(mem, b2, sig, key)
    }

    fn query_traced(&self, mem: &GuestMem, key_addr: VirtAddr, trace: &mut Trace) -> u64 {
        let key_len = self.header.key_len as usize;
        let key = mem.read_vec(key_addr, key_len).expect("query key readable");

        baseline::emit_call_overhead(trace);
        let key_dep = baseline::emit_key_stage(trace, key_addr, key_len);
        // DPDK computes both hashes + the signature up front.
        let h1 = baseline::emit_hash(trace, Some(key_dep), key_len);
        let h2 = baseline::emit_hash(trace, Some(key_dep), key_len);
        let sig_op = trace.alu(1, Some(h1), None);

        let (b1, b2, sig) = self.buckets_of(&key);
        let mut result = 0u64;
        let mut stored = Vec::new();
        for (which, bucket) in [(0u32, b1), (1u32, b2)] {
            let hash_dep = if which == 0 { h1 } else { h2 };
            // Load the bucket lines (entries*16 bytes).
            let bucket_bytes = self.header.aux0 * 16;
            let lines = bucket_bytes.div_ceil(64).max(1);
            let base = self.entry_addr(bucket, 0);
            let mut bucket_load = trace.next_index();
            for l in 0..lines {
                bucket_load = trace.load(base + l * 64, Some(hash_dep));
            }
            // Scan entries: signature compare + branch per entry.
            let mut matched_entry: Option<u64> = None;
            for e in 0..self.header.aux0 {
                let ea = self.entry_addr(bucket, e);
                let entry_sig = baseline::guest_u64(mem, ea);
                let c = trace.alu(1, Some(bucket_load), Some(sig_op));
                let hit = entry_sig == sig;
                trace.branch(sites::BUCKET_SCAN, hit, Some(c));
                if hit {
                    // Full key compare through the kv pointer.
                    let kv = baseline::guest_u64(mem, ea + 8);
                    let kv_load = trace.load(ea + 8, Some(bucket_load));
                    mem.read_into(VirtAddr(kv + 8), key_len, &mut stored)
                        .expect("kv key readable");
                    let cmp = baseline::emit_memcmp(
                        trace,
                        VirtAddr(kv + 8),
                        Some(kv_load),
                        &stored,
                        &key,
                        key_len,
                    );
                    let eq = stored == key;
                    trace.branch(sites::MATCH, eq, Some(cmp));
                    if eq {
                        let v = trace.load(VirtAddr(kv), Some(kv_load));
                        trace.alu1(Some(v));
                        matched_entry = Some(baseline::guest_u64(mem, VirtAddr(kv)));
                        break;
                    }
                }
            }
            if let Some(v) = matched_entry {
                result = v;
                break;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage_key;
    use qei_core::{run_query, FirmwareStore};

    fn sample(mem: &mut GuestMem, n: u64) -> CuckooHash {
        // 16-byte keys, 8-entry buckets, ~50% load factor.
        let capacity = (n / 4).next_power_of_two().max(4);
        let mut h = CuckooHash::new(mem, capacity, 8, 16, (0xA1, 0xB2)).unwrap();
        for i in 0..n {
            h.insert(mem, format!("flow:{i:011}").as_bytes(), 1 + i)
                .unwrap();
        }
        h
    }

    #[test]
    fn software_hits_and_misses() {
        let mut mem = GuestMem::new(70);
        let h = sample(&mut mem, 500);
        assert_eq!(h.len(), 500);
        for i in [0u64, 250, 499] {
            let k = format!("flow:{i:011}");
            assert_eq!(h.query_software(&mem, k.as_bytes()), 1 + i, "key {i}");
        }
        assert_eq!(h.query_software(&mem, b"flow:99999999999"), 0);
    }

    #[test]
    fn firmware_agrees_with_software() {
        let mut mem = GuestMem::new(71);
        let h = sample(&mut mem, 300);
        let fw = FirmwareStore::with_builtins();
        for i in (0..300u64).step_by(37) {
            let k = format!("flow:{i:011}");
            let ka = stage_key(&mut mem, k.as_bytes());
            assert_eq!(
                run_query(&fw, &mem, h.header_addr(), ka).unwrap(),
                h.query_software(&mem, k.as_bytes()),
                "key {i}"
            );
        }
        // Misses too.
        let ka = stage_key(&mut mem, b"flow:77777777777");
        assert_eq!(run_query(&fw, &mem, h.header_addr(), ka).unwrap(), 0);
    }

    #[test]
    fn traced_matches_software() {
        let mut mem = GuestMem::new(72);
        let h = sample(&mut mem, 200);
        for i in [3u64, 99, 150] {
            let k = format!("flow:{i:011}");
            let ka = stage_key(&mut mem, k.as_bytes());
            let mut t = Trace::new();
            assert_eq!(h.query_traced(&mem, ka, &mut t), 1 + i);
            assert!(t.len() > 30, "trace len {}", t.len());
        }
    }

    #[test]
    fn displacement_keeps_all_keys_findable() {
        let mut mem = GuestMem::new(73);
        // Small table at high load: displacement must occur.
        let mut h = CuckooHash::new(&mut mem, 8, 4, 8, (3, 7)).unwrap();
        let mut inserted = Vec::new();
        for i in 0..24u64 {
            let k = format!("k{i:07}");
            if h.insert(&mut mem, k.as_bytes(), i + 1).is_ok() {
                inserted.push((k, i + 1));
            }
        }
        assert!(inserted.len() >= 20, "only {} inserted", inserted.len());
        for (k, v) in &inserted {
            assert_eq!(h.query_software(&mem, k.as_bytes()), *v, "{k}");
        }
    }

    #[test]
    fn full_table_reports_error() {
        let mut mem = GuestMem::new(74);
        let mut h = CuckooHash::new(&mut mem, 1, 1, 8, (3, 7)).unwrap();
        assert!(h.insert(&mut mem, b"aaaaaaaa", 1).is_ok());
        // Second key with same single bucket must eventually fail.
        let r = h.insert(&mut mem, b"bbbbbbbb", 2);
        assert_eq!(r, Err(TableFull));
        assert!(!TableFull.to_string().is_empty());
    }

    #[test]
    fn failed_insert_rolls_back_kick_chain() {
        let mut mem = GuestMem::new(75);
        // Degenerate geometry: identical seeds mean every key has ONE home
        // bucket, so displacement can never succeed once it is full.
        let mut h = CuckooHash::new(&mut mem, 2, 2, 8, (9, 9)).unwrap();
        let mut resident = Vec::new();
        for i in 0..64u64 {
            let k = format!("k{i:07}");
            if h.insert(&mut mem, k.as_bytes(), i + 1).is_ok() {
                resident.push((k, i + 1));
            }
        }
        assert!(resident.len() < 64, "degenerate table cannot hold all keys");
        // Every successful insert must still be findable: a failed insert
        // that dropped a displaced victim would fail this sweep.
        for (k, v) in &resident {
            assert_eq!(h.query_software(&mem, k.as_bytes()), *v, "{k} lost");
        }
        assert_eq!(h.len(), resident.len());
    }

    #[test]
    fn adversarial_seed_hits_displacement_bound_and_terminates() {
        use qei_config::SimRng;
        let mut mem = GuestMem::new(76);
        // Tiny table: the geometry bound (capacity*entries = 8) is tighter
        // than MAX_KICKS, so an adversarial fill exercises it quickly.
        let mut h = CuckooHash::new(&mut mem, 4, 2, 8, (0xDEAD, 0xDEAD)).unwrap();
        assert_eq!(h.displacement_bound(), 8);
        let mut rng = SimRng::seed_from_u64(0xBAD5EED);
        let mut ok = 0u32;
        let mut full = 0u32;
        for _ in 0..200 {
            let k = format!("{:08}", rng.below(100_000_000));
            match h.insert(&mut mem, k.as_bytes(), 7) {
                Ok(()) => ok += 1,
                Err(TableFull) => full += 1,
            }
        }
        assert!(full > 0, "adversarial fill never hit the bound");
        assert!(ok >= 2, "sanity: some inserts must land");
        // The epoch must be even (all mutation windows closed) and the
        // table still dispatchable.
        let hd = Header::read_from(&mem, h.header_addr()).unwrap();
        assert!(!hd.stale());
    }

    #[test]
    fn upsert_and_remove_round_trip() {
        let mut mem = GuestMem::new(77);
        let mut h = sample(&mut mem, 100);
        h.insert(&mut mem, b"flow:00000000042", 4242).unwrap();
        assert_eq!(h.len(), 100, "upsert must not consume a slot");
        assert_eq!(h.query_software(&mem, b"flow:00000000042"), 4242);
        assert_eq!(h.remove(&mut mem, b"flow:00000000042"), 4242);
        assert_eq!(h.len(), 99);
        assert_eq!(h.query_software(&mem, b"flow:00000000042"), 0);
        assert_eq!(h.remove(&mut mem, b"flow:00000000042"), 0);
        // Freed slot is reusable and firmware agrees post-mutation.
        h.insert(&mut mem, b"flow:00000000042", 43).unwrap();
        let fw = FirmwareStore::with_builtins();
        let ka = stage_key(&mut mem, b"flow:00000000042");
        assert_eq!(run_query(&fw, &mem, h.header_addr(), ka).unwrap(), 43);
    }
}
