//! The one CFA walk driver. A query is one walk: read the header, gate an
//! odd (mid-mutation) epoch, fetch the key, look up the structure's CFA,
//! then loop `step` → watchdog → [`dpu::execute`] until a terminal op.
//! [`walk`] owns that sequence; a [`WalkHook`] observes it. The functional
//! engine ([`run_query`]) is the no-op hook `()`, and the timing model in
//! [`crate::accel`] is a pricing hook — so the timed walk takes exactly the
//! steps, and returns exactly the answer, of the functional one.

use crate::contract::{self, QueryCost};
use crate::ctx::QueryCtx;
use crate::dpu;
use crate::fault::FaultCode;
use crate::firmware::{FirmwareStore, STEP_LIMIT};
use crate::header::Header;
use crate::uop::{MicroOp, OpOutcome};
use qei_mem::{GuestMem, VirtAddr};

/// Observer of one [`walk`], called in walk order. Every method defaults to
/// doing nothing.
pub trait WalkHook {
    /// The header was read and passed the epoch gate; the key fetch is next.
    fn admitted(&mut self) {}
    /// The key was fetched (`key.len()` is the header's `key_len`).
    fn key_fetched(&mut self, _key: &[u8]) {}
    /// The CEE is about to take a step (terminal steps included).
    fn before_step(&mut self) {}
    /// A non-terminal micro-op passed the watchdog and is about to execute.
    fn before_op(&mut self, _ctx: &QueryCtx, _op: MicroOp) {}
}

/// The functional engine: no timing, nothing observed.
impl WalkHook for () {}

/// What one walk produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// The result value (0 = not found) or the delivered exception.
    pub result: Result<u64, FaultCode>,
    /// Resource counters the executed micro-ops accumulated (zero when the
    /// walk faulted before its first step).
    pub cost: QueryCost,
    /// Micro-ops executed.
    pub steps: u64,
}

/// Walks one query: reads the header at `header_addr`, fetches the key at
/// `key_addr`, and runs the structure's CFA to a terminal op, calling `hook`
/// at each stage. Successful completions are debug-asserted against the
/// installed cost contract.
pub fn walk<H: WalkHook>(
    firmware: &FirmwareStore,
    mem: &GuestMem,
    header_addr: VirtAddr,
    key_addr: VirtAddr,
    hook: &mut H,
) -> Walk {
    let fault = |code| Walk {
        result: Err(code),
        cost: QueryCost::default(),
        steps: 0,
    };
    let header = match Header::read_from(mem, header_addr) {
        Ok(h) => h,
        Err(code) => return fault(code),
    };
    // Seqlock epoch gate: an odd epoch means a mutator is mid-update, so
    // dispatching the CFA would read torn structure bytes. Fault
    // deterministically instead.
    if header.stale() {
        return fault(FaultCode::StaleStructure);
    }
    hook.admitted();
    let key = match mem.read_vec(key_addr, header.key_len as usize) {
        Ok(k) => k,
        Err(e) => return fault(FaultCode::from(e)),
    };
    hook.key_fetched(&key);
    let Some(program) = firmware.lookup(header.dtype.to_byte(), header.subtype) else {
        return fault(FaultCode::UnknownType);
    };

    let mut ctx = QueryCtx::new(header, key);
    let mut outcome = OpOutcome::Start;
    let result = loop {
        hook.before_step();
        match program.step(&mut ctx, outcome) {
            MicroOp::Done { result } => {
                contract::check_completed(&ctx);
                break Ok(result);
            }
            MicroOp::Fault { code } => break Err(code),
            op => {
                if ctx.steps >= STEP_LIMIT {
                    break Err(FaultCode::StepLimit);
                }
                hook.before_op(&ctx, op);
                match dpu::execute(mem, &mut ctx, op) {
                    Ok(o) => outcome = o,
                    Err(code) => break Err(code),
                }
            }
        }
    };
    Walk {
        result,
        cost: ctx.cost,
        steps: ctx.steps,
    }
}

/// Executes one query functionally (no timing) and returns the result value
/// (0 = not found).
///
/// # Errors
///
/// Returns the [`FaultCode`] the hardware would deliver for a faulting query
/// (bad header, unknown CFA, page faults mid-walk, watchdog expiry).
pub fn run_query(
    firmware: &FirmwareStore,
    mem: &GuestMem,
    header_addr: VirtAddr,
    key_addr: VirtAddr,
) -> Result<u64, FaultCode> {
    walk(firmware, mem, header_addr, key_addr, &mut ()).result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpu::hash_bytes;
    use crate::firmware::hash_table::CuckooHashCfa;
    use crate::header::{DsType, HEADER_BYTES};
    use crate::RESULT_NOT_FOUND;

    /// Hand-builds a tiny linked list in guest memory:
    /// keys "aaaa", "bbbb", "cccc" with values 10, 20, 30.
    fn build_list(mem: &mut GuestMem) -> (VirtAddr, Vec<(Vec<u8>, u64)>) {
        let items: Vec<(Vec<u8>, u64)> = vec![
            (b"aaaa".to_vec(), 10),
            (b"bbbb".to_vec(), 20),
            (b"cccc".to_vec(), 30),
        ];
        let mut next_ptr = 0u64;
        // Build back-to-front so each node knows its successor.
        let mut head = VirtAddr::NULL;
        for (k, v) in items.iter().rev() {
            let key_buf = mem.alloc(k.len() as u64, 8).unwrap();
            mem.write(key_buf, k).unwrap();
            let node = mem.alloc(24, 8).unwrap();
            mem.write_u64(node, next_ptr).unwrap();
            mem.write_u64(node + 8, key_buf.0).unwrap();
            mem.write_u64(node + 16, *v).unwrap();
            next_ptr = node.0;
            head = node;
        }
        let header = Header {
            ds_ptr: head,
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len: 4,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let haddr = mem.alloc(HEADER_BYTES, 64).unwrap();
        header.write_to(mem, haddr).unwrap();
        (haddr, items)
    }

    fn put_key(mem: &mut GuestMem, k: &[u8]) -> VirtAddr {
        let a = mem.alloc(k.len() as u64, 8).unwrap();
        mem.write(a, k).unwrap();
        a
    }

    #[test]
    fn linked_list_hits_and_misses() {
        let fw = FirmwareStore::with_builtins();
        let mut mem = GuestMem::new(21);
        let (haddr, items) = build_list(&mut mem);
        for (k, v) in &items {
            let ka = put_key(&mut mem, k);
            assert_eq!(run_query(&fw, &mem, haddr, ka).unwrap(), *v);
        }
        let ka = put_key(&mut mem, b"zzzz");
        assert_eq!(run_query(&fw, &mem, haddr, ka).unwrap(), RESULT_NOT_FOUND);
    }

    #[test]
    fn empty_list_misses() {
        let fw = FirmwareStore::with_builtins();
        let mut mem = GuestMem::new(22);
        let header = Header {
            ds_ptr: VirtAddr::NULL,
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len: 4,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let haddr = mem.alloc(HEADER_BYTES, 64).unwrap();
        header.write_to(&mut mem, haddr).unwrap();
        let ka = put_key(&mut mem, b"aaaa");
        assert_eq!(run_query(&fw, &mem, haddr, ka).unwrap(), RESULT_NOT_FOUND);
    }

    #[test]
    fn corrupt_pointer_faults() {
        let fw = FirmwareStore::with_builtins();
        let mut mem = GuestMem::new(23);
        let (haddr, _) = build_list(&mut mem);
        // Corrupt: point the header at unmapped memory.
        let bad = Header {
            ds_ptr: VirtAddr(0xdead_d000),
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len: 4,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        bad.write_to(&mut mem, haddr).unwrap();
        let ka = put_key(&mut mem, b"aaaa");
        assert_eq!(run_query(&fw, &mem, haddr, ka), Err(FaultCode::PageFault));
    }

    #[test]
    fn cyclic_list_trips_watchdog() {
        let fw = FirmwareStore::with_builtins();
        let mut mem = GuestMem::new(24);
        // One node whose next pointer is itself, key never matches.
        let key_buf = put_key(&mut mem, b"xxxx");
        let node = mem.alloc(24, 8).unwrap();
        mem.write_u64(node, node.0).unwrap(); // next = self
        mem.write_u64(node + 8, key_buf.0).unwrap();
        mem.write_u64(node + 16, 1).unwrap();
        let header = Header {
            ds_ptr: node,
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len: 4,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let haddr = mem.alloc(HEADER_BYTES, 64).unwrap();
        header.write_to(&mut mem, haddr).unwrap();
        let ka = put_key(&mut mem, b"aaaa");
        assert_eq!(run_query(&fw, &mem, haddr, ka), Err(FaultCode::StepLimit));
    }

    #[test]
    fn chained_hash_table_end_to_end() {
        let fw = FirmwareStore::with_builtins();
        let mut mem = GuestMem::new(25);
        let capacity = 8u64;
        let seed = 0x5eed;
        let buckets = mem.alloc(capacity * 8, 64).unwrap();
        // Insert keys k0..k19 with values 100+i via chained buckets.
        let keys: Vec<Vec<u8>> = (0..20u64)
            .map(|i| format!("key-{i:03}").into_bytes())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            let h = hash_bytes(seed, k) % capacity;
            let slot = buckets + h * 8;
            let old_head = mem.read_u64(slot).unwrap();
            let key_buf = put_key(&mut mem, k);
            let node = mem.alloc(24, 8).unwrap();
            mem.write_u64(node, old_head).unwrap();
            mem.write_u64(node + 8, key_buf.0).unwrap();
            mem.write_u64(node + 16, 100 + i as u64).unwrap();
            mem.write_u64(slot, node.0).unwrap();
        }
        let header = Header {
            ds_ptr: buckets,
            dtype: DsType::HashTable,
            subtype: 0,
            key_len: 7,
            flags: 0,
            capacity,
            aux0: 0,
            aux1: seed,
            aux2: 0,
            epoch: 0,
        };
        let haddr = mem.alloc(HEADER_BYTES, 64).unwrap();
        header.write_to(&mut mem, haddr).unwrap();

        for (i, k) in keys.iter().enumerate() {
            let ka = put_key(&mut mem, k);
            assert_eq!(run_query(&fw, &mem, haddr, ka).unwrap(), 100 + i as u64);
        }
        let ka = put_key(&mut mem, b"key-999");
        assert_eq!(run_query(&fw, &mem, haddr, ka).unwrap(), RESULT_NOT_FOUND);
    }

    #[test]
    fn cuckoo_hash_table_end_to_end() {
        let fw = FirmwareStore::with_builtins();
        let mut mem = GuestMem::new(26);
        let capacity = 16u64;
        let entries = 4u64;
        let (s1, s2) = (0xAAAA, 0xBBBB);
        let buckets = mem.alloc(capacity * entries * 16, 64).unwrap();

        let keys: Vec<Vec<u8>> = (0..24u64)
            .map(|i| format!("flow-{i:011}").into_bytes())
            .collect();
        // Insert: try primary bucket slots, then secondary (no displacement
        // needed at this load factor for the test to pass; assert insertion).
        for (i, k) in keys.iter().enumerate() {
            let h1 = hash_bytes(s1, k);
            let h2 = hash_bytes(s2, k);
            let sig = CuckooHashCfa::signature(h1);
            let kv = mem.alloc(8 + k.len() as u64, 8).unwrap();
            mem.write_u64(kv, 500 + i as u64).unwrap();
            mem.write(kv + 8, k).unwrap();
            let mut placed = false;
            for h in [h1, h2] {
                if placed {
                    break;
                }
                let b = h % capacity;
                for e in 0..entries {
                    let ea = buckets + (b * entries + e) * 16;
                    if mem.read_u64(ea).unwrap() == 0 {
                        mem.write_u64(ea, sig).unwrap();
                        mem.write_u64(ea + 8, kv.0).unwrap();
                        placed = true;
                        break;
                    }
                }
            }
            assert!(placed, "test table too full");
        }

        let header = Header {
            ds_ptr: buckets,
            dtype: DsType::HashTable,
            subtype: 1,
            key_len: 16,
            flags: 0,
            capacity,
            aux0: entries,
            aux1: s1,
            aux2: s2,
            epoch: 0,
        };
        let haddr = mem.alloc(HEADER_BYTES, 64).unwrap();
        header.write_to(&mut mem, haddr).unwrap();

        for (i, k) in keys.iter().enumerate() {
            let ka = put_key(&mut mem, k);
            assert_eq!(
                run_query(&fw, &mem, haddr, ka).unwrap(),
                500 + i as u64,
                "key {i}"
            );
        }
        let ka = put_key(&mut mem, b"flow-99999999999");
        assert_eq!(run_query(&fw, &mem, haddr, ka).unwrap(), RESULT_NOT_FOUND);
    }

    #[test]
    fn bst_end_to_end() {
        let fw = FirmwareStore::with_builtins();
        let mut mem = GuestMem::new(27);
        // Build a small BST by explicit insertion (big-endian inline keys).
        let mut root = 0u64;
        let keys = [50u64, 30, 70, 20, 40, 60, 80, 35, 45];
        for (i, &k) in keys.iter().enumerate() {
            let node = mem.alloc(32, 8).unwrap();
            mem.write(node, &k.to_be_bytes()).unwrap();
            mem.write_u64(node + 8, 1000 + i as u64).unwrap();
            if root == 0 {
                root = node.0;
            } else {
                let mut cur = root;
                loop {
                    let ck = u64::from_be_bytes(
                        mem.read_vec(VirtAddr(cur), 8).unwrap().try_into().unwrap(),
                    );
                    let branch = if k < ck { 16 } else { 24 };
                    let child = mem.read_u64(VirtAddr(cur + branch)).unwrap();
                    if child == 0 {
                        mem.write_u64(VirtAddr(cur + branch), node.0).unwrap();
                        break;
                    }
                    cur = child;
                }
            }
        }
        let header = Header {
            ds_ptr: VirtAddr(root),
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
        let haddr = mem.alloc(HEADER_BYTES, 64).unwrap();
        header.write_to(&mut mem, haddr).unwrap();

        for (i, &k) in keys.iter().enumerate() {
            let ka = put_key(&mut mem, &k.to_be_bytes());
            assert_eq!(run_query(&fw, &mem, haddr, ka).unwrap(), 1000 + i as u64);
        }
        let ka = put_key(&mut mem, &99u64.to_be_bytes());
        assert_eq!(run_query(&fw, &mem, haddr, ka).unwrap(), RESULT_NOT_FOUND);
    }

    #[test]
    fn unknown_firmware_faults() {
        let mut fw = FirmwareStore::with_builtins();
        let mut mem = GuestMem::new(28);
        let (haddr, _) = build_list(&mut mem);
        // Drop all programs by replacing the store.
        fw = {
            let mut empty = fw.clone();
            // Re-register under a different subtype so lookup(.,0) fails.
            let p = empty
                .lookup(DsType::LinkedList.to_byte(), 0)
                .unwrap()
                .clone();
            empty.register(DsType::LinkedList.to_byte(), 0, p);
            empty
        };
        // Write a header with an unknown subtype instead.
        let mut b = [0u8; 64];
        mem.read(haddr, &mut b).unwrap();
        b[9] = 42; // subtype with no program
        mem.write(haddr, &b).unwrap();
        let ka = put_key(&mut mem, b"aaaa");
        assert_eq!(run_query(&fw, &mem, haddr, ka), Err(FaultCode::UnknownType));
    }
}
