//! Property-style tests on the repo's central invariants, driven by the
//! workspace's own deterministic [`SimRng`] (the build environment is
//! offline, so no external property-testing framework).
//!
//! The load-bearing one: for any structure contents and any query key, the
//! QEI firmware (functional engine *and* every integration scheme's timing
//! walk) returns exactly what the software routine returns.

use qei::accel::firmware::btree::{BPlusTreeCfa, BTREE_TYPE};
use qei::accel::walk;
use qei::cache::MemoryHierarchy;
use qei::config::SimRng;
use qei::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Number of randomized cases per property (each case gets its own seed, so
/// any failure reproduces from the case index alone).
const CASES: u64 = 24;

fn key8(seed: u64) -> Vec<u8> {
    format!("k{seed:07}").into_bytes()
}

#[test]
fn linked_list_firmware_matches_software() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x11 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let mut list = LinkedList::new(&mut mem, 8).unwrap();
        let n = rng.range_inclusive(1, 39);
        for i in 0..n {
            let v = rng.range_inclusive(1, 1_000_000);
            list.insert(&mut mem, &key8(i), v).unwrap();
        }
        let fw = FirmwareStore::with_builtins();
        for _ in 0..rng.range_inclusive(1, 11) {
            let key = key8(rng.below(60));
            let ka = stage_key(&mut mem, &key);
            let sw = list.query_software(&mem, &key);
            let hw = run_query(&fw, &mem, list.header_addr(), ka).unwrap();
            assert_eq!(sw, hw, "case {case}");
        }
    }
}

#[test]
fn cuckoo_hash_firmware_matches_software() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x22 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let n = rng.range_inclusive(1, 199);
        let capacity = (n / 2).next_power_of_two().max(8);
        let mut table = CuckooHash::new(&mut mem, capacity, 8, 16, (case ^ 1, case ^ 2)).unwrap();
        let mut inserted = 0;
        for i in 0..n {
            let key = format!("flow:{i:011}");
            if table.insert(&mut mem, key.as_bytes(), i + 1).is_ok() {
                inserted += 1;
            }
        }
        assert!(inserted > 0, "case {case}");
        let fw = FirmwareStore::with_builtins();
        for _ in 0..rng.range_inclusive(1, 9) {
            let key = format!("flow:{:011}", rng.below(300));
            let ka = stage_key(&mut mem, key.as_bytes());
            let sw = table.query_software(&mem, key.as_bytes());
            let hw = run_query(&fw, &mem, table.header_addr(), ka).unwrap();
            assert_eq!(sw, hw, "case {case}");
        }
    }
}

#[test]
fn skip_list_firmware_matches_software() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x33 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let mut sl = SkipList::new(&mut mem, 8, 16, case).unwrap();
        let n = rng.range_inclusive(1, 149);
        for i in 0..n {
            let key = format!("memkey-{i:09}");
            sl.insert(&mut mem, key.as_bytes(), i + 1).unwrap();
        }
        let fw = FirmwareStore::with_builtins();
        for _ in 0..rng.range_inclusive(1, 9) {
            let key = format!("memkey-{:09}", rng.below(250));
            let ka = stage_key(&mut mem, key.as_bytes());
            let sw = sl.query_software(&mem, key.as_bytes());
            let hw = run_query(&fw, &mem, sl.header_addr(), ka).unwrap();
            assert_eq!(sw, hw, "case {case}");
        }
    }
}

#[test]
fn bst_firmware_matches_software() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x44 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let mut tree = Bst::new(&mut mem).unwrap();
        let mut uniq: Vec<u64> = (0..rng.range_inclusive(1, 119))
            .map(|_| rng.range_inclusive(1, 100_000))
            .collect();
        uniq.sort_unstable();
        uniq.dedup();
        for &k in &uniq {
            tree.insert(&mut mem, k, k + 7).unwrap();
        }
        let fw = FirmwareStore::with_builtins();
        for _ in 0..rng.range_inclusive(1, 11) {
            let p = rng.range_inclusive(1, 100_000);
            let ka = stage_key(&mut mem, &p.to_be_bytes());
            let sw = tree.query_software(&mem, &p.to_be_bytes());
            let hw = run_query(&fw, &mem, tree.header_addr(), ka).unwrap();
            assert_eq!(sw, hw, "case {case}");
        }
    }
}

#[test]
fn trie_firmware_matches_software_and_host_oracle() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x55 * 1000 + case);
        let mut mem = GuestMem::new(case);
        // Random words over a tiny alphabet so matches actually occur.
        let mut dict: Vec<Vec<u8>> = (0..rng.range_inclusive(1, 24))
            .map(|_| {
                (0..rng.range_inclusive(1, 6))
                    .map(|_| b'a' + rng.below(4) as u8)
                    .collect()
            })
            .collect();
        dict.sort();
        dict.dedup();
        let mut padded: Vec<u8> = (0..rng.range_inclusive(1, 120))
            .map(|_| match rng.below(5) {
                4 => b' ',
                c => b'a' + c as u8,
            })
            .collect();
        padded.resize(128, b'.');
        let trie = AcTrie::build(&mut mem, &dict, 128).unwrap();
        let ka = stage_key(&mut mem, &padded);
        let fw = FirmwareStore::with_builtins();
        let host = trie.count_matches_host(&padded);
        let sw = trie.query_software(&mem, &padded);
        let hw = run_query(&fw, &mem, trie.header_addr(), ka).unwrap();
        assert_eq!(host, sw, "case {case}");
        assert_eq!(sw, hw, "case {case}");
    }
}

/// A structure under test: its name, header, and staged probe keys.
type Probed = (&'static str, VirtAddr, Vec<VirtAddr>);

/// Builds one of each of the eight structures the shipped CFAs walk and
/// stages a few probe keys for each.
fn all_structures(mem: &mut GuestMem, rng: &mut SimRng, case: u64) -> Vec<Probed> {
    let mut out = Vec::new();
    let mut probe = |mem: &mut GuestMem, name, header, keys: Vec<Vec<u8>>| {
        let keys = keys.iter().map(|k| stage_key(mem, k)).collect();
        out.push((name, header, keys));
    };
    let n = rng.range_inclusive(1, 39);
    let probes: Vec<Vec<u8>> = (0..rng.range_inclusive(1, 5))
        .map(|_| key8(rng.below(60)))
        .collect();

    let mut list = LinkedList::new(mem, 8).unwrap();
    let mut chained = ChainedHash::new(mem, 16, 8, case ^ 0xC0FFEE).unwrap();
    let mut skip = SkipList::new(mem, 8, 8, case).unwrap();
    let mut bst = Bst::new(mem).unwrap();
    for i in 0..n {
        list.insert(mem, &key8(i), i + 1).unwrap();
        chained.insert(mem, &key8(i), i + 1).unwrap();
        skip.insert(mem, &key8(i), i + 1).unwrap();
        bst.insert(mem, i * 3 + 1, i + 1).unwrap();
    }
    probe(mem, "linked list", list.header_addr(), probes.clone());
    probe(mem, "chained hash", chained.header_addr(), probes.clone());
    probe(mem, "skip list", skip.header_addr(), probes.clone());
    let ints: Vec<Vec<u8>> = (0..4)
        .map(|_| rng.below(3 * n + 3).to_be_bytes().to_vec())
        .collect();
    probe(mem, "BST", bst.header_addr(), ints.clone());

    let mut cuckoo = CuckooHash::new(mem, 16, 4, 16, (case ^ 1, case ^ 2)).unwrap();
    for i in 0..n {
        let _ = cuckoo.insert(mem, format!("flow:{i:011}").as_bytes(), i + 1);
    }
    let flows = (0..4)
        .map(|_| format!("flow:{:011}", rng.below(60)).into_bytes())
        .collect();
    probe(mem, "cuckoo hash", cuckoo.header_addr(), flows);

    let items: Vec<(u64, u64)> = (0..n).map(|i| (i * 3 + 1, i + 1)).collect();
    let btree = BPlusTree::build(mem, &items).unwrap();
    probe(mem, "B+-tree", btree.header_addr(), ints);

    let dict = vec![b"he".to_vec(), b"she".to_vec(), b"hers".to_vec()];
    let trie = AcTrie::build(mem, &dict, 32).unwrap();
    let texts = (0..2)
        .map(|_| (0..32).map(|_| b"hers "[rng.below(5) as usize]).collect())
        .collect();
    probe(mem, "AC trie", trie.header_addr(), texts);

    let routes = vec![(vec![10], 1), (vec![10, 0], 2), (vec![192, 168, 1], 3)];
    let lpm = LpmTrie::build(mem, &routes).unwrap();
    let addrs = (0..4)
        .map(|_| {
            let [a, b] = [[10, 0], [192, 168], [172, 16]][rng.below(3) as usize];
            vec![a, b, 1, rng.below(256) as u8]
        })
        .collect();
    probe(mem, "LPM trie", lpm.header_addr(), addrs);
    out
}

/// The timed walk and the functional engine agree on every CFA: the same
/// result, and per query the same count of each micro-op kind (the timed
/// walk's memory ops add the header and key fetches).
#[test]
fn timing_walk_matches_functional_engine_across_schemes() {
    let config = MachineConfig::skylake_sp_24();
    let mut fw = FirmwareStore::with_builtins();
    fw.register(BTREE_TYPE, 0, Arc::new(BPlusTreeCfa));
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x66 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let structures = all_structures(&mut mem, &mut rng, case);
        for scheme in Scheme::ALL {
            let mut hier = MemoryHierarchy::new(&config);
            let mut accel = QeiAccelerator::new(&config, scheme, 0);
            accel
                .firmware_mut()
                .register(BTREE_TYPE, 0, Arc::new(BPlusTreeCfa));
            for (name, ha, keys) in &structures {
                for &ka in keys {
                    let expected = walk(&fw, &mem, *ha, ka, &mut ());
                    let before = accel.stats();
                    let (_, result) = accel
                        .submit(
                            QueryRequest::blocking(*ha, ka),
                            SubmitCtx::new(Cycles(0), &mut mem, &mut hier),
                        )
                        .completed()
                        .unwrap();
                    let s = accel.stats();
                    let c = expected.cost;
                    let at = format!("case {case}, {name}, {scheme}");
                    assert_eq!(result, expected.result, "{at}");
                    assert!(result.is_ok(), "{at}: {result:?}");
                    assert_eq!(s.mem_ops - before.mem_ops, c.read_ops + 2, "{at}");
                    assert_eq!(s.compares - before.compares, c.compare_ops, "{at}");
                    assert_eq!(
                        s.compare_bytes - before.compare_bytes,
                        c.compare_bytes,
                        "{at}"
                    );
                    assert_eq!(s.hashes - before.hashes, c.hash_ops, "{at}");
                    assert_eq!(s.alu_ops - before.alu_ops, c.alu_ops, "{at}");
                }
            }
        }
    }
}

#[test]
fn lpm_trie_matches_host_oracle() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x77 * 1000 + case);
        let mut mem = GuestMem::new(case);
        // Random prefixes, deduped (duplicate routes panic by contract).
        let mut seen = std::collections::HashSet::new();
        let routes: Vec<(Vec<u8>, u64)> = (0..rng.range_inclusive(1, 29))
            .map(|_| {
                let prefix: Vec<u8> = (0..rng.range_inclusive(1, 4))
                    .map(|_| rng.below(256) as u8)
                    .collect();
                (prefix, rng.range_inclusive(1, 999))
            })
            .filter(|(p, _)| seen.insert(p.clone()))
            .collect();
        let trie = LpmTrie::build(&mut mem, &routes).unwrap();
        let fw = FirmwareStore::with_builtins();
        for _ in 0..rng.range_inclusive(1, 15) {
            let addr = [
                rng.below(256) as u8,
                rng.below(256) as u8,
                rng.below(256) as u8,
                rng.below(256) as u8,
            ];
            let host = trie.lookup_host(&addr);
            let sw = trie.query_software(&mem, &addr);
            let ka = stage_key(&mut mem, &addr);
            let hw = run_query(&fw, &mem, trie.header_addr(), ka).unwrap();
            assert_eq!(host, sw, "case {case}");
            assert_eq!(sw, hw, "case {case}");
        }
    }
}

#[test]
fn header_wire_round_trip() {
    for case in 0..200u64 {
        let mut rng = SimRng::seed_from_u64(0x88 * 1000 + case);
        let dtype_byte = rng.range_inclusive(1, 5) as u8;
        let dtype = DsType::from_byte(dtype_byte).unwrap();
        let key_len = rng.range_inclusive(1, 255) as u16;
        let header = Header {
            ds_ptr: VirtAddr(rng.range_inclusive(1, u64::MAX / 2)),
            dtype,
            subtype: rng.below(2) as u8,
            key_len: if dtype == DsType::Bst { 8 } else { key_len },
            flags: 0,
            capacity: rng.range_inclusive(1, 1_000_000),
            aux0: rng.range_inclusive(1, 7),
            aux1: rng.next_u64(),
            aux2: rng.next_u64(),
            epoch: 0,
        };
        if header.validate().is_ok() {
            let rt = Header::from_bytes(&header.to_bytes()).unwrap();
            assert_eq!(rt, header, "case {case}");
        }
    }
}

#[test]
fn guest_memory_read_write_round_trip() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x99 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let data: Vec<u8> = (0..rng.range_inclusive(1, 1_999))
            .map(|_| rng.below(256) as u8)
            .collect();
        let offset = rng.below(5_000);
        let base = mem.alloc(8_192, 8).unwrap();
        mem.write(base + offset, &data).unwrap();
        let got = mem.read_vec(base + offset, data.len()).unwrap();
        assert_eq!(got, data, "case {case}");
    }
}

/// Copy-on-write images digest by content alone. Random writes land across
/// a pool of forked images, with digests taken mid-history so frame hashes
/// get cached and then invalidated; at every check, an image digests like a
/// fresh image that holds the same bytes, copied page by page in shuffled
/// order. A stale cached hash shows up as a mismatch.
#[test]
fn forked_images_digest_like_fresh_copies() {
    const PAGES: u64 = 24;
    let page = qei::mem::PAGE_BYTES;
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xC0 * 1000 + case);
        let blank = || {
            let mut mem = GuestMem::new(case);
            let base = mem.alloc(PAGES * page, page).unwrap();
            (mem, base)
        };
        let (root, base) = blank();
        // Each image with the pages written in its history (a clone
        // inherits its source's).
        let mut pool = vec![(root, BTreeSet::new())];
        let check = |mem: &GuestMem, pages: &BTreeSet<u64>, rng: &mut SimRng| {
            let (mut copy, _) = blank();
            let mut order: Vec<u64> = pages.iter().copied().collect();
            rng.shuffle(&mut order);
            for p in order {
                let bytes = mem.read_vec(base + p * page, page as usize).unwrap();
                copy.write(base + p * page, &bytes).unwrap();
            }
            assert_eq!(mem.state_digest(), copy.state_digest(), "case {case}");
        };
        for _ in 0..80 {
            let i = rng.below(pool.len() as u64) as usize;
            match rng.below(8) {
                0 if pool.len() < 6 => pool.push(pool[i].clone()),
                1 | 2 => check(&pool[i].0, &pool[i].1, &mut rng),
                _ => {
                    let len = rng.range_inclusive(1, 300);
                    let off = rng.below(PAGES * page - len);
                    let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                    pool[i].0.write(base + off, &data).unwrap();
                    pool[i].1.extend(off / page..=(off + len - 1) / page);
                }
            }
        }
        for (mem, pages) in &pool {
            check(mem, pages, &mut rng);
        }
    }
}
