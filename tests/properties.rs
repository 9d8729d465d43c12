//! Property-style tests on the repo's central invariants, driven by the
//! workspace's own deterministic [`SimRng`] (the build environment is
//! offline, so no external property-testing framework).
//!
//! The load-bearing one: for any structure contents and any query key, the
//! QEI firmware (functional engine *and* every integration scheme's timing
//! walk) returns exactly what the software routine returns.

use qei::accel::firmware::btree::{BPlusTreeCfa, BTREE_TYPE};
use qei::accel::{bump_epoch, walk};
use qei::cache::MemoryHierarchy;
use qei::config::SimRng;
use qei::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
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
/// stages a few probe keys for each, plus one key none of them holds.
fn all_structures(mem: &mut GuestMem, rng: &mut SimRng, case: u64) -> Vec<Probed> {
    let mut out = Vec::new();
    let mut probe = |mem: &mut GuestMem, name, header, keys: Vec<Vec<u8>>, miss: &[u8]| {
        let mut keys: Vec<VirtAddr> = keys.iter().map(|k| stage_key(mem, k)).collect();
        keys.push(stage_key(mem, miss));
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
    let absent = key8(999);
    probe(
        mem,
        "linked list",
        list.header_addr(),
        probes.clone(),
        &absent,
    );
    probe(
        mem,
        "chained hash",
        chained.header_addr(),
        probes.clone(),
        &absent,
    );
    probe(
        mem,
        "skip list",
        skip.header_addr(),
        probes.clone(),
        &absent,
    );
    let ints: Vec<Vec<u8>> = (0..4)
        .map(|_| rng.below(3 * n + 3).to_be_bytes().to_vec())
        .collect();
    // Stored integer keys are 1 + 3i, so 0 is absent.
    probe(
        mem,
        "BST",
        bst.header_addr(),
        ints.clone(),
        &0u64.to_be_bytes(),
    );

    let mut cuckoo = CuckooHash::new(mem, 16, 4, 16, (case ^ 1, case ^ 2)).unwrap();
    for i in 0..n {
        let _ = cuckoo.insert(mem, format!("flow:{i:011}").as_bytes(), i + 1);
    }
    let flows = (0..4)
        .map(|_| format!("flow:{:011}", rng.below(60)).into_bytes())
        .collect();
    probe(
        mem,
        "cuckoo hash",
        cuckoo.header_addr(),
        flows,
        b"flow:99999999999",
    );

    let items: Vec<(u64, u64)> = (0..n).map(|i| (i * 3 + 1, i + 1)).collect();
    let btree = BPlusTree::build(mem, &items).unwrap();
    probe(
        mem,
        "B+-tree",
        btree.header_addr(),
        ints,
        &0u64.to_be_bytes(),
    );

    let dict = vec![b"he".to_vec(), b"she".to_vec(), b"hers".to_vec()];
    let trie = AcTrie::build(mem, &dict, 32).unwrap();
    let texts = (0..2)
        .map(|_| (0..32).map(|_| b"hers "[rng.below(5) as usize]).collect())
        .collect();
    probe(mem, "AC trie", trie.header_addr(), texts, &[b' '; 32]);

    let routes = vec![(vec![10], 1), (vec![10, 0], 2), (vec![192, 168, 1], 3)];
    let lpm = LpmTrie::build(mem, &routes).unwrap();
    let addrs = (0..4)
        .map(|_| {
            let [a, b] = [[10, 0], [192, 168], [172, 16]][rng.below(3) as usize];
            vec![a, b, 1, rng.below(256) as u8]
        })
        .collect();
    probe(mem, "LPM trie", lpm.header_addr(), addrs, &[172, 16, 1, 1]);
    out
}

/// The timed walk and the functional engine agree on every CFA: the same
/// result, and per query the same count of each micro-op kind (the timed
/// walk's memory ops add the header and key fetches). The same query issued
/// as a `QUERY_NB` stores a word that reads back as the functional result
/// through [`nb_word_matches`]: for hits, for misses (the `0 → 1` flag),
/// and for a header whose odd epoch marks a mutation in flight.
#[test]
fn timing_walk_matches_functional_engine_across_schemes() {
    let config = MachineConfig::skylake_sp_24();
    let mut fw = FirmwareStore::with_builtins();
    fw.register(BTREE_TYPE, 0, Arc::new(BPlusTreeCfa));
    // Per CFA: how many `QUERY_NB` words read back as hits and as misses.
    let mut delivered: BTreeMap<&str, (u32, u32)> = BTreeMap::new();
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x66 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let structures = all_structures(&mut mem, &mut rng, case);
        let slot = mem.alloc(8, 8).unwrap();
        for scheme in Scheme::ALL {
            let mut hier = MemoryHierarchy::new(&config);
            let mut accel = QeiAccelerator::new(&config, scheme, 0);
            accel
                .firmware_mut()
                .register(BTREE_TYPE, 0, Arc::new(BPlusTreeCfa));
            for (name, ha, keys) in &structures {
                let at = format!("case {case}, {name}, {scheme}");
                for &ka in keys {
                    let expected = walk(&fw, &mem, *ha, ka, &mut ());
                    let before = accel.stats();
                    let (_, result) = accel.query_b(Cycles(0), *ha, ka, &mut mem, &mut hier);
                    let s = accel.stats();
                    let c = expected.cost;
                    assert_eq!(result, expected.result, "{at}");
                    let Ok(value) = result else {
                        panic!("{at}: {result:?}");
                    };
                    assert_eq!(s.mem_ops - before.mem_ops, c.read_ops + 2, "{at}");
                    assert_eq!(s.compares - before.compares, c.compare_ops, "{at}");
                    assert_eq!(
                        s.compare_bytes - before.compare_bytes,
                        c.compare_bytes,
                        "{at}"
                    );
                    assert_eq!(s.hashes - before.hashes, c.hash_ops, "{at}");
                    assert_eq!(s.alu_ops - before.alu_ops, c.alu_ops, "{at}");

                    accel.query_nb(Cycles(0), *ha, ka, slot, &mut mem, &mut hier);
                    let word = mem.read_u64(slot).unwrap();
                    assert_eq!(nb_word_matches(word, value), Ok(true), "{at}: {word:#x}");
                    let tally = delivered.entry(name).or_default();
                    if value == RESULT_NOT_FOUND {
                        tally.1 += 1;
                    } else {
                        tally.0 += 1;
                    }
                }
                // An odd epoch: both engines refuse the walk.
                bump_epoch(&mut mem, *ha).unwrap();
                let stale = walk(&fw, &mem, *ha, keys[0], &mut ()).result;
                assert_eq!(stale, Err(FaultCode::StaleStructure), "{at}");
                accel.query_nb(Cycles(0), *ha, keys[0], slot, &mut mem, &mut hier);
                let word = mem.read_u64(slot).unwrap();
                assert_eq!(nb_word_matches(word, 0), stale.map(|_| true), "{at}");
                bump_epoch(&mut mem, *ha).unwrap();
            }
        }
    }
    assert_eq!(delivered.len(), 8);
    for (name, (hits, misses)) in delivered {
        assert!(
            hits > 0 && misses > 0,
            "{name}: {hits} hits, {misses} misses"
        );
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

/// The in-place guest accessors agree with reading a fresh copy:
/// `read_into` fills a reused buffer exactly as `read_vec` returns the
/// bytes, and `compare` / `bytes_equal` order the span exactly as
/// `read_vec` then `slice::cmp` / `==` do — the same `MemError` included.
/// Spans straddle frames, cover untouched (all-zero) frames, and hit an
/// unmapped first, middle or last page; queries are shorter than, as long
/// as, and longer than the span.
#[test]
fn in_place_reads_and_compares_match_read_vec() {
    use qei::mem::{MemError, PAGE_BYTES as P};
    use std::cmp::Ordering;
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xD1 * 1000 + case);
        let mut mem = GuestMem::new(case);
        // Pages a0 a1 a2 | gap | b0 b1: a1 and b1 are mapped but never
        // written, the gap page is unmapped.
        let a = mem.alloc(3 * P, 4 * P).unwrap();
        let b = mem.alloc(2 * P, 4 * P).unwrap();
        let gap = a + 3 * P;
        assert_eq!(b, gap + P, "one unmapped page between the regions");
        for (page, len) in [(a, P), (a + 2 * P, P / 2 + 7), (b, P)] {
            let data: Vec<u8> = (0..len).map(|_| rng.below(4) as u8).collect();
            mem.write(page, &data).unwrap();
        }
        let mut buf = Vec::new();
        let mut faults = [0u32; 3]; // first, middle, last page
        for _ in 0..400 {
            let va = a + rng.below(6 * P);
            let len = rng.below(2 * P + 64) as usize;
            let want = mem.read_vec(va, len);
            // The reused buffer holds more or fewer bytes than the span.
            buf.clear();
            buf.resize(rng.below(len as u64 + 100) as usize, 0xAA);
            match (mem.read_into(va, len, &mut buf), &want) {
                (Ok(()), Ok(bytes)) => assert_eq!(&buf, bytes, "case {case} {va}+{len}"),
                (got, want) => assert_eq!(got, want.clone().map(|_| ()), "case {case}"),
            }
            if let Err(MemError::Unmapped(at)) = want {
                let i = if at == va {
                    0
                } else if at.0 + P < va.0 + len as u64 {
                    1
                } else {
                    2
                };
                faults[i] += 1;
            }
            // A query that is the span's prefix, the span itself, or the
            // span with a tail, with one byte sometimes changed.
            let stored = want.clone().unwrap_or_else(|_| vec![0; len]);
            let mut query = match rng.below(3) {
                0 => stored[..rng.below(len as u64 + 1) as usize].to_vec(),
                1 => stored.clone(),
                _ => [
                    stored.clone(),
                    vec![rng.below(4) as u8; 1 + rng.below(9) as usize],
                ]
                .concat(),
            };
            if !query.is_empty() && rng.gen_bool(0.5) {
                let at = rng.below(query.len() as u64) as usize;
                query[at] = rng.below(4) as u8;
            }
            let order: Result<Ordering, MemError> = want
                .as_ref()
                .map(|v| v.as_slice().cmp(&query[..]))
                .map_err(|e| *e);
            assert_eq!(
                mem.compare(va, len, &query),
                order,
                "case {case} {va}+{len}"
            );
            let equal = mem.read_vec(va, query.len()).map(|v| v == query);
            assert_eq!(mem.bytes_equal(va, &query), equal, "case {case} {va}");
        }
        assert!(
            faults.iter().all(|&n| n > 0),
            "case {case}: faults {faults:?}"
        );
        // The order is decided at byte 0, yet the span runs into the gap:
        // the compare still faults where reading the span would.
        let first = mem.read_u8(gap - 8).unwrap();
        assert_eq!(
            mem.compare(gap - 8, 16, &[first ^ 0xFF; 16]),
            Err(MemError::Unmapped(gap))
        );
        assert_eq!(
            mem.bytes_equal(gap - 8, &[first ^ 0xFF; 16]),
            Err(MemError::Unmapped(gap))
        );
        // Zero-length spans read nothing, so they never fault, even at
        // null; a longer one at null does.
        let null = VirtAddr::NULL;
        buf.push(1);
        assert_eq!(mem.read_into(null, 0, &mut buf), Ok(()));
        assert!(buf.is_empty());
        assert_eq!(mem.compare(null, 0, b"q"), Ok(Ordering::Less));
        assert_eq!(mem.compare(gap, 0, b""), Ok(Ordering::Equal));
        assert_eq!(mem.read_into(null, 4, &mut buf), Err(MemError::NullDeref));
        assert_eq!(mem.compare(null, 4, b""), Err(MemError::NullDeref));
        assert_eq!(mem.bytes_equal(null, b"q"), Err(MemError::NullDeref));
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
