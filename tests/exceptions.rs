//! Fault-injection tests: the exception and interrupt semantics of §IV-D,
//! exercised end-to-end through the timing model.

use qei::cache::MemoryHierarchy;
use qei::prelude::*;

fn machine() -> (MachineConfig, GuestMem, MemoryHierarchy) {
    let config = MachineConfig::skylake_sp_24();
    let guest = GuestMem::new(0xE0);
    let hier = MemoryHierarchy::new(&config);
    (config, guest, hier)
}

fn list_with_items(guest: &mut GuestMem, n: u64) -> LinkedList {
    let mut list = LinkedList::new(guest, 8).unwrap();
    for i in 0..n {
        list.insert(guest, format!("k{i:07}").as_bytes(), i + 1)
            .unwrap();
    }
    list
}

fn list_header(ds_ptr: VirtAddr) -> Header {
    Header {
        ds_ptr,
        dtype: DsType::LinkedList,
        subtype: 0,
        key_len: 8,
        flags: 0,
        capacity: 0,
        aux0: 0,
        aux1: 0,
        aux2: 0,
        epoch: 0,
    }
}

/// Blocking submit on a fresh accelerator and hierarchy; returns the
/// completion, the result, and the accelerator's TLB lookups.
fn submit_fresh(
    config: &MachineConfig,
    scheme: Scheme,
    ha: VirtAddr,
    ka: VirtAddr,
    guest: &mut GuestMem,
) -> (Cycles, Result<u64, FaultCode>, u64) {
    let mut hier = MemoryHierarchy::new(config);
    let mut accel = QeiAccelerator::new(config, scheme, 0);
    let (done, result) = accel.query_b(Cycles(0), ha, ka, guest, &mut hier);
    assert_eq!(accel.stats().faults, u64::from(result.is_err()));
    (done, result, accel.stats().tlb_lookups)
}

#[test]
fn unmapped_structure_pointer_raises_page_fault() {
    let (config, mut guest, _) = machine();
    let fw = FirmwareStore::with_builtins();
    let ka = stage_key(&mut guest, b"whatever");

    // Unmapped structure pointers, including ones whose 24-byte node read
    // runs off the top of the address space.
    for ds_ptr in [0xBAD0_0000, u64::MAX - 15, u64::MAX - 7, u64::MAX] {
        let ha = guest.alloc(64, 64).unwrap();
        list_header(VirtAddr(ds_ptr))
            .write_to(&mut guest, ha)
            .unwrap();
        assert_eq!(run_query(&fw, &guest, ha, ka), Err(FaultCode::PageFault));
        for scheme in Scheme::ALL {
            let (_, result, _) = submit_fresh(&config, scheme, ha, ka, &mut guest);
            assert_eq!(result, Err(FaultCode::PageFault), "{scheme}: {ds_ptr:#x}");
        }
    }

    // A mapped node whose key pointer wraps the address space: its compare
    // lies outside the staged node, so it is priced like any other
    // unmapped key pointer, not as a free compare on the staged line.
    let node = guest.alloc(24, 8).unwrap();
    guest.write_u64(node, 0).unwrap();
    guest.write_u64(node + 16, 1).unwrap();
    let ha = guest.alloc(64, 64).unwrap();
    list_header(node).write_to(&mut guest, ha).unwrap();
    for scheme in Scheme::ALL {
        let mut priced = Vec::new();
        for key_ptr in [0xDEAD_0000, u64::MAX - 3] {
            guest.write_u64(node + 8, key_ptr).unwrap();
            assert_eq!(run_query(&fw, &guest, ha, ka), Err(FaultCode::PageFault));
            let (done, result, lookups) = submit_fresh(&config, scheme, ha, ka, &mut guest);
            assert_eq!(result, Err(FaultCode::PageFault), "{scheme}: {key_ptr:#x}");
            priced.push((done, lookups));
        }
        assert_eq!(priced[0], priced[1], "{scheme}: wrapped key pointer");
    }
}

#[test]
fn corrupt_cyclic_structure_trips_the_watchdog() {
    let (config, mut guest, mut hier) = machine();
    // Two nodes pointing at each other, neither matching.
    let kb = stage_key(&mut guest, b"storedkk");
    let a = guest.alloc(24, 8).unwrap();
    let b = guest.alloc(24, 8).unwrap();
    guest.write_u64(a, b.0).unwrap();
    guest.write_u64(a + 8, kb.0).unwrap();
    guest.write_u64(a + 16, 1).unwrap();
    guest.write_u64(b, a.0).unwrap();
    guest.write_u64(b + 8, kb.0).unwrap();
    guest.write_u64(b + 16, 2).unwrap();
    let header = Header {
        ds_ptr: a,
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
    let ha = guest.alloc(64, 64).unwrap();
    header.write_to(&mut guest, ha).unwrap();
    let ka = stage_key(&mut guest, b"absent!!");

    let mut accel = QeiAccelerator::new(&config, Scheme::ChaTlb, 0);
    let (_, result) = accel.query_b(Cycles(0), ha, ka, &mut guest, &mut hier);
    assert_eq!(result, Err(FaultCode::StepLimit));
}

#[test]
fn malformed_headers_are_rejected_before_any_walk() {
    let (config, mut guest, mut hier) = machine();
    let list = list_with_items(&mut guest, 4);
    // Corrupt the key length in place.
    let mut bytes = [0u8; 64];
    guest.read(list.header_addr(), &mut bytes).unwrap();
    bytes[10] = 0;
    bytes[11] = 0;
    guest.write(list.header_addr(), &bytes).unwrap();
    let ka = stage_key(&mut guest, b"k0000001");

    let mut accel = QeiAccelerator::new(&config, Scheme::DeviceDirect, 0);
    let (_, result) = accel.query_b(Cycles(0), list.header_addr(), ka, &mut guest, &mut hier);
    assert_eq!(result, Err(FaultCode::MalformedHeader));
}

#[test]
fn interrupt_flush_aborts_nonblocking_queries_and_reissue_succeeds() {
    let (config, mut guest, mut hier) = machine();
    let list = list_with_items(&mut guest, 64);
    let results = guest.alloc(8 * 8, 64).unwrap();
    let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);

    // Issue non-blocking queries, then take an "interrupt" before any could
    // complete.
    let mut keys = Vec::new();
    for i in 0..8u64 {
        let ka = stage_key(&mut guest, format!("k{:07}", 63 - i).as_bytes());
        keys.push((ka, 64 - i));
        let slot = results + i * 8;
        accel.query_nb(
            Cycles(0),
            list.header_addr(),
            ka,
            slot,
            &mut guest,
            &mut hier,
        );
    }
    let flush_done = accel.flush(Cycles(1), &mut guest);
    assert!(
        flush_done > Cycles(1),
        "flush takes time to write abort codes"
    );
    assert_eq!(accel.stats().nb_aborts, 8);
    for i in 0..8u64 {
        let wire = guest.read_u64(results + i * 8).unwrap();
        assert_eq!(FaultCode::decode(wire), Some(FaultCode::Aborted));
    }

    // Software reissues after interrupt handling; everything completes.
    for (i, (ka, expect)) in keys.iter().enumerate() {
        let slot = results + i as u64 * 8;
        accel.query_nb(
            flush_done,
            list.header_addr(),
            *ka,
            slot,
            &mut guest,
            &mut hier,
        );
        let wire = guest.read_u64(slot).unwrap();
        assert_eq!(wire, *expect);
    }
}

#[test]
fn blocking_queries_after_flush_start_clean() {
    let (config, mut guest, mut hier) = machine();
    let list = list_with_items(&mut guest, 16);
    let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
    let ka = stage_key(&mut guest, b"k0000003");
    let (first_done, first) =
        accel.query_b(Cycles(0), list.header_addr(), ka, &mut guest, &mut hier);
    assert_eq!(first, Ok(4));
    let t = accel.flush(first_done, &mut guest);
    let (second_done, second) = accel.query_b(t, list.header_addr(), ka, &mut guest, &mut hier);
    assert_eq!(second, Ok(4));
    assert!(second_done > t);
}
