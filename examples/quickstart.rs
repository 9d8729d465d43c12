//! Quickstart: build a data structure in guest memory, query it through the
//! QEI accelerator, and compare the accelerated run against the software
//! baseline.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use qei::prelude::*;

fn main() {
    // 1. A simulated 24-core Skylake-SP-like machine (the paper's Table II)
    //    and a guest address space with deliberately fragmented paging.
    let mut sys = System::new(MachineConfig::skylake_sp_24(), 42);

    // 2. Build a chained hash table in guest memory. The structure carries a
    //    64-byte header (pointer, type, key length, hash seed…) that the
    //    accelerator parses before running the matching CFA.
    let mut table = ChainedHash::new(sys.guest_mut(), 1024, 16, 0xFEED).expect("guest alloc");
    for i in 0..5_000u64 {
        let key = format!("user-sess-{i:06}");
        table
            .insert(sys.guest_mut(), key.as_bytes(), 1_000 + i)
            .expect("guest alloc");
    }
    println!("built a chained hash table: {} entries", table.len());

    // 3. Functional query through the accelerator's CFA engine.
    let fw = FirmwareStore::with_builtins();
    let key = stage_key(sys.guest_mut(), b"user-sess-000033");
    let result = run_query(&fw, sys.guest(), table.header_addr(), key).expect("query");
    println!("QUERY user-sess-000033 -> {result}");
    assert_eq!(result, 1_033);

    let miss = stage_key(sys.guest_mut(), b"user-sess-zzzzzz");
    let result = run_query(&fw, sys.guest(), table.header_addr(), miss).expect("query");
    assert_eq!(result, RESULT_NOT_FOUND);
    println!("QUERY user-sess-zzzzzz -> not found");

    // 4. Timed query through the full co-simulation: submit a blocking
    //    QUERY_B to the accelerator under the Core-integrated scheme.
    let mut hierarchy = qei::cache::MemoryHierarchy::new(sys.config());
    let mut accel = QeiAccelerator::new(sys.config(), Scheme::CoreIntegrated, 0);
    let key2 = stage_key(sys.guest_mut(), b"user-sess-000777");
    let (completion, result) = accel.query_b(
        Cycles(0),
        table.header_addr(),
        key2,
        sys.guest_mut(),
        &mut hierarchy,
    );
    println!(
        "QUERY_B user-sess-000777 -> {:?} in {} (scheme: {})",
        result,
        completion,
        accel.scheme()
    );
    assert_eq!(result, Ok(1_777));

    // 5. The accelerator and the plain software walk always agree.
    let sw = table.query_software(sys.guest(), b"user-sess-000777");
    assert_eq!(result.expect("query succeeded"), sw);
    println!("software baseline agrees: {sw}");
}
