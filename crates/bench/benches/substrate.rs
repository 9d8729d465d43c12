//! Micro-benches of the substrate hot paths: guest memory, the query
//! engines, the core model, and end-to-end query submission. Results land
//! in `BENCH_substrate.json`; run with `-- --check <baseline>` to gate on
//! regressions.

use qei_bench::{checksum, dpdk_fixture, jvm_fixture, BenchSuite};
use qei_cache::MemoryHierarchy;
use qei_config::{Cycles, MachineConfig, Scheme};
use qei_core::{run_query, FirmwareStore, QeiAccelerator, QueryRequest, SubmitCtx};
use qei_cpu::{CoreModel, MemBus, Trace};
use qei_datastructs::{stage_key, ChainedHash, QueryDs};
use qei_mem::GuestMem;
use qei_sim::{ConfigOverrides, RunMode, SimSession};
use std::hint::black_box;
use std::sync::Arc;

fn bench_guest_memory(suite: &mut BenchSuite) {
    let mut mem = GuestMem::new(1);
    let buf = mem.alloc(1 << 20, 4096).unwrap();
    let mut i = 0u64;
    suite.bench("guest_read_u64", || {
        i = (i + 64) % (1 << 20);
        black_box(mem.read_u64(buf + i).unwrap())
    });
    let data = [7u8; 64];
    let mut j = 0u64;
    suite.bench("guest_write_line", || {
        j = (j + 64) % (1 << 20);
        mem.write(buf + j, &data).unwrap();
    });
}

fn bench_guest_fork_and_digest(suite: &mut BenchSuite) {
    let (sys, _) = dpdk_fixture();
    let image = sys.guest();
    suite.bench("guest_fork/dpdk", || black_box(image.clone()));
    // A warm digest, then one 64-byte line written before each digest.
    let mut mem = image.clone();
    let line = mem.alloc(64, 64).unwrap();
    black_box(mem.state_digest());
    let mut v = 0u64;
    suite.bench("guest_digest/one_dirty_frame", || {
        v += 1;
        mem.write(line, &[v as u8; 64]).unwrap();
        black_box(mem.state_digest())
    });
}

fn bench_functional_query(suite: &mut BenchSuite) {
    let mut mem = GuestMem::new(2);
    let mut table = ChainedHash::new(&mut mem, 1024, 16, 0xFEED).unwrap();
    for i in 0..10_000u64 {
        table
            .insert(&mut mem, format!("bench-key-{i:06}").as_bytes(), i + 1)
            .unwrap();
    }
    let fw = FirmwareStore::with_builtins();
    let keys: Vec<_> = (0..64u64)
        .map(|i| stage_key(&mut mem, format!("bench-key-{:06}", i * 37).as_bytes()))
        .collect();
    let mut i = 0;
    suite.bench("functional_hash_query", || {
        i = (i + 1) % keys.len();
        black_box(run_query(&fw, &mem, table.header_addr(), keys[i]).unwrap())
    });
    let key = format!("bench-key-{:06}", 703);
    suite.bench("software_hash_query", || {
        black_box(table.query_software(&mem, key.as_bytes()))
    });
}

fn bench_core_model(suite: &mut BenchSuite) {
    let config = MachineConfig::skylake_sp_24();
    let mut guest = GuestMem::new(3);
    let base = guest.alloc(1 << 20, 4096).unwrap();
    let mut trace = Trace::new();
    for i in 0..10_000u64 {
        let l = trace.load(base + (i * 192) % (1 << 20), None);
        trace.alu1(Some(l));
        trace.branch(1, i % 3 == 0, Some(l));
    }
    suite.bench_with_setup(
        "core_model_30k_uops",
        || {
            (
                CoreModel::new(&config, 0),
                MemBus::new(MemoryHierarchy::new(&config), guest.space()),
            )
        },
        |(mut core, mut bus)| black_box(core.run(&trace, &mut bus).cycles),
    );
}

fn bench_accel_submission(suite: &mut BenchSuite) {
    let config = MachineConfig::skylake_sp_24();
    let mut guest = GuestMem::new(4);
    let mut table = ChainedHash::new(&mut guest, 512, 8, 0xAB).unwrap();
    for i in 0..2_000u64 {
        table
            .insert(&mut guest, format!("k{i:07}").as_bytes(), i + 1)
            .unwrap();
    }
    let keys: Vec<_> = (0..64u64)
        .map(|i| stage_key(&mut guest, format!("k{:07}", i * 13).as_bytes()))
        .collect();
    for scheme in [Scheme::CoreIntegrated, Scheme::ChaTlb] {
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, scheme, 0);
        let mut i = 0;
        let mut now = Cycles(0);
        suite.bench(&format!("accel_submit/{}", scheme.label()), || {
            i = (i + 1) % keys.len();
            let (completion, result) = accel
                .submit(
                    QueryRequest::blocking(table.header_addr(), keys[i]),
                    SubmitCtx::new(now, &mut guest, &mut hier),
                )
                .completed()
                .unwrap();
            now = Cycles(completion.as_u64() % 1_000_000);
            black_box(result.unwrap())
        });
    }
}

fn bench_full_runs(suite: &mut BenchSuite) {
    // A one-shot session prices on the fixture's own image: no clone is
    // timed.
    suite.bench_with_setup("full_runs/dpdk_baseline", dpdk_fixture, |(sys, w)| {
        let session = SimSession::adopt(sys, Arc::new(w));
        let r = session.run_consuming(RunMode::Baseline, None, ConfigOverrides::none(), "bench");
        black_box(checksum(&r))
    });
    suite.bench_with_setup("full_runs/jvm_core_integrated", jvm_fixture, |(sys, w)| {
        let session = SimSession::adopt(sys, Arc::new(w));
        let scheme = Some(Scheme::CoreIntegrated);
        let r = session.run_consuming(
            RunMode::QeiBlocking,
            scheme,
            ConfigOverrides::none(),
            "bench",
        );
        black_box(checksum(&r))
    });
}

fn main() {
    let mut suite = BenchSuite::from_args("substrate");
    bench_guest_memory(&mut suite);
    bench_guest_fork_and_digest(&mut suite);
    bench_functional_query(&mut suite);
    bench_core_model(&mut suite);
    bench_accel_submission(&mut suite);
    bench_full_runs(&mut suite);
    suite.finish();
}
