//! Cross-crate integration tests: the full system driven through the facade.

use qei::prelude::*;
use std::sync::Arc;

fn dpdk(flows: u64, queries: usize, guest_seed: u64, build_seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        guest_seed,
        build_seed,
        WorkloadKind::DpdkFib { flows, queries },
    )
}

fn jvm(objects: u64, queries: usize, guest_seed: u64, build_seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        guest_seed,
        build_seed,
        WorkloadKind::JvmGc { objects, queries },
    )
}

#[test]
fn full_pipeline_baseline_and_all_schemes_agree() {
    let engine = Engine::paper();
    let spec = dpdk(1_000, 120, 1, 9);
    let base = engine.run(&RunPlan::baseline(spec));
    assert!(base.correct);
    for scheme in Scheme::ALL {
        // The engine panics internally on any functional mismatch, so a
        // clean return *is* the agreement check.
        let r = engine.run(&RunPlan::qei(spec, scheme));
        assert!(r.correct, "{scheme}");
        assert!(r.cycles > 0);
        assert_eq!(r.queries, 120);
        let accel = r.accel.expect("QEI run records accelerator stats");
        assert_eq!(accel.queries, 120);
        assert_eq!(accel.faults, 0);
    }
}

#[test]
fn nonblocking_agrees_with_blocking_results() {
    let engine = Engine::paper();
    let spec = dpdk(500, 96, 2, 10);
    let b = engine.run(&RunPlan::qei(spec, Scheme::ChaTlb));
    let nb = engine.run(&RunPlan::qei_nonblocking(spec, Scheme::ChaTlb, 32));
    assert!(b.correct && nb.correct);
    // Both executed the same stream; the accelerator stats agree on work.
    let (ab, anb) = (b.accel.unwrap(), nb.accel.unwrap());
    assert_eq!(ab.queries, anb.queries);
    assert_eq!(ab.hashes, anb.hashes);
}

#[test]
fn dense_tree_queries_show_the_headline_speedup() {
    let engine = Engine::paper();
    let spec = jvm(60_000, 400, 3, 11);
    let base = engine.run(&RunPlan::baseline(spec));
    let qei = engine.run(&RunPlan::qei(spec, Scheme::ChaTlb));
    let speedup = base.cycles as f64 / qei.cycles as f64;
    assert!(speedup > 3.0, "speedup {speedup:.2}");
}

#[test]
fn device_scheme_trails_integrated_schemes() {
    let engine = Engine::paper();
    let spec = dpdk(1_000, 150, 4, 12);
    let core = engine
        .run(&RunPlan::qei(spec, Scheme::CoreIntegrated))
        .cycles;
    let dev = engine
        .run(&RunPlan::qei(spec, Scheme::DeviceIndirect))
        .cycles;
    assert!(
        dev > 2 * core,
        "device-indirect {dev} should clearly trail core-integrated {core}"
    );
}

#[test]
fn qst_occupancy_reflects_query_density() {
    // JVM: dense queries, tiny surrounding work -> busy QST.
    let spec = jvm(30_000, 300, 5, 13);
    let r = Engine::paper().run(&RunPlan::qei(spec, Scheme::CoreIntegrated));
    assert!(
        r.qst_occupancy > 0.3,
        "dense stream should keep the QST busy, got {:.2}",
        r.qst_occupancy
    );
}

#[test]
fn reports_expose_reusable_metrics() {
    let engine = Engine::paper();
    let spec = dpdk(500, 80, 6, 14);
    let base = engine.run(&RunPlan::baseline(spec));
    assert!(base.cycles_per_query() > 1.0);
    assert!(base.uops_per_query() > 30.0);
    assert!(base.end_to_end_cycles(4) > base.cycles as f64);
    let qei = engine.run(&RunPlan::qei(spec, Scheme::CoreIntegrated));
    assert!(qei.uops_per_query() < base.uops_per_query());
}

#[test]
fn stats_registry_carries_uniform_tree() {
    let engine = Engine::paper();
    let spec = dpdk(500, 80, 6, 14);
    let base = engine.run(&RunPlan::baseline(spec));
    // Baseline reports core + mem + run groups, no accelerator groups.
    assert!(base.stats.get("core", "cycles").is_some());
    assert!(base.stats.get("mem", "llc_accesses").is_some());
    assert!(base.stats.get("run", "mode").is_some());
    assert!(base.stats.get("accel", "queries").is_none());

    let qei = engine.run(&RunPlan::qei(spec, Scheme::ChaTlb));
    for (group, name) in [
        ("run", "workload"),
        ("run", "scheme"),
        ("core", "cycles"),
        ("mem", "l1_accesses"),
        ("accel", "queries"),
        ("noc", "bytes"),
    ] {
        assert!(
            qei.stats.get(group, name).is_some(),
            "missing {group}.{name}"
        );
    }
    let json = qei.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"accel\"") && json.contains("\"scheme\":\"CHA-TLB\""));
}

#[test]
fn serial_and_parallel_engines_produce_identical_reports() {
    // The same plan list through a single-threaded engine and a parallel one
    // must yield byte-identical JSON reports, in plan order — the determinism
    // contract that makes sweep parallelism safe.
    let specs = [dpdk(400, 60, 3, 11), jvm(8_000, 90, 4, 12)];
    let mut plans = Vec::new();
    for &spec in &specs {
        plans.push(RunPlan::baseline(spec));
        for scheme in Scheme::ALL {
            plans.push(RunPlan::qei(spec, scheme));
        }
        plans.push(RunPlan::qei_nonblocking(spec, Scheme::ChaTlb, 16));
        // Served plans ride the same contract: software-calibrated backend,
        // blocking QEI, and polled non-blocking QEI.
        let load = LoadSpec {
            tenants: 2,
            mean_interarrival: 500,
            arrivals_per_tenant: 24,
            ..LoadSpec::default()
        };
        plans.push(RunPlan::served(spec, None, load));
        plans.push(RunPlan::served(spec, Some(Scheme::CoreIntegrated), load));
        plans.push(RunPlan::served(
            spec,
            Some(Scheme::ChaTlb),
            LoadSpec {
                blocking: false,
                ..load
            },
        ));
    }
    let serial = Engine::paper().with_threads(1).run_all(&plans);
    let parallel = Engine::paper().with_threads(4).run_all(&plans);
    assert_eq!(serial.len(), plans.len());
    assert_eq!(parallel.len(), plans.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.workload, p.workload, "plan {i} order drifted");
        assert_eq!(s.to_json(), p.to_json(), "plan {i} diverged");
    }
}

#[test]
fn multi_core_served_reports_are_identical_across_schedules_and_repeats() {
    // The multi-core determinism matrix: for chips of 2 and 4 lanes, a
    // serial engine (plans and each chip's lanes all stepped on the test's
    // thread), a 4-worker engine (lanes stepped on up to 4 workers), and a
    // repeat of the parallel run must produce byte-identical reports. Lane
    // stepping shares the LLC and NoC only through the deterministic
    // two-pass arbiter, so the host schedule must never show through.
    let spec = dpdk(400, 60, 3, 11);
    for cores in [2u32, 4] {
        let load = LoadSpec {
            tenants: 4 * cores,
            mean_interarrival: 300,
            arrivals_per_tenant: 24,
            cores,
            ..LoadSpec::default()
        };
        let plans = [
            RunPlan::served(spec, Some(Scheme::CoreIntegrated), load),
            RunPlan::served(
                spec,
                Some(Scheme::ChaTlb),
                LoadSpec {
                    blocking: false,
                    ..load
                },
            ),
            RunPlan::served(spec, None, load),
        ];
        let serial = Engine::paper().with_threads(1).run_all(&plans);
        let parallel = Engine::paper().with_threads(4).run_all(&plans);
        let repeat = Engine::paper().with_threads(4).run_all(&plans);
        for (i, ((s, p), r)) in serial.iter().zip(&parallel).zip(&repeat).enumerate() {
            assert_eq!(
                s.to_json(),
                p.to_json(),
                "cores={cores} plan {i}: serial vs parallel diverged"
            );
            assert_eq!(
                p.to_json(),
                r.to_json(),
                "cores={cores} plan {i}: parallel repeat diverged"
            );
        }
    }
}

#[test]
fn single_core_load_tag_and_report_shape_are_unchanged() {
    // cores = 1 must keep the pre-chip report shape: no run.cores key, no
    // per-lane subtrees, and the same load tag as before the chip existed.
    let spec = dpdk(400, 60, 3, 11);
    let load = LoadSpec {
        tenants: 2,
        mean_interarrival: 500,
        arrivals_per_tenant: 24,
        ..LoadSpec::default()
    };
    assert!(
        !load.tag().contains('c'),
        "tag {} grew a core fragment",
        load.tag()
    );
    let r = Engine::paper().run(&RunPlan::served(spec, Some(Scheme::CoreIntegrated), load));
    assert!(r.stats.get("run", "cores").is_none());
    assert!(r.stats.get("serve_c0", "offered").is_none());
    assert!(r.stats.get("serve", "contention_cycles").is_none());
}

#[test]
fn multi_core_chip_scales_served_throughput() {
    // A 4-lane chip sustains clearly more aggregate completions per cycle
    // than one lane at a saturating rate — the scale-out headline.
    let spec = dpdk(400, 60, 3, 11);
    let load_for = |cores: u32| LoadSpec {
        tenants: 4 * cores,
        mean_interarrival: 150,
        arrivals_per_tenant: 24,
        queue_depth: 32,
        cores,
        ..LoadSpec::default()
    };
    let engine = Engine::paper();
    let one = engine.run(&RunPlan::served(
        spec,
        Some(Scheme::CoreIntegrated),
        load_for(1),
    ));
    let four = engine.run(&RunPlan::served(
        spec,
        Some(Scheme::CoreIntegrated),
        load_for(4),
    ));
    let qpmc = |r: &RunReport| r.stats.count("serve", "throughput_qpmc");
    assert!(
        qpmc(&four) > 2 * qpmc(&one),
        "4 lanes {} q/Mc should far out-serve 1 lane {} q/Mc",
        qpmc(&four),
        qpmc(&one)
    );
    // Per-lane subtrees cover every lane and sum to the aggregate.
    let offered: u64 = (0..4)
        .map(|i| four.stats.count(&format!("serve_c{i}"), "offered"))
        .sum();
    assert_eq!(offered, four.stats.count("serve", "offered"));
}

#[test]
fn served_reports_are_stable_across_engines_and_repeats() {
    // A served run's report is a pure function of (spec, load, scheme):
    // repeated invocations and fresh engines agree byte-for-byte, and the
    // serve group carries the admission accounting.
    let spec = dpdk(400, 60, 3, 11);
    let load = LoadSpec {
        tenants: 3,
        mean_interarrival: 200,
        arrivals_per_tenant: 30,
        queue_depth: 8,
        ..LoadSpec::default()
    };
    let plan = RunPlan::served(spec, Some(Scheme::CoreIntegrated), load);
    let a = Engine::paper().run(&plan);
    let b = Engine::paper().run(&plan);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.stats.count("serve", "offered"), 90);
    assert_eq!(
        a.stats.count("serve", "completed")
            + a.stats.count("serve", "drops")
            + a.stats.count("serve", "timeouts"),
        90
    );
    // Fault and reject accounting stay distinct registry keys.
    assert!(a.stats.get("serve", "faults").is_some());
    assert!(a.stats.get("serve", "rejects").is_some());
}

/// FNV-1a over `bytes`: how a report is pinned across commits.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn served_report_bytes_are_pinned_across_commits() {
    // The determinism tests above compare runs within one build, so a lane
    // that dropped or double-served a tenant's stream would still pass
    // them. These digests were recorded from the reports as they stood
    // before any change to how lanes obtain their arrivals; a change that
    // means to alter served behaviour must update them and say why.
    // Plan order: cores {1, 2, 4} × write_pct {0, 30} × {Core-integrated
    // QUERY_B, CHA-TLB QUERY_NB, software}.
    const PINNED: [u64; 18] = [
        0x79f9_5286_a646_707e,
        0x1bfa_206e_cd22_4bd4,
        0xbdf8_87f0_4f37_6415,
        0x814f_5b53_6c25_4fb5,
        0x2c1e_d218_61d4_fda5,
        0x0a06_db89_130d_8bfc,
        0x1430_16b9_85be_c216,
        0x5a78_c449_c22a_de0f,
        0x9cb2_bfbe_0292_1097,
        0x918b_6b3f_a964_2f78,
        0x17cd_ccee_af12_01dd,
        0xef4b_93ec_6067_10ed,
        0x8929_87a3_5d2c_ddf4,
        0xf4ae_d08b_696b_7ae9,
        0x9493_5e07_79be_9865,
        0xaffc_e060_178d_e9fa,
        0xa49d_0309_76ef_5889,
        0x017c_8620_6952_ba43,
    ];
    let spec = dpdk(400, 60, 3, 11);
    let mut plans = Vec::new();
    for cores in [1u32, 2, 4] {
        for write_pct in [0u32, 30] {
            let load = LoadSpec {
                tenants: 8,
                mean_interarrival: 300,
                arrivals_per_tenant: 24,
                queue_depth: 8,
                cores,
                ..LoadSpec::default()
            }
            .with_write_pct(write_pct);
            plans.push(RunPlan::served(spec, Some(Scheme::CoreIntegrated), load));
            plans.push(RunPlan::served(
                spec,
                Some(Scheme::ChaTlb),
                load.with_blocking(false),
            ));
            plans.push(RunPlan::served(spec, None, load));
        }
    }
    let digests: Vec<u64> = Engine::paper()
        .run_all(&plans)
        .iter()
        .map(|r| fnv1a(r.to_json().as_bytes()))
        .collect();
    let table: String = digests.iter().map(|d| format!("0x{d:016x},\n")).collect();
    assert_eq!(digests, PINNED, "served report digests moved:\n{table}");
}

#[test]
fn batch_report_bytes_are_pinned_across_commits() {
    // The batch counterpart of the served pin above: every workload kind
    // under every batch mode, priced by Engine::run_all, by a warm
    // session's run_plan, and by a session adopting a hand-built system.
    // The digests were recorded before the run path was folded into
    // SimSession; a change that means to alter batch reports must update
    // them and say why. Plan order, per workload (DPDK, tuple space, JVM,
    // RocksDB, Snort, FLANN): baseline, QUERY_B under each scheme in
    // Scheme::ALL, CHA-TLB QUERY_NB polled every 8 keys, Core-integrated
    // local compare, and Device-direct QUERY_B with a 900-cycle device and
    // 4 QST entries.
    const PINNED: [u64; 54] = [
        0x7d81_5493_72f4_85e1,
        0x7702_ae43_be2b_6883,
        0x9ddf_ef74_e7f1_7dc1,
        0x715c_0a66_0fc7_b73a,
        0xa3f5_0443_1b47_b319,
        0x9681_c769_7733_f3a1,
        0xce0c_7b55_408c_2fee,
        0x7307_c96a_e32f_4af4,
        0xdb68_53a7_21bf_b65b,
        0x8608_1930_e9a4_44d3,
        0x0f15_6983_2cd8_dab7,
        0x85e6_46da_3f24_6038,
        0x9833_d546_c6d3_bbee,
        0x0b01_6652_c6b4_7172,
        0x6ac6_9f7a_19d2_d367,
        0x0ae7_e3c7_49d3_039a,
        0xb0c9_ff9e_54f2_2184,
        0x13d3_0097_2271_850d,
        0xd5ba_52c9_404e_0398,
        0x0b26_2321_5115_8a6a,
        0xa0be_ed68_ae27_304f,
        0xbe3b_0ec1_8232_e6a0,
        0xc009_f454_ac82_e9fa,
        0x039f_0cbd_c62c_8c22,
        0x99aa_f3c0_8239_78e0,
        0x6da1_0109_7db0_cd5c,
        0x9610_447a_1f7b_8cb1,
        0x7af4_2970_999f_7307,
        0xf3f9_f62f_c7f7_2c83,
        0x8de0_4a2b_cc3d_dfa7,
        0x9459_9961_6c0a_bbd6,
        0xbf99_d9dd_f472_65ed,
        0xa17f_7ae8_8419_4c6d,
        0xd1a9_6216_039b_0185,
        0xdf4c_b0bb_11b1_c71e,
        0x0cec_8016_5ff3_5a23,
        0xfc69_c1c8_0746_4c82,
        0x56ac_d8fc_ca5b_579b,
        0xc724_dc95_c9fd_2c57,
        0x09c7_cce8_da1e_1888,
        0xe208_a0a4_ce22_42cd,
        0x3be2_c43a_a5b0_7e38,
        0x81cf_6a10_4121_a865,
        0xea76_549d_1c64_dcea,
        0xf150_b669_9571_35fc,
        0x7a24_b829_3313_f19c,
        0x0cd1_a6af_74c2_1343,
        0xf13c_612d_d5ef_a37f,
        0xef68_3ea7_da32_105d,
        0x5152_d377_5566_2d5c,
        0x82cb_c272_7102_4656,
        0x1610_772a_5ad4_94e6,
        0x2382_4ff8_77a6_a116,
        0x3334_113a_f5fb_f63f,
    ];
    let specs = [
        dpdk(400, 40, 3, 11),
        WorkloadSpec::new(
            5,
            6,
            WorkloadKind::TupleSpace {
                tuples: 3,
                flows_per_table: 200,
                packets: 16,
            },
        ),
        jvm(2_000, 40, 4, 12),
        WorkloadSpec::new(
            6,
            7,
            WorkloadKind::RocksDbMem {
                items: 300,
                queries: 30,
            },
        ),
        WorkloadSpec::new(
            7,
            8,
            WorkloadKind::SnortAc {
                keywords: 60,
                scans: 4,
                text_len: 256,
            },
        ),
        WorkloadSpec::new(
            8,
            9,
            WorkloadKind::FlannLsh {
                tables: 4,
                items: 300,
                searches: 16,
            },
        ),
    ];
    let overrides = ConfigOverrides {
        device_data_latency: Some(900),
        qst_entries: Some(4),
        ..ConfigOverrides::none()
    };
    let mut plans = Vec::new();
    for &spec in &specs {
        plans.push(RunPlan::baseline(spec));
        plans.extend(Scheme::ALL.map(|scheme| RunPlan::qei(spec, scheme)));
        plans.push(RunPlan::qei_nonblocking(spec, Scheme::ChaTlb, 8));
        plans.push(RunPlan::local_compare(spec, Scheme::CoreIntegrated));
        plans.push(RunPlan::qei(spec, Scheme::DeviceDirect).with_overrides(overrides));
    }
    let digest = |r: &RunReport| fnv1a(r.to_json().as_bytes());
    let engine = Engine::paper();
    let batch: Vec<u64> = engine.run_all(&plans).iter().map(digest).collect();
    let table: String = batch.iter().map(|d| format!("0x{d:016x},\n")).collect();
    assert_eq!(batch, PINNED, "batch report digests moved:\n{table}");
    // A warm session and an adopted hand-built system price the same bytes.
    let config = engine.config();
    for &spec in &specs {
        let session = SimSession::build(config.clone(), spec);
        let (sys, workload) = spec.build(config);
        let adopted = SimSession::adopt(sys, Arc::from(workload));
        for (i, plan) in plans.iter().enumerate() {
            if plan.workload != spec {
                continue;
            }
            let forked = session.run_plan(plan);
            assert_eq!(digest(&forked), PINNED[i], "plan {i}: SimSession::run_plan");
            let adopted = adopted.run(plan.mode, plan.scheme, plan.overrides, &plan.tag());
            assert_eq!(digest(&adopted), PINNED[i], "plan {i}: adopted session");
        }
    }
}

#[test]
fn mixed_read_write_served_runs_are_deterministic_and_count_writes() {
    // The mutation workload rides the same determinism contract as the
    // lookup-only streams: a served plan with a write mix must produce
    // byte-identical reports from a serial engine (which steps the chip's
    // lanes serially too), a 4-worker engine, and a repeat — on both a
    // single-lane chip and a multi-lane one — while the serve group
    // actually accounts for the writes it routed.
    let spec = dpdk(400, 60, 3, 11);
    for cores in [1u32, 2] {
        let load = LoadSpec {
            tenants: 3 * cores,
            mean_interarrival: 300,
            arrivals_per_tenant: 24,
            cores,
            ..LoadSpec::default()
        }
        .with_write_pct(30);
        let plans = [
            RunPlan::served(spec, Some(Scheme::CoreIntegrated), load),
            RunPlan::served(
                spec,
                Some(Scheme::ChaTlb),
                LoadSpec {
                    blocking: false,
                    ..load
                },
            ),
            RunPlan::served(spec, None, load),
        ];
        let serial = Engine::paper().with_threads(1).run_all(&plans);
        let parallel = Engine::paper().with_threads(4).run_all(&plans);
        let repeat = Engine::paper().with_threads(4).run_all(&plans);
        for (i, ((s, p), r)) in serial.iter().zip(&parallel).zip(&repeat).enumerate() {
            assert_eq!(
                s.to_json(),
                p.to_json(),
                "cores={cores} plan {i}: serial vs parallel diverged"
            );
            assert_eq!(
                p.to_json(),
                r.to_json(),
                "cores={cores} plan {i}: parallel repeat diverged"
            );
            // ~30% of the offered stream is writes; with 72+ arrivals the
            // mix cannot round to zero, and every write the admission loop
            // executed is visible in the registry.
            assert!(
                s.stats.count("serve", "writes") > 0,
                "cores={cores} plan {i}: no writes recorded"
            );
            assert!(s.stats.get("serve", "stale_faults").is_some());
        }
        // The write knob is part of the plan identity: the load tag in the
        // report distinguishes a mixed stream from lookup-only.
        assert!(
            serial[0].to_json().contains("w30"),
            "write mix missing from the load tag"
        );
    }
}
