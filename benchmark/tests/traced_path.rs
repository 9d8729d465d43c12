//! The traced path must price exactly the program `SimSession::run_plan`
//! prices: same calls, same order, byte-identical reports. If the engine's
//! execute order drifts, this fails before a traced run can silently
//! measure something else.

use qei_benchmark::spans::Recorder;
use qei_benchmark::traced;
use qei_config::{MachineConfig, Scheme};
use qei_experiments::Scale;
use qei_sim::{RunPlan, SimSession, WorkloadKind, WorkloadSpec};

fn quick_specs() -> Vec<WorkloadSpec> {
    let mut specs = qei_experiments::suite::suite_specs(Scale::Quick);
    specs.push(WorkloadSpec::new(
        0xD6,
        6,
        WorkloadKind::TupleSpace {
            tuples: 4,
            flows_per_table: 128,
            packets: 24,
        },
    ));
    specs
}

#[test]
fn traced_reports_match_run_plan_for_every_kind_and_scheme() {
    let config = MachineConfig::skylake_sp_24();
    for spec in quick_specs() {
        let session = SimSession::build(config.clone(), spec);
        let (image, workload) = spec.build_image();
        let mut plans = vec![RunPlan::baseline(spec)];
        plans.extend(Scheme::ALL.map(|s| RunPlan::qei(spec, s)));
        for plan in plans {
            let mut rec = Recorder::default();
            let traced = traced::run_plan(&mut rec, &config, &image, workload.as_ref(), &plan);
            assert_eq!(
                traced.to_json(),
                session.run_plan(&plan).to_json(),
                "{} {:?}: the traced path diverged from run_plan",
                workload.name(),
                plan.scheme
            );
            let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
            assert!(names.starts_with(&["mem.fork"]), "{names:?}");
            assert!(names.contains(&"cpu.measured") && names.contains(&"sim.report"));
            let dispatched = rec.aggregates().iter().any(|a| a.name == "core.submit");
            assert_eq!(dispatched, plan.scheme.is_some(), "{names:?}");
        }
    }
}

#[test]
fn the_traced_path_covers_nearly_all_of_a_plan() {
    let config = MachineConfig::skylake_sp_24();
    let spec = qei_experiments::suite::suite_specs(Scale::Quick)[1];
    let (image, workload) = spec.build_image();
    let mut rec = Recorder::default();
    let root = rec.open("op");
    let plan = RunPlan::qei(spec, Scheme::CoreIntegrated);
    let _ = traced::run_plan(&mut rec, &config, &image, workload.as_ref(), &plan);
    rec.close(root);
    let own = rec.self_times();
    // Only glue between the spans is unattributed.
    assert!(
        own[root] * 10 < rec.duration_ns(root),
        "{} of {}",
        own[root],
        rec.duration_ns(root)
    );
}
