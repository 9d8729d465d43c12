//! The traced batch path: a plan priced through the same public calls, in
//! the same order, as `SimSession::run_plan` → `Engine::execute_baseline` /
//! `Engine::execute_qei`, with a span around each step. The reports must be
//! byte-identical to the untraced path (`tests/traced_path.rs` pins this),
//! so the traced run measures the program users run and nothing else.

use crate::spans::{Recorder, TimedBus};
use qei_cache::MemoryHierarchy;
use qei_config::{Cycles, MachineConfig};
use qei_core::QeiAccelerator;
use qei_cpu::{Bus, CoreModel, MemBus, RunResult, Trace};
use qei_mem::GuestMem;
use qei_sim::{build_qei_trace_blocking, QeiBus, QeiRunData, RunMode, RunPlan, RunReport, System};
use qei_workloads::Workload;

/// Prices a baseline or blocking-QEI `plan` against a fork of `image`.
///
/// # Panics
///
/// On any other run mode, and — like the engine — when results disagree
/// with the workload's ground truth.
pub fn run_plan(
    rec: &mut Recorder,
    config: &MachineConfig,
    image: &GuestMem,
    workload: &dyn Workload,
    plan: &RunPlan,
) -> RunReport {
    let mut sys = rec.span("mem.fork", || {
        let mut config = config.clone();
        plan.overrides.apply(&mut config);
        System::from_parts(config, image.clone())
    });
    match (plan.mode, plan.scheme) {
        (RunMode::Baseline, _) => baseline(rec, &sys, workload),
        (RunMode::QeiBlocking, Some(scheme)) => {
            let trace = rec.span("sim.qei_trace", || build_qei_trace_blocking(workload));
            let setup = rec.open("sim.setup");
            let n_jobs = workload.jobs().len();
            let result_buf = sys
                .guest_mut()
                .alloc((n_jobs.max(1) * 8) as u64, 64)
                .unwrap_or_else(|e| panic!("guest alloc for NB results failed: {e}"));
            let mut core = CoreModel::new(sys.config(), sys.core_id());
            let mut accel = QeiAccelerator::new(sys.config(), scheme, sys.core_id());
            accel.set_force_local_compare(false);
            let config = sys.config().clone();
            let mut bus = QeiBus::new(
                MemoryHierarchy::new(&config),
                accel,
                sys.guest_mut(),
                workload.jobs().to_vec(),
                result_buf,
            );
            rec.close(setup);
            let _ = cpu_run(rec, "cpu.warmup", &mut core, &trace, &mut bus);
            let _ = core.drain_trace();
            let _ = bus.drain_trace();
            bus.begin_epoch();
            let run = cpu_run(rec, "cpu.measured", &mut core, &trace, &mut bus);
            let correct = rec.span("sim.verify", || bus.verify(workload.expected(), false));
            assert!(correct, "QEI functional mismatch in {}", workload.name());
            rec.span("sim.report", || {
                let _ = core.drain_trace();
                let _ = bus.drain_trace();
                let occupancy = bus.accel().qst_occupancy(Cycles(run.cycles.max(1)));
                RunReport::from_qei(
                    workload,
                    plan.mode,
                    scheme,
                    QeiRunData {
                        run,
                        mem: bus.mem_hierarchy().stats(),
                        accel: bus.accel().stats(),
                        qst_occupancy: occupancy,
                        noc: *bus.mem_hierarchy().noc().stats(),
                    },
                )
            })
        }
        (mode, _) => panic!("the traced path covers baseline and blocking plans, not {mode}"),
    }
}

fn baseline(rec: &mut Recorder, sys: &System, workload: &dyn Workload) -> RunReport {
    let trace = rec.span("workloads.baseline_trace", || {
        let mut trace = Trace::new();
        let results = workload.baseline_trace(sys.guest(), &mut trace);
        assert_eq!(
            results,
            workload.expected(),
            "baseline functional mismatch in {}",
            workload.name()
        );
        trace
    });
    let setup = rec.open("sim.setup");
    let mut bus = MemBus::new(MemoryHierarchy::new(sys.config()), sys.guest().space());
    let mut core = CoreModel::new(sys.config(), sys.core_id());
    rec.close(setup);
    let _ = cpu_run(rec, "cpu.warmup", &mut core, &trace, &mut bus);
    let _ = core.drain_trace();
    let _ = bus.mem.drain_trace();
    bus.mem.reset_epoch();
    let run = cpu_run(rec, "cpu.measured", &mut core, &trace, &mut bus);
    rec.span("sim.report", || {
        let _ = core.drain_trace();
        let _ = bus.mem.drain_trace();
        RunReport::from_software(workload, run, bus.mem.stats())
    })
}

/// One `CoreModel::run` in a span, with the accelerator dispatches it makes
/// summed into an aggregate of that span.
fn cpu_run(
    rec: &mut Recorder,
    name: &'static str,
    core: &mut CoreModel,
    trace: &Trace,
    bus: &mut dyn Bus,
) -> RunResult {
    let id = rec.open(name);
    let mut timed = TimedBus::new(bus);
    let run = core.run(trace, &mut timed);
    let (sum, count) = (timed.sum, timed.count);
    rec.close(id);
    if count > 0 {
        rec.aggregate(id, "core.submit", sum, count);
    }
    run
}
