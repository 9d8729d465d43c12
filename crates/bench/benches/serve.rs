//! Micro-benches of the serving layer: the admission-queue hot path, the
//! full open-loop event loop over a calibrated backend, and arrival
//! generation. Results land in `BENCH_serve.json`; run with
//! `-- --check <baseline>` to gate on regressions.

use qei_bench::BenchSuite;
use qei_config::{AdmissionPolicy, Cycles, LoadSpec};
use qei_core::FaultCode;
use qei_serve::{arrivals, run_load_lane, AdmissionQueue, QueryBackend};
use qei_trace::EventBuf;
use std::hint::black_box;

/// A single-server queue with a fixed integer service time — the same shape
/// the engine uses for its software-calibrated backend.
struct FixedService {
    service: u64,
    free_at: u64,
}

impl QueryBackend for FixedService {
    fn execute(&mut self, start: Cycles, job: u32) -> (Cycles, Result<u64, FaultCode>) {
        let begin = self.free_at.max(start.as_u64());
        self.free_at = begin + self.service;
        (Cycles(self.free_at), Ok(u64::from(job) + 1))
    }
}

fn bench_admission_queue(suite: &mut BenchSuite) {
    // The queue's steady-state cycle under saturation: retire what has
    // drained, admit a new completion, occasionally pop the earliest
    // in-flight entry (the Stall policy's path).
    let mut queue = AdmissionQueue::new(64);
    let mut now = 0u64;
    suite.bench("admission_queue/admit_retire", || {
        now += 17;
        queue.retire_until(now);
        if queue.is_full() {
            black_box(queue.pop_earliest());
        }
        queue.admit(now + 1_024);
        black_box(queue.len())
    });
}

fn bench_run_load(suite: &mut BenchSuite) {
    // One full open-loop run at a saturating rate: arrival generation,
    // admission, retry scheduling, and per-tenant stats recording.
    let load = LoadSpec {
        tenants: 4,
        mean_interarrival: 50,
        arrivals_per_tenant: 256,
        queue_depth: 16,
        policy: AdmissionPolicy::Reject,
        ..LoadSpec::default()
    };
    suite.bench("run_load/reject_saturated", || {
        let mut backend = FixedService {
            service: 300,
            free_at: 0,
        };
        let mut events = EventBuf::new();
        let stats = run_load_lane(&load, &arrivals(&load, 1_024), &mut backend, &mut events);
        black_box(stats.completed() + stats.rejects())
    });
    let stall = LoadSpec {
        policy: AdmissionPolicy::Stall,
        ..load
    };
    suite.bench("run_load/stall_saturated", || {
        let mut backend = FixedService {
            service: 300,
            free_at: 0,
        };
        let mut events = EventBuf::new();
        let stats = run_load_lane(&stall, &arrivals(&stall, 1_024), &mut backend, &mut events);
        black_box(stats.completed() + stats.stall_cycles())
    });
}

fn bench_arrivals(suite: &mut BenchSuite) {
    // One whole arrival stream of a light load: 16 tenants × 64 arrivals at
    // a mean gap of 4000 cycles, about 4 M geometric-trial draws. A served
    // plan on a chip of any size draws this much once, split across lanes.
    let load = LoadSpec {
        tenants: 16,
        mean_interarrival: 4_000,
        arrivals_per_tenant: 64,
        ..LoadSpec::default()
    };
    suite.bench("arrivals/light_16x64", || {
        black_box(arrivals(&load, 1_024).len())
    });
}

fn main() {
    let mut suite = BenchSuite::from_args("serve");
    bench_admission_queue(&mut suite);
    bench_run_load(&mut suite);
    bench_arrivals(&mut suite);
    suite.finish();
}
