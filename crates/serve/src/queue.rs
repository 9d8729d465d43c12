//! The bounded admission queue and the served-load event loop.
//!
//! The queue sits *in front of* the accelerator's QST and bounds
//! admitted-but-incomplete queries. A full queue applies the configured
//! [`AdmissionPolicy`]: `Reject` bounces the arrival back to the client
//! (which retries with exponential backoff until its budget runs out),
//! `Stall` blocks the producer until the earliest in-flight query
//! completes, and `TailDrop` discards the newest arrival outright.
//!
//! The loop is a single-threaded discrete-event simulation over a binary
//! heap keyed `(cycle, tenant, seq, attempt)` — a total order, so the
//! execution (and therefore every report byte) is a pure function of the
//! [`LoadSpec`] and the backend.

use crate::arrival::Arrival;
use crate::stats::ServeStats;
use qei_config::{AdmissionPolicy, Cycles, LoadSpec};
use qei_core::FaultCode;
use qei_trace::{EventBuf, EventKind, TRACK_SERVE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The bounded in-flight set: completion times of admitted queries. This is
/// the serving layer's hot path (one retire + one admit per arrival), so it
/// is a flat min-heap with no per-query allocation.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    depth: usize,
    inflight: BinaryHeap<Reverse<u64>>,
    peak: u32,
}

impl AdmissionQueue {
    /// A queue bounding `depth` in-flight queries.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: u32) -> Self {
        assert!(depth > 0, "admission queue needs at least one slot");
        AdmissionQueue {
            depth: depth as usize,
            inflight: BinaryHeap::with_capacity(depth as usize + 1),
            peak: 0,
        }
    }

    /// Retires every in-flight query whose completion is at or before
    /// `now`; returns how many retired.
    pub fn retire_until(&mut self, now: u64) -> u32 {
        let mut retired = 0;
        while let Some(&Reverse(done)) = self.inflight.peek() {
            if done > now {
                break;
            }
            self.inflight.pop();
            retired += 1;
        }
        retired
    }

    /// Currently admitted-but-incomplete queries.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Whether a new arrival would exceed the bound.
    pub fn is_full(&self) -> bool {
        self.inflight.len() >= self.depth
    }

    /// Admits a query completing at `completion`.
    pub fn admit(&mut self, completion: u64) {
        self.inflight.push(Reverse(completion));
        self.peak = self.peak.max(self.inflight.len() as u32);
    }

    /// Removes and returns the earliest in-flight completion (the stall
    /// policy's admission point).
    pub fn pop_earliest(&mut self) -> Option<u64> {
        self.inflight.pop().map(|Reverse(done)| done)
    }

    /// High-water mark of the in-flight count.
    pub fn peak(&self) -> u32 {
        self.peak
    }
}

/// What the serving loop drives: anything that can execute one query
/// admitted at a given cycle and report when (and how) it completed.
/// `qei-sim` implements this over the accelerator (per scheme, blocking or
/// non-blocking) and over the calibrated software baseline.
pub trait QueryBackend {
    /// Executes the workload's `job`-th query admitted at `start`; returns
    /// the cycle the result is available and the functional result.
    fn execute(&mut self, start: Cycles, job: u32) -> (Cycles, Result<u64, FaultCode>);

    /// Executes a structure *mutation* admitted at `start`. A mutating
    /// backend opens the target structure's epoch window for the write's
    /// service span, so reads racing the window draw `StaleStructure`
    /// through the real dispatch path. The default treats writes as reads
    /// (a backend with no mutable state, e.g. the calibrated software
    /// baseline, still charges a realistic service time).
    fn execute_write(&mut self, start: Cycles, job: u32) -> (Cycles, Result<u64, FaultCode>) {
        self.execute(start, job)
    }

    /// Closes any epoch window still open at the end of the run, leaving
    /// every structure queryable (even epoch). Called once per
    /// [`run_load_lane`] after the last arrival retires; the default is a
    /// no-op.
    fn finish(&mut self) {}
}

/// A heap entry: one submission attempt. The derived ordering is
/// `(at, tenant, seq, attempt, ...)` — field order matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Attempt {
    at: u64,
    tenant: u32,
    seq: u32,
    attempt: u32,
    job: u32,
    first_at: u64,
    write: bool,
}

/// Backoff before retry `attempt`, saturating instead of overflowing: with
/// a generous retry budget the shift `base << attempt` exceeds 64 bits long
/// before the budget runs out (a debug-build panic, silent wraparound in
/// release — retries rescheduled into the *past*).
fn backoff_after(base: u64, attempt: u32) -> u64 {
    base.checked_shl(attempt)
        .filter(|&b| b >> attempt == base)
        .unwrap_or(u64::MAX)
}

/// Serves `arrivals` on one admission queue in front of `backend`,
/// emitting admission events into `trace` and returning the per-tenant
/// statistics. The stream is either the whole load pattern
/// ([`arrivals`](crate::arrivals)) or one core lane's share of it
/// ([`lane_arrivals`](crate::lane_arrivals), drawn once and replayed by
/// every pass over the lane); sharding re-routes queries across lanes
/// without perturbing any arrival's cycle, job, or seed. The returned
/// [`ServeStats`] is sized for *all* tenants with only the served tenants
/// populated, which makes the chip's per-lane merge a disjoint sum.
///
/// Latency is measured client-side: from the *first* arrival of a query
/// (before any backoff) to the cycle the client observes the result — the
/// completion itself for blocking `QUERY_B`, or the first `SNAPSHOT_READ`
/// poll tick at or after the result store for non-blocking `QUERY_NB`.
pub fn run_load_lane<B: QueryBackend>(
    load: &LoadSpec,
    arrivals: &[Arrival],
    backend: &mut B,
    trace: &mut EventBuf,
) -> ServeStats {
    let mut heap: BinaryHeap<Reverse<Attempt>> = arrivals
        .iter()
        .map(|a| {
            Reverse(Attempt {
                at: a.at,
                tenant: a.tenant,
                seq: a.seq,
                attempt: 0,
                job: a.job,
                first_at: a.at,
                write: a.write,
            })
        })
        .collect();
    let mut queue = AdmissionQueue::new(load.queue_depth);
    let mut stats = ServeStats::new(load.tenants);

    while let Some(Reverse(p)) = heap.pop() {
        let now = p.at;
        queue.retire_until(now);
        let tenant = stats.tenant_mut(p.tenant);
        if p.attempt == 0 {
            tenant.offered += 1;
            trace.emit(
                now,
                TRACK_SERVE,
                EventKind::ServeEnqueue,
                p.tenant as u64,
                p.seq as u64,
            );
        }

        let admit_at = if queue.is_full() {
            match load.policy {
                AdmissionPolicy::Reject => {
                    tenant.rejects += 1;
                    trace.emit(
                        now,
                        TRACK_SERVE,
                        EventKind::ServeReject,
                        p.tenant as u64,
                        p.attempt as u64,
                    );
                    let retry_at = now.saturating_add(backoff_after(load.backoff_base, p.attempt));
                    // A saturated backoff is a retry past any horizon: the
                    // client gives up now rather than rescheduling forever.
                    if p.attempt < load.max_retries && retry_at < u64::MAX {
                        tenant.retries += 1;
                        trace.emit(
                            now,
                            TRACK_SERVE,
                            EventKind::ServeRetry,
                            p.tenant as u64,
                            retry_at,
                        );
                        heap.push(Reverse(Attempt {
                            at: retry_at,
                            attempt: p.attempt + 1,
                            ..p
                        }));
                    } else {
                        tenant.timeouts += 1;
                    }
                    continue;
                }
                AdmissionPolicy::TailDrop => {
                    tenant.rejects += 1;
                    tenant.drops += 1;
                    trace.emit(
                        now,
                        TRACK_SERVE,
                        EventKind::ServeReject,
                        p.tenant as u64,
                        p.attempt as u64,
                    );
                    continue;
                }
                AdmissionPolicy::Stall => {
                    // Producer backpressure: wait for the earliest in-flight
                    // completion. `retire_until` already removed everything
                    // ≤ now, so this is strictly in the future.
                    let free_at = queue.pop_earliest().unwrap_or(now).max(now);
                    tenant.stall_cycles += free_at - now;
                    free_at
                }
            }
        } else {
            now
        };

        trace.emit(
            admit_at,
            TRACK_SERVE,
            EventKind::ServeAdmit,
            p.tenant as u64,
            admit_at - now,
        );
        let (completion, result) = if p.write {
            trace.emit(
                admit_at,
                TRACK_SERVE,
                EventKind::ServeMutate,
                p.tenant as u64,
                p.seq as u64,
            );
            stats.tenant_mut(p.tenant).writes += 1;
            backend.execute_write(Cycles(admit_at), p.job)
        } else {
            backend.execute(Cycles(admit_at), p.job)
        };
        // A non-blocking client only sees the result on its next
        // SNAPSHOT_READ poll tick after the store lands.
        let observed = if load.blocking {
            completion.as_u64()
        } else {
            let waited = completion.as_u64().saturating_sub(admit_at);
            admit_at + waited.div_ceil(load.poll_interval).max(1) * load.poll_interval
        };
        queue.admit(completion.as_u64());
        let tenant = stats.tenant_mut(p.tenant);
        tenant.complete(observed.saturating_sub(p.first_at), result.err());
        stats.horizon = stats.horizon.max(observed);
    }

    backend.finish();
    stats.peak_queue = queue.peak();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::arrivals;
    use qei_config::Log2Histogram;

    /// A single-server backend with a fixed service time: arrivals beyond
    /// the server's rate pile up, which is exactly what saturates the
    /// admission queue.
    struct FixedService {
        service: u64,
        free_at: u64,
        executed: u64,
    }

    impl FixedService {
        fn new(service: u64) -> Self {
            FixedService {
                service,
                free_at: 0,
                executed: 0,
            }
        }
    }

    impl QueryBackend for FixedService {
        fn execute(&mut self, start: Cycles, job: u32) -> (Cycles, Result<u64, FaultCode>) {
            self.executed += 1;
            let begin = self.free_at.max(start.as_u64());
            self.free_at = begin + self.service;
            (Cycles(self.free_at), Ok(job as u64 + 1))
        }
    }

    fn saturating(policy: AdmissionPolicy) -> LoadSpec {
        LoadSpec {
            tenants: 2,
            mean_interarrival: 10,
            arrivals_per_tenant: 200,
            queue_depth: 4,
            policy,
            max_retries: 2,
            backoff_base: 16,
            ..LoadSpec::default()
        }
    }

    fn run(load: &LoadSpec, service: u64) -> ServeStats {
        let mut backend = FixedService::new(service);
        let mut trace = EventBuf::new();
        run_load_lane(load, &arrivals(load, 8), &mut backend, &mut trace)
    }

    #[test]
    fn admission_queue_bounds_and_retires() {
        let mut q = AdmissionQueue::new(2);
        assert!(q.is_empty());
        q.admit(100);
        q.admit(50);
        assert!(q.is_full());
        assert_eq!(q.peak(), 2);
        assert_eq!(q.retire_until(49), 0);
        assert_eq!(q.retire_until(60), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_earliest(), Some(100));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_queue_panics() {
        let _ = AdmissionQueue::new(0);
    }

    #[test]
    fn saturating_rate_produces_rejects_and_timeouts() {
        // Service is 100× the inter-arrival gap: the queue must overflow.
        let stats = run(&saturating(AdmissionPolicy::Reject), 1_000);
        assert!(stats.rejects() > 0, "no rejects under saturation");
        assert!(stats.retries() > 0, "clients never retried");
        assert!(stats.timeouts() > 0, "retry budgets never exhausted");
        assert!(stats.completed() > 0, "nothing completed");
        assert!(stats.completed() < stats.offered());
    }

    #[test]
    fn p99_is_monotone_across_a_rate_sweep() {
        // Offered load rises as the inter-arrival gap shrinks; client-side
        // p99 latency must not decrease.
        let mut p99s = Vec::new();
        for gap in [4_000u64, 400, 40] {
            let load = LoadSpec {
                mean_interarrival: gap,
                ..saturating(AdmissionPolicy::Stall)
            };
            let stats = run(&load, 300);
            p99s.push(stats.latency().p99());
        }
        assert!(
            p99s.windows(2).all(|w| w[0] <= w[1]),
            "p99 must be non-decreasing with load: {p99s:?}"
        );
        assert!(p99s[0] < p99s[2], "saturation never showed up: {p99s:?}");
    }

    #[test]
    fn stall_policy_completes_everything() {
        let stats = run(&saturating(AdmissionPolicy::Stall), 500);
        assert_eq!(stats.completed(), stats.offered());
        assert_eq!(stats.rejects(), 0);
        assert_eq!(stats.drops(), 0);
        assert!(stats.stall_cycles() > 0, "no backpressure recorded");
    }

    #[test]
    fn taildrop_policy_drops_without_retrying() {
        let stats = run(&saturating(AdmissionPolicy::TailDrop), 500);
        assert!(stats.drops() > 0);
        assert_eq!(stats.retries(), 0);
        assert_eq!(stats.completed() + stats.drops(), stats.offered());
    }

    #[test]
    fn light_load_admits_everything_immediately() {
        let load = LoadSpec {
            tenants: 2,
            mean_interarrival: 10_000,
            arrivals_per_tenant: 20,
            ..LoadSpec::default()
        };
        let stats = run(&load, 50);
        assert_eq!(stats.completed(), stats.offered());
        assert_eq!(stats.rejects(), 0);
        assert!(stats.peak_queue <= 2, "peak {}", stats.peak_queue);
    }

    #[test]
    fn nonblocking_latency_quantizes_to_poll_ticks() {
        let load = LoadSpec {
            tenants: 1,
            mean_interarrival: 10_000,
            arrivals_per_tenant: 30,
            blocking: false,
            poll_interval: 64,
            ..LoadSpec::default()
        };
        // Service fits well inside one gap: no queueing, no retries, so
        // every client-side latency is a whole number of poll ticks.
        let stats = run(&load, 100);
        assert_eq!(stats.completed(), stats.offered());
        let mut expect = Log2Histogram::new();
        for _ in 0..30 {
            // ceil(100/64) = 2 ticks of 64 cycles.
            expect.record(128);
        }
        assert_eq!(stats.latency(), expect);
    }

    #[test]
    fn run_is_deterministic() {
        let load = saturating(AdmissionPolicy::Reject);
        let a = run(&load, 700);
        let b = run(&load, 700);
        assert_eq!(a.to_registry_json(), b.to_registry_json());
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // attempt >= 64 used to panic in debug (`<< 64`) and reschedule
        // retries into the past in release (silent wraparound).
        assert_eq!(backoff_after(512, 0), 512);
        assert_eq!(backoff_after(512, 3), 4_096);
        assert_eq!(backoff_after(512, 54), 512 << 54);
        assert_eq!(backoff_after(512, 55), u64::MAX, "value overflow");
        assert_eq!(backoff_after(512, 64), u64::MAX, "shift overflow");
        assert_eq!(backoff_after(512, 80), u64::MAX);
        assert_eq!(
            backoff_after(0, 80),
            u64::MAX,
            "0 << 80 is still a >=64 shift"
        );
        assert_eq!(backoff_after(0, 3), 0);
        assert_eq!(backoff_after(u64::MAX, 1), u64::MAX);
    }

    #[test]
    fn generous_retry_budget_survives_saturation() {
        // 80 retries walks the backoff shift far past 64 bits; the run must
        // complete (saturated far-future retries simply time out last).
        let load = LoadSpec {
            max_retries: 80,
            ..saturating(AdmissionPolicy::Reject)
        };
        let stats = run(&load, 1_000);
        assert!(stats.retries() > 0, "saturation never produced retries");
        assert_eq!(
            stats.completed() + stats.timeouts(),
            stats.offered(),
            "every query must resolve"
        );
    }

    #[test]
    fn mixed_stream_routes_writes_and_counts_them() {
        struct Recording {
            inner: FixedService,
            writes: u64,
            finished: bool,
        }
        impl QueryBackend for Recording {
            fn execute(&mut self, start: Cycles, job: u32) -> (Cycles, Result<u64, FaultCode>) {
                self.inner.execute(start, job)
            }
            fn execute_write(
                &mut self,
                start: Cycles,
                job: u32,
            ) -> (Cycles, Result<u64, FaultCode>) {
                self.writes += 1;
                self.inner.execute(start, job)
            }
            fn finish(&mut self) {
                self.finished = true;
            }
        }

        let load = LoadSpec {
            tenants: 2,
            mean_interarrival: 1_000,
            arrivals_per_tenant: 100,
            ..LoadSpec::default()
        }
        .with_write_pct(30);
        let mut backend = Recording {
            inner: FixedService::new(10),
            writes: 0,
            finished: false,
        };
        let mut trace = EventBuf::new();
        let stats = run_load_lane(&load, &arrivals(&load, 8), &mut backend, &mut trace);
        assert!(backend.finished, "finish() must be called after the run");
        assert!(backend.writes > 0, "no writes reached the backend");
        assert_eq!(
            stats.writes(),
            backend.writes,
            "stats must count exactly the writes the backend executed"
        );
        assert_eq!(stats.completed(), stats.offered());
    }
}
