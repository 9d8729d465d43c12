//! The open-loop arrival process.
//!
//! Each tenant owns an independent [`SimRng`] stream derived from the load
//! seed, and draws integer geometric inter-arrival gaps with mean
//! `mean_interarrival`: a gap is the number of Bernoulli(1/mean) trials
//! until the first success, so the aggregate multi-tenant process is
//! Poisson-approximate without a single floating-point operation. Arrival
//! times are therefore a pure function of `(LoadSpec, n_jobs)` — the same
//! stream regardless of thread count, process, or host.
//!
//! Because tenant substreams are independent, a chip lane draws only the
//! tenants [`lane_of_tenant`] assigns to it ([`lane_arrivals`]): exactly its
//! subset of [`arrivals`], draw for draw, paying for no other lane's draws.

use crate::shard::lane_of_tenant;
use qei_config::{LoadSpec, SimRng};

/// One generated arrival: a tenant's `seq`-th query, requesting workload
/// job `job`, reaching the admission queue at cycle `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Cycle the query reaches the admission queue.
    pub at: u64,
    /// Originating tenant.
    pub tenant: u32,
    /// Per-tenant arrival index.
    pub seq: u32,
    /// Index into the workload's job list.
    pub job: u32,
    /// Whether this arrival is a structure mutation (write) rather than a
    /// point query.
    pub write: bool,
}

/// One integer geometric draw with the given mean: the count of
/// Bernoulli(1/mean) trials up to and including the first success.
fn geometric(rng: &mut SimRng, mean: u64) -> u64 {
    let mut gap = 1;
    while rng.below(mean) != 0 {
        gap += 1;
    }
    gap
}

/// Generates every arrival of the load pattern, tenant-major (the serving
/// loop orders them by time through its event heap). `n_jobs` is the size
/// of the workload's job list each arrival draws its query from.
///
/// # Panics
///
/// Panics if the spec fails [`LoadSpec::validate`] or `n_jobs` is zero.
pub fn arrivals(load: &LoadSpec, n_jobs: u32) -> Vec<Arrival> {
    draw(load, n_jobs, 0..load.tenants)
}

/// Generates the arrivals of the tenants core lane `lane` serves, drawing
/// no other tenant's stream: the subsequence of [`arrivals`] whose tenant
/// [`lane_of_tenant`] maps to `lane`, in the same order. At `cores == 1`
/// lane 0 draws every tenant and this equals [`arrivals`].
///
/// # Panics
///
/// Panics if the spec fails [`LoadSpec::validate`], `n_jobs` is zero, or
/// `lane` is not below `load.cores`.
pub fn lane_arrivals(load: &LoadSpec, n_jobs: u32, lane: u32) -> Vec<Arrival> {
    assert!(
        lane < load.cores,
        "lane {lane} out of range for {} cores",
        load.cores
    );
    draw(
        load,
        n_jobs,
        (0..load.tenants).filter(|&t| lane_of_tenant(t, load.cores) == lane),
    )
}

/// Draws the whole stream of each of `tenants`, tenant-major.
fn draw(load: &LoadSpec, n_jobs: u32, tenants: impl Iterator<Item = u32> + Clone) -> Vec<Arrival> {
    if let Err(why) = load.validate() {
        panic!("invalid load spec: {why}");
    }
    assert!(n_jobs > 0, "load generation needs a nonempty job list");
    let per_tenant = load.arrivals_per_tenant as usize;
    let mut out = Vec::with_capacity(tenants.clone().count() * per_tenant);
    for tenant in tenants {
        // A distinct, well-separated substream per tenant (odd multiplier
        // of the golden-ratio constant, as in splitmix).
        let stream = load
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tenant as u64 + 1));
        let mut rng = SimRng::seed_from_u64(stream);
        let mut t = 0u64;
        for seq in 0..load.arrivals_per_tenant {
            t += geometric(&mut rng, load.mean_interarrival);
            let job = rng.below(n_jobs as u64) as u32;
            // Short-circuit: a lookup-only spec draws nothing extra, so the
            // historical arrival streams stay byte-identical.
            let write = load.write_pct > 0 && rng.below(100) < load.write_pct as u64;
            out.push(Arrival {
                at: t,
                tenant,
                seq,
                job,
                write,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over every field of every arrival, in stream order.
    fn digest(stream: &[Arrival]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for a in stream {
            let fields = [
                a.at,
                u64::from(a.tenant),
                u64::from(a.seq),
                u64::from(a.job),
                u64::from(a.write),
            ];
            for b in fields.iter().flat_map(|f| f.to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn arrival_stream_is_deterministic() {
        let load = LoadSpec::default();
        assert_eq!(arrivals(&load, 40), arrivals(&load, 40));
    }

    #[test]
    fn arrival_streams_are_pinned_across_commits() {
        // Every served report is a function of these streams; recorded
        // before lanes began drawing their own tenants.
        let load = LoadSpec::default();
        let read_only = digest(&arrivals(&load, 40));
        let mixed = digest(&arrivals(&load.with_write_pct(30), 40));
        assert_eq!(
            [read_only, mixed],
            [0x333a_0a59_1718_44f2, 0xde20_6ea2_9efb_7751],
            "{read_only:#018x} {mixed:#018x}"
        );
    }

    #[test]
    fn lane_arrivals_partition_the_full_stream() {
        let key = |a: &Arrival| (a.tenant, a.seq);
        for write_pct in [0u32, 30] {
            for cores in [1u32, 2, 3, 4, 8] {
                let load = LoadSpec {
                    tenants: 16,
                    arrivals_per_tenant: 20,
                    cores,
                    ..LoadSpec::default()
                }
                .with_write_pct(write_pct);
                let all = arrivals(&load, 40);
                let mut union = Vec::new();
                for lane in 0..cores {
                    let mine = lane_arrivals(&load, 40, lane);
                    assert!(
                        mine.iter().all(|a| lane_of_tenant(a.tenant, cores) == lane),
                        "cores={cores}: lane {lane} holds another lane's tenant"
                    );
                    union.extend(mine);
                }
                union.sort_by_key(key);
                assert!(
                    union.windows(2).all(|w| key(&w[0]) != key(&w[1])),
                    "cores={cores} write_pct={write_pct}: lanes overlap"
                );
                let mut sorted = all.clone();
                sorted.sort_by_key(key);
                assert_eq!(union, sorted, "cores={cores} write_pct={write_pct}");
                if cores == 1 {
                    assert_eq!(lane_arrivals(&load, 40, 0), all);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_past_the_core_count_panics() {
        let load = LoadSpec::default().with_cores(2);
        lane_arrivals(&load, 4, 2);
    }

    #[test]
    fn per_tenant_times_are_strictly_increasing() {
        let load = LoadSpec {
            tenants: 3,
            arrivals_per_tenant: 50,
            mean_interarrival: 10,
            ..LoadSpec::default()
        };
        for tenant in 0..load.tenants {
            let times: Vec<u64> = arrivals(&load, 8)
                .iter()
                .filter(|a| a.tenant == tenant)
                .map(|a| a.at)
                .collect();
            assert_eq!(times.len(), 50);
            assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
        }
    }

    #[test]
    fn empirical_mean_tracks_the_spec() {
        let load = LoadSpec {
            tenants: 1,
            arrivals_per_tenant: 2_000,
            mean_interarrival: 64,
            ..LoadSpec::default()
        };
        let all = arrivals(&load, 4);
        let span = all.last().map(|a| a.at).unwrap_or(0);
        let mean = span / all.len() as u64;
        assert!(
            (40..=90).contains(&mean),
            "geometric mean drifted: {mean} vs spec 64"
        );
    }

    #[test]
    fn tenants_get_distinct_streams() {
        let load = LoadSpec {
            tenants: 2,
            arrivals_per_tenant: 20,
            ..LoadSpec::default()
        };
        let all = arrivals(&load, 16);
        let t0: Vec<u64> = all.iter().filter(|a| a.tenant == 0).map(|a| a.at).collect();
        let t1: Vec<u64> = all.iter().filter(|a| a.tenant == 1).map(|a| a.at).collect();
        assert_ne!(t0, t1, "tenant streams must not be identical");
    }

    #[test]
    fn jobs_stay_in_range_and_vary() {
        let load = LoadSpec {
            tenants: 2,
            arrivals_per_tenant: 100,
            ..LoadSpec::default()
        };
        let all = arrivals(&load, 7);
        assert!(all.iter().all(|a| a.job < 7));
        let first = all[0].job;
        assert!(all.iter().any(|a| a.job != first), "jobs never vary");
    }

    #[test]
    fn lookup_only_stream_is_unchanged_by_the_write_knob() {
        // write_pct == 0 must not consume RNG draws: the stream is the one
        // every pre-existing plan baked into its baselines.
        let read_only = LoadSpec::default();
        let all = arrivals(&read_only, 16);
        assert!(all.iter().all(|a| !a.write));

        // A mixed stream shares the same times/jobs prefix draw-for-draw
        // only where the extra Bernoulli hasn't shifted the stream — but the
        // *first* arrival's time and job come before any write draw, so they
        // must agree.
        let mixed = arrivals(&read_only.with_write_pct(25), 16);
        assert_eq!(all[0].at, mixed[0].at);
        assert_eq!(all[0].job, mixed[0].job);
    }

    #[test]
    fn write_mix_tracks_the_percentage() {
        let load = LoadSpec {
            tenants: 2,
            arrivals_per_tenant: 1_000,
            ..LoadSpec::default()
        }
        .with_write_pct(30);
        let all = arrivals(&load, 8);
        let writes = all.iter().filter(|a| a.write).count();
        let pct = writes * 100 / all.len();
        assert!(
            (20..=40).contains(&pct),
            "write mix drifted: {pct}% vs spec 30%"
        );
        // Determinism: same spec, same mix.
        assert_eq!(all, arrivals(&load, 8));
    }

    #[test]
    #[should_panic(expected = "invalid load spec")]
    fn invalid_spec_panics() {
        let load = LoadSpec {
            tenants: 0,
            ..LoadSpec::default()
        };
        arrivals(&load, 4);
    }

    #[test]
    fn unit_mean_is_back_to_back() {
        let load = LoadSpec {
            tenants: 1,
            arrivals_per_tenant: 10,
            mean_interarrival: 1,
            ..LoadSpec::default()
        };
        let times: Vec<u64> = arrivals(&load, 2).iter().map(|a| a.at).collect();
        assert_eq!(times, (1..=10).collect::<Vec<u64>>());
    }
}
