//! Open-loop load-generation parameters for the serving layer (`qei-serve`).
//!
//! Everything here is plain integers so a [`LoadSpec`] can ride inside the
//! `Copy + Eq` run-plan types and satisfy the workspace's float-state lint:
//! arrival rates are expressed as *mean inter-arrival cycles* rather than
//! queries-per-second floats, and the Poisson-approximate arrival process is
//! a geometric draw on those integers (see `qei-serve`).

/// What the bounded admission queue does with an arrival that finds the
/// queue full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionPolicy {
    /// Refuse the submission; the client retries with exponential backoff
    /// until its retry budget is exhausted (then the query times out).
    Reject,
    /// Stall the submission until the earliest in-flight query completes
    /// (producer backpressure); nothing is ever dropped.
    Stall,
    /// Drop the newest arrival on the floor (no retry, counted as a drop).
    TailDrop,
}

impl AdmissionPolicy {
    /// Stable short name for report keys and plan tags.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::Stall => "stall",
            AdmissionPolicy::TailDrop => "taildrop",
        }
    }
}

/// Parameters of one open-loop, multi-tenant load pattern.
///
/// The offered load is `tenants / mean_interarrival` queries per cycle;
/// sweeping `mean_interarrival` down traces out the throughput–latency knee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoadSpec {
    /// Independent tenants, each with its own deterministic arrival stream
    /// and latency histogram.
    pub tenants: u32,
    /// Mean cycles between successive arrivals *per tenant* (geometric
    /// inter-arrival, so the aggregate process is Poisson-approximate).
    pub mean_interarrival: u64,
    /// Arrivals generated per tenant (the measured horizon).
    pub arrivals_per_tenant: u32,
    /// Bound on admitted-but-incomplete queries (the admission queue depth
    /// in front of the accelerator's QST).
    pub queue_depth: u32,
    /// What a full queue does with a new arrival.
    pub policy: AdmissionPolicy,
    /// Retries a rejected client attempts before giving up (`Reject` only).
    pub max_retries: u32,
    /// Backoff after the first reject, in cycles; attempt `n` waits
    /// `backoff_base << n` (exponential).
    pub backoff_base: u64,
    /// `SNAPSHOT_READ` polling period for non-blocking results: a client
    /// observes a completion only on its next poll tick.
    pub poll_interval: u64,
    /// `true` drives blocking `QUERY_B`, `false` non-blocking `QUERY_NB`
    /// with result polling.
    pub blocking: bool,
    /// Seed for the arrival process (tenant streams derive from it).
    pub seed: u64,
    /// Core lanes serving the load: tenants are hash-sharded across this
    /// many per-core accelerator lanes, each with its own admission queue,
    /// contending on the shared LLC/NoC. `1` is the single-core serving
    /// path (and reproduces it byte-for-byte).
    pub cores: u32,
    /// Percentage (0–100) of each tenant's arrivals that are *writes*
    /// (structure mutations) rather than point queries. `0` is the
    /// historical lookup-only stream and draws nothing extra from the RNG,
    /// so existing arrival streams stay byte-identical.
    pub write_pct: u32,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            tenants: 4,
            mean_interarrival: 4_000,
            arrivals_per_tenant: 64,
            queue_depth: 16,
            policy: AdmissionPolicy::Reject,
            max_retries: 3,
            backoff_base: 512,
            poll_interval: 64,
            blocking: true,
            seed: 0x5EED_10AD,
            cores: 1,
            write_pct: 0,
        }
    }
}

impl LoadSpec {
    /// Checks the spec is simulatable; returns a description of the first
    /// violated constraint otherwise.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.tenants == 0 {
            return Err("load: at least one tenant");
        }
        if self.mean_interarrival == 0 {
            return Err("load: mean inter-arrival must be nonzero");
        }
        if self.arrivals_per_tenant == 0 {
            return Err("load: at least one arrival per tenant");
        }
        if self.queue_depth == 0 {
            return Err("load: admission queue needs at least one slot");
        }
        if self.backoff_base == 0 && self.policy == AdmissionPolicy::Reject {
            return Err("load: reject policy needs a nonzero backoff base");
        }
        if self.poll_interval == 0 && !self.blocking {
            return Err("load: non-blocking polling needs a nonzero interval");
        }
        if self.cores == 0 {
            return Err("load: at least one core lane");
        }
        if self.write_pct > 100 {
            return Err("load: write percentage must be at most 100");
        }
        Ok(())
    }

    /// Offered arrivals across all tenants.
    pub fn total_arrivals(&self) -> u64 {
        self.tenants as u64 * self.arrivals_per_tenant as u64
    }

    /// Sets the per-tenant mean inter-arrival (sweep axis).
    pub fn with_interarrival(mut self, cycles: u64) -> Self {
        self.mean_interarrival = cycles;
        self
    }

    /// Sets the admission policy.
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Selects blocking `QUERY_B` (`true`) or non-blocking `QUERY_NB`
    /// (`false`).
    pub fn with_blocking(mut self, blocking: bool) -> Self {
        self.blocking = blocking;
        self
    }

    /// Sets the number of core lanes serving the load (scale-out axis).
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the per-tenant write percentage (mutation mix axis).
    pub fn with_write_pct(mut self, pct: u32) -> Self {
        self.write_pct = pct;
        self
    }

    /// Deterministic tag fragment for plan labels: distinguishes sweep
    /// points (rate, queue, policy, flavor) within one workload. The core
    /// count only appears for multi-core loads so single-core tags — and
    /// therefore every pre-existing plan label — stay byte-identical.
    pub fn tag(&self) -> String {
        let mut tag = format!(
            "ia{}t{}q{}{}{}",
            self.mean_interarrival,
            self.tenants,
            self.queue_depth,
            match self.policy {
                AdmissionPolicy::Reject => "r",
                AdmissionPolicy::Stall => "s",
                AdmissionPolicy::TailDrop => "d",
            },
            if self.blocking { "b" } else { "n" },
        );
        if self.cores > 1 {
            tag.push_str(&format!("c{}", self.cores));
        }
        if self.write_pct > 0 {
            tag.push_str(&format!("w{}", self.write_pct));
        }
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        assert_eq!(LoadSpec::default().validate(), Ok(()));
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let ok = LoadSpec::default();
        assert!(LoadSpec { tenants: 0, ..ok }.validate().is_err());
        assert!(LoadSpec {
            mean_interarrival: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(LoadSpec {
            queue_depth: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(LoadSpec {
            backoff_base: 0,
            policy: AdmissionPolicy::Reject,
            ..ok
        }
        .validate()
        .is_err());
        assert!(LoadSpec {
            poll_interval: 0,
            blocking: false,
            ..ok
        }
        .validate()
        .is_err());
        // A zero backoff is fine when nothing retries.
        assert_eq!(
            LoadSpec {
                backoff_base: 0,
                policy: AdmissionPolicy::Stall,
                ..ok
            }
            .validate(),
            Ok(())
        );
    }

    #[test]
    fn zero_cores_is_rejected_and_single_core_tag_is_unchanged() {
        let ok = LoadSpec::default();
        assert!(LoadSpec { cores: 0, ..ok }.validate().is_err());
        assert_eq!(ok.validate(), Ok(()));
        // The single-core tag carries no core fragment — pre-existing plan
        // labels (and their traces) must stay byte-identical.
        assert!(!ok.tag().contains('c'));
        assert!(ok.with_cores(4).tag().ends_with("c4"));
        assert_eq!(ok.with_cores(1).tag(), ok.tag());
    }

    #[test]
    fn tags_distinguish_sweep_points() {
        let a = LoadSpec::default();
        let b = a.with_interarrival(100);
        let c = a.with_policy(AdmissionPolicy::TailDrop);
        let d = a.with_blocking(false);
        let e = a.with_cores(2);
        let tags = [a.tag(), b.tag(), c.tag(), d.tag(), e.tag()];
        for (i, x) in tags.iter().enumerate() {
            for (j, y) in tags.iter().enumerate() {
                assert_eq!(i == j, x == y, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn write_pct_validates_and_tags() {
        let ok = LoadSpec::default();
        assert_eq!(ok.write_pct, 0);
        assert!(LoadSpec {
            write_pct: 101,
            ..ok
        }
        .validate()
        .is_err());
        assert_eq!(ok.with_write_pct(100).validate(), Ok(()));
        // Lookup-only tags carry no write fragment — pre-existing plan
        // labels must stay byte-identical.
        assert!(!ok.tag().contains('w'));
        assert!(ok.with_write_pct(20).tag().ends_with("w20"));
        assert_ne!(ok.with_write_pct(20).tag(), ok.with_write_pct(50).tag());
    }

    #[test]
    fn total_arrivals_multiplies() {
        let spec = LoadSpec {
            tenants: 3,
            arrivals_per_tenant: 7,
            ..LoadSpec::default()
        };
        assert_eq!(spec.total_arrivals(), 21);
    }
}
