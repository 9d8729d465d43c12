//! Tenant-to-lane sharding for the multi-core chip.
//!
//! Tenants are hash-sharded across core lanes with a multiplicative
//! (splitmix-style) hash rather than a plain modulo, so adjacent tenant ids
//! spread across lanes instead of striping. The mapping is a pure function
//! of `(tenant, lanes)`, and each lane draws only its own tenants' streams
//! ([`crate::lane_arrivals`]); since every tenant's substream is seeded
//! independently, sharding changes which lane serves a query but never the
//! query's arrival cycle, job, or seed.

/// The core lane serving `tenant` on a chip of `lanes` lanes.
///
/// # Panics
///
/// Panics if `lanes` is zero.
pub fn lane_of_tenant(tenant: u32, lanes: u32) -> u32 {
    assert!(lanes > 0, "a chip needs at least one lane");
    let h = (tenant as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23);
    (h % lanes as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lane_takes_every_tenant() {
        for t in 0..64 {
            assert_eq!(lane_of_tenant(t, 1), 0);
        }
    }

    #[test]
    fn sharding_is_deterministic_and_in_range() {
        for lanes in [2, 3, 4, 8] {
            for t in 0..64 {
                let lane = lane_of_tenant(t, lanes);
                assert!(lane < lanes);
                assert_eq!(lane, lane_of_tenant(t, lanes));
            }
        }
    }

    #[test]
    fn every_lane_gets_work_at_scale() {
        // With tenants ≥ 4× lanes the hash leaves no lane idle.
        for lanes in [2u32, 4, 8] {
            let mut counts = vec![0u32; lanes as usize];
            for t in 0..4 * lanes {
                counts[lane_of_tenant(t, lanes) as usize] += 1;
            }
            assert!(
                counts.iter().all(|&c| c > 0),
                "lanes {lanes}: empty lane in {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let _ = lane_of_tenant(0, 0);
    }
}
