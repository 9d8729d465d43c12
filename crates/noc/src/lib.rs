//! 2-D mesh network-on-chip timing model.
//!
//! Every core tile hosts a core, an LLC slice, and its CHA; Device-based
//! integration schemes add a dedicated accelerator tile. Messages are routed
//! XY; each link accumulates traffic so that utilization-driven congestion
//! (the paper's hotspot discussion, §V) inflates latency on busy routes.
//!
//! # Example
//!
//! ```
//! use qei_noc::{Mesh, Tile};
//! use qei_config::MachineConfig;
//!
//! let mut noc = Mesh::new(&MachineConfig::skylake_sp_24());
//! let lat = noc.transfer(Tile(0), Tile(23), 64, 0);
//! assert!(lat.as_u64() > 0);
//! ```

#![forbid(unsafe_code)]
use qei_config::{Cycles, MachineConfig};
use qei_trace::{Event, EventBuf, EventKind, TRACK_NOC};
use std::iter::StepBy;
use std::ops::Range;

/// Identifier of a mesh tile. Tiles `0..cores` are core tiles; the optional
/// device tile (for Device-based schemes) is tile `cores`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tile(pub u32);

/// Aggregate NoC statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct NocStats {
    /// Total messages routed.
    pub messages: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total hop count across all messages.
    pub hops: u64,
}

impl NocStats {
    /// Exports the NoC counters into the run's central registry under the
    /// `noc` group.
    pub fn export_stats(&self, reg: &mut qei_config::StatsRegistry) {
        reg.set("noc", "messages", self.messages);
        reg.set("noc", "bytes", self.bytes);
        reg.set("noc", "hops", self.hops);
    }
}

/// The mesh NoC timing model.
///
/// Per-link traffic lives in a flat arena indexed by a dense link id (four
/// direction classes over the `width × height` grid), not a hash map: the
/// hot `transfer` path avoids hashing, and every traffic walk iterates in
/// link-id order — deterministic regardless of hasher state, which keeps
/// float reductions like [`Mesh::mean_link_utilization`] byte-stable.
#[derive(Debug)]
pub struct Mesh {
    width: u32,
    height: u32,
    cores: u32,
    /// `(x, y)` of every tile, the device tile last: built once so routing
    /// does no division.
    tile_xy: Box<[(u32, u32)]>,
    hop_latency: u64,
    link_bytes_per_cycle: f64,
    link_bytes: Vec<u64>,
    /// Per-link byte totals other chip lanes put on the *shared* mesh over
    /// their warm-up horizon (empty outside multi-core measured passes).
    /// During congestion pricing the totals are prorated to `now` and added
    /// to this lane's own counters, so cross-lane traffic inflates link
    /// utilization deterministically without lanes sharing mutable state.
    foreign_bytes: Vec<u64>,
    /// Horizon (cycles) over which `foreign_bytes` accumulated; 0 disables
    /// foreign pressure.
    foreign_horizon: u64,
    /// Extra congestion cycles attributable to foreign traffic: the
    /// difference between each transfer's priced latency and what it would
    /// have cost on a private mesh. The chip reports this as the NoC share
    /// of a lane's contention cycles.
    foreign_delay_cycles: u64,
    stats: NocStats,
    /// Hop event ring (no-op unless tracing is enabled).
    trace: EventBuf,
}

impl Mesh {
    /// Builds the mesh from the machine configuration.
    pub fn new(config: &MachineConfig) -> Self {
        let width = config.mesh_width;
        // One extra row hosts the device tile.
        let height = config.mesh_height() + 1;
        // Directed links: east + west on each row, south + north in each
        // column.
        let links = 2 * ((width - 1) * height + width * (height - 1)) as usize;
        // Device tile: the extra row, centre column — a single NoC stop, as
        // the paper describes for Device-direct.
        let tile_xy = (0..config.cores)
            .map(|t| (t % width, t / width))
            .chain([(width / 2, height - 1)])
            .collect();
        Mesh {
            width,
            height,
            cores: config.cores,
            tile_xy,
            hop_latency: config.noc_hop_latency,
            link_bytes_per_cycle: config.noc_link_bytes_per_cycle,
            link_bytes: vec![0; links],
            foreign_bytes: Vec::new(),
            foreign_horizon: 0,
            foreign_delay_cycles: 0,
            stats: NocStats::default(),
            trace: EventBuf::new(),
        }
    }

    /// Snapshot of the per-link byte counters (the warm-up profile other
    /// lanes' meshes install as foreign traffic).
    pub fn link_traffic(&self) -> Vec<u64> {
        self.link_bytes.clone()
    }

    /// Installs the other lanes' per-link traffic totals, accumulated over
    /// `horizon` cycles; an empty slice or zero horizon disables foreign
    /// pressure. Survives [`Mesh::reset_traffic`], which only clears this
    /// lane's own accounting.
    pub fn set_foreign_traffic(&mut self, bytes: &[u64], horizon: u64) {
        if bytes.is_empty() || horizon == 0 {
            self.foreign_bytes.clear();
            self.foreign_horizon = 0;
        } else {
            assert_eq!(bytes.len(), self.link_bytes.len(), "link arena mismatch");
            self.foreign_bytes = bytes.to_vec();
            self.foreign_horizon = horizon;
        }
    }

    /// The dedicated device tile (used by Device-based schemes).
    pub fn device_tile(&self) -> Tile {
        Tile(self.cores)
    }

    /// Coordinates of a tile.
    ///
    /// # Panics
    ///
    /// Panics if the tile id is out of range.
    pub fn coords(&self, t: Tile) -> (u32, u32) {
        match self.tile_xy.get(t.0 as usize) {
            Some(&xy) => xy,
            None => panic!("tile {} out of range", t.0),
        }
    }

    /// Manhattan hop distance between two tiles.
    pub fn hops(&self, a: Tile, b: Tile) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Base (uncongested) latency between two tiles.
    pub fn base_latency(&self, a: Tile, b: Tile) -> Cycles {
        Cycles(self.hops(a, b) as u64 * self.hop_latency)
    }

    /// Routes `bytes` from `a` to `b` at time `now_cycles`, accounting the
    /// traffic on every XY-route link, and returns the transfer latency
    /// including congestion inflation.
    ///
    /// `now_cycles` is the simulation time at which the transfer happens; it
    /// is used to convert accumulated per-link byte counts into utilization.
    ///
    /// The route is walked in place as two runs of link ids — the row leg
    /// is contiguous, the column leg strided by the mesh width — keeping
    /// only the largest load. Congestion prices the most loaded link,
    /// `min(load / cap, 0.98)`; u64 → f64 conversion, correctly rounded
    /// division by one positive `cap`, and `min` are all monotone, so the
    /// utilization of the largest load is the largest per-link utilization:
    /// one division per priced load (total and own), not one per link.
    pub fn transfer(&mut self, a: Tile, b: Tile, bytes: u64, now_cycles: u64) -> Cycles {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let hops = (ax.abs_diff(bx) + ay.abs_diff(by)) as u64;
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        self.stats.hops += hops;
        self.trace
            .emit(now_cycles, TRACK_NOC, EventKind::NocHop, hops, bytes);
        if a == b {
            return Cycles::ZERO;
        }
        let (row, column) = self.route_legs((ax, ay), (bx, by));
        let mut max_load = 0u64;
        let mut max_own = 0u64;
        let mut visit = |link: usize| {
            self.link_bytes[link] += bytes;
            if now_cycles > 0 {
                // Cross-lane mesh sharing: other lanes' warm-up traffic on
                // this link, prorated to `now` (integer math, so the
                // inflation is deterministic and zero when no chip installed
                // foreign traffic).
                let foreign = self
                    .foreign_bytes
                    .get(link)
                    .map(|b| b.saturating_mul(now_cycles))
                    .and_then(|scaled| scaled.checked_div(self.foreign_horizon))
                    .unwrap_or(0);
                let own = self.link_bytes[link];
                max_load = max_load.max(own + foreign);
                max_own = max_own.max(own);
            }
        };
        row.for_each(&mut visit);
        column.for_each(&mut visit);
        let base = hops * self.hop_latency;
        // M/M/1-flavoured queueing inflation on the most loaded link; none
        // before any time has elapsed.
        let inflation = |load: u64| {
            if now_cycles == 0 {
                return 0;
            }
            let cap = self.link_bytes_per_cycle * now_cycles as f64;
            let util = 0.0f64.max((load as f64 / cap).min(0.98));
            (base as f64 * util / (1.0 - util)) as u64
        };
        let congestion = inflation(max_load);
        // The share a private mesh would not have charged is contention.
        let own_congestion = inflation(max_own);
        self.foreign_delay_cycles += congestion - own_congestion.min(congestion);
        // Serialization of the payload onto a link (cache line = 64 B).
        let serialize = (bytes as f64 / self.link_bytes_per_cycle).ceil() as u64;
        Cycles(base + serialize + congestion)
    }

    /// Current utilization of the most loaded link (0 when no time elapsed).
    pub fn peak_link_utilization(&self, now_cycles: u64) -> f64 {
        if now_cycles == 0 {
            return 0.0;
        }
        let peak = self.link_bytes.iter().copied().max().unwrap_or(0);
        peak as f64 / (self.link_bytes_per_cycle * now_cycles as f64)
    }

    /// Mean utilization across links that carried any traffic.
    pub fn mean_link_utilization(&self, now_cycles: u64) -> f64 {
        if now_cycles == 0 {
            return 0.0;
        }
        // Sum the integer byte counters (exact, order-free) and divide once.
        let (active, total) = self
            .link_bytes
            .iter()
            .filter(|&&b| b > 0)
            .fold((0u64, 0u64), |(n, t), &b| (n + 1, t + b));
        if active == 0 {
            return 0.0;
        }
        let cap = self.link_bytes_per_cycle * now_cycles as f64;
        total as f64 / cap / active as f64
    }

    /// Whether traffic concentrates on a hotspot: peak link utilization is
    /// many times the mean (the signature of the centralized Device schemes).
    pub fn has_hotspot(&self, now_cycles: u64) -> bool {
        let mean = self.mean_link_utilization(now_cycles);
        mean > 0.0 && self.peak_link_utilization(now_cycles) > 4.0 * mean
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Clears traffic accounting (between experiment phases).
    pub fn reset_traffic(&mut self) {
        self.link_bytes.fill(0);
        self.stats = NocStats::default();
        self.trace.clear();
        self.foreign_delay_cycles = 0;
    }

    /// Extra congestion cycles foreign (cross-lane) traffic added since the
    /// last [`Mesh::reset_traffic`]; zero on a private mesh.
    pub fn foreign_delay_cycles(&self) -> u64 {
        self.foreign_delay_cycles
    }

    /// Takes the buffered hop events plus the overwrite count, leaving the
    /// buffer empty.
    pub fn drain_trace(&mut self) -> (Vec<Event>, u64) {
        self.trace.drain()
    }

    /// The XY route from `(ax, ay)` to `(bx, by)` as its two legs of dense
    /// link ids: the row leg (along `ay`) and then the column leg (along
    /// `bx`). Ids partition into four direction classes — east, west,
    /// south, north — laid out row-major, so a row leg is a contiguous run
    /// and a column leg a run strided by the mesh width.
    fn route_legs(
        &self,
        (ax, ay): (u32, u32),
        (bx, by): (u32, u32),
    ) -> (Range<usize>, StepBy<Range<usize>>) {
        let (w, h) = (self.width as usize, self.height as usize);
        let [ax, ay, bx, by] = [ax, ay, bx, by].map(|c| c as usize);
        let east = (w - 1) * h;
        let south = w * (h - 1);
        // The link leaving `(x, y)` eastward is `y * (w - 1) + x`; westward
        // from `x + 1`, `east + y * (w - 1) + x`.
        let row = if bx > ax {
            ay * (w - 1) + ax..ay * (w - 1) + bx
        } else {
            east + ay * (w - 1) + bx..east + ay * (w - 1) + ax
        };
        // Southward from `(x, y)`: `2 * east + y * w + x`; northward from
        // `(x, y + 1)`: `2 * east + south + y * w + x`.
        let column = if by > ay {
            2 * east + ay * w + bx..2 * east + by * w + bx
        } else {
            2 * east + south + by * w + bx..2 * east + south + ay * w + bx
        };
        (row, column.step_by(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(&MachineConfig::skylake_sp_24())
    }

    #[test]
    fn geometry() {
        let m = mesh();
        assert_eq!(m.coords(Tile(0)), (0, 0));
        assert_eq!(m.coords(Tile(5)), (5, 0));
        assert_eq!(m.coords(Tile(6)), (0, 1));
        assert_eq!(m.coords(Tile(23)), (5, 3));
        // Device tile is a single stop in the extra row.
        assert_eq!(m.coords(m.device_tile()), (3, 4));
    }

    #[test]
    fn hop_distance_symmetric() {
        let m = mesh();
        for a in 0..24 {
            for b in 0..24 {
                assert_eq!(m.hops(Tile(a), Tile(b)), m.hops(Tile(b), Tile(a)));
            }
        }
        assert_eq!(m.hops(Tile(0), Tile(0)), 0);
        assert_eq!(m.hops(Tile(0), Tile(23)), 5 + 3);
    }

    #[test]
    fn transfer_latency_scales_with_distance() {
        let mut m = mesh();
        let near = m.transfer(Tile(0), Tile(1), 64, 0);
        let far = m.transfer(Tile(0), Tile(23), 64, 0);
        assert!(far > near);
        assert_eq!(m.stats().messages, 2);
        assert_eq!(m.stats().bytes, 128);
    }

    #[test]
    fn same_tile_is_free() {
        let mut m = mesh();
        assert_eq!(m.transfer(Tile(3), Tile(3), 64, 100), Cycles::ZERO);
    }

    #[test]
    fn congestion_inflates_latency() {
        let mut m = mesh();
        let quiet = m.base_latency(Tile(0), Tile(23));
        // Hammer one route with traffic far beyond link capacity.
        let mut last = Cycles::ZERO;
        for _ in 0..10_000 {
            last = m.transfer(Tile(0), Tile(23), 64, 1_000);
        }
        assert!(last > quiet, "congested {last} should exceed quiet {quiet}");
        assert!(m.peak_link_utilization(1_000) > 0.5);
    }

    #[test]
    fn centralized_traffic_creates_hotspot() {
        let mut m = mesh();
        let dev = m.device_tile();
        for core in 0..24 {
            for _ in 0..50 {
                m.transfer(Tile(core), dev, 64, 100_000);
            }
        }
        assert!(m.has_hotspot(100_000));

        // Distributed all-to-all traffic does not.
        let mut d = mesh();
        for a in 0..24 {
            for b in 0..24 {
                if a != b {
                    d.transfer(Tile(a), Tile(b), 64, 100_000);
                }
            }
        }
        assert!(!d.has_hotspot(100_000));
    }

    #[test]
    fn foreign_traffic_inflates_congestion_deterministically() {
        let mut quiet = mesh();
        let mut shared = mesh();
        // Build the foreign profile: a busy lane hammering the same route.
        let mut other = mesh();
        for _ in 0..20_000 {
            other.transfer(Tile(0), Tile(23), 64, 1_000);
        }
        shared.set_foreign_traffic(&other.link_traffic(), 1_000);
        let lone = quiet.transfer(Tile(0), Tile(23), 64, 1_000);
        let contended = shared.transfer(Tile(0), Tile(23), 64, 1_000);
        assert!(contended > lone, "{contended} vs {lone}");
        // The extra cycles are attributed to foreign traffic; a private
        // mesh charges none.
        assert_eq!(
            shared.foreign_delay_cycles(),
            contended.as_u64() - lone.as_u64()
        );
        assert_eq!(quiet.foreign_delay_cycles(), 0);
        // Foreign pressure survives an epoch reset (it is installed
        // configuration, not this lane's accounting) ...
        shared.reset_traffic();
        assert!(shared.transfer(Tile(0), Tile(23), 64, 1_000) > lone);
        // ... and clearing it restores the lone-lane timing.
        shared.set_foreign_traffic(&[], 0);
        shared.reset_traffic();
        assert_eq!(shared.transfer(Tile(0), Tile(23), 64, 1_000), lone);
    }

    #[test]
    fn reset_traffic_clears() {
        let mut m = mesh();
        m.transfer(Tile(0), Tile(5), 64, 10);
        m.reset_traffic();
        assert_eq!(m.stats().messages, 0);
        assert_eq!(m.peak_link_utilization(100), 0.0);
    }
}
