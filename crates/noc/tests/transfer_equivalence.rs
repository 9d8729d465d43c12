//! Property test: [`Mesh::transfer`], which walks the XY route in place and
//! divides once per transfer, prices exactly like the formula it replaced —
//! an allocated route and a utilization division per link. Both are driven
//! with the same random `(a, b, bytes, now)` sequences, device tile,
//! same-tile transfers, `now = 0` and installed foreign traffic included,
//! and every latency, [`Mesh::stats`], [`Mesh::link_traffic`] and
//! [`Mesh::foreign_delay_cycles`] must agree.

use qei_config::{Cycles, MachineConfig, SimRng};
use qei_noc::{Mesh, Tile};

/// The pre-rewrite transfer, kept as the reference model.
struct Reference {
    width: u32,
    height: u32,
    cores: u32,
    hop_latency: u64,
    link_bytes_per_cycle: f64,
    link_bytes: Vec<u64>,
    foreign_bytes: Vec<u64>,
    foreign_horizon: u64,
    foreign_delay_cycles: u64,
    messages: u64,
    bytes: u64,
    hops: u64,
    /// Transfers priced with congestion, and with the 0.98 clamp hit.
    congested: u64,
    clamped: u64,
}

impl Reference {
    fn new(config: &MachineConfig) -> Self {
        let width = config.mesh_width;
        let height = config.mesh_height() + 1;
        let links = 2 * ((width - 1) * height + width * (height - 1)) as usize;
        Reference {
            width,
            height,
            cores: config.cores,
            hop_latency: config.noc_hop_latency,
            link_bytes_per_cycle: config.noc_link_bytes_per_cycle,
            link_bytes: vec![0; links],
            foreign_bytes: Vec::new(),
            foreign_horizon: 0,
            foreign_delay_cycles: 0,
            messages: 0,
            bytes: 0,
            hops: 0,
            congested: 0,
            clamped: 0,
        }
    }

    fn set_foreign_traffic(&mut self, bytes: &[u64], horizon: u64) {
        if bytes.is_empty() || horizon == 0 {
            self.foreign_bytes.clear();
            self.foreign_horizon = 0;
        } else {
            self.foreign_bytes = bytes.to_vec();
            self.foreign_horizon = horizon;
        }
    }

    fn coords(&self, t: Tile) -> (u32, u32) {
        if t.0 == self.cores {
            (self.width / 2, self.height - 1)
        } else {
            (t.0 % self.width, t.0 / self.width)
        }
    }

    fn link_id(&self, x: u32, y: u32, dx: i32, dy: i32) -> usize {
        let (w, h) = (self.width as usize, self.height as usize);
        let (x, y) = (x as usize, y as usize);
        let east = (w - 1) * h;
        let south = w * (h - 1);
        match (dx, dy) {
            (1, 0) => y * (w - 1) + x,
            (-1, 0) => east + y * (w - 1) + (x - 1),
            (0, 1) => 2 * east + y * w + x,
            (0, -1) => 2 * east + south + (y - 1) * w + x,
            _ => unreachable!(),
        }
    }

    fn route(&self, a: Tile, b: Tile) -> Vec<usize> {
        let (mut x, mut y) = self.coords(a);
        let (bx, by) = self.coords(b);
        let mut links = Vec::new();
        while x != bx {
            let dx = if bx > x { 1 } else { -1 };
            links.push(self.link_id(x, y, dx, 0));
            x = x.wrapping_add_signed(dx);
        }
        while y != by {
            let dy = if by > y { 1 } else { -1 };
            links.push(self.link_id(x, y, 0, dy));
            y = y.wrapping_add_signed(dy);
        }
        links
    }

    fn transfer(&mut self, a: Tile, b: Tile, bytes: u64, now_cycles: u64) -> Cycles {
        self.messages += 1;
        self.bytes += bytes;
        let ((ax, ay), (bx, by)) = (self.coords(a), self.coords(b));
        let hops = u64::from(ax.abs_diff(bx) + ay.abs_diff(by));
        self.hops += hops;
        if a == b {
            return Cycles::ZERO;
        }
        let mut worst_util: f64 = 0.0;
        let mut worst_own_util: f64 = 0.0;
        for link in self.route(a, b) {
            self.link_bytes[link] += bytes;
            if now_cycles > 0 {
                let foreign = self
                    .foreign_bytes
                    .get(link)
                    .map(|b| b.saturating_mul(now_cycles))
                    .and_then(|scaled| scaled.checked_div(self.foreign_horizon))
                    .unwrap_or(0);
                let own = self.link_bytes[link];
                let load = own + foreign;
                let cap = self.link_bytes_per_cycle * now_cycles as f64;
                worst_util = worst_util.max((load as f64 / cap).min(0.98));
                worst_own_util = worst_own_util.max((own as f64 / cap).min(0.98));
            }
        }
        let base = hops * self.hop_latency;
        let serialize = (bytes as f64 / self.link_bytes_per_cycle).ceil() as u64;
        let congestion = (base as f64 * worst_util / (1.0 - worst_util)) as u64;
        let own_congestion = (base as f64 * worst_own_util / (1.0 - worst_own_util)) as u64;
        self.foreign_delay_cycles += congestion - own_congestion.min(congestion);
        self.congested += u64::from(congestion > 0);
        self.clamped += u64::from(worst_util == 0.98);
        Cycles(base + serialize + congestion)
    }
}

fn assert_same(mesh: &Mesh, reference: &Reference, at: &str) {
    let stats = mesh.stats();
    assert_eq!(stats.messages, reference.messages, "messages {at}");
    assert_eq!(stats.bytes, reference.bytes, "bytes {at}");
    assert_eq!(stats.hops, reference.hops, "hops {at}");
    assert_eq!(mesh.link_traffic(), reference.link_bytes, "links {at}");
    assert_eq!(
        mesh.foreign_delay_cycles(),
        reference.foreign_delay_cycles,
        "foreign delay {at}"
    );
}

/// One random sequence on `config`. `now` mostly advances slowly from a
/// small start, so links run from idle to saturated (the 0.98 clamp);
/// about one transfer in 16 happens at `now = 0` and one in 8 stays on its
/// tile. Halfway through, foreign traffic from a busy lane is installed.
/// Returns the reference's `(congested, clamped, foreign delay)` totals.
fn drive(config: &MachineConfig, seed: u64, transfers: usize) -> (u64, u64, u64) {
    let mut mesh = Mesh::new(config);
    let mut reference = Reference::new(config);
    let mut rng = SimRng::seed_from_u64(seed);
    let tiles = u64::from(config.cores) + 1; // the device tile is the last
    let mut now = rng.below(64);
    for step in 0..transfers {
        if step == transfers / 2 {
            let mut busy = Mesh::new(config);
            for _ in 0..2_000 {
                let (a, b) = (rng.below(tiles) as u32, rng.below(tiles) as u32);
                busy.transfer(Tile(a), Tile(b), 64, 1 + rng.below(5_000));
            }
            let horizon = 1 + rng.below(20_000);
            mesh.set_foreign_traffic(&busy.link_traffic(), horizon);
            reference.set_foreign_traffic(&busy.link_traffic(), horizon);
        }
        let a = rng.below(tiles) as u32;
        let b = if rng.below(8) == 0 {
            a
        } else {
            rng.below(tiles) as u32
        };
        let bytes = [16, 64, 128, 1 + rng.below(4096)][rng.below(4) as usize];
        now += rng.below(40);
        let at = if rng.below(16) == 0 { 0 } else { now };
        let got = mesh.transfer(Tile(a), Tile(b), bytes, at);
        let want = reference.transfer(Tile(a), Tile(b), bytes, at);
        assert_eq!(
            got, want,
            "transfer({a}, {b}, {bytes}, {at}) at step {step}"
        );
    }
    assert_same(&mesh, &reference, &format!("seed {seed}"));
    (
        reference.congested,
        reference.clamped,
        reference.foreign_delay_cycles,
    )
}

#[test]
fn in_place_route_prices_like_the_per_link_formula() {
    let paper = MachineConfig::skylake_sp_24();
    // A narrower mesh with a partial last row, and slow and fast links.
    let mut narrow = MachineConfig::skylake_sp_24();
    narrow.cores = 10;
    narrow.mesh_width = 4;
    narrow.noc_link_bytes_per_cycle = 0.75;
    let mut fast = MachineConfig::skylake_sp_24();
    fast.noc_link_bytes_per_cycle = 1e6;
    let mut totals = (0, 0, 0);
    for (i, config) in [paper, narrow, fast].iter().enumerate() {
        for seed in 0..4u64 {
            let (congested, clamped, foreign) = drive(config, seed * 13 + i as u64, 6_000);
            totals = (totals.0 + congested, totals.1 + clamped, totals.2 + foreign);
        }
    }
    // The sequences reach every pricing regime the fold must preserve.
    let (congested, clamped, foreign) = totals;
    assert!(congested > 1_000, "only {congested} congested transfers");
    assert!(clamped > 100, "only {clamped} clamped transfers");
    assert!(foreign > 0, "foreign traffic never priced");
}
