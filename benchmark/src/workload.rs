//! The four workloads and the seeded inputs they are made of.
//!
//! `--seed` is the only input a workload takes. Every tenant's stream comes
//! from `spot_data::SyntheticGenerator` with its default shape (4 clusters,
//! 2 % planted 2-d projected outliers); the detector under test sees only
//! the generated points, never the labels.
//!
//! A workload is one *scenario*: where the clusters lie and which subspaces
//! the outliers are planted in is part of the workload, like ϕ, and does
//! not change with the seed. The seed picks the *sample*: which of the
//! scenario's independent draws make up the stream. (With the scenario
//! itself re-drawn per seed, throughput at ϕ=64 moved by 16 % and F1 by
//! 11 % between seeds — the benchmark would have compared scenarios, not
//! commits.)

use spot::{Spot, SpotBuilder, SpotConfig};
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_runtime::TenantId;
use spot_types::DataPoint;

/// Which public entry the workload's points go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `Spot::process_batch` in [`CHUNK`]-point chunks, one thread.
    Batch,
    /// `Spot::process`, one point a call, one thread.
    Point,
    /// `SpotFleet::ingest` + `pump` with WAL, archive and delta checkpoints.
    Fleet,
    /// `ServeClient::ingest` over loopback HTTP into a pumping `SpotServer`.
    Serve,
}

#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub phi: usize,
    pub fs_max_dimension: usize,
    pub tenants: usize,
    pub path: Path,
    /// Points per second of `--seconds` the closed-loop part is sized for:
    /// the stream length is `nominal_rate × seconds`, fixed by the
    /// arguments alone so that counts repeat exactly on any machine and
    /// commit. Chosen so a run measures for about `--seconds` on the
    /// 2-core box the baseline was taken on.
    pub nominal_rate: u64,
    /// Share of the closed-loop stream that runs untimed before the first
    /// timed segment.
    pub warmup_share: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "detect_batch_phi16",
        why: "Spot::process_batch, 256-pt chunks, phi=16, 136 FS+CS subspaces: projected-store probes and the commit phase do the work; runtime and serve do none",
        phi: 16,
        fs_max_dimension: 2,
        tenants: 1,
        path: Path::Batch,
        nominal_rate: 85_000,
        warmup_share: 0.1,
    },
    Workload {
        name: "detect_point_phi64",
        why: "Spot::process one point a call, phi=64, 64 FS+CS subspaces: no run batching, wide key, quantize and base-store/prune dominate; a batch-only or narrow-phi gain does nothing here",
        phi: 64,
        fs_max_dimension: 1,
        tenants: 1,
        path: Path::Point,
        nominal_rate: 80_000,
        // At ϕ=64 throughput climbs for the first ~800k points (81k → 97k
        // pts/s); timing the climb would make the median depend on which
        // segments a noisy neighbour happened to slow down.
        warmup_share: 0.5,
    },
    Workload {
        name: "fleet_durable_4t",
        why: "SpotFleet ingest+pump, 4 tenants, WAL fsync/256, verdict archive, delta checkpoints, crash recovery: a cheap SST makes the runtime layers a third of the cost",
        phi: 16,
        fs_max_dimension: 1,
        tenants: 4,
        path: Path::Fleet,
        nominal_rate: 45_000,
        warmup_share: 0.1,
    },
    Workload {
        name: "serve_http_4t",
        why: "SpotServer with the pump on, 2 keep-alive clients, 16-pt POSTs, 4 tenants: the only workload in which HTTP parse, JSON decode, router and admission run",
        phi: 16,
        fs_max_dimension: 1,
        tenants: 4,
        path: Path::Serve,
        nominal_rate: 50_000,
        warmup_share: 0.1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Points per `process_batch` call and per generated sub-block.
pub const CHUNK: usize = 256;
/// Normal points each detector learns from.
pub const TRAINING_POINTS: usize = 2_000;
/// Timed segments per closed-loop phase; a throughput is their median.
/// Twenty, because the box's noise comes in bursts of seconds: the median
/// of many short segments shrugs off a burst that the median of five long
/// ones would land in.
pub const SEGMENTS: usize = 20;
/// The open-loop phases' fixed arrival rate (points per second).
pub const OPEN_LOOP_RATE: u64 = 40_000;
/// Points per HTTP ingest request.
pub const POST_POINTS: usize = 16;

pub fn tenant_id(t: usize) -> TenantId {
    TenantId::new(format!("t{t}")).expect("static tenant ids are valid")
}

/// Index of a tenant id made by [`tenant_id`].
pub fn tenant_index(id: &TenantId) -> usize {
    id.as_str()[1..]
        .parse()
        .expect("benchmark tenant ids are t<index>")
}

/// A generated stretch of one tenant's stream with its ground truth.
pub struct Block {
    pub points: Vec<DataPoint>,
    pub planted: Vec<bool>,
}

/// The generator seed of tenant 0's scenario; co-tenants get their own.
const SCENARIO_SEED: u64 = 42;

/// SplitMix64: the benchmark's own coin for picking the sample.
struct Coin(u64);

impl Coin {
    /// `true` three times in four.
    fn keep(&mut self) -> bool {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & 3 != 0
    }
}

/// One tenant's seeded stream. Two streams built from the same arguments
/// yield the same points, which is how reference detectors are fed "the
/// same input" without keeping it in memory.
///
/// The generator's draws are independent given the scenario, so keeping
/// each with probability ¾ on a coin seeded by `--seed` yields, for every
/// seed, another sample of the same scenario (¾ rather than ½ because
/// every dropped draw is generation time the run pays for).
pub struct TenantStream {
    gen: SyntheticGenerator,
    coin: Coin,
    config: SpotConfig,
}

impl TenantStream {
    pub fn new(w: &Workload, seed: u64, tenant: usize) -> Self {
        let scenario = SCENARIO_SEED + 1000 * tenant as u64;
        let gen = SyntheticGenerator::new(SyntheticConfig {
            dims: w.phi,
            seed: scenario,
            ..SyntheticConfig::default()
        })
        .expect("workload shapes are valid generator configs");
        // Everything but ϕ, the FS depth and the seed is the detector's
        // default: self-evolution, pruning and drift response stay on. The
        // detector's own RNG seed is configuration, not input.
        let config = SpotBuilder::new(gen.bounds())
            .fs_max_dimension(w.fs_max_dimension)
            .seed(scenario)
            .build_config()
            .expect("workload shapes are valid detector configs");
        let coin = Coin(seed ^ (tenant as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        TenantStream { gen, coin, config }
    }

    pub fn config(&self) -> &SpotConfig {
        &self.config
    }

    /// The training batch; call once, before any [`TenantStream::block`].
    pub fn training(&mut self) -> Vec<DataPoint> {
        let mut training = Vec::with_capacity(TRAINING_POINTS);
        while training.len() < TRAINING_POINTS {
            let candidate = self.gen.generate_normal(1);
            if self.coin.keep() {
                training.extend(candidate);
            }
        }
        training
    }

    fn record(&mut self) -> (DataPoint, bool) {
        loop {
            let record = self.gen.next().expect("the generator is unbounded");
            if self.coin.keep() {
                let planted = record.is_anomaly();
                return (record.point, planted);
            }
        }
    }

    pub fn block(&mut self, n: usize) -> Block {
        let mut points = Vec::with_capacity(n);
        let mut planted = Vec::with_capacity(n);
        for _ in 0..n {
            let (point, is_planted) = self.record();
            planted.push(is_planted);
            points.push(point);
        }
        Block { points, planted }
    }

    /// The next point alone, for generators that stay one point ahead of an
    /// open-loop schedule.
    pub fn point(&mut self) -> DataPoint {
        self.record().0
    }

    /// A stream positioned after its training batch, and a standalone
    /// detector that has learned from it.
    pub fn with_learned_spot(w: &Workload, seed: u64, tenant: usize) -> (Self, Spot) {
        let mut stream = TenantStream::new(w, seed, tenant);
        let training = stream.training();
        let mut spot = Spot::new(stream.config.clone()).expect("validated config");
        spot.learn(&training)
            .expect("training batch is well-formed");
        (stream, spot)
    }
}

/// Rounds `n` down to a multiple of `unit`, but never below `unit`.
pub fn round_down(n: u64, unit: u64) -> u64 {
    (n / unit * unit).max(unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let w = find("detect_batch_phi16").unwrap();
        let (mut a, mut b) = (TenantStream::new(w, 7, 0), TenantStream::new(w, 7, 0));
        assert_eq!(a.training(), b.training());
        let (x, y) = (a.block(300), b.block(300));
        assert_eq!(x.points, y.points);
        assert_eq!(x.planted, y.planted);
        let mut other = TenantStream::new(w, 8, 0);
        other.training();
        assert_ne!(other.block(300).points, x.points);
        // Co-tenants of one seed get different streams.
        let mut co = TenantStream::new(w, 7, 1);
        co.training();
        assert_ne!(co.block(300).points, x.points);
    }

    #[test]
    fn tenant_ids_round_trip() {
        for t in [0, 3, 12] {
            assert_eq!(tenant_index(&tenant_id(t)), t);
        }
    }
}
