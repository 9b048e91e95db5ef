//! Golden trajectories of the maintenance tick, pinned from commit
//! `a16b704` (the last one with the hash-grouping objective kernel and the
//! allocating NSGA-II). The sparsity kernel and the MOGA driver may be
//! rewritten freely, but not observably: every objective is the same float
//! additions in the same order, every RNG draw happens in the same place,
//! so these digests must never move.
//!
//! (i) `MogaOutcome` — archive, final population, `evaluations`, `top_k` —
//! for three seeds on `SparsityProblem` (targeted and whole-batch) and
//! `HiddenTargetProblem`.
//! (ii) A 30 000-point synthetic stream at `evolution.period = 250`
//! through `Spot::process` and `Spot::process_batch`: every verdict plus
//! the CS/OS masks and scores after every second tick, at ϕ = 16 and
//! ϕ = 64.

use spot::{SparsityProblem, Spot, SpotBuilder, TrainingEvaluator, Verdict};
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_moga::{HiddenTargetProblem, MogaConfig, MogaOutcome, SubspaceProblem};
use spot_subspace::Subspace;
use spot_synopsis::Grid;
use spot_types::DataPoint;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn outcome_digest(out: &MogaOutcome) -> u64 {
    let mut h = Fnv::new();
    h.u64(out.evaluations as u64);
    h.u64(out.archive.len() as u64);
    for ind in &out.archive {
        h.u64(ind.subspace.mask());
        for &o in out.objectives_of(ind) {
            h.f64(o);
        }
    }
    h.u64(out.population.len() as u64);
    for ind in &out.population {
        h.u64(ind.subspace.mask());
        h.u64(ind.rank as u64);
        h.f64(ind.crowding);
        for &o in out.objectives_of(ind) {
            h.f64(o);
        }
    }
    for (s, score) in out.top_k(10) {
        h.u64(s.mask());
        h.f64(score);
    }
    h.0
}

fn run_digest<P: SubspaceProblem>(problem: &mut P, config: &MogaConfig) -> (usize, u64) {
    let out = spot_moga::run(problem, config).unwrap();
    (out.evaluations, outcome_digest(&out))
}

/// `normal` clustered points followed by `tail` generator records (2 %
/// planted outliers) — the shape of reservoir ∪ outlier buffer.
fn batch(dims: usize, normal: usize, tail: usize) -> (Grid, Vec<DataPoint>) {
    let mut gen = SyntheticGenerator::new(SyntheticConfig {
        dims,
        seed: 99,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut pts = gen.generate_normal(normal);
    pts.extend(gen.generate(tail).into_iter().map(|r| r.point));
    (Grid::new(gen.bounds(), 10).unwrap(), pts)
}

const SEEDS: [u64; 3] = [1, 7, 0xC0FFEE];

#[test]
fn moga_outcomes_on_the_sparsity_problem_are_pinned() {
    // The online shape: 320 points, the last 64 are the targets, the
    // detector's lighter MOGA configuration.
    const TARGETED: [(usize, u64); 3] = [
        (143, 0x938e357d246a9a4d),
        (163, 0xf532899f2c01c8b1),
        (187, 0xc2a45182509bc90d),
    ];
    // The learning shape: every point a target, the default configuration.
    const WHOLE: [(usize, u64); 3] = [
        (326, 0xe7497914a4a3aa8a),
        (328, 0xf7b2c0c815417364),
        (296, 0x72e2d76164210bb4),
    ];

    let (grid, pts) = batch(16, 256, 64);
    let online = TrainingEvaluator::new(grid, &pts).unwrap();
    let (grid, pts) = batch(16, 600, 0);
    let learning = TrainingEvaluator::new(grid, &pts).unwrap();
    let (mut targeted, mut whole) = (Vec::new(), Vec::new());
    for &seed in &SEEDS {
        let mut problem = SparsityProblem::for_targets(&online, (256..320).collect(), Some(4));
        let config = MogaConfig {
            population: 24,
            generations: 12,
            seed,
            ..MogaConfig::default()
        };
        targeted.push(run_digest(&mut problem, &config));

        let mut problem = SparsityProblem::whole_batch(&learning, Some(4));
        let config = MogaConfig {
            seed,
            ..MogaConfig::default()
        };
        whole.push(run_digest(&mut problem, &config));
    }
    assert_eq!(targeted, TARGETED, "targeted: {targeted:#x?}");
    assert_eq!(whole, WHOLE, "whole batch: {whole:#x?}");
}

#[test]
fn moga_outcomes_on_the_hidden_target_problem_are_pinned() {
    const HIDDEN: [(usize, u64); 3] = [
        (267, 0xacded0a4ea617ede),
        (244, 0x4a45ef8780e4c75f),
        (233, 0x0473d5750dfd70b0),
    ];
    let target = Subspace::from_dims([2, 5, 9]).unwrap();
    let mut hidden = Vec::new();
    for &seed in &SEEDS {
        let mut problem = HiddenTargetProblem::new(12, target);
        let config = MogaConfig {
            seed,
            ..MogaConfig::default()
        };
        hidden.push(run_digest(&mut problem, &config));
    }
    assert_eq!(hidden, HIDDEN, "{hidden:#x?}");
}

const STREAM_POINTS: usize = 30_000;
const PERIOD: u64 = 250;
/// Points between two looks at the SST: two maintenance ticks, so a
/// `process_batch` call spans a tick in its middle and ends on one.
const STRIDE: usize = 500;

fn learned_spot(dims: usize, fs_max_dimension: usize) -> (SyntheticGenerator, Spot) {
    let mut gen = SyntheticGenerator::new(SyntheticConfig {
        dims,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut config = SpotBuilder::new(gen.bounds())
        .fs_max_dimension(fs_max_dimension)
        .seed(42)
        .build_config()
        .unwrap();
    config.evolution.period = PERIOD;
    let mut spot = Spot::new(config).unwrap();
    spot.learn(&gen.generate_normal(2000)).unwrap();
    (gen, spot)
}

fn fold_verdict(h: &mut Fnv, v: &Verdict) {
    h.u64(v.tick);
    h.u64(u64::from(v.outlier) | u64::from(v.drift) << 1);
    h.f64(v.score);
    for f in &v.findings {
        h.u64(f.subspace.mask());
        h.f64(f.rd);
        h.f64(f.irsd);
    }
}

fn fold_sst(h: &mut Fnv, spot: &Spot) {
    let (_, cs, os) = spot.sst().sizes();
    h.u64(cs as u64);
    for e in spot.sst().cs() {
        h.u64(e.subspace.mask());
        h.f64(e.score);
    }
    h.u64(os as u64);
    for e in spot.sst().os() {
        h.u64(e.subspace.mask());
        h.f64(e.score);
    }
}

/// `(digest, evolutions, os_added, outliers)` of the stream fed through
/// the per-point path or the batch path.
fn trajectory(dims: usize, fs_max_dimension: usize, batched: bool) -> (u64, u64, u64, u64) {
    let (mut gen, mut spot) = learned_spot(dims, fs_max_dimension);
    let mut h = Fnv::new();
    for _ in 0..STREAM_POINTS / STRIDE {
        let points: Vec<DataPoint> = gen.generate(STRIDE).into_iter().map(|r| r.point).collect();
        if batched {
            for v in spot.process_batch(&points).unwrap() {
                fold_verdict(&mut h, &v);
            }
        } else {
            for p in &points {
                fold_verdict(&mut h, &spot.process(p).unwrap());
            }
        }
        fold_sst(&mut h, &spot);
    }
    let stats = spot.stats();
    (h.0, stats.evolutions, stats.os_added, stats.outliers)
}

#[test]
fn stream_trajectory_at_phi16_is_pinned() {
    const WANT: (u64, u64, u64, u64) = (0x0d3b_5dc0_35b2_7442, 120, 73, 2222);
    let point = trajectory(16, 2, false);
    let batch = trajectory(16, 2, true);
    assert_eq!(point, WANT, "Spot::process");
    assert_eq!(batch, WANT, "Spot::process_batch");
}

#[test]
fn stream_trajectory_at_phi64_is_pinned() {
    const WANT: (u64, u64, u64, u64) = (0x4a25_0d06_ad65_316d, 120, 89, 4457);
    let point = trajectory(64, 1, false);
    let batch = trajectory(64, 1, true);
    assert_eq!(point, WANT, "Spot::process");
    assert_eq!(batch, WANT, "Spot::process_batch");
}
