//! A naive per-point SPOT, and the detector checked against it bit for
//! bit.
//!
//! The oracle takes a frozen SST (self-evolution and drift off) from a
//! learned `Spot` and replays the learning stage's warm-up at ticks 1..n.
//! Everything else it recomputes in the plainest form it has:
//! quantization; one `BTreeMap` of cells per subspace, keyed by the
//! projected coordinates; decay by `TimeModel::weight_after` (`powi`) at
//! every touch and prune; the global weight as the per-point recurrence;
//! RD and IRSD from a cell's count and moments; and the verdict rule in one
//! function, [`verdict`]. There is no run loop, no slot index and no weight
//! table. `Spot::process` and `Spot::process_batch` at chunks of 1, 7 and
//! 256 must each reproduce its verdicts: the flag, the score's bits, and
//! every finding (subspace, RD and IRSD bits, order).

use spot::subspace::Subspace;
use spot::types::DataPoint;
use spot::{
    DriftConfig, EvolutionConfig, Spot, SpotBuilder, SpotConfig, SubspaceFinding, Thresholds,
    Verdict,
};
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_stream::TimeModel;
use std::collections::BTreeMap;

/// One projected cell: decayed count, per-dimension linear and squared
/// sums, and the tick it was last touched at.
struct Cell {
    d: f64,
    ls: Vec<f64>,
    ss: Vec<f64>,
    last: u64,
}

struct Oracle {
    config: SpotConfig,
    /// One map of cells per subspace, keyed by the projected coordinates,
    /// in registration order: the SST's FS, then CS, without duplicates.
    stores: Vec<(Subspace, BTreeMap<Vec<u16>, Cell>)>,
    /// The global decayed weight and the tick it was last advanced at.
    total: f64,
    total_last: u64,
    now: u64,
}

impl Oracle {
    /// The oracle of `spot`'s frozen SST, warmed with the `training` batch
    /// `spot` learned from, at ticks 1..n.
    fn new(spot: &Spot, training: &[DataPoint]) -> Self {
        let mut oracle = Oracle {
            config: spot.config().clone(),
            stores: spot
                .sst()
                .iter_all()
                .map(|s| (s, BTreeMap::new()))
                .collect(),
            total: 0.0,
            total_last: 0,
            now: 0,
        };
        for p in training {
            oracle.ingest(p);
        }
        assert_eq!(oracle.now, spot.now(), "the warm-up ends where learn did");
        oracle
    }

    /// Folds the next point into every store; returns `(subspace, RD,
    /// IRSD)` of its cell in each, in registration order.
    fn ingest(&mut self, p: &DataPoint) -> Vec<(Subspace, f64, f64)> {
        self.now += 1;
        let (now, config) = (self.now, &self.config);
        let model = config.time_model;
        self.total = self.total * model.weight_after(now - self.total_last) + 1.0;
        self.total_last = now;
        // The point's interval in every dimension, clamped into the grid.
        let (bounds, m) = (&config.bounds, f64::from(config.granularity));
        let coords: Vec<u16> = (0..p.dims())
            .map(|d| {
                let rel = (p.value(d) - bounds.min(d)) * (m / bounds.width(d));
                (rel as u64).min(u64::from(config.granularity) - 1) as u16
            })
            .collect();
        let mut out = Vec::with_capacity(self.stores.len());
        for (subspace, cells) in &mut self.stores {
            let dims: Vec<usize> = subspace.dims().collect();
            let key: Vec<u16> = dims.iter().map(|&d| coords[d]).collect();
            let cell = cells.entry(key).or_insert_with(|| Cell {
                d: 0.0,
                ls: vec![0.0; dims.len()],
                ss: vec![0.0; dims.len()],
                last: now,
            });
            let f = model.weight_after(now - cell.last);
            cell.d = cell.d * f + 1.0;
            for (j, &d) in dims.iter().enumerate() {
                let v = p.value(d);
                cell.ls[j] = cell.ls[j] * f + v;
                cell.ss[j] = cell.ss[j] * f + v * v;
            }
            cell.last = now;

            let rd = cell.d * m.powi(dims.len() as i32) / self.total;
            let irsd = if cell.d < 2.0 {
                0.0
            } else {
                let mut variance = 0.0;
                for j in 0..dims.len() {
                    let mean = cell.ls[j] / cell.d;
                    variance += (cell.ss[j] / cell.d - mean * mean).max(0.0);
                }
                // σ of a uniform distribution over one cell, over the cell's.
                let uniform: f64 = dims
                    .iter()
                    .map(|&d| (bounds.width(d) / m / 12f64.sqrt()).powi(2))
                    .sum();
                match variance.sqrt() {
                    sigma if sigma > f64::EPSILON => uniform.sqrt() / sigma,
                    _ => f64::MAX,
                }
            };
            out.push((*subspace, rd, irsd));
        }
        out
    }

    /// One point through the detection stage: ingest, verdict, then the
    /// prune when the tick is due.
    fn process(&mut self, p: &DataPoint) -> Verdict {
        let cells = self.ingest(p);
        let verdict = verdict(&self.config.thresholds, self.now, &cells);
        let (now, model) = (self.now, self.config.time_model);
        let (every, floor) = (self.config.prune_every, self.config.prune_floor);
        if every > 0 && now.is_multiple_of(every) {
            for (_, cells) in &mut self.stores {
                cells.retain(|_, c| c.d * model.weight_after(now - c.last) >= floor);
            }
        }
        verdict
    }

    /// `Spot::clear_cs` on a frozen SST without OS: only FS stays.
    fn clear_cs(&mut self) {
        let fs_max = self.config.fs_max_dimension;
        self.stores.retain(|(s, _)| s.cardinality() <= fs_max);
    }
}

/// The verdict rule, whole. A subspace flags the point when its cell's RD
/// is under the RD threshold and, if one is set, its IRSD is under the
/// IRSD threshold. Findings go by RD, ties in registration order. The
/// score is `1/(1 + min RD)` over every monitored subspace (0 with none).
fn verdict(thresholds: &Thresholds, tick: u64, cells: &[(Subspace, f64, f64)]) -> Verdict {
    let mut findings: Vec<SubspaceFinding> = cells
        .iter()
        .filter(|&&(_, rd, irsd)| rd < thresholds.rd && thresholds.irsd.is_none_or(|t| irsd < t))
        .map(|&(subspace, rd, irsd)| SubspaceFinding { subspace, rd, irsd })
        .collect();
    findings.sort_by(|a, b| a.rd.total_cmp(&b.rd));
    let min_rd = cells.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    let score = if cells.is_empty() {
        0.0
    } else {
        1.0 / (1.0 + min_rd)
    };
    let outlier = !findings.is_empty();
    Verdict {
        tick,
        outlier,
        score,
        findings,
        drift: false,
    }
}

/// What the oracle pins of a verdict, floats by their bits.
fn bits(v: &Verdict) -> (u64, bool, u64, Vec<(u64, u64, u64)>) {
    let findings = v
        .findings
        .iter()
        .map(|f| (f.subspace.mask(), f.rd.to_bits(), f.irsd.to_bits()))
        .collect();
    (v.tick, v.outlier, v.score.to_bits(), findings)
}

const TRAINING: usize = 1_000;
/// 10 000 points in the release build, the one CI's oracle step runs; an
/// unoptimised build runs the same checks over the first 2 000 (the
/// ϕ = 64 FS(2) case alone touches ~2 100 stores a point on five paths).
const STREAM: usize = if cfg!(debug_assertions) {
    2_000
} else {
    10_000
};

/// Learns a frozen detector on the synthetic scenario (seed 42, 2 %
/// planted outliers), then checks every path against the oracle over a
/// `STREAM`-point stream. FS(1) streams empty CS halfway. FS(2) streams
/// run ω = 500 so that the prunes evict: the default ω = 6 000 evicts
/// nothing before tick ≈ 18 400.
fn check(phi: usize, fs: usize) {
    let mut gen = SyntheticGenerator::new(SyntheticConfig {
        dims: phi,
        seed: 42,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let (omega, split) = if fs == 1 {
        (6_000, STREAM / 2)
    } else {
        (500, STREAM)
    };
    let mut spot = SpotBuilder::new(gen.bounds())
        .seed(42)
        .fs_max_dimension(fs)
        .time_model(TimeModel::new(omega, 0.05).unwrap())
        .evolution(EvolutionConfig {
            enabled: false,
            ..Default::default()
        })
        .drift(DriftConfig {
            enabled: false,
            ..Default::default()
        })
        .build()
        .unwrap();
    let training = gen.generate_normal(TRAINING);
    spot.learn(&training).unwrap();
    assert!(spot.sst().sizes().1 > 0, "ϕ={phi} FS({fs}): no CS learned");
    let stream: Vec<DataPoint> = gen.generate(STREAM).into_iter().map(|r| r.point).collect();

    let mut oracle = Oracle::new(&spot, &training);
    let mut want = Vec::with_capacity(STREAM);
    for (i, p) in stream.iter().enumerate() {
        if i == split {
            oracle.clear_cs();
        }
        want.push(bits(&oracle.process(p)));
    }
    assert!(
        want.iter().any(|v| v.1),
        "ϕ={phi} FS({fs}): nothing flagged"
    );

    // Chunk 0 is `process`; the others, `process_batch` in chunks.
    let bytes = spot.checkpoint().to_bytes();
    for chunk in [0, 1, 7, 256] {
        let label = format!("ϕ={phi} FS({fs}) chunk {chunk}");
        let mut s = spot::restore_from_bytes(&bytes).unwrap();
        let mut got = Vec::with_capacity(STREAM);
        for (k, segment) in [&stream[..split], &stream[split..]].into_iter().enumerate() {
            if k == 1 && split < STREAM {
                let before = s.footprint().projected_cells;
                s.clear_cs();
                assert!(s.footprint().projected_cells < before, "{label}: clear_cs");
            }
            if chunk == 0 {
                got.extend(segment.iter().map(|p| bits(&s.process(p).unwrap())));
            } else {
                for c in segment.chunks(chunk) {
                    got.extend(s.process_batch(c).unwrap().iter().map(bits));
                }
            }
        }
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(w, g, "{label}: point {i}");
        }
        assert_eq!(got.len(), want.len(), "{label}");
        if fs == 2 {
            assert!(s.stats().cells_pruned > 0, "{label}: nothing pruned");
        }
    }
}

#[test]
fn phi8_matches_the_oracle() {
    check(8, 1);
    check(8, 2);
}

#[test]
fn phi16_matches_the_oracle() {
    check(16, 1);
    check(16, 2);
}

#[test]
fn phi64_fs1_matches_the_oracle() {
    check(64, 1);
}

#[test]
fn phi64_fs2_matches_the_oracle() {
    check(64, 2);
}
