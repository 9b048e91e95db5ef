//! Synthetic streams with planted projected outliers.
//!
//! The generator follows the paper's motivation: in high-dimensional
//! streams, outliers are "embedded in relatively low-dimensional subspaces"
//! — a projected outlier looks unremarkable in the full space because most
//! of its coordinates are drawn from the normal behaviour, but in its
//! *outlying subspace* it lands far away from every cluster's projection.
//!
//! Construction per stream:
//!
//! * `clusters` Gaussian clusters; cluster `c` is *tight* (small σ) in its
//!   own correlated subspace and broad elsewhere, so normal data already has
//!   subspace structure.
//! * Normal points sample a cluster, then each coordinate: tight Gaussian in
//!   the cluster's correlated dims, broad Gaussian elsewhere.
//! * Outliers copy a normal point but overwrite the dims of a randomly
//!   chosen *outlier subspace* with coordinates pushed into empty territory
//!   (far from every cluster center's projection). The subspace mask is
//!   recorded in the label.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_subspace::Subspace;
use spot_types::{AnomalyInfo, DataPoint, DomainBounds, Label, LabeledRecord, Result, SpotError};

/// Configuration of the synthetic stream.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Dimensionality ϕ (2..=64).
    pub dims: usize,
    /// Number of Gaussian clusters.
    pub clusters: usize,
    /// Dimensionality of each cluster's correlated subspace.
    pub cluster_subspace_dims: usize,
    /// Standard deviation inside the correlated dims.
    pub tight_sigma: f64,
    /// Standard deviation in the uncorrelated dims.
    pub broad_sigma: f64,
    /// Fraction of points that are planted projected outliers.
    pub outlier_fraction: f64,
    /// Dimensionality of each planted outlying subspace.
    pub outlier_subspace_dims: usize,
    /// How far (in multiples of `tight_sigma`) outliers are pushed away
    /// from the nearest cluster projection.
    pub outlier_displacement: f64,
    /// Range from which cluster centers are drawn per dimension. Shrinking
    /// or shifting it between two generators manufactures concept drift
    /// whose new clusters occupy previously empty territory.
    pub center_range: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            dims: 16,
            clusters: 4,
            cluster_subspace_dims: 4,
            tight_sigma: 0.02,
            broad_sigma: 0.06,
            outlier_fraction: 0.02,
            outlier_subspace_dims: 2,
            outlier_displacement: 10.0,
            center_range: (0.25, 0.75),
            seed: 42,
        }
    }
}

impl SyntheticConfig {
    fn validate(&self) -> Result<()> {
        if self.dims < 2 || self.dims > 64 {
            return Err(SpotError::InvalidConfig(format!(
                "dims must lie in 2..=64, got {}",
                self.dims
            )));
        }
        if self.clusters == 0 {
            return Err(SpotError::InvalidConfig("need at least one cluster".into()));
        }
        if self.cluster_subspace_dims == 0 || self.cluster_subspace_dims > self.dims {
            return Err(SpotError::InvalidConfig(
                "cluster subspace dims out of range".into(),
            ));
        }
        if self.outlier_subspace_dims == 0 || self.outlier_subspace_dims > self.dims {
            return Err(SpotError::InvalidConfig(
                "outlier subspace dims out of range".into(),
            ));
        }
        if !(0.0..=0.5).contains(&self.outlier_fraction) {
            return Err(SpotError::InvalidConfig(
                "outlier fraction must be in [0, 0.5]".into(),
            ));
        }
        if self.tight_sigma <= 0.0 || self.broad_sigma <= 0.0 {
            return Err(SpotError::InvalidConfig("sigmas must be positive".into()));
        }
        let (lo, hi) = self.center_range;
        if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo >= hi {
            return Err(SpotError::InvalidConfig(format!(
                "center range ({lo}, {hi}) must satisfy 0 <= lo < hi <= 1"
            )));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct Cluster {
    center: Vec<f64>,
    /// Dims in which this cluster is tightly correlated.
    subspace: Subspace,
}

/// Seeded synthetic stream generator. Implements `Iterator` over
/// [`LabeledRecord`]s; unbounded (call `.take(n)` or [`generate`]).
///
/// [`generate`]: SyntheticGenerator::generate
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    config: SyntheticConfig,
    clusters: Vec<Cluster>,
    /// Candidate outlying subspaces (fixed pool so ground truth repeats and
    /// SST learning has something systematic to find).
    outlier_subspaces: Vec<Subspace>,
    rng: StdRng,
    next_seq: u64,
}

impl SyntheticGenerator {
    /// Builds the generator (places clusters and the outlier-subspace pool).
    pub fn new(config: SyntheticConfig) -> Result<Self> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let clusters = (0..config.clusters)
            .map(|_| {
                // Keep centers away from the box boundary so broad noise
                // mostly stays in [0,1] (default range 0.25..0.75).
                let (lo, hi) = config.center_range;
                let center: Vec<f64> = (0..config.dims).map(|_| rng.gen_range(lo..hi)).collect();
                let subspace = spot_subspace::genetic::random_subspace(
                    config.dims,
                    config.cluster_subspace_dims,
                    &mut rng,
                );
                Cluster { center, subspace }
            })
            .collect();
        let pool_size = 3.min(config.dims / config.outlier_subspace_dims).max(1);
        let mut outlier_subspaces = Vec::with_capacity(pool_size);
        while outlier_subspaces.len() < pool_size {
            let s = exact_cardinality_subspace(config.dims, config.outlier_subspace_dims, &mut rng);
            if !outlier_subspaces.contains(&s) {
                outlier_subspaces.push(s);
            }
        }
        Ok(SyntheticGenerator {
            config,
            clusters,
            outlier_subspaces,
            rng,
            next_seq: 0,
        })
    }

    /// The configuration used.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// Domain bounds the stream is (softly) confined to.
    pub fn bounds(&self) -> DomainBounds {
        // Outlier displacement can exceed [0,1]; values are clamped in the
        // sampler, so the unit box is exact.
        DomainBounds::unit(self.config.dims)
    }

    /// The pool of planted outlying subspaces (ground truth for subspace-
    /// recovery metrics).
    pub fn outlier_subspace_pool(&self) -> &[Subspace] {
        &self.outlier_subspaces
    }

    /// Draws `n` labeled records.
    pub fn generate(&mut self, n: usize) -> Vec<LabeledRecord> {
        (0..n).map(|_| self.next_record()).collect()
    }

    /// Draws `n` *normal-only* points (training data for the unsupervised
    /// learning stage — the paper assumes a historical batch).
    pub fn generate_normal(&mut self, n: usize) -> Vec<DataPoint> {
        (0..n).map(|_| self.sample_normal()).collect()
    }

    fn next_record(&mut self) -> LabeledRecord {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.rng.gen_bool(self.config.outlier_fraction) {
            let (point, subspace) = self.sample_outlier();
            let info = AnomalyInfo::with_subspace("projected", subspace.mask());
            LabeledRecord::new(seq, point, Label::Anomaly(info))
        } else {
            LabeledRecord::new(seq, self.sample_normal(), Label::Normal)
        }
    }

    fn sample_normal(&mut self) -> DataPoint {
        let c = self.rng.gen_range(0..self.clusters.len());
        let cluster = self.clusters[c].clone();
        let mut vals = Vec::with_capacity(self.config.dims);
        for d in 0..self.config.dims {
            let sigma = if cluster.subspace.contains_dim(d) {
                self.config.tight_sigma
            } else {
                self.config.broad_sigma
            };
            let v = cluster.center[d] + gaussian(&mut self.rng) * sigma;
            vals.push(v.clamp(0.0, 1.0));
        }
        DataPoint::new(vals)
    }

    fn sample_outlier(&mut self) -> (DataPoint, Subspace) {
        let base = self.sample_normal();
        let which = self.rng.gen_range(0..self.outlier_subspaces.len());
        let subspace = self.outlier_subspaces[which];
        let mut vals = base.into_values();
        for d in subspace.dims() {
            vals[d] = self.displaced_coordinate(d);
        }
        (DataPoint::new(vals), subspace)
    }

    /// A coordinate for dimension `d` far from every cluster center's
    /// projection, by rejection sampling with a displacement fallback.
    fn displaced_coordinate(&mut self, d: usize) -> f64 {
        let min_gap = self.config.outlier_displacement * self.config.tight_sigma;
        for _ in 0..32 {
            let v = self.rng.gen_range(0.0..1.0);
            if self
                .clusters
                .iter()
                .all(|c| (v - c.center[d]).abs() >= min_gap)
            {
                return v;
            }
        }
        // Fallback: push beyond the extreme center.
        let extreme = self
            .clusters
            .iter()
            .map(|c| c.center[d])
            .fold(f64::NEG_INFINITY, f64::max);
        (extreme + min_gap).clamp(0.0, 1.0)
    }
}

impl Iterator for SyntheticGenerator {
    type Item = LabeledRecord;

    fn next(&mut self) -> Option<LabeledRecord> {
        Some(self.next_record())
    }
}

/// Standard normal via Box–Muller.
pub(crate) fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Random subspace with exactly `card` attributes.
pub(crate) fn exact_cardinality_subspace<R: Rng>(phi: usize, card: usize, rng: &mut R) -> Subspace {
    loop {
        let s = spot_subspace::genetic::random_subspace(phi, card, rng);
        if s.cardinality() == card {
            return s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> SyntheticGenerator {
        SyntheticGenerator::new(SyntheticConfig::default()).unwrap()
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let bad = |f: fn(&mut SyntheticConfig)| {
            let mut c = SyntheticConfig::default();
            f(&mut c);
            SyntheticGenerator::new(c).is_err()
        };
        assert!(bad(|c| c.dims = 1));
        assert!(bad(|c| c.dims = 65));
        assert!(bad(|c| c.clusters = 0));
        assert!(bad(|c| c.outlier_fraction = 0.9));
        assert!(bad(|c| c.cluster_subspace_dims = 0));
        assert!(bad(|c| c.outlier_subspace_dims = 100));
        assert!(bad(|c| c.tight_sigma = 0.0));
        assert!(bad(|c| c.center_range = (0.7, 0.3)));
        assert!(bad(|c| c.center_range = (-0.1, 0.5)));
        assert!(bad(|c| c.center_range = (0.5, 1.2)));
    }

    #[test]
    fn center_range_confines_clusters() {
        let mut g = SyntheticGenerator::new(SyntheticConfig {
            center_range: (0.8, 0.95),
            broad_sigma: 0.01,
            tight_sigma: 0.005,
            outlier_fraction: 0.0,
            seed: 12,
            ..Default::default()
        })
        .unwrap();
        for p in g.generate_normal(300) {
            for &v in p.values() {
                assert!(v > 0.7, "value {v} escaped the shifted center range");
            }
        }
    }

    #[test]
    fn points_live_in_unit_box() {
        let mut g = generator();
        let bounds = g.bounds();
        for r in g.generate(500) {
            assert!(bounds.contains(&r.point), "{:?}", r.point);
        }
    }

    #[test]
    fn outlier_rate_approximates_config() {
        let mut g = SyntheticGenerator::new(SyntheticConfig {
            outlier_fraction: 0.1,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let recs = g.generate(5000);
        let outliers = recs.iter().filter(|r| r.is_anomaly()).count();
        let rate = outliers as f64 / recs.len() as f64;
        assert!((rate - 0.1).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn outlier_labels_carry_true_subspace_from_pool() {
        let mut g = generator();
        let pool: Vec<u64> = g.outlier_subspace_pool().iter().map(|s| s.mask()).collect();
        let recs = g.generate(2000);
        let mut seen_outlier = false;
        for r in recs.iter().filter(|r| r.is_anomaly()) {
            seen_outlier = true;
            let mask = r.label.anomaly().unwrap().true_subspace.unwrap();
            assert!(pool.contains(&mask), "mask {mask:b} not in pool");
        }
        assert!(seen_outlier);
    }

    #[test]
    fn outliers_are_displaced_in_their_subspace() {
        let mut g = SyntheticGenerator::new(SyntheticConfig {
            outlier_fraction: 0.05,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let min_gap = g.config().outlier_displacement * g.config().tight_sigma;
        let clusters: Vec<Vec<f64>> = g.clusters.iter().map(|c| c.center.clone()).collect();
        let recs = g.generate(3000);
        let mut checked = 0;
        for r in recs.iter().filter(|r| r.is_anomaly()) {
            let mask = r.label.anomaly().unwrap().true_subspace.unwrap();
            let s = Subspace::from_mask(mask).unwrap();
            // In at least one subspace dim the point must sit >= min_gap
            // away from every center (rejection sampling guarantees all
            // dims except the clamped fallback; be tolerant).
            let ok = s.dims().any(|d| {
                clusters
                    .iter()
                    .all(|c| (r.point.value(d) - c[d]).abs() >= min_gap * 0.99)
            });
            assert!(ok, "outlier not displaced: {:?}", r.point);
            checked += 1;
        }
        assert!(checked > 50);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = generator();
        let mut b = generator();
        assert_eq!(a.generate(100), b.generate(100));
    }

    #[test]
    fn normal_training_batch_has_no_labels() {
        let mut g = generator();
        let train = g.generate_normal(100);
        assert_eq!(train.len(), 100);
        assert!(train.iter().all(|p| p.dims() == 16));
    }

    #[test]
    fn iterator_interface_is_unbounded() {
        let g = generator();
        let recs: Vec<_> = g.take(10).collect();
        assert_eq!(recs.len(), 10);
        assert_eq!(recs[9].seq, 9);
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..20_000).map(|_| gaussian(&mut rng)).collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }
}
