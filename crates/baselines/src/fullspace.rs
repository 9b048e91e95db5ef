//! Full-space grid/density stream detector.
//!
//! The comparator class the paper contrasts SPOT against: a one-pass
//! detector that maintains decayed densities over the *full* ϕ-dimensional
//! grid and flags points whose base cell is sparse relative to the uniform
//! expectation. It shares SPOT's synopsis substrate (same grid, same decay)
//! so the comparison isolates exactly one design decision: full space
//! versus learned subspaces.
//!
//! Because full-space cell volume shrinks exponentially with ϕ (`m^ϕ`
//! cells), the raw RD measure collapses — every cell looks sparse. The
//! detector therefore uses the *neighbourhood-free density test* of
//! full-space stream methods: a point is an outlier when its base cell's
//! decayed count is below `density_threshold` (an absolute support floor),
//! mirroring Aggarwal SDM'05's sparse-region test.

use spot_stream::{LogicalClock, TimeModel, WeightCache};
use spot_subspace::Subspace;
use spot_synopsis::{Grid, ProjectedStore};
use spot_types::{DataPoint, Detection, DomainBounds, Result, SpotError, StreamDetector};

/// Configuration of the full-space detector.
#[derive(Debug, Clone)]
pub struct FullSpaceConfig {
    /// Grid granularity per dimension.
    pub granularity: u16,
    /// (ω, ε) decay model shared with SPOT for a fair comparison.
    pub time_model: TimeModel,
    /// Decayed-count floor: a point in a cell with fewer (decayed) points
    /// than this is an outlier.
    pub density_threshold: f64,
    /// Prune period in points (0 disables pruning).
    pub prune_every: u64,
    /// Prune floor for stale cells.
    pub prune_floor: f64,
}

impl Default for FullSpaceConfig {
    fn default() -> Self {
        FullSpaceConfig {
            granularity: 10,
            // Same decay horizon as SPOT's default for a fair comparison.
            time_model: TimeModel::new(6000, 0.05).expect("static parameters are valid"),
            density_threshold: 2.0,
            prune_every: 1000,
            prune_floor: 1e-4,
        }
    }
}

/// One-pass full-space density detector (see module docs).
#[derive(Debug, Clone)]
pub struct FullSpaceGridDetector {
    config: FullSpaceConfig,
    grid: Grid,
    /// The one store: every cell of the full space, i.e. the projection
    /// onto all ϕ dimensions.
    store: ProjectedStore,
    clock: LogicalClock,
}

impl FullSpaceGridDetector {
    /// Creates the detector over explicit domain bounds.
    pub fn new(bounds: DomainBounds, config: FullSpaceConfig) -> Result<Self> {
        if config.density_threshold < 0.0 {
            return Err(SpotError::InvalidConfig(
                "density threshold must be >= 0".into(),
            ));
        }
        let full = Subspace::full(bounds.dims())?;
        let grid = Grid::new(bounds, config.granularity)?;
        let store = ProjectedStore::new(&grid, full);
        Ok(FullSpaceGridDetector {
            config,
            grid,
            store,
            clock: LogicalClock::new(),
        })
    }

    /// Folds `p` into its full-space cell at tick `now`; the cell's decayed
    /// count, point included. Every factor straight from the model (an
    /// empty table).
    fn insert(&mut self, now: u64, p: &DataPoint) -> Result<f64> {
        let base = self.grid.base_coords(p)?;
        let weights = WeightCache::new(self.config.time_model);
        // The global weight only enters RD, which this detector ignores.
        let touch = self
            .store
            .update_and_screen(&self.grid, &weights, now, &base, p, 0.0);
        Ok(touch.occupancy)
    }

    /// Populated base cells (memory accounting).
    pub fn live_cells(&self) -> usize {
        self.store.len()
    }

    /// Approximate synopsis bytes.
    pub fn approx_bytes(&self) -> usize {
        self.store.approx_bytes()
    }
}

impl StreamDetector for FullSpaceGridDetector {
    fn learn(&mut self, training: &[DataPoint]) -> Result<()> {
        // Density methods need no offline stage; warm the synopses so the
        // first stream points are not all trivially "sparse".
        for p in training {
            let now = self.clock.tick();
            self.insert(now, p)?;
        }
        Ok(())
    }

    fn process(&mut self, point: &DataPoint) -> Detection {
        let now = self.clock.tick();
        let Ok(occupancy) = self.insert(now, point) else {
            // Dimension mismatch: report maximally anomalous rather than
            // panicking mid-stream.
            return Detection::outlier(f64::INFINITY);
        };
        if self.config.prune_every > 0 && now.is_multiple_of(self.config.prune_every) {
            let weights = WeightCache::new(self.config.time_model);
            self.store.prune(&weights, now, self.config.prune_floor);
        }
        Detection {
            // The cell's count before the point arrived is under the floor.
            outlier: occupancy - 1.0 < self.config.density_threshold,
            score: 1.0 / occupancy, // sparser cell → higher score
        }
    }

    fn name(&self) -> &str {
        "fullspace-grid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(dims: usize) -> FullSpaceGridDetector {
        FullSpaceGridDetector::new(
            DomainBounds::unit(dims),
            FullSpaceConfig {
                granularity: 4,
                density_threshold: 1.0,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn flags_points_in_empty_regions() {
        let mut d = detector(2);
        let train: Vec<DataPoint> = (0..200)
            .map(|i| DataPoint::new(vec![0.1 + (i % 10) as f64 * 0.002, 0.1]))
            .collect();
        d.learn(&train).unwrap();
        // Same region: not an outlier.
        let v = d.process(&DataPoint::new(vec![0.1, 0.1]));
        assert!(!v.outlier);
        // Far, never-seen region: outlier.
        let v = d.process(&DataPoint::new(vec![0.9, 0.9]));
        assert!(v.outlier);
        assert!(v.score > 0.0);
    }

    #[test]
    fn repeated_novelty_stops_firing_once_dense() {
        let mut d = detector(2);
        let p = DataPoint::new(vec![0.5, 0.5]);
        // First sighting is an outlier, later sightings are not.
        assert!(d.process(&p).outlier);
        for _ in 0..5 {
            d.process(&p);
        }
        assert!(!d.process(&p).outlier);
    }

    #[test]
    fn misses_projected_outliers_in_high_dims() {
        // The paper's core claim: full-space density cannot see projected
        // outliers. Build a 10-dim stream where an outlier differs from
        // normal data in one dimension only — its *full-space* cell is as
        // empty as everyone else's (m^10 cells ≫ points), so the detector
        // flags nearly everything, i.e. has no discrimination.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut d = FullSpaceGridDetector::new(
            DomainBounds::unit(10),
            FullSpaceConfig {
                granularity: 10,
                density_threshold: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        // Normal data: mild scatter around a center in ALL dims — locally
        // dense in every 1-2 dim projection, but 10-dim cells are ~unique.
        let sample = |rng: &mut StdRng| {
            DataPoint::new((0..10).map(|_| 0.5 + rng.gen_range(-0.25..0.25)).collect())
        };
        let train: Vec<DataPoint> = (0..500).map(|_| sample(&mut rng)).collect();
        d.learn(&train).unwrap();
        let mut normal_flagged = 0;
        for _ in 0..100 {
            let p = sample(&mut rng);
            if d.process(&p).outlier {
                normal_flagged += 1;
            }
        }
        // Full-space sparsity fires on a large share of NORMAL points —
        // the false-alarm failure mode SPOT's subspace analysis avoids.
        assert!(normal_flagged > 50, "only {normal_flagged} normals flagged");
    }

    #[test]
    fn pruning_keeps_memory_bounded() {
        let mut d = FullSpaceGridDetector::new(
            DomainBounds::unit(2),
            FullSpaceConfig {
                granularity: 10,
                time_model: TimeModel::new(100, 0.01).unwrap(),
                density_threshold: 1.0,
                prune_every: 100,
                prune_floor: 1e-2,
            },
        )
        .unwrap();
        // A moving hot-spot: old cells decay and must be evicted.
        for i in 0..5000u64 {
            let x = (i % 100) as f64 / 100.0;
            let y = ((i / 100) % 10) as f64 / 10.0;
            d.process(&DataPoint::new(vec![x, y]));
        }
        assert!(d.live_cells() < 100 * 10, "cells={}", d.live_cells());
        assert!(d.approx_bytes() > 0);
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = FullSpaceConfig {
            density_threshold: -1.0,
            ..Default::default()
        };
        assert!(FullSpaceGridDetector::new(DomainBounds::unit(2), cfg).is_err());
    }

    #[test]
    fn the_subspace_mask_bounds_the_dimensionality() {
        // The store is a projection onto `Subspace::full(ϕ)`: 64 dimensions
        // (fingerprinted 256-bit keys) work, 65 have no mask.
        let mut d = FullSpaceGridDetector::new(DomainBounds::unit(64), Default::default()).unwrap();
        let p = DataPoint::new((0..64).map(|i| i as f64 / 64.0).collect());
        let first = d.process(&p);
        assert!(first.outlier);
        assert_eq!(first.score, 1.0);
        d.process(&p);
        d.process(&p);
        // Three earlier sightings clear the default floor of 2.
        assert!(!d.process(&p).outlier, "the cell is found by its key");
        assert_eq!(d.live_cells(), 1);
        assert!(matches!(
            FullSpaceGridDetector::new(DomainBounds::unit(65), Default::default()),
            Err(SpotError::TooManyDimensions(65))
        ));
    }

    #[test]
    fn dimension_mismatch_is_flagged_not_panicking() {
        let mut d = detector(2);
        let v = d.process(&DataPoint::new(vec![0.5]));
        assert!(v.outlier);
    }
}
