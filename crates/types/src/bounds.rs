//! Attribute domain bounds used by the equi-width grid partition.

use crate::error::{Result, SpotError};
use crate::persist::{DurableState, PersistError, StateReader, StateWriter};
use crate::point::DataPoint;

/// Per-dimension `[min, max]` bounds of the attribute domain.
///
/// The equi-width partition behind BCS/PCS (see `spot-synopsis`) quantizes
/// each dimension of this box into `m` intervals. Points outside the box are
/// clamped to the boundary cells, matching the behaviour of a deployed
/// system whose training sample did not cover the full range.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainBounds {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl DomainBounds {
    /// Creates bounds from explicit per-dimension minima and maxima.
    ///
    /// Degenerate dimensions (`min == max`) are widened by a small margin so
    /// the grid always has positive cell widths.
    pub fn new(mins: Vec<f64>, maxs: Vec<f64>) -> Result<Self> {
        if mins.len() != maxs.len() {
            return Err(SpotError::DimensionMismatch {
                expected: mins.len(),
                got: maxs.len(),
            });
        }
        if mins.is_empty() {
            return Err(SpotError::InvalidConfig(
                "bounds must cover at least one dimension".into(),
            ));
        }
        let mut mins = mins;
        let mut maxs = maxs;
        for (lo, hi) in mins.iter_mut().zip(maxs.iter_mut()) {
            if !lo.is_finite() || !hi.is_finite() {
                return Err(SpotError::InvalidConfig("bounds must be finite".into()));
            }
            if *lo > *hi {
                return Err(SpotError::InvalidConfig(format!(
                    "min {lo} exceeds max {hi}"
                )));
            }
            if *lo == *hi {
                // Widen degenerate dimensions so equi-width cells are well defined.
                let eps = lo.abs().max(1.0) * 1e-9;
                *lo -= eps;
                *hi += eps;
            }
        }
        Ok(DomainBounds { mins, maxs })
    }

    /// Uniform `[lo, hi]` bounds replicated over `dims` dimensions.
    pub fn uniform(dims: usize, lo: f64, hi: f64) -> Result<Self> {
        DomainBounds::new(vec![lo; dims], vec![hi; dims])
    }

    /// The unit box `[0, 1]^dims` — the default domain of the synthetic
    /// generators.
    pub fn unit(dims: usize) -> Self {
        DomainBounds::uniform(dims, 0.0, 1.0).expect("unit bounds are always valid")
    }

    /// Infers bounds from a batch of points, expanding each dimension by
    /// `margin_fraction` of its observed range on both sides (so streaming
    /// points slightly outside the training range still fall into interior
    /// cells).
    pub fn from_data(points: &[DataPoint], margin_fraction: f64) -> Result<Self> {
        let first = points.first().ok_or(SpotError::EmptyTrainingSet)?;
        let dims = first.dims();
        let mut mins = vec![f64::INFINITY; dims];
        let mut maxs = vec![f64::NEG_INFINITY; dims];
        for p in points {
            if p.dims() != dims {
                return Err(SpotError::DimensionMismatch {
                    expected: dims,
                    got: p.dims(),
                });
            }
            for (d, &v) in p.values().iter().enumerate() {
                if v < mins[d] {
                    mins[d] = v;
                }
                if v > maxs[d] {
                    maxs[d] = v;
                }
            }
        }
        for d in 0..dims {
            let range = maxs[d] - mins[d];
            let margin = range * margin_fraction;
            mins[d] -= margin;
            maxs[d] += margin;
        }
        DomainBounds::new(mins, maxs)
    }

    /// Dimensionality covered by the bounds.
    pub fn dims(&self) -> usize {
        self.mins.len()
    }

    /// Minimum of dimension `d`.
    pub fn min(&self, d: usize) -> f64 {
        self.mins[d]
    }

    /// Maximum of dimension `d`.
    pub fn max(&self, d: usize) -> f64 {
        self.maxs[d]
    }

    /// Width (`max − min`) of dimension `d`; always positive.
    pub fn width(&self, d: usize) -> f64 {
        self.maxs[d] - self.mins[d]
    }

    /// All minima.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// All maxima.
    pub fn maxs(&self) -> &[f64] {
        &self.maxs
    }

    /// `true` when the point lies inside the box (boundaries inclusive).
    pub fn contains(&self, p: &DataPoint) -> bool {
        p.dims() == self.dims()
            && p.values()
                .iter()
                .enumerate()
                .all(|(d, &v)| v >= self.mins[d] && v <= self.maxs[d])
    }
}

impl DurableState for DomainBounds {
    fn capture(&self, w: &mut StateWriter) {
        w.f64_bits_col("mins", self.mins.iter().copied());
        w.f64_bits_col("maxs", self.maxs.iter().copied());
    }

    /// Validated like [`DomainBounds::new`]; captured bounds are never
    /// degenerate, so the widening never moves them.
    fn restore(&mut self, r: &StateReader<'_>) -> std::result::Result<(), PersistError> {
        *self = DomainBounds::new(r.f64_bits_col("mins")?, r.f64_bits_col("maxs")?)
            .map_err(|e| PersistError::custom(e.to_string()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_unit() {
        let b = DomainBounds::uniform(3, -1.0, 2.0).unwrap();
        assert_eq!(b.dims(), 3);
        assert!((b.width(0) - 3.0).abs() < 1e-12);
        let u = DomainBounds::unit(4);
        assert!((u.min(2) - 0.0).abs() < 1e-12);
        assert!((u.max(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_mismatched_and_inverted() {
        assert!(DomainBounds::new(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(DomainBounds::new(vec![2.0], vec![1.0]).is_err());
        assert!(DomainBounds::new(vec![], vec![]).is_err());
        assert!(DomainBounds::new(vec![f64::NAN], vec![1.0]).is_err());
    }

    #[test]
    fn degenerate_dimension_is_widened() {
        let b = DomainBounds::new(vec![5.0], vec![5.0]).unwrap();
        assert!(b.width(0) > 0.0);
        assert!(b.min(0) < 5.0 && b.max(0) > 5.0);
    }

    #[test]
    fn from_data_covers_all_points() {
        let pts: Vec<DataPoint> = vec![
            vec![0.0, 10.0].into(),
            vec![5.0, -10.0].into(),
            vec![2.5, 0.0].into(),
        ];
        let b = DomainBounds::from_data(&pts, 0.05).unwrap();
        for p in &pts {
            assert!(b.contains(p));
        }
        // Margins strictly widen the box.
        assert!(b.min(0) < 0.0);
        assert!(b.max(1) > 10.0);
    }

    #[test]
    fn from_data_empty_fails() {
        assert!(DomainBounds::from_data(&[], 0.1).is_err());
    }

    #[test]
    fn contains_checks_dims() {
        let b = DomainBounds::unit(2);
        assert!(!b.contains(&vec![0.5].into()));
        assert!(b.contains(&vec![0.0, 1.0].into()));
        assert!(!b.contains(&vec![0.5, 1.1].into()));
    }
}
