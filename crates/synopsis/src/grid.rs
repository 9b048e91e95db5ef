//! Equi-width grid partition of the domain space.

use crate::key::{CellKey, KeyCodec};
use spot_subspace::Subspace;
use spot_types::{DataPoint, DomainBounds, Result, SpotError};

/// Equi-width partition: each dimension's `[min, max]` range is divided
/// into `granularity` intervals of equal width.
///
/// Points outside the bounds are clamped into the boundary cells — the
/// stream may drift beyond the training range and the synopsis must keep
/// absorbing it (the drift detector is responsible for flagging when this
/// happens en masse). That includes infinities, which clamp like any other
/// out-of-range value; `NaN` values are rejected at quantization (see
/// [`Grid::base_coords_into`]) because they cannot be ordered into an
/// interval and would otherwise masquerade as interval-0 inliers.
///
/// Cells are identified by [`CellKey`]s packed by the grid's [`KeyCodec`] —
/// see `crate::key` for the layout and the wide-ϕ fallback.
#[derive(Debug, Clone)]
pub struct Grid {
    bounds: DomainBounds,
    granularity: u16,
    /// Precomputed 1/width per cell per dimension (granularity / range).
    inv_cell_width: Vec<f64>,
    /// Packs coordinate slices into cell keys.
    codec: KeyCodec,
}

impl Grid {
    /// Creates a grid over `bounds` with `granularity` intervals per
    /// dimension (at least 2).
    pub fn new(bounds: DomainBounds, granularity: u16) -> Result<Self> {
        if granularity < 2 {
            return Err(SpotError::InvalidConfig(format!(
                "granularity must be at least 2, got {granularity}"
            )));
        }
        let inv_cell_width = (0..bounds.dims())
            .map(|d| granularity as f64 / bounds.width(d))
            .collect();
        let codec = KeyCodec::new(bounds.dims(), granularity);
        Ok(Grid {
            bounds,
            granularity,
            inv_cell_width,
            codec,
        })
    }

    /// Dimensionality ϕ of the grid.
    pub fn dims(&self) -> usize {
        self.bounds.dims()
    }

    /// Intervals per dimension.
    pub fn granularity(&self) -> u16 {
        self.granularity
    }

    /// Domain bounds.
    pub fn bounds(&self) -> &DomainBounds {
        &self.bounds
    }

    /// The key codec of this grid.
    pub fn codec(&self) -> &KeyCodec {
        &self.codec
    }

    /// Width of one cell along dimension `d`.
    fn cell_width(&self, d: usize) -> f64 {
        self.bounds.width(d) / self.granularity as f64
    }

    /// Interval index of value `v` along dimension `d`, clamped into range.
    /// `NaN` maps to interval 0; the coordinate entry points reject it
    /// before it gets here.
    ///
    /// The saturating float→int cast does all the clamping: truncation is
    /// floor for positive values, negative values (and NaN) saturate to 0,
    /// and `+∞` saturates to `u64::MAX` before the `min` pins it to the
    /// last interval.
    #[inline]
    pub fn interval(&self, d: usize, v: f64) -> u16 {
        let rel = (v - self.bounds.min(d)) * self.inv_cell_width[d];
        (rel as u64).min(self.granularity as u64 - 1) as u16
    }

    /// Quantizes a point into `out` (reused across calls: the hot path's
    /// zero-allocation entry). Rejects dimension mismatches and `NaN`
    /// values; infinities clamp to the boundary cells.
    ///
    /// The loop runs in fixed-width chunks of branch-free lanes
    /// (subtract, scale, saturating cast, clamp — no data-dependent
    /// control flow), a shape the autovectorizer can lift to SIMD for
    /// wide-ϕ streams; the parity tests below pin it to
    /// [`Grid::interval`]. NaN detection is folded into the same lanes (a
    /// per-element early exit would block vectorization); the offending
    /// dimension is only located on the cold error path.
    #[inline]
    pub fn base_coords_into(&self, p: &DataPoint, out: &mut Vec<u16>) -> Result<()> {
        if p.dims() != self.dims() {
            return Err(SpotError::DimensionMismatch {
                expected: self.dims(),
                got: p.dims(),
            });
        }
        /// Lane width of one chunk: four f64s fill one AVX2 register.
        const LANES: usize = 4;
        out.clear();
        out.reserve(self.dims());
        let values = p.values();
        let mins = self.bounds.mins();
        let inv = &self.inv_cell_width[..];
        let hi = self.granularity as u64 - 1;
        let mut saw_nan = false;

        let mut vals = values.chunks_exact(LANES);
        let mut lows = mins.chunks_exact(LANES);
        let mut scales = inv.chunks_exact(LANES);
        for ((v, mn), iw) in (&mut vals).zip(&mut lows).zip(&mut scales) {
            let mut lane = [0u16; LANES];
            for k in 0..LANES {
                saw_nan |= v[k].is_nan();
                let rel = (v[k] - mn[k]) * iw[k];
                lane[k] = (rel as u64).min(hi) as u16;
            }
            out.extend_from_slice(&lane);
        }
        for ((&v, &mn), &iw) in vals
            .remainder()
            .iter()
            .zip(lows.remainder())
            .zip(scales.remainder())
        {
            saw_nan |= v.is_nan();
            let rel = (v - mn) * iw;
            out.push((rel as u64).min(hi) as u16);
        }

        if saw_nan {
            out.clear();
            let dim = values
                .iter()
                .position(|v| v.is_nan())
                .expect("a NaN was observed");
            return Err(SpotError::NonFiniteValue { dim });
        }
        Ok(())
    }

    /// Base-cell coordinates of a point (all ϕ dimensions). Allocating
    /// convenience for offline/test use; hot paths use
    /// [`Grid::base_coords_into`].
    pub fn base_coords(&self, p: &DataPoint) -> Result<Vec<u16>> {
        let mut out = Vec::with_capacity(self.dims());
        self.base_coords_into(p, &mut out)?;
        Ok(out)
    }

    /// Key of the projection of base coordinates onto `subspace` — pure
    /// integer shifting, no allocation.
    #[inline]
    pub fn project_key(&self, base: &[u16], subspace: &Subspace) -> CellKey {
        debug_assert!(subspace.fits(self.dims()));
        self.codec.project_key(base, subspace)
    }

    /// Standard deviation of a uniform distribution over one cell interval
    /// of dimension `d`: `width / sqrt(12)`. This is the reference scale of
    /// the IRSD measure.
    pub fn uniform_sigma(&self, d: usize) -> f64 {
        self.cell_width(d) / 12f64.sqrt()
    }

    /// Aggregated (Euclidean over dimensions) uniform standard deviation of
    /// a projected cell in `subspace`.
    pub fn uniform_sigma_in(&self, subspace: &Subspace) -> f64 {
        subspace
            .dims()
            .map(|d| {
                let s = self.uniform_sigma(d);
                s * s
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Number of projected cells in `subspace`: `granularity^|s|` (may be
    /// astronomically large; returned as f64 because it only ever enters
    /// the RD formula as a multiplier).
    pub fn cell_count_in(&self, subspace: &Subspace) -> f64 {
        (self.granularity as f64).powi(subspace.cardinality() as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid(dims: usize, m: u16) -> Grid {
        Grid::new(DomainBounds::unit(dims), m).unwrap()
    }

    #[test]
    fn interval_mapping_basics() {
        let g = grid(1, 10);
        assert_eq!(g.interval(0, 0.0), 0);
        assert_eq!(g.interval(0, 0.05), 0);
        assert_eq!(g.interval(0, 0.15), 1);
        assert_eq!(g.interval(0, 0.999), 9);
        assert_eq!(g.interval(0, 1.0), 9); // boundary clamps to last
    }

    #[test]
    fn out_of_range_clamped() {
        let g = grid(1, 10);
        assert_eq!(g.interval(0, -5.0), 0);
        assert_eq!(g.interval(0, 7.3), 9);
    }

    #[test]
    fn infinities_clamp_to_boundary_cells() {
        let g = grid(2, 10);
        assert_eq!(g.interval(0, f64::INFINITY), 9);
        assert_eq!(g.interval(0, f64::NEG_INFINITY), 0);
        let coords = g
            .base_coords(&DataPoint::new(vec![f64::INFINITY, f64::NEG_INFINITY]))
            .unwrap();
        assert_eq!(&coords[..], &[9, 0]);
    }

    #[test]
    fn nan_rejected_at_quantization() {
        let g = grid(3, 10);
        let err = g
            .base_coords(&DataPoint::new(vec![0.5, f64::NAN, 0.5]))
            .unwrap_err();
        assert!(matches!(err, SpotError::NonFiniteValue { dim: 1 }));
    }

    #[test]
    fn granularity_validation() {
        assert!(Grid::new(DomainBounds::unit(2), 1).is_err());
        assert!(Grid::new(DomainBounds::unit(2), 2).is_ok());
    }

    #[test]
    fn base_coords_and_projection_keys() {
        let g = grid(4, 10);
        let p = DataPoint::new(vec![0.05, 0.55, 0.95, 0.25]);
        let base = g.base_coords(&p).unwrap();
        assert_eq!(&base[..], &[0, 5, 9, 2]);
        let s = Subspace::from_dims([1, 3]).unwrap();
        let proj = g.project_key(&base, &s);
        assert_eq!(g.codec().unpack(proj, 2), vec![5, 2]);
    }

    #[test]
    fn base_coords_dimension_check() {
        let g = grid(3, 10);
        assert!(g.base_coords(&DataPoint::new(vec![0.5; 2])).is_err());
    }

    #[test]
    fn uniform_sigma_values() {
        let g = grid(2, 10);
        let per_dim = 0.1 / 12f64.sqrt();
        assert!((g.uniform_sigma(0) - per_dim).abs() < 1e-12);
        let s = Subspace::from_dims([0, 1]).unwrap();
        assert!((g.uniform_sigma_in(&s) - (2.0 * per_dim * per_dim).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn cell_count() {
        let g = grid(3, 10);
        let s = Subspace::from_dims([0, 2]).unwrap();
        assert!((g.cell_count_in(&s) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn chunked_quantization_matches_scalar_intervals() {
        // The chunked loop (full lanes plus remainder — dims spanning
        // both sides of every LANES boundary) must agree with the scalar
        // `interval` everywhere, including clamped extremes.
        let edge_values = [
            -1e18,
            -3.7,
            -0.0,
            0.0,
            1e-12,
            0.4999,
            0.5,
            0.9999,
            1.0,
            7.3,
            1e18,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for dims in [1usize, 3, 7, 8, 9, 16, 24, 31, 64] {
            let g = Grid::new(DomainBounds::uniform(dims, -0.25, 1.5).unwrap(), 13).unwrap();
            let mut out = Vec::new();
            for shift in 0..edge_values.len() {
                let vals: Vec<f64> = (0..dims)
                    .map(|d| edge_values[(d + shift) % edge_values.len()])
                    .collect();
                let p = DataPoint::new(vals.clone());
                g.base_coords_into(&p, &mut out).unwrap();
                assert_eq!(out.len(), dims);
                for (d, &v) in vals.iter().enumerate() {
                    assert_eq!(out[d], g.interval(d, v), "dims={dims} d={d} v={v}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn chunked_quantization_matches_scalar_randomly(
            vals in proptest::collection::vec(-5.0f64..5.0, 1..40), m in 2u16..50
        ) {
            let dims = vals.len();
            let g = Grid::new(DomainBounds::unit(dims), m).unwrap();
            let mut out = Vec::new();
            g.base_coords_into(&DataPoint::new(vals.clone()), &mut out).unwrap();
            for (d, &v) in vals.iter().enumerate() {
                prop_assert_eq!(out[d], g.interval(d, v));
            }
        }

        #[test]
        fn interval_always_in_range(v in -10.0f64..10.0, m in 2u16..100) {
            let g = grid(1, m);
            prop_assert!(g.interval(0, v) < m);
        }

        #[test]
        fn interval_is_monotonic(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let g = grid(1, 17);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(g.interval(0, lo) <= g.interval(0, hi));
        }

        #[test]
        fn projection_preserves_entries(
            vals in proptest::collection::vec(0.0f64..1.0, 5), mask in 1u64..32u64
        ) {
            let g = grid(5, 10);
            let p = DataPoint::new(vals);
            let base = g.base_coords(&p).unwrap();
            let s = Subspace::from_mask(mask).unwrap();
            let proj = g.codec().unpack(g.project_key(&base, &s), s.cardinality());
            prop_assert_eq!(proj.len(), s.cardinality());
            for (i, d) in s.dims().enumerate() {
                prop_assert_eq!(proj[i], base[d]);
            }
        }
    }
}
