//! Hypervolume indicator for Pareto fronts (minimization).
//!
//! The hypervolume of a front is the measure of the objective-space region
//! dominated by the front and bounded by a reference point — the standard
//! scalar summary of multi-objective convergence *and* diversity. E6 uses
//! it to show MOGA's front quality approaching the exhaustive front's over
//! generations.
//!
//! Implemented exactly for 2 objectives (sweep) and by inclusion-exclusion
//! over the dominated boxes for 3 objectives (WFG-style slicing would be
//! faster; fronts here are tiny, so clarity wins).

/// Hypervolume of a 2-objective front w.r.t. `reference` (both minimized;
/// points not strictly dominating the reference contribute nothing).
fn hypervolume_2d(front: &[Vec<f64>], reference: &[f64; 2]) -> f64 {
    let mut pts: Vec<(f64, f64)> = front
        .iter()
        .filter(|p| p[0] < reference[0] && p[1] < reference[1])
        .map(|p| (p[0], p[1]))
        .collect();
    if pts.is_empty() {
        return 0.0;
    }
    // Sort by first objective ascending; sweep keeping the best (lowest)
    // second objective seen so far.
    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("objectives are not NaN"));
    hypervolume_2d_sweep(&pts, reference)
}

/// Canonical 2-d sweep: ascending in x, each point contributes
/// `(ref_x − x) · (y_prev − y)` where `y_prev` is the best y of all points
/// with smaller x (starting at `ref_y`).
fn hypervolume_2d_sweep(sorted: &[(f64, f64)], reference: &[f64; 2]) -> f64 {
    let mut volume = 0.0;
    let mut best_y = reference[1];
    for &(x, y) in sorted {
        if y < best_y {
            volume += (reference[0] - x) * (best_y - y);
            best_y = y;
        }
    }
    volume
}

/// Hypervolume for 2 or 3 objectives. For 3 objectives, slices along the
/// third objective: sort by `z`, and between consecutive `z` values the
/// dominated area is the 2-d hypervolume of the points with smaller-or-equal
/// `z`.
pub fn hypervolume(front: &[Vec<f64>], reference: &[f64]) -> f64 {
    match reference.len() {
        2 => hypervolume_2d(front, &[reference[0], reference[1]]),
        3 => {
            let mut pts: Vec<&Vec<f64>> = front
                .iter()
                .filter(|p| p.iter().zip(reference).all(|(a, r)| a < r))
                .collect();
            if pts.is_empty() {
                return 0.0;
            }
            pts.sort_by(|a, b| a[2].partial_cmp(&b[2]).expect("objectives are not NaN"));
            let mut volume = 0.0;
            let mut active: Vec<(f64, f64)> = Vec::new();
            for (i, p) in pts.iter().enumerate() {
                // Depth of this slice along z.
                let z_hi = if i + 1 < pts.len() {
                    pts[i + 1][2]
                } else {
                    reference[2]
                };
                active.push((p[0], p[1]));
                let mut slice: Vec<(f64, f64)> = active.clone();
                slice.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("objectives are not NaN"));
                let area = hypervolume_2d_sweep(&slice, &[reference[0], reference[1]]);
                volume += area * (z_hi - p[2]);
            }
            volume
        }
        m => panic!("hypervolume implemented for 2 or 3 objectives, got {m}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_2d() {
        let front = vec![vec![0.25, 0.5]];
        let hv = hypervolume(&front, &[1.0, 1.0]);
        assert!((hv - 0.75 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_nondominated_points_2d() {
        // Points (0.2, 0.8) and (0.6, 0.3) vs ref (1,1):
        // sweep: (1-0.2)*(1-0.8)=0.16; then (1-0.6)*(0.8-0.3)=0.2 → 0.36.
        let front = vec![vec![0.2, 0.8], vec![0.6, 0.3]];
        let hv = hypervolume(&front, &[1.0, 1.0]);
        assert!((hv - 0.36).abs() < 1e-12, "hv={hv}");
    }

    #[test]
    fn dominated_point_adds_nothing() {
        let base = vec![vec![0.2, 0.2]];
        let with_dominated = vec![vec![0.2, 0.2], vec![0.5, 0.5]];
        let r = [1.0, 1.0];
        assert!((hypervolume(&base, &r) - hypervolume(&with_dominated, &r)).abs() < 1e-12);
    }

    #[test]
    fn out_of_reference_ignored() {
        let front = vec![vec![2.0, 0.1]];
        assert_eq!(hypervolume(&front, &[1.0, 1.0]), 0.0);
        assert_eq!(hypervolume(&[], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn better_front_has_larger_hv() {
        let weak = vec![vec![0.5, 0.5]];
        let strong = vec![vec![0.3, 0.3]];
        let r = [1.0, 1.0];
        assert!(hypervolume(&strong, &r) > hypervolume(&weak, &r));
    }

    #[test]
    fn single_point_3d() {
        let front = vec![vec![0.5, 0.5, 0.5]];
        let hv = hypervolume(&front, &[1.0, 1.0, 1.0]);
        assert!((hv - 0.125).abs() < 1e-12);
    }

    #[test]
    fn two_points_3d_matches_manual() {
        // p1=(0.2,0.8,0.1), p2=(0.6,0.3,0.5), ref=(1,1,1).
        // Slice z in [0.1,0.5): only p1 → area (0.8)(0.2)=0.16 → 0.064.
        // Slice z in [0.5,1): p1 ∪ p2 → area 0.16 + (0.4)(0.5)=0.36 → 0.18.
        let front = vec![vec![0.2, 0.8, 0.1], vec![0.6, 0.3, 0.5]];
        let hv = hypervolume(&front, &[1.0, 1.0, 1.0]);
        assert!((hv - (0.064 + 0.18)).abs() < 1e-12, "hv={hv}");
    }

    #[test]
    fn hv_monotone_in_added_nondominated_point_3d() {
        let a = vec![vec![0.4, 0.4, 0.4]];
        let mut b = a.clone();
        b.push(vec![0.1, 0.9, 0.9]);
        let r = [1.0, 1.0, 1.0];
        assert!(hypervolume(&b, &r) >= hypervolume(&a, &r) - 1e-12);
    }

    #[test]
    #[should_panic(expected = "2 or 3 objectives")]
    fn unsupported_dimension_panics() {
        hypervolume(&[vec![0.1; 4]], &[1.0; 4]);
    }
}
