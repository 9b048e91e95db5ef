//! Subspace-recovery metrics.
//!
//! SPOT reports not only *which* points are outliers but *where* they are
//! outlying. These helpers compare reported outlying subspaces against the
//! ground-truth subspaces planted by the generators (experiments E3/E6).

use spot_subspace::Subspace;

/// Best Jaccard similarity between `truth` and any reported subspace; 0
/// when nothing was reported.
pub fn best_jaccard(truth: Subspace, reported: &[Subspace]) -> f64 {
    reported
        .iter()
        .map(|s| truth.jaccard(s))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dims: &[usize]) -> Subspace {
        Subspace::from_dims(dims.iter().copied()).unwrap()
    }

    #[test]
    fn exact_match_scores_one() {
        let truth = s(&[1, 3]);
        assert!((best_jaccard(truth, &[s(&[0]), s(&[1, 3])]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap() {
        let truth = s(&[1, 3]);
        // overlap {3}, union {1,2,3} → 1/3
        let j = best_jaccard(truth, &[s(&[2, 3])]);
        assert!((j - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_scores_zero() {
        assert_eq!(best_jaccard(s(&[0]), &[]), 0.0);
    }
}
