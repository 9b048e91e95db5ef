//! The multi-objective problem interface.

use spot_subspace::Subspace;

/// A multi-objective minimization problem over the subspace lattice.
///
/// SPOT's concrete problem ("how sparse do the target points look in
/// subspace `s`?") lives in the `spot` crate, built on the training
/// evaluator; this trait keeps the genetic machinery independent of the
/// synopsis layer. All objectives are **minimized**.
pub trait SubspaceProblem {
    /// Dimensionality ϕ of the data (chromosomes use bits `0..phi`).
    fn phi(&self) -> usize;

    /// Number of objectives produced by [`SubspaceProblem::evaluate`].
    fn num_objectives(&self) -> usize;

    /// Writes the objective vector of a candidate subspace (all minimized)
    /// into `out`, which has [`SubspaceProblem::num_objectives`] entries —
    /// the search hands out rows of its objective arena, so an evaluation
    /// allocates nothing.
    fn evaluate(&mut self, s: Subspace, out: &mut [f64]);

    /// Optional cap on chromosome cardinality (number of participating
    /// attributes). `None` leaves the search free up to ϕ.
    fn max_cardinality(&self) -> Option<usize> {
        None
    }
}

/// Test/benchmark problem: minimize the Hamming distance to a hidden target
/// mask and the cardinality. The Pareto front interpolates between "small
/// subspace" and "the target subspace", with the target itself always on
/// the front — handy for verifying convergence.
#[derive(Debug, Clone)]
pub struct HiddenTargetProblem {
    phi: usize,
    target: Subspace,
    /// Number of `evaluate` calls, for effort accounting in tests.
    pub evaluations: usize,
}

impl HiddenTargetProblem {
    /// Creates the problem for a given hidden target.
    pub fn new(phi: usize, target: Subspace) -> Self {
        HiddenTargetProblem {
            phi,
            target,
            evaluations: 0,
        }
    }
}

impl SubspaceProblem for HiddenTargetProblem {
    fn phi(&self) -> usize {
        self.phi
    }

    fn num_objectives(&self) -> usize {
        2
    }

    fn evaluate(&mut self, s: Subspace, out: &mut [f64]) {
        self.evaluations += 1;
        out[0] = (s.mask() ^ self.target.mask()).count_ones() as f64;
        out[1] = s.cardinality() as f64 / self.phi as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hidden_target_scores_target_best() {
        let target = Subspace::from_dims([1, 3]).unwrap();
        let mut p = HiddenTargetProblem::new(8, target);
        let (mut at_target, mut off) = ([0.0; 2], [0.0; 2]);
        p.evaluate(target, &mut at_target);
        p.evaluate(Subspace::from_dims([0, 2]).unwrap(), &mut off);
        assert_eq!(at_target[0], 0.0);
        assert!(off[0] > 0.0);
        assert_eq!(p.evaluations, 2);
    }
}
