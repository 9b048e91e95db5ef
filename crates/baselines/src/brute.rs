//! Exhaustive subspace search (reference for MOGA quality).
//!
//! Finding outlying subspaces is NP-hard in general; exhaustive search of
//! the lattice is "totally infeasible when the dimensionality of data is
//! high" (paper, Section I). For *small* ϕ it is feasible, which makes it
//! the ground truth against which experiment E6 measures how much of the
//! true top-k the MOGA recovers at a fraction of the evaluations.

use spot_moga::{pareto_front_indices, SubspaceProblem};
use spot_subspace::{enumerate_up_to_dim, Subspace};
use spot_types::Result;

/// Outcome of an exhaustive sweep.
#[derive(Debug, Clone)]
pub struct BruteForceResult {
    /// Every subspace visited with its objective vector.
    pub evaluated: Vec<(Subspace, Vec<f64>)>,
    /// Indices (into `evaluated`) of the exact Pareto front.
    pub front: Vec<usize>,
}

impl BruteForceResult {
    /// The exact top-`k` subspaces by equal-weight objective sum — the same
    /// ranking rule `MogaOutcome::top_k` uses, so the two are comparable.
    pub fn top_k(&self, k: usize) -> Vec<(Subspace, f64)> {
        let mut scored: Vec<(Subspace, f64)> = self
            .evaluated
            .iter()
            .map(|(s, objs)| (*s, objs.iter().sum::<f64>()))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("objective sums are not NaN"));
        scored.truncate(k);
        scored
    }

    /// Number of objective evaluations performed.
    pub fn evaluations(&self) -> usize {
        self.evaluated.len()
    }
}

/// Evaluates *every* subspace with cardinality ≤ `max_dim` and returns the
/// exact front and ranking. Cost: `Σ C(ϕ,k)` evaluations.
pub fn brute_force_top_k<P: SubspaceProblem>(
    problem: &mut P,
    max_dim: usize,
) -> Result<BruteForceResult> {
    let phi = problem.phi();
    let subspaces = enumerate_up_to_dim(phi, max_dim)?;
    let width = problem.num_objectives();
    let evaluated: Vec<(Subspace, Vec<f64>)> = subspaces
        .into_iter()
        .map(|s| {
            let mut objectives = vec![0.0; width];
            problem.evaluate(s, &mut objectives);
            (s, objectives)
        })
        .collect();
    let objs: Vec<Vec<f64>> = evaluated.iter().map(|(_, o)| o.clone()).collect();
    let front = pareto_front_indices(&objs);
    Ok(BruteForceResult { evaluated, front })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_moga::{HiddenTargetProblem, MogaConfig};

    #[test]
    fn covers_whole_lattice_slice() {
        let target = Subspace::from_dims([1, 2]).unwrap();
        let mut p = HiddenTargetProblem::new(6, target);
        let res = brute_force_top_k(&mut p, 6).unwrap();
        assert_eq!(res.evaluations(), 63); // 2^6 - 1
                                           // The hidden target minimizes objective 1 exactly: it must be the
                                           // global best by Hamming distance, hence on the front.
        assert!(res.front.iter().any(|&i| res.evaluated[i].0 == target));
        assert_eq!(res.top_k(1)[0].0, target);
    }

    #[test]
    fn max_dim_restricts_enumeration() {
        let mut p = HiddenTargetProblem::new(6, Subspace::from_dims([0]).unwrap());
        let res = brute_force_top_k(&mut p, 2).unwrap();
        assert_eq!(res.evaluations(), 6 + 15);
        assert!(res.evaluated.iter().all(|(s, _)| s.cardinality() <= 2));
    }

    #[test]
    fn front_is_mutually_non_dominated() {
        let mut p = HiddenTargetProblem::new(5, Subspace::from_dims([0, 4]).unwrap());
        let res = brute_force_top_k(&mut p, 5).unwrap();
        for (i, (_, a)) in res.evaluated.iter().enumerate() {
            if res.front.contains(&i) {
                continue;
            }
            // Every non-front member must be dominated by someone.
            let dominated = res
                .evaluated
                .iter()
                .any(|(_, b)| spot_moga::dominates(b, a));
            assert!(dominated);
        }
        assert!(!res.front.is_empty());
    }

    #[test]
    fn moga_recovers_most_of_brute_force_top_k() {
        // The headline comparison of experiment E6, in miniature.
        let target = Subspace::from_dims([1, 3, 7]).unwrap();
        let mut p = HiddenTargetProblem::new(10, target);
        let exact = brute_force_top_k(&mut p, 10).unwrap();
        let exact_top: std::collections::HashSet<u64> =
            exact.top_k(5).into_iter().map(|(s, _)| s.mask()).collect();

        let mut p2 = HiddenTargetProblem::new(10, target);
        let moga = spot_moga::run(
            &mut p2,
            &MogaConfig {
                population: 40,
                generations: 40,
                ..Default::default()
            },
        )
        .unwrap();
        let got: std::collections::HashSet<u64> =
            moga.top_k(5).into_iter().map(|(s, _)| s.mask()).collect();
        let recovered = exact_top.intersection(&got).count();
        assert!(recovered >= 3, "recovered only {recovered}/5");
        // And with far fewer evaluations than the exhaustive sweep of a
        // larger lattice would need (here the lattice is small, so just
        // check MOGA stayed within its own budget).
        assert!(moga.evaluations <= 41 * 40);
    }
}
