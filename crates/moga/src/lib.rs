//! Multi-Objective Genetic Algorithm (MOGA) for SPOT.
//!
//! SPOT frames outlying-subspace search as multi-objective optimization:
//! find subspaces that simultaneously minimize the Relative Density and the
//! Inverse Relative Standard Deviation of the target points' projected
//! cells. Exhaustive lattice search is infeasible (the lattice has `2^ϕ−1`
//! members and the problem is NP-hard), so the paper employs a MOGA; this
//! crate implements it as NSGA-II (Deb et al. 2002) over the bitmask
//! chromosomes of `spot-subspace`.
//!
//! The crate is independent of the synopsis layer: concrete objective
//! functions implement [`SubspaceProblem`] (SPOT's sparsity objectives live
//! in the `spot` crate; `spot-baselines` provides an exhaustive reference
//! search used to validate MOGA's quality in experiment E6).

pub mod dominance;
pub mod hypervolume;
pub mod nsga2;
pub mod problem;

pub use dominance::{dominates, pareto_front_indices};
pub use hypervolume::hypervolume;
pub use nsga2::{
    assign_rank_and_crowding, run, run_traced, GenerationStats, Individual, MogaConfig,
    MogaOutcome, ObjectiveArena, RankScratch,
};
pub use problem::{HiddenTargetProblem, SubspaceProblem};
