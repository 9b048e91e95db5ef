//! NSGA-II over subspace chromosomes.
//!
//! The paper's MOGA searches the space lattice for subspaces that optimize
//! several sparsity criteria at once (RD and IRSD of the target points'
//! cells). This module implements the standard NSGA-II machinery (Deb et
//! al. 2002): fast non-dominated sorting, crowding-distance diversity,
//! binary tournament selection and (μ+λ) elitist replacement, with the
//! chromosome-level variation operators from `spot-subspace`.

use crate::dominance::dominates;
use crate::problem::SubspaceProblem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_subspace::{genetic, Subspace};
use spot_types::{FxHashMap, Result, SpotError};

/// NSGA-II tuning knobs.
#[derive(Debug, Clone)]
pub struct MogaConfig {
    /// Population size μ (≥ 4, even).
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability that a child is produced by crossover (otherwise it is a
    /// mutated clone of one parent).
    pub crossover_rate: f64,
    /// Per-bit mutation probability applied to every child.
    pub mutation_rate: f64,
    /// RNG seed — fixed seeds make learning reproducible.
    pub seed: u64,
}

impl Default for MogaConfig {
    fn default() -> Self {
        MogaConfig {
            population: 40,
            generations: 30,
            crossover_rate: 0.9,
            mutation_rate: 0.05,
            seed: 0xC0FFEE,
        }
    }
}

impl MogaConfig {
    fn validate(&self) -> Result<()> {
        if self.population < 4 {
            return Err(SpotError::InvalidConfig(
                "MOGA population must be at least 4".into(),
            ));
        }
        if self.generations == 0 {
            return Err(SpotError::InvalidConfig(
                "MOGA needs at least one generation".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.crossover_rate) {
            return Err(SpotError::InvalidConfig(
                "crossover rate must be in [0,1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err(SpotError::InvalidConfig(
                "mutation rate must be in [0,1]".into(),
            ));
        }
        Ok(())
    }
}

/// The objective vectors of a run, one fixed-width row per distinct
/// chromosome evaluated, in one allocation. Individuals name their row, so
/// a memoized evaluation is a `u32` copy, not a vector clone.
#[derive(Debug, Clone)]
pub struct ObjectiveArena {
    width: usize,
    values: Vec<f64>,
}

impl ObjectiveArena {
    /// An empty arena of `width` objectives per row.
    pub fn new(width: usize) -> Self {
        ObjectiveArena {
            width,
            values: Vec::new(),
        }
    }

    /// Objectives per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Rows held.
    pub fn len(&self) -> usize {
        self.values.len().checked_div(self.width).unwrap_or(0)
    }

    /// `true` when no row has been pushed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends a zeroed row, lets `fill` write it, and returns its index.
    pub fn push_with(&mut self, fill: impl FnOnce(&mut [f64])) -> u32 {
        let row = u32::try_from(self.len()).expect("fewer than 2^32 distinct chromosomes");
        let at = self.values.len();
        self.values.resize(at + self.width, 0.0);
        fill(&mut self.values[at..]);
        row
    }

    /// The objective vector in `row`.
    #[inline]
    pub fn row(&self, row: u32) -> &[f64] {
        let at = row as usize * self.width;
        &self.values[at..at + self.width]
    }
}

/// One evaluated chromosome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Individual {
    /// The subspace encoded by the chromosome.
    pub subspace: Subspace,
    /// Row of the run's [`ObjectiveArena`] holding its objective vector
    /// (minimized).
    pub row: u32,
    /// Non-domination rank (0 = Pareto front).
    pub rank: usize,
    /// Crowding distance within its rank (∞ at the boundary).
    pub crowding: f64,
}

/// Convergence snapshot taken after each generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationStats {
    /// Generation index (0 = initial population).
    pub generation: usize,
    /// Archive size after this generation.
    pub archive_size: usize,
    /// Hypervolume of the archive w.r.t. the reference point `1.1` per
    /// objective (objectives are normalized into `[0,1]` by SPOT's
    /// problems). `None` when the problem has more than 3 objectives.
    pub hypervolume: Option<f64>,
    /// Best (lowest) equal-weight objective sum seen so far.
    pub best_scalar: f64,
}

/// Result of one MOGA run.
#[derive(Debug, Clone)]
pub struct MogaOutcome {
    /// Final population, best rank first.
    pub population: Vec<Individual>,
    /// Deduplicated Pareto archive accumulated over all generations.
    pub archive: Vec<Individual>,
    /// Objective vectors of every chromosome the run evaluated; the
    /// individuals' `row`s index it.
    pub objectives: ObjectiveArena,
    /// Distinct subspaces evaluated (memoized evaluation count).
    pub evaluations: usize,
}

impl MogaOutcome {
    /// The objective vector of one of this run's individuals.
    pub fn objectives_of(&self, ind: &Individual) -> &[f64] {
        self.objectives.row(ind.row)
    }

    /// The top `k` archive subspaces ranked by weighted objective sum
    /// (equal weights). This is how SPOT extracts "top sparse subspaces"
    /// from a Pareto set.
    pub fn top_k(&self, k: usize) -> Vec<(Subspace, f64)> {
        let mut scored: Vec<(Subspace, f64)> = self
            .archive
            .iter()
            .map(|ind| (ind.subspace, self.objectives_of(ind).iter().sum::<f64>()))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("objective sums are not NaN"));
        scored.truncate(k);
        scored
    }
}

/// Runs NSGA-II on `problem`. Evaluations are memoized per subspace mask, so
/// the effort is bounded by the number of *distinct* chromosomes visited.
///
/// This is the detector's entry point (learning stage, OS growth,
/// `explain`): it keeps no per-generation record. [`run_traced`] is the
/// same search with the convergence history experiment E6 plots.
pub fn run<P: SubspaceProblem>(problem: &mut P, config: &MogaConfig) -> Result<MogaOutcome> {
    evolve(problem, config, |_, _, _| {})
}

/// [`run`] plus a [`GenerationStats`] per generation (index 0 = the
/// initial population). The archive hypervolume it records costs more than
/// a generation of a small search, which is why [`run`] does not take it.
pub fn run_traced<P: SubspaceProblem>(
    problem: &mut P,
    config: &MogaConfig,
) -> Result<(MogaOutcome, Vec<GenerationStats>)> {
    let mut history = Vec::with_capacity(config.generations + 1);
    let outcome = evolve(problem, config, |generation, archive, objectives| {
        history.push(snapshot(generation, archive, objectives));
    })?;
    Ok((outcome, history))
}

/// The search behind [`run`] and [`run_traced`]; `observe` sees the archive
/// after the initial population and after every generation.
///
/// Nothing is allocated per individual or per generation: objective
/// vectors live in one arena (which, like its mask index and the archive,
/// only grows), individuals are `Copy`, and the (μ+λ) pool, the ranking
/// scratch and the survivor buffer are sized once.
fn evolve<P: SubspaceProblem>(
    problem: &mut P,
    config: &MogaConfig,
    mut observe: impl FnMut(usize, &[Individual], &ObjectiveArena),
) -> Result<MogaOutcome> {
    config.validate()?;
    let phi = problem.phi();
    if phi == 0 || phi > spot_subspace::subspace::MAX_DIMS {
        return Err(SpotError::TooManyDimensions(phi));
    }
    let max_card = problem.max_cardinality().unwrap_or(phi).clamp(1, phi);
    let mu = config.population;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut objectives = ObjectiveArena::new(problem.num_objectives());
    let mut rows: FxHashMap<u64, u32> = FxHashMap::default();

    // Initial population: random subspaces up to the cardinality cap.
    let mut pop: Vec<Individual> = Vec::with_capacity(2 * mu);
    for _ in 0..mu {
        let s = genetic::random_subspace(phi, max_card, &mut rng);
        pop.push(evaluated(s, problem, &mut rows, &mut objectives));
    }
    let mut scratch = RankScratch::default();
    assign_rank_and_crowding(&objectives, &mut pop, &mut scratch);

    let mut archive: Vec<Individual> = Vec::new();
    absorb_into_archive(&mut archive, &pop, &objectives);
    observe(0, &archive, &objectives);

    let mut survivors: Vec<Individual> = Vec::with_capacity(mu);
    let mut order: Vec<u32> = Vec::with_capacity(2 * mu);
    for generation in 0..config.generations {
        // Variation: binary tournaments among the μ parents pick the
        // mates; crossover + mutation append λ = μ children to the pool.
        while pop.len() < 2 * mu {
            let a = tournament(&pop[..mu], &mut rng);
            let b = tournament(&pop[..mu], &mut rng);
            let mut child = if rng.gen_bool(config.crossover_rate) {
                genetic::uniform_crossover(a.subspace, b.subspace, phi, &mut rng)
            } else {
                a.subspace
            };
            child = genetic::mutate(child, phi, config.mutation_rate, &mut rng);
            let child = genetic::repair_with_max_card(child.mask(), phi, max_card, &mut rng);
            pop.push(evaluated(child, problem, &mut rows, &mut objectives));
        }
        // (μ+λ) elitist replacement: the μ best by (rank, crowding), pool
        // order breaking ties — a stable sort without its merge buffer.
        assign_rank_and_crowding(&objectives, &mut pop, &mut scratch);
        order.clear();
        order.extend(0..pop.len() as u32);
        order.sort_unstable_by(|&x, &y| {
            let (a, b) = (&pop[x as usize], &pop[y as usize]);
            a.rank
                .cmp(&b.rank)
                .then(
                    b.crowding
                        .partial_cmp(&a.crowding)
                        .expect("crowding is not NaN"),
                )
                .then(x.cmp(&y))
        });
        survivors.clear();
        survivors.extend(order[..mu].iter().map(|&i| pop[i as usize]));
        std::mem::swap(&mut pop, &mut survivors);
        absorb_into_archive(&mut archive, &pop, &objectives);
        observe(generation + 1, &archive, &objectives);
    }

    // `pop` left the last replacement sorted best rank first.
    Ok(MogaOutcome {
        population: pop,
        archive,
        evaluations: objectives.len(),
        objectives,
    })
}

/// `s` as an unranked individual: its objective row is looked up by mask,
/// and evaluated into the arena the first time the mask is seen.
fn evaluated<P: SubspaceProblem>(
    s: Subspace,
    problem: &mut P,
    rows: &mut FxHashMap<u64, u32>,
    objectives: &mut ObjectiveArena,
) -> Individual {
    let row = *rows
        .entry(s.mask())
        .or_insert_with(|| objectives.push_with(|out| problem.evaluate(s, out)));
    Individual {
        subspace: s,
        row,
        rank: 0,
        crowding: 0.0,
    }
}

/// Convergence snapshot of the current archive.
fn snapshot(
    generation: usize,
    archive: &[Individual],
    objectives: &ObjectiveArena,
) -> GenerationStats {
    let best_scalar = archive
        .iter()
        .map(|i| objectives.row(i.row).iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    let m = objectives.width();
    let hypervolume = (m == 2 || m == 3).then(|| {
        let front: Vec<Vec<f64>> = archive
            .iter()
            .map(|i| objectives.row(i.row).to_vec())
            .collect();
        let reference = vec![1.1; m];
        crate::hypervolume::hypervolume(&front, &reference)
    });
    GenerationStats {
        generation,
        archive_size: archive.len(),
        hypervolume,
        best_scalar,
    }
}

/// Binary tournament by (rank, crowding).
fn tournament<R: Rng>(pop: &[Individual], rng: &mut R) -> Individual {
    let a = pop[rng.gen_range(0..pop.len())];
    let b = pop[rng.gen_range(0..pop.len())];
    if (a.rank, std::cmp::Reverse(ordered(a.crowding)))
        <= (b.rank, std::cmp::Reverse(ordered(b.crowding)))
    {
        a
    } else {
        b
    }
}

/// Total order helper for f64 crowding values (no NaNs by construction).
fn ordered(x: f64) -> std::cmp::Ordering {
    x.partial_cmp(&0.0).expect("crowding is not NaN")
}

/// Working memory of [`assign_rank_and_crowding`], kept by the caller so a
/// search ranks generation after generation without allocating.
#[derive(Debug, Default)]
pub struct RankScratch {
    /// The population's objective vectors, gathered in population order.
    objs: Vec<f64>,
    /// Per individual: how many others dominate it and are not yet peeled.
    dominators: Vec<u32>,
    /// Bit matrix, one row per individual: bit `j` of row `i` is set when
    /// `i` dominates `j`.
    dominated: Vec<u64>,
    /// Individuals in peel order; each front is a contiguous stretch.
    peeled: Vec<u32>,
    /// One front's (objective value, position in the front), sorted.
    order: Vec<(f64, u32)>,
}

/// Deb's fast non-dominated sort + crowding distance, in place. `pop`'s
/// objective vectors are the rows of `objectives` its individuals name.
pub fn assign_rank_and_crowding(
    objectives: &ObjectiveArena,
    pop: &mut [Individual],
    scratch: &mut RankScratch,
) {
    let (n, m) = (pop.len(), objectives.width());
    let RankScratch {
        objs,
        dominators,
        dominated,
        peeled,
        order,
    } = scratch;
    objs.clear();
    for ind in pop.iter() {
        objs.extend_from_slice(objectives.row(ind.row));
    }
    // Fast non-dominated sort. One pass over a pair's objectives settles
    // both directions, and records the outcome without branching on it:
    // which of two random vectors dominates is not predictable.
    let words = n.div_ceil(64);
    dominators.clear();
    dominators.resize(n, 0);
    dominated.clear();
    dominated.resize(n * words, 0);
    for i in 0..n {
        let a = &objs[i * m..(i + 1) * m];
        for j in (i + 1)..n {
            let b = &objs[j * m..(j + 1) * m];
            let (mut a_better, mut b_better) = (false, false);
            for (x, y) in a.iter().zip(b) {
                a_better |= x < y;
                b_better |= x > y;
            }
            let (i_wins, j_wins) = (a_better & !b_better, b_better & !a_better);
            dominated[i * words + j / 64] |= u64::from(i_wins) << (j % 64);
            dominated[j * words + i / 64] |= u64::from(j_wins) << (i % 64);
            dominators[j] += u32::from(i_wins);
            dominators[i] += u32::from(j_wins);
        }
    }
    // Peel front after front. A row's bits come out in ascending order, so
    // every front lists its members in the order the textbook per-individual
    // lists would — crowding ties below depend on it.
    peeled.clear();
    peeled.extend((0..n as u32).filter(|&i| dominators[i as usize] == 0));
    let (mut start, mut rank) = (0, 0);
    while start < peeled.len() {
        let end = peeled.len();
        for at in start..end {
            let i = peeled[at] as usize;
            pop[i].rank = rank;
            for (w, &word) in dominated[i * words..(i + 1) * words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let j = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    dominators[j] -= 1;
                    if dominators[j] == 0 {
                        peeled.push(j as u32);
                    }
                }
            }
        }
        assign_crowding(objs, m, pop, &peeled[start..end], order);
        start = end;
        rank += 1;
    }
}

/// Crowding distance of one front (indices into `pop`, whose objective
/// vectors are the `m`-wide rows of `objs`).
fn assign_crowding(
    objs: &[f64],
    m: usize,
    pop: &mut [Individual],
    front: &[u32],
    order: &mut Vec<(f64, u32)>,
) {
    if front.len() <= 2 {
        for &i in front {
            pop[i as usize].crowding = f64::INFINITY;
        }
        return;
    }
    for &i in front {
        pop[i as usize].crowding = 0.0;
    }
    for obj in 0..m {
        // By objective value, front order breaking ties.
        order.clear();
        order.extend(
            front
                .iter()
                .zip(0u32..)
                .map(|(&i, at)| (objs[i as usize * m + obj], at)),
        );
        order.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("objectives are not NaN")
                .then(a.1.cmp(&b.1))
        });
        let member = |at: u32| front[at as usize] as usize;
        let (first, last) = (order[0], order[order.len() - 1]);
        pop[member(first.1)].crowding = f64::INFINITY;
        pop[member(last.1)].crowding = f64::INFINITY;
        let span = last.0 - first.0;
        if span <= f64::EPSILON {
            continue;
        }
        for w in order.windows(3) {
            let mid = &mut pop[member(w[1].1)];
            if mid.crowding.is_finite() {
                mid.crowding += (w[2].0 - w[0].0) / span;
            }
        }
    }
}

/// Merges the Pareto-rank-0 members of `pop` into `archive`, keeping the
/// archive itself non-dominated and deduplicated.
fn absorb_into_archive(
    archive: &mut Vec<Individual>,
    pop: &[Individual],
    objectives: &ObjectiveArena,
) {
    for ind in pop.iter().filter(|i| i.rank == 0) {
        if archive.iter().any(|a| a.subspace == ind.subspace) {
            continue;
        }
        let objs = objectives.row(ind.row);
        if archive
            .iter()
            .any(|a| dominates(objectives.row(a.row), objs))
        {
            continue;
        }
        archive.retain(|a| !dominates(objs, objectives.row(a.row)));
        archive.push(*ind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::pareto_front_indices;
    use crate::problem::HiddenTargetProblem;
    use proptest::prelude::*;

    /// One unranked individual per objective vector, over their arena.
    fn population(objs: &[Vec<f64>]) -> (ObjectiveArena, Vec<Individual>) {
        let mut arena = ObjectiveArena::new(objs[0].len());
        let pop = objs
            .iter()
            .map(|o| Individual {
                subspace: Subspace::from_mask(1).unwrap(),
                row: arena.push_with(|out| out.copy_from_slice(o)),
                rank: usize::MAX,
                crowding: -1.0,
            })
            .collect();
        (arena, pop)
    }

    fn ranked(objs: &[Vec<f64>]) -> Vec<Individual> {
        let (arena, mut pop) = population(objs);
        assign_rank_and_crowding(&arena, &mut pop, &mut RankScratch::default());
        pop
    }

    #[test]
    fn rank_zero_matches_naive_front() {
        let objs = vec![
            vec![1.0, 4.0],
            vec![2.0, 3.0],
            vec![3.0, 3.0],
            vec![4.0, 1.0],
            vec![4.0, 4.0],
        ];
        let pop = ranked(&objs);
        let rank0: Vec<usize> = (0..pop.len()).filter(|&i| pop[i].rank == 0).collect();
        assert_eq!(rank0, pareto_front_indices(&objs));
        // Dominated points have strictly higher rank.
        assert!(pop[2].rank > 0);
        assert!(pop[4].rank > 0);
    }

    #[test]
    fn boundary_crowding_is_infinite() {
        let pop = ranked(&[
            vec![1.0, 5.0],
            vec![2.0, 4.0],
            vec![3.0, 3.0],
            vec![4.0, 2.0],
            vec![5.0, 1.0],
        ]);
        assert!(pop[0].crowding.is_infinite());
        assert!(pop[4].crowding.is_infinite());
        assert!(pop[2].crowding.is_finite());
        assert!(pop[2].crowding > 0.0);
    }

    #[test]
    fn moga_finds_hidden_target() {
        let target = Subspace::from_dims([2, 5, 9]).unwrap();
        let mut problem = HiddenTargetProblem::new(12, target);
        let config = MogaConfig {
            population: 40,
            generations: 40,
            ..Default::default()
        };
        let out = run(&mut problem, &config).unwrap();
        // The target has Hamming distance 0 — it must be in the archive.
        assert!(
            out.archive.iter().any(|i| i.subspace == target),
            "archive missed the target; archive size {}",
            out.archive.len()
        );
        // Memoization bounds evaluations by distinct chromosomes.
        assert!(out.evaluations <= 40 * 41);
    }

    #[test]
    fn moga_is_deterministic_for_fixed_seed() {
        let target = Subspace::from_dims([1, 4]).unwrap();
        let run_once = || {
            let mut p = HiddenTargetProblem::new(10, target);
            let cfg = MogaConfig {
                seed: 7,
                ..Default::default()
            };
            run(&mut p, &cfg)
                .unwrap()
                .top_k(5)
                .into_iter()
                .map(|(s, _)| s.mask())
                .collect::<Vec<_>>()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn config_validation() {
        let mut p = HiddenTargetProblem::new(8, Subspace::from_mask(1).unwrap());
        assert!(run(
            &mut p,
            &MogaConfig {
                population: 2,
                ..Default::default()
            }
        )
        .is_err());
        assert!(run(
            &mut p,
            &MogaConfig {
                generations: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(run(
            &mut p,
            &MogaConfig {
                crossover_rate: 1.5,
                ..Default::default()
            }
        )
        .is_err());
        assert!(run(
            &mut p,
            &MogaConfig {
                mutation_rate: -0.1,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn archive_is_mutually_non_dominated() {
        let target = Subspace::from_dims([0, 3, 6]).unwrap();
        let mut p = HiddenTargetProblem::new(10, target);
        let out = run(&mut p, &MogaConfig::default()).unwrap();
        for a in &out.archive {
            for b in &out.archive {
                assert!(
                    !dominates(out.objectives_of(a), out.objectives_of(b))
                        || a.subspace == b.subspace,
                    "archive contains dominated member"
                );
            }
        }
    }

    #[test]
    fn top_k_orders_by_objective_sum() {
        let target = Subspace::from_dims([0, 1]).unwrap();
        let mut p = HiddenTargetProblem::new(8, target);
        let out = run(&mut p, &MogaConfig::default()).unwrap();
        let top = out.top_k(4);
        for w in top.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn history_tracks_convergence() {
        let target = Subspace::from_dims([1, 4, 6]).unwrap();
        let mut p = HiddenTargetProblem::new(10, target);
        let cfg = MogaConfig {
            generations: 25,
            ..Default::default()
        };
        let (out, history) = run_traced(&mut p, &cfg).unwrap();
        assert_eq!(history.len(), 26); // initial + one per generation
        assert_eq!(history[25].archive_size, out.archive.len());
        // Best scalar objective never worsens (elitist archive).
        for w in history.windows(2) {
            assert!(w[1].best_scalar <= w[0].best_scalar + 1e-12);
            assert_eq!(w[1].generation, w[0].generation + 1);
        }
        // Hypervolume is reported for the 2-objective problem.
        assert!(history.iter().all(|h| h.hypervolume.is_some()));
    }

    #[test]
    fn respects_max_cardinality() {
        struct Capped(HiddenTargetProblem);
        impl SubspaceProblem for Capped {
            fn phi(&self) -> usize {
                self.0.phi()
            }
            fn num_objectives(&self) -> usize {
                self.0.num_objectives()
            }
            fn evaluate(&mut self, s: Subspace, out: &mut [f64]) {
                self.0.evaluate(s, out)
            }
            fn max_cardinality(&self) -> Option<usize> {
                Some(3)
            }
        }
        let mut p = Capped(HiddenTargetProblem::new(
            16,
            Subspace::from_dims([1, 2]).unwrap(),
        ));
        let out = run(&mut p, &MogaConfig::default()).unwrap();
        assert!(out.population.iter().all(|i| i.subspace.cardinality() <= 3));
        assert!(out.archive.iter().all(|i| i.subspace.cardinality() <= 3));
    }

    /// Deb's sort as the textbook writes it — a dominated-list per
    /// individual, a stable sort per objective — over plain vectors. The
    /// oracle for ranks *and* crowding, ties included.
    #[allow(clippy::needless_range_loop)] // `obj` indexes the inner vectors
    fn textbook(objs: &[Vec<f64>]) -> Vec<(usize, f64)> {
        let n = objs.len();
        let mut out = vec![(0usize, 0.0f64); n];
        let mut dominated_by = vec![0usize; n];
        let mut dominates_list: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if dominates(&objs[i], &objs[j]) {
                    dominates_list[i].push(j);
                    dominated_by[j] += 1;
                } else if dominates(&objs[j], &objs[i]) {
                    dominates_list[j].push(i);
                    dominated_by[i] += 1;
                }
            }
        }
        let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
        let mut rank = 0;
        while !current.is_empty() {
            let mut next = Vec::new();
            for &i in &current {
                out[i].0 = rank;
                for &j in &dominates_list[i] {
                    dominated_by[j] -= 1;
                    if dominated_by[j] == 0 {
                        next.push(j);
                    }
                }
            }
            if current.len() <= 2 {
                for &i in &current {
                    out[i].1 = f64::INFINITY;
                }
            } else {
                for obj in 0..objs[0].len() {
                    let mut order = current.clone();
                    order.sort_by(|&a, &b| objs[a][obj].partial_cmp(&objs[b][obj]).unwrap());
                    let (lo, hi) = (order[0], order[order.len() - 1]);
                    let span = objs[hi][obj] - objs[lo][obj];
                    out[lo].1 = f64::INFINITY;
                    out[hi].1 = f64::INFINITY;
                    if span <= f64::EPSILON {
                        continue;
                    }
                    for w in order.windows(3) {
                        if out[w[1]].1.is_finite() {
                            out[w[1]].1 += (objs[w[2]][obj] - objs[w[0]][obj]) / span;
                        }
                    }
                }
            }
            current = next;
            rank += 1;
        }
        out
    }

    proptest! {
        #[test]
        fn rank_and_crowding_match_the_textbook_sort(
            // A coarse lattice, so duplicate vectors and per-objective ties
            // (where only the order within a front decides) are the norm;
            // up to 150 individuals, so the bit matrix spans several words.
            cells in proptest::collection::vec(
                proptest::collection::vec(0u16..6, 3), 1..150
            )
        ) {
            let objs: Vec<Vec<f64>> = cells
                .iter()
                .map(|c| c.iter().map(|&v| f64::from(v) * 0.25).collect())
                .collect();
            let (arena, mut pop) = population(&objs);
            // One scratch across two calls: nothing may leak between them.
            let mut scratch = RankScratch::default();
            assign_rank_and_crowding(&arena, &mut pop[..objs.len() / 2], &mut scratch);
            assign_rank_and_crowding(&arena, &mut pop, &mut scratch);
            for (got, want) in pop.iter().zip(textbook(&objs)) {
                prop_assert_eq!(got.rank, want.0);
                prop_assert_eq!(got.crowding.to_bits(), want.1.to_bits());
            }
        }

        #[test]
        fn fast_sort_rank0_equals_naive_front(
            objs in proptest::collection::vec(
                proptest::collection::vec(0.0f64..10.0, 2..4usize), 1..30
            )
        ) {
            // Pad all vectors to the same length.
            let m = objs.iter().map(Vec::len).min().unwrap();
            let objs: Vec<Vec<f64>> = objs.into_iter().map(|mut v| { v.truncate(m); v }).collect();
            let pop = ranked(&objs);
            let rank0: Vec<usize> = (0..pop.len()).filter(|&i| pop[i].rank == 0).collect();
            prop_assert_eq!(rank0, pareto_front_indices(&objs));
        }

        #[test]
        fn every_individual_gets_a_rank(
            objs in proptest::collection::vec(
                proptest::collection::vec(0.0f64..5.0, 2), 1..40
            )
        ) {
            let pop = ranked(&objs);
            prop_assert!(pop.iter().all(|i| i.rank != usize::MAX));
            prop_assert!(pop.iter().all(|i| i.crowding >= 0.0));
        }
    }
}
