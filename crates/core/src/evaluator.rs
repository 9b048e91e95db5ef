//! Batch sparsity evaluation — the learning stage's objective functions.
//!
//! During offline learning (and during online OS growth, against the
//! reservoir sample) SPOT must answer: *how sparse do some target points
//! look in an arbitrary candidate subspace `s`?* The streaming synopses
//! cannot answer that — they only cover the subspaces already in SST — so
//! the learning stage materializes the training batch once
//! ([`TrainingEvaluator`] pre-quantizes every point to its base-cell
//! coordinates) and then evaluates any subspace in O(n·|s|) by grouping the
//! projected coordinates on the fly.
//!
//! [`SparsityProblem`] packages that evaluation as the MOGA's objective
//! vector: mean normalized RD and mean normalized IRSD of the target
//! points' cells (both minimized), plus a small dimensionality penalty that
//! steers the search toward concise outlying subspaces.

use spot_moga::SubspaceProblem;
use spot_subspace::Subspace;
use spot_synopsis::{CellKey, Grid};
use spot_types::{DataPoint, FxHashMap, Result, SpotError};
use std::borrow::Cow;

/// IRSD values are clamped to this cap before normalization so a single
/// zero-variance micro-cluster cannot blow up a mean objective.
pub const IRSD_CAP: f64 = 10.0;

/// A quantized training batch that can score any subspace.
///
/// The batch is held as a [`Cow`]: the offline learning stage borrows the
/// caller's training slice (no clone of the batch is ever made), while
/// online callers that assemble an ad-hoc batch (reservoir ∪ outliers,
/// `explain` probes) pass an owned `Vec`.
#[derive(Debug, Clone)]
pub struct TrainingEvaluator<'a> {
    grid: Grid,
    points: Cow<'a, [DataPoint]>,
    /// Base-cell coordinates per point, precomputed once.
    coords: Vec<Vec<u16>>,
}

/// Reusable working memory of [`TrainingEvaluator::sparsity_with`]: the
/// cell index, the per-cell count and moment columns and the per-point slot
/// memo of one grouping pass. A caller scoring many subspaces in a row
/// (a MOGA run, a self-evolution round) keeps one scratch, so each call
/// clears these instead of allocating and growing them afresh.
#[derive(Debug, Default)]
pub struct SparsityScratch {
    index: FxHashMap<CellKey, u32>,
    counts: Vec<f64>,
    moments: Vec<f64>,
    slot_of: Vec<u32>,
}

impl<'a> TrainingEvaluator<'a> {
    /// Quantizes `points` over `grid` — borrowed (`&[DataPoint]`) or owned
    /// (`Vec<DataPoint>`). Fails on dimension mismatches or an empty batch.
    pub fn new(grid: Grid, points: impl Into<Cow<'a, [DataPoint]>>) -> Result<Self> {
        let points = points.into();
        if points.is_empty() {
            return Err(SpotError::EmptyTrainingSet);
        }
        let coords = points
            .iter()
            .map(|p| grid.base_coords(p))
            .collect::<Result<Vec<_>>>()?;
        Ok(TrainingEvaluator {
            grid,
            points,
            coords,
        })
    }

    /// Number of points in the batch.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the batch is empty (never after `new`).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The batch points.
    pub fn points(&self) -> &[DataPoint] {
        &self.points
    }

    /// Mean `(rd, irsd)` of the cells containing the `targets` (indices
    /// into the batch; `None` = all points) in subspace `s`. RD is
    /// normalized as `rd/(1+rd)` into `[0,1)`; IRSD is clamped at
    /// [`IRSD_CAP`] and scaled into `[0,1]`.
    pub fn sparsity(&self, s: Subspace, targets: Option<&[usize]>) -> (f64, f64) {
        self.sparsity_with(s, targets, &mut SparsityScratch::default())
    }

    /// [`TrainingEvaluator::sparsity`] over caller-kept working memory —
    /// the form for callers that score subspace after subspace.
    pub fn sparsity_with(
        &self,
        s: Subspace,
        targets: Option<&[usize]>,
        scratch: &mut SparsityScratch,
    ) -> (f64, f64) {
        // Group the batch into projected cells, SoA-style: one flat
        // moments buffer (LS then SS per cell) instead of two Vecs per
        // cell, and the slot of every point's own cell memoized during
        // the grouping pass so scoring needs no second key projection or
        // hash lookup. This runs on the online hot path (CS
        // self-evolution scores ~2x cs_capacity candidates per
        // maintenance tick), and the per-cell accumulation order is
        // unchanged, so every float result is bit-identical to the naive
        // grouping.
        let card = s.cardinality();
        let stride = 2 * card;
        let SparsityScratch {
            index,
            counts,
            moments,
            slot_of,
        } = scratch;
        index.clear();
        counts.clear();
        moments.clear();
        slot_of.clear();
        for (p, base) in self.points.iter().zip(self.coords.iter()) {
            let key = self.grid.project_key(base, &s);
            let slot = *index.entry(key).or_insert_with(|| {
                counts.push(0.0);
                moments.extend(std::iter::repeat_n(0.0, stride));
                (counts.len() - 1) as u32
            });
            slot_of.push(slot);
            let slot = slot as usize;
            counts[slot] += 1.0;
            let (ls, ss) = moments[slot * stride..(slot + 1) * stride].split_at_mut(card);
            for (i, d) in s.dims().enumerate() {
                let v = p.value(d);
                ls[i] += v;
                ss[i] += v * v;
            }
        }
        let n = self.points.len() as f64;
        let cell_count = self.grid.cell_count_in(&s);
        let uniform_sigma = self.grid.uniform_sigma_in(&s);
        let score_one = |idx: usize| -> (f64, f64) {
            let slot = slot_of[idx] as usize;
            let count = counts[slot];
            let rd = count * cell_count / n;
            let irsd = if count < 2.0 {
                0.0
            } else {
                let (ls, ss) = moments[slot * stride..(slot + 1) * stride].split_at(card);
                let mut var = 0.0;
                for i in 0..card {
                    let m = ls[i] / count;
                    var += (ss[i] / count - m * m).max(0.0);
                }
                let sigma = var.sqrt();
                if sigma > f64::EPSILON {
                    (uniform_sigma / sigma).min(IRSD_CAP)
                } else {
                    IRSD_CAP
                }
            };
            (rd / (1.0 + rd), irsd / IRSD_CAP)
        };
        let mut rd_sum = 0.0;
        let mut irsd_sum = 0.0;
        let mut count = 0usize;
        match targets {
            Some(idx) => {
                for &i in idx {
                    let (r, s_) = score_one(i);
                    rd_sum += r;
                    irsd_sum += s_;
                    count += 1;
                }
            }
            None => {
                for i in 0..self.points.len() {
                    let (r, s_) = score_one(i);
                    rd_sum += r;
                    irsd_sum += s_;
                    count += 1;
                }
            }
        }
        if count == 0 {
            return (1.0, 1.0); // nothing to score: maximally un-sparse
        }
        (rd_sum / count as f64, irsd_sum / count as f64)
    }
}

/// MOGA problem: minimize the mean normalized RD and IRSD of the target
/// points plus a dimensionality penalty.
pub struct SparsityProblem<'a> {
    evaluator: &'a TrainingEvaluator<'a>,
    targets: Option<Vec<usize>>,
    max_cardinality: Option<usize>,
    scratch: SparsityScratch,
    /// Weight of the `|s|/ϕ` objective (0 disables it; the objective vector
    /// keeps three entries either way for a stable MOGA setup).
    pub dim_penalty: f64,
}

impl<'a> SparsityProblem<'a> {
    /// Problem over all batch points.
    pub fn whole_batch(
        evaluator: &'a TrainingEvaluator<'a>,
        max_cardinality: Option<usize>,
    ) -> Self {
        SparsityProblem {
            evaluator,
            targets: None,
            max_cardinality,
            scratch: SparsityScratch::default(),
            dim_penalty: 0.25,
        }
    }

    /// Problem over a target subset (e.g. the top outlying-degree points or
    /// one outlier exemplar).
    pub fn for_targets(
        evaluator: &'a TrainingEvaluator<'a>,
        targets: Vec<usize>,
        max_cardinality: Option<usize>,
    ) -> Self {
        SparsityProblem {
            evaluator,
            targets: Some(targets),
            max_cardinality,
            scratch: SparsityScratch::default(),
            dim_penalty: 0.25,
        }
    }
}

impl SubspaceProblem for SparsityProblem<'_> {
    fn phi(&self) -> usize {
        self.evaluator.grid().dims()
    }

    fn num_objectives(&self) -> usize {
        3
    }

    fn evaluate(&mut self, s: Subspace) -> Vec<f64> {
        let (rd, irsd) =
            self.evaluator
                .sparsity_with(s, self.targets.as_deref(), &mut self.scratch);
        let dim = self.dim_penalty * s.cardinality() as f64 / self.phi() as f64;
        vec![rd, irsd, dim]
    }

    fn max_cardinality(&self) -> Option<usize> {
        self.max_cardinality
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_types::DomainBounds;

    /// 2-dim batch: a tight cluster in dim 0 at 0.2 and a lone point at
    /// 0.9; dim 1 is uniform for everyone.
    fn batch() -> TrainingEvaluator<'static> {
        let grid = Grid::new(DomainBounds::unit(2), 10).unwrap();
        let mut pts: Vec<DataPoint> = (0..99)
            .map(|i| DataPoint::new(vec![0.2 + (i % 10) as f64 * 0.005, i as f64 / 99.0]))
            .collect();
        pts.push(DataPoint::new(vec![0.9, 0.5])); // index 99: the outlier
        TrainingEvaluator::new(grid, pts).unwrap()
    }

    #[test]
    fn outlier_target_is_sparse_in_its_dim() {
        let ev = batch();
        let s0 = Subspace::from_dims([0]).unwrap();
        let (rd_outlier, irsd_outlier) = ev.sparsity(s0, Some(&[99]));
        let (rd_cluster, _) = ev.sparsity(s0, Some(&[0]));
        assert!(rd_outlier < rd_cluster, "{rd_outlier} vs {rd_cluster}");
        assert_eq!(irsd_outlier, 0.0, "singleton cell reads maximally sparse");
    }

    #[test]
    fn uniform_dim_is_not_sparse_for_anyone() {
        let ev = batch();
        let s1 = Subspace::from_dims([1]).unwrap();
        let (rd, _) = ev.sparsity(s1, Some(&[99]));
        // In the uniform dim every cell holds ~10 of 100 points → rd ≈ 1,
        // normalized ≈ 0.5.
        assert!(rd > 0.4, "rd={rd}");
    }

    #[test]
    fn whole_batch_mean_is_bounded() {
        let ev = batch();
        for mask in 1u64..4 {
            let s = Subspace::from_mask(mask).unwrap();
            let (rd, irsd) = ev.sparsity(s, None);
            assert!((0.0..=1.0).contains(&rd));
            assert!((0.0..=1.0).contains(&irsd));
        }
    }

    #[test]
    fn reused_scratch_scores_bit_identically() {
        // One scratch across subspaces of different cardinality and cell
        // population, in both target modes, against a fresh scratch per
        // call: stale cells, counts or slot memos must never leak.
        let ev = batch();
        let mut scratch = SparsityScratch::default();
        for round in 0..2 {
            for mask in [3u64, 1, 2, 3, 1] {
                let s = Subspace::from_mask(mask).unwrap();
                for targets in [None, Some(&[99usize, 0, 7][..])] {
                    let (rd, irsd) = ev.sparsity_with(s, targets, &mut scratch);
                    let (want_rd, want_irsd) = ev.sparsity(s, targets);
                    assert_eq!(rd.to_bits(), want_rd.to_bits(), "round {round} mask {mask}");
                    assert_eq!(
                        irsd.to_bits(),
                        want_irsd.to_bits(),
                        "round {round} mask {mask}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_batch_rejected() {
        let grid = Grid::new(DomainBounds::unit(2), 10).unwrap();
        assert!(TrainingEvaluator::new(grid, vec![]).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let grid = Grid::new(DomainBounds::unit(2), 10).unwrap();
        let pts = vec![DataPoint::new(vec![0.5])];
        assert!(TrainingEvaluator::new(grid, pts).is_err());
    }

    #[test]
    fn moga_on_sparsity_problem_finds_the_outlying_dim() {
        let ev = batch();
        let mut problem = SparsityProblem::for_targets(&ev, vec![99], Some(2));
        let out = spot_moga::run(
            &mut problem,
            &spot_moga::MogaConfig {
                population: 16,
                generations: 15,
                ..Default::default()
            },
        )
        .unwrap();
        // Dim 0 (alone or with dim 1) must appear among the top subspaces;
        // dim 0 alone is where the target is sparsest.
        let top: Vec<Subspace> = out.top_k(3).into_iter().map(|(s, _)| s).collect();
        assert!(
            top.iter().any(|s| s.contains_dim(0)),
            "top subspaces {top:?} miss dim 0"
        );
    }

    #[test]
    fn problem_reports_three_objectives() {
        let ev = batch();
        let mut p = SparsityProblem::whole_batch(&ev, None);
        assert_eq!(p.num_objectives(), 3);
        let v = p.evaluate(Subspace::from_dims([0, 1]).unwrap());
        assert_eq!(v.len(), 3);
        assert!(v[2] > 0.0); // dimension penalty active by default
    }
}
