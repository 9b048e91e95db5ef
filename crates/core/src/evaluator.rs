//! Batch sparsity evaluation — the objective functions of the learning
//! stage and of the maintenance tick.
//!
//! During offline learning, and on every maintenance tick of the detection
//! stage (CS self-evolution, OS growth) against the reservoir sample, SPOT
//! must answer: *how sparse do some target points look in an arbitrary
//! candidate subspace `s`?* The streaming synopses cannot answer that —
//! they only cover the subspaces already in SST — so the batch is indexed
//! once ([`TrainingEvaluator`]) and any subspace is then scored against the
//! index.
//!
//! The index is columnar: per dimension the points' values, the bitset of
//! every occupied interval's members, and per point which of those bitsets
//! it belongs to. A subspace `s` is scored in one of two shapes, chosen by
//! the input alone:
//!
//! - **Targets** (a maintenance tick's buffered outliers, the learning
//!   stage's top outlying candidates): the projected cell of a target is
//!   the AND of `|s|` bitsets. Its count is the number of set bits; its
//!   moments are, per dimension, the sum over exactly those members in
//!   ascending point order. Only the cells that hold a target are formed.
//! - **The whole batch** (`targets = None`): one grouping pass over the
//!   points in ascending order assigns each point its cell by an exact key
//!   (a mixed-radix fold of its interval ranks), adds count and moments per
//!   cell, scores each cell once and sums the points' scores in point
//!   order. Every cell is formed, so no bitset is touched.
//!
//! Either way a cell's moments are the additions a sequential grouping pass
//! over the batch makes for that cell, in that pass's order, so every
//! result equals the grouping pass's bit for bit (`tests/sparsity_oracle.rs`
//! keeps that pass as the oracle and pins the two shapes against each
//! other).
//!
//! [`SparsityProblem`] packages that evaluation as the MOGA's objective
//! vector: mean normalized RD and mean normalized IRSD of the target
//! points' cells (both minimized), plus a small dimensionality penalty that
//! steers the search toward concise outlying subspaces.

use spot_moga::SubspaceProblem;
use spot_subspace::Subspace;
use spot_synopsis::Grid;
use spot_types::{DataPoint, FxHashMap, Result, SpotError};

/// IRSD values are clamped to this cap before normalization so a single
/// zero-variance micro-cluster cannot blow up a mean objective.
pub const IRSD_CAP: f64 = 10.0;

/// A batch of points indexed so that any subspace can be scored.
///
/// The index copies what it needs (values and interval memberships) and
/// keeps no reference to the points: the offline learning stage indexes the
/// caller's training slice, the maintenance tick indexes reservoir ∪
/// outlier buffer in place, and neither clones a `DataPoint`.
#[derive(Debug, Clone)]
pub struct TrainingEvaluator {
    grid: Grid,
    /// Points in the batch.
    n: usize,
    /// `u64` words per membership bitset: `ceil(n / 64)`.
    words: usize,
    /// Column-major values: `values[d * n + i]` is point `i` along `d`.
    values: Vec<f64>,
    /// Column-major: `bitset_of[d * n + i]` is the index (in units of
    /// `words` into `members`) of the bitset of point `i`'s interval along
    /// `d`.
    bitset_of: Vec<u32>,
    /// One membership bitset per occupied (dimension, interval): bit `i`
    /// is set when point `i` falls into that interval.
    members: Vec<u64>,
}

/// Reusable working memory of [`TrainingEvaluator::sparsity_with`]. A
/// caller scoring many subspaces in a row (a MOGA run, a self-evolution
/// round) keeps one scratch, so each call clears these instead of
/// allocating them afresh.
#[derive(Debug, Default)]
pub struct SparsityScratch {
    /// The membership bitset of the cell being scored.
    cell: Vec<u64>,
    /// Per point, the entry of `scores` holding its cell's score, or
    /// [`NONE`].
    score_of: Vec<u32>,
    /// Normalized `(rd, irsd)` of each distinct cell scored so far.
    scores: Vec<(f64, f64)>,
    /// The whole-batch grouping pass's cells; `score_of` holds each
    /// point's cell there.
    cells: Cells,
}

/// Working memory of the whole-batch grouping pass, sized by the cells it
/// forms (at most the batch) and by a key table of at most
/// [`DENSE_KEYS`] entries.
#[derive(Debug, Default)]
struct Cells {
    /// Folded key → cell id, for keys below [`DENSE_KEYS`]. Every entry is
    /// [`NONE`] between re-rankings.
    dense: Vec<u32>,
    /// The keys `dense` assigned in the current re-ranking, to reset them.
    keys: Vec<u32>,
    /// `(cell, interval rank)` → cell, for a fold whose keys would pass
    /// [`DENSE_KEYS`].
    sparse: FxHashMap<u64, u32>,
    /// Per cell, its member count.
    counts: Vec<u32>,
    /// Per cell, `LS` then `SS` of the group of dimensions being summed.
    moments: Vec<f64>,
    /// Per cell, its variance terms so far, in the order of `s.dims()`.
    var: Vec<f64>,
}

/// "Not assigned yet" in the `u32` tables of the index and the scratch.
const NONE: u32 = u32::MAX;

/// Largest folded key space the grouping pass maps through its dense
/// table (256 KiB of `u32`). At granularity 10 every subspace of up to four
/// dimensions stays below it; a wider fold first re-ranks the cells formed
/// so far, and a fold still too wide goes through a hash map.
const DENSE_KEYS: usize = 1 << 16;

impl TrainingEvaluator {
    /// Indexes `points` over `grid`. The iterator is walked twice (count,
    /// then fill). Fails on dimension mismatches, `NaN` values or an empty
    /// batch.
    pub fn new<'p, I>(grid: Grid, points: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'p DataPoint>,
        I::IntoIter: Clone,
    {
        let points = points.into_iter();
        let n = points.clone().count();
        if n == 0 {
            return Err(SpotError::EmptyTrainingSet);
        }
        if u32::try_from(n).is_err() {
            return Err(SpotError::InvalidConfig(format!(
                "a batch of {n} points is too large to index"
            )));
        }
        let phi = grid.dims();
        let words = n.div_ceil(64);

        // Pass 1, point-major: quantize each point once and transpose its
        // values and interval indices into columns.
        let mut values = vec![0.0; phi * n];
        let mut intervals = vec![0u16; phi * n];
        let mut coords = Vec::with_capacity(phi);
        for (i, p) in points.enumerate() {
            grid.base_coords_into(p, &mut coords)?;
            for (d, (&v, &c)) in p.values().iter().zip(&coords).enumerate() {
                values[d * n + i] = v;
                intervals[d * n + i] = c;
            }
        }

        // Pass 2, dimension-major: a bitset per interval that holds a
        // point, allotted in order of first appearance, so the index grows
        // with the batch and not with the granularity.
        let mut bitset_of = vec![0u32; phi * n];
        let mut members: Vec<u64> = Vec::new();
        let mut bitset_of_interval = vec![NONE; usize::from(grid.granularity())];
        for d in 0..phi {
            bitset_of_interval.fill(NONE);
            for i in 0..n {
                let slot = &mut bitset_of_interval[usize::from(intervals[d * n + i])];
                if *slot == NONE {
                    // At most ϕ · granularity ≤ 64 · 2¹⁶ bitsets exist.
                    *slot = (members.len() / words) as u32;
                    members.resize(members.len() + words, 0);
                }
                bitset_of[d * n + i] = *slot;
                members[*slot as usize * words + i / 64] |= 1 << (i % 64);
            }
        }

        Ok(TrainingEvaluator {
            grid,
            n,
            words,
            values,
            bitset_of,
            members,
        })
    }

    /// Number of points in the batch.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the batch is empty (never after `new`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
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
    ///
    /// Cost with targets: per *distinct* target cell, `|s| · ceil(n/64)`
    /// word ANDs and one walk over its members per group of up to four
    /// dimensions of `s` (one walk for every `|s| ≤ 4`, and none past the
    /// first when the target is alone), plus a dozen divisions unless the
    /// target is alone; a target whose cell was already scored is one table
    /// look-up. Cells holding no target are never formed.
    ///
    /// Cost over the whole batch: per point, a multiply-add per dimension
    /// of `s` and one table look-up (one more per re-ranking when the keys
    /// would pass the dense table, a hash probe per fold past it), then
    /// `2 · |s|` additions into its cell's moments; per formed cell, the
    /// score, once.
    pub fn sparsity_with(
        &self,
        s: Subspace,
        targets: Option<&[usize]>,
        scratch: &mut SparsityScratch,
    ) -> (f64, f64) {
        match targets {
            Some(idx) => self.mean_score(s, idx.iter().copied(), scratch),
            None => self.whole_batch_score(s, scratch),
        }
    }

    /// The bitsets of dimension `d` are `first..first + count`: pass 2
    /// allots one dimension's bitsets in one run, the first to point 0's
    /// interval, so `bitset_of[d·n + i] − first` is point `i`'s interval
    /// rank along `d`, below `count`.
    fn bitsets_of_dim(&self, d: usize) -> (u32, u32) {
        let first = self.bitset_of[d * self.n];
        let end = if d + 1 < self.grid.dims() {
            self.bitset_of[(d + 1) * self.n]
        } else {
            // At most ϕ · granularity ≤ 64 · 2¹⁶ bitsets exist.
            (self.members.len() / self.words) as u32
        };
        (first, end - first)
    }

    /// The mean score over every point of the batch, in one grouping pass:
    /// each point's cell by an exact key, count and moments per cell in
    /// ascending point order, each cell scored once, the points' scores
    /// summed in point order — the additions of the targeted kernel with
    /// every point a target, so the result is equal in every bit.
    fn whole_batch_score(&self, s: Subspace, scratch: &mut SparsityScratch) -> (f64, f64) {
        let n = self.n;
        let SparsityScratch {
            score_of: cell_of,
            scores,
            cells,
            ..
        } = scratch;
        cell_of.clear();
        cell_of.resize(n, 0);
        let cell_count = self.grouped(s, cell_of, cells);

        cells.counts.clear();
        cells.counts.resize(cell_count, 0);
        for &c in cell_of.iter() {
            cells.counts[c as usize] += 1;
        }
        // Moments per group of up to LANES dimensions of `s`, ascending;
        // each group adds its variance terms to every cell's `var` in lane
        // order, as the kernel's walks do.
        cells.var.clear();
        cells.var.resize(cell_count, 0.0);
        let values_of = |d: usize| &self.values[d * n..(d + 1) * n];
        let mut dims = s.dims().peekable();
        while dims.peek().is_some() {
            let (mut group, mut len) = ([0; LANES], 0);
            for (g, d) in group.iter_mut().zip(&mut dims) {
                *g = d;
                len += 1;
            }
            let values = |k: usize| values_of(group[k]);
            match len {
                1 => cells.add_moments::<1>(std::array::from_fn(values), cell_of),
                2 => cells.add_moments::<2>(std::array::from_fn(values), cell_of),
                3 => cells.add_moments::<3>(std::array::from_fn(values), cell_of),
                _ => cells.add_moments::<LANES>(std::array::from_fn(values), cell_of),
            }
        }

        let scorer = CellScorer::new(&self.grid, &s, n);
        scores.clear();
        scores.extend(
            cells
                .counts
                .iter()
                .zip(&cells.var)
                .map(|(&count, &var)| scorer.score(count, var)),
        );
        let (mut rd_sum, mut irsd_sum) = (0.0, 0.0);
        for &c in cell_of.iter() {
            let (rd, irsd) = scores[c as usize];
            rd_sum += rd;
            irsd_sum += irsd;
        }
        (rd_sum / n as f64, irsd_sum / n as f64)
    }

    /// Assigns every point its cell of `s` in `cell_of` (zeroed, length n)
    /// and returns the number of cells. Ids are dense, in order of first
    /// appearance. The key folds the points' interval ranks dimension by
    /// dimension, mixed-radix; before a fold would pass [`DENSE_KEYS`], the
    /// cells formed so far are re-ranked (fewer than n), and a fold still
    /// too wide maps `(cell, rank)` through a hash map. Keys are exact at
    /// every width and granularity: two points share a cell exactly when
    /// they share every interval of `s`.
    fn grouped(&self, s: Subspace, cell_of: &mut [u32], cells: &mut Cells) -> usize {
        let n = self.n;
        // `cell_of` holds ranked ids below `bound` when `ranked`, else
        // folded keys below `bound` ≤ DENSE_KEYS.
        let (mut bound, mut ranked) = (1usize, true);
        for d in s.dims() {
            let (first, radix) = self.bitsets_of_dim(d);
            let ranks = &self.bitset_of[d * n..(d + 1) * n];
            if bound * radix as usize > DENSE_KEYS && !ranked {
                bound = cells.rerank(cell_of, bound);
                ranked = true;
            }
            if bound * radix as usize <= DENSE_KEYS {
                for (c, &b) in cell_of.iter_mut().zip(ranks) {
                    *c = *c * radix + (b - first);
                }
                bound *= radix as usize;
                ranked = false;
            } else {
                let sparse = &mut cells.sparse;
                sparse.clear();
                for (c, &b) in cell_of.iter_mut().zip(ranks) {
                    let key = (u64::from(*c) << 32) | u64::from(b - first);
                    let next = sparse.len() as u32;
                    *c = *sparse.entry(key).or_insert(next);
                }
                bound = sparse.len();
            }
        }
        if ranked {
            bound
        } else {
            cells.rerank(cell_of, bound)
        }
    }

    /// One instance of the scoring loop per lane count: `|s| ≤ LANES` is
    /// scored in `|s|` lanes, a wider subspace in groups of `LANES`.
    fn mean_score(
        &self,
        s: Subspace,
        targets: impl Iterator<Item = usize>,
        scratch: &mut SparsityScratch,
    ) -> (f64, f64) {
        match s.cardinality() {
            1 => self.mean_score_in::<1>(s, targets, scratch),
            2 => self.mean_score_in::<2>(s, targets, scratch),
            3 => self.mean_score_in::<3>(s, targets, scratch),
            _ => self.mean_score_in::<LANES>(s, targets, scratch),
        }
    }

    fn mean_score_in<const K: usize>(
        &self,
        s: Subspace,
        targets: impl Iterator<Item = usize>,
        scratch: &mut SparsityScratch,
    ) -> (f64, f64) {
        let (n, words) = (self.n, self.words);
        let members = &self.members[..];
        let values_of = |d: usize| &self.values[d * n..(d + 1) * n];
        let bitsets_of = |d: usize| &self.bitset_of[d * n..(d + 1) * n];
        // The first K dimensions of `s` — all of them unless |s| > LANES —
        // with their columns sliced once, so the walk indexes them by point
        // alone. `rest` iterates the dimensions past them, ascending.
        let mut rest = s.dims();
        let head: [usize; K] = std::array::from_fn(|_| rest.next().expect("|s| ≥ K"));
        let (values, bitsets) = (head.map(values_of), head.map(bitsets_of));
        let scorer = CellScorer::new(&self.grid, &s, n);

        let SparsityScratch {
            cell,
            score_of,
            scores,
            ..
        } = scratch;
        cell.clear();
        cell.resize(words, 0);
        score_of.clear();
        score_of.resize(n, NONE);
        scores.clear();
        let (cell, score_of) = (&mut cell[..], &mut score_of[..]);

        let (mut rd_sum, mut irsd_sum, mut scored) = (0.0, 0.0, 0usize);
        for t in targets {
            scored += 1;
            if score_of[t] != NONE {
                let (rd, irsd) = scores[score_of[t] as usize];
                rd_sum += rd;
                irsd_sum += irsd;
                continue;
            }
            // First visit to t's cell. Its members: the AND of t's interval
            // bitset in every dimension of `s`.
            let id = scores.len() as u32;
            let bitset = |column: &[u32]| {
                let at = column[t] as usize * words;
                &members[at..at + words]
            };
            let head_bitsets = bitsets.map(bitset);
            for (w, c) in cell.iter_mut().enumerate() {
                *c = head_bitsets.iter().fold(!0, |word, b| word & b[w]);
            }
            for d in rest.clone() {
                for (c, m) in cell.iter_mut().zip(bitset(bitsets_of(d))) {
                    *c &= m;
                }
            }
            // Walk the members once for the head, then once per further
            // group of up to LANES dimensions; every walk adds its variance
            // terms to `var` in the order of `s`. The target is a member of
            // its own cell, so a count of one means it is alone there and
            // no further group is walked.
            let mut var = 0.0;
            let mut count = walk(values, cell, score_of, id, &mut var);
            let mut rest = rest.clone();
            while count > 1 {
                let (mut group, mut len) = ([0; LANES], 0);
                for (g, d) in group.iter_mut().zip(&mut rest) {
                    *g = d;
                    len += 1;
                }
                let values = |k: usize| values_of(group[k]);
                count = match len {
                    0 => break,
                    1 => walk::<1>(std::array::from_fn(values), cell, score_of, id, &mut var),
                    2 => walk::<2>(std::array::from_fn(values), cell, score_of, id, &mut var),
                    3 => walk::<3>(std::array::from_fn(values), cell, score_of, id, &mut var),
                    _ => walk::<LANES>(std::array::from_fn(values), cell, score_of, id, &mut var),
                };
            }
            let score = scorer.score(count, var);
            scores.push(score);
            rd_sum += score.0;
            irsd_sum += score.1;
        }
        if scored == 0 {
            return (1.0, 1.0); // nothing to score: maximally un-sparse
        }
        (rd_sum / scored as f64, irsd_sum / scored as f64)
    }
}

/// The widest lane count of the kernel: every subspace the online search
/// visits (`max_cardinality` 4) is one walk per cell.
const LANES: usize = 4;

/// The sparsity kernel: walks the members of `cell` once, in ascending
/// point order, tags each with the cell's score slot `id`, and adds its
/// value along each of the `K` columns to that lane's `(LS, SS)` — per
/// dimension, the additions a sequential grouping pass over the batch makes
/// for this cell, in its order. Unless the cell holds a single point, adds
/// the `K` dimensions' variance terms to `var`, in lane order. Returns the
/// member count.
fn walk<const K: usize>(
    values: [&[f64]; K],
    cell: &[u64],
    score_of: &mut [u32],
    id: u32,
    var: &mut f64,
) -> u32 {
    let (mut ls, mut ss) = ([0.0f64; K], [0.0f64; K]);
    let mut count = 0u32;
    for (w, &word) in cell.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let i = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            count += 1;
            score_of[i] = id;
            for k in 0..K {
                let v = values[k][i];
                ls[k] += v;
                ss[k] += v * v;
            }
        }
    }
    if count > 1 {
        let count = f64::from(count);
        for (ls, ss) in ls.into_iter().zip(ss) {
            let m = ls / count;
            *var += (ss / count - m * m).max(0.0);
        }
    }
    count
}

/// How a cell of one subspace scores, in both shapes: its count and the
/// sum of its variance terms to the normalized `(rd, irsd)`. RD is
/// normalized as `rd/(1+rd)` into `[0,1)`; IRSD is clamped at
/// [`IRSD_CAP`] and scaled into `[0,1]`.
struct CellScorer {
    cell_count: f64,
    uniform_sigma: f64,
    n: f64,
    /// What every cell holding a single point scores.
    alone: (f64, f64),
}

impl CellScorer {
    fn new(grid: &Grid, s: &Subspace, n: usize) -> Self {
        let (cell_count, n) = (grid.cell_count_in(s), n as f64);
        CellScorer {
            cell_count,
            uniform_sigma: grid.uniform_sigma_in(s),
            n,
            alone: normalized(1.0 * cell_count / n, 0.0),
        }
    }

    /// The score of a cell of `count` points; `var` is not read when the
    /// point is alone.
    fn score(&self, count: u32, var: f64) -> (f64, f64) {
        if count == 1 {
            return self.alone;
        }
        let sigma = var.sqrt();
        let irsd = if sigma > f64::EPSILON {
            (self.uniform_sigma / sigma).min(IRSD_CAP)
        } else {
            IRSD_CAP
        };
        normalized(f64::from(count) * self.cell_count / self.n, irsd)
    }
}

fn normalized(rd: f64, irsd: f64) -> (f64, f64) {
    (rd / (1.0 + rd), irsd / IRSD_CAP)
}

impl Cells {
    /// The grouping pass's moment kernel: adds each point's value along
    /// the `K` columns to its cell's `(LS, SS)` lanes, points ascending —
    /// per cell and dimension, the additions of the kernel's walk over that
    /// cell's members — then adds the `K` variance terms of every cell of
    /// more than one point to its `var`, in lane order.
    fn add_moments<const K: usize>(&mut self, values: [&[f64]; K], cell_of: &[u32]) {
        let Cells {
            counts,
            moments,
            var,
            ..
        } = self;
        moments.clear();
        moments.resize(counts.len() * 2 * K, 0.0);
        for (i, &c) in cell_of.iter().enumerate() {
            let row = &mut moments[c as usize * 2 * K..][..2 * K];
            for k in 0..K {
                let v = values[k][i];
                row[k] += v;
                row[K + k] += v * v;
            }
        }
        for ((&count, row), var) in counts.iter().zip(moments.chunks_exact(2 * K)).zip(var) {
            if count > 1 {
                let count = f64::from(count);
                let (ls, ss) = row.split_at(K);
                for (ls, ss) in ls.iter().zip(ss) {
                    let m = ls / count;
                    *var += (ss / count - m * m).max(0.0);
                }
            }
        }
    }

    /// Renumbers the keys in `cell_of` (all below `bound` ≤
    /// [`DENSE_KEYS`]) to dense ids in order of first appearance and
    /// returns how many there are; leaves `dense` all [`NONE`] again.
    fn rerank(&mut self, cell_of: &mut [u32], bound: usize) -> usize {
        if self.dense.len() < bound {
            self.dense.resize(bound, NONE);
        }
        self.keys.clear();
        for c in cell_of.iter_mut() {
            let slot = &mut self.dense[*c as usize];
            if *slot == NONE {
                *slot = self.keys.len() as u32;
                self.keys.push(*c);
            }
            *c = *slot;
        }
        for &key in &self.keys {
            self.dense[key as usize] = NONE;
        }
        self.keys.len()
    }
}

/// Weight of the `|s|/ϕ` objective: the MOGA's third objective and the
/// third term of a self-evolution candidate's score.
const DIM_PENALTY: f64 = 0.25;

/// The dimensionality objective of `s` in a `phi`-dimensional space.
pub(crate) fn dim_objective(s: Subspace, phi: usize) -> f64 {
    DIM_PENALTY * s.cardinality() as f64 / phi as f64
}

/// MOGA problem: minimize the mean normalized RD and IRSD of the target
/// points plus a dimensionality penalty.
pub struct SparsityProblem<'a> {
    evaluator: &'a TrainingEvaluator,
    targets: Option<Vec<usize>>,
    max_cardinality: Option<usize>,
    scratch: SparsityScratch,
}

impl<'a> SparsityProblem<'a> {
    /// Problem over all batch points.
    pub fn whole_batch(evaluator: &'a TrainingEvaluator, max_cardinality: Option<usize>) -> Self {
        SparsityProblem {
            evaluator,
            targets: None,
            max_cardinality,
            scratch: SparsityScratch::default(),
        }
    }

    /// Problem over a target subset (e.g. the top outlying-degree points or
    /// one outlier exemplar).
    pub fn for_targets(
        evaluator: &'a TrainingEvaluator,
        targets: Vec<usize>,
        max_cardinality: Option<usize>,
    ) -> Self {
        SparsityProblem {
            evaluator,
            targets: Some(targets),
            max_cardinality,
            scratch: SparsityScratch::default(),
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

    fn evaluate(&mut self, s: Subspace, out: &mut [f64]) {
        let (rd, irsd) =
            self.evaluator
                .sparsity_with(s, self.targets.as_deref(), &mut self.scratch);
        out.copy_from_slice(&[rd, irsd, dim_objective(s, self.phi())]);
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
    fn batch() -> TrainingEvaluator {
        let grid = Grid::new(DomainBounds::unit(2), 10).unwrap();
        let mut pts: Vec<DataPoint> = (0..99)
            .map(|i| DataPoint::new(vec![0.2 + (i % 10) as f64 * 0.005, i as f64 / 99.0]))
            .collect();
        pts.push(DataPoint::new(vec![0.9, 0.5])); // index 99: the outlier
        TrainingEvaluator::new(grid, &pts).unwrap()
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
        assert!(TrainingEvaluator::new(grid, &[]).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let grid = Grid::new(DomainBounds::unit(2), 10).unwrap();
        let pts = vec![DataPoint::new(vec![0.5])];
        assert!(TrainingEvaluator::new(grid, &pts).is_err());
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
        let mut v = [0.0; 3];
        p.evaluate(Subspace::from_dims([0, 1]).unwrap(), &mut v);
        assert!(v[2] > 0.0); // dimension penalty active by default
    }
}
