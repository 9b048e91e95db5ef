//! The SPOT detector: learning stage + online detection stage.

use crate::config::SpotConfig;
use crate::drift::PageHinkley;
use crate::evaluator::{SparsityProblem, SparsityScratch, TrainingEvaluator};
use crate::sst::Sst;
use crate::verdict::{EvalPlan, LearningReport, SpotStats, Verdict, VerdictScreen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use spot_clustering::{outlying_degrees, top_outlying_indices, OdConfig};
use spot_moga::MogaConfig;
use spot_stream::{LogicalClock, Reservoir};
use spot_subspace::{genetic, ScoredSubspace, Subspace};
use spot_synopsis::{CellConsumer, Grid, LiveCounters, SynopsisManager};
use spot_types::{
    DataPoint, Detection, FxHashSet, PersistError, Result, SpotError, StateReader, StateWriter,
    StreamDetector, StreamRecord,
};
use std::sync::Arc;
use std::time::Instant;

/// Salt separating the reservoir's counter-based draw stream from the
/// other seeded components.
const RESERVOIR_SEED_SALT: u64 = 0x5EED_CAFE_D00D_F00D;

/// Memory snapshot of the synopses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynopsisFootprint {
    /// Always 0: no base store is kept. `benchmark/` reads the field by
    /// name; it goes with that package's next revision.
    pub base_cells: usize,
    /// Populated projected cells summed over SST subspaces.
    pub projected_cells: usize,
    /// Approximate bytes held by all synopsis stores.
    pub approx_bytes: usize,
}

/// Stream Projected Outlier deTector.
///
/// ```
/// use spot::{SpotBuilder, Verdict};
/// use spot_types::{DataPoint, DomainBounds};
///
/// // 4-dimensional stream over the unit box.
/// let mut spot = SpotBuilder::new(DomainBounds::unit(4)).seed(7).build().unwrap();
///
/// // Learning stage: an unlabeled batch of historical data.
/// let train: Vec<DataPoint> = (0..300)
///     .map(|i| DataPoint::new(vec![0.5 + (i % 7) as f64 * 0.01; 4]))
///     .collect();
/// spot.learn(&train).unwrap();
///
/// // Detection stage: one pass over arriving points.
/// let v: Verdict = spot.process(&DataPoint::new(vec![0.51; 4])).unwrap();
/// assert!(!v.outlier);
/// let v = spot.process(&DataPoint::new(vec![0.95, 0.02, 0.93, 0.04])).unwrap();
/// assert!(v.outlier);
/// assert!(!v.findings.is_empty()); // the outlying subspaces
/// ```
#[derive(Debug)]
pub struct Spot {
    config: SpotConfig,
    phi: usize,
    manager: SynopsisManager,
    sst: Sst,
    /// Flattened, deduplicated SST — the hot path iterates this.
    active: Vec<Subspace>,
    clock: LogicalClock,
    rng: StdRng,
    /// Recently detected outliers (tick, point), bounded ring.
    outlier_buffer: Vec<(u64, DataPoint)>,
    /// Reservoir sample of recent stream points; draws are counter-based
    /// (keyed on the offer ordinal), so sampling neither consumes the
    /// sequential RNG nor depends on acceptance history.
    reservoir: Reservoir,
    drift: PageHinkley,
    stats: SpotStats,
    learned: bool,
    /// The verdict rule as the cell consumer of both ingest loops.
    screen: VerdictScreen,
    /// `(manager layout epoch, FS stores monitored at that epoch)` — the
    /// drift signal's denominator, recounted when the layout moves.
    monitored: (u64, u32),
    /// Reused plan of the single-point path.
    point_plan: EvalPlan,
    /// Reused per-run plans of the batch path.
    batch_plans: Vec<EvalPlan>,
}

impl Spot {
    /// Creates a detector from a validated configuration. FS is enumerated
    /// immediately; CS/OS await the learning stage.
    pub fn new(config: SpotConfig) -> Result<Self> {
        config.validate()?;
        let phi = config.phi();
        let grid = Grid::new(config.bounds.clone(), config.granularity)?;
        let manager = SynopsisManager::new(grid, config.time_model);
        let sst = Sst::new(
            phi,
            config.fs_max_dimension,
            config.cs_capacity,
            config.os_capacity,
        )?;
        let drift = PageHinkley::new(
            config.drift.delta,
            config.drift.lambda,
            config.drift.min_points,
        );
        let rng = StdRng::seed_from_u64(config.seed);
        let reservoir = Reservoir::new(config.seed ^ RESERVOIR_SEED_SALT);
        let screen = VerdictScreen::new(&config);
        let mut spot = Spot {
            config,
            phi,
            manager,
            sst,
            active: Vec::new(),
            clock: LogicalClock::new(),
            rng,
            outlier_buffer: Vec::new(),
            reservoir,
            drift,
            stats: SpotStats::default(),
            learned: false,
            screen,
            monitored: (0, 0),
            point_plan: EvalPlan::default(),
            batch_plans: Vec::new(),
        };
        spot.sync_manager_subspaces(false);
        Ok(spot)
    }

    /// The configuration in force.
    pub fn config(&self) -> &SpotConfig {
        &self.config
    }

    /// The current SST.
    pub fn sst(&self) -> &Sst {
        &self.sst
    }

    /// Running counters.
    pub fn stats(&self) -> &SpotStats {
        &self.stats
    }

    /// Current logical tick.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// `true` once a learning stage has run.
    pub fn is_learned(&self) -> bool {
        self.learned
    }

    /// Running mean of the concept-drift novelty signal (the fraction of a
    /// point's 1-dim projected cells that are sparse) — an observability
    /// hook for dashboards and the drift experiments.
    pub fn drift_signal_mean(&self) -> f64 {
        self.drift.mean()
    }

    /// Memory held by the synopses.
    pub fn footprint(&self) -> SynopsisFootprint {
        SynopsisFootprint {
            base_cells: 0,
            projected_cells: self.manager.live_cells(),
            approx_bytes: self.manager.approx_bytes(),
        }
    }

    /// The synopses' lock-free footprint mirror (see [`LiveCounters`]):
    /// monitoring threads read live cell/byte counts from it without
    /// synchronizing with — or stalling — ingestion. `SharedSpot` serves
    /// its `footprint()` from this.
    pub fn live_counters(&self) -> Arc<LiveCounters> {
        self.manager.live_counters()
    }

    /// Unsupervised learning stage (paper, Section II-C1): MOGA over the
    /// whole batch, lead clustering under shuffled orders for outlying
    /// degrees, MOGA over the top candidates — the results become CS.
    pub fn learn(&mut self, training: &[DataPoint]) -> Result<LearningReport> {
        self.learn_with_examples(training, &[])
    }

    /// Learning stage with optional supervised outlier exemplars: the
    /// exemplars' top sparse subspaces become OS (example-based detection).
    pub fn learn_with_examples(
        &mut self,
        training: &[DataPoint],
        outlier_examples: &[DataPoint],
    ) -> Result<LearningReport> {
        if training.is_empty() {
            return Err(SpotError::EmptyTrainingSet);
        }
        for p in training.iter().chain(outlier_examples) {
            if p.dims() != self.phi {
                return Err(SpotError::DimensionMismatch {
                    expected: self.phi,
                    got: p.dims(),
                });
            }
        }
        let learning = self.config.learning.clone();
        // The evaluator indexes the training batch in place — no clone of
        // it is made.
        let evaluator = TrainingEvaluator::new(self.manager.grid().clone(), training)?;
        let mut evaluations = 0usize;

        // (1) MOGA over the whole batch: globally sparse subspaces.
        let whole = {
            let mut problem = SparsityProblem::whole_batch(&evaluator, learning.max_cardinality);
            let out = spot_moga::run(&mut problem, &learning.moga)?;
            evaluations += out.evaluations;
            out.top_k(learning.moga_top_k)
        };

        // (2) Lead clustering under different data orders → outlying degree.
        let tau = match learning.leader_tau {
            Some(t) => t,
            None => estimate_tau(training, &mut self.rng),
        };
        let od = outlying_degrees(
            training,
            &OdConfig {
                tau,
                runs: learning.od_runs,
                alpha: learning.od_alpha,
                seed: self.config.seed ^ 0x0D15_EA5E,
            },
        )?;
        let k = ((training.len() as f64 * learning.top_fraction).ceil() as usize)
            .clamp(3.min(training.len()), training.len());
        let candidates = top_outlying_indices(&od, k);

        // (3) MOGA over the top outlying candidates → CS.
        let targeted = {
            let mut problem = SparsityProblem::for_targets(
                &evaluator,
                candidates.clone(),
                learning.max_cardinality,
            );
            let out = spot_moga::run(&mut problem, &learning.moga)?;
            evaluations += out.evaluations;
            out.top_k(learning.moga_top_k)
        };
        let cs_entries: Vec<ScoredSubspace> = whole
            .iter()
            .chain(targeted.iter())
            .map(|&(subspace, score)| ScoredSubspace { subspace, score })
            .collect();
        self.sst.evolve_cs(cs_entries);

        // (4) Supervised: "MOGA is applied on each of these outliers to
        // find their top sparse subspaces" (paper, II-C1) — one search per
        // exemplar, so every exemplar contributes its own outlying
        // subspaces to OS regardless of how the others score.
        let mut os_report = Vec::new();
        if !outlier_examples.is_empty() {
            let first_exemplar = training.len();
            let ex_evaluator = TrainingEvaluator::new(
                self.manager.grid().clone(),
                training.iter().chain(outlier_examples),
            )?;
            let per_exemplar_k = learning.moga_top_k.div_ceil(2).clamp(1, 5);
            for (i, _) in outlier_examples.iter().enumerate() {
                let mut problem = SparsityProblem::for_targets(
                    &ex_evaluator,
                    vec![first_exemplar + i],
                    learning.max_cardinality,
                );
                let mut moga = learning.moga.clone();
                moga.seed = moga.seed.wrapping_add(i as u64);
                let out = spot_moga::run(&mut problem, &moga)?;
                evaluations += out.evaluations;
                for (s, score) in out.top_k(per_exemplar_k) {
                    if self.sst.add_os(s, score) {
                        os_report.push((s, score));
                    }
                }
            }
        }

        self.sync_manager_subspaces(false);

        // (5) Warm the streaming synopses with the training batch so
        // detection starts against a populated model.
        if learning.replay_training {
            for p in training {
                let now = self.clock.tick();
                self.manager.update(now, p)?;
                self.reservoir
                    .offer(self.config.evolution.reservoir, now, p);
            }
        }
        self.learned = true;
        Ok(LearningReport {
            training_points: training.len(),
            od_candidates: candidates.len(),
            cs: self.sst.cs().map(|e| (e.subspace, e.score)).collect(),
            os: os_report,
            moga_evaluations: evaluations,
        })
    }

    /// Detection stage for one arriving point: update the synapses and
    /// screen the point's cell in every SST subspace against the thresholds
    /// *in the same pass* (no second projection or hash lookup, no
    /// per-subspace PCS list), run periodic maintenance (self-evolution, OS
    /// growth, drift response, pruning). On the steady state the synopsis
    /// work allocates nothing; see `spot_synopsis`'s crate docs for the key
    /// layout.
    pub fn process(&mut self, point: &DataPoint) -> Result<Verdict> {
        if point.dims() != self.phi {
            return Err(SpotError::DimensionMismatch {
                expected: self.phi,
                got: point.dims(),
            });
        }
        // The manager validates the point before it changes anything, so
        // the tick is taken only once the point is in: a rejected point
        // leaves the clock, the counters and the synopses where they were
        // (as `process_batch` does).
        let now = self.clock.now() + 1;
        let screen = &mut self.screen;
        screen.reset(1);
        self.manager
            .update_and_screen(now, point, |ordinal, store, touch| {
                screen.cell(ordinal, store, 0, touch)
            })?;
        self.clock.tick();
        let monitored = self.monitored_stores();
        // The plan is swapped out so the commit phase can borrow self
        // mutably; its capacity survives the round-trip.
        let mut plan = std::mem::take(&mut self.point_plan);
        self.screen
            .assemble(monitored, std::slice::from_mut(&mut plan));
        let verdict = self.commit_point(now, point, &mut plan);
        self.point_plan = plan;
        Ok(verdict)
    }

    /// Number of FS stores feeding the drift signal — constant between
    /// layout changes of the manager, so it is recounted only when the
    /// layout epoch moved (self-evolution, OS growth, ablation, restore),
    /// never accumulated per point.
    fn monitored_stores(&mut self) -> u32 {
        let epoch = self.manager.layout_epoch();
        if self.monitored.0 != epoch {
            let fs_max = self.config.fs_max_dimension;
            let count = self
                .manager
                .subspaces()
                .filter(|s| s.cardinality() <= fs_max)
                .count();
            self.monitored = (epoch, count as u32);
        }
        self.monitored.1
    }

    /// Batch detection: processes `points` as if fed one-by-one to
    /// [`Spot::process`], in maintenance-bounded runs of at most
    /// [`Spot::BATCH_RUN`] points. A run is ingested store-major — every
    /// point of the run into one store, then the next store — over
    /// pre-quantized coordinates, and every touched cell is screened
    /// against the thresholds as it is touched, into one plan per point.
    /// Then the run is committed point by point with the commit
    /// [`Spot::process`] runs (counters, outlier retention, reservoir,
    /// drift test, maintenance). Runs never span a periodic-evolution or
    /// prune tick: a run *ends on* such a tick, so maintenance runs at the
    /// same point of the stream as one by one.
    ///
    /// Input validation is all-or-nothing: every point is checked for
    /// dimension mismatches and NaN values before anything is ingested.
    ///
    /// Verdicts, stats and synopses equal the one-by-one path's, with one
    /// exception: a drift alarm that rewrites CS (evolution enabled, CS
    /// non-empty). The commit of the alarm's point runs the
    /// self-evolution on that tick, as one by one does, but the rest of
    /// the run was already ingested and screened against the SST the run
    /// started with, and a store the evolution adds is warmed from the
    /// reservoir without those points. So up to [`Spot::BATCH_RUN`] − 1
    /// later points can see the old SST, and where the runs begin (the
    /// chunking of the calls) decides which.
    pub fn process_batch(&mut self, points: &[DataPoint]) -> Result<Vec<Verdict>> {
        for p in points {
            if p.dims() != self.phi {
                return Err(SpotError::DimensionMismatch {
                    expected: self.phi,
                    got: p.dims(),
                });
            }
            for (d, &v) in p.values().iter().enumerate() {
                if v.is_nan() {
                    return Err(SpotError::NonFiniteValue { dim: d });
                }
            }
        }
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let mut verdicts = Vec::with_capacity(points.len());
        let mut plans = std::mem::take(&mut self.batch_plans);
        let result = self.batch_runs(points, &mut plans, &mut verdicts);
        self.batch_plans = plans;
        result.map(|()| verdicts)
    }

    /// The run loop behind [`Spot::process_batch`]. Per run: ingest +
    /// screen, plan assembly, then the per-point commit.
    fn batch_runs(
        &mut self,
        points: &[DataPoint],
        plans: &mut Vec<EvalPlan>,
        verdicts: &mut Vec<Verdict>,
    ) -> Result<()> {
        let mut rest = points;
        while !rest.is_empty() {
            let start = self.clock.now() + 1;
            let len = self.run_len(start, rest.len());
            let (run, tail) = rest.split_at(len);
            self.screen.reset(len);
            self.manager
                .update_and_screen_batch(start, run, &mut self.screen)?;
            self.stats.batch_runs += 1;
            self.stats.batch_points += len as u64;
            // What is left of the old sweep: turning the screen's
            // accumulators into the run's plans.
            let sweep_t0 = Instant::now();
            let monitored = self.monitored_stores();
            plans.truncate(len);
            plans.resize_with(len, EvalPlan::default);
            self.screen.assemble(monitored, plans);
            self.stats.sweep_nanos += sweep_t0.elapsed().as_nanos() as u64;

            let commit_t0 = Instant::now();
            for (p, plan) in run.iter().zip(plans.iter_mut()) {
                let now = self.clock.tick();
                verdicts.push(self.commit_point(now, p, plan));
            }
            self.stats.commit_nanos += commit_t0.elapsed().as_nanos() as u64;
            rest = tail;
        }
        Ok(())
    }

    /// Maximum points per internal batch run (bounds how many points a
    /// drift-triggered self-evolution can miss; see [`Spot::process_batch`]).
    pub const BATCH_RUN: usize = 256;

    /// Length of the next batch run starting at `start`: capped at
    /// [`Spot::BATCH_RUN`] and never spanning a periodic-maintenance tick
    /// (the run *ends on* the maintenance tick, so maintenance runs at
    /// exactly the same point in the stream as under one-by-one
    /// processing).
    fn run_len(&self, start: u64, remaining: usize) -> usize {
        let mut len = remaining.min(Self::BATCH_RUN);
        let mut cap_at_period = |p: u64| {
            if p == 0 {
                return;
            }
            // First multiple of p at or after start, inclusive in the run.
            let next = start.div_ceil(p) * p;
            let span = (next - start + 1).min(len as u64) as usize;
            len = span.max(1);
        };
        if self.config.evolution.enabled {
            cap_at_period(self.config.evolution.period);
        }
        cap_at_period(self.config.prune_every);
        len
    }

    /// The sequential **commit** of one screened point, on both paths:
    /// counters, outlier retention, reservoir sampling, the drift test,
    /// and — applied inline here — every maintenance effect
    /// (drift-triggered and periodic self-evolution, OS growth, pruning).
    /// Consumes the plan's findings into the verdict.
    fn commit_point(&mut self, now: u64, point: &DataPoint, plan: &mut EvalPlan) -> Verdict {
        self.stats.processed += 1;
        if plan.outlier {
            self.stats.outliers += 1;
            push_outlier(
                self.config.evolution.outlier_buffer,
                &mut self.outlier_buffer,
                now,
                point,
            );
        }
        self.reservoir
            .offer(self.config.evolution.reservoir, now, point);

        // Concept drift on the projected-freshness signal.
        let mut drift = false;
        if self.config.drift.enabled && plan.monitored > 0 {
            let novel = plan.monitored_fresh as f64 / plan.monitored as f64;
            drift = self.drift.observe(novel);
            if drift {
                self.stats.drift_events += 1;
            }
        }
        let verdict = Verdict {
            tick: now,
            outlier: plan.outlier,
            score: plan.score,
            findings: std::mem::take(&mut plan.findings),
            drift,
        };

        // Maintenance, in the order the pre-split evaluator applied it.
        let evolution = &self.config.evolution;
        let drift_evolve = drift && evolution.enabled;
        let periodic = evolution.enabled && now.is_multiple_of(evolution.period);
        if drift_evolve || periodic {
            self.maintain_sst(drift_evolve, periodic);
        }
        if self.config.prune_every > 0 && now.is_multiple_of(self.config.prune_every) {
            self.stats.cells_pruned += self.manager.prune(now, self.config.prune_floor) as u64;
        }
        verdict
    }

    /// Convenience wrapper over [`Spot::process`] for stream records.
    pub fn process_record(&mut self, record: &StreamRecord) -> Result<Verdict> {
        self.process(&record.point)
    }

    /// Replaces the SST wholesale (snapshot restoration). Rebuilds lookup
    /// indices and reconciles the monitored stores.
    pub(crate) fn restore_sst(&mut self, mut sst: Sst, learned: bool) {
        sst.rebuild_index();
        self.sst = sst;
        self.learned = learned;
        self.sync_manager_subspaces(false);
    }

    /// Captures the detector's complete runtime state — everything beyond
    /// config + SST — as the `state` payload of a v2 checkpoint.
    pub(crate) fn capture_runtime_state(&self) -> Value {
        let mut w = StateWriter::new();
        w.component("clock", &self.clock);
        w.bool("learned", self.learned);
        w.u64_col("rng", self.rng.state());
        w.component("stats", &self.stats);
        w.component("drift", &self.drift);
        w.component("reservoir", &self.reservoir);
        w.point_list("outlier_buffer", &self.outlier_buffer);
        w.value("synopsis", self.manager.capture_state());
        w.finish()
    }

    /// Restores the complete runtime state captured by
    /// [`Spot::capture_runtime_state`] into a freshly-constructed detector
    /// of the same configuration. The SST is installed without the usual
    /// reconcile-and-warm pass: the manager's stores are rebuilt wholesale
    /// from the snapshot, preserving their capture-time registration order
    /// (which defines per-point result order — the bit-exactness contract).
    pub(crate) fn restore_runtime_state(
        &mut self,
        mut sst: Sst,
        r: &StateReader<'_>,
    ) -> std::result::Result<(), PersistError> {
        sst.rebuild_index();
        self.sst = sst;
        self.active = self.sst.iter_all().collect();
        r.restore_component("clock", &mut self.clock)?;
        self.learned = r.bool("learned")?;
        let rng_words = r.u64_col("rng")?;
        let rng_state: [u64; 4] = rng_words
            .as_slice()
            .try_into()
            .map_err(|_| PersistError::custom("rng state must be exactly 4 words"))?;
        self.rng = StdRng::from_state(rng_state);
        r.restore_component("stats", &mut self.stats)?;
        r.restore_component("drift", &mut self.drift)?;
        r.restore_component("reservoir", &mut self.reservoir)?;
        // The reservoir itself is dimension-agnostic; reject mismatched
        // payloads here, at load time, not at the next self-evolution.
        if let Some((_, p)) = self
            .reservoir
            .items()
            .iter()
            .find(|(_, p)| p.dims() != self.phi)
        {
            return Err(PersistError::custom(format!(
                "reservoir point dimensionality {} does not match ϕ = {}",
                p.dims(),
                self.phi
            )));
        }
        self.outlier_buffer = r.point_list("outlier_buffer", Some(self.phi))?;
        self.manager.restore_state(&r.nested("synopsis")?)?;
        Ok(())
    }

    /// Empties the CS component (SST-ablation studies: e.g. an "FS+OS"
    /// configuration). The monitored stores are reconciled immediately.
    pub fn clear_cs(&mut self) {
        self.sst.clear_cs();
        self.sync_manager_subspaces(false);
    }

    /// Empties the OS component (SST-ablation studies).
    pub fn clear_os(&mut self) {
        self.sst.clear_os();
        self.sync_manager_subspaces(false);
    }

    /// HOS-Miner-style query: the top sparse subspaces of an arbitrary
    /// point, judged against the reservoir sample of the recent stream.
    /// Requires enough recent data (≥ 8 points) to be meaningful. Reads
    /// the detector only: callers behind a lock need no write access.
    pub fn explain(&self, point: &DataPoint, top_k: usize) -> Result<Vec<(Subspace, f64)>> {
        if self.reservoir.len() < 8 {
            return Err(SpotError::NotLearned);
        }
        let recent = self.reservoir.items().iter().map(|(_, p)| p);
        let evaluator = TrainingEvaluator::new(
            self.manager.grid().clone(),
            recent.chain(std::iter::once(point)),
        )?;
        let mut problem = SparsityProblem::for_targets(
            &evaluator,
            vec![self.reservoir.len()],
            self.config.learning.max_cardinality,
        );
        let out = spot_moga::run(&mut problem, &self.online_moga_config())?;
        Ok(out.top_k(top_k))
    }

    /// The SST half of a maintenance tick: a drift-triggered CS
    /// self-evolution (`drift`), then the periodic one followed by OS
    /// growth (`periodic`). None of them changes the reservoir or — until
    /// OS growth consumes it, last — the outlier buffer, so all score
    /// against one index of reservoir ∪ outlier buffer, built once, and
    /// only when some step will run.
    fn maintain_sst(&mut self, drift: bool, periodic: bool) {
        if self.reservoir.len() < 8 {
            return;
        }
        let evolve = self.sst.sizes().1 > 0;
        let grow =
            periodic && self.outlier_buffer.len() >= self.config.evolution.min_outliers_for_os;
        if !evolve && !grow {
            return;
        }
        let recent = self.reservoir.items().iter().map(|(_, p)| p);
        let outliers = self.outlier_buffer.iter().map(|(_, p)| p);
        let Ok(evaluator) =
            TrainingEvaluator::new(self.manager.grid().clone(), recent.chain(outliers))
        else {
            return;
        };
        // The buffered outliers sit at the tail of the indexed batch.
        let outliers: Vec<usize> = (self.reservoir.len()..evaluator.len()).collect();
        for _ in 0..usize::from(drift) + usize::from(periodic) {
            self.self_evolve(&evaluator, &outliers);
        }
        if grow {
            self.grow_os(&evaluator, outliers);
        }
    }

    /// CS self-evolution (paper, Section II-C2): crossover/mutate the top
    /// subspaces of the current CS, re-rank old and new together against
    /// the recent stream (`recent`, whose `outliers` are the buffered
    /// detected outliers), keep the best.
    fn self_evolve(&mut self, recent: &TrainingEvaluator, outliers: &[usize]) {
        let entries = self.sst.cs_entries();
        if entries.is_empty() {
            return;
        }
        self.stats.evolutions += 1;
        // Generate offspring of the current CS.
        let parents: Vec<Subspace> = entries.iter().map(|e| e.subspace).collect();
        let max_card = self.config.learning.max_cardinality.unwrap_or(self.phi);
        let mut offspring: Vec<Subspace> = Vec::with_capacity(self.config.cs_capacity);
        for _ in 0..self.config.cs_capacity {
            let a = parents[self.rng.gen_range(0..parents.len())];
            let b = parents[self.rng.gen_range(0..parents.len())];
            let child = genetic::uniform_crossover(a, b, self.phi, &mut self.rng);
            let child = genetic::mutate(child, self.phi, 0.1, &mut self.rng);
            offspring.push(genetic::repair_with_max_card(
                child.mask(),
                self.phi,
                max_card,
                &mut self.rng,
            ));
        }
        // Score everyone against the recent stream: how sparse do the
        // buffered outliers (or, lacking any, all recent points) look?
        let targets = (!outliers.is_empty()).then_some(outliers);
        let mut candidates: Vec<ScoredSubspace> = Vec::new();
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut scratch = SparsityScratch::default();
        for s in entries.iter().map(|e| e.subspace).chain(offspring) {
            if !seen.insert(s.mask()) {
                continue;
            }
            let (rd, irsd) = recent.sparsity_with(s, targets, &mut scratch);
            let dim = 0.25 * s.cardinality() as f64 / self.phi as f64;
            candidates.push(ScoredSubspace {
                subspace: s,
                score: rd + irsd + dim,
            });
        }
        self.sst.evolve_cs(candidates);
        self.sync_manager_subspaces(true);
    }

    /// OS growth (paper, Section II-C2): MOGA over the buffered detected
    /// outliers (`outliers`, within `recent`); their top sparse subspaces
    /// join OS so similar outliers are caught directly later.
    fn grow_os(&mut self, recent: &TrainingEvaluator, outliers: Vec<usize>) {
        let mut problem =
            SparsityProblem::for_targets(recent, outliers, self.config.learning.max_cardinality);
        let Ok(out) = spot_moga::run(&mut problem, &self.online_moga_config()) else {
            return;
        };
        let mut added = 0;
        for (s, score) in out.top_k(self.config.learning.moga_top_k) {
            if self.sst.add_os(s, score) {
                added += 1;
            }
        }
        self.stats.os_added += added;
        self.outlier_buffer.clear();
        if added > 0 {
            self.sync_manager_subspaces(true);
        }
    }

    /// A lighter MOGA configuration for online searches (time criticality
    /// of the detection stage).
    fn online_moga_config(&self) -> MogaConfig {
        let base = &self.config.learning.moga;
        MogaConfig {
            population: base.population.clamp(8, 24),
            generations: base.generations.clamp(4, 12),
            crossover_rate: base.crossover_rate,
            mutation_rate: base.mutation_rate,
            seed: self.config.seed ^ self.stats.processed,
        }
    }

    /// Reconciles the manager's projected stores with the current SST;
    /// `warm` replays the reservoir into stores created by this call.
    fn sync_manager_subspaces(&mut self, warm: bool) {
        let desired: FxHashSet<u64> = self.sst.iter_all().map(|s| s.mask()).collect();
        let current: Vec<Subspace> = self.manager.subspaces().collect();
        for s in current {
            if !desired.contains(&s.mask()) {
                self.manager.remove_subspace(&s);
            }
        }
        let mut added: Vec<Subspace> = Vec::new();
        self.active = self.sst.iter_all().collect();
        for s in &self.active {
            if self.manager.add_subspace(*s) {
                added.push(*s);
            }
        }
        if warm && !added.is_empty() && !self.reservoir.is_empty() {
            // The reservoir in tick order, by a stable sort of its indices.
            let items = self.reservoir.items();
            let mut order: Vec<usize> = (0..items.len()).collect();
            order.sort_by_key(|&i| items[i].0);
            for s in added {
                // Replay failures only leave a colder store; detection
                // continues either way.
                let replay = order.iter().map(|&i| (items[i].0, &items[i].1));
                let _ = self.manager.replay_into(&s, replay);
            }
        }
    }
}

/// Retains a detected outlier for OS growth — the clone happens only once
/// the point is actually kept (a zero-capacity buffer never clones).
fn push_outlier(cap: usize, buffer: &mut Vec<(u64, DataPoint)>, now: u64, p: &DataPoint) {
    if cap == 0 {
        return;
    }
    if buffer.len() >= cap {
        buffer.remove(0);
    }
    buffer.push((now, p.clone()));
}

/// τ estimate for leader clustering: half the mean pairwise distance over a
/// bounded random sample of the batch.
fn estimate_tau(points: &[DataPoint], rng: &mut StdRng) -> f64 {
    const PAIRS: usize = 256;
    if points.len() < 2 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut n = 0usize;
    for _ in 0..PAIRS {
        let i = rng.gen_range(0..points.len());
        let j = rng.gen_range(0..points.len());
        if i == j {
            continue;
        }
        sum += points[i].distance(&points[j]);
        n += 1;
    }
    if n == 0 || sum <= 0.0 {
        1.0
    } else {
        (sum / n as f64) * 0.5
    }
}

impl StreamDetector for Spot {
    fn learn(&mut self, training: &[DataPoint]) -> Result<()> {
        Spot::learn(self, training).map(|_| ())
    }

    fn process(&mut self, point: &DataPoint) -> Detection {
        match Spot::process(self, point) {
            Ok(v) => Detection {
                outlier: v.outlier,
                score: v.score,
            },
            Err(_) => Detection::outlier(f64::INFINITY),
        }
    }

    fn name(&self) -> &str {
        "spot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EvolutionConfig, SpotBuilder};
    use spot_types::DomainBounds;

    /// Clustered 6-dim batch: three tight clusters in dims {0,1}, broad in
    /// the rest.
    fn training(n: usize) -> Vec<DataPoint> {
        let centers = [[0.2, 0.2], [0.5, 0.7], [0.8, 0.3]];
        (0..n)
            .map(|i| {
                let c = centers[i % 3];
                let jitter = |k: usize| ((i * (k + 7)) % 13) as f64 / 13.0 * 0.04;
                let mut v = vec![0.0; 6];
                v[0] = c[0] + jitter(0);
                v[1] = c[1] + jitter(1);
                for (d, item) in v.iter_mut().enumerate().skip(2) {
                    *item = 0.3 + ((i * (d + 3)) % 17) as f64 / 17.0 * 0.4;
                }
                DataPoint::new(v)
            })
            .collect()
    }

    fn spot() -> Spot {
        SpotBuilder::new(DomainBounds::unit(6))
            .seed(5)
            .build()
            .unwrap()
    }

    #[test]
    fn new_enumerates_fs_and_monitors_it() {
        let s = spot();
        let (fs, cs, os) = s.sst().sizes();
        assert_eq!(fs, 6 + 15);
        assert_eq!(cs, 0);
        assert_eq!(os, 0);
        assert_eq!(s.active.len(), fs);
    }

    #[test]
    fn learn_builds_cs_and_warms_synopses() {
        let mut s = spot();
        let report = s.learn(&training(300)).unwrap();
        assert_eq!(report.training_points, 300);
        assert!(report.od_candidates >= 3);
        assert!(!report.cs.is_empty(), "CS must be populated");
        assert!(report.moga_evaluations > 0);
        assert!(s.is_learned());
        // Replay warmed the synopses.
        assert!(s.footprint().projected_cells > 0);
        assert_eq!(s.now(), 300);
    }

    #[test]
    fn learn_rejects_empty_and_mismatched() {
        let mut s = spot();
        assert!(matches!(s.learn(&[]), Err(SpotError::EmptyTrainingSet)));
        assert!(s.learn(&[DataPoint::new(vec![0.5; 3])]).is_err());
    }

    #[test]
    fn detects_planted_projected_outlier() {
        let mut s = spot();
        s.learn(&training(600)).unwrap();
        // A point normal in dims 2..6 but far from all clusters in {0,1}.
        let mut v = vec![0.5; 6];
        v[0] = 0.02;
        v[1] = 0.98;
        let verdict = s.process(&DataPoint::new(v)).unwrap();
        assert!(verdict.outlier);
        assert!(!verdict.findings.is_empty());
        // Findings are sorted sparsest-first.
        for w in verdict.findings.windows(2) {
            assert!(w[0].rd <= w[1].rd);
        }
        assert!(verdict.score > 0.5);
    }

    #[test]
    fn dense_point_is_not_flagged() {
        let mut s = spot();
        let train = training(600);
        s.learn(&train).unwrap();
        // Process a stretch of normal points; the vast majority must pass.
        let mut flagged = 0;
        for p in training(200) {
            if s.process(&p).unwrap().outlier {
                flagged += 1;
            }
        }
        assert!(flagged < 40, "flagged {flagged}/200 normal points");
    }

    #[test]
    fn process_rejects_wrong_dims() {
        let mut s = spot();
        assert!(s.process(&DataPoint::new(vec![0.5; 2])).is_err());
    }

    #[test]
    fn outliers_fill_buffer_and_grow_os() {
        let mut s = SpotBuilder::new(DomainBounds::unit(6))
            .seed(5)
            .evolution(EvolutionConfig {
                enabled: true,
                period: 100,
                outlier_buffer: 32,
                reservoir: 128,
                min_outliers_for_os: 3,
            })
            .build()
            .unwrap();
        s.learn(&training(400)).unwrap();
        // Interleave normal traffic with varied projected outliers (each in
        // a fresh sparse region, so they do not accumulate into a dense
        // micro-cluster of their own).
        let normals = training(400);
        for (i, p) in normals.iter().enumerate() {
            s.process(p).unwrap();
            if i % 10 == 0 {
                let mut v = p.values().to_vec();
                let d = 2 + (i / 10) % 4;
                v[d] = if (i / 10) % 2 == 0 { 0.98 } else { 0.015 };
                v[(d + 1) % 6] = 0.96 - (i / 10) as f64 * 0.013;
                s.process(&DataPoint::new(v)).unwrap();
            }
        }
        assert!(s.stats().os_added > 0, "OS never grew: {:?}", s.stats());
        assert!(s.sst().sizes().2 > 0);
    }

    #[test]
    fn self_evolution_runs_periodically() {
        let mut s = SpotBuilder::new(DomainBounds::unit(6))
            .seed(5)
            .evolution(EvolutionConfig {
                period: 50,
                ..Default::default()
            })
            .build()
            .unwrap();
        s.learn(&training(300)).unwrap();
        for p in training(200) {
            s.process(&p).unwrap();
        }
        assert!(s.stats().evolutions > 0);
        // CS stays within capacity.
        assert!(s.sst().sizes().1 <= s.config().cs_capacity);
    }

    #[test]
    fn pruning_counter_advances_on_long_streams() {
        let mut s = SpotBuilder::new(DomainBounds::unit(6))
            .seed(5)
            // Short memory (omega = 200 ticks) so stale cells decay below
            // the prune floor within the test stream.
            .time_model(spot_stream::TimeModel::new(200, 0.01).unwrap())
            .pruning(200, 1e-3)
            .build()
            .unwrap();
        s.learn(&training(300)).unwrap();
        // Shifted stream: old cells decay away and must be evicted.
        for (i, p) in training(2500).iter().enumerate() {
            let mut v = p.values().to_vec();
            v[5] = (i % 100) as f64 / 100.0;
            s.process(&DataPoint::new(v)).unwrap();
        }
        assert!(s.stats().cells_pruned > 0);
    }

    #[test]
    fn nan_points_rejected_and_detector_stays_usable() {
        let mut s = spot();
        s.learn(&training(200)).unwrap();
        let mut bad = vec![0.5; 6];
        bad[3] = f64::NAN;
        let before = s.stats().processed;
        let err = s.process(&DataPoint::new(bad.clone())).unwrap_err();
        assert!(matches!(err, SpotError::NonFiniteValue { dim: 3 }));
        assert_eq!(s.stats().processed, before, "rejected point must not count");
        // Batch path validates up front: nothing is ingested.
        let batch = vec![DataPoint::new(vec![0.5; 6]), DataPoint::new(bad)];
        assert!(s.process_batch(&batch).is_err());
        assert_eq!(s.stats().processed, before);
        // Infinities are clamped, not rejected.
        assert!(s.process(&DataPoint::new(vec![f64::INFINITY; 6])).is_ok());
        assert!(s.process(&DataPoint::new(vec![0.5; 6])).is_ok());
    }

    #[test]
    fn rejected_point_costs_no_tick_on_either_path() {
        // A detector that refused a NaN point must be indistinguishable
        // from a twin that never saw it: same clock, counters and
        // checkpoint bytes, and the same verdicts from there on — across the
        // evolution tick at 1000 and the prune tick at 2000.
        let stream = training(2300);
        let (warm, tail) = stream[200..].split_at(100);
        let mut bad = vec![0.5; 6];
        bad[4] = f64::NAN;
        let bad = DataPoint::new(bad);
        for batched in [false, true] {
            let mut a = spot();
            let mut b = spot();
            for s in [&mut a, &mut b] {
                s.learn(&stream[..200]).unwrap();
                for p in warm {
                    s.process(p).unwrap();
                }
            }
            assert_eq!(a.now(), 300);
            assert!(a.process(&bad).is_err());
            assert_eq!(a.now(), b.now(), "a rejected point burned a tick");
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.checkpoint().to_bytes(), b.checkpoint().to_bytes());
            let feed = |s: &mut Spot| -> Vec<Verdict> {
                if batched {
                    s.process_batch(tail).unwrap()
                } else {
                    tail.iter().map(|p| s.process(p).unwrap()).collect()
                }
            };
            let (va, vb) = (feed(&mut a), feed(&mut b));
            assert_eq!(va[0].tick, 301);
            for (i, (x, y)) in va.iter().zip(&vb).enumerate() {
                assert!(
                    x.bitwise_eq(y),
                    "batched={batched} verdict {i}: {x:?} vs {y:?}"
                );
            }
            assert_eq!(a.now(), 2300);
            assert!(
                a.stats().evolutions > 0,
                "the tail must cross an evolution tick"
            );
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn nan_batch_rejection_leaves_scratch_state_clean() {
        // A rejected batch (NaN point) must not corrupt the reused
        // screen accumulators / batch_plans scratch buffers: every
        // subsequent batch must be bit-identical to a detector that never
        // saw the poisoned batch. The failed batch lands mid-stream, after
        // the scratch buffers are warm from earlier (larger) batches.
        let stream = training(300);
        let mut tainted = spot();
        tainted.learn(&training(200)).unwrap();
        let mut clean = spot();
        clean.learn(&training(200)).unwrap();

        let before = tainted.process_batch(&stream[..120]).unwrap();
        assert_eq!(before, clean.process_batch(&stream[..120]).unwrap());

        let mut poisoned: Vec<DataPoint> = stream[120..180].to_vec();
        let mut bad = vec![0.4; 6];
        bad[2] = f64::NAN;
        poisoned.insert(30, DataPoint::new(bad));
        assert!(matches!(
            tainted.process_batch(&poisoned).unwrap_err(),
            SpotError::NonFiniteValue { dim: 2 }
        ));
        assert_eq!(
            tainted.stats(),
            clean.stats(),
            "rejected batch must not count"
        );

        // Smaller-than-before batches reuse (truncated) scratch rows;
        // larger ones regrow them. Both must match the clean detector.
        for chunk in [&stream[120..150], &stream[150..300]] {
            let want = clean.process_batch(chunk).unwrap();
            let got = tainted.process_batch(chunk).unwrap();
            assert_eq!(want.len(), got.len());
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.tick, b.tick);
                assert_eq!(a.outlier, b.outlier, "tick {}", a.tick);
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "tick {}", a.tick);
                assert_eq!(a.findings, b.findings, "tick {}", a.tick);
            }
        }
        assert_eq!(tainted.stats(), clean.stats());
        assert_eq!(tainted.footprint(), clean.footprint());
    }

    #[test]
    fn zero_capacity_outlier_buffer_never_panics() {
        // cap = 0 used to hit `remove(0)` on an empty buffer; the commit
        // path must simply skip retention (and never clone the point).
        let mut s = SpotBuilder::new(DomainBounds::unit(6))
            .seed(5)
            .evolution(EvolutionConfig {
                outlier_buffer: 0,
                ..Default::default()
            })
            .build()
            .unwrap();
        s.learn(&training(300)).unwrap();
        let mut v = vec![0.5; 6];
        v[0] = 0.02;
        v[1] = 0.98;
        let verdict = s.process(&DataPoint::new(v)).unwrap();
        assert!(verdict.outlier);
        assert_eq!(s.stats().outliers, 1);
    }

    #[test]
    fn batch_eval_metrics_advance() {
        let mut s = spot();
        s.learn(&training(300)).unwrap();
        s.process_batch(&training(400)).unwrap();
        let stats = *s.stats();
        assert_eq!(stats.batch_points, 400);
        assert!(stats.batch_runs >= 2, "{stats:?}");
        assert!(stats.sweep_nanos > 0 && stats.commit_nanos > 0, "{stats:?}");
        assert!(stats.eval_points_per_sec().unwrap() > 0.0);
        // The single-point path leaves the batch metrics untouched.
        s.process(&DataPoint::new(vec![0.5; 6])).unwrap();
        assert_eq!(s.stats().batch_points, 400);
    }

    #[test]
    fn batch_path_keeps_drift_denominator_and_raises_per_point_alarms() {
        // The drift signal is fresh FS cells / FS stores. The denominator
        // is a constant of the run, carried beside the screen's
        // accumulators; losing it (monitored = 0) silently switches
        // Page–Hinkley off on the batch path, and no throughput or verdict
        // digest on a stationary stream would notice. Pin it: every batch
        // plan reports all FS stores — and only them, CS being monitored
        // too — and a shifting stream raises exactly the alarms the
        // per-point path raises.
        use crate::config::DriftConfig;
        let build = || {
            let mut s = SpotBuilder::new(DomainBounds::unit(6))
                .seed(5)
                .drift(DriftConfig {
                    enabled: true,
                    delta: 0.01,
                    lambda: 0.4,
                    min_points: 40,
                    novelty_floor: 5.0,
                })
                // Alarms must not rewrite the SST mid-run: that is the one
                // documented batch/per-point difference.
                .evolution(EvolutionConfig {
                    enabled: false,
                    ..Default::default()
                })
                .build()
                .unwrap();
            s.learn(&training(300)).unwrap();
            s
        };
        let mut stream = training(300);
        stream.extend(training(300).into_iter().map(|p| {
            let shifted: Vec<f64> = p.values().iter().map(|v| 1.0 - 0.9 * v).collect();
            DataPoint::new(shifted)
        }));

        let mut serial = build();
        let (fs, cs, _) = serial.sst().sizes();
        assert!(cs > 0, "CS stores must be monitored beside FS");
        let want: Vec<Verdict> = stream.iter().map(|p| serial.process(p).unwrap()).collect();
        assert_eq!(serial.point_plan.monitored as usize, fs);
        assert!(
            serial.stats().drift_events > 0,
            "the shift must raise an alarm: {:?}",
            serial.stats()
        );

        let mut batched = build();
        let mut got = Vec::new();
        for chunk in stream.chunks(97) {
            got.extend(batched.process_batch(chunk).unwrap());
            assert!(!batched.batch_plans.is_empty());
            for plan in &batched.batch_plans {
                assert_eq!(plan.monitored as usize, fs);
            }
        }
        assert_eq!(got.len(), want.len());
        for (a, b) in want.iter().zip(&got) {
            assert!(a.bitwise_eq(b), "tick {}: {a:?} vs {b:?}", a.tick);
        }
        assert_eq!(batched.stats().drift_events, serial.stats().drift_events);
    }

    #[test]
    fn process_batch_matches_one_by_one() {
        // Periodic evolution + pruning land inside the stream so the batch
        // path has to split runs at the maintenance boundaries; drift is
        // left at its default (alarms never fire on these short streams).
        let build = || {
            let mut s = SpotBuilder::new(DomainBounds::unit(6))
                .seed(11)
                .evolution(EvolutionConfig {
                    period: 150,
                    ..Default::default()
                })
                .pruning(100, 1e-4)
                .build()
                .unwrap();
            s.learn(&training(300)).unwrap();
            s
        };
        let mut stream = training(400);
        for (i, p) in stream.iter_mut().enumerate() {
            if i % 17 == 0 {
                let mut v = p.values().to_vec();
                v[2 + i % 4] = 0.97;
                *p = DataPoint::new(v);
            }
        }
        let mut serial = build();
        let serial_verdicts: Vec<Verdict> =
            stream.iter().map(|p| serial.process(p).unwrap()).collect();
        let mut batched = build();
        let batch_verdicts = batched.process_batch(&stream).unwrap();
        assert_eq!(serial_verdicts.len(), batch_verdicts.len());
        for (a, b) in serial_verdicts.iter().zip(&batch_verdicts) {
            assert_eq!(a.tick, b.tick);
            assert_eq!(a.outlier, b.outlier, "tick {}", a.tick);
            assert_eq!(a.score, b.score, "tick {}", a.tick);
            assert_eq!(a.findings, b.findings, "tick {}", a.tick);
        }
        assert_eq!(serial.stats(), batched.stats());
        assert_eq!(serial.footprint(), batched.footprint());
    }

    #[test]
    fn process_batch_in_chunks_matches_single_batch() {
        let mut a = spot();
        a.learn(&training(300)).unwrap();
        let mut b = spot();
        b.learn(&training(300)).unwrap();
        let stream = training(200);
        let whole = a.process_batch(&stream).unwrap();
        let mut chunked = Vec::new();
        for chunk in stream.chunks(33) {
            chunked.extend(b.process_batch(chunk).unwrap());
        }
        assert_eq!(whole.len(), chunked.len());
        for (x, y) in whole.iter().zip(&chunked) {
            assert_eq!((x.tick, x.outlier), (y.tick, y.outlier));
        }
    }

    #[test]
    fn long_uniform_stream_footprint_plateaus() {
        // Memory guard: under a stationary stream with pruning enabled the
        // live-cell population must stop growing once the space's support
        // is covered — the synopsis may not grow with stream length.
        let mut s = SpotBuilder::new(DomainBounds::unit(6))
            .seed(3)
            .time_model(spot_stream::TimeModel::new(500, 0.01).unwrap())
            .pruning(250, 1e-3)
            .build()
            .unwrap();
        s.learn(&training(300)).unwrap();
        let stream: Vec<DataPoint> = (0..4000)
            .map(|i| {
                DataPoint::new(vec![
                    (i % 89) as f64 / 89.0,
                    ((i * 7) % 97) as f64 / 97.0,
                    ((i * 13) % 83) as f64 / 83.0,
                    ((i * 3) % 79) as f64 / 79.0,
                    ((i * 11) % 73) as f64 / 73.0,
                    ((i * 5) % 71) as f64 / 71.0,
                ])
            })
            .collect();
        s.process_batch(&stream[..2000]).unwrap();
        let mid = s.footprint().approx_bytes;
        s.process_batch(&stream[2000..]).unwrap();
        let end = s.footprint().approx_bytes;
        assert!(s.stats().cells_pruned > 0, "pruning never ran");
        // Allow slack for hash-map capacity growth, but the footprint must
        // not keep scaling with the stream.
        assert!(
            end <= mid * 2,
            "footprint kept growing: {mid} -> {end} bytes"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut s = spot();
            s.learn(&training(300)).unwrap();
            let mut verdicts = Vec::new();
            for p in training(100) {
                verdicts.push(s.process(&p).unwrap().outlier);
            }
            verdicts
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn explain_returns_subspaces_for_queried_point() {
        let mut s = spot();
        s.learn(&training(300)).unwrap();
        let mut v = vec![0.5; 6];
        v[0] = 0.02;
        v[1] = 0.98;
        let explained = s.explain(&DataPoint::new(v), 3).unwrap();
        assert!(!explained.is_empty());
        assert!(explained.len() <= 3);
        // Scores ascend (best = sparsest first).
        for w in explained.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn explain_requires_recent_data() {
        let s = spot();
        assert_eq!(
            s.explain(&DataPoint::new(vec![0.5; 6]), 3),
            Err(SpotError::NotLearned)
        );
    }

    #[test]
    fn stream_detector_trait_roundtrip() {
        let mut s = spot();
        StreamDetector::learn(&mut s, &training(200)).unwrap();
        let d = StreamDetector::process(&mut s, &DataPoint::new(vec![0.5; 6]));
        assert!(d.score >= 0.0);
        assert_eq!(StreamDetector::name(&s), "spot");
        // Dimension mismatch maps to an infinite-score outlier.
        let d = StreamDetector::process(&mut s, &DataPoint::new(vec![0.5; 2]));
        assert!(d.outlier && d.score.is_infinite());
    }

    #[test]
    fn estimate_tau_is_positive_and_scales() {
        let mut rng = StdRng::seed_from_u64(1);
        let near: Vec<DataPoint> = (0..50)
            .map(|i| DataPoint::new(vec![i as f64 * 1e-4]))
            .collect();
        let far: Vec<DataPoint> = (0..50).map(|i| DataPoint::new(vec![i as f64])).collect();
        let t_near = estimate_tau(&near, &mut rng);
        let t_far = estimate_tau(&far, &mut rng);
        assert!(t_near > 0.0);
        assert!(t_far > t_near);
        assert_eq!(estimate_tau(&near[..1], &mut rng), 1.0);
    }
}
