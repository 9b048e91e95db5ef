//! Detection-stage outputs.

use crate::config::{SpotConfig, Thresholds};
use spot_subspace::Subspace;
use spot_synopsis::{CellConsumer, CellTouch, ProjectedStore};
use spot_types::{DurableState, PersistError, StateReader, StateWriter};

/// One subspace in which a point was found outlying, with the PCS values
/// that triggered the call — the "associated outlying subspace(s)" the
/// problem statement requires SPOT to return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubspaceFinding {
    /// The outlying subspace.
    pub subspace: Subspace,
    /// Relative density of the point's cell there.
    pub rd: f64,
    /// Inverse relative standard deviation of the point's cell there.
    pub irsd: f64,
}

/// Verdict for one stream point.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Logical tick at which the point was processed (1-based).
    pub tick: u64,
    /// `true` when at least one SST subspace flagged the point.
    pub outlier: bool,
    /// Anomaly score in `(0, 1]`: `1/(1+min_rd)` over all SST subspaces —
    /// higher means the point sits in sparser territory somewhere.
    pub score: f64,
    /// The flagged subspaces, sparsest (lowest RD) first.
    pub findings: Vec<SubspaceFinding>,
    /// `true` when the concept-drift detector fired on this point.
    pub drift: bool,
}

impl Verdict {
    /// Bit-exact equality: every field compared, float scores by their
    /// IEEE-754 bit patterns. This is the equivalence predicate the
    /// batch-equivalence and warm-restart suites pin — one definition,
    /// so growing [`Verdict`] can never silently weaken those checks.
    pub fn bitwise_eq(&self, other: &Verdict) -> bool {
        let Verdict {
            tick,
            outlier,
            score,
            findings,
            drift,
        } = self;
        *tick == other.tick
            && *outlier == other.outlier
            && score.to_bits() == other.score.to_bits()
            && *findings == other.findings
            && *drift == other.drift
    }

    /// Outlying subspaces only.
    pub fn subspaces(&self) -> Vec<Subspace> {
        self.findings.iter().map(|f| f.subspace).collect()
    }
}

/// The immutable product of the **screening** phase of two-phase verdict
/// evaluation: everything derivable from the cells a point touched and the
/// configuration alone — no detector state read or written. The ingest
/// loops screen every cell where it is touched ([`VerdictScreen`]);
/// [`VerdictScreen::assemble`] turns a run's accumulators into one plan
/// per point, and the sequential **commit** (RNG, drift, maintenance)
/// applies the plans in point order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalPlan {
    /// Flagged subspaces, sparsest (lowest RD) first — moved into the
    /// point's [`Verdict`] at commit.
    pub findings: Vec<SubspaceFinding>,
    /// Anomaly score `1/(1+min_rd)` (0.0 when no subspace is monitored).
    pub score: f64,
    /// `true` when at least one subspace flagged the point.
    pub outlier: bool,
    /// FS projected cells inspected for the drift signal.
    pub monitored: u32,
    /// Of those, cells whose decayed occupancy was below the novelty floor.
    pub monitored_fresh: u32,
}

impl EvalPlan {
    /// Resets the plan for reuse (keeps the findings capacity).
    pub fn clear(&mut self) {
        self.findings.clear();
        self.score = 0.0;
        self.outlier = false;
        self.monitored = 0;
        self.monitored_fresh = 0;
    }
}

/// The verdict rule folded into the ingest loops: the detector's
/// [`CellConsumer`]. Per touched cell it keeps what a verdict needs and
/// nothing else — the point's minimum RD, a freshness count over the FS
/// stores, and, for the rare cell whose RD is under the threshold (the
/// only one IRSD is derived for), a flagged entry.
///
/// Outlier-ness is checked in every SST subspace. The freshness count is
/// the drift signal's numerator: the decayed occupancy of a cell counts
/// the point itself, so `< novelty_floor` means the cell held (almost)
/// nothing before this arrival. A stationary stream revisits its cells; a
/// drifting one keeps opening fresh ones. Only the immutable FS stores
/// feed the signal — CS/OS churn under self-evolution and their freshly
/// warmed stores would contaminate it. (Full-space novelty is useless
/// here — in high dimensions nearly every base cell is empty, so that
/// signal saturates; low-dimensional projections stay dense under a
/// stable distribution and light up when it moves.) The signal's
/// denominator — how many FS stores there are — is the same for every
/// point of a run and is *not* accumulated here: [`VerdictScreen::assemble`]
/// takes it from the caller.
///
/// One accumulator serves both loop orders: [`VerdictScreen::reset`] for
/// a run of `n` points, feed it every touched cell (point-major or
/// store-major), then [`VerdictScreen::assemble`].
#[derive(Debug)]
pub struct VerdictScreen {
    thresholds: Thresholds,
    fs_max_dimension: usize,
    novelty_floor: f64,
    /// Per point of the run being screened.
    points: Vec<PointScreen>,
    flagged: Vec<Flagged>,
}

#[derive(Debug, Clone, Copy)]
struct PointScreen {
    min_rd: f64,
    fresh: u32,
}

#[derive(Debug, Clone, Copy)]
struct Flagged {
    point: u32,
    /// Registration ordinal of the flagging store — the tie-break that
    /// reproduces "registration order, then stable sort by RD".
    ordinal: u32,
    finding: SubspaceFinding,
}

impl VerdictScreen {
    /// The screen for `config`'s thresholds, FS bound and novelty floor.
    pub fn new(config: &SpotConfig) -> Self {
        VerdictScreen {
            thresholds: config.thresholds,
            fs_max_dimension: config.fs_max_dimension,
            novelty_floor: config.drift.novelty_floor,
            points: Vec::new(),
            flagged: Vec::new(),
        }
    }

    /// Readies the accumulators for a run of `points` points.
    pub fn reset(&mut self, points: usize) {
        self.points.clear();
        self.points.resize(
            points,
            PointScreen {
                min_rd: f64::INFINITY,
                fresh: 0,
            },
        );
        self.flagged.clear();
    }

    /// Assembles one [`EvalPlan`] per point of the run screened since the
    /// last [`VerdictScreen::reset`]. `monitored` is the number of FS
    /// stores feeding the drift signal — a constant of the run that the
    /// caller counts once.
    ///
    /// The flagged cells sort by `(point, rd, registration ordinal)` — the
    /// order a registration-order scan followed by a stable sort on RD
    /// produces, whichever loop order fed them.
    pub fn assemble(&mut self, monitored: u32, plans: &mut [EvalPlan]) {
        self.flagged.sort_unstable_by(|a, b| {
            a.point
                .cmp(&b.point)
                .then_with(|| {
                    a.finding
                        .rd
                        .partial_cmp(&b.finding.rd)
                        .expect("RD values are not NaN")
                })
                .then_with(|| a.ordinal.cmp(&b.ordinal))
        });
        debug_assert_eq!(self.points.len(), plans.len());
        let mut flagged = self.flagged.iter().peekable();
        for (i, (plan, acc)) in plans.iter_mut().zip(&self.points).enumerate() {
            plan.findings.clear();
            while let Some(f) = flagged.next_if(|f| f.point as usize == i) {
                plan.findings.push(f.finding);
            }
            plan.outlier = !plan.findings.is_empty();
            plan.score = if acc.min_rd.is_finite() {
                1.0 / (1.0 + acc.min_rd)
            } else {
                0.0
            };
            plan.monitored = monitored;
            plan.monitored_fresh = acc.fresh;
        }
    }
}

impl CellConsumer for VerdictScreen {
    /// Screens one touched cell. (The per-point path calls this directly,
    /// from the closure of `SynopsisManager::update_and_screen`.)
    #[inline]
    fn cell(&mut self, ordinal: usize, store: &ProjectedStore, point: usize, touch: CellTouch) {
        let acc = &mut self.points[point];
        acc.min_rd = acc.min_rd.min(touch.rd);
        if store.cardinality() <= self.fs_max_dimension && touch.occupancy < self.novelty_floor {
            acc.fresh += 1;
        }
        if touch.rd < self.thresholds.rd {
            let irsd = store.irsd_of(&touch);
            if self.thresholds.irsd.is_none_or(|t| irsd < t) {
                self.flagged.push(Flagged {
                    point: point as u32,
                    ordinal: ordinal as u32,
                    finding: SubspaceFinding {
                        subspace: store.subspace(),
                        rd: touch.rd,
                        irsd,
                    },
                });
            }
        }
    }
}

/// Summary of a learning-stage run.
#[derive(Debug, Clone)]
pub struct LearningReport {
    /// Number of training points consumed.
    pub training_points: usize,
    /// Outlier candidates selected by outlying degree.
    pub od_candidates: usize,
    /// Subspaces placed in CS (with their scores, best first).
    pub cs: Vec<(Subspace, f64)>,
    /// Subspaces placed in OS (supervised exemplars), best first.
    pub os: Vec<(Subspace, f64)>,
    /// Distinct MOGA objective evaluations across all searches.
    pub moga_evaluations: usize,
}

/// Running counters of a SPOT instance.
///
/// The first six fields are *logical* counters: for a fixed seed and
/// stream they are identical whether the points came one by one or in
/// batches, and equality compares **only them**. The remaining fields are
/// batch-path observability metrics — run counts and wall-clock timings
/// that legitimately differ between chunkings and machines — excluded
/// from `==` so equivalence tests can keep pinning the logical state
/// bit-exactly. The two wall-clock timers are not persisted: a restored
/// detector starts them at 0, so checkpoint bytes are a function of
/// config, seed and stream only.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpotStats {
    /// Stream points processed by the detection stage.
    pub processed: u64,
    /// Points flagged as projected outliers.
    pub outliers: u64,
    /// CS self-evolution rounds executed.
    pub evolutions: u64,
    /// Subspaces added to OS online.
    pub os_added: u64,
    /// Concept-drift alarms raised.
    pub drift_events: u64,
    /// Cells evicted by pruning.
    pub cells_pruned: u64,
    /// Points that went through the batch path (the denominator for the
    /// eval-phase throughput; the timers below cover only batch runs).
    pub batch_points: u64,
    /// Internal maintenance-bounded batch runs executed.
    pub batch_runs: u64,
    /// Wall-clock nanoseconds batch runs spent assembling plans from the
    /// screen's accumulators ([`VerdictScreen::assemble`]). The thresholds
    /// are checked in the ingest loop, so this is what remains of the
    /// former verdict sweep — a few tens of nanoseconds a point.
    pub sweep_nanos: u64,
    /// Wall-clock nanoseconds spent in the sequential commit phase of
    /// batch runs.
    pub commit_nanos: u64,
}

impl PartialEq for SpotStats {
    fn eq(&self, other: &Self) -> bool {
        // Logical counters only — see the type docs.
        (
            self.processed,
            self.outliers,
            self.evolutions,
            self.os_added,
            self.drift_events,
            self.cells_pruned,
        ) == (
            other.processed,
            other.outliers,
            other.evolutions,
            other.os_added,
            other.drift_events,
            other.cells_pruned,
        )
    }
}

impl Eq for SpotStats {}

impl SpotStats {
    /// Batch eval-phase throughput in points/sec (sweep + commit), or
    /// `None` before any batch run completed.
    pub fn eval_points_per_sec(&self) -> Option<f64> {
        let nanos = self.sweep_nanos + self.commit_nanos;
        if nanos == 0 || self.batch_points == 0 {
            return None;
        }
        Some(self.batch_points as f64 * 1e9 / nanos as f64)
    }
}

impl DurableState for SpotStats {
    fn capture(&self, w: &mut StateWriter) {
        w.u64("processed", self.processed);
        w.u64("outliers", self.outliers);
        w.u64("evolutions", self.evolutions);
        w.u64("os_added", self.os_added);
        w.u64("drift_events", self.drift_events);
        w.u64("cells_pruned", self.cells_pruned);
        w.u64("batch_points", self.batch_points);
        w.u64("batch_runs", self.batch_runs);
    }

    fn restore(&mut self, r: &StateReader<'_>) -> Result<(), PersistError> {
        self.processed = r.u64("processed")?;
        self.outliers = r.u64("outliers")?;
        self.evolutions = r.u64("evolutions")?;
        self.os_added = r.u64("os_added")?;
        self.drift_events = r.u64("drift_events")?;
        self.cells_pruned = r.u64("cells_pruned")?;
        self.batch_points = r.u64("batch_points")?;
        self.batch_runs = r.u64("batch_runs")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accessors() {
        let s0 = Subspace::from_dims([0]).unwrap();
        let s1 = Subspace::from_dims([1, 2]).unwrap();
        let v = Verdict {
            tick: 5,
            outlier: true,
            score: 0.9,
            findings: vec![
                SubspaceFinding {
                    subspace: s0,
                    rd: 0.01,
                    irsd: 0.0,
                },
                SubspaceFinding {
                    subspace: s1,
                    rd: 0.05,
                    irsd: 1.0,
                },
            ],
            drift: false,
        };
        assert_eq!(v.subspaces(), vec![s0, s1]);
    }

    #[test]
    fn stats_equality_ignores_eval_metrics() {
        let mut a = SpotStats {
            processed: 10,
            outliers: 2,
            ..Default::default()
        };
        let mut b = a;
        b.sweep_nanos = 12345;
        b.commit_nanos = 999;
        b.batch_points = 10;
        b.batch_runs = 1;
        assert_eq!(a, b, "timings and pipeline counters are observability only");
        a.outliers = 3;
        assert_ne!(a, b, "logical counters still compare");
        assert_eq!(a.eval_points_per_sec(), None);
        assert!(b.eval_points_per_sec().unwrap() > 0.0);
    }

    #[test]
    fn eval_plan_clear_keeps_capacity() {
        let mut plan = EvalPlan {
            findings: Vec::with_capacity(8),
            score: 0.5,
            outlier: true,
            monitored: 3,
            monitored_fresh: 1,
        };
        plan.findings.push(SubspaceFinding {
            subspace: Subspace::from_dims([0]).unwrap(),
            rd: 0.01,
            irsd: 0.0,
        });
        plan.clear();
        assert_eq!(plan, EvalPlan::default());
        assert!(plan.findings.capacity() >= 8);
    }

    #[test]
    fn empty_verdict() {
        let v = Verdict {
            tick: 1,
            outlier: false,
            score: 0.1,
            findings: vec![],
            drift: false,
        };
        assert!(v.subspaces().is_empty());
    }
}
