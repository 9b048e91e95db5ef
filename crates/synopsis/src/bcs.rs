//! Base Cell Summary.

use spot_stream::TimeModel;

/// Base Cell Summary `BCS(c) = (D_c, LS_c, SS_c)` with lazy decay — a
/// read-only view of one cell of a [`BaseStore`](crate::BaseStore), which
/// keeps the triples of all its cells in parallel columns.
///
/// `D` is the decayed number of points in the cell; `LS`/`SS` are the
/// decayed per-dimension linear and squared sums. The triple is *additive*
/// (two summaries over disjoint point sets merge by aligned addition) and
/// *incremental* (one point folds in with O(ϕ) work), the two properties
/// the paper requires for one-pass maintenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bcs<'a> {
    d: f64,
    last_tick: u64,
    /// `[ls_0..ls_ϕ, ss_0..ss_ϕ]`, decayed to `last_tick` like `d`.
    moments: &'a [f64],
}

impl<'a> Bcs<'a> {
    pub(crate) fn new(d: f64, last_tick: u64, moments: &'a [f64]) -> Self {
        debug_assert_eq!(moments.len() % 2, 0);
        Bcs {
            d,
            last_tick,
            moments,
        }
    }

    /// Dimensionality of the summary.
    pub fn dims(&self) -> usize {
        self.moments.len() / 2
    }

    /// The stored per-dimension moment sums `(LS, SS)`, decayed to
    /// [`Bcs::last_tick`].
    pub fn moments(&self) -> (&'a [f64], &'a [f64]) {
        self.moments.split_at(self.dims())
    }

    /// Decayed count renormalized to `now`.
    #[inline]
    pub fn count_at(&self, model: &TimeModel, now: u64) -> f64 {
        self.d * model.decay_between(self.last_tick, now)
    }

    /// Decayed count at the last-touched tick.
    pub fn count(&self) -> f64 {
        self.d
    }

    /// Last tick at which the summary was updated.
    pub fn last_tick(&self) -> u64 {
        self.last_tick
    }

    /// Per-dimension mean of the (decay-weighted) points in the cell.
    /// `None` when the cell is (effectively) empty.
    pub fn mean(&self, dim: usize) -> Option<f64> {
        let (ls, _) = self.moments();
        (self.d > f64::EPSILON).then(|| ls[dim] / self.d)
    }

    /// Per-dimension variance of the (decay-weighted) points:
    /// `SS/D − (LS/D)²`, floored at zero against rounding.
    pub fn variance(&self, dim: usize) -> Option<f64> {
        let (ls, ss) = self.moments();
        (self.d > f64::EPSILON).then(|| {
            let m = ls[dim] / self.d;
            (ss[dim] / self.d - m * m).max(0.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::CellKey;
    use crate::store::BaseStore;
    use proptest::prelude::*;
    use spot_stream::WeightCache;
    use spot_types::DataPoint;

    const KEY: CellKey = CellKey(0);

    fn landmark() -> TimeModel {
        TimeModel::landmark()
    }

    fn decaying() -> TimeModel {
        TimeModel::new(10, 0.5).unwrap()
    }

    /// A store whose one cell absorbed `arrivals` (tick, values) in order.
    fn cell_of(tm: TimeModel, arrivals: &[(u64, &[f64])]) -> BaseStore {
        let weights = WeightCache::new(tm);
        let mut store = BaseStore::new();
        for &(tick, vals) in arrivals {
            store.insert_at(KEY, &weights, tick, &DataPoint::new(vals.to_vec()));
        }
        store
    }

    /// Aligned addition of two summaries after decaying both to the later
    /// of their last-touched ticks: `(D, LS, SS)` of the union.
    fn merged(tm: &TimeModel, a: Bcs<'_>, b: Bcs<'_>) -> (f64, Vec<f64>, Vec<f64>) {
        let now = a.last_tick().max(b.last_tick());
        let (fa, fb) = (
            tm.decay_between(a.last_tick(), now),
            tm.decay_between(b.last_tick(), now),
        );
        let add = |x: &[f64], y: &[f64]| -> Vec<f64> {
            x.iter().zip(y).map(|(x, y)| x * fa + y * fb).collect()
        };
        let ((ls_a, ss_a), (ls_b, ss_b)) = (a.moments(), b.moments());
        (
            a.count() * fa + b.count() * fb,
            add(ls_a, ls_b),
            add(ss_a, ss_b),
        )
    }

    #[test]
    fn insert_accumulates_statistics() {
        let store = cell_of(landmark(), &[(0, &[1.0, 2.0]), (0, &[3.0, 4.0])]);
        let b = store.get(KEY).unwrap();
        assert_eq!(b.dims(), 2);
        assert!((b.count() - 2.0).abs() < 1e-12);
        assert!((b.mean(0).unwrap() - 2.0).abs() < 1e-12);
        assert!((b.mean(1).unwrap() - 3.0).abs() < 1e-12);
        // var over {1,3} = 1
        assert!((b.variance(0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cell_has_no_moments() {
        let b = Bcs::new(0.0, 0, &[0.0; 6]);
        assert_eq!(b.dims(), 3);
        assert!(b.mean(0).is_none());
        assert!(b.variance(2).is_none());
    }

    #[test]
    fn decay_halves_at_omega() {
        let tm = decaying(); // epsilon 0.5 at omega 10
        let store = cell_of(tm, &[(0, &[4.0])]);
        let b = store.get(KEY).unwrap();
        assert!((b.count_at(&tm, 10) - 0.5).abs() < 1e-9);
        // Mean is decay-invariant: numerator and denominator shrink alike
        // when the next touch renormalizes the cell.
        let store = cell_of(tm, &[(0, &[4.0]), (10, &[4.0])]);
        let b = store.get(KEY).unwrap();
        assert!((b.count() - 1.5).abs() < 1e-9);
        assert!((b.mean(0).unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn variance_is_decay_invariant() {
        // {1, 3} at tick 0, then their mean at tick 25: the old pair keeps
        // its spread at weight w each, so the variance is 2w / (2w + 1).
        let tm = decaying();
        let store = cell_of(tm, &[(0, &[1.0]), (0, &[3.0])]);
        assert!((store.get(KEY).unwrap().variance(0).unwrap() - 1.0).abs() < 1e-12);
        let store = cell_of(tm, &[(0, &[1.0]), (0, &[3.0]), (25, &[2.0])]);
        let w = tm.weight_after(25);
        let b = store.get(KEY).unwrap();
        assert!((b.mean(0).unwrap() - 2.0).abs() < 1e-9);
        assert!((b.variance(0).unwrap() - 2.0 * w / (2.0 * w + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn lazy_equals_eager_decay() {
        let tm = decaying();
        // Lazy: the cell is touched at ticks 0, 4, 9 only.
        let arrivals: [(u64, &[f64]); 3] = [(0, &[1.0]), (4, &[2.0]), (9, &[3.0])];
        let store = cell_of(tm, &arrivals);
        let lazy = store.get(KEY).unwrap();
        // Eager: decay applied every tick explicitly.
        let (mut d, mut ls) = (0.0f64, 0.0f64);
        for t in 0..=9u64 {
            if t > 0 {
                d *= tm.decay();
                ls *= tm.decay();
            }
            for (_, vals) in arrivals.iter().filter(|(tick, _)| *tick == t) {
                d += 1.0;
                ls += vals[0];
            }
        }
        assert!((lazy.count_at(&tm, 9) - d).abs() < 1e-9);
        assert!((lazy.mean(0).unwrap() - ls / d).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_combined_insertion() {
        let tm = decaying();
        let a = cell_of(tm, &[(0, &[1.0]), (1, &[2.0])]);
        let b = cell_of(tm, &[(2, &[5.0]), (3, &[7.0])]);
        let combined = cell_of(tm, &[(0, &[1.0]), (1, &[2.0]), (2, &[5.0]), (3, &[7.0])]);
        let (d, ls, _) = merged(&tm, a.get(KEY).unwrap(), b.get(KEY).unwrap());
        let combined = combined.get(KEY).unwrap();
        assert!((d - combined.count_at(&tm, 3)).abs() < 1e-9);
        assert!((ls[0] / d - combined.mean(0).unwrap()).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn additivity_property(
            xs in proptest::collection::vec(-10.0f64..10.0, 1..12),
            ys in proptest::collection::vec(-10.0f64..10.0, 1..12),
        ) {
            // All points at the same tick: BCS(A) + BCS(B) == BCS(A ∪ B).
            let tm = decaying();
            let at5 = |vs: &[f64]| -> Vec<(u64, Vec<f64>)> {
                vs.iter().map(|&v| (5, vec![v])).collect()
            };
            let build = |arrivals: &[(u64, Vec<f64>)]| {
                let borrowed: Vec<(u64, &[f64])> =
                    arrivals.iter().map(|(t, v)| (*t, v.as_slice())).collect();
                cell_of(tm, &borrowed)
            };
            let (a, b) = (build(&at5(&xs)), build(&at5(&ys)));
            let both = build(&[at5(&xs), at5(&ys)].concat());
            let (d, ls, ss) = merged(&tm, a.get(KEY).unwrap(), b.get(KEY).unwrap());
            let both = both.get(KEY).unwrap();
            let mean = ls[0] / d;
            prop_assert!((d - both.count()).abs() < 1e-9);
            prop_assert!((mean - both.mean(0).unwrap()).abs() < 1e-7);
            prop_assert!(((ss[0] / d - mean * mean).max(0.0) - both.variance(0).unwrap()).abs() < 1e-7);
        }

        #[test]
        fn count_never_negative(ticks in proptest::collection::vec(0u64..100, 1..20)) {
            let tm = decaying();
            let weights = WeightCache::new(tm);
            let mut store = BaseStore::new();
            let mut sorted = ticks.clone();
            sorted.sort_unstable();
            for t in sorted {
                store.insert_at(KEY, &weights, t, &DataPoint::new(vec![1.0]));
                prop_assert!(store.get(KEY).unwrap().count() >= 0.0);
            }
        }
    }
}
