//! The (ω, ε) window-based time model.
//!
//! The model discriminates data arriving at different times by assigning
//! each point an exponentially decaying weight. A point of age `a` ticks
//! weighs `δ^a` with per-tick decay factor `δ = ε^(1/ω)`, so a point that
//! has just slid out of a window of size ω weighs exactly ε. The model is
//! therefore an ε-approximation of the conventional ω-sized sliding window
//! that needs **no in-window point buffer and no snapshot history** — only
//! the latest decayed summary, which is the property the paper highlights
//! against tilted-time-frame models.
//!
//! Decay is applied lazily: every summary stores the tick of its last
//! update and is renormalized by `δ^(now − last)` on access.

use spot_types::{DurableState, PersistError, Result, SpotError, StateReader, StateWriter};

/// The (ω, ε) time model: window size ω (ticks) and approximation factor ε.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeModel {
    omega: u64,
    epsilon: f64,
    decay: f64,
}

impl TimeModel {
    /// Creates a model with window size `omega` (> 0 ticks) and
    /// approximation factor `epsilon` (in `(0, 1)`).
    pub fn new(omega: u64, epsilon: f64) -> Result<Self> {
        if omega == 0 {
            return Err(SpotError::InvalidConfig("omega must be positive".into()));
        }
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(SpotError::InvalidConfig(format!(
                "epsilon must lie in (0,1), got {epsilon}"
            )));
        }
        let decay = epsilon.powf(1.0 / omega as f64);
        Ok(TimeModel {
            omega,
            epsilon,
            decay,
        })
    }

    /// A landmark model that never forgets (decay factor 1). Useful for
    /// offline training evaluation where all points should count equally.
    pub fn landmark() -> Self {
        TimeModel {
            omega: u64::MAX,
            epsilon: 1.0,
            decay: 1.0,
        }
    }

    /// Window size ω in ticks.
    pub fn omega(&self) -> u64 {
        self.omega
    }

    /// Approximation factor ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Per-tick decay factor δ = ε^(1/ω).
    #[inline]
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// Weight of a point `age` ticks after its arrival: δ^age.
    #[inline]
    pub fn weight_after(&self, age: u64) -> f64 {
        if self.decay == 1.0 {
            1.0
        } else {
            self.decay.powi(age.min(i32::MAX as u64) as i32)
        }
    }

    /// Multiplier that renormalizes a summary last touched at `last` to the
    /// current tick `now`.
    #[inline]
    pub fn decay_between(&self, last: u64, now: u64) -> f64 {
        debug_assert!(now >= last, "clock must be monotonic");
        self.weight_after(now - last)
    }

    /// The steady-state total decayed weight of a stream that has produced
    /// one unit per tick forever: `1/(1−δ)`. For the landmark model this is
    /// unbounded and `f64::INFINITY` is returned.
    pub fn steady_state_weight(&self) -> f64 {
        if self.decay == 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 - self.decay)
        }
    }

    /// Upper bound on the *total* weight contributed by all points that
    /// have slid out of the ω-window (one arrival per tick):
    /// `Σ_{a≥ω} δ^a = δ^ω/(1−δ) = ε/(1−δ)`.
    pub fn expired_weight_bound(&self) -> f64 {
        if self.decay == 1.0 {
            f64::INFINITY
        } else {
            self.epsilon / (1.0 - self.decay)
        }
    }
}

/// The three fields verbatim: `δ` is captured rather than re-derived from
/// `(ω, ε)`, so a restored model decays by the same bits, and the landmark
/// model (which [`TimeModel::new`] refuses) restores too.
impl DurableState for TimeModel {
    fn capture(&self, w: &mut StateWriter) {
        w.u64("omega", self.omega);
        w.f64_bits("epsilon", self.epsilon);
        w.f64_bits("decay", self.decay);
    }

    fn restore(&mut self, r: &StateReader<'_>) -> std::result::Result<(), PersistError> {
        *self = TimeModel {
            omega: r.u64("omega")?,
            epsilon: r.f64_bits("epsilon")?,
            decay: r.f64_bits("decay")?,
        };
        Ok(())
    }
}

/// The persistent age-indexed table of [`TimeModel::weight_after`] — the one
/// source of decay factors on the synopsis hot paths.
///
/// Every renormalization of a cell (a touch by a point, a prune scan) needs
/// `δ^age` for the cell's age `now − last_tick`, and the factor depends on
/// the age alone: not on the tick, not on the run, not on the cell. So one
/// table indexed by age serves every cell touch of every store for the
/// detector's whole lifetime. The owner extends it with
/// [`WeightCache::ensure`] before it touches cells at a new tick (one
/// `powi` per tick until the cap, none afterwards); inside a point, a run
/// or a prune the table is read-only.
///
/// Entry `a` is `model.weight_after(a)` itself — the function the
/// model-only path calls — so a served factor is bit-identical to the
/// computation it replaces. Ages past the table (beyond
/// [`WeightCache::MAX_AGES`], or not yet ensured) fall back to the model,
/// with the same result.
///
/// The table is derived state: it is never persisted, and a restored or
/// cloned detector refills it as its clock is next ensured. Its first
/// extension allocates the whole capped table (32 KiB) at once; it never
/// reallocates after that.
#[derive(Debug, Clone)]
pub struct WeightCache {
    model: TimeModel,
    /// `factors[age] == model.weight_after(age)` for every cached age.
    factors: Vec<f64>,
}

impl WeightCache {
    /// Hard cap on cached entries (32 KiB of factors). Ages beyond the
    /// cap fall back to the model, with the same bits; on the benchmark
    /// streams under 0.5 % of lookups are that old.
    pub const MAX_AGES: usize = 1 << 12;

    /// Empty table over `model`: every lookup falls back to the model
    /// until [`WeightCache::ensure`] is called.
    pub fn new(model: TimeModel) -> Self {
        WeightCache {
            model,
            factors: Vec::new(),
        }
    }

    /// The model whose weights the table holds.
    pub fn model(&self) -> &TimeModel {
        &self.model
    }

    /// Number of ages currently cached.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// Extends the table so every age `< upto` (capped at
    /// [`WeightCache::MAX_AGES`]) is served without a `powi`. Each new
    /// entry costs one [`TimeModel::weight_after`]; already-cached ages
    /// cost nothing, so calling this with `now + 1` before every point,
    /// run and prune amortizes to one evaluation per tick up to the cap.
    #[inline]
    pub fn ensure(&mut self, upto: u64) {
        let want = upto.min(Self::MAX_AGES as u64) as usize;
        if self.factors.len() < want {
            self.extend_to(want);
        }
    }

    #[cold]
    fn extend_to(&mut self, want: usize) {
        // One exact allocation of the capped table, on the first growth.
        self.factors
            .reserve_exact(Self::MAX_AGES - self.factors.len());
        for age in self.factors.len() as u64..want as u64 {
            self.factors.push(self.model.weight_after(age));
        }
    }

    /// `model.weight_after(age)`, served from the table when the age is in
    /// range. Read-only.
    #[inline]
    pub fn weight(&self, age: u64) -> f64 {
        if age < self.factors.len() as u64 {
            self.factors[age as usize]
        } else {
            self.model.weight_after(age)
        }
    }

    /// Renormalization factor from `last` to `now` (the table-served
    /// counterpart of [`TimeModel::decay_between`]).
    #[inline]
    pub fn decay_between(&self, last: u64, now: u64) -> f64 {
        debug_assert!(now >= last, "clock must be monotonic");
        self.weight(now - last)
    }
}

/// A single decayed scalar with lazy renormalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayedCounter {
    value: f64,
    last_tick: u64,
}

impl Default for DecayedCounter {
    fn default() -> Self {
        DecayedCounter {
            value: 0.0,
            last_tick: 0,
        }
    }
}

impl DecayedCounter {
    /// Zero counter at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` at tick `now`, decaying the stored value first.
    #[inline]
    pub fn add(&mut self, model: &TimeModel, now: u64, amount: f64) {
        self.value = self.value * model.decay_between(self.last_tick, now) + amount;
        self.last_tick = now;
    }

    /// Advances the counter over a run of `len` unit arrivals at the
    /// consecutive ticks `start, start+1, …`, pushing the counter's value
    /// *after* each arrival into `out` (cleared first; reuse it across
    /// runs). One geometric recurrence replaces `len` separate
    /// [`DecayedCounter::add`] calls: after the single gap renormalization
    /// to `start` (a factor from `weights`), each step is
    /// `value = value · δ + 1` — exactly the floating-point operations the
    /// per-point path performs, so the results are bit-identical, with no
    /// per-point `powi` and no per-point call overhead.
    pub fn add_run(&mut self, weights: &WeightCache, start: u64, len: usize, out: &mut Vec<f64>) {
        out.clear();
        if len == 0 {
            return;
        }
        out.reserve(len);
        let mut value = self.value * weights.decay_between(self.last_tick, start);
        let decay = weights.model().decay();
        value += 1.0;
        out.push(value);
        for _ in 1..len {
            value = value * decay + 1.0;
            out.push(value);
        }
        self.value = value;
        self.last_tick = start + len as u64 - 1;
    }

    /// Value renormalized to tick `now` (does not mutate).
    #[inline]
    pub fn value_at(&self, model: &TimeModel, now: u64) -> f64 {
        self.value * model.decay_between(self.last_tick, now)
    }

    /// Last tick at which the counter was touched.
    pub fn last_tick(&self) -> u64 {
        self.last_tick
    }

    /// Forces the stored value (used when rebuilding from snapshots).
    pub fn reset(&mut self, value: f64, tick: u64) {
        self.value = value;
        self.last_tick = tick;
    }
}

impl DurableState for DecayedCounter {
    fn capture(&self, w: &mut StateWriter) {
        w.f64_bits("value", self.value);
        w.u64("last_tick", self.last_tick);
    }

    fn restore(&mut self, r: &StateReader<'_>) -> std::result::Result<(), PersistError> {
        self.value = r.f64_bits("value")?;
        self.last_tick = r.u64("last_tick")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decay_factor_definition() {
        let tm = TimeModel::new(100, 0.01).unwrap();
        assert!((tm.decay() - 0.01f64.powf(0.01)).abs() < 1e-12);
        // A point exactly omega old weighs epsilon.
        assert!((tm.weight_after(100) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(TimeModel::new(0, 0.1).is_err());
        assert!(TimeModel::new(10, 0.0).is_err());
        assert!(TimeModel::new(10, 1.0).is_err());
        assert!(TimeModel::new(10, -0.5).is_err());
        assert!(TimeModel::new(10, 1.5).is_err());
    }

    #[test]
    fn landmark_never_decays() {
        let tm = TimeModel::landmark();
        assert_eq!(tm.weight_after(1_000_000), 1.0);
        assert_eq!(tm.steady_state_weight(), f64::INFINITY);
    }

    #[test]
    fn weight_monotonically_decreasing() {
        let tm = TimeModel::new(50, 0.05).unwrap();
        let mut prev = tm.weight_after(0);
        for age in 1..200 {
            let w = tm.weight_after(age);
            assert!(w < prev);
            prev = w;
        }
    }

    #[test]
    fn expired_fraction_is_epsilon() {
        // Unit arrivals per tick: weight of expired points over total
        // steady-state weight must equal epsilon.
        for &(omega, eps) in &[(10u64, 0.1f64), (100, 0.01), (1000, 0.001)] {
            let tm = TimeModel::new(omega, eps).unwrap();
            let frac = tm.expired_weight_bound() / tm.steady_state_weight();
            assert!(
                (frac - eps).abs() < 1e-9,
                "omega={omega} eps={eps} frac={frac}"
            );
        }
    }

    #[test]
    fn counter_lazy_equals_eager() {
        let tm = TimeModel::new(20, 0.1).unwrap();
        // Lazy: single counter touched at irregular ticks.
        let mut lazy = DecayedCounter::new();
        let events: &[(u64, f64)] = &[(0, 1.0), (3, 2.0), (7, 1.5), (20, 0.5)];
        for &(t, amt) in events {
            lazy.add(&tm, t, amt);
        }
        // Eager: decay applied every tick.
        let mut eager = 0.0;
        let mut idx = 0;
        for t in 0..=20u64 {
            if t > 0 {
                eager *= tm.decay();
            }
            while idx < events.len() && events[idx].0 == t {
                eager += events[idx].1;
                idx += 1;
            }
        }
        assert!((lazy.value_at(&tm, 20) - eager).abs() < 1e-9);
    }

    #[test]
    fn counter_value_at_future_tick() {
        let tm = TimeModel::new(10, 0.5).unwrap();
        let mut c = DecayedCounter::new();
        c.add(&tm, 0, 4.0);
        let v10 = c.value_at(&tm, 10);
        assert!((v10 - 2.0).abs() < 1e-9); // epsilon 0.5 at age omega
                                           // Non-mutating.
        assert!((c.value_at(&tm, 0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn counter_reset() {
        let tm = TimeModel::new(10, 0.5).unwrap();
        let mut c = DecayedCounter::new();
        c.add(&tm, 5, 3.0);
        c.reset(7.0, 8);
        assert_eq!(c.last_tick(), 8);
        assert!((c.value_at(&tm, 8) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn add_run_matches_per_point_adds_bitwise() {
        let tm = TimeModel::new(100, 0.01).unwrap();
        let mut per_point = DecayedCounter::new();
        per_point.add(&tm, 3, 1.0);
        let mut run = per_point;
        // Reference: one add per consecutive tick, reading back after each.
        let mut want = Vec::new();
        for now in 10..10 + 64u64 {
            per_point.add(&tm, now, 1.0);
            want.push(per_point.value_at(&tm, now));
        }
        let mut got = Vec::new();
        let mut weights = WeightCache::new(tm);
        weights.ensure(10 + 64);
        run.add_run(&weights, 10, 64, &mut got);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "arrival {i}: {g} vs {w}");
        }
        assert_eq!(run.last_tick(), per_point.last_tick());
        assert_eq!(
            run.value_at(&tm, 100).to_bits(),
            per_point.value_at(&tm, 100).to_bits()
        );
    }

    #[test]
    fn add_run_empty_is_a_no_op() {
        let tm = TimeModel::new(10, 0.5).unwrap();
        let mut c = DecayedCounter::new();
        c.add(&tm, 5, 2.0);
        let before = c;
        let mut out = vec![1.0];
        c.add_run(&WeightCache::new(tm), 9, 0, &mut out);
        assert!(out.is_empty());
        assert_eq!(c, before);
    }

    #[test]
    fn weight_cache_is_bitwise_identical_to_the_model() {
        // Opaque to the optimizer: a model built from literals would let an
        // optimized build fold the model side's `powi` at compile time,
        // while the cache computes it at run time, as the detector does.
        let tm = std::hint::black_box(TimeModel::new(100, 0.01).unwrap());
        let mut wc = WeightCache::new(tm);
        wc.ensure(500);
        assert_eq!(wc.len(), 500);
        for age in 0..600u64 {
            // In-table and fallback lookups alike must reproduce the exact
            // powi result the model-only path computes.
            assert_eq!(
                wc.weight(age).to_bits(),
                tm.weight_after(age).to_bits(),
                "age {age}"
            );
        }
        assert_eq!(
            wc.decay_between(40, 250).to_bits(),
            tm.decay_between(40, 250).to_bits()
        );
    }

    #[test]
    fn weight_cache_extends_incrementally_and_caps() {
        // Opaque to the optimizer, so the model side's `powi` past the cap
        // runs at run time like the cache's fallback, as in the test above.
        let tm = std::hint::black_box(TimeModel::new(50, 0.05).unwrap());
        let mut wc = WeightCache::new(tm);
        assert!(wc.is_empty());
        wc.ensure(10);
        wc.ensure(5); // shrinking request is a no-op
        assert_eq!(wc.len(), 10);
        wc.ensure(64);
        assert_eq!(wc.len(), 64);
        wc.ensure(u64::MAX);
        assert_eq!(wc.len(), WeightCache::MAX_AGES);
        // Beyond the cap the model fallback still answers exactly.
        let age = WeightCache::MAX_AGES as u64 + 17;
        assert_eq!(wc.weight(age).to_bits(), tm.weight_after(age).to_bits());
    }

    #[test]
    fn table_serves_model_bits_at_the_edges() {
        // Around the old per-run table length, around the cap and the old
        // cap, and past the point where `weight_after` clamps its `powi`
        // exponent — from an empty table (all fallback), a short one and a
        // full one.
        let max = WeightCache::MAX_AGES as u64;
        let ages = [
            0,
            1,
            255,
            256,
            max - 1,
            max,
            max + 1,
            // The old 65 536-entry cap: these ages now take the fallback.
            65_535,
            65_536,
            65_537,
            i32::MAX as u64 + 1,
            u64::MAX,
        ];
        for tm in [
            TimeModel::new(100, 0.01).unwrap(),
            TimeModel::new(6000, 0.05).unwrap(),
            TimeModel::landmark(),
        ] {
            for upto in [0, 256, u64::MAX] {
                let mut wc = WeightCache::new(tm);
                wc.ensure(upto);
                for age in ages {
                    assert_eq!(
                        wc.weight(age).to_bits(),
                        tm.weight_after(age).to_bits(),
                        "age {age}, table of {}",
                        wc.len()
                    );
                }
                assert_eq!(
                    wc.decay_between(7, 7 + max).to_bits(),
                    wc.weight(max).to_bits()
                );
            }
        }
        // The landmark model never forgets, at any age, from the table or not.
        let mut wc = WeightCache::new(TimeModel::landmark());
        wc.ensure(1000);
        assert!(ages.iter().all(|&age| wc.weight(age) == 1.0));
    }

    proptest! {
        #[test]
        fn add_run_equals_per_point_for_any_run(
            gap in 0u64..500, len in 1usize..200, omega in 2u64..1000
        ) {
            let tm = TimeModel::new(omega, 0.01).unwrap();
            let mut a = DecayedCounter::new();
            a.add(&tm, 1, 1.0);
            let mut b = a;
            let start = 2 + gap;
            let mut got = Vec::new();
            // A table that covers the gap on some cases and not on others.
            let mut weights = WeightCache::new(tm);
            weights.ensure(250);
            b.add_run(&weights, start, len, &mut got);
            for (i, g) in got.iter().enumerate() {
                let now = start + i as u64;
                a.add(&tm, now, 1.0);
                prop_assert_eq!(g.to_bits(), a.value_at(&tm, now).to_bits());
            }
        }

        #[test]
        fn omega_old_point_weighs_at_most_epsilon(
            omega in 1u64..10_000, eps in 0.0001f64..0.9999, extra in 0u64..1000
        ) {
            let tm = TimeModel::new(omega, eps).unwrap();
            let w = tm.weight_after(omega + extra);
            prop_assert!(w <= eps * (1.0 + 1e-9));
        }

        #[test]
        fn counter_accumulation_order_free(amounts in proptest::collection::vec(0.0f64..10.0, 1..20)) {
            // All arrivals at the same tick: order must not matter.
            let tm = TimeModel::new(10, 0.1).unwrap();
            let mut a = DecayedCounter::new();
            for &x in &amounts { a.add(&tm, 5, x); }
            let mut rev = amounts.clone();
            rev.reverse();
            let mut b = DecayedCounter::new();
            for &x in &rev { b.add(&tm, 5, x); }
            prop_assert!((a.value_at(&tm, 5) - b.value_at(&tm, 5)).abs() < 1e-9);
        }
    }
}
