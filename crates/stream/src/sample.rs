//! Counter-based reservoir sampling of the recent stream.
//!
//! The original reservoir drew its accept/replace index from the
//! detector's sequential RNG, which made the commit phase order-dependent
//! (every candidate consumed one draw, so draw *k*'s value depended on how
//! many points came before) and forced a snapshot to persist generator
//! state mid-stream. [`CounterRng`] replaces those draws with a *stateless*
//! generator keyed on `(seed, point ordinal)`: the draw for the *n*-th
//! offered point is a pure function of `n`, so
//!
//! * reservoir state is trivially durable — the sample plus the ordinal
//!   counter *is* the whole state, and
//! * a restored detector continues the exact accept/replace sequence an
//!   uninterrupted one would have produced.
//!
//! The per-ordinal distribution is unchanged from Algorithm R: candidate
//! `n` replaces a reservoir slot with probability `cap/n`, each slot
//! equally likely (pinned by the distribution tests below).

use spot_types::{DataPoint, DurableState, PersistError, StateReader, StateWriter};

/// Stateless counter-based generator: `draw(ordinal)` is a pure function
/// of `(seed, ordinal)` with SplitMix64-quality mixing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    seed: u64,
}

impl CounterRng {
    /// Generator for the given stream seed.
    pub fn new(seed: u64) -> Self {
        CounterRng { seed }
    }

    /// The seed this generator is keyed on.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// 64 mixed bits for `ordinal` (SplitMix64: a Weyl step keyed by the
    /// seed followed by the finalizer, the same construction the `StdRng`
    /// seeder uses).
    #[inline]
    pub fn draw(&self, ordinal: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..bound` for `ordinal` (`bound` > 0).
    /// Multiply-shift bounded sampling (Lemire), bias < 2⁻⁶⁴ per draw —
    /// the same mapping the sequential RNG's `gen_range` used.
    #[inline]
    pub fn index(&self, ordinal: u64, bound: u64) -> u64 {
        debug_assert!(bound > 0, "cannot sample an empty range");
        ((self.draw(ordinal) as u128 * bound as u128) >> 64) as u64
    }
}

/// Algorithm-R reservoir over `(tick, point)` pairs with counter-based
/// draws: the accept/replace decision for the *n*-th offer depends only on
/// `(seed, n)`, never on earlier decisions.
#[derive(Debug, Clone)]
pub struct Reservoir {
    rng: CounterRng,
    items: Vec<(u64, DataPoint)>,
    /// Offers so far (the ordinal of the next offer is `seen + 1`).
    seen: u64,
}

impl Reservoir {
    /// Empty reservoir keyed on `seed`.
    pub fn new(seed: u64) -> Self {
        Reservoir {
            rng: CounterRng::new(seed),
            items: Vec::new(),
            seen: 0,
        }
    }

    /// Offers one point at tick `now` against capacity `cap`. The point is
    /// cloned only when actually kept (fill or replacement).
    pub fn offer(&mut self, cap: usize, now: u64, p: &DataPoint) {
        self.seen += 1;
        if self.items.len() < cap {
            self.items.push((now, p.clone()));
        } else {
            let j = self.rng.index(self.seen, self.seen);
            if (j as usize) < cap {
                self.items[j as usize] = (now, p.clone());
            }
        }
    }

    /// The sampled `(tick, point)` pairs, in slot order.
    pub fn items(&self) -> &[(u64, DataPoint)] {
        &self.items
    }

    /// Number of points currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total points offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl DurableState for Reservoir {
    fn capture(&self, w: &mut StateWriter) {
        w.u64("seed", self.rng.seed);
        w.u64("seen", self.seen);
        w.point_list("items", &self.items);
    }

    fn restore(&mut self, r: &StateReader<'_>) -> Result<(), PersistError> {
        let seed = r.u64("seed")?;
        let seen = r.u64("seen")?;
        // Dimensionality is validated by the owner (the detector checks
        // the restored points against ϕ) — the reservoir itself is
        // dimension-agnostic.
        let items = r.point_list("items", None)?;
        self.rng = CounterRng::new(seed);
        self.seen = seen;
        self.items = items;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> DataPoint {
        DataPoint::new(vec![v, v + 1.0])
    }

    #[test]
    fn draws_are_deterministic_and_seed_dependent() {
        let a = CounterRng::new(7);
        let b = CounterRng::new(7);
        let c = CounterRng::new(8);
        for n in 0..100 {
            assert_eq!(a.draw(n), b.draw(n));
        }
        assert!((0..100).any(|n| a.draw(n) != c.draw(n)));
    }

    #[test]
    fn index_respects_bound() {
        let rng = CounterRng::new(3);
        for n in 1..5000u64 {
            assert!(rng.index(n, n) < n);
            assert_eq!(rng.index(n, 1), 0);
        }
    }

    #[test]
    fn index_distribution_is_uniform() {
        // Distribution-level pin: over many ordinals the bounded draw must
        // fill every bin evenly (each bin expects 10_000 hits; a fair
        // generator deviates by a few hundred, a broken mapping by
        // thousands).
        let rng = CounterRng::new(42);
        let bins = 16u64;
        let per_bin = 10_000u64;
        let mut counts = [0u64; 16];
        for n in 0..bins * per_bin {
            counts[rng.index(n, bins) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - per_bin as i64).unsigned_abs() < per_bin / 20,
                "bin {i}: {c} hits vs expected {per_bin}"
            );
        }
    }

    #[test]
    fn reservoir_inclusion_matches_algorithm_r() {
        // Distribution-level pin for the sampler itself: with cap = 64 and
        // 4096 offers, every stream position must land in the final sample
        // with probability cap/N ≈ 1.56%. Aggregated over 64 seeds and
        // position quarters, each quarter expects 64·64/4 = 1024 hits.
        let cap = 64usize;
        let n = 4096u64;
        let mut quarter_hits = [0u64; 4];
        for seed in 0..64u64 {
            let mut res = Reservoir::new(seed);
            for i in 0..n {
                res.offer(cap, i, &p(i as f64));
            }
            assert_eq!(res.len(), cap);
            for (_, point) in res.items() {
                let pos = point.value(0) as u64;
                quarter_hits[(pos * 4 / n) as usize] += 1;
            }
        }
        let expected = 64 * cap as u64 / 4;
        for (q, &hits) in quarter_hits.iter().enumerate() {
            assert!(
                (hits as i64 - expected as i64).unsigned_abs() < expected / 5,
                "quarter {q}: {hits} hits vs expected {expected}"
            );
        }
    }

    #[test]
    fn draws_do_not_depend_on_acceptance_history() {
        // The counter property: two reservoirs fed the same ordinals make
        // identical decisions even if their *contents* diverged earlier
        // (here: different capacities during a warm-up prefix).
        let mut a = Reservoir::new(9);
        let mut b = Reservoir::new(9);
        for i in 0..50 {
            a.offer(4, i, &p(i as f64));
            b.offer(8, i, &p(i as f64));
        }
        // From here on both run at cap 4 over the same ordinals; their
        // replacement indices must coincide draw for draw.
        for i in 50..500 {
            let before_a: Vec<u64> = a.items().iter().map(|(t, _)| *t).collect();
            let before_b: Vec<u64> = b.items().iter().map(|(t, _)| *t).collect();
            a.offer(4, i, &p(i as f64));
            b.offer(4, i, &p(i as f64));
            let changed_a = a.items()[..4]
                .iter()
                .map(|(t, _)| *t)
                .zip(&before_a)
                .position(|(now, then)| now != *then);
            let changed_b = b.items()[..4]
                .iter()
                .map(|(t, _)| *t)
                .zip(&before_b)
                .position(|(now, then)| now != *then);
            assert_eq!(changed_a, changed_b, "offer {i}");
        }
    }

    #[test]
    fn durable_roundtrip_continues_identically() {
        let cap = 8usize;
        let mut live = Reservoir::new(21);
        for i in 0..300 {
            live.offer(cap, i, &p(i as f64));
        }
        let mut w = StateWriter::new();
        live.capture(&mut w);
        let snapshot = w.finish();
        let mut restored = Reservoir::new(0);
        restored
            .restore(&StateReader::new(&snapshot).unwrap())
            .unwrap();
        assert_eq!(restored.seen(), live.seen());
        assert_eq!(restored.items(), live.items());
        for i in 300..600 {
            live.offer(cap, i, &p(i as f64));
            restored.offer(cap, i, &p(i as f64));
        }
        assert_eq!(restored.items(), live.items());
    }

    #[test]
    fn corrupt_columns_rejected() {
        let mut w = StateWriter::new();
        w.u64("seed", 1);
        w.u64("seen", 2);
        w.nested("items", |w| {
            w.u64("dims", 3);
            w.u64_col("ticks", [1u64, 2]);
            w.f64_bits_col("values", [0.5]); // 2 ticks × 3 dims ≠ 1 value
        });
        let v = w.finish();
        let mut res = Reservoir::new(0);
        assert!(res.restore(&StateReader::new(&v).unwrap()).is_err());
    }
}
