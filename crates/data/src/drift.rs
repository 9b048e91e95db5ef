//! Concept-drift wrappers.
//!
//! SPOT claims to "cope with dynamics of data streams and respond to the
//! possible concept drift". These wrappers manufacture that dynamics: the
//! generating distribution changes over the stream either gradually (cluster
//! centers glide to new positions) or abruptly (the generator is swapped at
//! a change point).

use crate::synthetic::{SyntheticConfig, SyntheticGenerator};
use spot_types::{LabeledRecord, Result};

/// How the distribution changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Linear interpolation of every record between the two generating
    /// distributions over `0..duration` records after `start`.
    Gradual {
        /// Record index at which the transition begins.
        start: u64,
        /// Number of records over which the mixture shifts from old to new.
        duration: u64,
    },
    /// Hard switch at the change point.
    Abrupt {
        /// Record index of the switch.
        at: u64,
    },
}

/// Streams from generator A, then drifts to generator B.
///
/// For gradual drift each record is drawn from A or B with a probability
/// that ramps linearly — the standard "probabilistic gradual drift" model
/// of the stream-mining literature, which keeps both generators' internal
/// RNGs deterministic.
#[derive(Debug, Clone)]
pub struct DriftingGenerator {
    before: SyntheticGenerator,
    after: SyntheticGenerator,
    kind: DriftKind,
    emitted: u64,
    /// Cheap deterministic coin for the gradual mixture.
    coin_state: u64,
}

impl DriftingGenerator {
    /// Builds the wrapper from two synthetic configurations.
    pub fn new(before: SyntheticConfig, after: SyntheticConfig, kind: DriftKind) -> Result<Self> {
        Ok(DriftingGenerator {
            before: SyntheticGenerator::new(before)?,
            after: SyntheticGenerator::new(after)?,
            kind,
            emitted: 0,
            coin_state: 0x9E3779B97F4A7C15,
        })
    }

    /// Builds the common experiment setup: same config, different seed for
    /// the post-drift phase (new cluster layout, same global statistics).
    pub fn reseeded(config: SyntheticConfig, post_seed: u64, kind: DriftKind) -> Result<Self> {
        let mut after = config.clone();
        after.seed = post_seed;
        Self::new(config, after, kind)
    }

    /// Access to the pre-drift generator (e.g. for training batches).
    pub fn before_mut(&mut self) -> &mut SyntheticGenerator {
        &mut self.before
    }

    /// Fraction of records currently drawn from the *new* distribution
    /// (0 before the drift, 1 after it completes).
    pub fn new_fraction(&self) -> f64 {
        match self.kind {
            DriftKind::Abrupt { at } => {
                if self.emitted >= at {
                    1.0
                } else {
                    0.0
                }
            }
            DriftKind::Gradual { start, duration } => {
                if self.emitted < start {
                    0.0
                } else if duration == 0 || self.emitted >= start + duration {
                    1.0
                } else {
                    (self.emitted - start) as f64 / duration as f64
                }
            }
        }
    }

    /// Draws `n` records.
    pub fn generate(&mut self, n: usize) -> Vec<LabeledRecord> {
        (0..n).map(|_| self.next_record()).collect()
    }

    fn next_record(&mut self) -> LabeledRecord {
        let p_new = self.new_fraction();
        let use_new = p_new >= 1.0 || (p_new > 0.0 && self.coin() < p_new);
        self.emitted += 1;
        let mut rec = if use_new {
            self.after.next().expect("synthetic generator is unbounded")
        } else {
            self.before
                .next()
                .expect("synthetic generator is unbounded")
        };
        rec.seq = self.emitted - 1;
        rec
    }

    /// SplitMix64-style deterministic coin in [0,1).
    fn coin(&mut self) -> f64 {
        self.coin_state = self.coin_state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.coin_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Iterator for DriftingGenerator {
    type Item = LabeledRecord;

    fn next(&mut self) -> Option<LabeledRecord> {
        Some(self.next_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            seed,
            dims: 8,
            ..Default::default()
        }
    }

    #[test]
    fn abrupt_switch_changes_distribution() {
        let mut g =
            DriftingGenerator::reseeded(cfg(1), 999, DriftKind::Abrupt { at: 100 }).unwrap();
        let recs = g.generate(200);
        // Reference runs of the two phases.
        let mut before = SyntheticGenerator::new(cfg(1)).unwrap();
        let before_recs: Vec<_> = before.generate(100);
        assert_eq!(
            recs[..100]
                .iter()
                .map(|r| r.point.clone())
                .collect::<Vec<_>>(),
            before_recs
                .iter()
                .map(|r| r.point.clone())
                .collect::<Vec<_>>()
        );
        // Post-switch records differ from a continued pre-drift stream.
        let continued: Vec<_> = before.generate(100);
        assert_ne!(
            recs[100..]
                .iter()
                .map(|r| r.point.clone())
                .collect::<Vec<_>>(),
            continued
                .iter()
                .map(|r| r.point.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn gradual_fraction_ramps() {
        let mut g = DriftingGenerator::reseeded(
            cfg(2),
            7,
            DriftKind::Gradual {
                start: 100,
                duration: 100,
            },
        )
        .unwrap();
        assert_eq!(g.new_fraction(), 0.0);
        g.generate(100);
        assert_eq!(g.new_fraction(), 0.0);
        g.generate(50);
        assert!((g.new_fraction() - 0.5).abs() < 1e-12);
        g.generate(60);
        assert_eq!(g.new_fraction(), 1.0);
    }

    #[test]
    fn zero_duration_gradual_is_abrupt() {
        let mut g = DriftingGenerator::reseeded(
            cfg(3),
            8,
            DriftKind::Gradual {
                start: 10,
                duration: 0,
            },
        )
        .unwrap();
        g.generate(10);
        assert_eq!(g.new_fraction(), 1.0);
    }

    #[test]
    fn sequence_numbers_are_contiguous() {
        let g = DriftingGenerator::reseeded(cfg(4), 9, DriftKind::Abrupt { at: 5 }).unwrap();
        let recs: Vec<_> = g.take(20).collect();
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn deterministic_for_fixed_seeds() {
        let make = || {
            DriftingGenerator::reseeded(
                cfg(5),
                11,
                DriftKind::Gradual {
                    start: 5,
                    duration: 10,
                },
            )
            .unwrap()
            .generate(50)
        };
        assert_eq!(make(), make());
    }
}
