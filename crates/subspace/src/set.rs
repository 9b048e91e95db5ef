//! Deduplicated subspace collections.
//!
//! [`SubspaceSet`] is an insertion-ordered set used for FS. The SST's CS and
//! OS components additionally carry a score per subspace and a capacity
//! (weakest-score eviction) — that is [`RankedSubspaces`].

use crate::subspace::Subspace;
use spot_types::{DurableState, FxHashSet, PersistError, StateReader, StateWriter};

/// Insertion-ordered set of distinct subspaces.
#[derive(Debug, Clone, Default)]
pub struct SubspaceSet {
    order: Vec<Subspace>,
    seen: FxHashSet<u64>,
}

impl SubspaceSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from an iterator, dropping duplicates.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = Subspace>>(iter: I) -> Self {
        let mut set = Self::new();
        for s in iter {
            set.insert(s);
        }
        set
    }

    /// Inserts a subspace; returns `false` if it was already present.
    pub fn insert(&mut self, s: Subspace) -> bool {
        if self.seen.insert(s.mask()) {
            self.order.push(s);
            true
        } else {
            false
        }
    }

    /// `true` when the subspace is present.
    pub fn contains(&self, s: &Subspace) -> bool {
        self.seen.contains(&s.mask())
    }

    /// Number of subspaces.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Subspace> {
        self.order.iter()
    }

    /// Subspaces as a slice, in insertion order.
    pub fn as_slice(&self) -> &[Subspace] {
        &self.order
    }

    /// Rebuilds the dedup index from the insertion order (after a
    /// restore).
    pub fn rebuild_index(&mut self) {
        self.seen = self.order.iter().map(|s| s.mask()).collect();
    }
}

/// A subspace with the score that ranked it into CS/OS. Smaller scores are
/// better (scores are sparsity objectives, minimized).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredSubspace {
    /// The subspace.
    pub subspace: Subspace,
    /// Ranking score; smaller = sparser = better.
    pub score: f64,
}

/// Capacity-bounded, score-ranked subspace set.
///
/// Keeps at most `capacity` subspaces; inserting into a full set evicts the
/// worst (largest) score if the newcomer beats it. Duplicate insertions keep
/// the better score.
#[derive(Debug, Clone)]
pub struct RankedSubspaces {
    capacity: usize,
    entries: Vec<ScoredSubspace>,
}

impl RankedSubspaces {
    /// Empty ranked set with the given capacity (≥ 1).
    pub fn new(capacity: usize) -> Self {
        RankedSubspaces {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// Capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of subspaces currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts (or improves) a subspace with the given score. Returns `true`
    /// when the set changed.
    pub fn insert(&mut self, subspace: Subspace, score: f64) -> bool {
        if let Some(existing) = self.entries.iter_mut().find(|e| e.subspace == subspace) {
            if score < existing.score {
                existing.score = score;
                self.sort();
                return true;
            }
            return false;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(ScoredSubspace { subspace, score });
            self.sort();
            return true;
        }
        let worst = self.entries.last().expect("capacity >= 1 and set full");
        if score < worst.score {
            *self.entries.last_mut().expect("non-empty") = ScoredSubspace { subspace, score };
            self.sort();
            return true;
        }
        false
    }

    /// Replaces the whole content with the top-`capacity` of the supplied
    /// entries (used by CS self-evolution's re-ranking step).
    pub fn rerank<I: IntoIterator<Item = ScoredSubspace>>(&mut self, entries: I) {
        let mut all: Vec<ScoredSubspace> = Vec::new();
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for e in entries {
            if seen.insert(e.subspace.mask()) {
                all.push(e);
            } else if let Some(prev) = all.iter_mut().find(|p| p.subspace == e.subspace) {
                if e.score < prev.score {
                    prev.score = e.score;
                }
            }
        }
        all.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("scores are not NaN"));
        all.truncate(self.capacity);
        self.entries = all;
    }

    /// Iterates best-score first.
    pub fn iter(&self) -> impl Iterator<Item = &ScoredSubspace> {
        self.entries.iter()
    }

    /// Subspaces only, best first.
    pub fn subspaces(&self) -> impl Iterator<Item = Subspace> + '_ {
        self.entries.iter().map(|e| e.subspace)
    }

    /// `true` when the subspace is present.
    pub fn contains(&self, s: &Subspace) -> bool {
        self.entries.iter().any(|e| e.subspace == *s)
    }

    fn sort(&mut self) {
        self.entries
            .sort_by(|a, b| a.score.partial_cmp(&b.score).expect("scores are not NaN"));
    }
}

/// Subspaces stored by mask; a zero mask is not a subspace.
fn masks_of(r: &StateReader<'_>) -> Result<Vec<Subspace>, PersistError> {
    r.u64_col("masks")?
        .into_iter()
        .map(|m| Subspace::from_mask(m).map_err(|e| PersistError::custom(e.to_string())))
        .collect()
}

impl DurableState for SubspaceSet {
    fn capture(&self, w: &mut StateWriter) {
        w.u64_col("masks", self.order.iter().map(Subspace::mask));
    }

    fn restore(&mut self, r: &StateReader<'_>) -> Result<(), PersistError> {
        self.order = masks_of(r)?;
        self.rebuild_index();
        Ok(())
    }
}

impl DurableState for RankedSubspaces {
    fn capture(&self, w: &mut StateWriter) {
        w.u64("capacity", self.capacity as u64);
        w.u64_col("masks", self.entries.iter().map(|e| e.subspace.mask()));
        w.f64_bits_col("scores", self.entries.iter().map(|e| e.score));
    }

    fn restore(&mut self, r: &StateReader<'_>) -> Result<(), PersistError> {
        let (masks, scores) = (masks_of(r)?, r.f64_bits_col("scores")?);
        // Ranking sorts by score and cannot order a NaN.
        if masks.len() != scores.len() || scores.iter().any(|s| s.is_nan()) {
            return Err(PersistError::custom(format!(
                "{} masks do not match {} scores, or a score is NaN",
                masks.len(),
                scores.len()
            )));
        }
        self.capacity = r.usize("capacity")?.max(1);
        self.entries = masks
            .into_iter()
            .zip(scores)
            .map(|(subspace, score)| ScoredSubspace { subspace, score })
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dims: &[usize]) -> Subspace {
        Subspace::from_dims(dims.iter().copied()).unwrap()
    }

    #[test]
    fn subspace_set_dedups_preserving_order() {
        let mut set = SubspaceSet::new();
        assert!(set.insert(s(&[0])));
        assert!(set.insert(s(&[1])));
        assert!(!set.insert(s(&[0])));
        assert_eq!(set.len(), 2);
        assert_eq!(set.as_slice(), &[s(&[0]), s(&[1])]);
        assert!(set.contains(&s(&[1])));
        assert!(!set.contains(&s(&[2])));
    }

    #[test]
    fn subspace_set_from_iter() {
        let set = SubspaceSet::from_iter([s(&[0]), s(&[0]), s(&[1])]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn rebuild_index_after_manual_state() {
        let mut set = SubspaceSet::from_iter([s(&[0]), s(&[1])]);
        set.seen.clear(); // simulate post-deserialization state
        set.rebuild_index();
        assert!(set.contains(&s(&[1])));
    }

    #[test]
    fn ranked_keeps_best_under_capacity_pressure() {
        let mut r = RankedSubspaces::new(2);
        assert!(r.insert(s(&[0]), 0.5));
        assert!(r.insert(s(&[1]), 0.2));
        assert!(r.insert(s(&[2]), 0.1)); // evicts [0]
        assert_eq!(r.len(), 2);
        let masks: Vec<_> = r.subspaces().collect();
        assert_eq!(masks, vec![s(&[2]), s(&[1])]);
        // Worse than current worst: rejected.
        assert!(!r.insert(s(&[3]), 0.9));
    }

    #[test]
    fn ranked_improves_duplicate_score() {
        let mut r = RankedSubspaces::new(4);
        r.insert(s(&[0]), 0.5);
        assert!(r.insert(s(&[0]), 0.3));
        assert!(!r.insert(s(&[0]), 0.4));
        assert_eq!(r.len(), 1);
        assert!((r.iter().next().unwrap().score - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rerank_replaces_content() {
        let mut r = RankedSubspaces::new(2);
        r.insert(s(&[0]), 0.5);
        r.rerank(vec![
            ScoredSubspace {
                subspace: s(&[1]),
                score: 0.3,
            },
            ScoredSubspace {
                subspace: s(&[2]),
                score: 0.1,
            },
            ScoredSubspace {
                subspace: s(&[3]),
                score: 0.2,
            },
            ScoredSubspace {
                subspace: s(&[2]),
                score: 0.4,
            }, // duplicate, worse
        ]);
        let got: Vec<_> = r.subspaces().collect();
        assert_eq!(got, vec![s(&[2]), s(&[3])]);
    }

    #[test]
    fn capacity_minimum_is_one() {
        let mut r = RankedSubspaces::new(0);
        assert_eq!(r.capacity(), 1);
        r.insert(s(&[0]), 1.0);
        r.insert(s(&[1]), 0.5);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&s(&[1])));
    }
}
