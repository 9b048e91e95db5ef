//! The Sparse Subspace Template.
//!
//! SST is the set of subspaces SPOT actually monitors — a tractable slice
//! of the exponential lattice assembled from three mutually supplementing
//! subsets (paper, Section II-C):
//!
//! * **FS** — every subspace with dimensionality ≤ MaxDimension (exact
//!   enumeration; immutable).
//! * **CS** — subspaces learned from the clustering-driven outlier
//!   candidates of the training data; evolves online.
//! * **OS** — subspaces of expert-provided outlier exemplars and of
//!   outliers detected during streaming; grows online.

use spot_subspace::{enumerate_up_to_dim, RankedSubspaces, ScoredSubspace, Subspace, SubspaceSet};
use spot_types::{DurableState, FxHashSet, PersistError, Result, StateReader, StateWriter};

/// The Sparse Subspace Template.
#[derive(Debug, Clone)]
pub struct Sst {
    fs: SubspaceSet,
    cs: RankedSubspaces,
    os: RankedSubspaces,
}

impl Sst {
    /// Builds the template: FS is enumerated immediately, CS/OS start empty
    /// with the given capacities.
    pub fn new(
        phi: usize,
        fs_max_dimension: usize,
        cs_capacity: usize,
        os_capacity: usize,
    ) -> Result<Self> {
        let fs = SubspaceSet::from_iter(enumerate_up_to_dim(phi, fs_max_dimension)?);
        Ok(Sst {
            fs,
            cs: RankedSubspaces::new(cs_capacity),
            os: RankedSubspaces::new(os_capacity),
        })
    }

    /// Fixed subspaces.
    pub fn fs(&self) -> &[Subspace] {
        self.fs.as_slice()
    }

    /// Clustering-based subspaces (best score first).
    pub fn cs(&self) -> impl Iterator<Item = &ScoredSubspace> {
        self.cs.iter()
    }

    /// Outlier-driven subspaces (best score first).
    pub fn os(&self) -> impl Iterator<Item = &ScoredSubspace> {
        self.os.iter()
    }

    /// Component sizes `(|FS|, |CS|, |OS|)`.
    pub fn sizes(&self) -> (usize, usize, usize) {
        (self.fs.len(), self.cs.len(), self.os.len())
    }

    /// Total *distinct* subspaces across the three components.
    pub fn len(&self) -> usize {
        self.iter_all().count()
    }

    /// `true` when even FS is empty (never the case after `new`).
    pub fn is_empty(&self) -> bool {
        self.fs.is_empty() && self.cs.is_empty() && self.os.is_empty()
    }

    /// Iterates every distinct subspace: FS order first, then CS, then OS,
    /// skipping duplicates.
    pub fn iter_all(&self) -> impl Iterator<Item = Subspace> + '_ {
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        self.fs
            .iter()
            .copied()
            .chain(self.cs.subspaces())
            .chain(self.os.subspaces())
            .filter(move |s| seen.insert(s.mask()))
    }

    /// Inserts an outlier-driven subspace into OS. Returns `true` when OS
    /// changed.
    pub fn add_os(&mut self, s: Subspace, score: f64) -> bool {
        self.os.insert(s, score)
    }

    /// Replaces CS with the top of `candidates` (self-evolution's re-rank:
    /// old members and newly generated subspaces compete on equal footing).
    pub fn evolve_cs(&mut self, candidates: Vec<ScoredSubspace>) {
        self.cs.rerank(candidates);
    }

    /// Current CS members with scores (for generating evolution candidates).
    pub fn cs_entries(&self) -> Vec<ScoredSubspace> {
        self.cs.iter().copied().collect()
    }

    /// Empties CS (ablation studies).
    pub fn clear_cs(&mut self) {
        self.cs.rerank(Vec::new());
    }

    /// Empties OS (ablation studies).
    pub fn clear_os(&mut self) {
        let capacity = self.os.capacity();
        self.os = RankedSubspaces::new(capacity);
    }
}

impl DurableState for Sst {
    fn capture(&self, w: &mut StateWriter) {
        w.component("fs", &self.fs);
        w.component("cs", &self.cs);
        w.component("os", &self.os);
    }

    fn restore(&mut self, r: &StateReader<'_>) -> std::result::Result<(), PersistError> {
        r.restore_component("fs", &mut self.fs)?;
        r.restore_component("cs", &mut self.cs)?;
        r.restore_component("os", &mut self.os)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dims: &[usize]) -> Subspace {
        Subspace::from_dims(dims.iter().copied()).unwrap()
    }

    fn scored(dims: &[usize], score: f64) -> ScoredSubspace {
        ScoredSubspace {
            subspace: s(dims),
            score,
        }
    }

    #[test]
    fn fs_enumerated_on_construction() {
        let sst = Sst::new(5, 2, 4, 4).unwrap();
        let (fs, cs, os) = sst.sizes();
        assert_eq!(fs, 5 + 10);
        assert_eq!(cs, 0);
        assert_eq!(os, 0);
        assert_eq!(sst.len(), 15);
        assert!(!sst.is_empty());
    }

    #[test]
    fn iter_all_deduplicates_across_components() {
        let mut sst = Sst::new(4, 1, 4, 4).unwrap();
        // [0] is already in FS; [0,1] is new.
        sst.evolve_cs(vec![scored(&[0], 0.5), scored(&[0, 1], 0.3)]);
        sst.add_os(s(&[0, 1]), 0.2); // duplicate of CS entry
        sst.add_os(s(&[2, 3]), 0.1);
        let all: Vec<Subspace> = sst.iter_all().collect();
        assert_eq!(all.len(), 4 + 2); // 4 FS singletons + [0,1] + [2,3]
        let distinct: FxHashSet<u64> = all.iter().map(|x| x.mask()).collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn evolve_cs_reranks() {
        let mut sst = Sst::new(4, 1, 2, 2).unwrap();
        sst.evolve_cs(vec![scored(&[0, 1], 0.9)]);
        sst.evolve_cs(vec![
            scored(&[0, 1], 0.9),
            scored(&[2, 3], 0.1),
            scored(&[1, 2], 0.5),
        ]);
        let cs: Vec<Subspace> = sst.cs().map(|e| e.subspace).collect();
        assert_eq!(cs, vec![s(&[2, 3]), s(&[1, 2])]); // capacity 2, best two
    }

    #[test]
    fn capacity_pressure_on_os() {
        let mut sst = Sst::new(4, 1, 2, 2).unwrap();
        assert!(sst.add_os(s(&[0, 1]), 0.5));
        assert!(sst.add_os(s(&[1, 2]), 0.4));
        assert!(sst.add_os(s(&[2, 3]), 0.1)); // evicts 0.5
        assert!(!sst.add_os(s(&[0, 3]), 0.9)); // too weak
        assert_eq!(sst.sizes().2, 2);
    }
}
