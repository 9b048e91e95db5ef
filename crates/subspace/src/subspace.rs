//! The bitmask subspace type.

use spot_types::{Result, SpotError};
use std::fmt;

/// Maximum dimensionality representable by the bitmask encoding.
pub const MAX_DIMS: usize = 64;

/// A non-empty subset of attributes, encoded as a `u64` bitmask.
///
/// The encoding caps SPOT at 64 attributes, comfortably above the "dozens
/// of, even hundreds of" attributes regime the paper motivates for its
/// evaluation (the experiments there use up to a few dozen). Bit `i`
/// corresponds to attribute `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Subspace(u64);

impl Subspace {
    /// Creates a subspace from a raw bitmask. Fails on the empty mask: a
    /// projected cell needs at least one attribute.
    pub fn from_mask(mask: u64) -> Result<Self> {
        if mask == 0 {
            return Err(SpotError::InvalidConfig(
                "subspace mask must be non-empty".into(),
            ));
        }
        Ok(Subspace(mask))
    }

    /// Creates a subspace from a list of attribute indices.
    pub fn from_dims<I: IntoIterator<Item = usize>>(dims: I) -> Result<Self> {
        let mut mask = 0u64;
        for d in dims {
            if d >= MAX_DIMS {
                return Err(SpotError::TooManyDimensions(d + 1));
            }
            mask |= 1u64 << d;
        }
        Subspace::from_mask(mask)
    }

    /// The single-attribute subspace `{dim}`.
    pub fn single(dim: usize) -> Result<Self> {
        Subspace::from_dims([dim])
    }

    /// The full space over `phi` attributes.
    pub fn full(phi: usize) -> Result<Self> {
        if phi == 0 || phi > MAX_DIMS {
            return Err(SpotError::TooManyDimensions(phi));
        }
        let mask = if phi == MAX_DIMS {
            u64::MAX
        } else {
            (1u64 << phi) - 1
        };
        Ok(Subspace(mask))
    }

    /// Raw bitmask.
    #[inline]
    pub fn mask(&self) -> u64 {
        self.0
    }

    /// Number of participating attributes (the subspace's dimensionality).
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` when attribute `dim` participates.
    #[inline]
    pub fn contains_dim(&self, dim: usize) -> bool {
        dim < MAX_DIMS && (self.0 >> dim) & 1 == 1
    }

    /// Iterator over the participating attribute indices, ascending.
    #[inline]
    pub fn dims(&self) -> DimIter {
        DimIter(self.0)
    }

    /// `true` when `self ⊆ other`.
    pub fn is_subset_of(&self, other: &Subspace) -> bool {
        self.0 & other.0 == self.0
    }

    /// Union of the attribute sets (always non-empty).
    pub fn union(&self, other: &Subspace) -> Subspace {
        Subspace(self.0 | other.0)
    }

    /// Intersection; `None` when the subspaces are disjoint.
    pub fn intersection(&self, other: &Subspace) -> Option<Subspace> {
        let m = self.0 & other.0;
        (m != 0).then_some(Subspace(m))
    }

    /// `true` when every participating attribute is below `phi` — i.e. the
    /// subspace is valid for a ϕ-dimensional stream.
    pub fn fits(&self, phi: usize) -> bool {
        if phi >= MAX_DIMS {
            return true;
        }
        self.0 >> phi == 0
    }

    /// Jaccard similarity of the attribute sets of two subspaces.
    pub fn jaccard(&self, other: &Subspace) -> f64 {
        let inter = (self.0 & other.0).count_ones() as f64;
        let union = (self.0 | other.0).count_ones() as f64;
        inter / union
    }
}

impl fmt::Display for Subspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Iterator over the set bits of a subspace mask, ascending.
#[derive(Debug, Clone)]
pub struct DimIter(u64);

impl Iterator for DimIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let d = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1; // clear lowest set bit
        Some(d)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DimIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let s = Subspace::from_dims([0, 3, 7]).unwrap();
        assert_eq!(s.cardinality(), 3);
        assert!(s.contains_dim(3));
        assert!(!s.contains_dim(1));
        assert_eq!(s.dims().collect::<Vec<_>>(), vec![0, 3, 7]);
        assert_eq!(s.to_string(), "[0,3,7]");
    }

    #[test]
    fn empty_mask_rejected() {
        assert!(Subspace::from_mask(0).is_err());
        assert!(Subspace::from_dims(std::iter::empty()).is_err());
    }

    #[test]
    fn out_of_range_dim_rejected() {
        assert!(Subspace::from_dims([64]).is_err());
        assert!(Subspace::from_dims([63]).is_ok());
    }

    #[test]
    fn full_space() {
        let s = Subspace::full(5).unwrap();
        assert_eq!(s.cardinality(), 5);
        let s64 = Subspace::full(64).unwrap();
        assert_eq!(s64.cardinality(), 64);
        assert!(Subspace::full(0).is_err());
        assert!(Subspace::full(65).is_err());
    }

    #[test]
    fn subset_union_intersection() {
        let a = Subspace::from_dims([0, 1]).unwrap();
        let b = Subspace::from_dims([0, 1, 2]).unwrap();
        let c = Subspace::from_dims([5]).unwrap();
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert_eq!(a.union(&c).dims().collect::<Vec<_>>(), vec![0, 1, 5]);
        assert_eq!(a.intersection(&b), Some(a));
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn fits_checks_phi() {
        let s = Subspace::from_dims([0, 9]).unwrap();
        assert!(s.fits(10));
        assert!(!s.fits(9));
        assert!(s.fits(64));
    }

    #[test]
    fn jaccard_values() {
        let a = Subspace::from_dims([0, 1, 2]).unwrap();
        let b = Subspace::from_dims([1, 2, 3]).unwrap();
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
        assert!((a.jaccard(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_dim() {
        let s = Subspace::single(7).unwrap();
        assert_eq!(s.mask(), 1 << 7);
    }

    proptest! {
        #[test]
        fn dims_roundtrip(mask in 1u64..) {
            let s = Subspace::from_mask(mask).unwrap();
            let rebuilt = Subspace::from_dims(s.dims()).unwrap();
            prop_assert_eq!(s, rebuilt);
            prop_assert_eq!(s.dims().count(), s.cardinality());
        }

        #[test]
        fn union_is_superset(a in 1u64.., b in 1u64..) {
            let (sa, sb) = (Subspace::from_mask(a).unwrap(), Subspace::from_mask(b).unwrap());
            let u = sa.union(&sb);
            prop_assert!(sa.is_subset_of(&u));
            prop_assert!(sb.is_subset_of(&u));
        }

        #[test]
        fn intersection_is_subset(a in 1u64.., b in 1u64..) {
            let (sa, sb) = (Subspace::from_mask(a).unwrap(), Subspace::from_mask(b).unwrap());
            if let Some(i) = sa.intersection(&sb) {
                prop_assert!(i.is_subset_of(&sa));
                prop_assert!(i.is_subset_of(&sb));
            }
        }

        #[test]
        fn display_parses_back(mask in 1u64..) {
            let s = Subspace::from_mask(mask).unwrap();
            let text = s.to_string();
            let dims: Vec<usize> = text.trim_matches(['[', ']'])
                .split(',')
                .map(|t| t.parse().unwrap())
                .collect();
            prop_assert_eq!(Subspace::from_dims(dims).unwrap(), s);
        }
    }
}
