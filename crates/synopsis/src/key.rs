//! Packed cell keys.
//!
//! The seed implementation keyed every cell store with `Box<[u16]>`
//! coordinate slices: one heap allocation per key construction and a
//! variable-length byte hash per map probe — on the per-point hot path,
//! once for the base cell plus once per monitored subspace. This module
//! replaces those with [`CellKey`], a `Copy` 128-bit integer:
//!
//! * **Packed (exact) mode** — each interval index occupies
//!   `bits = ceil(log2(granularity))` bits; the key is the indices of the
//!   participating dimensions (ascending) folded together with shifts.
//!   Injective, reversible, and hashing is a couple of integer multiplies.
//!   A key is packable whenever `|dims| · bits ≤ 128` — e.g. the full-space
//!   key of a ϕ=32, m=10 grid (4 bits/dim → 128 bits), or any projected
//!   key of cardinality ≤ 128/bits (with the default m=10, up to 32
//!   dimensions — far above the SST's cardinality caps).
//! * **Fingerprint (wide) mode** — when a key would need more than 128
//!   bits (e.g. full-space cells at ϕ=64, m=10), the coordinates are folded into
//!   a 128-bit double-lane multiply-rotate fingerprint instead. The key is
//!   no longer reversible and two distinct cells could in principle
//!   collide, but with 2¹²⁸ key space the expected collision count over
//!   `n` live cells is ≈ n²/2¹²⁹ — for a billion-cell synopsis that is
//!   ~10⁻²¹, far below the probability of a memory bit flip, so the
//!   summaries behave identically to exact keys in practice. Full-space
//!   keys at high ϕ (a store over `Subspace::full(ϕ)`) are the only
//!   realistic wide case; SST subspaces stay exact.
//!
//! [`KeyCodec`] decides the mode per key width and performs the
//! packing/projection. It is constructed once per [`crate::Grid`].

use spot_subspace::Subspace;

/// A cell identifier: packed interval indices (exact mode) or a 128-bit
/// coordinate fingerprint (wide mode). See the module docs for the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(pub u128);

const LANE1_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE2_SEED: u64 = 0xC2B2_AE3D_27D4_EB4F;
const LANE1_MUL: u64 = 0x517C_C1B7_2722_0A95;
const LANE2_MUL: u64 = 0x2545_F491_4F6C_DD1D;

/// Packs coordinate slices into [`CellKey`]s for one grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyCodec {
    /// Bits per interval index: `ceil(log2(granularity))`, at least 1.
    bits: u32,
    /// Grid dimensionality ϕ.
    dims: usize,
}

impl KeyCodec {
    /// Codec for a ϕ-dimensional grid with the given granularity.
    pub fn new(dims: usize, granularity: u16) -> Self {
        let bits = u32::BITS - u32::from(granularity.max(2) - 1).leading_zeros();
        KeyCodec {
            bits: bits.max(1),
            dims,
        }
    }

    /// Bits per packed interval index.
    pub fn bits_per_dim(&self) -> u32 {
        self.bits
    }

    /// `true` when a key over `card` dimensions is exactly packed (vs
    /// fingerprinted).
    #[inline]
    pub fn is_exact(&self, card: usize) -> bool {
        card as u32 * self.bits <= 128
    }

    /// Key of the projection of base coordinates onto `subspace`
    /// (participating dimensions ascending). Pure integer shifting in
    /// exact mode; no allocation in either mode.
    #[inline]
    pub fn project_key(&self, base: &[u16], subspace: &Subspace) -> CellKey {
        if self.is_exact(subspace.cardinality()) {
            let mut key: u128 = 0;
            for d in subspace.dims() {
                key = (key << self.bits) | base[d] as u128;
            }
            CellKey(key)
        } else {
            Self::fingerprint(subspace.dims().map(|d| base[d]))
        }
    }

    /// Packs an arbitrary coordinate slice that fits exactly (test and
    /// offline-evaluator use; hot paths go through
    /// [`KeyCodec::project_key`]).
    #[inline]
    pub fn pack(&self, coords: &[u16]) -> CellKey {
        if self.is_exact(coords.len()) {
            Self::pack_all(self.bits, coords)
        } else {
            Self::fingerprint(coords.iter().copied())
        }
    }

    /// Recovers the `card` coordinates of an exactly-packed key
    /// (most-significant group = lowest participating dimension). Panics
    /// when the width is not exactly packable — fingerprints are one-way.
    pub fn unpack(&self, key: CellKey, card: usize) -> Vec<u16> {
        assert!(
            self.is_exact(card),
            "cannot unpack a fingerprinted key ({card} dims at {} bits)",
            self.bits
        );
        let mask = (1u128 << self.bits) - 1;
        (0..card)
            .map(|i| {
                let shift = (card - 1 - i) as u32 * self.bits;
                ((key.0 >> shift) & mask) as u16
            })
            .collect()
    }

    #[inline]
    fn pack_all(bits: u32, coords: &[u16]) -> CellKey {
        let mut key: u128 = 0;
        for &c in coords {
            key = (key << bits) | c as u128;
        }
        CellKey(key)
    }

    /// Double-lane multiply-rotate fold (see module docs on collisions).
    #[inline]
    fn fingerprint(coords: impl Iterator<Item = u16>) -> CellKey {
        let mut h1 = LANE1_SEED;
        let mut h2 = LANE2_SEED;
        let mut n = 0u64;
        for c in coords {
            h1 = (h1.rotate_left(5) ^ c as u64).wrapping_mul(LANE1_MUL);
            h2 = (h2.rotate_left(7) ^ c as u64).wrapping_mul(LANE2_MUL);
            n += 1;
        }
        h1 = (h1.rotate_left(5) ^ n).wrapping_mul(LANE1_MUL);
        h2 = (h2.rotate_left(7) ^ n).wrapping_mul(LANE2_MUL);
        CellKey(((h1 as u128) << 64) | h2 as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bits_per_dim_is_ceil_log2() {
        assert_eq!(KeyCodec::new(4, 2).bits_per_dim(), 1);
        assert_eq!(KeyCodec::new(4, 3).bits_per_dim(), 2);
        assert_eq!(KeyCodec::new(4, 4).bits_per_dim(), 2);
        assert_eq!(KeyCodec::new(4, 10).bits_per_dim(), 4);
        assert_eq!(KeyCodec::new(4, 255).bits_per_dim(), 8);
        assert_eq!(KeyCodec::new(4, 256).bits_per_dim(), 8);
        assert_eq!(KeyCodec::new(4, 1024).bits_per_dim(), 10);
    }

    #[test]
    fn exactness_boundary() {
        // 4 bits/dim (m=10): exact through 32 dims, fingerprinted beyond.
        let c = KeyCodec::new(33, 10);
        assert!(c.is_exact(32));
        assert!(!c.is_exact(33));
        // 10 bits/dim (m=1024): exact through 12 dims.
        let c = KeyCodec::new(13, 1024);
        assert!(c.is_exact(12));
        assert!(!c.is_exact(13));
    }

    #[test]
    fn projection_matches_packing_projected_slice() {
        let codec = KeyCodec::new(5, 10);
        let base = [3u16, 7, 9, 0, 5];
        let s = Subspace::from_dims([1, 3, 4]).unwrap();
        let direct = codec.project_key(&base, &s);
        let by_slice = codec.pack(&[7, 0, 5]);
        assert_eq!(direct, by_slice);
    }

    #[test]
    fn unpack_rejects_wide_keys() {
        let codec = KeyCodec::new(200, 1024);
        let r = std::panic::catch_unwind(|| codec.unpack(CellKey(1), 200));
        assert!(r.is_err());
    }

    #[test]
    fn fingerprint_distinguishes_permutations_and_lengths() {
        let codec = KeyCodec::new(200, 1024); // forces wide mode
        let a: Vec<u16> = (0..200).collect();
        let mut b = a.clone();
        b.swap(0, 199);
        assert_ne!(codec.pack(&a), codec.pack(&b));
        assert_ne!(codec.pack(&a[..150]), codec.pack(&a[..151]));
    }

    proptest! {
        #[test]
        fn packed_roundtrip(
            coords in proptest::collection::vec(0u16..1024, 1..12),
            gran_sel in 0usize..4,
        ) {
            let granularity = [2u16, 3, 255, 1024][gran_sel];
            let coords: Vec<u16> =
                coords.iter().map(|&c| c % granularity).collect();
            let codec = KeyCodec::new(coords.len(), granularity);
            let full = Subspace::full(coords.len()).unwrap();
            prop_assert!(codec.is_exact(coords.len()));
            let key = codec.project_key(&coords, &full);
            prop_assert_eq!(codec.unpack(key, coords.len()), coords);
        }

        #[test]
        fn packed_keys_injective(
            a in proptest::collection::vec(0u16..255, 8),
            b in proptest::collection::vec(0u16..255, 8),
        ) {
            let codec = KeyCodec::new(8, 255);
            let (ka, kb) = (codec.pack(&a), codec.pack(&b));
            prop_assert_eq!(ka == kb, a == b);
        }

        #[test]
        fn wide_fingerprints_stable_and_spread(
            coords in proptest::collection::vec(0u16..9, 40),
            flip in 0usize..40,
        ) {
            // phi=40 at m=10 needs 160 bits: the wide fallback path.
            let codec = KeyCodec::new(40, 10);
            let full = Subspace::full(40).unwrap();
            prop_assert!(!codec.is_exact(40));
            let k1 = codec.project_key(&coords, &full);
            prop_assert_eq!(k1, codec.project_key(&coords, &full));
            let mut other = coords.clone();
            other[flip] = (other[flip] + 1) % 9;
            prop_assert_ne!(codec.project_key(&other, &full), k1);
        }
    }
}
