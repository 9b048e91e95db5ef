//! The binomial coefficient that sizes the subspace lattice.

/// Binomial coefficient C(n, k) computed in u128 to avoid overflow for the
/// subspace lattice sizes used by SPOT (n ≤ 64).
pub fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
        assert_eq!(binomial(4, 5), 0);
    }
}
