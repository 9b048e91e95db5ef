//! Small numeric helpers: slice mean and variance, and the binomial
//! coefficient that sizes the subspace lattice.

/// Mean of a slice; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance of a slice; 0 when fewer than two values.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

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
    fn mean_and_variance_on_known_values() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        assert!((mean(&xs) - 4.0).abs() < 1e-12);
        assert!((variance(&xs) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
        assert_eq!(binomial(4, 5), 0);
    }

    #[test]
    fn variance_edge_cases() {
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
    }
}
