//! Small numeric helpers shared by the substrates.

/// Online mean/variance accumulator (Welford's algorithm).
///
/// Used wherever a running estimate is needed without storing samples —
/// e.g. the concept-drift detector's baseline statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Merges another accumulator (Chan et al. parallel formula).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
    }
}

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

/// Linear interpolation `a + t (b − a)`.
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + t * (b - a)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an unsorted slice, by sorting a copy and
/// linearly interpolating between order statistics. Returns 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in quantile input"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        lerp(v[lo], v[hi], pos - lo as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(rs.count(), 5);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [7.0, 8.0, 9.0, 10.0];
        let mut a = RunningStats::new();
        xs.iter().for_each(|&x| a.push(x));
        let mut b = RunningStats::new();
        ys.iter().for_each(|&y| b.push(y));
        let mut all = RunningStats::new();
        xs.iter().chain(ys.iter()).for_each(|&x| all.push(x));
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut empty = RunningStats::new();
        let mut a = RunningStats::new();
        a.push(5.0);
        empty.merge(&a);
        assert_eq!(empty.count(), 1);
        let mut b = a.clone();
        b.merge(&RunningStats::new());
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
        assert_eq!(binomial(4, 5), 0);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn variance_edge_cases() {
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
    }
}
