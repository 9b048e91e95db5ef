//! Order statistics and the verdict digest.

use spot::Verdict;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `per_10k / 10 000` of the samples at or below it. Whole-number
/// arithmetic, so that p99 of 100 samples is the 99th and not, by a
/// rounding error, the 100th.
pub fn percentile(sorted: &[u64], per_10k: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), per_10k) - 1]
}

fn rank(n: usize, per_10k: u64) -> usize {
    ((n as u64 * per_10k).div_ceil(10_000) as usize).clamp(1, n)
}

pub const P50: u64 = 5_000;
pub const P99: u64 = 9_900;

/// The tail percentiles a latency sample may be summarised by, lowest first.
const TAILS: [(&str, u64); 4] = [
    ("p90", 9_000),
    ("p99", 9_900),
    ("p999", 9_990),
    ("p9999", 9_999),
];

/// The highest percentile of `TAILS` that still has at least ten samples
/// beyond it in a sample of `n`, or `None` when even p90 has fewer.
pub fn highest_supported_tail(n: usize) -> Option<(&'static str, u64)> {
    TAILS
        .iter()
        .rev()
        .find(|(_, p)| n - rank(n.max(1), *p).min(n) >= 10)
        .copied()
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency sample summarised the way the result file records it.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    pub samples: usize,
    pub min: u64,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
    /// `(label, value)` of the highest percentile with ≥10 samples beyond.
    pub tail: Option<(&'static str, u64)>,
}

/// Sorts `samples` in place and summarises them.
pub fn summarise(samples: &mut [u64]) -> LatencySummary {
    samples.sort_unstable();
    LatencySummary {
        samples: samples.len(),
        min: samples[0],
        p50: percentile(samples, P50),
        p99: percentile(samples, P99),
        max: *samples.last().expect("non-empty sample"),
        tail: highest_supported_tail(samples.len()).map(|(l, p)| (l, percentile(samples, p))),
    }
}

/// FNV-1a (64-bit) over a tenant's verdict stream in arrival order: the
/// outlier flag, the score's bit pattern and every finding's subspace mask.
/// Two runs that flag the same points for the same reasons with the same
/// scores agree; ticks and timing are left out on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictDigest(u64);

impl Default for VerdictDigest {
    fn default() -> Self {
        VerdictDigest(0xcbf2_9ce4_8422_2325)
    }
}

impl VerdictDigest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn update(&mut self, v: &Verdict) {
        self.bytes(&[u8::from(v.outlier)]);
        self.bytes(&v.score.to_bits().to_le_bytes());
        for f in &v.findings {
            self.bytes(&f.subspace.mask().to_le_bytes());
        }
    }

    pub fn update_all(&mut self, verdicts: &[Verdict]) {
        for v in verdicts {
            self.update(v);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Planted-label confusion counts; `f1` is the harmonic mean of precision
/// and recall over everything observed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    pub tp: u64,
    pub fp: u64,
    pub fn_: u64,
}

impl Confusion {
    pub fn observe(&mut self, flagged: bool, planted: bool) {
        match (flagged, planted) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => {}
        }
    }

    pub fn merge(&mut self, other: &Confusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    pub fn f1(&self) -> f64 {
        let denom = 2 * self.tp + self.fp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            2.0 * self.tp as f64 / denom as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot::subspace::Subspace;
    use spot::SubspaceFinding;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, P50), 50);
        assert_eq!(percentile(&s, P99), 99);
        assert_eq!(percentile(&s, 10_000), 100);
        assert_eq!(percentile(&s, 1), 1);
        assert_eq!(percentile(&[7], P99), 7);
        // 1000 samples: exactly ten lie beyond p99.
        let s: Vec<u64> = (1..=1000).collect();
        let p99 = percentile(&s, P99);
        assert_eq!(s.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100).unwrap().0, "p90");
        assert_eq!(highest_supported_tail(999).unwrap().0, "p90");
        assert_eq!(highest_supported_tail(1000).unwrap().0, "p99");
        assert_eq!(highest_supported_tail(9_999).unwrap().0, "p99");
        assert_eq!(highest_supported_tail(10_000).unwrap().0, "p999");
        assert_eq!(highest_supported_tail(100_000).unwrap().0, "p9999");
        assert_eq!(highest_supported_tail(5_000_000).unwrap().0, "p9999");
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let mut s: Vec<u64> = (1..=10_000).rev().collect();
        let sum = summarise(&mut s);
        assert_eq!(
            (sum.samples, sum.min, sum.p50, sum.p99, sum.max),
            (10_000, 1, 5_000, 9_900, 10_000)
        );
        assert_eq!(sum.tail, Some(("p999", 9_990)));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn verdict(outlier: bool, score: f64, masks: &[u64]) -> Verdict {
        Verdict {
            tick: 0,
            outlier,
            score,
            findings: masks
                .iter()
                .map(|&m| SubspaceFinding {
                    subspace: Subspace::from_mask(m).unwrap(),
                    rd: 0.0,
                    irsd: 0.0,
                })
                .collect(),
            drift: false,
        }
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let a = verdict(true, 0.25, &[0b11, 0b101]);
        let b = verdict(false, 1.0, &[]);
        let mut d = VerdictDigest::default();
        d.update_all(&[a.clone(), b.clone()]);
        // Pinned: a change to the digest definition must be deliberate,
        // because result files of different commits are compared by it.
        assert_eq!(d.hex(), "ccafb168026fca88");

        let mut again = VerdictDigest::default();
        again.update(&a);
        again.update(&b);
        assert_eq!(d, again);

        let mut swapped = VerdictDigest::default();
        swapped.update_all(&[b.clone(), a.clone()]);
        assert_ne!(d, swapped);

        // Ticks are not part of the digest; score bits and masks are.
        let mut later = a.clone();
        later.tick = 99;
        let (mut x, mut y) = (VerdictDigest::default(), VerdictDigest::default());
        x.update(&a);
        y.update(&later);
        assert_eq!(x, y);
        let mut z = VerdictDigest::default();
        z.update(&verdict(true, 0.25, &[0b11, 0b110]));
        assert_ne!(x, z);
        let mut w = VerdictDigest::default();
        w.update(&verdict(true, -0.25, &[0b11, 0b101]));
        assert_ne!(x, w);
    }

    #[test]
    fn f1_from_confusion_counts() {
        let mut c = Confusion::default();
        for (flagged, planted) in [(true, true), (true, false), (false, true), (false, false)] {
            c.observe(flagged, planted);
        }
        assert_eq!((c.tp, c.fp, c.fn_), (1, 1, 1));
        assert!((c.f1() - 0.5).abs() < 1e-12);
        assert_eq!(Confusion::default().f1(), 0.0);
    }
}
