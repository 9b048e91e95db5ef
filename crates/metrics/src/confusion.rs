//! Binary confusion matrix and derived rates.

/// Counts of a binary detection task ("anomaly" is the positive class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Anomalies flagged as anomalies.
    pub tp: u64,
    /// Normal points flagged as anomalies (false alarms).
    pub fp: u64,
    /// Normal points passed as normal.
    pub tn: u64,
    /// Anomalies missed.
    pub fn_: u64,
}

impl ConfusionMatrix {
    /// Empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one (prediction, truth) pair in.
    pub fn record(&mut self, predicted_positive: bool, actually_positive: bool) {
        match (predicted_positive, actually_positive) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Builds a matrix from parallel prediction/truth iterators.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (bool, bool)>,
    {
        let mut m = Self::new();
        for (pred, truth) in pairs {
            m.record(pred, truth);
        }
        m
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Precision `tp / (tp + fp)`; 0 when nothing was flagged.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall (detection rate) `tp / (tp + fn)`; 0 when no positives exist.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// F1 — harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// False-positive rate `fp / (fp + tn)`.
    pub fn false_positive_rate(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }

    /// Accuracy `(tp + tn) / total`.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// Merges another matrix.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rates_on_known_matrix() {
        let m = ConfusionMatrix {
            tp: 8,
            fp: 2,
            tn: 85,
            fn_: 5,
        };
        assert!((m.precision() - 0.8).abs() < 1e-12);
        assert!((m.recall() - 8.0 / 13.0).abs() < 1e-12);
        assert!((m.false_positive_rate() - 2.0 / 87.0).abs() < 1e-12);
        assert!((m.accuracy() - 93.0 / 100.0).abs() < 1e-12);
        let f1 = 2.0 * 0.8 * (8.0 / 13.0) / (0.8 + 8.0 / 13.0);
        assert!((m.f1() - f1).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_yields_zero_rates() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
        assert_eq!(m.false_positive_rate(), 0.0);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    fn record_and_from_pairs_agree() {
        let pairs = [
            (true, true),
            (true, false),
            (false, false),
            (false, true),
            (true, true),
        ];
        let mut a = ConfusionMatrix::new();
        for &(p, t) in &pairs {
            a.record(p, t);
        }
        let b = ConfusionMatrix::from_pairs(pairs.iter().copied());
        assert_eq!(a, b);
        assert_eq!(a.tp, 2);
        assert_eq!(a.fp, 1);
        assert_eq!(a.tn, 1);
        assert_eq!(a.fn_, 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ConfusionMatrix {
            tp: 1,
            fp: 2,
            tn: 3,
            fn_: 4,
        };
        a.merge(&ConfusionMatrix {
            tp: 10,
            fp: 20,
            tn: 30,
            fn_: 40,
        });
        assert_eq!(
            a,
            ConfusionMatrix {
                tp: 11,
                fp: 22,
                tn: 33,
                fn_: 44
            }
        );
    }

    proptest! {
        #[test]
        fn rates_bounded(tp in 0u64..1000, fp in 0u64..1000, tn in 0u64..1000, fn_ in 0u64..1000) {
            let m = ConfusionMatrix { tp, fp, tn, fn_ };
            for v in [m.precision(), m.recall(), m.f1(), m.false_positive_rate(), m.accuracy()] {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
