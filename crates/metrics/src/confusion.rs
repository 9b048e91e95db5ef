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
    }

    #[test]
    fn record_counts_each_outcome() {
        let mut m = ConfusionMatrix::new();
        for (p, t) in [
            (true, true),
            (true, false),
            (false, false),
            (false, true),
            (true, true),
        ] {
            m.record(p, t);
        }
        let want = ConfusionMatrix {
            tp: 2,
            fp: 1,
            tn: 1,
            fn_: 1,
        };
        assert_eq!(m, want);
    }

    proptest! {
        #[test]
        fn rates_bounded(tp in 0u64..1000, fp in 0u64..1000, tn in 0u64..1000, fn_ in 0u64..1000) {
            let m = ConfusionMatrix { tp, fp, tn, fn_ };
            for v in [m.precision(), m.recall(), m.f1(), m.false_positive_rate()] {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
