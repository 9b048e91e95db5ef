//! Ground-truth labels for evaluation.

/// Ground-truth description of an anomalous record.
///
/// `true_subspace` stores the dimensions in which the anomaly was planted as
/// a raw bitmask (bit `i` set ⇔ dimension `i` participates). It is kept as a
/// plain `u64` here so that `spot-types` stays dependency-free; the
/// `spot-subspace` crate converts it to its `Subspace` type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyInfo {
    /// Anomaly family, e.g. `"dos"`, `"probe"`, `"cluster-edge"`.
    pub category: String,
    /// Bitmask of the dimensions of the planted outlying subspace, when the
    /// generator knows it.
    pub true_subspace: Option<u64>,
}

impl AnomalyInfo {
    /// An anomaly with a category but no known outlying subspace.
    pub fn category(category: impl Into<String>) -> Self {
        AnomalyInfo {
            category: category.into(),
            true_subspace: None,
        }
    }

    /// An anomaly with a category and a known outlying-subspace bitmask.
    pub fn with_subspace(category: impl Into<String>, mask: u64) -> Self {
        AnomalyInfo {
            category: category.into(),
            true_subspace: Some(mask),
        }
    }
}

/// Ground-truth label of a stream record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Label {
    /// A regular point.
    Normal,
    /// A planted anomaly.
    Anomaly(AnomalyInfo),
}

impl Label {
    /// `true` for [`Label::Anomaly`].
    pub fn is_anomaly(&self) -> bool {
        matches!(self, Label::Anomaly(_))
    }

    /// Anomaly details when present.
    pub fn anomaly(&self) -> Option<&AnomalyInfo> {
        match self {
            Label::Normal => None,
            Label::Anomaly(info) => Some(info),
        }
    }

    /// Category string, `"normal"` for regular points.
    pub fn category(&self) -> &str {
        match self {
            Label::Normal => "normal",
            Label::Anomaly(info) => &info.category,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_label() {
        let l = Label::Normal;
        assert!(!l.is_anomaly());
        assert!(l.anomaly().is_none());
        assert_eq!(l.category(), "normal");
    }

    #[test]
    fn anomaly_label_with_subspace() {
        let l = Label::Anomaly(AnomalyInfo::with_subspace("dos", 0b101));
        assert!(l.is_anomaly());
        assert_eq!(l.category(), "dos");
        assert_eq!(l.anomaly().unwrap().true_subspace, Some(0b101));
    }

    #[test]
    fn anomaly_label_without_subspace() {
        let l = Label::Anomaly(AnomalyInfo::category("probe"));
        assert_eq!(l.anomaly().unwrap().true_subspace, None);
    }
}
