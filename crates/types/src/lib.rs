//! Core data types shared by every crate in the SPOT workspace.
//!
//! SPOT ("Stream Projected Outlier deTector", Zhang/Gao/Wang, ICDE 2008)
//! labels each point of a high-dimensional data stream as a regular point or
//! a *projected outlier* — a point that is abnormal inside some
//! low-dimensional projection of the attribute space. This crate holds the
//! vocabulary types for that task: [`DataPoint`], [`StreamRecord`],
//! [`Label`], domain [`bounds::DomainBounds`], the [`StreamDetector`] trait
//! implemented by SPOT and by every baseline detector, numeric helpers, and
//! a fast non-cryptographic hasher used by the hot cell stores.

pub mod bounds;
pub mod error;
pub mod framed;
pub mod fxhash;
pub mod label;
pub mod persist;
pub mod point;
pub mod stats;
pub mod tenant;

pub use bounds::DomainBounds;
pub use error::{Result, SpotError};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use label::{AnomalyInfo, Label};
pub use persist::{DurableState, PersistError, StateReader, StateWriter};
pub use point::{admit_row, DataPoint, LabeledRecord, StreamRecord};
pub use tenant::TenantId;

/// Verdict produced by a generic stream detector for a single point.
///
/// SPOT itself produces a richer, subspace-annotated verdict (see the `spot`
/// crate); this type is the common denominator used to compare SPOT with
/// full-space baselines on equal footing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// `true` when the detector flags the point as an outlier.
    pub outlier: bool,
    /// Anomaly score — larger means more anomalous. Detectors normalize
    /// their internal measure so scores are comparable across points of the
    /// same run (not across detectors).
    pub score: f64,
}

impl Detection {
    /// An outlier verdict with the given score.
    pub fn outlier(score: f64) -> Self {
        Detection {
            outlier: true,
            score,
        }
    }
}

/// One-pass stream outlier detector interface.
///
/// The contract mirrors SPOT's two stages: [`StreamDetector::learn`] is the
/// offline learning stage over a training batch; [`StreamDetector::process`]
/// is the online detection stage and must be callable for every arriving
/// point with amortized O(synopsis) cost and no access to past raw points.
pub trait StreamDetector {
    /// Offline learning stage. Called once before processing the stream.
    fn learn(&mut self, training: &[DataPoint]) -> Result<()>;

    /// Online detection stage: ingest one point, update internal synopses
    /// and return the verdict for this point.
    fn process(&mut self, point: &DataPoint) -> Detection;

    /// Human-readable detector name used in experiment tables.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_constructors() {
        let d = Detection::outlier(0.9);
        assert!(d.outlier);
        assert!((d.score - 0.9).abs() < 1e-12);
    }
}
