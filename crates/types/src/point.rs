//! Points and stream records.

use crate::error::{Result, SpotError};
use crate::label::Label;

/// A ϕ-dimensional data point `p = (p_1, …, p_ϕ)`.
///
/// SPOT treats every attribute as continuous; categorical attributes are
/// expected to be encoded numerically upstream (the KDD-like generator in
/// `spot-data` does exactly that).
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    values: Vec<f64>,
}

impl DataPoint {
    /// Creates a point from its attribute values.
    pub fn new(values: Vec<f64>) -> Self {
        DataPoint { values }
    }

    /// Dimensionality ϕ of the point.
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// Attribute values as a slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value of attribute `dim` (panics when out of range).
    pub fn value(&self, dim: usize) -> f64 {
        self.values[dim]
    }

    /// Squared Euclidean distance to another point of equal dimensionality.
    pub fn sq_distance(&self, other: &DataPoint) -> f64 {
        debug_assert_eq!(self.dims(), other.dims());
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &DataPoint) -> f64 {
        self.sq_distance(other).sqrt()
    }

    /// Consumes the point, returning its values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }
}

impl From<Vec<f64>> for DataPoint {
    fn from(values: Vec<f64>) -> Self {
        DataPoint::new(values)
    }
}

impl From<&[f64]> for DataPoint {
    fn from(values: &[f64]) -> Self {
        DataPoint::new(values.to_vec())
    }
}

impl std::ops::Index<usize> for DataPoint {
    type Output = f64;

    fn index(&self, idx: usize) -> &f64 {
        &self.values[idx]
    }
}

/// The admission rule for one row of an arriving point: exactly `phi`
/// values, none of them NaN. ±∞ is admitted (the grid clamps it into an
/// edge interval). The width is checked first, so a row that is both too
/// short and NaN is a [`SpotError::DimensionMismatch`]; a NaN is reported
/// at its first dimension.
pub fn admit_row(row: &[f64], phi: usize) -> Result<()> {
    if row.len() != phi {
        return Err(SpotError::DimensionMismatch {
            expected: phi,
            got: row.len(),
        });
    }
    match row.iter().position(|v| v.is_nan()) {
        Some(dim) => Err(SpotError::NonFiniteValue { dim }),
        None => Ok(()),
    }
}

/// A stream record carrying ground truth, produced by the generators in
/// `spot-data` and consumed by the evaluation harness.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledRecord {
    /// Arrival sequence number (0-based).
    pub seq: u64,
    /// The point itself.
    pub point: DataPoint,
    /// Ground-truth label.
    pub label: Label,
}

impl LabeledRecord {
    /// Creates a labeled record.
    pub fn new(seq: u64, point: DataPoint, label: Label) -> Self {
        LabeledRecord { seq, point, label }
    }

    /// `true` when the ground truth marks this record anomalous.
    pub fn is_anomaly(&self) -> bool {
        self.label.is_anomaly()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[f64]) -> DataPoint {
        DataPoint::from(v)
    }

    #[test]
    fn admission_checks_width_then_nan_and_admits_infinities() {
        assert!(admit_row(&[f64::INFINITY, f64::NEG_INFINITY, 0.5], 3).is_ok());
        assert_eq!(
            admit_row(&[0.5, f64::NAN], 3),
            Err(SpotError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            admit_row(&[0.5, f64::NAN, f64::NAN], 3),
            Err(SpotError::NonFiniteValue { dim: 1 })
        );
    }

    #[test]
    fn distance_basics() {
        let a = p(&[0.0, 0.0, 0.0]);
        let b = p(&[3.0, 4.0, 0.0]);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.sq_distance(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn indexing_and_accessors() {
        let a = p(&[1.5, 2.5]);
        assert_eq!(a.dims(), 2);
        assert!((a[1] - 2.5).abs() < 1e-12);
        assert!((a.value(0) - 1.5).abs() < 1e-12);
        assert_eq!(a.clone().into_values(), vec![1.5, 2.5]);
    }

    #[test]
    fn zero_distance_to_self() {
        let a = p(&[1.0, -2.0, 3.5]);
        assert_eq!(a.sq_distance(&a), 0.0);
    }

    #[test]
    fn labeled_record_anomaly_flag() {
        let r = LabeledRecord::new(7, p(&[1.0]), Label::Normal);
        assert!(!r.is_anomaly());
    }
}
