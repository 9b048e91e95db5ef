//! Overall outlying degree of training points.
//!
//! Leader clustering is order-sensitive, so SPOT runs it "under different
//! data order\[s\]" and aggregates. The outlying degree of a point blends two
//! signals, averaged over the shuffled runs:
//!
//! * **membership** — points in small clusters are more outlying
//!   (`1 − |C(p)| / max_cluster_size`);
//! * **eccentricity** — points far from their leader are more outlying
//!   (`dist(p, leader) / τ`, which is ≤ 1 by the clustering invariant).
//!
//! `od = α·membership + (1−α)·eccentricity ∈ [0, 1]`.

use crate::leader::LeaderClustering;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spot_types::{DataPoint, Result, SpotError};

/// Configuration of the outlying-degree computation.
#[derive(Debug, Clone, Copy)]
pub struct OdConfig {
    /// Leader-clustering distance threshold τ.
    pub tau: f64,
    /// Number of shuffled clustering runs.
    pub runs: usize,
    /// Weight of the membership signal (the rest goes to eccentricity).
    pub alpha: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for OdConfig {
    fn default() -> Self {
        OdConfig {
            tau: 1.0,
            runs: 5,
            alpha: 0.7,
            seed: 17,
        }
    }
}

impl OdConfig {
    fn validate(&self) -> Result<()> {
        if self.runs == 0 {
            return Err(SpotError::InvalidConfig(
                "need at least one clustering run".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(SpotError::InvalidConfig("alpha must lie in [0,1]".into()));
        }
        Ok(())
    }
}

/// Outlying degree of every point, averaged over `config.runs` shuffled
/// leader-clustering passes. Values lie in `[0, 1]`.
pub fn outlying_degrees(points: &[DataPoint], config: &OdConfig) -> Result<Vec<f64>> {
    config.validate()?;
    if points.is_empty() {
        return Ok(Vec::new());
    }
    let method = LeaderClustering::new(config.tau)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut acc = vec![0.0f64; points.len()];
    let mut order: Vec<usize> = (0..points.len()).collect();
    for run in 0..config.runs {
        if run > 0 {
            order.shuffle(&mut rng);
        }
        let clustering = method.run_with_order(points, &order);
        let max_size = clustering.max_size().max(1) as f64;
        for (i, p) in points.iter().enumerate() {
            let c = clustering.assignment[i];
            let membership = 1.0 - clustering.sizes[c] as f64 / max_size;
            let ecc = (p.distance(&clustering.leaders[c]) / config.tau).min(1.0);
            acc[i] += config.alpha * membership + (1.0 - config.alpha) * ecc;
        }
    }
    for v in &mut acc {
        *v /= config.runs as f64;
    }
    Ok(acc)
}

/// Indices of the `k` points with the highest outlying degree, descending.
pub fn top_outlying_indices(degrees: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..degrees.len()).collect();
    idx.sort_by(|&a, &b| {
        degrees[b]
            .partial_cmp(&degrees[a])
            .expect("outlying degrees are not NaN")
    });
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn blob_with_stragglers() -> Vec<DataPoint> {
        let mut pts: Vec<DataPoint> = Vec::new();
        // Dense blob of 30 points near the origin.
        for i in 0..30 {
            let a = i as f64 * 0.01;
            pts.push(DataPoint::new(vec![a, -a]));
        }
        // Two far-away stragglers.
        pts.push(DataPoint::new(vec![8.0, 8.0]));
        pts.push(DataPoint::new(vec![-9.0, 7.5]));
        pts
    }

    #[test]
    fn stragglers_rank_highest() {
        let pts = blob_with_stragglers();
        let od = outlying_degrees(
            &pts,
            &OdConfig {
                tau: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        let top = top_outlying_indices(&od, 2);
        let mut got = top.clone();
        got.sort_unstable();
        assert_eq!(got, vec![30, 31], "od={od:?}");
        // Core points score clearly lower.
        assert!(od[0] < od[30]);
    }

    #[test]
    fn degrees_bounded_in_unit_interval() {
        let pts = blob_with_stragglers();
        let od = outlying_degrees(&pts, &OdConfig::default()).unwrap();
        assert!(od.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn empty_and_validation() {
        assert!(outlying_degrees(&[], &OdConfig::default())
            .unwrap()
            .is_empty());
        let pts = vec![DataPoint::new(vec![0.0])];
        assert!(outlying_degrees(
            &pts,
            &OdConfig {
                runs: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(outlying_degrees(
            &pts,
            &OdConfig {
                alpha: 1.5,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = blob_with_stragglers();
        let cfg = OdConfig {
            seed: 99,
            ..Default::default()
        };
        assert_eq!(
            outlying_degrees(&pts, &cfg).unwrap(),
            outlying_degrees(&pts, &cfg).unwrap()
        );
    }

    #[test]
    fn top_indices_truncation_and_order() {
        let degrees = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_outlying_indices(&degrees, 2), vec![1, 3]);
        assert_eq!(top_outlying_indices(&degrees, 10).len(), 4);
        assert!(top_outlying_indices(&[], 3).is_empty());
    }

    proptest! {
        #[test]
        fn degrees_always_bounded(
            vals in proptest::collection::vec(
                proptest::collection::vec(-5.0f64..5.0, 2), 1..30
            ),
            tau in 0.2f64..5.0,
            runs in 1usize..5,
        ) {
            let pts: Vec<DataPoint> = vals.into_iter().map(DataPoint::new).collect();
            let cfg = OdConfig { tau, runs, ..Default::default() };
            let od = outlying_degrees(&pts, &cfg).unwrap();
            prop_assert_eq!(od.len(), pts.len());
            prop_assert!(od.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}
