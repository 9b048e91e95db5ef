//! Sensor-network stream simulator.
//!
//! The paper motivates SPOT with "analysis and monitoring of network
//! traffic data, web log, **sensor networks** and financial transactions".
//! This generator emulates a field of correlated sensors: each record is
//! one synchronized reading across all sensors, driven by a shared diurnal
//! signal plus per-sensor offsets and noise, with neighbouring sensors
//! additionally correlated. Three fault families are planted, each visible
//! only in a small subspace:
//!
//! * **stuck** — a sensor freezes at a constant while its neighbours keep
//!   moving (outlying in the 2-dim subspace {sensor, neighbour}).
//! * **spike** — a transient burst on one sensor (1-dim subspace).
//! * **correlation-break** — two coupled sensors decouple: both values are
//!   individually plausible but their joint reading is unprecedented
//!   (outlying only in the 2-dim pair — the quintessential projected
//!   outlier that no single-attribute monitor can see).

use crate::synthetic::gaussian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_subspace::Subspace;
use spot_types::{AnomalyInfo, DataPoint, DomainBounds, Label, LabeledRecord, Result, SpotError};

/// Configuration of the sensor field.
#[derive(Debug, Clone)]
pub struct SensorConfig {
    /// Number of sensors (= stream dimensionality, 4..=64).
    pub sensors: usize,
    /// Period of the shared diurnal cycle, in records.
    pub cycle: u64,
    /// Amplitude of the diurnal cycle (readings are normalized to `[0, 1]`).
    pub amplitude: f64,
    /// Per-reading Gaussian noise.
    pub noise: f64,
    /// Coupling of sensor `i` to sensor `i−1` (0 = independent).
    pub coupling: f64,
    /// Fraction of records carrying a planted fault.
    pub fault_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            sensors: 24,
            cycle: 2000,
            amplitude: 0.25,
            noise: 0.02,
            coupling: 0.6,
            fault_fraction: 0.02,
            seed: 7,
        }
    }
}

impl SensorConfig {
    fn validate(&self) -> Result<()> {
        if !(4..=64).contains(&self.sensors) {
            return Err(SpotError::InvalidConfig(format!(
                "sensors must lie in 4..=64, got {}",
                self.sensors
            )));
        }
        if self.cycle == 0 {
            return Err(SpotError::InvalidConfig("cycle must be positive".into()));
        }
        if !(0.0..=0.5).contains(&self.fault_fraction) {
            return Err(SpotError::InvalidConfig(
                "fault fraction must be in [0,0.5]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.coupling) {
            return Err(SpotError::InvalidConfig(
                "coupling must lie in [0,1]".into(),
            ));
        }
        if self.noise <= 0.0 || self.amplitude < 0.0 {
            return Err(SpotError::InvalidConfig("noise must be positive".into()));
        }
        Ok(())
    }
}

/// Planted fault families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sensor frozen at a constant.
    Stuck,
    /// Transient spike on one sensor.
    Spike,
    /// Two coupled sensors decouple.
    CorrelationBreak,
}

impl FaultKind {
    /// Category string used in labels.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Stuck => "stuck",
            FaultKind::Spike => "spike",
            FaultKind::CorrelationBreak => "corr-break",
        }
    }
}

/// Seeded sensor-field generator (unbounded iterator of labeled records).
#[derive(Debug, Clone)]
pub struct SensorGenerator {
    config: SensorConfig,
    /// Per-sensor baseline offsets.
    offsets: Vec<f64>,
    rng: StdRng,
    t: u64,
    next_seq: u64,
}

impl SensorGenerator {
    /// Builds the generator.
    pub fn new(config: SensorConfig) -> Result<Self> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let offsets: Vec<f64> = (0..config.sensors)
            .map(|_| rng.gen_range(0.35..0.65))
            .collect();
        Ok(SensorGenerator {
            config,
            offsets,
            rng,
            t: 0,
            next_seq: 0,
        })
    }

    /// Reading-space bounds.
    pub fn bounds(&self) -> DomainBounds {
        DomainBounds::unit(self.config.sensors)
    }

    /// Draws `n` labeled records.
    pub fn generate(&mut self, n: usize) -> Vec<LabeledRecord> {
        (0..n).map(|_| self.next_record()).collect()
    }

    /// Draws `n` fault-free readings (training batch).
    pub fn generate_normal(&mut self, n: usize) -> Vec<DataPoint> {
        (0..n)
            .map(|_| {
                self.t += 1;
                self.healthy_reading()
            })
            .collect()
    }

    fn healthy_reading(&mut self) -> DataPoint {
        let phase = 2.0 * std::f64::consts::PI * (self.t % self.config.cycle) as f64
            / self.config.cycle as f64;
        let diurnal = self.config.amplitude * phase.sin();
        let n = self.config.sensors;
        let mut vals = Vec::with_capacity(n);
        let mut prev_dev = 0.0;
        for i in 0..n {
            let own = gaussian(&mut self.rng) * self.config.noise;
            // Coupled deviation: follow the previous sensor's deviation.
            let dev = self.config.coupling * prev_dev + (1.0 - self.config.coupling) * own;
            let v = (self.offsets[i] + diurnal * 0.5 + dev + own * 0.5).clamp(0.0, 1.0);
            vals.push(v);
            prev_dev = dev + own;
        }
        DataPoint::new(vals)
    }

    fn next_record(&mut self) -> LabeledRecord {
        self.t += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let point = self.healthy_reading();
        if !self.rng.gen_bool(self.config.fault_fraction) {
            return LabeledRecord::new(seq, point, Label::Normal);
        }
        let n = self.config.sensors;
        let kind = match self.rng.gen_range(0..3) {
            0 => FaultKind::Stuck,
            1 => FaultKind::Spike,
            _ => FaultKind::CorrelationBreak,
        };
        let mut v = point.into_values();
        let mask = match kind {
            FaultKind::Stuck => {
                // Freeze sensor i near the domain floor while its
                // neighbour moves normally.
                let i = self.rng.gen_range(1..n);
                v[i] = 0.02;
                Subspace::from_dims([i - 1, i]).expect("dims valid").mask()
            }
            FaultKind::Spike => {
                let i = self.rng.gen_range(0..n);
                v[i] = (v[i] + 0.45).min(1.0);
                Subspace::single(i).expect("dim valid").mask()
            }
            FaultKind::CorrelationBreak => {
                // Push two adjacent coupled sensors in opposite directions;
                // each value stays within its healthy marginal range, only
                // the joint reading is unprecedented.
                let i = self.rng.gen_range(1..n);
                v[i - 1] = (self.offsets[i - 1] + 0.12).min(1.0);
                v[i] = (self.offsets[i] - 0.12).max(0.0);
                Subspace::from_dims([i - 1, i]).expect("dims valid").mask()
            }
        };
        LabeledRecord::new(
            seq,
            DataPoint::new(v),
            Label::Anomaly(AnomalyInfo::with_subspace(kind.name(), mask)),
        )
    }
}

impl Iterator for SensorGenerator {
    type Item = LabeledRecord;

    fn next(&mut self) -> Option<LabeledRecord> {
        Some(self.next_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> SensorGenerator {
        SensorGenerator::new(SensorConfig::default()).unwrap()
    }

    #[test]
    fn validation() {
        let bad = |f: fn(&mut SensorConfig)| {
            let mut c = SensorConfig::default();
            f(&mut c);
            SensorGenerator::new(c).is_err()
        };
        assert!(bad(|c| c.sensors = 2));
        assert!(bad(|c| c.sensors = 100));
        assert!(bad(|c| c.cycle = 0));
        assert!(bad(|c| c.fault_fraction = 0.9));
        assert!(bad(|c| c.coupling = 1.5));
        assert!(bad(|c| c.noise = 0.0));
    }

    #[test]
    fn readings_in_unit_box() {
        let mut g = generator();
        let bounds = g.bounds();
        for r in g.generate(500) {
            assert_eq!(r.point.dims(), 24);
            assert!(bounds.contains(&r.point));
        }
    }

    #[test]
    fn fault_rate_and_families() {
        let mut g = SensorGenerator::new(SensorConfig {
            fault_fraction: 0.1,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let recs = g.generate(8000);
        let faults: Vec<_> = recs.iter().filter(|r| r.is_anomaly()).collect();
        let rate = faults.len() as f64 / recs.len() as f64;
        assert!((rate - 0.1).abs() < 0.02, "rate={rate}");
        for name in ["stuck", "spike", "corr-break"] {
            assert!(
                faults.iter().any(|r| r.label.category() == name),
                "family {name} never generated"
            );
        }
    }

    #[test]
    fn neighbours_are_correlated() {
        let mut g = SensorGenerator::new(SensorConfig {
            coupling: 0.9,
            fault_fraction: 0.0,
            ..Default::default()
        })
        .unwrap();
        let pts = g.generate_normal(3000);
        // Pearson correlation between sensor 5 and 6 deviations.
        let xs: Vec<f64> = pts.iter().map(|p| p.value(5)).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.value(6)).collect();
        let corr = pearson(&xs, &ys);
        assert!(corr > 0.3, "corr={corr}");
    }

    #[test]
    fn correlation_break_is_marginally_plausible() {
        let mut g = SensorGenerator::new(SensorConfig {
            fault_fraction: 0.3,
            seed: 5,
            ..Default::default()
        })
        .unwrap();
        let recs = g.generate(4000);
        for r in recs.iter().filter(|r| r.label.category() == "corr-break") {
            let mask = r.label.anomaly().unwrap().true_subspace.unwrap();
            let s = Subspace::from_mask(mask).unwrap();
            assert_eq!(s.cardinality(), 2);
            // Both coordinates stay well inside [0,1] — nothing extreme.
            for d in s.dims() {
                let v = r.point.value(d);
                assert!((0.05..=0.95).contains(&v), "v={v}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let mut a = generator();
        let mut b = generator();
        assert_eq!(a.generate(200), b.generate(200));
    }

    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        cov / (vx.sqrt() * vy.sqrt())
    }
}
