//! SPOT configuration and builder.

use spot_moga::MogaConfig;
use spot_stream::TimeModel;
use spot_types::{DomainBounds, Result, SpotError};

/// Outlier-ness thresholds applied to the PCS of a point's projected cell.
///
/// A point is a projected outlier in subspace `s` when `rd < rd` and — if
/// `irsd` is set — `irsd < irsd` for the cell it falls into (the paper's
/// "PCS of the cell it belongs to in one or more subspaces fall\[s\] under
/// certain pre-specified thresholds").
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Thresholds {
    /// Relative-density threshold (e.g. 0.1 = ten times sparser than the
    /// uniform expectation).
    pub rd: f64,
    /// Optional IRSD threshold; `None` tests RD alone.
    pub irsd: Option<f64>,
}

impl Default for Thresholds {
    fn default() -> Self {
        // rd = 0.06: with the default time model (effective weight ≈ 2000,
        // in practice slightly less before saturation) and granularity 10,
        // a lone point in a 2-dim cell sits at RD = 100/N ≈ 0.05–0.055 —
        // the threshold must clear that singleton level with margin while
        // rejecting cells that already hold a second point (RD ≈ 0.11).
        Thresholds {
            rd: 0.06,
            irsd: Some(5.0),
        }
    }
}

/// Knobs of the offline learning stage.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LearningConfig {
    /// MOGA parameters shared by all learning-stage searches.
    pub moga: MogaConfig,
    /// Leader-clustering threshold τ; `None` estimates it from the data
    /// (half the mean pairwise distance of a sample).
    pub leader_tau: Option<f64>,
    /// Shuffled clustering runs for the outlying degree.
    pub od_runs: usize,
    /// Membership-vs-eccentricity mix of the outlying degree.
    pub od_alpha: f64,
    /// Fraction of training points (by outlying degree) treated as outlier
    /// candidates for CS construction (at least 3 points).
    pub top_fraction: f64,
    /// Subspaces taken from each MOGA run into CS/OS.
    pub moga_top_k: usize,
    /// Cardinality cap for MOGA chromosomes (`None` = up to ϕ).
    pub max_cardinality: Option<usize>,
    /// Replay the training batch into the streaming synopses after
    /// learning, so detection starts against a warmed model.
    pub replay_training: bool,
}

impl Default for LearningConfig {
    fn default() -> Self {
        LearningConfig {
            moga: MogaConfig::default(),
            leader_tau: None,
            od_runs: 5,
            od_alpha: 0.7,
            top_fraction: 0.05,
            moga_top_k: 10,
            max_cardinality: Some(4),
            replay_training: true,
        }
    }
}

/// Online adaptation: CS self-evolution and OS growth.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EvolutionConfig {
    /// Master switch.
    pub enabled: bool,
    /// Period in points between evolution rounds.
    pub period: u64,
    /// Capacity of the detected-outlier buffer feeding OS growth.
    pub outlier_buffer: usize,
    /// Size of the reservoir sample of recent points used to score
    /// candidate subspaces online.
    pub reservoir: usize,
    /// Minimum buffered outliers before an OS-growth MOGA run.
    pub min_outliers_for_os: usize,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig {
            enabled: true,
            period: 1000,
            outlier_buffer: 64,
            reservoir: 256,
            min_outliers_for_os: 5,
        }
    }
}

/// Concept-drift detection: a Page–Hinkley test over the *projected
/// freshness* of arriving points — the fraction of a point's monitored
/// projected cells (across all SST subspaces) whose decayed occupancy,
/// point included, is below `novelty_floor`. A stationary stream keeps
/// revisiting its populated cells, so the signal hovers near zero; when the
/// distribution moves, arriving points keep opening never-seen cells and
/// the signal jumps.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DriftConfig {
    /// Master switch.
    pub enabled: bool,
    /// Page–Hinkley tolerance δ (expected drift-free fluctuation).
    pub delta: f64,
    /// Page–Hinkley alarm threshold λ.
    pub lambda: f64,
    /// Minimum observations before alarms may fire.
    pub min_points: u64,
    /// Decayed-occupancy floor below which a projected cell counts as
    /// fresh. The occupancy includes the arriving point (weight 1), so the
    /// default 5.0 means "the cell held less than ~4 points of decayed
    /// weight before" — loose enough that a distribution moving into
    /// thinly-covered territory registers, tight enough that revisited
    /// dense cells never do.
    pub novelty_floor: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            enabled: true,
            delta: 0.02,
            lambda: 5.0,
            min_points: 1000,
            novelty_floor: 5.0,
        }
    }
}

/// Full SPOT configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SpotConfig {
    /// Attribute domain bounds (defines the grid box and ϕ).
    pub bounds: DomainBounds,
    /// Equi-width grid granularity per dimension.
    pub granularity: u16,
    /// The (ω, ε) time model.
    pub time_model: TimeModel,
    /// Outlier-ness thresholds.
    pub thresholds: Thresholds,
    /// MaxDimension of the Fixed SST Subspaces (FS holds every subspace
    /// with dimensionality ≤ this).
    pub fs_max_dimension: usize,
    /// Capacity of the Clustering-based SST Subspaces (CS).
    pub cs_capacity: usize,
    /// Capacity of the Outlier-driven SST Subspaces (OS).
    pub os_capacity: usize,
    /// Learning-stage knobs.
    pub learning: LearningConfig,
    /// Online-adaptation knobs.
    pub evolution: EvolutionConfig,
    /// Concept-drift knobs.
    pub drift: DriftConfig,
    /// Period in points between synopsis prunes (0 disables).
    pub prune_every: u64,
    /// Decayed-count floor below which cells are evicted.
    pub prune_floor: f64,
    /// Seed for every stochastic component (detection is deterministic for
    /// a fixed seed and stream).
    pub seed: u64,
}

impl SpotConfig {
    /// Default configuration over the given bounds.
    pub fn new(bounds: DomainBounds) -> Self {
        SpotConfig {
            bounds,
            granularity: 10,
            // omega=6000, epsilon=0.05 gives an effective decayed weight of
            // ~2000 points: enough resolution for a singleton 2-dim cell
            // (RD = m^2/N ≈ 0.05) to clear the default RD threshold.
            time_model: TimeModel::new(6000, 0.05).expect("static parameters are valid"),
            thresholds: Thresholds::default(),
            fs_max_dimension: 2,
            cs_capacity: 20,
            os_capacity: 20,
            learning: LearningConfig::default(),
            evolution: EvolutionConfig::default(),
            drift: DriftConfig::default(),
            prune_every: 2000,
            prune_floor: 1e-4,
            seed: 42,
        }
    }

    /// Dimensionality ϕ.
    pub fn phi(&self) -> usize {
        self.bounds.dims()
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        let phi = self.phi();
        if phi == 0 || phi > spot_subspace::subspace::MAX_DIMS {
            return Err(SpotError::TooManyDimensions(phi));
        }
        if self.thresholds.rd <= 0.0 {
            return Err(SpotError::InvalidConfig(
                "rd threshold must be positive".into(),
            ));
        }
        if let Some(irsd) = self.thresholds.irsd {
            if irsd <= 0.0 {
                return Err(SpotError::InvalidConfig(
                    "irsd threshold must be positive".into(),
                ));
            }
        }
        if self.fs_max_dimension == 0 {
            return Err(SpotError::InvalidConfig(
                "FS MaxDimension must be at least 1".into(),
            ));
        }
        // Refuse configurations whose FS alone would explode.
        let fs_size = spot_subspace::count_up_to_dim(phi, self.fs_max_dimension);
        if fs_size > 100_000 {
            return Err(SpotError::InvalidConfig(format!(
                "FS would hold {fs_size} subspaces; lower fs_max_dimension"
            )));
        }
        if !(0.0..=1.0).contains(&self.learning.top_fraction) {
            return Err(SpotError::InvalidConfig(
                "top_fraction must lie in [0,1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.learning.od_alpha) {
            return Err(SpotError::InvalidConfig(
                "od_alpha must lie in [0,1]".into(),
            ));
        }
        if self.learning.od_runs == 0 {
            return Err(SpotError::InvalidConfig("od_runs must be positive".into()));
        }
        if self.evolution.enabled && self.evolution.period == 0 {
            return Err(SpotError::InvalidConfig(
                "evolution period must be positive".into(),
            ));
        }
        if self.evolution.reservoir == 0 {
            return Err(SpotError::InvalidConfig(
                "reservoir must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Fluent builder over [`SpotConfig`].
#[derive(Debug, Clone)]
pub struct SpotBuilder {
    config: SpotConfig,
}

impl SpotBuilder {
    /// Starts from the defaults for the given bounds.
    pub fn new(bounds: DomainBounds) -> Self {
        SpotBuilder {
            config: SpotConfig::new(bounds),
        }
    }

    /// Grid granularity per dimension.
    pub fn granularity(mut self, m: u16) -> Self {
        self.config.granularity = m;
        self
    }

    /// The (ω, ε) time model.
    pub fn time_model(mut self, model: TimeModel) -> Self {
        self.config.time_model = model;
        self
    }

    /// RD threshold (and clears any IRSD threshold).
    pub fn rd_threshold(mut self, rd: f64) -> Self {
        self.config.thresholds.rd = rd;
        self
    }

    /// IRSD threshold.
    pub fn irsd_threshold(mut self, irsd: Option<f64>) -> Self {
        self.config.thresholds.irsd = irsd;
        self
    }

    /// FS MaxDimension.
    pub fn fs_max_dimension(mut self, d: usize) -> Self {
        self.config.fs_max_dimension = d;
        self
    }

    /// CS capacity.
    pub fn cs_capacity(mut self, n: usize) -> Self {
        self.config.cs_capacity = n;
        self
    }

    /// OS capacity.
    pub fn os_capacity(mut self, n: usize) -> Self {
        self.config.os_capacity = n;
        self
    }

    /// Learning-stage knobs.
    pub fn learning(mut self, learning: LearningConfig) -> Self {
        self.config.learning = learning;
        self
    }

    /// Online-adaptation knobs.
    pub fn evolution(mut self, evolution: EvolutionConfig) -> Self {
        self.config.evolution = evolution;
        self
    }

    /// Concept-drift knobs.
    pub fn drift(mut self, drift: DriftConfig) -> Self {
        self.config.drift = drift;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Pruning policy.
    pub fn pruning(mut self, every: u64, floor: f64) -> Self {
        self.config.prune_every = every;
        self.config.prune_floor = floor;
        self
    }

    /// Finishes the configuration (validated).
    pub fn build_config(self) -> Result<SpotConfig> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// Builds the detector directly.
    pub fn build(self) -> Result<crate::Spot> {
        crate::Spot::new(self.build_config()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(SpotConfig::new(DomainBounds::unit(8)).validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let base = || SpotConfig::new(DomainBounds::unit(8));
        let mut c = base();
        c.thresholds.rd = 0.0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.thresholds.irsd = Some(-1.0);
        assert!(c.validate().is_err());
        let mut c = base();
        c.fs_max_dimension = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.learning.top_fraction = 2.0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.evolution.period = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.evolution.reservoir = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn fs_explosion_rejected() {
        let mut c = SpotConfig::new(DomainBounds::unit(48));
        c.fs_max_dimension = 5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_round_trip() {
        let cfg = SpotBuilder::new(DomainBounds::unit(6))
            .granularity(8)
            .rd_threshold(0.2)
            .irsd_threshold(None)
            .fs_max_dimension(1)
            .cs_capacity(5)
            .os_capacity(7)
            .seed(9)
            .pruning(500, 1e-3)
            .build_config()
            .unwrap();
        assert_eq!(cfg.granularity, 8);
        assert_eq!(cfg.thresholds.rd, 0.2);
        assert_eq!(cfg.thresholds.irsd, None);
        assert_eq!(cfg.fs_max_dimension, 1);
        assert_eq!(cfg.cs_capacity, 5);
        assert_eq!(cfg.os_capacity, 7);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.prune_every, 500);
    }
}
