//! SPOT configuration and builder.

use spot_stream::TimeModel;
use spot_types::{
    DomainBounds, DurableState, PersistError, Result, SpotError, StateReader, StateWriter,
};

/// Outlier-ness thresholds applied to the PCS of a point's projected cell.
///
/// A point is a projected outlier in subspace `s` when `rd < rd` and — if
/// `irsd` is set — `irsd < irsd` for the cell it falls into (the paper's
/// "PCS of the cell it belongs to in one or more subspaces fall\[s\] under
/// certain pre-specified thresholds").
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Online adaptation: CS self-evolution and OS growth.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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

/// The most subspaces one SST component may hold: an FS enumeration and a
/// CS or OS capacity above it are refused ([`SpotConfig::validate`]).
const MAX_COMPONENT_SUBSPACES: usize = 100_000;

/// Full SPOT configuration.
#[derive(Debug, Clone)]
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
    /// Online-adaptation knobs.
    pub evolution: EvolutionConfig,
    /// Concept-drift knobs.
    pub drift: DriftConfig,
    /// Period in points between synopsis prunes (0 disables).
    pub prune_every: u64,
    /// Decayed-count floor below which cells are evicted.
    pub prune_floor: f64,
    /// Seed of the detector's own draws: the τ estimate's sample, the
    /// outlying-degree shuffles, CS self-evolution, the reservoir and the
    /// online MOGA searches (OS growth, `Spot::explain`). The learning
    /// stage's MOGA searches do not read it: they run on the fixed seed of
    /// `MogaConfig::default()` (exemplar *i*'s on that seed + *i*).
    /// Detection is deterministic for a fixed seed and stream.
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
        // Refuse configurations whose FS alone would explode, and CS / OS
        // capacities past the same ceiling (self-evolution allocates
        // `cs_capacity` offspring a tick).
        let fs_size = spot_subspace::count_up_to_dim(phi, self.fs_max_dimension);
        if fs_size > MAX_COMPONENT_SUBSPACES as u128 {
            return Err(SpotError::InvalidConfig(format!(
                "FS would hold {fs_size} subspaces; lower fs_max_dimension"
            )));
        }
        for (name, capacity) in [("CS", self.cs_capacity), ("OS", self.os_capacity)] {
            if capacity > MAX_COMPONENT_SUBSPACES {
                return Err(SpotError::InvalidConfig(format!(
                    "{name} capacity {capacity} exceeds {MAX_COMPONENT_SUBSPACES} subspaces"
                )));
            }
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

// Configuration is captured with every checkpoint. An optional knob is a
// column of zero or one entries.

/// The entry of a zero-or-one column.
fn optional<T>(name: &str, col: Vec<T>) -> std::result::Result<Option<T>, PersistError> {
    if col.len() > 1 {
        return Err(PersistError::custom(format!(
            "field `{name}`: {} entries for an optional value",
            col.len()
        )));
    }
    Ok(col.into_iter().next())
}

impl DurableState for Thresholds {
    fn capture(&self, w: &mut StateWriter) {
        w.f64_bits("rd", self.rd);
        w.f64_bits_col("irsd", self.irsd);
    }

    fn restore(&mut self, r: &StateReader<'_>) -> std::result::Result<(), PersistError> {
        self.rd = r.f64_bits("rd")?;
        self.irsd = optional("irsd", r.f64_bits_col("irsd")?)?;
        Ok(())
    }
}

impl DurableState for EvolutionConfig {
    fn capture(&self, w: &mut StateWriter) {
        w.bool("enabled", self.enabled);
        w.u64("period", self.period);
        w.u64("outlier_buffer", self.outlier_buffer as u64);
        w.u64("reservoir", self.reservoir as u64);
        w.u64("min_outliers_for_os", self.min_outliers_for_os as u64);
    }

    fn restore(&mut self, r: &StateReader<'_>) -> std::result::Result<(), PersistError> {
        self.enabled = r.bool("enabled")?;
        self.period = r.u64("period")?;
        self.outlier_buffer = r.usize("outlier_buffer")?;
        self.reservoir = r.usize("reservoir")?;
        self.min_outliers_for_os = r.usize("min_outliers_for_os")?;
        Ok(())
    }
}

impl DurableState for DriftConfig {
    fn capture(&self, w: &mut StateWriter) {
        w.bool("enabled", self.enabled);
        w.f64_bits("delta", self.delta);
        w.f64_bits("lambda", self.lambda);
        w.u64("min_points", self.min_points);
        w.f64_bits("novelty_floor", self.novelty_floor);
    }

    fn restore(&mut self, r: &StateReader<'_>) -> std::result::Result<(), PersistError> {
        self.enabled = r.bool("enabled")?;
        self.delta = r.f64_bits("delta")?;
        self.lambda = r.f64_bits("lambda")?;
        self.min_points = r.u64("min_points")?;
        self.novelty_floor = r.f64_bits("novelty_floor")?;
        Ok(())
    }
}

impl DurableState for SpotConfig {
    fn capture(&self, w: &mut StateWriter) {
        w.component("bounds", &self.bounds);
        w.u64("granularity", u64::from(self.granularity));
        w.component("time_model", &self.time_model);
        w.component("thresholds", &self.thresholds);
        w.u64("fs_max_dimension", self.fs_max_dimension as u64);
        w.u64("cs_capacity", self.cs_capacity as u64);
        w.u64("os_capacity", self.os_capacity as u64);
        w.component("evolution", &self.evolution);
        w.component("drift", &self.drift);
        w.u64("prune_every", self.prune_every);
        w.f64_bits("prune_floor", self.prune_floor);
        w.u64("seed", self.seed);
    }

    /// Restores every field; [`SpotConfig::validate`] is the caller's
    /// (building a detector runs it).
    fn restore(&mut self, r: &StateReader<'_>) -> std::result::Result<(), PersistError> {
        r.restore_component("bounds", &mut self.bounds)?;
        self.granularity = u16::try_from(r.u64("granularity")?)
            .map_err(|_| PersistError::custom("granularity overflows u16"))?;
        r.restore_component("time_model", &mut self.time_model)?;
        r.restore_component("thresholds", &mut self.thresholds)?;
        self.fs_max_dimension = r.usize("fs_max_dimension")?;
        self.cs_capacity = r.usize("cs_capacity")?;
        self.os_capacity = r.usize("os_capacity")?;
        r.restore_component("evolution", &mut self.evolution)?;
        r.restore_component("drift", &mut self.drift)?;
        self.prune_every = r.u64("prune_every")?;
        self.prune_floor = r.f64_bits("prune_floor")?;
        self.seed = r.u64("seed")?;
        Ok(())
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
    fn sst_capacities_above_the_ceiling_are_rejected() {
        // Self-evolution allocates `cs_capacity` offspring at every
        // evolution tick: a capacity no allocation can hold must not build.
        let b = || SpotBuilder::new(DomainBounds::unit(4));
        for built in [
            b().cs_capacity(1 << 60).build(),
            b().os_capacity(1 << 60).build(),
            b().cs_capacity(MAX_COMPONENT_SUBSPACES + 1).build(),
        ] {
            assert!(matches!(built, Err(SpotError::InvalidConfig(_))));
        }
        let at_ceiling = b()
            .cs_capacity(MAX_COMPONENT_SUBSPACES)
            .os_capacity(MAX_COMPONENT_SUBSPACES)
            .build_config();
        assert!(at_ceiling.is_ok());
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
