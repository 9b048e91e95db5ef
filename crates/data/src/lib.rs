//! Stream generators with ground truth for the SPOT experiments.
//!
//! The ICDE'08 demo evaluated SPOT on "synthetic and real-life streaming
//! data sets". The real data is not redistributable, so this crate builds
//! seeded simulators that preserve the *structure* the detection problem
//! depends on. A projected outlier is a point that is sparse in some
//! low-dimensional subspace, so a stream whose anomalies sit in known
//! feature subsets against dense normal profiles poses the same search
//! problem as the real traces — and, unlike them, records the subspaces
//! as ground truth, so attribution can be scored too:
//!
//! * [`synthetic`] — subspace-embedded Gaussian clusters plus planted
//!   *projected outliers*: points ordinary in the full space yet sparse in a
//!   designated low-dimensional subspace, with that subspace recorded as
//!   ground truth.
//! * [`kdd`] — a KDD-Cup'99-like network-intrusion stream: 20 continuous
//!   connection features, normal traffic profiles, and four attack families
//!   whose anomalies live in small documented feature subsets.
//! * [`drift`] — wrappers that move the generating distribution over time
//!   (gradual or abrupt concept drift).
//! * [`csv`] — dataset save/load in a dependency-light CSV dialect, plus
//!   JSON artifact dumps for the experiment harness.

pub mod csv;
pub mod drift;
pub mod kdd;
pub mod sensor;
pub mod synthetic;

pub use drift::{DriftKind, DriftingGenerator};
pub use kdd::{AttackKind, KddConfig, KddGenerator, FEATURE_NAMES, NUM_FEATURES};
pub use sensor::{FaultKind, SensorConfig, SensorGenerator};
pub use synthetic::{SyntheticConfig, SyntheticGenerator};
