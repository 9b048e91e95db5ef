//! # SPOT — Stream Projected Outlier deTector
//!
//! A from-scratch reproduction of *"SPOT: A System for Detecting Projected
//! Outliers From High-dimensional Data Streams"* (Zhang, Gao, Wang — ICDE
//! 2008). SPOT labels each point of an unbounded, high-dimensional data
//! stream as a regular point or a **projected outlier** — a point that is
//! abnormal inside some low-dimensional subspace even though it looks
//! ordinary in the full space — and reports the outlying subspaces.
//!
//! ## Architecture (paper, Figure 1)
//!
//! * **Time model** — the (ω, ε) window model: decaying summaries
//!   approximate a size-ω sliding window with factor ε, without buffering
//!   points or snapshotting synopses (`spot-stream`).
//! * **Data synapses** — Base Cell Summaries and Projected Cell Summaries
//!   (RD, IRSD) over an equi-width hypercube grid, incrementally maintained
//!   (`spot-synopsis`).
//! * **Learning stage** — builds the Sparse Subspace Template (SST):
//!   FS (exact low-dimensional lattice slice) ∪ CS (MOGA over
//!   clustering-derived outlier candidates) ∪ OS (MOGA over outlier
//!   exemplars). Unsupervised and/or supervised ([`Spot::learn`],
//!   [`Spot::learn_with_examples`]). Its searches have fixed parameters,
//!   not settings: NSGA-II at `MogaConfig::default()` (40 × 30), subspaces
//!   of at most 4 dimensions, the top 10 of each search (5 per exemplar),
//!   τ estimated from the batch, five shuffled clustering runs, and the
//!   top 5 % by outlying degree as candidates.
//! * **Detection stage** — per point: update synapses, threshold the PCS of
//!   the point's cell in every SST subspace, report outlying subspaces
//!   ([`Spot::process`] → [`Verdict`]).
//! * **Online adaptation** — CS self-evolution, OS growth from detected
//!   outliers, and Page–Hinkley concept-drift response.
//!
//! A detector runs on one thread at a time: [`Spot::process`] and
//! [`Spot::process_batch`] are serial, and this crate holds no
//! synchronization. Many streams run as many detectors: `spot-runtime`'s
//! fleet puts each behind a mutex of its own and serves monitoring threads
//! a snapshot of its stats and footprint.
//!
//! ## Quickstart
//!
//! ```
//! use spot::SpotBuilder;
//! use spot_types::{DataPoint, DomainBounds};
//!
//! let mut detector = SpotBuilder::new(DomainBounds::unit(8))
//!     .fs_max_dimension(2)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//!
//! // Offline learning over a historical batch…
//! let train: Vec<DataPoint> =
//!     (0..200).map(|i| DataPoint::new(vec![0.5 + (i % 5) as f64 * 0.02; 8])).collect();
//! detector.learn(&train).unwrap();
//!
//! // …then one-pass detection.
//! let verdict = detector.process(&DataPoint::new(vec![0.51; 8])).unwrap();
//! println!("outlier={} score={:.3}", verdict.outlier, verdict.score);
//! for finding in &verdict.findings {
//!     println!("  outlying in {} (rd={:.4})", finding.subspace, finding.rd);
//! }
//! ```

pub mod config;
pub mod detector;
pub mod drift;
pub mod evaluator;
pub mod snapshot;
pub mod sst;
pub mod verdict;

pub use config::{DriftConfig, EvolutionConfig, SpotBuilder, SpotConfig, Thresholds};
pub use detector::{Spot, SynopsisFootprint};
pub use drift::PageHinkley;
pub use evaluator::{SparsityProblem, SparsityScratch, TrainingEvaluator};
pub use snapshot::{restore_from_bytes, SpotCheckpoint, CHECKPOINT_BINARY_VERSION};
pub use sst::Sst;
pub use verdict::{EvalPlan, LearningReport, SpotStats, SubspaceFinding, Verdict, VerdictScreen};

// Re-export the substrate crates so downstream users need a single
// dependency.
pub use spot_moga as moga;
pub use spot_stream as stream;
pub use spot_subspace as subspace;
pub use spot_synopsis as synopsis;
pub use spot_types as types;
