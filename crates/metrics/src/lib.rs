//! Evaluation metrics, performance meters and reporting for SPOT.
//!
//! Everything the experiment harness (`spot-bench`) needs to quantify the
//! paper's two evaluation axes — *effectiveness* (precision/recall/F1,
//! ROC-AUC, average precision, subspace Jaccard) and *efficiency*
//! (throughput) — plus a fixed-width table printer so every bench target
//! can emit paper-style rows.

pub mod confusion;
pub mod perf;
pub mod ranking;
pub mod report;
pub mod subspace_match;

pub use confusion::ConfusionMatrix;
pub use perf::ThroughputMeter;
pub use ranking::{average_precision, roc_auc};
pub use report::Table;
pub use subspace_match::best_jaccard;
