//! Streaming substrate for SPOT.
//!
//! Contains the paper's (ω, ε) window-based time model ([`time::TimeModel`])
//! with its lazily-decayed counters and the age-indexed table of its decay
//! factors ([`time::WeightCache`] — what the synopsis hot paths read
//! instead of calling `powi`), a logical clock, an exact sliding window kept
//! for baseline detectors and for quantifying the approximation error of the
//! (ω, ε) model (experiment E9), and the write-ahead-log segment codec plus
//! offline replay source ([`wal`]) shared with the `spot-runtime` ingestion
//! WAL.

pub mod clock;
pub mod sample;
pub mod time;
pub mod wal;
pub mod window;

pub use clock::LogicalClock;
pub use sample::{CounterRng, Reservoir};
pub use time::{DecayedCounter, TimeModel, WeightCache};
pub use wal::{WalScan, WalSource};
pub use window::ExactSlidingWindow;
