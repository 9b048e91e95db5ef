//! # spot-serve — the SPOT fleet's HTTP service plane
//!
//! The paper frames SPOT as a *deployed* detector for live streams; this
//! crate is the deployment surface. It exposes a [`SpotFleet`] over
//! HTTP/1.1 — hand-rolled on `std::net` because the workspace vendors
//! every dependency — with robustness as the design driver:
//!
//! - **Backpressure maps to the protocol.** A full tenant queue is `429`
//!   with a `Retry-After` derived from queue occupancy; a quarantined
//!   tenant is `503`; an unknown tenant is `404`; a draining fleet is
//!   `503` via the typed [`SpotError::ShuttingDown`] admission gate.
//! - **Every edge has a deadline.** Slow-loris reads trip a per-request
//!   deadline, responses have write budgets, idle keep-alive connections
//!   expire, and accepted connections are capped with accept-time `503`
//!   shedding.
//! - **Observability never blocks.** `/healthz`, `/readyz`, `/stats`, and
//!   per-tenant stats ride the fleet's monitoring plane (per-tenant
//!   stats snapshots + atomic mirrors), never a detector lock.
//! - **Shutdown loses nothing admitted.** The graceful drain gates
//!   admission, finishes in-flight requests under a deadline, drains all
//!   tenant queues in arrival order, and takes a final durable
//!   checkpoint.
//!
//! - **Points cross the wire as bits.** Ingest takes `Content-Type:
//!   application/x-spot-points` (`dims: u32` LE, then f64 bit patterns
//!   LE, the WAL's lanes), so `±∞` arrives as sent; any other content
//!   type is the JSON body. Both pass one validation before admission.
//!
//! [`ServeClient`] is the matching in-tree client (deterministic
//! exponential backoff, `Retry-After` honoring, resumable at-least-once
//! batch ingest over f64 lanes), and [`netfault`] extends the runtime's
//! deterministic fault-injection philosophy to the wire. See
//! `docs/service.md` for the full protocol.
//!
//! ```no_run
//! use spot_runtime::{FleetConfig, SpotFleet};
//! use spot_serve::SpotServer;
//!
//! let fleet = SpotFleet::new(FleetConfig::default());
//! let server = SpotServer::builder(fleet).bind("127.0.0.1:0")?;
//! println!("serving on {}", server.local_addr());
//! let report = server.shutdown()?;
//! assert_eq!(report.forced_closes, 0);
//! # Ok::<(), spot_types::SpotError>(())
//! ```
//!
//! [`SpotFleet`]: spot_runtime::SpotFleet
//! [`SpotError::ShuttingDown`]: spot_types::SpotError::ShuttingDown

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod netfault;
mod points;
mod router;
mod server;

pub use client::{ClientError, IngestReport, RetryPolicy, ServeClient};
pub use http::{HttpLimits, Method, Request, Response};
pub use netfault::{inject, FaultOutcome, NetFault};
pub use router::{retry_after_secs, status_for};
pub use server::{
    ServeConfig, ServerBuilder, ServerStats, ShutdownReport, SpotServer, VerdictSink,
};
