//! # spot-runtime — many detectors, one thread each
//!
//! SPOT (ICDE 2008) frames detection as a per-stream engine; a production
//! deployment serves *thousands* of independent streams — one detector per
//! tenant/sensor/model. This crate multiplexes those detectors over the
//! threads that call it:
//!
//! * [`SpotFleet`] — a registry of named, independently configured
//!   detectors ([`spot_types::TenantId`] keys). Each detector runs serially
//!   on whichever thread processes or drains it; different tenants run
//!   concurrently on different threads. That is the whole concurrency
//!   model: nothing inside one detector is split across threads.
//! * **Per-tenant bounded ingestion queues** — one per registration:
//!   [`SpotFleet::ingest`] pushes into the tenant's bounded queue
//!   (blocking once full: natural backpressure), [`SpotFleet::drain`]
//!   processes queued points in micro-batches, and
//!   [`SpotFleet::drain_with`] also hands each batch's verdicts to a
//!   consumer in commit order, whichever thread drains. The queue
//!   outlives a detector swap: an unwalled revive keeps the backlog, a
//!   restore empties it (a walled swap replays the log, backlog
//!   included, instead), and neither strands a producer waiting for
//!   room.
//! * **Off-lock monitoring** — [`SpotFleet::stats`] and
//!   [`SpotFleet::footprint`] aggregate every tenant's monitoring
//!   snapshot (its stats and footprint as of its last completed
//!   operation); they never take any tenant's detector lock.
//! * [`FleetCheckpoint`] — a versioned, per-tenant durable snapshot riding
//!   the `DurableState` substrate: each tenant's capture is the same
//!   bit-exact `SpotCheckpoint` bytes a standalone detector produces, and
//!   restores are per-tenant with typed errors for unknown tenants and
//!   unknown versions.
//!
//! **Determinism.** A tenant processed through the fleet emits bit-identical
//! verdicts, stats and footprint to a standalone `Spot` with the same
//! configuration and input, regardless of co-tenant load —
//! pinned by the proptest suite in `tests/fleet_determinism.rs`. See
//! `docs/runtime.md` for the ownership model and tenant lifecycle.
//!
//! **Supervision.** The fleet carries a fault-containment plane on top of
//! the registry:
//!
//! * **Panic isolation** — tenant detector work runs under a panic guard;
//!   a panic quarantines *only* that tenant
//!   ([`spot_types::SpotError::TenantPoisoned`]) while co-tenants stay
//!   bit-identical to a fault-free run ([`TenantHealth`]).
//! * **Self-healing** — every tenant registration keeps its last capture
//!   or install as its restore point; a [`Supervisor`] refreshes it on a
//!   cadence and revives quarantined tenants from it with bounded
//!   retries and deterministic exponential backoff, reporting each
//!   recovery as a [`RecoveryReport`] (`processed_at_shadow` is the
//!   restore point's position).
//! * **Backpressure** — a full tenant queue makes [`SpotFleet::ingest`]
//!   wait (holding no lock) and [`SpotFleet::try_ingest`] refuse; no
//!   admitted point is dropped, and a slow tenant stalls only its own
//!   producers.
//! * **Crash-safe checkpoint files** — [`CheckpointStore`] writes every
//!   generation as a full checkpoint in a checksum-sealed binary
//!   container, atomically (tmp + fsync + rename + directory fsync), and
//!   recovers from the newest *valid* retained generation.
//! * **Deterministic fault injection** — a [`FaultPlan`] scripts panics
//!   and recovery failures at exact ordinals, so chaos tests replay
//!   bit-identically. A WAL crash is bytes at rest, not execution order:
//!   the crash suite builds each crash state from a clean run's files.
//!   See `docs/robustness.md`.
//!
//! **Durability.** [`SpotFleet::enable_wal`] arms the fleet's segmented
//! write-ahead log, one log every tenant appends to: every admitted point
//! is appended (checksummed, synced every [`WalTuning::sync_every`]
//! records of a tenant, one sync covering every tenant) *before* it is
//! enqueued, checkpoints record
//! each tenant's replay watermark and prune sealed segments behind them,
//! and [`SpotFleet::recover`] restores the newest valid checkpoint then
//! replays each tenant's WAL tail in drain-sized micro-batches — the
//! post-crash verdict stream is bit-identical to an uncrashed run and no
//! admitted point is lost. A revive or restore replays the tail the same
//! way, into the new detector before it is swapped in. See [`wal`] and `docs/persistence.md`.

pub mod archive;
pub mod checkpoint;
pub mod faults;
pub mod fleet;
pub mod health;
pub mod supervisor;
pub mod wal;

#[cfg(test)]
mod concurrent;
#[cfg(test)]
mod segment_logs;

pub use archive::{ArchiveReplay, VerdictArchive};
pub use checkpoint::{CheckpointStore, FleetCheckpoint, FLEET_CHECKPOINT_VERSION};
pub use faults::FaultPlan;
pub use fleet::{FleetConfig, FleetFootprint, FleetStats, SpotFleet};
pub use health::{IngestOutcome, QuarantineInfo, RecoveryReport, TenantHealth};
pub use spot_types::TenantId;
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorPass};
pub use wal::{FleetRecovery, WalTuning};
