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
//! * **Per-tenant bounded ingestion queues** — [`SpotFleet::ingest`]
//!   enqueues into a bounded channel (blocking once full: natural
//!   backpressure), [`SpotFleet::drain`] processes queued points in
//!   micro-batches.
//! * **Off-lock monitoring** — [`SpotFleet::stats`] and
//!   [`SpotFleet::footprint`] aggregate every tenant's seqlock counters
//!   and lock-free footprint mirror; they never take any tenant's
//!   detector lock.
//! * [`FleetCheckpoint`] — a versioned, per-tenant durable snapshot riding
//!   the v2 `DurableState` substrate: each tenant's capture is the same
//!   bit-exact `SpotCheckpoint` a standalone detector produces, and
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
//! * **Self-healing** — a [`Supervisor`] keeps rolling per-tenant shadow
//!   checkpoints and auto-restores quarantined tenants with bounded
//!   retries and deterministic exponential backoff, reporting each
//!   recovery as a [`RecoveryReport`].
//! * **Graceful degradation** — per-tenant [`OverloadPolicy`] (block /
//!   shed / deterministic 1-in-k sampling) when a bounded queue fills.
//! * **Crash-safe checkpoint files** — [`CheckpointStore`] writes every
//!   generation as a full checkpoint in a checksum-sealed binary
//!   container, atomically (tmp + fsync + rename), and recovers from the
//!   newest *valid* retained generation.
//! * **Deterministic fault injection** — a [`FaultPlan`] scripts panics,
//!   queue-full windows, recovery failures and WAL crashes (kill after
//!   append, torn write, failed fsync, mid-rotation, between checkpoint
//!   and prune) at exact ordinals, so chaos tests replay bit-identically.
//!   See `docs/robustness.md`.
//!
//! **Durability.** [`SpotFleet::enable_wal`] arms a per-tenant segmented
//! write-ahead log: every admitted point is appended (checksummed,
//! fsync-policy-bounded) *before* it is enqueued, checkpoints record each
//! tenant's replay watermark and prune sealed segments behind it, and
//! [`SpotFleet::recover`] restores the newest valid checkpoint then
//! replays the WAL tail through the normal drain path — the post-crash
//! verdict stream is bit-identical to an uncrashed run and no admitted
//! point is lost. See [`wal`] and `docs/persistence.md`.

pub mod archive;
pub mod checkpoint;
pub mod faults;
pub mod fleet;
pub mod health;
pub mod supervisor;
pub mod wal;

pub use archive::{ArchiveReplay, VerdictArchive};
pub use checkpoint::{CheckpointStore, FleetCheckpoint, FLEET_CHECKPOINT_VERSION};
pub use faults::FaultPlan;
pub use fleet::{FleetConfig, FleetFootprint, FleetStats, SpotFleet};
pub use health::{IngestOutcome, OverloadPolicy, QuarantineInfo, RecoveryReport, TenantHealth};
pub use spot_types::TenantId;
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorPass};
pub use wal::{FleetRecovery, FsyncPolicy, WalTuning};
