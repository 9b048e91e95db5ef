//! Tenant health states and recovery reporting — the vocabulary of the
//! fleet's supervision plane.
//!
//! A long-lived multi-tenant engine has to survive faults a single-stream
//! process never meets: one tenant's detector panicking mid-batch, one
//! tenant's producers outrunning its drain loop, a checkpoint file torn by
//! a crash. The types here describe how the fleet degrades — *per tenant*,
//! never fleet-wide:
//!
//! * [`TenantHealth`] — the per-tenant state machine
//!   (`Healthy → Quarantined → Healthy|Failed`): a panic quarantines only
//!   the tenant that panicked; co-tenants keep executing.
//! * [`RecoveryReport`] — what the [`crate::Supervisor`] did to bring a
//!   quarantined tenant back: attempts, the backoff schedule, and the
//!   window of points lost between the tenant's restore point and the
//!   fault.
//!
//! See `docs/robustness.md` for the full protocol.

use spot_types::TenantId;

/// Why a tenant is quarantined: the captured panic context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineInfo {
    /// The panic payload, rendered to text (`&str`/`String` payloads
    /// verbatim).
    pub reason: String,
    /// The tenant's `processed` counter at quarantine time, from its
    /// monitoring snapshot — the in-flight batch is *not* included; it
    /// never completed, so it published nothing.
    pub processed: u64,
    /// Points in the batch whose processing panicked. The caller received
    /// an error for them, not verdicts; they are part of the lost window.
    pub failed_batch: u64,
}

/// Per-tenant health state. Transitions:
///
/// ```text
///   Healthy ──panic──▶ Quarantined ──recovery──▶ Healthy
///                          │  ▲
///                  retry   │  │ backoff
///                  budget  ▼  │
///                        Failed   (terminal; evict or restore manually)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantHealth {
    /// Serving normally.
    Healthy,
    /// The tenant's detector panicked; its in-memory state is untrusted
    /// and every processing operation fails with
    /// [`spot_types::SpotError::TenantPoisoned`] until it is restored from
    /// a checkpoint. Ingestion still enqueues, so the backlog survives
    /// into recovery.
    Quarantined(QuarantineInfo),
    /// The supervisor exhausted its retry budget (a tenant with no restore
    /// point fails every attempt). Terminal: the tenant stays registered
    /// for inspection but serves nothing; evict it or restore it manually
    /// via `SpotFleet::revive_tenant`.
    Failed(QuarantineInfo),
}

impl TenantHealth {
    /// `true` for [`TenantHealth::Healthy`].
    pub fn is_healthy(&self) -> bool {
        matches!(self, TenantHealth::Healthy)
    }

    /// `true` for [`TenantHealth::Quarantined`].
    pub fn is_quarantined(&self) -> bool {
        matches!(self, TenantHealth::Quarantined(_))
    }

    /// `true` for [`TenantHealth::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, TenantHealth::Failed(_))
    }
}

/// Outcome of one [`crate::SpotFleet::ingest`] call: the point is queued,
/// the only way `ingest` returns `Ok`. `benchmark/` matches the variant by
/// name; the type goes with that package's next revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The point is in the tenant's queue (possibly after waiting for
    /// room).
    Enqueued,
}

/// What the supervisor did to bring one quarantined tenant back to
/// [`TenantHealth::Healthy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The recovered tenant.
    pub tenant: TenantId,
    /// Recovery attempts made, including the successful one.
    pub attempts: u32,
    /// The backoff schedule actually applied: supervision passes skipped
    /// before each retry (empty when the first attempt succeeded).
    pub backoff: Vec<u64>,
    /// The stream position of the restore point the tenant was revived
    /// from — its registration's last capture or install.
    pub processed_at_shadow: u64,
    /// The tenant's `processed` counter when it was quarantined (last
    /// stable publication before the panic).
    pub processed_at_failure: u64,
    /// Points whose verdicts are lost to the fault. Without a WAL this is
    /// `processed_at_failure - processed_at_shadow` plus the batch that
    /// panicked — re-feed this window (the caller still holds it; the
    /// failed batch erred, it was never acknowledged) to converge with
    /// the uninterrupted stream. **With the ingestion WAL enabled the
    /// recovery replays that window from the log and this is `0`.**
    pub points_lost: u64,
    /// Queued-but-undrained points the recovered tenant took over: the
    /// tenant's queue outlives the detector swap, so the backlog stays in
    /// place (arrival order preserved). `0` with a WAL — the queue is
    /// cleared and the backlog replayed from the log instead (counted in
    /// `replayed`).
    pub backlog_carried: u64,
    /// WAL records replayed to rebuild the lost window and backlog (`0`
    /// without a WAL).
    pub replayed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_predicates() {
        let info = QuarantineInfo {
            reason: "boom".to_string(),
            processed: 7,
            failed_batch: 3,
        };
        assert!(TenantHealth::Healthy.is_healthy());
        assert!(!TenantHealth::Healthy.is_quarantined());
        let q = TenantHealth::Quarantined(info.clone());
        assert!(q.is_quarantined() && !q.is_healthy() && !q.is_failed());
        let f = TenantHealth::Failed(info);
        assert!(f.is_failed() && !f.is_quarantined());
    }
}
