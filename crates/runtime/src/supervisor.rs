//! Self-healing for the fleet: rolling restore points and automatic
//! restoration of quarantined tenants.
//!
//! The [`Supervisor`] wraps a [`SpotFleet`] and runs a *supervision pass*
//! ([`Supervisor::tick`]) alongside the normal service loop:
//!
//! 1. **Restore points.** Every tenant registration keeps its last
//!    capture or install as its restore point (see the fleet's module
//!    docs). The supervisor refreshes a healthy tenant's restore point
//!    with [`SpotFleet::checkpoint_tenant`] once the tenant has processed
//!    [`SupervisorConfig::shadow_every`] more points since it was taken;
//!    fleet checkpoints refresh it too. Captures happen only inside the
//!    supervision pass, never on the per-point hot path.
//! 2. **Recovery.** A quarantined tenant (see the fleet's panic isolation)
//!    is revived from its restore point via [`SpotFleet::revive_tenant`]
//!    with a fixed budget of three attempts and deterministic exponential
//!    backoff counted in *passes*, not wall-clock time (attempt `n`
//!    failing skips `2^(n-1)` passes: 1, then 2). Success yields a
//!    [`RecoveryReport`]; an exhausted budget — a tenant with no restore
//!    point included — transitions the tenant to the terminal
//!    [`TenantHealth::Failed`] state.
//!
//! The recovered tenant resumes from the restore point's stream position
//! (the report's `processed_at_shadow`) with its queued backlog still in
//! place; the verdicts between the restore point and the fault are lost
//! (the report's `points_lost` window) — replaying exactly that window
//! reconverges with the uninterrupted stream, which the chaos suite pins
//! bit-for-bit. **With the ingestion WAL enabled** (see
//! [`crate::SpotFleet::enable_wal`]) the revive replays that window from
//! the log itself: the report's `replayed` counts the re-derived records
//! and `points_lost` is `0`. Durable (on-disk) retention of checkpoints
//! is the separate [`crate::CheckpointStore`].

use crate::fleet::SpotFleet;
use crate::health::{QuarantineInfo, RecoveryReport, TenantHealth};
use spot::Verdict;
use spot_types::{Result, SpotError, TenantId};
use std::collections::HashMap;
use std::sync::Mutex;

/// Recovery attempts before a quarantined tenant is marked
/// [`TenantHealth::Failed`]. After failed attempt `n` the supervisor skips
/// `2^(n-1)` passes before the next one.
const MAX_RECOVERY_ATTEMPTS: u32 = 3;

/// Supervision knobs. `Default`: refresh restore points every 2048
/// processed points.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Refresh a tenant's restore point once it has processed this many
    /// points since it was taken (clamped to at least 1). Without a WAL,
    /// smaller values shrink the `points_lost` window; with one, they
    /// shorten the replay. Either way they cost more captures.
    pub shadow_every: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { shadow_every: 2048 }
    }
}

/// What one [`Supervisor::tick`] did.
#[derive(Debug, Clone, Default)]
pub struct SupervisorPass {
    /// Restore points captured this pass.
    pub shadows_taken: usize,
    /// Tenants restored to [`TenantHealth::Healthy`] this pass.
    pub recovered: Vec<RecoveryReport>,
    /// Tenants newly marked [`TenantHealth::Failed`] this pass.
    pub failed: Vec<TenantId>,
}

/// Per-tenant supervision ledger.
#[derive(Default)]
struct Guard {
    /// Recovery attempts made for the current quarantine.
    attempts: u32,
    /// Passes left to skip before the next recovery attempt.
    cooldown: u64,
    /// Backoff schedule applied so far for the current quarantine.
    backoff_log: Vec<u64>,
    /// Most recent successful recovery.
    last_recovery: Option<RecoveryReport>,
}

/// Restore-point refresher and automatic restorer for one fleet. Clone
/// the fleet handle in; the supervisor holds its own ledger and is safe to
/// drive from any single thread (internal state is mutex-guarded; run one
/// supervision loop — concurrent ticks would race their retry budgets).
pub struct Supervisor {
    fleet: SpotFleet,
    config: SupervisorConfig,
    guards: Mutex<HashMap<TenantId, Guard>>,
}

impl Supervisor {
    /// Wraps a fleet handle. Run [`Supervisor::tick`] periodically (e.g.
    /// after each `pump`, or use [`Supervisor::pump`]); the first tick
    /// captures a restore point for every healthy tenant without one —
    /// tick once right after learning so a tenant never faults without
    /// one.
    pub fn new(fleet: SpotFleet, config: SupervisorConfig) -> Self {
        Supervisor {
            fleet,
            config: SupervisorConfig {
                shadow_every: config.shadow_every.max(1),
            },
            guards: Mutex::new(HashMap::new()),
        }
    }

    /// The supervised fleet.
    pub fn fleet(&self) -> &SpotFleet {
        &self.fleet
    }

    /// The effective (clamped) configuration.
    pub fn config(&self) -> SupervisorConfig {
        self.config
    }

    /// One service pass: [`SpotFleet::pump`] followed by a supervision
    /// [`Supervisor::tick`].
    #[allow(clippy::type_complexity)]
    pub fn pump(&self) -> (Vec<(TenantId, Result<Vec<Verdict>>)>, SupervisorPass) {
        let drained = self.fleet.pump();
        (drained, self.tick())
    }

    /// One supervision pass over every registered tenant: refresh restore
    /// points of healthy tenants, advance backoff cooldowns, attempt
    /// recovery of quarantined tenants, and mark budget-exhausted ones
    /// failed.
    pub fn tick(&self) -> SupervisorPass {
        let mut pass = SupervisorPass::default();
        let ids = self.fleet.tenant_ids();
        let mut guards = self.guards.lock().unwrap_or_else(|e| e.into_inner());
        // Drop ledger entries of evicted tenants.
        guards.retain(|id, _| ids.binary_search(id).is_ok());
        for id in ids {
            let guard = guards.entry(id.clone()).or_default();
            let Ok(health) = self.fleet.health(&id) else {
                continue; // evicted mid-pass
            };
            match health {
                TenantHealth::Healthy => {
                    // A healthy sighting ends any quarantine bookkeeping
                    // (e.g. after a manual revive_tenant).
                    guard.attempts = 0;
                    guard.cooldown = 0;
                    guard.backoff_log.clear();
                    let processed = match self.fleet.tenant_stats(&id) {
                        Ok(s) => s.processed,
                        Err(_) => continue,
                    };
                    let due = self
                        .fleet
                        .restore_position(&id)
                        .is_none_or(|at| processed.saturating_sub(at) >= self.config.shadow_every);
                    // The capture can race a concurrent panic
                    // (checkpoint_tenant re-checks the gate); a lost race
                    // just means this pass takes no restore point.
                    if due && self.fleet.checkpoint_tenant(&id).is_ok() {
                        pass.shadows_taken += 1;
                    }
                }
                TenantHealth::Quarantined(info) => {
                    if guard.cooldown > 0 {
                        guard.cooldown -= 1;
                        continue;
                    }
                    self.attempt_recovery(&id, &info, guard, &mut pass);
                }
                TenantHealth::Failed(_) => {}
            }
        }
        pass
    }

    /// One recovery attempt for a quarantined tenant, updating the ledger
    /// and the pass summary.
    fn attempt_recovery(
        &self,
        id: &TenantId,
        info: &QuarantineInfo,
        guard: &mut Guard,
        pass: &mut SupervisorPass,
    ) {
        guard.attempts += 1;
        let revived = if self.fleet.recovery_attempt_must_fail(id) {
            Err(SpotError::TenantPoisoned {
                tenant: id.to_string(),
                panic: "injected fault: recovery attempt failed".to_string(),
            })
        } else {
            self.fleet.revive_tenant(id)
        };
        match revived {
            Ok(brought) => {
                let walled = self.fleet.wal_enabled();
                let restored_at = self.fleet.restore_position(id).unwrap_or(0);
                // With a WAL the revive replayed the log tail, re-deriving
                // everything between the restore point and the fault
                // (failed batch included): lost = whatever the replay did
                // *not* bring back past the pre-fault position. Without
                // one, the restore point → fault window is gone.
                let points_lost = if walled {
                    let now = self
                        .fleet
                        .tenant_stats(id)
                        .map(|s| s.processed)
                        .unwrap_or(0);
                    (info.processed + info.failed_batch).saturating_sub(now)
                } else {
                    info.processed.saturating_sub(restored_at) + info.failed_batch
                };
                let report = RecoveryReport {
                    tenant: id.clone(),
                    attempts: guard.attempts,
                    backoff: guard.backoff_log.clone(),
                    processed_at_shadow: restored_at,
                    processed_at_failure: info.processed,
                    points_lost,
                    backlog_carried: if walled { 0 } else { brought },
                    replayed: if walled { brought } else { 0 },
                };
                guard.attempts = 0;
                guard.cooldown = 0;
                guard.backoff_log.clear();
                guard.last_recovery = Some(report.clone());
                pass.recovered.push(report);
            }
            Err(_) => {
                if guard.attempts >= MAX_RECOVERY_ATTEMPTS {
                    let _ = self.fleet.mark_failed(id);
                    pass.failed.push(id.clone());
                } else {
                    let backoff = 1 << (guard.attempts - 1);
                    guard.cooldown = backoff;
                    guard.backoff_log.push(backoff);
                }
            }
        }
    }

    /// The most recent successful recovery of a tenant, if any.
    pub fn last_recovery(&self, id: &TenantId) -> Option<RecoveryReport> {
        let guards = self.guards.lock().unwrap_or_else(|e| e.into_inner());
        guards.get(id).and_then(|g| g.last_recovery.clone())
    }
}
