//! Deterministic fault injection for the fleet supervision plane.
//!
//! Robustness code is only trustworthy if its failure paths are exercised,
//! and failure paths are only testable if faults fire at *reproducible*
//! points. A [`FaultPlan`] scripts faults against deterministic per-tenant
//! ordinals — "panic while processing tenant A's 37th detection-stage
//! point", "fail tenant A's next 2 recovery attempts" — in the same spirit
//! as the repo's `CounterRng`: no wall clock, no thread identity, no randomness
//! at fire time. Armed via `SpotFleet::arm_faults`, the plan produces the
//! same quarantine/recovery trace on every run.
//!
//! File damage is not injected here: it is a property of bytes at rest, not
//! of execution order. The checkpoint store exposes it directly as
//! `CheckpointStore::corrupt`, and a WAL crash state (a torn frame, a lost
//! unsynced tail, rotation residue, a skipped prune) is built by the crash
//! suite from a clean run's files.

use std::collections::HashMap;
use std::sync::Mutex;

use spot_types::TenantId;

/// A scripted panic: fires while processing the tenant's detection-stage
/// point with this 0-based ordinal (counted across all `process` /
/// `process_batch` / drain work since the plan was armed).
#[derive(Debug, Clone, PartialEq, Eq)]
struct PanicFault {
    ordinal: u64,
    fired: bool,
}

#[derive(Debug, Clone, Default)]
struct TenantFaults {
    panics: Vec<PanicFault>,
    /// Remaining recovery attempts to fail.
    recovery_failures: u32,
    /// Detection-stage points handed to the guarded runner so far.
    points_seen: u64,
}

/// A deterministic script of faults to inject into a `SpotFleet`.
///
/// Build with the chainable constructors, then arm with
/// `SpotFleet::arm_faults`. All ordinals are 0-based and count from the
/// moment the plan is armed. An empty plan injects nothing.
///
/// ```
/// use spot_runtime::FaultPlan;
/// use spot_types::TenantId;
///
/// let a = TenantId::new("tenant-a").expect("valid tenant id");
/// let plan = FaultPlan::new()
///     .panic_at(a.clone(), 37)
///     .fail_recovery(a, 2);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    tenants: HashMap<TenantId, TenantFaults>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panic while processing `tenant`'s detection-stage point number
    /// `ordinal` (0-based, counted across batches since arming). The panic
    /// fires *inside* the detector lock, after every earlier point of the
    /// batch has been applied — the realistic torn-state scenario.
    pub fn panic_at(mut self, tenant: TenantId, ordinal: u64) -> Self {
        self.tenants
            .entry(tenant)
            .or_default()
            .panics
            .push(PanicFault {
                ordinal,
                fired: false,
            });
        self
    }

    /// Fail `tenant`'s next `times` recovery attempts (the supervisor sees
    /// the restore fail and applies its backoff/retry budget).
    pub fn fail_recovery(mut self, tenant: TenantId, times: u32) -> Self {
        self.tenants.entry(tenant).or_default().recovery_failures += times;
        self
    }

    /// `true` when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.tenants
            .values()
            .all(|t| t.panics.is_empty() && t.recovery_failures == 0)
    }
}

/// The armed, stateful form of a [`FaultPlan`], owned by the fleet.
///
/// All consultation goes through a single mutex — fault injection is a
/// test-only facility, and the fleet checks an atomic "armed" flag before
/// touching it, so the production hot path stays lock-free.
#[derive(Debug, Default)]
pub(crate) struct FaultInjector {
    tenants: Mutex<HashMap<TenantId, TenantFaults>>,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            tenants: Mutex::new(plan.tenants),
        }
    }

    /// Consult the plan for a batch of `len` detection-stage points about
    /// to be processed for `tenant`. Advances the tenant's point cursor by
    /// `len` and returns the offset *within this batch* of the first
    /// scheduled panic, if any (consumed: it will not fire again).
    pub(crate) fn take_panic_offset(&self, tenant: &TenantId, len: usize) -> Option<usize> {
        if len == 0 {
            return None;
        }
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let faults = tenants.get_mut(tenant)?;
        let start = faults.points_seen;
        faults.points_seen += len as u64;
        let end = start + len as u64;
        let mut hit: Option<u64> = None;
        for p in faults.panics.iter_mut() {
            if !p.fired && p.ordinal >= start && p.ordinal < end {
                if hit.is_none_or(|h| p.ordinal < h) {
                    hit = Some(p.ordinal);
                }
                p.fired = true;
            }
        }
        hit.map(|ordinal| (ordinal - start) as usize)
    }

    /// Consult the plan for one recovery attempt on `tenant`; returns
    /// `true` (and consumes one scripted failure) when the attempt must
    /// fail.
    pub(crate) fn take_recovery_failure(&self, tenant: &TenantId) -> bool {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let Some(faults) = tenants.get_mut(tenant) else {
            return false;
        };
        if faults.recovery_failures > 0 {
            faults.recovery_failures -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(s: &str) -> TenantId {
        TenantId::new(s).expect("valid tenant id")
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new().panic_at(tid("a"), 0).is_empty());
        assert!(!FaultPlan::new().fail_recovery(tid("a"), 1).is_empty());
    }

    #[test]
    fn panic_offset_is_batch_relative_and_consumed_once() {
        let inj = FaultInjector::new(FaultPlan::new().panic_at(tid("a"), 7));
        // Points 0..5: no fault.
        assert_eq!(inj.take_panic_offset(&tid("a"), 5), None);
        // Points 5..10: ordinal 7 is offset 2.
        assert_eq!(inj.take_panic_offset(&tid("a"), 5), Some(2));
        // Consumed: later batches see nothing.
        assert_eq!(inj.take_panic_offset(&tid("a"), 100), None);
        // Other tenants are unaffected.
        assert_eq!(inj.take_panic_offset(&tid("b"), 100), None);
    }

    #[test]
    fn earliest_panic_in_batch_wins_and_later_one_still_consumed() {
        let inj = FaultInjector::new(FaultPlan::new().panic_at(tid("a"), 3).panic_at(tid("a"), 1));
        // Both ordinals fall in the first batch; the earliest fires and
        // both are consumed (the batch aborts at offset 1, so ordinal 3
        // never gets a chance to fire on a later replay of the cursor).
        assert_eq!(inj.take_panic_offset(&tid("a"), 10), Some(1));
        assert_eq!(inj.take_panic_offset(&tid("a"), 10), None);
    }

    #[test]
    fn recovery_failures_are_consumed() {
        let inj = FaultInjector::new(FaultPlan::new().fail_recovery(tid("a"), 2));
        assert!(inj.take_recovery_failure(&tid("a")));
        assert!(inj.take_recovery_failure(&tid("a")));
        assert!(!inj.take_recovery_failure(&tid("a")));
        assert!(!inj.take_recovery_failure(&tid("b")));
    }
}
