//! Deterministic fault injection for the fleet supervision plane.
//!
//! Robustness code is only trustworthy if its failure paths are exercised,
//! and failure paths are only testable if faults fire at *reproducible*
//! points. A [`FaultPlan`] scripts faults against deterministic per-tenant
//! ordinals — "panic while processing tenant A's 37th detection-stage
//! point", "fail tenant A's next 2 recovery attempts", "crash the WAL writer
//! mid-`write` of record 12, keeping 5 bytes" — in the same spirit as the
//! repo's `CounterRng`: no wall clock, no thread identity, no randomness
//! at fire time. Armed via `SpotFleet::arm_faults`, the plan produces the
//! same quarantine/recovery trace on every run.
//!
//! Checkpoint *file* corruption is not injected here: it is a property of
//! bytes at rest, not of execution order, so the store exposes it directly
//! as `CheckpointStore::corrupt`.

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

/// How an injected crash damages a WAL append (see `docs/robustness.md`
/// for the file state each leaves behind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalFault {
    /// The record reaches stable storage; the process dies before the
    /// point is enqueued/acknowledged. Recovery must replay it.
    KillAfterAppend,
    /// The crash lands mid-`write`: only the frame's first `keep_bytes`
    /// bytes reach the file — the torn tail recovery truncates away.
    TornWrite {
        /// Frame prefix length that survives (clamped to the frame).
        keep_bytes: usize,
    },
    /// The fsync fails and the process dies with it: everything since the
    /// last successful sync is lost from the file.
    FailFsync,
}

/// A scripted WAL crash: fires when the writer appends the record with
/// this sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WalFaultAt {
    seq: u64,
    fault: WalFault,
    fired: bool,
}

#[derive(Debug, Clone, Default)]
struct TenantFaults {
    panics: Vec<PanicFault>,
    /// Remaining recovery attempts to fail.
    recovery_failures: u32,
    /// Scripted WAL append crashes, keyed by record sequence number.
    wal_faults: Vec<WalFaultAt>,
    /// 0-based segment-rotation ordinals at which the writer crashes
    /// mid-rotation.
    rotation_crashes: Vec<u64>,
    /// Detection-stage points handed to the guarded runner so far.
    points_seen: u64,
    /// Segment rotations observed so far.
    rotations_seen: u64,
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
    /// Pending crash-between-checkpoint-and-prune injections (fleet-wide:
    /// the prune pass is one operation over every tenant).
    prune_crashes: u32,
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

    /// Crash the WAL writer right after the record with sequence number
    /// `seq` reaches stable storage, before the point is enqueued: the
    /// narrowest kill window — the point is durable but unacknowledged,
    /// and recovery must replay it.
    pub fn wal_kill_after_append(self, tenant: TenantId, seq: u64) -> Self {
        self.push_wal_fault(tenant, seq, WalFault::KillAfterAppend)
    }

    /// Crash the WAL writer mid-`write` of record `seq`: only the frame's
    /// first `keep_bytes` bytes reach the file (a torn tail recovery
    /// truncates away silently).
    pub fn wal_torn_write(self, tenant: TenantId, seq: u64, keep_bytes: usize) -> Self {
        self.push_wal_fault(tenant, seq, WalFault::TornWrite { keep_bytes })
    }

    /// Fail the fsync covering record `seq` and crash: everything
    /// appended since the last successful sync is lost from the file
    /// (the page cache never made it to stable storage).
    pub fn wal_fail_fsync(self, tenant: TenantId, seq: u64) -> Self {
        self.push_wal_fault(tenant, seq, WalFault::FailFsync)
    }

    /// Crash the WAL writer during its `nth` segment rotation (0-based):
    /// the old segment is sealed but the new segment's header is left
    /// half-written — the residue recovery drops whole.
    pub fn wal_crash_on_rotation(mut self, tenant: TenantId, nth: u64) -> Self {
        self.tenants
            .entry(tenant)
            .or_default()
            .rotation_crashes
            .push(nth);
        self
    }

    /// Crash the process between the next durable checkpoint's save and
    /// its WAL segment prune: the checkpoint is on disk, the behind-the-
    /// watermark segments are not yet deleted. Recovery must tolerate a
    /// log that reaches back before the watermark.
    pub fn crash_before_wal_prune(mut self) -> Self {
        self.prune_crashes += 1;
        self
    }

    fn push_wal_fault(mut self, tenant: TenantId, seq: u64, fault: WalFault) -> Self {
        self.tenants
            .entry(tenant)
            .or_default()
            .wal_faults
            .push(WalFaultAt {
                seq,
                fault,
                fired: false,
            });
        self
    }

    /// `true` when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.prune_crashes == 0
            && self.tenants.values().all(|t| {
                t.panics.is_empty()
                    && t.recovery_failures == 0
                    && t.wal_faults.is_empty()
                    && t.rotation_crashes.is_empty()
            })
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
    prune_crashes: Mutex<u32>,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            tenants: Mutex::new(plan.tenants),
            prune_crashes: Mutex::new(plan.prune_crashes),
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

    /// Consult the plan for the WAL append of record `seq` on `tenant`;
    /// a scripted crash is consumed (it fires once).
    pub(crate) fn take_wal_fault(&self, tenant: &TenantId, seq: u64) -> Option<WalFault> {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let faults = tenants.get_mut(tenant)?;
        faults
            .wal_faults
            .iter_mut()
            .find(|f| !f.fired && f.seq == seq)
            .map(|f| {
                f.fired = true;
                f.fault
            })
    }

    /// Consult the plan for one segment rotation on `tenant` (advances
    /// the tenant's rotation ordinal); returns `true` when the writer
    /// must crash mid-rotation.
    pub(crate) fn take_rotation_crash(&self, tenant: &TenantId) -> bool {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let Some(faults) = tenants.get_mut(tenant) else {
            return false;
        };
        let ordinal = faults.rotations_seen;
        faults.rotations_seen += 1;
        faults.rotation_crashes.contains(&ordinal)
    }

    /// Consult the plan for one checkpoint-then-prune pass; returns
    /// `true` (and consumes one scripted crash) when the process dies
    /// between the checkpoint save and the WAL prune.
    pub(crate) fn take_prune_crash(&self) -> bool {
        let mut left = self.prune_crashes.lock().unwrap_or_else(|e| e.into_inner());
        if *left > 0 {
            *left -= 1;
            true
        } else {
            false
        }
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
    fn wal_faults_fire_once_at_their_seq() {
        let inj = FaultInjector::new(
            FaultPlan::new()
                .wal_kill_after_append(tid("a"), 3)
                .wal_torn_write(tid("a"), 5, 7)
                .wal_fail_fsync(tid("b"), 0),
        );
        assert_eq!(inj.take_wal_fault(&tid("a"), 0), None);
        assert_eq!(
            inj.take_wal_fault(&tid("a"), 3),
            Some(WalFault::KillAfterAppend)
        );
        // Consumed: a resumed writer appending seq 3 again is clean.
        assert_eq!(inj.take_wal_fault(&tid("a"), 3), None);
        assert_eq!(
            inj.take_wal_fault(&tid("a"), 5),
            Some(WalFault::TornWrite { keep_bytes: 7 })
        );
        assert_eq!(inj.take_wal_fault(&tid("b"), 0), Some(WalFault::FailFsync));
        assert_eq!(inj.take_wal_fault(&tid("c"), 0), None);
    }

    #[test]
    fn rotation_and_prune_crashes_consult_ordinals() {
        let inj = FaultInjector::new(
            FaultPlan::new()
                .wal_crash_on_rotation(tid("a"), 1)
                .crash_before_wal_prune(),
        );
        assert!(!inj.take_rotation_crash(&tid("a"))); // rotation 0
        assert!(inj.take_rotation_crash(&tid("a"))); // rotation 1
        assert!(!inj.take_rotation_crash(&tid("a")));
        assert!(!inj.take_rotation_crash(&tid("b")));
        assert!(inj.take_prune_crash());
        assert!(!inj.take_prune_crash());
    }

    #[test]
    fn wal_plans_are_not_empty() {
        assert!(!FaultPlan::new()
            .wal_kill_after_append(tid("a"), 0)
            .is_empty());
        assert!(!FaultPlan::new().wal_torn_write(tid("a"), 0, 1).is_empty());
        assert!(!FaultPlan::new().wal_fail_fsync(tid("a"), 0).is_empty());
        assert!(!FaultPlan::new()
            .wal_crash_on_rotation(tid("a"), 0)
            .is_empty());
        assert!(!FaultPlan::new().crash_before_wal_prune().is_empty());
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
