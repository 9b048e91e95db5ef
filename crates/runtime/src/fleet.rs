//! The multi-tenant fleet: a registry of independent detectors.
//!
//! # Fault containment
//!
//! Every path that runs tenant detector code (`process`, `process_batch`,
//! `drain`, `pump`) executes under a panic guard. A panic — the tenant's
//! own detector code or an injected fault — is caught, converted into a
//! typed [`SpotError::TenantPoisoned`], and **quarantines only that
//! tenant**: co-tenants keep executing, bit-identical to a run where the
//! faulted tenant never existed. A quarantined tenant's
//! in-memory detector is untrusted (the panic may have torn it mid-update
//! behind its non-poisoning lock), so every processing and checkpoint
//! operation fails until the tenant is restored from a checkpoint — see
//! [`SpotFleet::revive_tenant`] and the [`crate::Supervisor`] that
//! automates restoration. Ingestion keeps enqueuing for a quarantined
//! tenant (subject to its [`OverloadPolicy`]) so the backlog survives into
//! recovery.
//!
//! # Durability
//!
//! With [`SpotFleet::enable_wal`] every admitted point is appended to a
//! per-tenant write-ahead log *before* it is enqueued or processed (see
//! [`crate::wal`]). [`SpotFleet::checkpoint_durable`] saves a fleet
//! checkpoint that records each tenant's WAL watermark and prunes sealed
//! segments behind it; [`SpotFleet::recover`] rebuilds the fleet from the
//! newest valid checkpoint and replays the WAL tail, making the post-crash
//! verdict stream bit-identical to an uncrashed run — no admitted point is
//! lost. In-process faults get the same treatment: a WAL-backed
//! [`SpotFleet::revive_tenant`] replays the lost window instead of
//! dropping it.

use crate::checkpoint::{CheckpointStore, FleetCheckpoint};
use crate::faults::{FaultInjector, FaultPlan};
use crate::health::{IngestOutcome, OverloadPolicy, QuarantineInfo, TenantHealth};
use crate::wal::{tenant_dir_name, FleetRecovery, TenantWal, WalTuning};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use spot::{
    LearningReport, SharedSpot, Spot, SpotCheckpoint, SpotConfig, SpotStats, SynopsisFootprint,
    Verdict,
};
use spot_stream::wal::read_wal_from;
use spot_types::{DataPoint, Result, SpotError, TenantId};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Fleet-wide knobs. `Default` gives a 1024-point queue per tenant and
/// 256-point micro-batches (matching `Spot::BATCH_RUN`, so one drain pass
/// is one maintenance-bounded run in the common case).
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Capacity of each tenant's bounded ingestion queue (clamped to at
    /// least 1). What happens when the queue is full is the tenant's
    /// [`OverloadPolicy`]: block the producer (default), shed, or sample.
    pub queue_capacity: usize,
    /// Maximum points one [`SpotFleet::drain`] pass processes (clamped to
    /// at least 1).
    pub micro_batch: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            queue_capacity: 1024,
            micro_batch: 256,
        }
    }
}

/// Aggregated logical counters over every tenant, plus queue occupancy and
/// the supervision plane's fault/overload counters. Served entirely from
/// lock-free mirrors (each tenant's stats seqlock, queue counter, health
/// tag and overload atomics) — reading it never blocks, or is blocked by,
/// ingestion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Registered tenants.
    pub tenants: usize,
    /// Tenants currently quarantined after a panic.
    pub quarantined: usize,
    /// Tenants marked failed (recovery budget exhausted).
    pub failed: usize,
    /// Points waiting in tenant ingestion queues (not yet processed).
    pub queued: usize,
    /// Sum of [`SpotStats::processed`] over all tenants.
    pub processed: u64,
    /// Sum of [`SpotStats::outliers`] over all tenants.
    pub outliers: u64,
    /// Sum of [`SpotStats::evolutions`] over all tenants.
    pub evolutions: u64,
    /// Sum of [`SpotStats::os_added`] over all tenants.
    pub os_added: u64,
    /// Sum of [`SpotStats::drift_events`] over all tenants.
    pub drift_events: u64,
    /// Sum of [`SpotStats::cells_pruned`] over all tenants.
    pub cells_pruned: u64,
    /// Points dropped by `Shed`/`Sample` overload policies, all tenants.
    pub shed: u64,
    /// Points admitted by the `Sample` policy's 1-in-k survivor slot.
    pub sampled_kept: u64,
    /// Tenant panics caught (each moved one tenant to quarantine).
    pub panics: u64,
    /// Successful tenant restorations ([`SpotFleet::revive_tenant`]).
    pub recoveries: u64,
    /// WAL prune attempts that failed after a durable checkpoint.
    /// Retained segments only cost replay time, so the checkpoint still
    /// succeeds — but a counter that keeps climbing means the log is not
    /// shrinking and disk usage is unbounded, which operators must see.
    pub wal_prune_failures: u64,
}

/// Aggregated synopsis memory over every tenant — from each tenant's
/// lock-free `LiveCounters` mirror; never touches a detector lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetFootprint {
    /// Registered tenants.
    pub tenants: usize,
    /// Always 0: no base store is kept. `benchmark/` reads the field by
    /// name; it goes with that package's next revision.
    pub base_cells: usize,
    /// Sum of populated projected cells.
    pub projected_cells: usize,
    /// Sum of approximate synopsis bytes.
    pub approx_bytes: usize,
}

// `Tenant::state` mirror values — a lock-free fast gate so healthy-path
// operations never touch the health mutex.
const HEALTH_HEALTHY: u8 = 0;
const HEALTH_QUARANTINED: u8 = 1;
const HEALTH_FAILED: u8 = 2;

// `Tenant::policy_kind` values (with `policy_k` carrying Sample's k).
const POLICY_BLOCK: u8 = 0;
const POLICY_SHED: u8 = 1;
const POLICY_SAMPLE: u8 = 2;

/// One registered tenant: the detector handle plus its bounded queue and
/// supervision-plane state.
struct Tenant {
    shared: SharedSpot,
    tx: Sender<DataPoint>,
    /// Drains are exclusive per tenant (points must commit in arrival
    /// order, so the guard is held through processing); concurrent drains
    /// of *different* tenants proceed freely. `None` after eviction — the
    /// dropped receiver is what unblocks producers stuck in a full-queue
    /// `send` (their `SendError` becomes `UnknownTenant`).
    rx: Mutex<Option<Receiver<DataPoint>>>,
    /// Points currently queued: incremented *before* the enqueue (rolled
    /// back on failure), decremented per dequeued point — so the counter
    /// never lags the channel and a concurrent drain cannot wrap it below
    /// zero. May transiently overcount by the producers currently blocked
    /// in `send`. A lock-free occupancy mirror for [`SpotFleet::stats`]
    /// (the channel itself exposes no length).
    queued: AtomicUsize,
    /// Full health state (quarantine reason, counters). Taken only on the
    /// unhealthy path and on transitions; `state` is the hot-path mirror.
    health: Mutex<TenantHealth>,
    /// Lock-free mirror of the health discriminant (`HEALTH_*`).
    state: AtomicU8,
    /// Overload policy, packed into atomics so `ingest` never locks:
    /// `policy_kind` is a `POLICY_*` tag, `policy_k` Sample's `keep_one_in`.
    policy_kind: AtomicU8,
    policy_k: AtomicU32,
    /// Full-queue encounters (drives the deterministic 1-in-k sampler).
    overflow_seen: AtomicU64,
    /// Points dropped by `Shed`/`Sample`.
    shed: AtomicU64,
    /// Points admitted through the `Sample` survivor slot.
    sampled_kept: AtomicU64,
    /// The tenant's write-ahead log, when the fleet has one enabled.
    /// `wal_on` is the lock-free hot-path mirror — with no WAL, ingestion
    /// checks one atomic and never touches the mutex.
    wal: Mutex<Option<Arc<TenantWal>>>,
    wal_on: AtomicBool,
    /// The detector's dimensionality (φ), captured at install so
    /// admission-side validators ([`SpotFleet::tenant_dims`]) never touch
    /// the detector lock.
    phi: usize,
}

impl Tenant {
    /// A fresh healthy tenant with default (`Block`) overload policy.
    fn fresh(spot: Spot, capacity: usize) -> Tenant {
        let phi = spot.config().phi();
        let (tx, rx) = bounded(capacity);
        Tenant {
            shared: SharedSpot::new(spot),
            tx,
            rx: Mutex::new(Some(rx)),
            queued: AtomicUsize::new(0),
            health: Mutex::new(TenantHealth::Healthy),
            state: AtomicU8::new(HEALTH_HEALTHY),
            policy_kind: AtomicU8::new(POLICY_BLOCK),
            policy_k: AtomicU32::new(1),
            overflow_seen: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            sampled_kept: AtomicU64::new(0),
            wal: Mutex::new(None),
            wal_on: AtomicBool::new(false),
            phi,
        }
    }

    /// The tenant's WAL handle, when one is attached (one atomic load on
    /// the common no-WAL path).
    fn wal_handle(&self) -> Option<Arc<TenantWal>> {
        if !self.wal_on.load(Ordering::Acquire) {
            return None;
        }
        self.wal.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn attach_wal(&self, wal: Arc<TenantWal>) {
        *self.wal.lock().unwrap_or_else(|e| e.into_inner()) = Some(wal);
        self.wal_on.store(true, Ordering::Release);
    }

    fn policy(&self) -> OverloadPolicy {
        match self.policy_kind.load(Ordering::Relaxed) {
            POLICY_SHED => OverloadPolicy::Shed,
            POLICY_SAMPLE => OverloadPolicy::Sample {
                keep_one_in: self.policy_k.load(Ordering::Relaxed).max(1),
            },
            _ => OverloadPolicy::Block,
        }
    }

    fn set_policy(&self, policy: OverloadPolicy) {
        let (kind, k) = match policy {
            OverloadPolicy::Block => (POLICY_BLOCK, 1),
            OverloadPolicy::Shed => (POLICY_SHED, 1),
            OverloadPolicy::Sample { keep_one_in } => (POLICY_SAMPLE, keep_one_in.max(1)),
        };
        self.policy_k.store(k, Ordering::Relaxed);
        self.policy_kind.store(kind, Ordering::Relaxed);
    }

    fn health_snapshot(&self) -> TenantHealth {
        self.health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Fleet-wide WAL settings, set once by `enable_wal`/`recover`: tenants
/// registered later get their log attached automatically.
#[derive(Clone)]
struct WalSettings {
    root: PathBuf,
    tuning: WalTuning,
}

/// What one [`SpotFleet::revive_tenant`] actually brought forward — the
/// supervisor uses the split to account `points_lost` correctly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReviveOutcome {
    /// Backlog points moved queue-to-queue (always 0 with a WAL).
    pub(crate) carried: u64,
    /// WAL records replayed past the restored position (0 without a WAL).
    pub(crate) replayed: u64,
    /// Whether the tenant has a WAL (replay-based recovery).
    pub(crate) walled: bool,
}

struct FleetInner {
    config: FleetConfig,
    tenants: RwLock<HashMap<TenantId, Arc<Tenant>>>,
    /// Armed fault plan (tests only). `faults_armed` is the lock-free
    /// fast flag consulted on hot paths; the mutex is touched only when a
    /// plan is actually armed.
    faults: Mutex<Option<Arc<FaultInjector>>>,
    faults_armed: AtomicBool,
    /// WAL root + tuning once the fleet's ingestion WAL is enabled.
    wal: Mutex<Option<WalSettings>>,
    /// Admission gate for graceful shutdown: once set, every
    /// `ingest`/`try_ingest`/`process`/`process_batch` call errors with
    /// [`SpotError::ShuttingDown`] while drains keep working — the drain
    /// phase sees a frozen backlog and loses nothing already admitted.
    shutting_down: AtomicBool,
    /// Tenant panics caught fleet-wide.
    panics: AtomicU64,
    /// Successful tenant restorations fleet-wide.
    recoveries: AtomicU64,
    /// WAL prune attempts that failed after a durable checkpoint
    /// (surfaced as [`FleetStats::wal_prune_failures`]).
    prune_failures: AtomicU64,
}

/// A registry of named, independent SPOT detectors.
///
/// Cloning the fleet clones a handle (the tenants are shared). Every
/// tenant keeps full single-stream semantics — its own configuration,
/// seed, SST, clock and stats — and runs on whichever thread processes or
/// drains it; different tenants run concurrently on different threads.
/// See the crate docs for the determinism guarantee and the module docs
/// for fault containment.
#[derive(Clone)]
pub struct SpotFleet {
    inner: Arc<FleetInner>,
}

impl SpotFleet {
    /// An empty fleet.
    pub fn new(config: FleetConfig) -> Self {
        SpotFleet {
            inner: Arc::new(FleetInner {
                config: FleetConfig {
                    queue_capacity: config.queue_capacity.max(1),
                    micro_batch: config.micro_batch.max(1),
                },
                tenants: RwLock::new(HashMap::new()),
                faults: Mutex::new(None),
                faults_armed: AtomicBool::new(false),
                wal: Mutex::new(None),
                shutting_down: AtomicBool::new(false),
                panics: AtomicU64::new(0),
                recoveries: AtomicU64::new(0),
                prune_failures: AtomicU64::new(0),
            }),
        }
    }

    /// The fleet's (clamped) configuration.
    pub fn config(&self) -> FleetConfig {
        self.inner.config
    }

    // ---- the shutdown gate ----------------------------------------------

    /// Closes the fleet's admission gates for a graceful shutdown: every
    /// subsequent [`SpotFleet::ingest`]/[`SpotFleet::try_ingest`]/
    /// [`SpotFleet::process`]/[`SpotFleet::process_batch`] call errors
    /// with [`SpotError::ShuttingDown`], while drains (and WAL replay)
    /// keep working so the frozen backlog can be flushed and
    /// checkpointed. Idempotent; [`SpotFleet::end_shutdown`] reopens the
    /// gates (e.g. when an operator aborts the shutdown).
    pub fn begin_shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::Release);
    }

    /// Reopens admission after [`SpotFleet::begin_shutdown`].
    pub fn end_shutdown(&self) {
        self.inner.shutting_down.store(false, Ordering::Release);
    }

    /// `true` while the admission gates are closed.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::Acquire)
    }

    /// The lock-free admission gate every ingestion path checks first.
    fn admission_gate(&self) -> Result<()> {
        if self.is_shutting_down() {
            Err(SpotError::ShuttingDown)
        } else {
            Ok(())
        }
    }

    // ---- registry -------------------------------------------------------

    /// Registers a new tenant with its own detector configuration. Errors
    /// with [`SpotError::DuplicateTenant`] when the name is taken.
    pub fn register(&self, id: TenantId, config: SpotConfig) -> Result<()> {
        self.install(id, Spot::new(config)?, false)
    }

    /// Registers a pre-built detector.
    pub fn register_spot(&self, id: TenantId, spot: Spot) -> Result<()> {
        self.install(id, spot, false)
    }

    fn install(&self, id: TenantId, spot: Spot, replace: bool) -> Result<()> {
        let tenant = Arc::new(Tenant::fresh(spot, self.inner.config.queue_capacity));
        // With a fleet WAL enabled, every tenant gets a log at install
        // time: opened fresh (base = the detector's current stream
        // position) or resumed from an existing directory (restore paths).
        if let Some(settings) = self.wal_settings() {
            let base = tenant.shared.stats().processed;
            let wal = TenantWal::open(
                settings.root.join(tenant_dir_name(&id)),
                base,
                settings.tuning,
            )?;
            tenant.attach_wal(Arc::new(wal));
        }
        let mut map = write_lock(&self.inner.tenants);
        if !replace && map.contains_key(&id) {
            return Err(SpotError::DuplicateTenant(id.to_string()));
        }
        map.insert(id, tenant);
        Ok(())
    }

    /// Removes a tenant, dropping its detector and discarding any points
    /// still queued. Errors with [`SpotError::UnknownTenant`]. Producers
    /// blocked in [`SpotFleet::ingest`] on the evicted tenant's full
    /// queue unblock with `UnknownTenant` (the queue's receiving half is
    /// dropped here, failing their pending `send`).
    pub fn evict(&self, id: &TenantId) -> Result<()> {
        let tenant = write_lock(&self.inner.tenants)
            .remove(id)
            .ok_or_else(|| SpotError::UnknownTenant(id.to_string()))?;
        // Disconnect the channel even if a blocked producer still holds
        // an `Arc<Tenant>` of its own — dropping the registry's Arc alone
        // would leave the receiver alive inside that clone.
        *tenant.rx.lock().unwrap_or_else(|e| e.into_inner()) = None;
        // An evicted tenant's log is dead weight (its detector is gone);
        // delete it so a future registration under the same id starts a
        // fresh log instead of resuming a stranger's.
        if let Some(settings) = self.wal_settings() {
            let _ = std::fs::remove_dir_all(settings.root.join(tenant_dir_name(id)));
        }
        Ok(())
    }

    /// Registered tenant ids, sorted (a stable order for reports and
    /// checkpoints).
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let map = read_lock(&self.inner.tenants);
        let mut ids: Vec<TenantId> = map.keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        read_lock(&self.inner.tenants).len()
    }

    /// `true` when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: &TenantId) -> bool {
        read_lock(&self.inner.tenants).contains_key(id)
    }

    fn tenant(&self, id: &TenantId) -> Result<Arc<Tenant>> {
        read_lock(&self.inner.tenants)
            .get(id)
            .cloned()
            .ok_or_else(|| SpotError::UnknownTenant(id.to_string()))
    }

    // ---- the supervision plane ------------------------------------------

    /// One tenant's health state (quarantine reason and counters included).
    pub fn health(&self, id: &TenantId) -> Result<TenantHealth> {
        Ok(self.tenant(id)?.health_snapshot())
    }

    /// One tenant's health discriminant as a static label —
    /// `"healthy"`/`"quarantined"`/`"failed"` — read from the lock-free
    /// state mirror. The monitoring-plane variant of
    /// [`SpotFleet::health`]: it can never block on (or be blocked by)
    /// the health mutex or any detector lock.
    pub fn health_tag(&self, id: &TenantId) -> Result<&'static str> {
        Ok(match self.tenant(id)?.state.load(Ordering::Acquire) {
            HEALTH_QUARANTINED => "quarantined",
            HEALTH_FAILED => "failed",
            _ => "healthy",
        })
    }

    /// Sets one tenant's overload policy (effective for subsequent
    /// [`SpotFleet::ingest`] calls; `Sample { keep_one_in: 0 }` is
    /// normalized to `1`). The policy survives [`SpotFleet::revive_tenant`]
    /// but not `restore_tenant`/`register` (those are fresh registrations).
    pub fn set_overload_policy(&self, id: &TenantId, policy: OverloadPolicy) -> Result<()> {
        self.tenant(id)?.set_policy(policy);
        Ok(())
    }

    /// One tenant's current overload policy.
    pub fn overload_policy(&self, id: &TenantId) -> Result<OverloadPolicy> {
        Ok(self.tenant(id)?.policy())
    }

    /// Arms a deterministic [`FaultPlan`] (replacing any previous plan,
    /// ordinal counters reset). Test harness facility: with no plan armed
    /// the hot paths check one atomic flag and nothing else.
    pub fn arm_faults(&self, plan: FaultPlan) {
        *self.inner.faults.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(Arc::new(FaultInjector::new(plan)));
        self.inner.faults_armed.store(true, Ordering::Release);
    }

    /// Disarms fault injection.
    pub fn disarm_faults(&self) {
        self.inner.faults_armed.store(false, Ordering::Release);
        *self.inner.faults.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    fn injector(&self) -> Option<Arc<FaultInjector>> {
        if !self.inner.faults_armed.load(Ordering::Acquire) {
            return None;
        }
        self.inner
            .faults
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn wal_settings(&self) -> Option<WalSettings> {
        self.inner
            .wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    // ---- the ingestion WAL ----------------------------------------------

    /// Enables the durable ingestion write-ahead log for this fleet: every
    /// point admitted from now on — `ingest`, `try_ingest`, `process`,
    /// `process_batch` — is appended to a per-tenant segmented log under
    /// `root` *before* it is enqueued or processed, so
    /// [`SpotFleet::recover`] can replay everything the crash took (see
    /// `crate::wal` and `docs/persistence.md`).
    ///
    /// Every currently registered tenant gets a log based at its current
    /// stream position (resuming an existing directory when one is
    /// present), and tenants registered later are covered automatically.
    /// Call before ingestion starts: enabling errors with
    /// [`SpotError::InvalidConfig`] when the WAL is already enabled or any
    /// tenant has queued-but-undrained points (those would never get log
    /// records).
    pub fn enable_wal(&self, root: impl Into<PathBuf>, tuning: WalTuning) -> Result<()> {
        let root = root.into();
        {
            let mut slot = self.inner.wal.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_some() {
                return Err(SpotError::InvalidConfig(
                    "the ingestion WAL is already enabled for this fleet".to_string(),
                ));
            }
            *slot = Some(WalSettings {
                root: root.clone(),
                tuning,
            });
        }
        for id in self.tenant_ids() {
            let Ok(tenant) = self.tenant(&id) else {
                continue;
            };
            if tenant.queued.load(Ordering::Relaxed) > 0 {
                return Err(SpotError::InvalidConfig(format!(
                    "tenant {id} has queued points; drain the fleet before enabling the WAL"
                )));
            }
            let base = tenant.shared.stats().processed;
            let wal = TenantWal::open(root.join(tenant_dir_name(&id)), base, tuning)?;
            tenant.attach_wal(Arc::new(wal));
        }
        Ok(())
    }

    /// `true` once [`SpotFleet::enable_wal`] (or recovery) armed the
    /// ingestion WAL.
    pub fn wal_enabled(&self) -> bool {
        self.wal_settings().is_some()
    }

    /// One tenant's WAL write position: records ever appended to its log
    /// (`None` when the fleet has no WAL). The replay watermark a
    /// checkpoint would record is `processed - base`, not this.
    pub fn wal_position(&self, id: &TenantId) -> Result<Option<u64>> {
        Ok(self.tenant(id)?.wal_handle().map(|w| w.position()))
    }

    /// One tenant's live WAL segment-file count (`None` without a WAL) —
    /// the observable pruning makes shrink.
    pub fn wal_segment_count(&self, id: &TenantId) -> Result<Option<usize>> {
        Ok(self.tenant(id)?.wal_handle().map(|w| w.segment_count()))
    }

    /// Consults the armed fault plan for one recovery attempt (supervisor
    /// hook; `false` when no plan is armed).
    pub(crate) fn recovery_attempt_must_fail(&self, id: &TenantId) -> bool {
        self.injector().is_some_and(|i| i.take_recovery_failure(id))
    }

    /// Transitions a quarantined tenant to the terminal `Failed` state
    /// (supervisor hook, called when the retry budget is exhausted).
    pub(crate) fn mark_failed(&self, id: &TenantId) -> Result<()> {
        let tenant = self.tenant(id)?;
        let mut health = tenant.health.lock().unwrap_or_else(|e| e.into_inner());
        if let TenantHealth::Quarantined(info) = &*health {
            *health = TenantHealth::Failed(info.clone());
            tenant.state.store(HEALTH_FAILED, Ordering::Release);
        }
        Ok(())
    }

    /// The lock-free unhealthy gate: errors with the tenant's quarantine
    /// reason when it is not `Healthy`.
    fn gate(&self, id: &TenantId, tenant: &Tenant) -> Result<()> {
        if tenant.state.load(Ordering::Acquire) == HEALTH_HEALTHY {
            return Ok(());
        }
        let health = tenant.health.lock().unwrap_or_else(|e| e.into_inner());
        match &*health {
            TenantHealth::Healthy => Ok(()),
            TenantHealth::Quarantined(info) | TenantHealth::Failed(info) => {
                Err(SpotError::TenantPoisoned {
                    tenant: id.to_string(),
                    panic: info.reason.clone(),
                })
            }
        }
    }

    /// Records a caught panic: quarantines the tenant (first report wins)
    /// and returns the typed error for the caller.
    fn quarantine(
        &self,
        id: &TenantId,
        tenant: &Tenant,
        reason: String,
        failed_batch: u64,
    ) -> SpotError {
        // The stats seqlock still holds the last *stable* publication: the
        // panicked operation never reached its publish step, so this read
        // cannot observe (or spin on) a torn write.
        let processed = tenant.shared.stats().processed;
        {
            let mut health = tenant.health.lock().unwrap_or_else(|e| e.into_inner());
            if health.is_healthy() {
                *health = TenantHealth::Quarantined(QuarantineInfo {
                    reason: reason.clone(),
                    processed,
                    failed_batch,
                });
                tenant.state.store(HEALTH_QUARANTINED, Ordering::Release);
                self.inner.panics.fetch_add(1, Ordering::Relaxed);
            }
        }
        SpotError::TenantPoisoned {
            tenant: id.to_string(),
            panic: reason,
        }
    }

    /// Runs tenant detector work under the panic guard. A panic anywhere
    /// inside quarantines this tenant only.
    fn run_guarded(
        &self,
        id: &TenantId,
        tenant: &Tenant,
        points: &[DataPoint],
    ) -> Result<Vec<Verdict>> {
        self.gate(id, tenant)?;
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let injected = self
            .injector()
            .and_then(|i| i.take_panic_offset(id, points.len()));
        // AssertUnwindSafe: on panic the tenant is quarantined and its
        // detector is never touched again until replaced from a checkpoint,
        // so the torn state the unwind leaves behind is unobservable.
        let outcome = catch_unwind(AssertUnwindSafe(|| match injected {
            Some(off) => tenant.shared.with(|s| {
                // Apply the pre-fault prefix first so the panic fires with
                // the detector genuinely mid-batch behind its lock — the
                // torn state a real fault produces.
                for p in &points[..off] {
                    s.process(p)?;
                }
                panic_any(format!(
                    "injected fault: panic at offset {off} of a {}-point batch for tenant {id}",
                    points.len()
                ))
            }),
            None if points.len() == 1 => tenant.shared.process(&points[0]).map(|v| vec![v]),
            None => tenant.shared.process_batch(points),
        }));
        match outcome {
            Ok(result) => result,
            Err(payload) => Err(self.quarantine(
                id,
                tenant,
                panic_message(payload.as_ref()),
                points.len() as u64,
            )),
        }
    }

    // ---- the tenant lifecycle: learn → ingest/drain → checkpoint --------

    /// Runs a tenant's learning stage, returning the same
    /// [`LearningReport`] a standalone detector produces. Errors with
    /// [`SpotError::TenantPoisoned`] on a quarantined tenant.
    pub fn learn(&self, id: &TenantId, training: &[DataPoint]) -> Result<LearningReport> {
        let tenant = self.tenant(id)?;
        self.gate(id, &tenant)?;
        tenant.shared.learn(training)
    }

    /// Processes one point synchronously (bypasses the queue; do not mix
    /// with queued ingestion for the same tenant unless the queue is
    /// drained first — verdict order is arrival order either way). Runs
    /// under the panic guard: a panic quarantines this tenant only.
    pub fn process(&self, id: &TenantId, point: &DataPoint) -> Result<Verdict> {
        self.admission_gate()?;
        let tenant = self.tenant(id)?;
        let mut verdicts = self.process_guarded(id, &tenant, std::slice::from_ref(point))?;
        Ok(verdicts.pop().expect("one verdict per point"))
    }

    /// Processes a batch synchronously, under the panic guard.
    pub fn process_batch(&self, id: &TenantId, points: &[DataPoint]) -> Result<Vec<Verdict>> {
        self.admission_gate()?;
        let tenant = self.tenant(id)?;
        self.process_guarded(id, &tenant, points)
    }

    /// The synchronous processing paths' WAL hook: with a log attached the
    /// points are appended *before* the detector runs (still under the
    /// appender lock, so log order is processing order), which means a
    /// panic mid-batch leaves them durable — [`SpotFleet::revive_tenant`]
    /// and [`SpotFleet::recover`] re-derive the lost verdicts from the
    /// log. The health gate runs before the append so a quarantined
    /// tenant's rejected points do not haunt the log.
    fn process_guarded(
        &self,
        id: &TenantId,
        tenant: &Tenant,
        points: &[DataPoint],
    ) -> Result<Vec<Verdict>> {
        let Some(wal) = tenant.wal_handle() else {
            return self.run_guarded(id, tenant, points);
        };
        let faults = self.injector();
        let mut ap = wal.appender();
        self.gate(id, tenant)?;
        for point in points {
            ap.append(id, point, faults.as_deref())?;
        }
        self.run_guarded(id, tenant, points)
    }

    /// Enqueues one point under the tenant's [`OverloadPolicy`]. With the
    /// default `Block` policy this **blocks** while the queue is full
    /// (backpressure: a slow tenant stalls its own producers, never the
    /// co-tenants) and always returns [`IngestOutcome::Enqueued`]; `Shed`
    /// and `Sample` never block and may return [`IngestOutcome::Shed`].
    /// Quarantined tenants still enqueue — the backlog is carried into the
    /// recovered tenant by [`SpotFleet::revive_tenant`].
    pub fn ingest(&self, id: &TenantId, point: DataPoint) -> Result<IngestOutcome> {
        self.admission_gate()?;
        let tenant = self.tenant(id)?;
        let policy = tenant.policy();
        // Scripted queue-full windows apply to the non-blocking policies
        // only: a blocking send on a queue with room returns immediately,
        // so a faked "full" has no observable Block behavior to test.
        let forced_full = !matches!(policy, OverloadPolicy::Block)
            && self.injector().is_some_and(|i| i.ingest_forced_full(id));
        if let Some(wal) = tenant.wal_handle() {
            return self.ingest_walled(id, &tenant, &wal, point, policy, forced_full);
        }
        match policy {
            OverloadPolicy::Block => {
                self.enqueue_blocking(id, &tenant, point)?;
                Ok(IngestOutcome::Enqueued)
            }
            OverloadPolicy::Shed => {
                let rejected = if forced_full {
                    Some(point)
                } else {
                    self.enqueue_nonblocking(id, &tenant, point)?
                };
                match rejected {
                    None => Ok(IngestOutcome::Enqueued),
                    Some(_) => {
                        tenant.overflow_seen.fetch_add(1, Ordering::Relaxed);
                        tenant.shed.fetch_add(1, Ordering::Relaxed);
                        Ok(IngestOutcome::Shed)
                    }
                }
            }
            OverloadPolicy::Sample { keep_one_in } => {
                let k = u64::from(keep_one_in.max(1));
                let rejected = if forced_full {
                    Some(point)
                } else {
                    self.enqueue_nonblocking(id, &tenant, point)?
                };
                match rejected {
                    None => Ok(IngestOutcome::Enqueued),
                    Some(point) => {
                        // Deterministic 1-in-k: admit full-queue encounters
                        // 0, k, 2k, … — a pure function of the encounter
                        // ordinal, independent of clocks and scheduling.
                        let n = tenant.overflow_seen.fetch_add(1, Ordering::Relaxed);
                        if n % k == 0 {
                            self.enqueue_blocking(id, &tenant, point)?;
                            tenant.sampled_kept.fetch_add(1, Ordering::Relaxed);
                            Ok(IngestOutcome::Enqueued)
                        } else {
                            tenant.shed.fetch_add(1, Ordering::Relaxed);
                            Ok(IngestOutcome::Shed)
                        }
                    }
                }
            }
        }
    }

    /// Non-blocking enqueue: `Ok(false)` when the queue is at capacity.
    /// Policy-independent (never sheds, never consults the fault plan for
    /// queue windows — injected WAL crashes still fire, as they would on
    /// any append).
    pub fn try_ingest(&self, id: &TenantId, point: DataPoint) -> Result<bool> {
        self.admission_gate()?;
        let tenant = self.tenant(id)?;
        let Some(wal) = tenant.wal_handle() else {
            return Ok(self.enqueue_nonblocking(id, &tenant, point)?.is_none());
        };
        let faults = self.injector();
        let mut ap = wal.appender();
        if tenant.queued.load(Ordering::Relaxed) >= self.inner.config.queue_capacity {
            return Ok(false);
        }
        ap.append(id, &point, faults.as_deref())?;
        self.enqueue_blocking(id, &tenant, point)?;
        Ok(true)
    }

    /// The queued ingestion path with a WAL attached: the point is
    /// appended to the log *before* it is enqueued, and the appender lock
    /// is held across both so the log's sequence order is exactly the
    /// queue's arrival order — the invariant that makes `processed -
    /// base_processed` a valid replay watermark. Shed points are *not*
    /// logged (they are not admitted, so recovery must not resurrect
    /// them). Capacity is pre-checked under the appender lock — producers
    /// are serialized by it, so a positive check cannot be invalidated
    /// before the enqueue (drains only make room) and the blocking send
    /// returns immediately.
    fn ingest_walled(
        &self,
        id: &TenantId,
        tenant: &Tenant,
        wal: &TenantWal,
        point: DataPoint,
        policy: OverloadPolicy,
        forced_full: bool,
    ) -> Result<IngestOutcome> {
        let faults = self.injector();
        let mut ap = wal.appender();
        let full = forced_full
            || tenant.queued.load(Ordering::Relaxed) >= self.inner.config.queue_capacity;
        match policy {
            OverloadPolicy::Block => {
                ap.append(id, &point, faults.as_deref())?;
                self.enqueue_blocking(id, tenant, point)?;
                Ok(IngestOutcome::Enqueued)
            }
            OverloadPolicy::Shed => {
                if full {
                    tenant.overflow_seen.fetch_add(1, Ordering::Relaxed);
                    tenant.shed.fetch_add(1, Ordering::Relaxed);
                    return Ok(IngestOutcome::Shed);
                }
                ap.append(id, &point, faults.as_deref())?;
                self.enqueue_blocking(id, tenant, point)?;
                Ok(IngestOutcome::Enqueued)
            }
            OverloadPolicy::Sample { keep_one_in } => {
                let k = u64::from(keep_one_in.max(1));
                if !full {
                    ap.append(id, &point, faults.as_deref())?;
                    self.enqueue_blocking(id, tenant, point)?;
                    return Ok(IngestOutcome::Enqueued);
                }
                let n = tenant.overflow_seen.fetch_add(1, Ordering::Relaxed);
                if n.is_multiple_of(k) {
                    ap.append(id, &point, faults.as_deref())?;
                    self.enqueue_blocking(id, tenant, point)?;
                    tenant.sampled_kept.fetch_add(1, Ordering::Relaxed);
                    Ok(IngestOutcome::Enqueued)
                } else {
                    tenant.shed.fetch_add(1, Ordering::Relaxed);
                    Ok(IngestOutcome::Shed)
                }
            }
        }
    }

    fn enqueue_blocking(&self, id: &TenantId, tenant: &Tenant, point: DataPoint) -> Result<()> {
        // Count before the send so a drain that pops the point immediately
        // can never decrement a counter that was not yet incremented.
        tenant.queued.fetch_add(1, Ordering::Relaxed);
        tenant.tx.send(point).map_err(|_| {
            tenant.queued.fetch_sub(1, Ordering::Relaxed);
            SpotError::UnknownTenant(id.to_string())
        })
    }

    /// `Ok(None)`: enqueued. `Ok(Some(point))`: queue full, point handed
    /// back to the caller (for the sampler's survivor slot).
    fn enqueue_nonblocking(
        &self,
        id: &TenantId,
        tenant: &Tenant,
        point: DataPoint,
    ) -> Result<Option<DataPoint>> {
        tenant.queued.fetch_add(1, Ordering::Relaxed);
        match tenant.tx.try_send(point) {
            Ok(()) => Ok(None),
            Err(TrySendError::Full(point)) => {
                tenant.queued.fetch_sub(1, Ordering::Relaxed);
                Ok(Some(point))
            }
            Err(TrySendError::Disconnected(_)) => {
                tenant.queued.fetch_sub(1, Ordering::Relaxed);
                Err(SpotError::UnknownTenant(id.to_string()))
            }
        }
    }

    /// Points currently queued for `id`.
    pub fn queue_len(&self, id: &TenantId) -> Result<usize> {
        Ok(self.tenant(id)?.queued.load(Ordering::Relaxed))
    }

    /// The tenant's dimensionality (φ), without touching the detector
    /// lock. Admission-side validators use this to reject malformed
    /// points *before* they are queued — the detector's own validation
    /// runs at drain time, where a bad point discards its whole
    /// micro-batch (see [`SpotFleet::drain`]).
    pub fn tenant_dims(&self, id: &TenantId) -> Result<usize> {
        Ok(self.tenant(id)?.phi)
    }

    /// Drains up to one micro-batch (`FleetConfig::micro_batch` points)
    /// from the tenant's queue and processes it, returning the verdicts in
    /// arrival order. An empty queue
    /// returns an empty vector. Call in a loop (or use
    /// [`SpotFleet::drain_fully`]) to exhaust a backlog.
    ///
    /// An error (e.g. a NaN point → [`SpotError::NonFiniteValue`])
    /// discards the dequeued micro-batch: the detector's all-or-nothing
    /// validation rejected it wholesale, and a poisoned batch cannot be
    /// replayed. Validate upstream when inputs are untrusted. A
    /// quarantined tenant errors with [`SpotError::TenantPoisoned`]
    /// *without* dequeuing — its backlog is preserved for recovery.
    pub fn drain(&self, id: &TenantId) -> Result<Vec<Verdict>> {
        let tenant = self.tenant(id)?;
        self.drain_tenant(id, &tenant)
    }

    /// Drains the tenant's current backlog (micro-batch at a time). The
    /// queued count is snapshotted **once**, and at most that many points
    /// are drained: a producer that keeps the queue full cannot turn this
    /// into an unbounded loop (the livelock the old drain-until-empty
    /// contract had). Points enqueued while the drain runs are left for
    /// the next call.
    pub fn drain_fully(&self, id: &TenantId) -> Result<Vec<Verdict>> {
        let tenant = self.tenant(id)?;
        // `queued` may transiently overcount by producers mid-`send`; the
        // empty-batch break below keeps that harmless (the drain ends as
        // soon as the channel runs dry).
        let mut remaining = tenant.queued.load(Ordering::Relaxed);
        let mut verdicts = Vec::new();
        while remaining > 0 {
            let batch = self.drain_tenant(id, &tenant)?;
            if batch.is_empty() {
                break;
            }
            remaining = remaining.saturating_sub(batch.len());
            verdicts.extend(batch);
        }
        Ok(verdicts)
    }

    /// One service pass over the whole fleet: drains up to one micro-batch
    /// from every tenant (sorted id order). The building block for a fleet
    /// service loop.
    ///
    /// Faults are **isolated, not propagated**: a tenant whose drain fails
    /// — quarantined after a panic, or a rejected batch — is reported as
    /// its own `(id, Err(..))` entry and the sweep continues; co-tenants
    /// are drained exactly as if the faulted tenant did not exist. Healthy
    /// tenants with nothing queued are omitted; a quarantined tenant is
    /// reported every pass until it recovers (or is evicted). Tenants
    /// evicted mid-pass are skipped.
    pub fn pump(&self) -> Vec<(TenantId, Result<Vec<Verdict>>)> {
        let mut out = Vec::new();
        for id in self.tenant_ids() {
            // A tenant evicted between the listing and the drain is skipped.
            let Ok(tenant) = self.tenant(&id) else {
                continue;
            };
            match self.drain_tenant(&id, &tenant) {
                Ok(verdicts) if verdicts.is_empty() => {}
                result => out.push((id, result)),
            }
        }
        out
    }

    fn drain_tenant(&self, id: &TenantId, tenant: &Tenant) -> Result<Vec<Verdict>> {
        // Gate *before* touching the queue: a quarantined tenant must not
        // consume its backlog — those points are carried into the
        // recovered tenant by `revive_tenant`.
        self.gate(id, tenant)?;
        // The rx guard is held through processing: it is what serializes
        // concurrent drains of this tenant, and releasing it between the
        // pop and the process_batch would let a second drainer commit a
        // later micro-batch first, breaking arrival order. Producers are
        // unaffected — they block on the channel's capacity, not this
        // lock. A panic inside `run_guarded` is caught *inside* this
        // frame, so the guard is released normally and the queue stays
        // drainable after recovery.
        let rx = tenant.rx.lock().unwrap_or_else(|e| e.into_inner());
        let Some(rx) = rx.as_ref() else {
            // Evicted while this caller still held an Arc to the entry.
            return Ok(Vec::new());
        };
        let mut batch: Vec<DataPoint> = Vec::new();
        while batch.len() < self.inner.config.micro_batch {
            match rx.try_recv() {
                Ok(p) => {
                    tenant.queued.fetch_sub(1, Ordering::Relaxed);
                    batch.push(p);
                }
                Err(_) => break,
            }
        }
        self.run_guarded(id, tenant, &batch)
    }

    // ---- monitoring (never takes a detector lock) -----------------------

    /// Aggregated logical counters + queue occupancy + supervision
    /// counters over every tenant. Reads each tenant's stats seqlock,
    /// queue counter and health/overload atomics only — never any detector
    /// lock, so dashboards cannot stall (or be stalled by) ingestion.
    pub fn stats(&self) -> FleetStats {
        let tenants: Vec<Arc<Tenant>> = read_lock(&self.inner.tenants).values().cloned().collect();
        let mut agg = FleetStats {
            tenants: tenants.len(),
            panics: self.inner.panics.load(Ordering::Relaxed),
            recoveries: self.inner.recoveries.load(Ordering::Relaxed),
            wal_prune_failures: self.inner.prune_failures.load(Ordering::Relaxed),
            ..FleetStats::default()
        };
        for t in &tenants {
            let s = t.shared.stats();
            match t.state.load(Ordering::Acquire) {
                HEALTH_QUARANTINED => agg.quarantined += 1,
                HEALTH_FAILED => agg.failed += 1,
                _ => {}
            }
            agg.queued += t.queued.load(Ordering::Relaxed);
            agg.processed += s.processed;
            agg.outliers += s.outliers;
            agg.evolutions += s.evolutions;
            agg.os_added += s.os_added;
            agg.drift_events += s.drift_events;
            agg.cells_pruned += s.cells_pruned;
            agg.shed += t.shed.load(Ordering::Relaxed);
            agg.sampled_kept += t.sampled_kept.load(Ordering::Relaxed);
        }
        agg
    }

    /// One tenant's logical counters (lock-free seqlock read).
    pub fn tenant_stats(&self, id: &TenantId) -> Result<SpotStats> {
        Ok(self.tenant(id)?.shared.stats())
    }

    /// Aggregated synopsis memory over every tenant (lock-free mirrors).
    pub fn footprint(&self) -> FleetFootprint {
        let tenants: Vec<Arc<Tenant>> = read_lock(&self.inner.tenants).values().cloned().collect();
        let mut agg = FleetFootprint {
            tenants: tenants.len(),
            ..FleetFootprint::default()
        };
        for t in &tenants {
            let f = t.shared.footprint();
            agg.projected_cells += f.projected_cells;
            agg.approx_bytes += f.approx_bytes;
        }
        agg
    }

    /// One tenant's synopsis footprint (lock-free mirror read).
    pub fn tenant_footprint(&self, id: &TenantId) -> Result<SynopsisFootprint> {
        Ok(self.tenant(id)?.shared.footprint())
    }

    /// Runs a closure with exclusive access to one tenant's detector (the
    /// escape hatch for anything the fleet API does not cover). Not
    /// health-gated and not panic-guarded: the caller sees the detector as
    /// it is, torn state included — check [`SpotFleet::health`] first when
    /// that matters.
    pub fn with_tenant<R>(&self, id: &TenantId, f: impl FnOnce(&mut Spot) -> R) -> Result<R> {
        Ok(self.tenant(id)?.shared.with(f))
    }

    // ---- durability -----------------------------------------------------

    /// Captures a versioned checkpoint of every **healthy** tenant (sorted
    /// id order). Each tenant's capture is the standard v2
    /// `SpotCheckpoint`, so a tenant restored from it is bit-exact,
    /// standalone or in any fleet.
    /// Quarantined/failed tenants are skipped: their in-memory state is
    /// untrusted and must not contaminate a checkpoint (restore them from
    /// a pre-fault shadow instead). Queued-but-undrained points are *not*
    /// part of the checkpoint (they have not been processed; drain first
    /// for a checkpoint at a chosen stream position).
    pub fn checkpoint(&self) -> FleetCheckpoint {
        let mut tenants = Vec::new();
        let mut wal_positions = Vec::new();
        for id in self.tenant_ids() {
            let Ok(tenant) = self.tenant(&id) else {
                continue;
            };
            if tenant.state.load(Ordering::Acquire) != HEALTH_HEALTHY {
                continue;
            }
            // Capture + position read under one detector lock hold: the
            // recorded WAL watermark must be the stream position of *this*
            // capture, not of whatever processed concurrently after it.
            let (cp, processed) = tenant
                .shared
                .with(|s| (s.checkpoint(), s.stats().processed));
            if let Some(wal) = tenant.wal_handle() {
                wal_positions.push((id.clone(), processed.saturating_sub(wal.base_processed())));
            }
            tenants.push((id, cp));
        }
        FleetCheckpoint::with_wal(tenants, wal_positions)
    }

    /// [`SpotFleet::checkpoint`] made durable: saves the capture into a
    /// [`CheckpointStore`] and then prunes every tenant's WAL behind the
    /// watermark the checkpoint recorded — sealed segments whose records
    /// are all covered by the saved state are deleted, which is what keeps
    /// log growth bounded by checkpoint cadence. A pruning failure does
    /// not fail the checkpoint (retained segments only cost replay time)
    /// but is counted in [`FleetStats::wal_prune_failures`]; the save
    /// itself is the durability point and its errors propagate. Returns
    /// the new checkpoint generation.
    pub fn checkpoint_durable(&self, store: &CheckpointStore) -> Result<u64> {
        let cp = self.checkpoint();
        let generation = store.save(&cp)?;
        if self.injector().is_some_and(|i| i.take_prune_crash()) {
            // The crash lands after the rename made the checkpoint
            // reachable but before any pruning: recovery must tolerate a
            // WAL that still holds records from *before* the watermark.
            self.kill_wals("injected crash between checkpoint save and WAL prune");
            return Ok(generation);
        }
        self.prune_wals(cp.wal_positions());
        Ok(generation)
    }

    /// Forwards to [`SpotFleet::checkpoint_durable`]: every generation is
    /// a full checkpoint. Kept because `benchmark/` calls it by name.
    pub fn checkpoint_durable_delta(&self, store: &CheckpointStore) -> Result<u64> {
        self.checkpoint_durable(store)
    }

    /// Prunes each listed tenant's WAL behind its checkpoint watermark,
    /// counting (not swallowing) failures.
    fn prune_wals(&self, positions: &[(TenantId, u64)]) {
        for (id, watermark) in positions {
            let Ok(tenant) = self.tenant(id) else {
                continue;
            };
            if let Some(wal) = tenant.wal_handle() {
                if wal.prune_to(*watermark).is_err() {
                    self.inner.prune_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Marks every tenant's WAL writer dead (crash simulation support).
    fn kill_wals(&self, reason: &str) {
        let tenants: Vec<Arc<Tenant>> = read_lock(&self.inner.tenants).values().cloned().collect();
        for t in &tenants {
            if let Some(wal) = t.wal_handle() {
                wal.kill(reason);
            }
        }
    }

    /// Captures one healthy tenant's checkpoint (the supervisor's shadow
    /// primitive). Errors with [`SpotError::TenantPoisoned`] when the
    /// tenant is quarantined/failed — a torn detector must never be
    /// checkpointed.
    pub fn checkpoint_tenant(&self, id: &TenantId) -> Result<SpotCheckpoint> {
        let tenant = self.tenant(id)?;
        self.gate(id, &tenant)?;
        Ok(tenant.shared.checkpoint())
    }

    /// Replaces a registered tenant's detector with one restored from a
    /// checkpoint, **carrying forward** everything the fault did not
    /// destroy, and marking it healthy. This is the recovery primitive the
    /// [`crate::Supervisor`] drives for quarantined tenants; it also works
    /// on a healthy tenant (a forced rollback). Errors with
    /// [`SpotError::UnknownTenant`] when `id` is not registered.
    ///
    /// Without a WAL the queued backlog is moved into the new queue
    /// (arrival order preserved — both queues share one capacity bound, so
    /// it always fits) and the returned count is the backlog carried; the
    /// window between the checkpoint's stream position and the fault is
    /// gone. **With a WAL** the log *is* the backlog: the retiring queue
    /// is discarded (every point in it is also in the log) and the log
    /// tail past the restored position — lost window, failed batch and
    /// backlog alike — is replayed through the normal processing path,
    /// re-deriving bit-identical verdicts; the returned count is the
    /// records replayed. Either way the overload policy and counters
    /// survive. The appender lock is held from the swap through the
    /// replay, so producers blocked on it resume only once the log and
    /// queue agree again.
    ///
    /// Without a WAL, points a producer ingests during the swap itself may
    /// land in the retiring queue and be dropped with it — drive recovery
    /// from the thread that also services the tenant, or pause its
    /// producers.
    pub fn revive_tenant(&self, id: &TenantId, cp: &SpotCheckpoint) -> Result<u64> {
        let outcome = self.revive_tenant_inner(id, cp)?;
        Ok(if outcome.walled {
            outcome.replayed
        } else {
            outcome.carried
        })
    }

    pub(crate) fn revive_tenant_inner(
        &self,
        id: &TenantId,
        cp: &SpotCheckpoint,
    ) -> Result<ReviveOutcome> {
        let spot = Spot::from_checkpoint(cp)?;
        let replacement = Arc::new(Tenant::fresh(spot, self.inner.config.queue_capacity));
        let mut carried = 0u64;
        // Hold the registry write lock across the backlog transfer so no
        // new `ingest` can resolve the retiring entry mid-swap.
        let mut map = write_lock(&self.inner.tenants);
        let old = map
            .get(id)
            .cloned()
            .ok_or_else(|| SpotError::UnknownTenant(id.to_string()))?;
        let wal = old.wal_handle();
        {
            let guard = old.rx.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(old_rx) = guard.as_ref() {
                while let Ok(p) = old_rx.try_recv() {
                    old.queued.fetch_sub(1, Ordering::Relaxed);
                    // Walled: the point is in the log at a sequence past
                    // the restored position — the replay below re-admits
                    // it; copying it into the new queue too would process
                    // it twice.
                    if wal.is_none() && replacement.tx.try_send(p).is_ok() {
                        carried += 1;
                    }
                }
            }
        }
        replacement
            .queued
            .store(carried as usize, Ordering::Relaxed);
        replacement.set_policy(old.policy());
        replacement
            .overflow_seen
            .store(old.overflow_seen.load(Ordering::Relaxed), Ordering::Relaxed);
        replacement
            .shed
            .store(old.shed.load(Ordering::Relaxed), Ordering::Relaxed);
        replacement
            .sampled_kept
            .store(old.sampled_kept.load(Ordering::Relaxed), Ordering::Relaxed);
        if let Some(w) = &wal {
            replacement.attach_wal(w.clone());
        }
        map.insert(id.clone(), replacement.clone());
        // Take the appender *before* releasing the registry lock: it
        // serializes the replay against producers, so anything admitted
        // after it releases is past the replayed tail and nothing is
        // processed twice. (A producer already blocked in
        // `enqueue_blocking` against the *retiring* queue is the
        // pre-existing swap caveat documented above.)
        let ap = wal.as_ref().map(|w| w.appender());
        drop(map);
        let mut replayed = 0u64;
        if let Some(w) = &wal {
            replayed = self.replay_wal_tail(id, &replacement, w)?;
        }
        drop(ap);
        self.inner.recoveries.fetch_add(1, Ordering::Relaxed);
        Ok(ReviveOutcome {
            carried,
            replayed,
            walled: wal.is_some(),
        })
    }

    /// Replays a tenant's WAL records past its detector's current stream
    /// position through the guarded processing path, returning how many
    /// were replayed. The re-derived verdicts are dropped — replay exists
    /// to rebuild detector state; determinism guarantees they are
    /// bit-identical to what the original stream produced (or would have).
    fn replay_wal_tail(&self, id: &TenantId, tenant: &Tenant, wal: &TenantWal) -> Result<u64> {
        let processed = tenant.shared.stats().processed;
        let watermark = processed.checked_sub(wal.base_processed()).ok_or_else(|| {
            SpotError::WalCorrupt(format!(
                "tenant {id}: restored stream position {processed} precedes the log base {}",
                wal.base_processed()
            ))
        })?;
        let tail = read_wal_from(wal.dir(), watermark)?;
        let mut replayed = 0u64;
        for chunk in tail.chunks(self.inner.config.micro_batch) {
            let points: Vec<DataPoint> = chunk.iter().map(|(_, p)| p.clone()).collect();
            self.run_guarded(id, tenant, &points)?;
            replayed += points.len() as u64;
        }
        Ok(replayed)
    }

    /// Restores one tenant from a fleet checkpoint, **replacing** any
    /// detector currently registered under the id (or registering it
    /// fresh). Errors with [`SpotError::UnknownTenant`] when the
    /// checkpoint holds no such tenant; the tenant's queue restarts empty
    /// (use [`SpotFleet::revive_tenant`] to carry a backlog).
    pub fn restore_tenant(&self, checkpoint: &FleetCheckpoint, id: &TenantId) -> Result<()> {
        let cp = checkpoint
            .get(id)
            .ok_or_else(|| SpotError::UnknownTenant(id.to_string()))?;
        self.install(id.clone(), Spot::from_checkpoint(cp)?, true)
    }

    /// Builds a fleet holding every tenant of the checkpoint.
    pub fn from_checkpoint(checkpoint: &FleetCheckpoint, config: FleetConfig) -> Result<Self> {
        let fleet = Self::new(config);
        for id in checkpoint.tenant_ids() {
            fleet.restore_tenant(checkpoint, &id)?;
        }
        Ok(fleet)
    }

    // ---- crash recovery -------------------------------------------------

    /// Rebuilds a fleet from a durable state directory after a crash:
    /// restores the newest valid checkpoint from `dir` (the
    /// [`CheckpointStore`] layout, sweeping stray `.tmp` files), then
    /// replays each tenant's WAL tail — everything admitted after that
    /// checkpoint — through the normal enqueue/drain path. Because replay
    /// re-derives state from the same points in the same order, the
    /// recovered fleet's subsequent verdict stream is **bit-identical** to
    /// an uncrashed run's: with the WAL enabled, a crash loses no admitted
    /// point.
    ///
    /// Works on every on-disk shape a crash can leave: no checkpoint at
    /// all (empty fleet, WAL dirs reported unclaimed), a torn newest
    /// checkpoint (falls back a generation and replays the longer tail),
    /// a torn WAL tail (truncated at the last valid record — those final
    /// unsynced points are the only possible loss, bounded by the
    /// [`FsyncPolicy`](crate::FsyncPolicy)), and a crash between
    /// checkpoint save and WAL prune
    /// (the stale log prefix behind the watermark is simply not replayed,
    /// then pruned at the next checkpoint). Errors with
    /// [`SpotError::WalCorrupt`] on real damage — a checksum-valid log
    /// that contradicts the checkpoint, or corruption *before* the tail.
    pub fn recover(dir: impl AsRef<Path>, config: FleetConfig) -> Result<(Self, FleetRecovery)> {
        Self::recover_with(dir, config, WalTuning::default(), DEFAULT_CHECKPOINT_RETAIN)
    }

    /// [`SpotFleet::recover`] with explicit WAL tuning and checkpoint
    /// retention (the recovered fleet keeps writing to the same directory
    /// with these settings).
    pub fn recover_with(
        dir: impl AsRef<Path>,
        config: FleetConfig,
        tuning: WalTuning,
        retain: usize,
    ) -> Result<(Self, FleetRecovery)> {
        let dir = dir.as_ref();
        let store = CheckpointStore::open(dir, retain)?;
        let swept_tmp = store.swept_tmp();
        let scan = store.load_latest()?;
        let (generation, checkpoint) = match scan.recovered {
            Some((g, cp)) => (Some(g), cp),
            None => (None, FleetCheckpoint::new(Vec::new())),
        };
        let fleet = Self::from_checkpoint(&checkpoint, config)?;
        let wal_root = dir.join("wal");
        *fleet.inner.wal.lock().unwrap_or_else(|e| e.into_inner()) = Some(WalSettings {
            root: wal_root.clone(),
            tuning,
        });
        let mut recovery = FleetRecovery {
            generation,
            rejected: scan.rejected,
            replayed: Vec::new(),
            unclaimed: Vec::new(),
            swept_tmp,
        };
        let chunk = fleet
            .inner
            .config
            .micro_batch
            .min(fleet.inner.config.queue_capacity)
            .max(1);
        for id in fleet.tenant_ids() {
            let tenant = fleet.tenant(&id)?;
            let processed = tenant.shared.stats().processed;
            let wal = Arc::new(TenantWal::open(
                wal_root.join(tenant_dir_name(&id)),
                processed,
                tuning,
            )?);
            let watermark = processed.checked_sub(wal.base_processed()).ok_or_else(|| {
                SpotError::WalCorrupt(format!(
                    "tenant {id}: checkpointed stream position {processed} precedes the log \
                     base {}",
                    wal.base_processed()
                ))
            })?;
            // Cross-check against the position the checkpoint recorded: a
            // mismatch means the log and the checkpoint are not from the
            // same run (an operator mixed directories) — replaying would
            // silently corrupt the detector.
            if let Some(recorded) = checkpoint.wal_position(&id) {
                if recorded != watermark {
                    return Err(SpotError::WalCorrupt(format!(
                        "tenant {id}: checkpoint generation {:?} records WAL position \
                         {recorded} but the log on disk implies {watermark}",
                        generation
                    )));
                }
            }
            let tail = read_wal_from(wal.dir(), watermark)?;
            tenant.attach_wal(wal);
            if tail.is_empty() {
                continue;
            }
            // Replay through the normal enqueue → drain path — the same
            // micro-batched guarded processing a live stream gets.
            let mut replayed = 0u64;
            for batch in tail.chunks(chunk) {
                for (_, point) in batch {
                    fleet.enqueue_blocking(&id, &tenant, point.clone())?;
                }
                fleet.drain_fully(&id)?;
                replayed += batch.len() as u64;
            }
            recovery.replayed.push((id.clone(), replayed));
        }
        // WAL directories with no tenant in the restored checkpoint:
        // surfaced, never silently deleted (the log may be the only
        // surviving copy of that tenant's data).
        let claimed: Vec<String> = fleet.tenant_ids().iter().map(tenant_dir_name).collect();
        if let Ok(entries) = std::fs::read_dir(&wal_root) {
            for entry in entries.flatten() {
                if !entry.path().is_dir() {
                    continue;
                }
                let name = entry.file_name().to_string_lossy().into_owned();
                if !claimed.contains(&name) {
                    recovery.unclaimed.push(name);
                }
            }
        }
        recovery.unclaimed.sort();
        Ok((fleet, recovery))
    }
}

/// Checkpoint generations [`SpotFleet::recover`] keeps by default.
const DEFAULT_CHECKPOINT_RETAIN: usize = 4;

// Lock-poisoning policy (audited with the supervision plane): every std
// lock in this module recovers the guard with `into_inner` instead of
// panicking. The compat `parking_lot` Mutex guarding each detector does
// the same, which means a panic inside detector code leaves a *usable
// lock around torn state* — that is exactly why a caught panic
// quarantines the tenant: the health gate, not lock poisoning, is what
// keeps torn state unobservable.
fn read_lock<'a, K, V>(
    lock: &'a RwLock<HashMap<K, V>>,
) -> std::sync::RwLockReadGuard<'a, HashMap<K, V>> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<'a, K, V>(
    lock: &'a RwLock<HashMap<K, V>>,
) -> std::sync::RwLockWriteGuard<'a, HashMap<K, V>> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Renders a caught panic's payload for [`SpotError::TenantPoisoned`]:
/// `&str` / `String` payloads verbatim (the common case — `panic!` with a
/// message), anything else as an opaque marker.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_renders_common_payloads() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&"owned".to_string()), "owned");
        assert_eq!(panic_message(&42u32), "non-string panic payload");
    }
}
