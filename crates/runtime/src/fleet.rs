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
//! behind its lock, whose poisoning the fleet ignores), so every
//! processing and checkpoint operation fails until the tenant is restored
//! from a checkpoint — see
//! [`SpotFleet::revive_tenant`] and the [`crate::Supervisor`] that
//! automates restoration. Ingestion keeps enqueuing for a quarantined
//! tenant so the backlog survives into recovery.
//!
//! # Restore points
//!
//! Every registration keeps its last capture ([`SpotFleet::checkpoint`],
//! [`SpotFleet::checkpoint_durable`], [`SpotFleet::checkpoint_tenant`])
//! or install as its restore point; a revive starts from it. Revive,
//! restore, [`SpotFleet::from_checkpoint`] and recovery put a checkpoint
//! into a tenant through one step: it builds the detector, replays the
//! tenant's log tail past the checkpoint into it when the fleet has a
//! WAL, and only then swaps it in — so a failed replay leaves the tenant
//! as it was, and a successful one leaves no admitted point behind.
//!
//! # Durability
//!
//! With [`SpotFleet::enable_wal`] every admitted point is appended to the
//! fleet's write-ahead log *before* it is enqueued or processed (see
//! [`crate::wal`]). [`SpotFleet::checkpoint_durable`] saves a fleet
//! checkpoint that records each tenant's WAL watermark and prunes sealed
//! segments behind it; [`SpotFleet::recover`] rebuilds the fleet from the
//! newest valid checkpoint and replays the WAL tail, making the post-crash
//! verdict stream bit-identical to an uncrashed run — no admitted point is
//! lost. In-process faults get the same treatment: a WAL-backed
//! [`SpotFleet::revive_tenant`] or [`SpotFleet::restore_tenant`] replays
//! the log to its end instead of dropping the window.

use crate::checkpoint::{CheckpointStore, FleetCheckpoint};
use crate::faults::{FaultInjector, FaultPlan};
use crate::health::{IngestOutcome, QuarantineInfo, TenantHealth};
use crate::wal::{FleetRecovery, FleetWal, WalTuning};
use spot::{
    LearningReport, Spot, SpotCheckpoint, SpotConfig, SpotStats, SynopsisFootprint, Verdict,
};
use spot_stream::wal::read_wal_from;
use spot_types::{admit_row, DataPoint, Result, SpotError, TenantId};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};

/// Fleet-wide knobs. `Default` gives a 1024-point queue per tenant and
/// 256-point micro-batches (matching `Spot::BATCH_RUN`, so one drain pass
/// is one maintenance-bounded run in the common case).
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Capacity of each tenant's bounded ingestion queue (clamped to at
    /// least 1). On a full queue [`SpotFleet::ingest`] waits for room and
    /// [`SpotFleet::try_ingest`] refuses.
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
/// the supervision plane's fault counters. Served from each tenant's
/// monitoring snapshot (published after every detector operation, so up
/// to one operation — one micro-batch — old), queue counter and health;
/// reading it never takes a detector lock.
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
    /// Always 0: a full queue drops no point ([`SpotFleet::ingest`] waits,
    /// [`SpotFleet::try_ingest`] refuses and the caller keeps the point).
    /// `benchmark/` reads the field by name; it goes with that package's
    /// next revision.
    pub shed: u64,
    /// Tenant panics caught (each quarantined the detector it hit; one in a
    /// revive's or restore's replay fails that call instead).
    pub panics: u64,
    /// Successful tenant restorations ([`SpotFleet::revive_tenant`]).
    pub recoveries: u64,
    /// WAL prune attempts that failed after a durable checkpoint.
    /// Retained segments only cost replay time, so the checkpoint still
    /// succeeds — but a counter that keeps climbing means the log is not
    /// shrinking and disk usage is unbounded, which operators must see.
    pub wal_prune_failures: u64,
    /// Syncs the fleet's WAL writer has issued (0 without a WAL): the
    /// `WalTuning::sync_every` syncs plus segment seals and headers,
    /// control frames and checkpoint syncs. One sync covers every
    /// tenant's records.
    pub wal_syncs: u64,
}

/// Aggregated synopsis memory over every tenant — from each tenant's
/// monitoring snapshot; never touches a detector lock.
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

/// A checkpoint a tenant can be revived from, with its stream position.
type RestorePoint = (u64, Arc<SpotCheckpoint>);

/// One tenant registration: the bounded queue where an admitted point
/// waits for its verdict, the admission lock, the monitoring snapshot and
/// the restore point. It lives as long as the registration: a revive or a
/// restore replaces the [`Tenant`] around it, so the backlog stays where it
/// is and a producer waiting for room wakes into the queue that is actually
/// drained. Eviction closes it.
///
/// Lock order: `admission` → `drains` → the registry → `queue`, and a
/// detector → `snapshot` / `restore_point`. The queue lock is held only to
/// push or pop — never across a WAL write or a detector call, so a drain
/// never waits behind a producer's fsync.
struct Inlet {
    capacity: usize,
    queue: Mutex<VecDeque<DataPoint>>,
    /// Exact occupancy, written under the queue lock: the lock-free read
    /// behind [`SpotFleet::queue_len`] and [`FleetStats::queued`].
    len: AtomicUsize,
    /// `false` once the tenant is evicted; written under the queue lock.
    open: AtomicBool,
    /// Signalled when a full queue gains room, and when the queue is
    /// cleared or closed.
    room: Condvar,
    /// Held from the room decision through the log append and the push,
    /// so the tenant's WAL order is its queue order; per tenant, so a
    /// producer's fsync or a replay never stalls a co-tenant. A producer
    /// waiting for room releases it. Every push, clear and close happens
    /// under it, so its holder sees the queue only shrink.
    admission: Mutex<()>,
    /// Held by a drain from pop to commit and delivery, so the tenant's
    /// points commit, and reach [`SpotFleet::drain_with`]'s caller, in
    /// arrival order; a revive or restore holds it while it replays and
    /// swaps the detector.
    drains: Mutex<()>,
    /// What monitoring reads instead of the detector: its stats and
    /// footprint as of the last completed operation. Written under the
    /// detector lock, after the operation returns, so a panicking one
    /// publishes nothing; a replay publishes its progress, and a failed
    /// install puts back what was shown before it.
    snapshot: Mutex<(SpotStats, SynopsisFootprint)>,
    /// The last capture or install, which a revive starts from.
    restore_point: Mutex<Option<RestorePoint>>,
}

impl Inlet {
    fn new(capacity: usize) -> Inlet {
        Inlet {
            capacity,
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            open: AtomicBool::new(true),
            room: Condvar::new(),
            admission: Mutex::new(()),
            drains: Mutex::new(()),
            snapshot: Mutex::new(Default::default()),
            restore_point: Mutex::new(None),
        }
    }

    fn admission(&self) -> MutexGuard<'_, ()> {
        lock(&self.admission)
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the queue has room, for the admission lock's holder;
    /// `None` once the inlet is closed.
    fn has_room(&self) -> Option<bool> {
        self.open
            .load(Ordering::Relaxed)
            .then(|| self.len() < self.capacity)
    }

    /// Waits for room holding no lock, then re-takes admission: the room
    /// lasts until the returned guard's holder pushes. `None` once the
    /// inlet is closed.
    fn wait_for_room<'a>(
        &'a self,
        mut admission: MutexGuard<'a, ()>,
    ) -> Option<MutexGuard<'a, ()>> {
        let waiting = |q: &mut VecDeque<DataPoint>| {
            self.open.load(Ordering::Relaxed) && q.len() >= self.capacity
        };
        loop {
            let mut queue = lock(&self.queue);
            if !waiting(&mut queue) {
                return self.open.load(Ordering::Relaxed).then_some(admission);
            }
            drop(admission);
            drop(
                self.room
                    .wait_while(queue, waiting)
                    .unwrap_or_else(|e| e.into_inner()),
            );
            admission = self.admission();
        }
    }

    /// Appends a point its caller found room for under the admission lock.
    fn push(&self, point: DataPoint) {
        let mut queue = lock(&self.queue);
        queue.push_back(point);
        self.len.store(queue.len(), Ordering::Relaxed);
    }

    /// Takes up to `max` points off the front in one lock hold.
    fn pop(&self, max: usize) -> Vec<DataPoint> {
        let mut queue = lock(&self.queue);
        let was_full = queue.len() >= self.capacity;
        let n = max.min(queue.len());
        let batch: Vec<DataPoint> = queue.drain(..n).collect();
        self.len.store(queue.len(), Ordering::Relaxed);
        drop(queue);
        // Producers wait only on a full queue.
        if was_full && n > 0 {
            self.room.notify_all();
        }
        batch
    }

    /// Drops the backlog — closing the inlet too when `close` — and wakes
    /// every producer waiting for room (into `UnknownTenant` once closed).
    /// The caller holds the admission lock.
    fn clear(&self, close: bool) {
        let mut queue = lock(&self.queue);
        queue.clear();
        self.len.store(0, Ordering::Relaxed);
        if close {
            self.open.store(false, Ordering::Relaxed);
        }
        drop(queue);
        self.room.notify_all();
    }
}

/// What a full queue does to a point in the admission body.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OnFull {
    /// The producer waits for room ([`SpotFleet::ingest`]).
    Wait,
    /// The point is refused ([`SpotFleet::try_ingest`]).
    Refuse,
}

/// One registered tenant's detector side — the detector and its health —
/// around the registration's [`Inlet`]. A revive or a restore replaces it
/// whole and keeps the inlet.
struct Tenant {
    /// The detector: one thread at a time runs it. A panic inside leaves
    /// the lock poisoned around torn state; [`lock`] takes it anyway and
    /// the health gate keeps the torn state unobservable.
    spot: Mutex<Spot>,
    /// The tenant's health, quarantine reason included. The only copy:
    /// taken on its own, never under the detector lock.
    health: Mutex<TenantHealth>,
    /// The detector's dimensionality (φ), captured at install so
    /// admission-side validators ([`SpotFleet::tenant_dims`]) never touch
    /// the detector lock.
    phi: usize,
    inlet: Arc<Inlet>,
}

impl Tenant {
    /// A healthy detector side around `inlet`, which shows its snapshot
    /// from now on.
    fn new(spot: Spot, inlet: Arc<Inlet>) -> Tenant {
        *lock(&inlet.snapshot) = snapshot(&spot);
        Tenant {
            phi: spot.config().phi(),
            spot: Mutex::new(spot),
            health: Mutex::new(TenantHealth::Healthy),
            inlet,
        }
    }

    /// `Spot::process_batch`'s admission rule — width φ, no NaN (±∞ is
    /// admitted) — checked before a point is logged or queued.
    fn admit(&self, point: &DataPoint) -> Result<()> {
        admit_row(point.values(), self.phi)
    }

    /// Runs `f` on the detector, then publishes the snapshot.
    fn with<R>(&self, f: impl FnOnce(&mut Spot) -> R) -> R {
        let mut spot = lock(&self.spot);
        let r = f(&mut spot);
        let shown = snapshot(&spot);
        *lock(&self.inlet.snapshot) = shown;
        r
    }

    fn stats(&self) -> SpotStats {
        lock(&self.inlet.snapshot).0
    }

    fn footprint(&self) -> SynopsisFootprint {
        lock(&self.inlet.snapshot).1
    }

    fn health(&self) -> TenantHealth {
        lock(&self.health).clone()
    }

    /// Captures the detector and makes the capture the registration's
    /// restore point. The detector lock is held until the restore point is
    /// set, so restore points follow capture order.
    fn capture(&self) -> RestorePoint {
        let spot = lock(&self.spot);
        let point = (spot.stats().processed, Arc::new(spot.checkpoint()));
        *lock(&self.inlet.restore_point) = Some(point.clone());
        point
    }
}

/// What an install does to the registration it lands in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Install {
    /// Keeps the backlog without a WAL.
    Revive,
    /// Drops it, as a fresh registration would have none.
    Restore,
}

struct FleetInner {
    config: FleetConfig,
    tenants: RwLock<HashMap<TenantId, Arc<Tenant>>>,
    /// Armed fault plan (tests only). `faults_armed` is the lock-free
    /// fast flag consulted on hot paths; the mutex is touched only when a
    /// plan is actually armed.
    faults: Mutex<Option<Arc<FaultInjector>>>,
    faults_armed: AtomicBool,
    /// The fleet's ingestion WAL, set once by `enable_wal` or `recover`;
    /// the hot path reads it without a lock.
    wal: OnceLock<Arc<FleetWal>>,
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
                wal: OnceLock::new(),
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
        let spot = Spot::new(config)?;
        let inlet = Arc::new(Inlet::new(self.inner.config.queue_capacity));
        self.install(&id, Arc::new(Tenant::new(spot, inlet)), true)
    }

    /// Puts `tenant` into the registry under `id`: as a new registration
    /// when `fresh`, else in place of the detector side around the same
    /// inlet. Errors with [`SpotError::DuplicateTenant`] when a fresh id is
    /// taken, and with [`SpotError::UnknownTenant`] when `id` no longer
    /// holds the inlet (evicted meanwhile).
    fn install(&self, id: &TenantId, tenant: Arc<Tenant>, fresh: bool) -> Result<()> {
        let mut map = write_lock(&self.inner.tenants);
        if fresh && map.contains_key(id) {
            return Err(SpotError::DuplicateTenant(id.to_string()));
        }
        if !fresh && !holds(&map, id, &tenant.inlet) {
            return Err(SpotError::UnknownTenant(id.to_string()));
        }
        // With the WAL enabled every tenant gets a stream at install time:
        // attached fresh (base = the detector's current stream position)
        // or resumed when the log already has one. Under the registry
        // lock, so `enable_wal` cannot miss it.
        if let Some(wal) = self.wal() {
            wal.attach(id, tenant.stats().processed)?;
        }
        map.insert(id.clone(), tenant);
        Ok(())
    }

    /// Removes a tenant, dropping its detector and discarding any points
    /// still queued. Errors with [`SpotError::UnknownTenant`]. Producers
    /// waiting in [`SpotFleet::ingest`] for room in the evicted tenant's
    /// queue return `UnknownTenant` (the eviction closes the queue).
    /// With the WAL, a synced "evicted" frame first closes the tenant's
    /// stream — after every record the tenant logged, since the frame is
    /// written under its admission lock: registering the id again starts
    /// a fresh stream.
    pub fn evict(&self, id: &TenantId) -> Result<()> {
        let inlet = Arc::clone(&self.tenant(id)?.inlet);
        let _admission = inlet.admission();
        if let Some(wal) = self.wal() {
            wal.evict(id)?;
        }
        let mut map = write_lock(&self.inner.tenants);
        if !holds(&map, id, &inlet) {
            return Err(SpotError::UnknownTenant(id.to_string()));
        }
        map.remove(id);
        drop(map);
        inlet.clear(true);
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
        Ok(self.tenant(id)?.health())
    }

    /// One tenant's health discriminant as a static label —
    /// `"healthy"`/`"quarantined"`/`"failed"`. Like [`SpotFleet::health`]
    /// it takes only the health lock, never a detector lock.
    pub fn health_tag(&self, id: &TenantId) -> Result<&'static str> {
        Ok(match *lock(&self.tenant(id)?.health) {
            TenantHealth::Healthy => "healthy",
            TenantHealth::Quarantined(_) => "quarantined",
            TenantHealth::Failed(_) => "failed",
        })
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

    fn wal(&self) -> Option<&Arc<FleetWal>> {
        self.inner.wal.get()
    }

    // ---- the ingestion WAL ----------------------------------------------

    /// Enables the durable ingestion write-ahead log for this fleet: every
    /// point admitted from now on — `ingest`, `try_ingest`, `process`,
    /// `process_batch` — is appended to one segmented log under `root`,
    /// shared by every tenant, *before* it is enqueued or processed, so
    /// [`SpotFleet::recover`] can replay everything the crash took (see
    /// `crate::wal` and `docs/persistence.md`).
    ///
    /// Every currently registered tenant gets a stream based at its
    /// current stream position (resuming its stream when `root` already
    /// holds a log), and tenants registered later are covered
    /// automatically. Call before ingestion starts: enabling errors with
    /// [`SpotError::InvalidConfig`] when the WAL is already enabled or any
    /// tenant has queued-but-undrained points (those would never get log
    /// records), and with [`SpotError::WalCorrupt`] when `root` holds the
    /// per-tenant log directories older builds wrote.
    pub fn enable_wal(&self, root: impl Into<PathBuf>, tuning: WalTuning) -> Result<()> {
        let root = root.into();
        // The registry lock keeps registrations out until every tenant
        // has its stream and the log is published.
        let map = write_lock(&self.inner.tenants);
        if self.wal().is_some() {
            return Err(SpotError::InvalidConfig(
                "the ingestion WAL is already enabled for this fleet".to_string(),
            ));
        }
        let mut ids: Vec<&TenantId> = map.keys().collect();
        ids.sort();
        if let Some(id) = ids.iter().find(|id| map[**id].inlet.len() > 0) {
            return Err(SpotError::InvalidConfig(format!(
                "tenant {id} has queued points; drain the fleet before enabling the WAL"
            )));
        }
        let (wal, _) = FleetWal::open(&root, tuning, |_| false)?;
        for id in ids {
            wal.attach(id, map[id].stats().processed)?;
        }
        let _ = self.inner.wal.set(Arc::new(wal));
        Ok(())
    }

    /// `true` once [`SpotFleet::enable_wal`] (or recovery) armed the
    /// ingestion WAL.
    pub fn wal_enabled(&self) -> bool {
        self.wal().is_some()
    }

    /// One tenant's WAL write position: records ever appended to its
    /// stream in the fleet's log (`None` when the fleet has no WAL). The
    /// replay watermark a checkpoint would record is `processed - base`,
    /// not this.
    pub fn wal_position(&self, id: &TenantId) -> Result<Option<u64>> {
        self.tenant(id)?;
        Ok(self.wal().and_then(|w| w.position(id)))
    }

    /// The fleet log's live segment-file count (`None` without a WAL) —
    /// the observable pruning makes shrink.
    pub fn wal_segment_count(&self) -> Option<usize> {
        self.wal().map(|w| w.segment_count())
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
        let mut health = lock(&tenant.health);
        if let TenantHealth::Quarantined(info) = &*health {
            *health = TenantHealth::Failed(info.clone());
        }
        Ok(())
    }

    /// The stream position of `id`'s restore point (supervisor hook).
    pub(crate) fn restore_position(&self, id: &TenantId) -> Option<u64> {
        let inlet = Arc::clone(&self.tenant(id).ok()?.inlet);
        let point = lock(&inlet.restore_point);
        point.as_ref().map(|(at, _)| *at)
    }

    /// The health gate: errors with the tenant's quarantine reason when it
    /// is not `Healthy`.
    fn gate(&self, id: &TenantId, tenant: &Tenant) -> Result<()> {
        match &*lock(&tenant.health) {
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
        // The snapshot holds the last completed operation's counters: the
        // panicked one never reached its publish step.
        let processed = tenant.stats().processed;
        {
            let mut health = lock(&tenant.health);
            if health.is_healthy() {
                *health = TenantHealth::Quarantined(QuarantineInfo {
                    reason: reason.clone(),
                    processed,
                    failed_batch,
                });
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
            Some(off) => tenant.with(|s| {
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
            None if points.len() == 1 => tenant.with(|s| s.process(&points[0])).map(|v| vec![v]),
            None => tenant.with(|s| s.process_batch(points)),
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
        tenant.with(|s| s.learn(training))
    }

    /// Processes one point synchronously (bypasses the queue; do not mix
    /// with queued ingestion for the same tenant unless the queue is
    /// drained first — verdict order is arrival order either way). Runs
    /// under the panic guard: a panic quarantines this tenant only.
    pub fn process(&self, id: &TenantId, point: &DataPoint) -> Result<Verdict> {
        let mut verdicts = self.process_batch(id, std::slice::from_ref(point))?;
        Ok(verdicts.pop().expect("one verdict per point"))
    }

    /// Processes a batch synchronously, under the panic guard.
    pub fn process_batch(&self, id: &TenantId, points: &[DataPoint]) -> Result<Vec<Verdict>> {
        self.admission_gate()?;
        self.process_guarded(id, points)
    }

    /// The synchronous processing paths' WAL hook: with a log the points
    /// are validated (a batch the detector would reject is refused whole)
    /// and appended *before* the detector runs, under the admission lock,
    /// so a panic mid-batch leaves them durable — [`SpotFleet::revive_tenant`]
    /// and [`SpotFleet::recover`] re-derive the lost verdicts from the
    /// log. The health gate runs before the append so a quarantined
    /// tenant's rejected points do not haunt the log.
    fn process_guarded(&self, id: &TenantId, points: &[DataPoint]) -> Result<Vec<Verdict>> {
        let tenant = self.tenant(id)?;
        let Some(wal) = self.wal() else {
            return self.run_guarded(id, &tenant, points);
        };
        points.iter().try_for_each(|p| tenant.admit(p))?;
        let _admission = tenant.inlet.admission();
        // A revive or restore may have swapped the detector while this
        // caller waited: the points go to the one registered now.
        let tenant = match self.tenant(id) {
            Ok(current) if Arc::ptr_eq(&current.inlet, &tenant.inlet) => current,
            _ => return Err(SpotError::UnknownTenant(id.to_string())),
        };
        self.gate(id, &tenant)?;
        for point in points {
            wal.append(id, point)?;
        }
        self.run_guarded(id, &tenant, points)
    }

    /// Enqueues one point, **waiting** while the tenant's queue is full
    /// (backpressure: a slow tenant stalls its own producers, never the
    /// co-tenants); the wait holds no lock, so revives, evictions,
    /// restores and checkpoints go ahead around it. Quarantined tenants
    /// still enqueue — the backlog stays in the tenant's queue through
    /// [`SpotFleet::revive_tenant`]. A point the detector would reject
    /// (width ≠ φ, a NaN) is refused with its typed error before it is
    /// logged or queued.
    pub fn ingest(&self, id: &TenantId, point: DataPoint) -> Result<IngestOutcome> {
        self.enqueue(id, point, OnFull::Wait)?;
        Ok(IngestOutcome::Enqueued)
    }

    /// Non-blocking enqueue: `Ok(false)` when the queue is at capacity,
    /// and the point is neither logged nor queued. Validates like
    /// [`SpotFleet::ingest`].
    pub fn try_ingest(&self, id: &TenantId, point: DataPoint) -> Result<bool> {
        self.enqueue(id, point, OnFull::Refuse)
    }

    /// The one admission body behind `ingest` and `try_ingest`, with or
    /// without a WAL. Under the tenant's admission lock it decides whether
    /// the queue has room, appends the point to the log if the fleet has
    /// one, then pushes it — so the tenant's log order is its queue order,
    /// the invariant that makes `processed - base_processed` a valid replay
    /// watermark. A point that must wait for room waits holding no lock
    /// and is logged only once it has its slot; a refused point is never
    /// logged, so recovery cannot resurrect it. `Ok(false)` is a refusal.
    fn enqueue(&self, id: &TenantId, point: DataPoint, on_full: OnFull) -> Result<bool> {
        self.admission_gate()?;
        let tenant = self.tenant(id)?;
        tenant.admit(&point)?;
        let inlet = &tenant.inlet;
        let closed = || SpotError::UnknownTenant(id.to_string());
        let mut admission = inlet.admission();
        if !inlet.has_room().ok_or_else(closed)? {
            if on_full == OnFull::Refuse {
                return Ok(false);
            }
            admission = inlet.wait_for_room(admission).ok_or_else(closed)?;
        }
        if let Some(wal) = self.wal() {
            wal.append(id, &point)?;
        }
        inlet.push(point);
        drop(admission);
        Ok(true)
    }

    /// Points currently queued for `id`.
    pub fn queue_len(&self, id: &TenantId) -> Result<usize> {
        Ok(self.tenant(id)?.inlet.len())
    }

    /// The tenant's dimensionality (φ), without touching the detector
    /// lock — the width [`SpotFleet::ingest`] admits. Admission-side
    /// validators (the HTTP router) use it to reject a malformed batch
    /// before ingesting any of it.
    pub fn tenant_dims(&self, id: &TenantId) -> Result<usize> {
        Ok(self.tenant(id)?.phi)
    }

    /// Drains up to one micro-batch (`FleetConfig::micro_batch` points)
    /// from the tenant's queue and processes it, returning the verdicts in
    /// arrival order. An empty queue
    /// returns an empty vector. Call in a loop (or use
    /// [`SpotFleet::drain_fully`]) to exhaust a backlog.
    ///
    /// Every queued point passed the detector's admission rule at
    /// [`SpotFleet::ingest`], so a healthy tenant's drain does not reject
    /// a micro-batch. A panic while processing it quarantines the tenant
    /// ([`SpotError::TenantPoisoned`]); with a WAL the batch is replayed
    /// from the log by [`SpotFleet::revive_tenant`], without one it is
    /// lost. A quarantined tenant errors with
    /// [`SpotError::TenantPoisoned`] *without* dequeuing — its backlog is
    /// preserved for recovery.
    pub fn drain(&self, id: &TenantId) -> Result<Vec<Verdict>> {
        let tenant = self.tenant(id)?;
        self.drain_tenant(id, &tenant, |_| {})
    }

    /// [`SpotFleet::drain`] that hands the micro-batch's verdicts to
    /// `deliver` while the tenant's drain lock is still held, and returns
    /// how many it handed over. Per tenant, `deliver` therefore runs in
    /// commit order and never concurrently, whichever threads drain — the
    /// ordering a verdict consumer fed from several drainers needs, with
    /// no lock of its own. Different tenants' calls run concurrently.
    ///
    /// `deliver` sees each committed micro-batch exactly once and is not
    /// called for an empty one. It runs under the drain lock, so it must
    /// not drain, revive or restore the same tenant; a panic in it unwinds
    /// to the caller after the batch committed.
    pub fn drain_with(&self, id: &TenantId, deliver: impl FnOnce(&[Verdict])) -> Result<usize> {
        let tenant = self.tenant(id)?;
        Ok(self.drain_tenant(id, &tenant, deliver)?.len())
    }

    /// Drains the tenant's current backlog (micro-batch at a time). The
    /// queued count is snapshotted **once**, and at most that many points
    /// are drained: a producer that keeps the queue full cannot turn this
    /// into an unbounded loop (the livelock the old drain-until-empty
    /// contract had). Points enqueued while the drain runs are left for
    /// the next call.
    ///
    /// On an error (the tenant quarantined mid-backlog) the micro-batches
    /// committed before it are **not** returned: their verdicts are lost
    /// to the caller, though the detector counted them. A caller that must
    /// see every committed verdict drains with [`SpotFleet::drain_with`].
    pub fn drain_fully(&self, id: &TenantId) -> Result<Vec<Verdict>> {
        let tenant = self.tenant(id)?;
        let mut remaining = tenant.inlet.len();
        let mut verdicts = Vec::new();
        while remaining > 0 {
            let batch = self.drain_tenant(id, &tenant, |_| {})?;
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
            match self.drain_tenant(&id, &tenant, |_| {}) {
                Ok(verdicts) if verdicts.is_empty() => {}
                result => out.push((id, result)),
            }
        }
        out
    }

    /// The one drain body: pops and commits up to one micro-batch and
    /// hands a non-empty batch's verdicts to `deliver` before the drain
    /// lock is released.
    fn drain_tenant(
        &self,
        id: &TenantId,
        tenant: &Tenant,
        deliver: impl FnOnce(&[Verdict]),
    ) -> Result<Vec<Verdict>> {
        // Lock-free exits first, as the pump polls every tenant. A
        // quarantined tenant keeps its backlog for the revived detector.
        self.gate(id, tenant)?;
        if tenant.inlet.len() == 0 {
            return Ok(Vec::new());
        }
        // Held from pop to delivery: a second drainer committing or
        // delivering a later micro-batch first would break arrival order.
        // A revive or restore swaps the detector only while holding it, so
        // the detector registered now — not necessarily `tenant`'s — is
        // the one to commit to. A panic inside `run_guarded` is caught
        // inside this frame; one in `deliver` poisons the lock, which
        // every taker ignores.
        let _drains = lock(&tenant.inlet.drains);
        let tenant = match self.tenant(id) {
            Ok(current) if Arc::ptr_eq(&current.inlet, &tenant.inlet) => current,
            // Evicted while this caller still held the entry.
            _ => return Ok(Vec::new()),
        };
        self.gate(id, &tenant)?;
        let batch = tenant.inlet.pop(self.inner.config.micro_batch);
        let verdicts = self.run_guarded(id, &tenant, &batch)?;
        if !verdicts.is_empty() {
            deliver(&verdicts);
        }
        Ok(verdicts)
    }

    // ---- monitoring (never takes a detector lock) -----------------------

    /// Aggregated logical counters + queue occupancy + supervision
    /// counters over every tenant. Reads each tenant's monitoring
    /// snapshot, queue length mirror and health only —
    /// never any detector lock, so dashboards cannot stall (or be stalled
    /// by) ingestion. A tenant's counters are those of its last completed
    /// operation: up to one micro-batch behind one in progress.
    pub fn stats(&self) -> FleetStats {
        let tenants: Vec<Arc<Tenant>> = read_lock(&self.inner.tenants).values().cloned().collect();
        let mut agg = FleetStats {
            tenants: tenants.len(),
            panics: self.inner.panics.load(Ordering::Relaxed),
            recoveries: self.inner.recoveries.load(Ordering::Relaxed),
            wal_prune_failures: self.inner.prune_failures.load(Ordering::Relaxed),
            wal_syncs: self.wal().map_or(0, |w| w.syncs()),
            ..FleetStats::default()
        };
        for t in &tenants {
            let s = t.stats();
            match *lock(&t.health) {
                TenantHealth::Healthy => {}
                TenantHealth::Quarantined(_) => agg.quarantined += 1,
                TenantHealth::Failed(_) => agg.failed += 1,
            }
            agg.queued += t.inlet.len();
            agg.processed += s.processed;
            agg.outliers += s.outliers;
            agg.evolutions += s.evolutions;
            agg.os_added += s.os_added;
            agg.drift_events += s.drift_events;
            agg.cells_pruned += s.cells_pruned;
        }
        agg
    }

    /// One tenant's logical counters, from its monitoring snapshot (never
    /// the detector lock).
    pub fn tenant_stats(&self, id: &TenantId) -> Result<SpotStats> {
        Ok(self.tenant(id)?.stats())
    }

    /// Aggregated synopsis memory over every tenant, from each tenant's
    /// monitoring snapshot (never a detector lock). At quiescence it is
    /// the exact sum of [`Spot::footprint`].
    pub fn footprint(&self) -> FleetFootprint {
        let tenants: Vec<Arc<Tenant>> = read_lock(&self.inner.tenants).values().cloned().collect();
        let mut agg = FleetFootprint {
            tenants: tenants.len(),
            ..FleetFootprint::default()
        };
        for t in &tenants {
            let f = t.footprint();
            agg.projected_cells += f.projected_cells;
            agg.approx_bytes += f.approx_bytes;
        }
        agg
    }

    /// One tenant's synopsis footprint, from its monitoring snapshot
    /// (never the detector lock).
    pub fn tenant_footprint(&self, id: &TenantId) -> Result<SynopsisFootprint> {
        Ok(self.tenant(id)?.footprint())
    }

    /// Runs a closure with exclusive access to one tenant's detector (the
    /// escape hatch for anything the fleet API does not cover). Not
    /// health-gated and not panic-guarded: the caller sees the detector as
    /// it is, torn state included — check [`SpotFleet::health`] first when
    /// that matters. The monitoring snapshot is published when `f`
    /// returns.
    pub fn with_tenant<R>(&self, id: &TenantId, f: impl FnOnce(&mut Spot) -> R) -> Result<R> {
        Ok(self.tenant(id)?.with(f))
    }

    // ---- durability -----------------------------------------------------

    /// Captures a versioned checkpoint of every **healthy** tenant (sorted
    /// id order). Each tenant's capture is the standard
    /// `SpotCheckpoint`, so a tenant restored from it is bit-exact,
    /// standalone or in any fleet, and becomes that tenant's restore
    /// point. Quarantined/failed tenants are skipped: their in-memory
    /// state is untrusted and must not contaminate a checkpoint (revive
    /// them from their restore point instead). Queued-but-undrained points
    /// are *not* part of the checkpoint (they have not been processed;
    /// drain first for a checkpoint at a chosen stream position).
    pub fn checkpoint(&self) -> FleetCheckpoint {
        let mut tenants = Vec::new();
        let mut wal_positions = Vec::new();
        for id in self.tenant_ids() {
            let Ok(tenant) = self.tenant(&id) else {
                continue;
            };
            if !lock(&tenant.health).is_healthy() {
                continue;
            }
            // The recorded WAL watermark is the stream position of *this*
            // capture, not of whatever processed concurrently after it.
            let (processed, cp) = tenant.capture();
            if let Some(base) = self.wal().and_then(|w| w.base_processed(&id)) {
                wal_positions.push((id.clone(), processed.saturating_sub(base)));
            }
            tenants.push((id, cp));
        }
        FleetCheckpoint::with_wal(tenants, wal_positions)
    }

    /// [`SpotFleet::checkpoint`] made durable: syncs the WAL (so every
    /// record behind the watermarks the capture records is on stable
    /// storage), saves the capture into a [`CheckpointStore`], and then
    /// prunes the log — sealed segments whose every record is covered by
    /// the saved state are deleted, which is what keeps log growth bounded
    /// by checkpoint cadence. Each watermark comes from the capture that
    /// is now its tenant's restore point, so a revive still finds its
    /// tail. A pruning failure does not fail the
    /// checkpoint (retained segments only cost replay time) but is counted
    /// in [`FleetStats::wal_prune_failures`]; the save itself is the
    /// durability point and its errors propagate. Returns the new
    /// checkpoint generation.
    pub fn checkpoint_durable(&self, store: &CheckpointStore) -> Result<u64> {
        let cp = self.checkpoint();
        if let Some(wal) = self.wal() {
            wal.sync()?;
        }
        let generation = store.save(&cp)?;
        if let Some(wal) = self.wal() {
            if wal.prune(cp.wal_positions()).is_err() {
                self.inner.prune_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(generation)
    }

    /// Forwards to [`SpotFleet::checkpoint_durable`]: every generation is
    /// a full checkpoint. Kept because `benchmark/` calls it by name.
    pub fn checkpoint_durable_delta(&self, store: &CheckpointStore) -> Result<u64> {
        self.checkpoint_durable(store)
    }

    /// Captures one healthy tenant's checkpoint and makes it the tenant's
    /// restore point (what the [`crate::Supervisor`] refreshes). Errors
    /// with [`SpotError::TenantPoisoned`] when the tenant is
    /// quarantined/failed — a torn detector must never be checkpointed.
    pub fn checkpoint_tenant(&self, id: &TenantId) -> Result<Arc<SpotCheckpoint>> {
        let tenant = self.tenant(id)?;
        self.gate(id, &tenant)?;
        Ok(tenant.capture().1)
    }

    /// Replaces a registered tenant's detector with one rebuilt from its
    /// restore point — the last capture or install — **carrying forward**
    /// everything the fault did not destroy, and marking it healthy. This
    /// is the recovery primitive the [`crate::Supervisor`] drives for
    /// quarantined tenants; it also works on a healthy tenant. Errors with
    /// [`SpotError::UnknownTenant`] when `id` is not registered and with
    /// [`SpotError::InvalidConfig`] when it has no restore point yet.
    ///
    /// The new detector takes over the tenant's queue. Without a WAL the
    /// backlog stays in place (arrival order preserved) and the returned
    /// count is its length; the window between the restore point and the
    /// fault is gone. **With a WAL** the log
    /// *is* the backlog: the log tail past the restore point — lost
    /// window, failed batch and backlog alike — is replayed into the new
    /// detector before it is swapped in, re-deriving bit-identical
    /// verdicts, the queue is cleared, and the returned count is the
    /// records replayed. A replay that fails (a pruned tail, a panic)
    /// leaves the tenant as it was. The tenant's admission and drain locks
    /// are held throughout, so its producers and drains resume only once
    /// the log and queue agree again; a producer waiting for room holds
    /// neither and wakes into the same queue. Co-tenants keep ingesting
    /// throughout.
    pub fn revive_tenant(&self, id: &TenantId) -> Result<u64> {
        let inlet = Arc::clone(&self.tenant(id)?.inlet);
        let point = lock(&inlet.restore_point).clone();
        let Some((_, cp)) = point else {
            return Err(SpotError::InvalidConfig(format!(
                "tenant {id} has no restore point: checkpoint it before reviving it"
            )));
        };
        let n = self.install_checkpoint(id, cp, Install::Revive, |wal, from| {
            read_wal_from(wal.dir(), id, from)
        })?;
        self.inner.recoveries.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    /// Restores one tenant from a fleet checkpoint, **replacing** any
    /// detector currently registered under the id (or registering it
    /// fresh). Errors with [`SpotError::UnknownTenant`] when the
    /// checkpoint holds no such tenant. A replaced tenant's queue is
    /// emptied (use [`SpotFleet::revive_tenant`] to keep the backlog); a
    /// producer waiting for room wakes into the emptied queue. **With a
    /// WAL** the log tail past the checkpoint is replayed into the
    /// restored detector before it is swapped in, so no admitted point is
    /// rolled back; a tail that was pruned errors with
    /// [`SpotError::WalCorrupt`] and leaves the tenant as it was.
    pub fn restore_tenant(&self, checkpoint: &FleetCheckpoint, id: &TenantId) -> Result<()> {
        let cp = checkpoint
            .shared(id)
            .ok_or_else(|| SpotError::UnknownTenant(id.to_string()))?;
        self.install_checkpoint(id, Arc::clone(cp), Install::Restore, |wal, from| {
            read_wal_from(wal.dir(), id, from)
        })
        .map(drop)
    }

    /// Builds a fleet holding every tenant of the checkpoint.
    pub fn from_checkpoint(checkpoint: &FleetCheckpoint, config: FleetConfig) -> Result<Self> {
        let fleet = Self::new(config);
        for id in checkpoint.tenant_ids() {
            fleet.restore_tenant(checkpoint, &id)?;
        }
        Ok(fleet)
    }

    /// The one way a checkpoint becomes a tenant's detector. Builds the
    /// detector; with a WAL, replays into it the tenant's log records past
    /// the checkpoint's position, as `tail` reads them; then registers it
    /// — fresh, or in place of the current detector under its admission
    /// and drain locks — and makes the checkpoint the restore point. Any
    /// error before the swap leaves the registration as it was. Returns
    /// the records replayed with a WAL, else the backlog kept.
    fn install_checkpoint(
        &self,
        id: &TenantId,
        cp: Arc<SpotCheckpoint>,
        how: Install,
        tail: impl FnOnce(&FleetWal, u64) -> Result<Vec<(u64, DataPoint)>>,
    ) -> Result<u64> {
        let spot = Spot::from_checkpoint(&cp)?;
        let at = spot.stats().processed;
        let wal = self.wal();
        let current = self.tenant(id).ok().map(|t| Arc::clone(&t.inlet));
        let inlet = current
            .clone()
            .unwrap_or_else(|| Arc::new(Inlet::new(self.inner.config.queue_capacity)));
        let _admission = inlet.admission();
        let _drains = lock(&inlet.drains);
        let shown = *lock(&inlet.snapshot);
        let tenant = Arc::new(Tenant::new(spot, Arc::clone(&inlet)));
        let replayed = match wal {
            Some(wal) => {
                let base = wal.base_processed(id).unwrap_or(at);
                watermark(id, at, base)
                    .and_then(|from| tail(wal, from))
                    .and_then(|points| self.replay(id, &tenant, &points))
            }
            None => Ok(0),
        };
        let installed =
            replayed.and_then(|n| self.install(id, tenant, current.is_none()).map(|()| n));
        if installed.is_err() {
            *lock(&inlet.snapshot) = shown;
        }
        let replayed = installed?;
        *lock(&inlet.restore_point) = Some((at, cp));
        // With a WAL every queued point was also in the replayed tail.
        if wal.is_some() || how == Install::Restore {
            inlet.clear(false);
        }
        Ok(if wal.is_some() {
            replayed
        } else {
            inlet.len() as u64
        })
    }

    /// Runs logged points through the guarded processing path in the
    /// chunks a drain would pop, returning how many ran. The re-derived
    /// verdicts are dropped — replay exists to rebuild detector state;
    /// determinism guarantees they are bit-identical to what the original
    /// stream produced (or would have).
    fn replay(&self, id: &TenantId, tenant: &Tenant, tail: &[(u64, DataPoint)]) -> Result<u64> {
        let config = self.inner.config;
        for chunk in tail.chunks(config.micro_batch.min(config.queue_capacity)) {
            let points: Vec<DataPoint> = chunk.iter().map(|(_, p)| p.clone()).collect();
            self.run_guarded(id, tenant, &points)?;
        }
        Ok(tail.len() as u64)
    }

    // ---- crash recovery -------------------------------------------------

    /// Rebuilds a fleet from a durable state directory after a crash:
    /// restores the newest valid checkpoint from `dir` (the
    /// [`CheckpointStore`] layout, sweeping stray `.tmp` files), then
    /// replays each tenant's tail of the fleet's WAL — everything admitted
    /// after that checkpoint — through the guarded micro-batches a drain
    /// runs. Because replay
    /// re-derives state from the same points in the same order, the
    /// recovered fleet's subsequent verdict stream is **bit-identical** to
    /// an uncrashed run's: with the WAL enabled, a crash loses no admitted
    /// point.
    ///
    /// Works on every on-disk shape a crash can leave: no checkpoint at
    /// all (empty fleet, the log's streams reported unclaimed), a torn newest
    /// checkpoint (falls back a generation and replays the longer tail),
    /// a torn WAL tail (truncated at the last valid record — those final
    /// unsynced points are the only possible loss, bounded by the
    /// [`WalTuning::sync_every`]), and a crash between
    /// checkpoint save and WAL prune
    /// (the stale log prefix behind the watermark is simply not replayed,
    /// then pruned at the next checkpoint). Errors with
    /// [`SpotError::WalCorrupt`] on real damage — a checksum-valid log
    /// that contradicts the checkpoint, or corruption *before* the tail —
    /// and on the per-tenant log directories older builds wrote (their
    /// records are acknowledged points; see `docs/persistence.md`).
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
        // Only the checkpoint's tenants' records are loaded: an unclaimed
        // stream is reported, never replayed.
        let restored = checkpoint.tenant_ids();
        let keep = |t: &str| restored.iter().any(|id| id.as_str() == t);
        let (wal, wal_scan) = FleetWal::open(&dir.join("wal"), tuning, keep)?;
        let fleet = Self::new(config);
        let _ = fleet.inner.wal.set(Arc::new(wal));
        let mut streams = wal_scan.streams;
        let mut recovery = FleetRecovery {
            generation,
            rejected: scan.rejected,
            replayed: Vec::new(),
            unclaimed: Vec::new(),
            swept_tmp,
        };
        for id in restored {
            let cp = checkpoint.shared(&id).expect("a listed tenant");
            let log = streams.remove(&id);
            // A watermark other than the one the checkpoint recorded means
            // the log and the checkpoint are not from the same run (an
            // operator mixed directories) — replaying would silently
            // corrupt the detector.
            let tail = |_: &FleetWal, from| match checkpoint.wal_position(&id) {
                Some(recorded) if recorded != from => Err(SpotError::WalCorrupt(format!(
                    "tenant {id}: checkpoint generation {generation:?} records WAL position \
                     {recorded} but the log on disk implies {from}"
                ))),
                _ => log.map_or(Ok(Vec::new()), |log| log.into_tail(&id, from)),
            };
            let replayed = fleet.install_checkpoint(&id, Arc::clone(cp), Install::Restore, tail)?;
            if replayed > 0 {
                recovery.replayed.push((id, replayed));
            }
        }
        // Streams with no tenant in the restored checkpoint: surfaced, and
        // left open in the log so they pin their segments (the log may be
        // the only surviving copy of that tenant's data).
        recovery.unclaimed = streams.into_keys().collect();
        Ok((fleet, recovery))
    }
}

/// A tenant's replay watermark: the seq in its WAL stream of the first
/// point its detector has not processed.
fn watermark(id: &TenantId, processed: u64, base: u64) -> Result<u64> {
    processed.checked_sub(base).ok_or_else(|| {
        SpotError::WalCorrupt(format!(
            "tenant {id}: stream position {processed} precedes the log base {base}"
        ))
    })
}

/// Checkpoint generations [`SpotFleet::recover`] keeps by default.
const DEFAULT_CHECKPOINT_RETAIN: usize = 4;

// Lock-poisoning policy (audited with the supervision plane): every lock
// in this module, the detector's included, recovers the guard with
// `into_inner` instead of panicking. A panic inside detector code
// therefore leaves a *usable lock around torn state* — that is exactly
// why a caught panic quarantines the tenant: the health gate, not lock
// poisoning, is what keeps torn state unobservable.
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

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// What monitoring shows of a detector.
fn snapshot(spot: &Spot) -> (SpotStats, SynopsisFootprint) {
    (*spot.stats(), spot.footprint())
}

/// Whether `id` is registered around `inlet` (not evicted, and not
/// evicted and registered again).
fn holds(map: &HashMap<TenantId, Arc<Tenant>>, id: &TenantId, inlet: &Arc<Inlet>) -> bool {
    map.get(id).is_some_and(|t| Arc::ptr_eq(&t.inlet, inlet))
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

    fn pt(x: f64) -> DataPoint {
        DataPoint::new(vec![x])
    }

    /// Admits `x` the way the admission body does: wait for room, push.
    fn admit(inlet: &Inlet, x: f64) -> bool {
        let admission = inlet.admission();
        match inlet.wait_for_room(admission) {
            Some(_admission) => {
                inlet.push(pt(x));
                true
            }
            None => false,
        }
    }

    #[test]
    fn inlet_pops_in_arrival_order_and_counts_exactly() {
        let inlet = Inlet::new(4);
        for x in 0..3 {
            assert!(admit(&inlet, f64::from(x)));
        }
        assert_eq!(inlet.len(), 3);
        let first: Vec<f64> = inlet.pop(2).iter().map(|p| p.values()[0]).collect();
        assert_eq!(first, [0.0, 1.0]);
        assert_eq!(inlet.len(), 1);
        assert_eq!(inlet.pop(8).len(), 1);
        assert_eq!(inlet.len(), 0);
        assert!(inlet.pop(8).is_empty());
    }

    #[test]
    fn inlet_reports_full_apart_from_closed() {
        let inlet = Inlet::new(1);
        assert_eq!(inlet.has_room(), Some(true));
        assert!(admit(&inlet, 0.0));
        assert_eq!(inlet.has_room(), Some(false));
        inlet.clear(false);
        assert_eq!(inlet.has_room(), Some(true));
        inlet.clear(true);
        assert_eq!(inlet.has_room(), None);
    }

    #[test]
    fn closing_the_inlet_refuses_a_producer_waiting_for_room() {
        let inlet = Arc::new(Inlet::new(1));
        assert!(admit(&inlet, 0.0));
        let producer = {
            let inlet = Arc::clone(&inlet);
            std::thread::spawn(move || admit(&inlet, 1.0))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!producer.is_finished(), "a full queue must make it wait");
        inlet.clear(true);
        assert!(!producer.join().unwrap(), "a closed inlet admits nothing");
        assert_eq!(inlet.len(), 0);
        assert!(!admit(&inlet, 2.0));
    }

    #[test]
    fn inlet_never_exceeds_capacity_under_slow_consumer() {
        const CAP: usize = 3;
        const N: usize = 200;
        let inlet = Arc::new(Inlet::new(CAP));
        let producer = {
            let inlet = Arc::clone(&inlet);
            std::thread::spawn(move || (0..N).all(|x| admit(&inlet, x as f64)))
        };
        let mut seen = Vec::new();
        while seen.len() < N {
            assert!(inlet.len() <= CAP);
            seen.extend(inlet.pop(2).iter().map(|p| p.values()[0] as usize));
            std::thread::yield_now();
        }
        assert!(producer.join().unwrap());
        assert_eq!(seen, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&"owned".to_string()), "owned");
        assert_eq!(panic_message(&42u32), "non-string panic payload");
    }
}
