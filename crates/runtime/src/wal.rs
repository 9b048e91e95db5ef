//! The durable ingestion write-ahead log: the fleet's answer to the
//! one-pass problem.
//!
//! SPOT is a one-pass detector — a point lost at ingestion is gone
//! forever. With [`SpotFleet::enable_wal`] every admitted point is
//! appended to the fleet's log **before** it enters its tenant's queue, so
//! after any crash [`SpotFleet::recover`] restores the newest checkpoint
//! and replays each tenant's tail through the normal processing path,
//! reconverging bit-identically with the uninterrupted run.
//!
//! The segment log under it is [`spot_types::framed`] (segment files,
//! frames, torn tails, rotation, sync); its payloads live in
//! [`spot_stream::wal`], shared with the offline
//! [`spot_stream::WalSource`]. This module owns the writer, [`FleetWal`]:
//! its stream table, the fsync policy, holds, pruning and fault injection.
//!
//! * **One log, one stream per tenant.** Every tenant appends to the same
//!   segment file; a record carries its tenant and that tenant's own
//!   sequence number. The fleet holds a tenant's admission lock across
//!   append + enqueue, so the tenant's seq `n` is its detector's point
//!   `base_processed + n` — what lets a checkpoint's stream position double
//!   as a replay watermark. The writer lock covers only the `write` and a
//!   sync that is due.
//! * **[`FsyncPolicy`]** bounds, per tenant, the acknowledged records a
//!   power cut can take back. One sync covers every tenant's records, so
//!   interleaved tenants share it.
//! * **Rotation & pruning.** Segments rotate at [`WalTuning`]'s
//!   `segment_bytes`; a durable checkpoint deletes the sealed segments
//!   whose records all lie behind their tenant's watermark.
//! * **Deterministic crash injection.** [`crate::FaultPlan`]'s WAL hooks
//!   damage the files exactly as a real crash would, then kill the writer
//!   — for every tenant, as a process death would.
//!
//! See `docs/persistence.md` § "The ingestion WAL".
//!
//! [`SpotFleet::enable_wal`]: crate::SpotFleet::enable_wal
//! [`SpotFleet::recover`]: crate::SpotFleet::recover

use crate::faults::{FaultInjector, WalFault};
use spot_stream::wal::{
    encode_attach, encode_evict, encode_record, encode_table, scan_wal_dir, StreamAnchor, WalScan,
    WAL_LOG, WAL_MAGIC,
};
use spot_types::framed::{io_err, SegmentWriter};
use spot_types::{DataPoint, FxHashMap, Result, SpotError, TenantId};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// When the WAL writer forces appended records onto stable storage.
///
/// Records always go straight to the file descriptor (no userspace
/// buffering) and a segment is always synced when sealed; the policy only
/// bounds how many *acknowledged* records of one tenant a power cut can
/// take back. A sync covers the whole log, so it restarts every tenant's
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` as soon as any tenant has `n` records (at least 1) since
    /// the last sync: at most `n - 1` acknowledged points of each tenant
    /// are exposed, none under `EveryN(1)`. Round-robin traffic over `T` tenants syncs once per
    /// `T·(n − 1) + 1` records, one tenant's traffic once per `n`.
    EveryN(u32),
    /// `fsync` only when a segment is sealed.
    OnRotate,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(256)
    }
}

/// Knobs of the fleet's one log writer. `Default`: `EveryN(256)` fsync,
/// 1 MiB segments.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalTuning {
    /// Durability policy for appends.
    pub fsync: FsyncPolicy,
    /// Rotation threshold: a segment holding a frame is sealed before an
    /// append would push it past this many bytes (0 means
    /// [`WalTuning::DEFAULT_SEGMENT_BYTES`]; 1 gives every frame its own
    /// segment).
    pub segment_bytes: u64,
}

impl WalTuning {
    /// The default segment rotation threshold (1 MiB).
    pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

    fn segment_bytes(&self) -> u64 {
        match self.segment_bytes {
            0 => WalTuning::DEFAULT_SEGMENT_BYTES,
            n => n,
        }
    }
}

/// What [`SpotFleet::recover`](crate::SpotFleet::recover) did: which
/// checkpoint generation it restored, what it rejected on the way there,
/// and how much WAL tail it replayed per tenant.
#[derive(Debug)]
pub struct FleetRecovery {
    /// The checkpoint generation restored, or `None` when the store held
    /// no valid checkpoint (the fleet starts empty; the log's streams show
    /// up in `unclaimed`).
    pub generation: Option<u64>,
    /// Checkpoint generations rejected during the scan (newest first)
    /// with the typed error each produced.
    pub rejected: Vec<(u64, SpotError)>,
    /// Per tenant (sorted): WAL records replayed through the normal
    /// processing path to close the checkpoint → crash window.
    pub replayed: Vec<(TenantId, u64)>,
    /// Tenants with a stream in the log but none in the restored
    /// checkpoint, sorted. Their records stay and pin their segments — a
    /// detector cannot be rebuilt without its configuration; re-register
    /// the tenant and replay via [`spot_stream::WalSource`] manually.
    pub unclaimed: Vec<TenantId>,
    /// Stray `.ckpt.tmp` files swept by the store on open.
    pub swept_tmp: usize,
}

impl FleetRecovery {
    /// Total WAL records replayed across all tenants.
    pub fn total_replayed(&self) -> u64 {
        self.replayed.iter().map(|(_, n)| n).sum()
    }
}

/// One tenant's open stream in the log.
#[derive(Debug)]
struct Stream {
    /// Tells this stream from earlier ones under the same id.
    epoch: u64,
    base: u64,
    next_seq: u64,
    /// Records appended since the last sync.
    unsynced: u32,
    /// Whether the active segment holds a record of this stream.
    in_active: bool,
}

/// The writer state, behind the writer lock.
#[derive(Debug)]
struct Writer {
    log: SegmentWriter,
    /// The frame being appended, reused across appends.
    frame: Vec<u8>,
    streams: FxHashMap<TenantId, Stream>,
    /// Sealed segments, oldest first: number, and `(epoch, end)` of every
    /// stream with records in it.
    sealed: Vec<(u64, Vec<(u64, u64)>)>,
    /// The last stream epoch handed out.
    epochs: u64,
    /// `Some(reason)` after an injected crash: the simulated process is
    /// dead and every further write fails.
    dead: Option<String>,
}

impl Writer {
    fn alive(&self) -> Result<()> {
        match &self.dead {
            Some(reason) => Err(SpotError::Io(format!("wal writer is dead: {reason}"))),
            None => Ok(()),
        }
    }
}

/// The fleet's write-ahead log: one directory of segment files every
/// tenant appends to, behind one writer lock. Obtained via the fleet
/// (`enable_wal` / `recover`); see the module docs for the locking.
#[derive(Debug)]
pub struct FleetWal {
    dir: PathBuf,
    tuning: WalTuning,
    writer: Mutex<Writer>,
    /// Syncs issued ([`crate::FleetStats::wal_syncs`]).
    syncs: AtomicU64,
}

/// Older builds kept one `SPOTWAL1` log directory per tenant under the
/// WAL root. Those records are acknowledged points, so starting a log
/// beside them would lose them silently: refuse, naming the directory.
fn refuse_per_tenant_logs(dir: &Path) -> Result<()> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("list", dir, &e))?;
    for path in entries.flatten().map(|e| e.path()) {
        if WAL_LOG.list(&path).is_ok_and(|n| !n.is_empty()) {
            return Err(SpotError::WalCorrupt(format!(
                "{}: a per-tenant log written by an older build; this build keeps one log per \
                 fleet — recover and checkpoint with the older build, or move the directory aside",
                path.display()
            )));
        }
    }
    Ok(())
}

impl FleetWal {
    /// Opens the log at `dir`, resuming what is there or starting its first
    /// segment, and returns it with the scan it resumed from (the records
    /// of the tenants `keep` picks included, for recovery to replay), crash
    /// residue repaired. Refuses the per-tenant logs older builds left.
    pub(crate) fn open(
        dir: &Path,
        tuning: WalTuning,
        keep: impl Fn(&str) -> bool,
    ) -> Result<(FleetWal, WalScan)> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create", dir, &e))?;
        refuse_per_tenant_logs(dir)?;
        let scan = scan_wal_dir(dir, &keep)?;
        let mut empty_table = Vec::new();
        encode_table(&[], &mut empty_table)?;
        let log = SegmentWriter::resume(dir, WAL_LOG, &scan.log, &empty_table)?;
        let numbers = scan.log.segments.iter().map(|s| s.number);
        let mut sealed: Vec<_> = numbers.zip(scan.holds.iter().cloned()).collect();
        let active = sealed.pop().map(|(_, holds)| holds).unwrap_or_default();
        let streams = scan.streams.iter().map(|(id, log)| {
            let stream = Stream {
                epoch: log.epoch,
                base: log.base_processed,
                next_seq: log.next_seq,
                unsynced: 0,
                in_active: active.iter().any(|&(e, _)| e == log.epoch),
            };
            (id.clone(), stream)
        });
        let epochs = scan.holds.iter().flatten().map(|&(e, _)| e);
        let epochs = epochs.chain(scan.streams.values().map(|l| l.epoch)).max();
        let writer = Writer {
            frame: Vec::new(),
            streams: streams.collect(),
            sealed,
            epochs: epochs.unwrap_or(0),
            dead: None,
            log,
        };
        let wal = FleetWal {
            dir: dir.to_path_buf(),
            tuning,
            syncs: AtomicU64::new(writer.log.syncs()),
            writer: Mutex::new(writer),
        };
        Ok((wal, scan))
    }

    /// The log's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number `tenant`'s next record gets (= records ever
    /// appended to its stream), or `None` when it has no open stream.
    pub fn position(&self, tenant: &TenantId) -> Option<u64> {
        self.lock().streams.get(tenant).map(|s| s.next_seq)
    }

    /// The detector `processed` counter `tenant`'s seq 0 corresponds to.
    pub fn base_processed(&self, tenant: &TenantId) -> Option<u64> {
        self.lock().streams.get(tenant).map(|s| s.base)
    }

    /// Live segment files.
    pub fn segment_count(&self) -> usize {
        self.lock().sealed.len() + 1
    }

    /// Every sync issued since the log was opened: policy syncs, segment
    /// seals and headers, control frames, checkpoint syncs.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens `tenant`'s stream based at `base_if_fresh` (the detector's
    /// `processed` counter) with a synced attach frame, or resumes the
    /// stream open under the id (restore paths, an unclaimed stream).
    /// Returns the stream's base.
    pub(crate) fn attach(&self, tenant: &TenantId, base_if_fresh: u64) -> Result<u64> {
        let mut guard = self.lock();
        let w = &mut *guard;
        if let Some(s) = w.streams.get(tenant) {
            return Ok(s.base);
        }
        w.alive()?;
        let anchor = StreamAnchor {
            tenant: tenant.clone(),
            base_processed: base_if_fresh,
            first_seq: 0,
        };
        w.frame.clear();
        encode_attach(&anchor, &mut w.frame)?;
        self.write_control(w, tenant)?;
        // The frame is in the file: the stream opens even if the sync
        // fails, so a retried attach resumes it instead of writing a second
        // attach the scan would reject.
        w.epochs += 1;
        let stream = Stream {
            epoch: w.epochs,
            base: base_if_fresh,
            next_seq: 0,
            unsynced: 0,
            in_active: false,
        };
        w.streams.insert(tenant.clone(), stream);
        self.sync_locked(w)?;
        Ok(base_if_fresh)
    }

    /// Closes `tenant`'s stream with a synced evict frame: a later
    /// registration under the id starts a fresh stream, the closed one's
    /// records stop holding their segments, and appends for the tenant
    /// fail with [`SpotError::UnknownTenant`].
    pub(crate) fn evict(&self, tenant: &TenantId) -> Result<()> {
        let mut guard = self.lock();
        let w = &mut *guard;
        if !w.streams.contains_key(tenant) {
            return Ok(());
        }
        w.alive()?;
        w.frame.clear();
        encode_evict(tenant, &mut w.frame)?;
        self.write_control(w, tenant)?;
        // As in `attach`: the written frame closed the stream, synced or not.
        w.streams.remove(tenant);
        self.sync_locked(w)
    }

    /// Writes the control frame in `w.frame`, rotating first when due. The
    /// caller updates the stream map to match before syncing.
    fn write_control(&self, w: &mut Writer, tenant: &TenantId) -> Result<()> {
        self.rotate_if_due(w, tenant, None)?;
        w.log.write(&w.frame)
    }

    /// Appends one record to `tenant`'s stream (rotating first when due),
    /// applies the fsync policy, and returns the record's sequence number.
    /// The caller holds the tenant's admission lock. An injected crash
    /// from `faults` damages the file as a real crash would, kills the
    /// writer and returns [`SpotError::Io`]: the caller must *not* enqueue
    /// the point.
    pub(crate) fn append(
        &self,
        tenant: &TenantId,
        point: &DataPoint,
        faults: Option<&FaultInjector>,
    ) -> Result<u64> {
        let mut guard = self.lock();
        let w = &mut *guard;
        w.alive()?;
        let Some(seq) = w.streams.get(tenant).map(|s| s.next_seq) else {
            return Err(SpotError::UnknownTenant(tenant.to_string()));
        };
        w.frame.clear();
        encode_record(tenant, seq, point, &mut w.frame)?;
        self.rotate_if_due(w, tenant, faults)?;
        if let Some(fault) = faults.and_then(|f| f.take_wal_fault(tenant, seq)) {
            return Err(crash(w, fault, format!("{tenant} seq {seq}")));
        }
        w.log.write(&w.frame)?;
        let s = w.streams.get_mut(tenant).expect("stream checked above");
        s.next_seq += 1;
        s.in_active = true;
        let due = match self.tuning.fsync {
            FsyncPolicy::EveryN(n) => {
                s.unsynced += 1;
                s.unsynced >= n.max(1)
            }
            FsyncPolicy::OnRotate => false,
        };
        if due {
            self.sync_locked(w)?;
        }
        Ok(seq)
    }

    /// Forces everything appended so far onto stable storage (a no-op when
    /// nothing is pending, or on a dead writer).
    pub(crate) fn sync(&self) -> Result<()> {
        let mut w = self.lock();
        if w.dead.is_some() || w.log.is_synced() {
            return Ok(());
        }
        self.sync_locked(&mut w)
    }

    fn sync_locked(&self, w: &mut Writer) -> Result<()> {
        let synced = w.log.sync();
        self.syncs.store(w.log.syncs(), Ordering::Relaxed);
        synced?;
        w.streams.values_mut().for_each(|s| s.unsynced = 0);
        Ok(())
    }

    /// Seals the active segment (sync) and opens the next, its header
    /// anchoring every open stream, when the frame in `w.frame` is due
    /// ([`SegmentWriter::rotation_due`]). An injected rotation crash lands
    /// after the seal and leaves the next header half-written, the residue
    /// recovery drops. After a failed rotation the active segment stays
    /// active, and unlisted.
    fn rotate_if_due(
        &self,
        w: &mut Writer,
        tenant: &TenantId,
        faults: Option<&FaultInjector>,
    ) -> Result<()> {
        let threshold = self.tuning.segment_bytes();
        if !w.log.rotation_due(w.frame.len(), threshold) {
            return Ok(());
        }
        self.sync_locked(w)?;
        let (sealed, next) = (w.log.number(), w.log.number() + 1);
        if faults.is_some_and(|f| f.take_rotation_crash(tenant)) {
            let path = WAL_LOG.path(&self.dir, next);
            std::fs::write(&path, &WAL_MAGIC[..4]).map_err(|e| io_err("write", &path, &e))?;
            let reason = format!("injected crash mid-rotation to segment {next}");
            return Err(die(w, reason));
        }
        let mut table: Vec<StreamAnchor> = w
            .streams
            .iter()
            .map(|(id, s)| StreamAnchor {
                tenant: id.clone(),
                base_processed: s.base,
                first_seq: s.next_seq,
            })
            .collect();
        table.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let mut header = Vec::new();
        encode_table(&table, &mut header)?;
        let rotated = w.log.rotate(&header);
        self.syncs.store(w.log.syncs(), Ordering::Relaxed);
        rotated?;
        let holds = w.streams.values_mut();
        let holds =
            holds.filter_map(|s| std::mem::take(&mut s.in_active).then_some((s.epoch, s.next_seq)));
        w.sealed.push((sealed, holds.collect()));
        Ok(())
    }

    /// Deletes every sealed segment whose records all lie behind their
    /// stream's watermark: `watermarks` lists `(tenant, seq)`, the
    /// tenant's records below `seq` being covered by a checkpoint. Records
    /// of a closed stream (evicted, or an earlier stream under the id)
    /// count as behind; an open stream without a watermark — unclaimed, or
    /// skipped by the capture — pins every segment holding its records.
    /// The active segment is never deleted; a dead writer deletes nothing.
    /// Returns the number of segments removed.
    pub(crate) fn prune(&self, watermarks: &[(TenantId, u64)]) -> Result<usize> {
        let mut guard = self.lock();
        let w = &mut *guard;
        if w.dead.is_some() {
            return Ok(0);
        }
        let marks: HashMap<&TenantId, u64> = watermarks.iter().map(|(t, m)| (t, *m)).collect();
        let open: HashMap<u64, Option<u64>> = w
            .streams
            .iter()
            .map(|(id, s)| (s.epoch, marks.get(id).copied()))
            .collect();
        let behind = |holds: &[(u64, u64)]| {
            holds.iter().all(|(epoch, end)| match open.get(epoch) {
                None => true,
                Some(mark) => mark.is_some_and(|m| *end <= m),
            })
        };
        let mut deleted = 0;
        while let Some(i) = w.sealed.iter().position(|(_, holds)| behind(holds)) {
            let path = WAL_LOG.path(&self.dir, w.sealed[i].0);
            std::fs::remove_file(&path).map_err(|e| io_err("remove", &path, &e))?;
            w.sealed.remove(i);
            deleted += 1;
        }
        Ok(deleted)
    }

    /// Kills the writer (an injected crash outside the append path, e.g.
    /// between a checkpoint and its prune).
    pub(crate) fn kill(&self, reason: &str) {
        let mut w = self.lock();
        w.dead.get_or_insert_with(|| reason.to_string());
    }
}

/// Damages the file as a crash during this append would, and kills the
/// writer. The write and sync results are moot: the process is "dead".
fn crash(w: &mut Writer, fault: WalFault, at: String) -> SpotError {
    let (frame, synced) = (&w.frame[..], w.log.synced_len());
    let file = w.log.file_mut();
    let _ = match fault {
        // The crash lands mid-`write`: a prefix of the frame reaches the file.
        WalFault::TornWrite { keep_bytes } => file.write_all(&frame[..keep_bytes.min(frame.len())]),
        // The sync fails and the process goes down with it: everything since
        // the last successful sync — any tenant's — never reaches the disk.
        WalFault::FailFsync => file.write_all(frame).and_then(|()| file.set_len(synced)),
        // The record reaches stable storage; the process dies before the
        // point is acknowledged, so recovery must replay it.
        WalFault::KillAfterAppend => file.write_all(frame),
    }
    .and_then(|()| file.sync_data());
    die(w, format!("injected {fault:?} at {at}"))
}

/// Kills the writer and builds the error the simulated crash surfaces.
fn die(w: &mut Writer, reason: String) -> SpotError {
    w.dead = Some(reason.clone());
    SpotError::Io(format!("injected crash: {reason}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_stream::wal::read_wal_from;
    use std::fs::File;

    fn tid(s: &str) -> TenantId {
        TenantId::new(s).expect("valid tenant id")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spot-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pt(v: f64) -> DataPoint {
        DataPoint::new(vec![v, 1.0 - v])
    }

    fn open(dir: &Path, tuning: WalTuning) -> FleetWal {
        FleetWal::open(dir, tuning, |_| false).unwrap().0
    }

    #[test]
    fn append_resume_roundtrip_preserves_every_record() {
        let dir = temp_dir("resume");
        let tuning = WalTuning {
            fsync: FsyncPolicy::EveryN(1),
            ..WalTuning::default()
        };
        let (a, b) = (tid("a"), tid("b"));
        {
            let wal = open(&dir, tuning);
            assert_eq!(wal.attach(&a, 7).unwrap(), 7);
            assert_eq!(wal.attach(&b, 0).unwrap(), 0);
            for i in 0..5 {
                assert_eq!(wal.append(&a, &pt(i as f64 * 0.1), None).unwrap(), i);
                assert_eq!(wal.append(&b, &pt(0.5), None).unwrap(), i);
            }
        }
        // Reopen: bases and positions survive, a resumed attach keeps the
        // recorded base, and appends continue each tenant's seq.
        let wal = open(&dir, tuning);
        assert_eq!(wal.attach(&a, 999).unwrap(), 7);
        assert_eq!(
            (wal.base_processed(&a), wal.position(&a)),
            (Some(7), Some(5))
        );
        assert_eq!(wal.append(&a, &pt(0.9), None).unwrap(), 5);
        let records = read_wal_from(&dir, &a, 0).unwrap();
        assert_eq!(records.len(), 6);
        assert_eq!(records[5].0, 5);
        assert_eq!(records[5].1.values()[0].to_bits(), 0.9f64.to_bits());
        assert_eq!(read_wal_from(&dir, &b, 0).unwrap().len(), 5);
        // An unattached tenant cannot append.
        assert!(matches!(
            wal.append(&tid("c"), &pt(0.1), None),
            Err(SpotError::UnknownTenant(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_prune_respect_watermark() {
        let dir = temp_dir("rotate");
        // Tiny segments: every frame rotates.
        let tuning = WalTuning {
            fsync: FsyncPolicy::OnRotate,
            segment_bytes: 1,
        };
        let (a, b) = (tid("a"), tid("b"));
        let wal = open(&dir, tuning);
        wal.attach(&a, 0).unwrap();
        wal.attach(&b, 0).unwrap();
        for i in 0..4 {
            wal.append(&a, &pt(i as f64 * 0.2), None).unwrap();
        }
        wal.append(&b, &pt(0.5), None).unwrap();
        // Segments: [attach a] [attach b] [a0] [a1] [a2] [a3] [b0].
        assert_eq!(wal.segment_count(), 7);
        // b without a watermark pins nothing it has no records in; a's
        // watermark 2 frees the segments holding a0 and a1 (and the
        // record-free ones before them).
        assert_eq!(wal.prune(&[(a.clone(), 2)]).unwrap(), 4);
        // Replay from the watermark still works; from before it errors.
        assert_eq!(read_wal_from(&dir, &a, 2).unwrap().len(), 2);
        assert!(read_wal_from(&dir, &a, 0).is_err());
        // The active segment is never pruned; b's record stays with it.
        assert_eq!(
            wal.prune(&[(a.clone(), u64::MAX), (b.clone(), 0)]).unwrap(),
            2
        );
        assert_eq!(wal.segment_count(), 1);
        assert_eq!(read_wal_from(&dir, &b, 0).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_writer_rejects_appends_and_skips_prune() {
        let dir = temp_dir("dead");
        let a = tid("a");
        let wal = open(&dir, WalTuning::default());
        wal.attach(&a, 0).unwrap();
        wal.append(&a, &pt(0.5), None).unwrap();
        wal.kill("test crash");
        assert!(matches!(
            wal.append(&a, &pt(0.5), None),
            Err(SpotError::Io(_))
        ));
        assert!(matches!(wal.attach(&tid("b"), 0), Err(SpotError::Io(_))));
        assert_eq!(wal.prune(&[(a, u64::MAX)]).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_evicted_stream_restarts_fresh_and_frees_its_segments() {
        let dir = temp_dir("evict");
        let tuning = WalTuning {
            fsync: FsyncPolicy::EveryN(1),
            segment_bytes: 1,
        };
        let a = tid("a");
        let wal = open(&dir, tuning);
        wal.attach(&a, 3).unwrap();
        for i in 0..3 {
            wal.append(&a, &pt(i as f64), None).unwrap();
        }
        wal.evict(&a).unwrap();
        assert!(matches!(
            wal.append(&a, &pt(0.0), None),
            Err(SpotError::UnknownTenant(_))
        ));
        assert_eq!(wal.attach(&a, 50).unwrap(), 50);
        assert_eq!(wal.append(&a, &pt(9.0), None).unwrap(), 0);
        // The first stream's records count as behind without a watermark
        // of their own; the new stream's (in the active segment) stay.
        let sealed = wal.segment_count() - 1;
        assert_eq!(wal.prune(&[]).unwrap(), sealed);
        drop(wal);
        let wal = open(&dir, tuning);
        assert_eq!(
            (wal.base_processed(&a), wal.position(&a)),
            (Some(50), Some(1))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rotation_neither_lists_nor_prunes_the_active_segment() {
        let dir = temp_dir("rotfail");
        let tuning = WalTuning {
            fsync: FsyncPolicy::EveryN(1),
            segment_bytes: 1,
        };
        let (a, b) = (tid("a"), tid("b"));
        let wal = open(&dir, tuning);
        wal.attach(&a, 0).unwrap();
        wal.attach(&b, 0).unwrap();
        wal.append(&b, &pt(0.5), None).unwrap();
        // Segments: [attach a] [attach b] [b0], the last one active. A
        // directory squatting on the next segment's name makes every
        // rotation fail.
        let active = WAL_LOG.path(&dir, 3);
        let squatter = WAL_LOG.path(&dir, 4);
        std::fs::create_dir(&squatter).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                wal.append(&a, &pt(0.1), None),
                Err(SpotError::Io(_))
            ));
        }
        assert_eq!(wal.segment_count(), 3);
        // Only the two sealed segments go: the active one is not listed,
        // however often its rotation failed.
        assert_eq!(wal.prune(&[(a.clone(), u64::MAX)]).unwrap(), 2);
        assert!(active.exists());
        // Once rotation works again the segment is sealed once, and b's
        // record (b has no watermark) pins it.
        std::fs::remove_dir(&squatter).unwrap();
        assert_eq!(wal.append(&a, &pt(0.1), None).unwrap(), 0);
        assert_eq!(wal.prune(&[(a.clone(), u64::MAX)]).unwrap(), 0);
        assert!(active.exists());
        drop(wal);
        assert_eq!(read_wal_from(&dir, &a, 0).unwrap().len(), 1);
        assert_eq!(read_wal_from(&dir, &b, 0).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_control_frame_whose_sync_fails_is_never_written_twice() {
        use std::io::Read;
        use std::os::fd::OwnedFd;
        let dir = temp_dir("ctlsync");
        let wal = open(&dir, WalTuning::default());
        // A pipe takes writes but refuses `fdatasync`: every control frame
        // reaches it and every sync after one fails.
        let (mut reader, writer) = std::io::pipe().unwrap();
        let pipe = File::from(OwnedFd::from(writer));
        let log = std::mem::replace(wal.lock().log.file_mut(), pipe);
        let c = tid("c");
        assert!(matches!(wal.attach(&c, 4), Err(SpotError::Io(_))));
        // The attach frame was written, so the stream is open: a retry
        // resumes it instead of writing a second attach.
        assert_eq!(wal.attach(&c, 9).unwrap(), 4);
        assert!(matches!(wal.evict(&c), Err(SpotError::Io(_))));
        wal.evict(&c).unwrap();
        assert_eq!(wal.position(&c), None);
        drop(std::mem::replace(wal.lock().log.file_mut(), log));
        let mut written = Vec::new();
        reader.read_to_end(&mut written).unwrap();
        let mut expected = Vec::new();
        let anchor = StreamAnchor {
            tenant: c.clone(),
            base_processed: 4,
            first_seq: 0,
        };
        encode_attach(&anchor, &mut expected).unwrap();
        encode_evict(&c, &mut expected).unwrap();
        assert_eq!(written, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
