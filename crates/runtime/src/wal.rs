//! The durable ingestion write-ahead log: the fleet's answer to the
//! one-pass problem.
//!
//! SPOT is a one-pass detector — a point lost at ingestion is gone
//! forever. The WAL closes that window: with [`SpotFleet::enable_wal`]
//! every admitted point is appended to a per-tenant segmented log
//! **before** it enters the tenant's queue, so after any crash
//! [`SpotFleet::recover`] can restore the newest checkpoint and replay
//! the log tail through the normal processing path, reconverging
//! bit-identically with the uninterrupted run (`points_lost == 0`).
//!
//! The byte-level segment format (checksummed length-prefixed frames,
//! IEEE-754 bit lanes, torn-tail truncation) lives in
//! [`spot_stream::wal`], shared with the offline
//! [`spot_stream::WalSource`] replayer; this module owns the *writer*:
//!
//! * **Ordering invariant** — a point is enqueued iff its record was
//!   appended first, in the same order. The fleet holds a tenant's
//!   appender (its writer lock) across append + enqueue, so the log's
//!   sequence numbers are exactly the tenant's arrival order, and WAL seq `n`
//!   always corresponds to the detector's `processed` counter
//!   `base_processed + n`. That identity is what lets a checkpoint's
//!   stream position double as a replay watermark.
//! * **[`FsyncPolicy`]** — durability/throughput trade per fleet:
//!   `EveryRecord` syncs each append (no acknowledged point is ever
//!   lost), `EveryN(n)` amortizes one sync over `n` records (the
//!   default, `n = 256`), `OnRotate` syncs only at segment seal.
//! * **Rotation & pruning** — segments rotate at
//!   [`WalTuning`]'s `segment_bytes`; a successful durable checkpoint
//!   ([`SpotFleet::checkpoint_durable`]) prunes sealed segments wholly
//!   behind the checkpoint's watermark, bounding the log to roughly one
//!   checkpoint interval of data.
//! * **Deterministic crash injection** — [`crate::FaultPlan`]'s WAL hooks
//!   (kill-after-append, torn write, failed fsync, crash-mid-rotation,
//!   crash-before-prune) damage the file state exactly as a real crash
//!   would and then mark the writer dead, so chaos tests can drive
//!   recovery from every crash point without an actual `kill -9`.
//!
//! See `docs/persistence.md` § "The ingestion WAL" for the format and
//! `docs/robustness.md` for the recovery protocol.
//!
//! [`SpotFleet::enable_wal`]: crate::SpotFleet::enable_wal
//! [`SpotFleet::recover`]: crate::SpotFleet::recover
//! [`SpotFleet::checkpoint_durable`]: crate::SpotFleet::checkpoint_durable

use crate::faults::{FaultInjector, WalFault};
use spot_stream::wal::{
    encode_record, encode_segment_header, scan_wal_dir, segment_file_name, SegmentHeader,
    WAL_HEADER_LEN, WAL_MAGIC,
};
use spot_types::{DataPoint, Result, SpotError, TenantId};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// When the WAL writer forces appended records onto stable storage.
///
/// Whatever the policy, a segment is always synced when it is sealed
/// (rotation) and records are written straight to the file descriptor
/// (no userspace buffering) — the policy only controls how many
/// *acknowledged* records a poorly-timed power cut can take back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: an acknowledged point is durable.
    EveryRecord,
    /// `fsync` once per `n` records (clamped to at least 1): at most
    /// `n - 1` acknowledged points are exposed to a power cut.
    EveryN(u32),
    /// `fsync` only when a segment is sealed: the active segment's tail
    /// rides on the OS page cache.
    OnRotate,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(256)
    }
}

/// WAL writer knobs. `Default`: `EveryN(256)` fsync, 1 MiB segments.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalTuning {
    /// Durability policy for appends.
    pub fsync: FsyncPolicy,
    /// Rotation threshold: a segment holding at least one record is
    /// sealed before an append would push it past this many bytes
    /// (0 is treated as 1 — every record gets its own segment).
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

/// Escapes a tenant id into a filesystem-safe directory name: ASCII
/// alphanumerics, `.`, `_` and `-` pass through, every other byte becomes
/// `%XX` (so ids containing `/`, `%` or spaces cannot collide or escape
/// the WAL root).
pub fn tenant_dir_name(id: &TenantId) -> String {
    let raw = id.as_str();
    let mut out = String::with_capacity(raw.len());
    for &b in raw.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// What [`SpotFleet::recover`](crate::SpotFleet::recover) did: which
/// checkpoint generation it restored, what it rejected on the way there,
/// and how much WAL tail it replayed per tenant.
#[derive(Debug)]
pub struct FleetRecovery {
    /// The checkpoint generation restored, or `None` when the store held
    /// no valid checkpoint (the fleet starts empty; WAL dirs of tenants
    /// that were never checkpointed show up in `unclaimed`).
    pub generation: Option<u64>,
    /// Checkpoint generations rejected during the scan (newest first)
    /// with the typed error each produced.
    pub rejected: Vec<(u64, SpotError)>,
    /// Per tenant (sorted): WAL records replayed through the normal
    /// processing path to close the checkpoint → crash window.
    pub replayed: Vec<(TenantId, u64)>,
    /// WAL directories whose tenant is absent from the restored
    /// checkpoint (registered after the last durable checkpoint, or no
    /// checkpoint at all). Their logs are left untouched on disk — a
    /// detector cannot be rebuilt without its configuration; re-register
    /// the tenant and replay via [`spot_stream::WalSource`] manually.
    pub unclaimed: Vec<String>,
    /// Stray `.ckpt.tmp` files swept by the store on open.
    pub swept_tmp: usize,
}

impl FleetRecovery {
    /// Total WAL records replayed across all tenants.
    pub fn total_replayed(&self) -> u64 {
        self.replayed.iter().map(|(_, n)| n).sum()
    }
}

/// The active segment's writer state, behind the appender mutex.
struct Writer {
    file: File,
    /// Active segment number.
    segment: u64,
    /// Active segment's path (for error messages).
    path: PathBuf,
    /// The frame being appended, reused across appends.
    frame: Vec<u8>,
    /// Valid bytes of the active segment (header + whole frames).
    segment_len: u64,
    /// Active-segment bytes known to be on stable storage.
    synced_len: u64,
    /// Sequence number the next append gets.
    next_seq: u64,
    /// Records appended since the last sync.
    unsynced_records: u32,
    /// Live segments, oldest first: `(number, first_seq)`. The last entry
    /// is the active segment.
    segments: Vec<(u64, u64)>,
    /// `Some(reason)` after an injected crash: the simulated process is
    /// dead, every further append fails. Recovery goes through
    /// [`crate::SpotFleet::recover`] on the on-disk state.
    dead: Option<String>,
}

/// One tenant's write-ahead log: a directory of segment files plus the
/// serialized appender the fleet's ingestion paths share.
///
/// Obtained via the fleet (`enable_wal` / `recover`); the fleet holds the
/// appender's writer lock across append + enqueue so log order *is*
/// arrival order — see the module docs for the invariant.
pub struct TenantWal {
    dir: PathBuf,
    tuning: WalTuning,
    base_processed: u64,
    writer: Mutex<Writer>,
}

impl std::fmt::Debug for TenantWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantWal")
            .field("dir", &self.dir)
            .field("base_processed", &self.base_processed)
            .finish_non_exhaustive()
    }
}

fn io_err(action: &str, path: &Path, e: &std::io::Error) -> SpotError {
    SpotError::Io(format!("{action} {}: {e}", path.display()))
}

impl TenantWal {
    /// Opens (resuming) or creates a tenant's log. A resumed log keeps
    /// its recorded `base_processed`; `base_if_fresh` seeds a new one —
    /// it must be the tenant's `processed` counter at attach time, and
    /// with an existing log the caller's position must lie inside it
    /// (checked by replay, not here). Resume repairs crash residue:
    /// trailing torn-rotation segment files are deleted and a torn final
    /// record is truncated away.
    pub(crate) fn open(dir: PathBuf, base_if_fresh: u64, tuning: WalTuning) -> Result<TenantWal> {
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, &e))?;
        if let Some(scan) = scan_wal_dir(&dir)? {
            for path in &scan.dropped {
                std::fs::remove_file(path).map_err(|e| io_err("remove", path, &e))?;
            }
            let last = scan
                .segments
                .last()
                .expect("scan holds at least one segment");
            if last.torn_bytes > 0 {
                let file = OpenOptions::new()
                    .write(true)
                    .open(&last.path)
                    .map_err(|e| io_err("open", &last.path, &e))?;
                file.set_len(last.valid_len as u64)
                    .map_err(|e| io_err("truncate", &last.path, &e))?;
                file.sync_data()
                    .map_err(|e| io_err("sync", &last.path, &e))?;
            }
            let file = OpenOptions::new()
                .append(true)
                .open(&last.path)
                .map_err(|e| io_err("open", &last.path, &e))?;
            Ok(TenantWal {
                base_processed: scan.base_processed,
                writer: Mutex::new(Writer {
                    file,
                    segment: last.number,
                    path: last.path.clone(),
                    frame: Vec::new(),
                    segment_len: last.valid_len as u64,
                    synced_len: last.valid_len as u64,
                    next_seq: scan.next_seq,
                    unsynced_records: 0,
                    segments: scan
                        .segments
                        .iter()
                        .map(|s| (s.number, s.header.first_seq))
                        .collect(),
                    dead: None,
                }),
                dir,
                tuning,
            })
        } else {
            let path = dir.join(segment_file_name(1));
            let mut file = File::create(&path).map_err(|e| io_err("create", &path, &e))?;
            let header = encode_segment_header(SegmentHeader {
                base_processed: base_if_fresh,
                first_seq: 0,
            });
            file.write_all(&header)
                .map_err(|e| io_err("write", &path, &e))?;
            file.sync_data().map_err(|e| io_err("sync", &path, &e))?;
            Ok(TenantWal {
                base_processed: base_if_fresh,
                writer: Mutex::new(Writer {
                    file,
                    segment: 1,
                    path,
                    frame: Vec::new(),
                    segment_len: WAL_HEADER_LEN as u64,
                    synced_len: WAL_HEADER_LEN as u64,
                    next_seq: 0,
                    unsynced_records: 0,
                    segments: vec![(1, 0)],
                    dead: None,
                }),
                dir,
                tuning,
            })
        }
    }

    /// The log's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The detector `processed` counter WAL seq 0 corresponds to.
    pub fn base_processed(&self) -> u64 {
        self.base_processed
    }

    /// Sequence number the next appended record will get (= records ever
    /// appended to this log).
    pub fn position(&self) -> u64 {
        self.lock().next_seq
    }

    /// Sequence number of the oldest retained record (> 0 after pruning).
    pub fn oldest_retained(&self) -> u64 {
        self.lock().segments[0].1
    }

    /// Live segment files.
    pub fn segment_count(&self) -> usize {
        self.lock().segments.len()
    }

    /// `true` after an injected crash killed this writer.
    pub fn is_dead(&self) -> bool {
        self.lock().dead.is_some()
    }

    fn lock(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Locks the appender. The fleet holds the returned guard across
    /// append + enqueue so no other producer can interleave.
    pub(crate) fn appender(&self) -> WalAppender<'_> {
        WalAppender {
            wal: self,
            writer: self.lock(),
        }
    }

    /// Deletes sealed segments every record of which lies strictly below
    /// `watermark` (a segment is deletable when the *next* segment starts
    /// at or below the watermark). The active segment is never deleted.
    /// Returns the number of segments removed; a dead writer prunes
    /// nothing.
    pub(crate) fn prune_to(&self, watermark: u64) -> Result<usize> {
        let mut w = self.lock();
        if w.dead.is_some() {
            return Ok(0);
        }
        let mut deleted = 0;
        while w.segments.len() >= 2 && w.segments[1].1 <= watermark {
            let path = self.dir.join(segment_file_name(w.segments[0].0));
            std::fs::remove_file(&path).map_err(|e| io_err("remove", &path, &e))?;
            w.segments.remove(0);
            deleted += 1;
        }
        Ok(deleted)
    }

    /// Marks the writer dead (an injected crash outside the append path,
    /// e.g. crash-between-checkpoint-and-prune).
    pub(crate) fn kill(&self, reason: &str) {
        let mut w = self.lock();
        if w.dead.is_none() {
            w.dead = Some(reason.to_string());
        }
    }
}

/// The locked appender: while a fleet ingestion path holds one, no other
/// producer can append to (or reorder against) this tenant's log.
pub(crate) struct WalAppender<'a> {
    wal: &'a TenantWal,
    writer: MutexGuard<'a, Writer>,
}

impl WalAppender<'_> {
    /// Sequence number the next append gets.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn next_seq(&self) -> u64 {
        self.writer.next_seq
    }

    /// Appends one record (rotating first when due), applies the fsync
    /// policy, and returns the record's sequence number. `faults`
    /// supplies the armed crash plan, if any; an injected crash damages
    /// the file exactly as a real crash would, marks the writer dead and
    /// returns [`SpotError::Io`] — the caller must *not* enqueue the
    /// point (a real crash would have taken the process down before the
    /// enqueue).
    pub(crate) fn append(
        &mut self,
        tenant: &TenantId,
        point: &DataPoint,
        faults: Option<&FaultInjector>,
    ) -> Result<u64> {
        let wal = self.wal;
        let w = &mut *self.writer;
        if let Some(reason) = &w.dead {
            return Err(SpotError::Io(format!(
                "wal writer for tenant {tenant} is dead: {reason}"
            )));
        }
        let seq = w.next_seq;
        w.frame.clear();
        let frame_len = encode_record(seq, point, &mut w.frame);
        // Rotate *before* the append so a frame never splits across
        // segments; a segment always keeps at least one record however
        // small the threshold.
        if w.segment_len > WAL_HEADER_LEN as u64
            && w.segment_len + frame_len as u64 > wal.tuning.segment_bytes()
        {
            rotate(wal, w, tenant, faults)?;
        }
        let (frame, path) = (&w.frame[..], &w.path);
        match faults.and_then(|f| f.take_wal_fault(tenant, seq)) {
            Some(WalFault::TornWrite { keep_bytes }) => {
                // The crash lands mid-`write`: only a prefix of the frame
                // reaches the file.
                let keep = keep_bytes.min(frame.len());
                w.file
                    .write_all(&frame[..keep])
                    .map_err(|e| io_err("write", path, &e))?;
                let _ = w.file.sync_data();
                Err(die(w, tenant, format!("injected torn write at seq {seq}")))
            }
            Some(WalFault::FailFsync) => {
                // The sync fails and the process goes down with it:
                // everything since the last successful sync was only in
                // the page cache and is lost.
                w.file
                    .write_all(frame)
                    .map_err(|e| io_err("write", path, &e))?;
                w.file
                    .set_len(w.synced_len)
                    .map_err(|e| io_err("truncate", path, &e))?;
                let _ = w.file.sync_data();
                Err(die(
                    w,
                    tenant,
                    format!("injected fsync failure at seq {seq}"),
                ))
            }
            Some(WalFault::KillAfterAppend) => {
                // The record makes it to stable storage; the process dies
                // before acknowledging (recovery must replay it).
                w.file
                    .write_all(frame)
                    .map_err(|e| io_err("write", path, &e))?;
                w.file.sync_data().map_err(|e| io_err("sync", path, &e))?;
                w.segment_len += frame.len() as u64;
                w.synced_len = w.segment_len;
                w.next_seq += 1;
                Err(die(
                    w,
                    tenant,
                    format!("injected kill after appending seq {seq}"),
                ))
            }
            None => {
                w.file
                    .write_all(frame)
                    .map_err(|e| io_err("write", path, &e))?;
                w.segment_len += frame.len() as u64;
                w.next_seq += 1;
                w.unsynced_records += 1;
                let due = match wal.tuning.fsync {
                    FsyncPolicy::EveryRecord => true,
                    FsyncPolicy::EveryN(n) => w.unsynced_records >= n.max(1),
                    FsyncPolicy::OnRotate => false,
                };
                if due {
                    w.file.sync_data().map_err(|e| io_err("sync", path, &e))?;
                    w.synced_len = w.segment_len;
                    w.unsynced_records = 0;
                }
                Ok(seq)
            }
        }
    }
}

/// Marks the writer dead and builds the error the simulated crash
/// surfaces.
fn die(w: &mut Writer, tenant: &TenantId, reason: String) -> SpotError {
    w.dead = Some(reason.clone());
    SpotError::Io(format!("injected crash ({reason}) for tenant {tenant}"))
}

/// Seals the active segment (sync) and opens the next one. An injected
/// rotation crash leaves the next segment's header half-written — the
/// residue [`spot_stream::wal::scan_wal_dir`] drops on recovery.
fn rotate(
    wal: &TenantWal,
    w: &mut Writer,
    tenant: &TenantId,
    faults: Option<&FaultInjector>,
) -> Result<()> {
    w.file
        .sync_data()
        .map_err(|e| io_err("sync", &w.path, &e))?;
    w.synced_len = w.segment_len;
    w.unsynced_records = 0;
    let next = w.segment + 1;
    let path = wal.dir.join(segment_file_name(next));
    if faults.is_some_and(|f| f.take_rotation_crash(tenant)) {
        std::fs::write(&path, &WAL_MAGIC[..4]).map_err(|e| io_err("write", &path, &e))?;
        return Err(die(
            w,
            tenant,
            format!("injected crash mid-rotation to segment {next}"),
        ));
    }
    let mut file = File::create(&path).map_err(|e| io_err("create", &path, &e))?;
    let header = encode_segment_header(SegmentHeader {
        base_processed: wal.base_processed,
        first_seq: w.next_seq,
    });
    file.write_all(&header)
        .map_err(|e| io_err("write", &path, &e))?;
    file.sync_data().map_err(|e| io_err("sync", &path, &e))?;
    w.file = file;
    w.segment = next;
    w.path = path;
    w.segment_len = WAL_HEADER_LEN as u64;
    w.synced_len = WAL_HEADER_LEN as u64;
    w.segments.push((next, w.next_seq));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_stream::wal::read_wal_from;

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

    #[test]
    fn append_resume_roundtrip_preserves_every_record() {
        let dir = temp_dir("resume");
        let tuning = WalTuning {
            fsync: FsyncPolicy::EveryRecord,
            ..WalTuning::default()
        };
        let t = tid("a");
        {
            let wal = TenantWal::open(dir.clone(), 7, tuning).unwrap();
            let mut ap = wal.appender();
            for i in 0..5 {
                assert_eq!(ap.append(&t, &pt(i as f64 * 0.1), None).unwrap(), i);
            }
        }
        // Reopen: positions and base survive, appends continue the seq.
        let wal = TenantWal::open(dir.clone(), 999, tuning).unwrap();
        assert_eq!(wal.base_processed(), 7);
        assert_eq!(wal.position(), 5);
        {
            let mut ap = wal.appender();
            assert_eq!(ap.next_seq(), 5);
            ap.append(&t, &pt(0.9), None).unwrap();
        }
        let records = read_wal_from(&dir, 0).unwrap();
        assert_eq!(records.len(), 6);
        assert_eq!(records[5].0, 5);
        assert_eq!(records[5].1.values()[0].to_bits(), 0.9f64.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_prune_respect_watermark() {
        let dir = temp_dir("rotate");
        // Tiny segments: every record rotates.
        let tuning = WalTuning {
            fsync: FsyncPolicy::OnRotate,
            segment_bytes: 1,
        };
        let t = tid("a");
        let wal = TenantWal::open(dir.clone(), 0, tuning).unwrap();
        {
            let mut ap = wal.appender();
            for i in 0..4 {
                ap.append(&t, &pt(i as f64 * 0.2), None).unwrap();
            }
        }
        assert_eq!(wal.segment_count(), 4);
        // Watermark 2: segments holding seqs 0 and 1 are deletable.
        assert_eq!(wal.prune_to(2).unwrap(), 2);
        assert_eq!(wal.oldest_retained(), 2);
        // Replay from the watermark still works; from before it errors.
        assert_eq!(read_wal_from(&dir, 2).unwrap().len(), 2);
        assert!(read_wal_from(&dir, 0).is_err());
        // The active segment is never pruned.
        assert_eq!(wal.prune_to(u64::MAX).unwrap(), 1);
        assert_eq!(wal.segment_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_dir_names_escape_and_cannot_collide() {
        assert_eq!(tenant_dir_name(&tid("plain-id_0.9")), "plain-id_0.9");
        assert_eq!(tenant_dir_name(&tid("a/b")), "a%2Fb");
        // A literal "%2F" in an id escapes its '%', so it cannot collide
        // with the escaped form of "a/b".
        assert_eq!(tenant_dir_name(&tid("a%2Fb")), "a%252Fb");
        assert_ne!(tenant_dir_name(&tid("a/b")), tenant_dir_name(&tid("a%2Fb")));
    }

    #[test]
    fn dead_writer_rejects_appends_and_skips_prune() {
        let dir = temp_dir("dead");
        let t = tid("a");
        let wal = TenantWal::open(dir.clone(), 0, WalTuning::default()).unwrap();
        wal.appender().append(&t, &pt(0.5), None).unwrap();
        wal.kill("test crash");
        assert!(wal.is_dead());
        assert!(matches!(
            wal.appender().append(&t, &pt(0.5), None),
            Err(SpotError::Io(_))
        ));
        assert_eq!(wal.prune_to(u64::MAX).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
