//! Fleet-level durable state: a versioned container of per-tenant
//! checkpoints.
//!
//! A [`FleetCheckpoint`] composes, per tenant, exactly the
//! [`SpotCheckpoint`] a standalone detector captures — its sealed container
//! bytes, embedded verbatim, with the same bit-exactness contract (see
//! `docs/persistence.md`). The fleet layer adds only an envelope: its own
//! format version, the tenant ids, and each tenant's WAL replay watermark,
//! all sorted so capture → restore → capture is a byte-level fixed point.
//!
//! Every checkpoint generation is one shape: a full fleet checkpoint in
//! the sealed `SPOTBIN1` binary container, whose checksum trailer seals
//! the whole file. Loading follows the detector loader's policy: unknown
//! envelope versions yield [`SpotError::UnsupportedSnapshotVersion`],
//! structurally broken or torn files yield [`SpotError::SnapshotCorrupt`]
//! — never a panic. The per-tenant containers version independently, so a
//! future detector format slots in without changing the envelope.
//! [`CheckpointStore`] layers crash-safe *files* on top: atomic tmp +
//! fsync + rename writes, a bounded window of retained generations, and
//! recovery that scans for the newest valid file.

use spot::SpotCheckpoint;
use spot_types::framed::io_err;
use spot_types::{Result, SpotError, StateReader, StateWriter, TenantId};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fleet checkpoint envelope version: `{tenants, wal}` in a `SPOTBIN1`
/// container. The only version the loader accepts.
pub const FLEET_CHECKPOINT_VERSION: u32 = 4;

/// Durable state of a whole fleet: one [`SpotCheckpoint`] per tenant,
/// sorted by tenant id, plus (when the ingestion WAL is enabled) each
/// tenant's WAL replay watermark — the log sequence number recovery
/// resumes replay from, equal to the tenant's `processed` counter minus
/// the log's `base_processed`. A tenant's capture is shared with the
/// fleet that took it, which keeps it as the tenant's restore point.
#[derive(Debug, Clone)]
pub struct FleetCheckpoint {
    tenants: Vec<(TenantId, Arc<SpotCheckpoint>)>,
    wal: Vec<(TenantId, u64)>,
}

impl FleetCheckpoint {
    /// Wraps per-tenant checkpoints (sorted by id; later duplicates of an
    /// id are dropped — the fleet registry cannot produce any), with no
    /// WAL positions.
    pub fn new(tenants: Vec<(TenantId, SpotCheckpoint)>) -> Self {
        Self::with_wal(tenants, Vec::new())
    }

    /// Wraps per-tenant checkpoints together with per-tenant WAL replay
    /// watermarks (both sorted by id, duplicates dropped).
    pub fn with_wal(
        tenants: Vec<(TenantId, impl Into<Arc<SpotCheckpoint>>)>,
        mut wal: Vec<(TenantId, u64)>,
    ) -> Self {
        let mut tenants: Vec<_> = tenants
            .into_iter()
            .map(|(id, cp)| (id, cp.into()))
            .collect();
        tenants.sort_by(|a, b| a.0.cmp(&b.0));
        tenants.dedup_by(|a, b| a.0 == b.0);
        wal.sort_by(|a, b| a.0.cmp(&b.0));
        wal.dedup_by(|a, b| a.0 == b.0);
        FleetCheckpoint { tenants, wal }
    }

    /// Per-tenant WAL replay watermarks, sorted by id (empty when the
    /// fleet had no WAL at capture time).
    pub fn wal_positions(&self) -> &[(TenantId, u64)] {
        &self.wal
    }

    /// One tenant's WAL replay watermark, if recorded.
    pub fn wal_position(&self, id: &TenantId) -> Option<u64> {
        self.wal
            .binary_search_by(|(t, _)| t.cmp(id))
            .ok()
            .map(|i| self.wal[i].1)
    }

    /// Tenant ids held by this checkpoint, sorted.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.iter().map(|(id, _)| id.clone()).collect()
    }

    /// The checkpoint of one tenant, if present.
    pub fn get(&self, id: &TenantId) -> Option<&SpotCheckpoint> {
        self.shared(id).map(Arc::as_ref)
    }

    /// [`FleetCheckpoint::get`], as the handle a restore point keeps.
    pub(crate) fn shared(&self, id: &TenantId) -> Option<&Arc<SpotCheckpoint>> {
        self.tenants
            .binary_search_by(|(t, _)| t.cmp(id))
            .ok()
            .map(|i| &self.tenants[i].1)
    }

    /// Number of tenants captured.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// `true` when no tenant was captured.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Renders the checkpoint into a sealed `SPOTBIN1` binary container.
    /// The tenants' containers are copied in verbatim; nothing is encoded
    /// a second time.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::container(FLEET_CHECKPOINT_VERSION);
        w.nested_list("tenants", &self.tenants, |w, (id, cp)| {
            w.bytes("id", id.as_str().as_bytes());
            w.bytes("checkpoint", cp.as_bytes());
        });
        w.nested_list("wal", &self.wal, |w, (id, seq)| {
            w.bytes("id", id.as_str().as_bytes());
            w.u64("seq", *seq);
        });
        w.seal()
    }

    /// Parses a sealed binary container back into a fleet checkpoint with
    /// typed errors: unknown envelope versions yield
    /// [`SpotError::UnsupportedSnapshotVersion`], anything structurally
    /// broken (a torn or bit-flipped file, a damaged tenant container,
    /// duplicate or invalid tenant ids) yields [`SpotError::SnapshotCorrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let root = StateReader::open(bytes, FLEET_CHECKPOINT_VERSION)?;
        let mut tenants: Vec<(TenantId, SpotCheckpoint)> = Vec::new();
        for (i, entry) in root.nested_list("tenants")?.iter().enumerate() {
            let id = entry_id(entry, "tenant", i)?;
            if tenants.iter().any(|(t, _)| *t == id) {
                return Err(corrupt(format!("duplicate tenant id {id:?}")));
            }
            let cp = SpotCheckpoint::from_bytes(entry.bytes("checkpoint")?)
                .map_err(|e| corrupt(format!("tenant {id:?}: {e}")))?;
            tenants.push((id, cp));
        }
        let mut wal: Vec<(TenantId, u64)> = Vec::new();
        for (i, entry) in root.nested_list("wal")?.iter().enumerate() {
            let id = entry_id(entry, "wal position", i)?;
            if wal.iter().any(|(t, _)| *t == id) {
                return Err(corrupt(format!("duplicate wal position {id:?}")));
            }
            wal.push((id, entry.u64("seq")?));
        }
        Ok(FleetCheckpoint::with_wal(tenants, wal))
    }
}

fn corrupt(msg: String) -> SpotError {
    SpotError::SnapshotCorrupt(msg)
}

/// The validated `id` field of the `i`-th entry of an envelope list.
fn entry_id(entry: &StateReader<'_>, what: &str, i: usize) -> Result<TenantId> {
    let name = std::str::from_utf8(entry.bytes("id")?)
        .map_err(|_| corrupt(format!("{what} {i}: id is not UTF-8")))?;
    TenantId::new(name).map_err(|e| corrupt(format!("{what} {i}: invalid id: {e}")))
}

// ---- crash-safe checkpoint files ---------------------------------------

const CKPT_PREFIX: &str = "fleet-";
const CKPT_SUFFIX: &str = ".ckpt";

/// Result of [`CheckpointStore::load_latest`]: the newest generation that
/// parsed and verified, plus every newer generation that had to be
/// rejected on the way there (and why).
#[derive(Debug)]
pub struct RecoveryScan {
    /// The newest valid retained checkpoint, or `None` when every
    /// retained generation is invalid (or none exist).
    pub recovered: Option<(u64, FleetCheckpoint)>,
    /// Generations rejected during the scan, newest first, with the typed
    /// error each produced (torn writes, bit flips, bad versions — never
    /// a panic).
    pub rejected: Vec<(u64, SpotError)>,
}

/// A directory of crash-safe fleet checkpoint files with bounded
/// retention.
///
/// * **Atomic writes** — [`CheckpointStore::save`] writes
///   `fleet-<generation>.ckpt.tmp`, fsyncs it, renames it into place and
///   fsyncs the directory, so the rename is durable before `save`
///   returns: a crash at any instant leaves either the complete previous
///   state or the complete new one, never a half-written `.ckpt` file. Stray `.tmp` files from a crash
///   are ignored by every read path and swept (deleted) the next time the
///   store is opened ([`CheckpointStore::swept_tmp`] reports how many).
/// * **Generations** — each save is a full checkpoint with the next
///   number; the oldest files beyond the retention window are pruned
///   after a successful rename, so a corrupt newest generation never
///   strands the fleet (recovery falls back to an older one). Files that
///   are not `fleet-<digits>.ckpt` are not generations and are ignored.
/// * **Typed recovery** — [`CheckpointStore::load_latest`] scans newest →
///   oldest, returning the first checkpoint whose container checksum
///   verifies and whose envelope parses; everything rejected is
///   reported, not panicked on.
/// * **Fault harness** — [`CheckpointStore::corrupt`] and
///   [`CheckpointStore::truncate`] deterministically damage a retained
///   file so tests can drive the recovery path (see `docs/robustness.md`).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    swept: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory retaining the
    /// newest `retain` generations (clamped to at least 1). Stray
    /// `fleet-*.tmp` files left by a crash mid-save are deleted here —
    /// they are, by construction, incomplete (a completed save renames
    /// its tmp away) and would otherwise accumulate forever.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, &e))?;
        let mut swept = 0;
        let entries = std::fs::read_dir(&dir).map_err(|e| io_err("list", &dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list", &dir, &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(CKPT_PREFIX) && name.ends_with(".tmp") {
                std::fs::remove_file(entry.path())
                    .map_err(|e| io_err("remove", &entry.path(), &e))?;
                swept += 1;
            }
        }
        Ok(CheckpointStore {
            dir,
            retain: retain.max(1),
            swept,
        })
    }

    /// Stray `.tmp` files this store deleted when it was opened.
    pub fn swept_tmp(&self) -> usize {
        self.swept
    }

    /// The directory holding the checkpoint files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, generation: u64) -> PathBuf {
        self.dir
            .join(format!("{CKPT_PREFIX}{generation:08}{CKPT_SUFFIX}"))
    }

    /// Retained generation numbers, oldest first.
    pub fn generations(&self) -> Result<Vec<u64>> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err("list", &self.dir, &e))?;
        let mut gens = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list", &self.dir, &e))?;
            let name = entry.file_name();
            let Some(digits) = name
                .to_str()
                .and_then(|n| n.strip_prefix(CKPT_PREFIX))
                .and_then(|n| n.strip_suffix(CKPT_SUFFIX))
            else {
                continue;
            };
            if let Ok(g) = digits.parse::<u64>() {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// A retained generation's path, or [`SpotError::Io`] when it is not
    /// on disk.
    fn find(&self, generation: u64) -> Result<PathBuf> {
        let path = self.path_of(generation);
        if path.exists() {
            Ok(path)
        } else {
            Err(SpotError::Io(format!(
                "generation {generation} not found in {}",
                self.dir.display()
            )))
        }
    }

    /// Atomically persists a full checkpoint as the next generation
    /// (tmp, fsync, rename, directory fsync), prunes generations beyond
    /// the retention window, and returns the new generation number. A
    /// failed directory sync is an error and prunes nothing: the rename
    /// may not survive a power cut, so neither the older generations nor
    /// the log behind this one may go.
    pub fn save(&self, checkpoint: &FleetCheckpoint) -> Result<u64> {
        let generation = self.generations()?.last().copied().unwrap_or(0) + 1;
        let final_path = self.path_of(generation);
        let bytes = checkpoint.to_bytes();
        let tmp_path = final_path.with_extension("ckpt.tmp");
        {
            let mut file =
                std::fs::File::create(&tmp_path).map_err(|e| io_err("create", &tmp_path, &e))?;
            file.write_all(&bytes)
                .map_err(|e| io_err("write", &tmp_path, &e))?;
            // The data must be on stable storage *before* the rename makes
            // it reachable, or a crash could publish an empty file.
            file.sync_all().map_err(|e| io_err("sync", &tmp_path, &e))?;
        }
        std::fs::rename(&tmp_path, &final_path).map_err(|e| io_err("rename", &tmp_path, &e))?;
        std::fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("sync", &self.dir, &e))?;
        // Prune beyond the retention window. Removal is best-effort (a
        // locked file stays; the next save retries).
        let gens = self.generations()?;
        for g in &gens[..gens.len().saturating_sub(self.retain)] {
            let _ = std::fs::remove_file(self.path_of(*g));
        }
        Ok(generation)
    }

    /// Loads one retained generation with the envelope's typed errors
    /// ([`SpotError::SnapshotCorrupt`] / `UnsupportedSnapshotVersion`)
    /// for damaged files and [`SpotError::Io`] for missing ones.
    pub fn load(&self, generation: u64) -> Result<FleetCheckpoint> {
        let path = self.find(generation)?;
        let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, &e))?;
        FleetCheckpoint::from_bytes(&bytes).map_err(|e| match e {
            SpotError::SnapshotCorrupt(msg) => {
                SpotError::SnapshotCorrupt(format!("{}: {msg}", path.display()))
            }
            other => other,
        })
    }

    /// Scans retained generations newest → oldest and returns the first
    /// that parses and verifies, together with every rejected newer
    /// generation. Never panics on damaged files.
    pub fn load_latest(&self) -> Result<RecoveryScan> {
        let mut rejected = Vec::new();
        for g in self.generations()?.into_iter().rev() {
            match self.load(g) {
                Ok(cp) => {
                    return Ok(RecoveryScan {
                        recovered: Some((g, cp)),
                        rejected,
                    })
                }
                Err(e) => rejected.push((g, e)),
            }
        }
        Ok(RecoveryScan {
            recovered: None,
            rejected,
        })
    }

    /// Fault harness: XORs `mask` into the byte at `offset` (taken modulo
    /// the file length) of a retained generation. A zero mask leaves the
    /// file intact.
    pub fn corrupt(&self, generation: u64, offset: usize, mask: u8) -> Result<()> {
        let path = self.find(generation)?;
        let mut bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, &e))?;
        if bytes.is_empty() {
            return Err(SpotError::Io(format!("{}: empty file", path.display())));
        }
        let at = offset % bytes.len();
        bytes[at] ^= mask;
        std::fs::write(&path, &bytes).map_err(|e| io_err("write", &path, &e))?;
        Ok(())
    }

    /// Fault harness: truncates a retained generation to its first `len`
    /// bytes (a simulated torn write from a crash mid-`write` without the
    /// atomic rename protocol).
    pub fn truncate(&self, generation: u64, len: usize) -> Result<()> {
        let path = self.find(generation)?;
        let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, &e))?;
        let keep = len.min(bytes.len());
        std::fs::write(&path, &bytes[..keep]).map_err(|e| io_err("write", &path, &e))?;
        Ok(())
    }
}
