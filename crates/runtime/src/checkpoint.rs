//! Fleet-level durable state: a versioned container of per-tenant v2
//! checkpoints.
//!
//! A [`FleetCheckpoint`] composes, per tenant, exactly the
//! [`SpotCheckpoint`] a standalone detector captures — the same
//! column-oriented `DurableState` trees, the same bit-exactness contract
//! (see `docs/persistence.md`). The fleet layer adds only an envelope:
//! its own format version, the tenant ids, and each tenant's WAL replay
//! watermark, all sorted so capture → restore → capture is a byte-level
//! fixed point.
//!
//! Every checkpoint generation is one shape: a full fleet checkpoint in
//! the sealed `SPOTBIN1` binary container, whose checksum trailer seals
//! the whole file. Loading follows the detector loader's policy: unknown
//! envelope versions yield [`SpotError::UnsupportedSnapshotVersion`],
//! structurally broken or torn files yield [`SpotError::SnapshotCorrupt`]
//! — never a panic. The per-tenant payloads version independently (they
//! carry the v2 `SpotCheckpoint` version field), so a future detector
//! format slots in without changing the envelope. [`CheckpointStore`]
//! layers crash-safe *files* on top: atomic tmp + fsync + rename writes, a
//! bounded window of retained generations, and recovery that scans for
//! the newest valid file.

use serde::{Deserialize, Serialize, Value};
use spot::SpotCheckpoint;
use spot_types::persist::binary;
use spot_types::{Result, SpotError, TenantId};
use std::path::{Path, PathBuf};

/// Fleet checkpoint envelope version: `{version, tenants, wal}` in a
/// `SPOTBIN1` container. The only version the loader accepts.
pub const FLEET_CHECKPOINT_VERSION: u32 = 3;

/// Durable state of a whole fleet: one v2 [`SpotCheckpoint`] per tenant,
/// sorted by tenant id, plus (when the ingestion WAL is enabled) each
/// tenant's WAL replay watermark — the log sequence number recovery
/// resumes replay from, equal to the tenant's `processed` counter minus
/// the log's `base_processed`.
#[derive(Debug, Clone)]
pub struct FleetCheckpoint {
    tenants: Vec<(TenantId, SpotCheckpoint)>,
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
        mut tenants: Vec<(TenantId, SpotCheckpoint)>,
        mut wal: Vec<(TenantId, u64)>,
    ) -> Self {
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

    /// Renders the checkpoint into a sealed `SPOTBIN1` binary container
    /// (the expensive part of persistence; do it off any ingestion path).
    pub fn to_bytes(&self) -> Vec<u8> {
        binary::encode_container(&self.to_value())
    }

    /// Parses a sealed binary container back into a fleet checkpoint with
    /// typed errors: unknown envelope versions yield
    /// [`SpotError::UnsupportedSnapshotVersion`], anything structurally
    /// broken (a torn or bit-flipped file, duplicate or invalid tenant
    /// ids) yields [`SpotError::SnapshotCorrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let value =
            binary::read_container(bytes).map_err(|e| SpotError::SnapshotCorrupt(e.to_string()))?;
        Self::from_value(&value)
    }

    /// The envelope tree the container carries.
    fn to_value(&self) -> Value {
        let tenants = self
            .tenants
            .iter()
            .map(|(id, cp)| {
                Value::Object(vec![
                    ("id".to_string(), Value::Str(id.to_string())),
                    ("checkpoint".to_string(), cp.to_value()),
                ])
            })
            .collect();
        let wal = self
            .wal
            .iter()
            .map(|(id, seq)| {
                Value::Object(vec![
                    ("id".to_string(), Value::Str(id.to_string())),
                    ("seq".to_string(), Value::U64(*seq)),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "version".to_string(),
                Value::U64(FLEET_CHECKPOINT_VERSION as u64),
            ),
            ("tenants".to_string(), Value::Array(tenants)),
            ("wal".to_string(), Value::Array(wal)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self> {
        let corrupt = |msg: String| SpotError::SnapshotCorrupt(msg);
        let version = match v.get_field("version") {
            Some(&Value::U64(n)) => u32::try_from(n).unwrap_or(u32::MAX),
            Some(other) => {
                return Err(corrupt(format!(
                    "version field is not an integer: {other:?}"
                )))
            }
            None => return Err(corrupt("missing version field".to_string())),
        };
        if version != FLEET_CHECKPOINT_VERSION {
            return Err(SpotError::UnsupportedSnapshotVersion(version));
        }
        let Some(Value::Array(entries)) = v.get_field("tenants") else {
            return Err(corrupt("missing or non-array field `tenants`".to_string()));
        };
        let mut tenants: Vec<(TenantId, SpotCheckpoint)> = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let id = entry_id(entry, "tenant", i)?;
            if tenants.iter().any(|(t, _)| *t == id) {
                return Err(corrupt(format!("duplicate tenant id {id:?}")));
            }
            let cp = SpotCheckpoint::from_value(
                entry.get_field("checkpoint").unwrap_or(&Value::Null),
            )
            .map_err(|e| corrupt(format!("tenant {id:?}: {}", e.in_field("checkpoint").0)))?;
            tenants.push((id, cp));
        }
        let Some(Value::Array(positions)) = v.get_field("wal") else {
            return Err(corrupt("missing or non-array field `wal`".to_string()));
        };
        let mut wal: Vec<(TenantId, u64)> = Vec::with_capacity(positions.len());
        for (i, entry) in positions.iter().enumerate() {
            let id = entry_id(entry, "wal position", i)?;
            let Some(&Value::U64(seq)) = entry.get_field("seq") else {
                return Err(corrupt(format!("wal position {i}: missing integer seq")));
            };
            if wal.iter().any(|(t, _)| *t == id) {
                return Err(corrupt(format!("duplicate wal position {id:?}")));
            }
            wal.push((id, seq));
        }
        Ok(FleetCheckpoint::with_wal(tenants, wal))
    }
}

/// The validated `id` field of the `i`-th entry of an envelope list.
fn entry_id(entry: &Value, what: &str, i: usize) -> Result<TenantId> {
    match entry.get_field("id") {
        Some(Value::Str(name)) => TenantId::new(name)
            .map_err(|e| SpotError::SnapshotCorrupt(format!("{what} {i}: invalid id: {e}"))),
        _ => Err(SpotError::SnapshotCorrupt(format!(
            "{what} {i}: missing string id"
        ))),
    }
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
///   `fleet-<generation>.ckpt.tmp`, fsyncs it, then renames it into place
///   (and best-effort fsyncs the directory): a crash at any instant
///   leaves either the complete previous state or the complete new one,
///   never a half-written `.ckpt` file. Stray `.tmp` files from a crash
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

    /// The retention window (newest generations kept).
    pub fn retain(&self) -> usize {
        self.retain
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
    /// (tmp, fsync, rename), prunes generations beyond the retention
    /// window, and returns the new generation number.
    pub fn save(&self, checkpoint: &FleetCheckpoint) -> Result<u64> {
        let generation = self.generations()?.last().copied().unwrap_or(0) + 1;
        let final_path = self.path_of(generation);
        let mut payload = Vec::new();
        binary::encode(&checkpoint.to_value(), &mut payload);
        let tmp_path = final_path.with_extension("ckpt.tmp");
        {
            let file =
                std::fs::File::create(&tmp_path).map_err(|e| io_err("create", &tmp_path, &e))?;
            let mut out = std::io::BufWriter::new(file);
            binary::write_container(&mut out, &payload)
                .map_err(|e| io_err("write", &tmp_path, &e))?;
            let file = out
                .into_inner()
                .map_err(|e| io_err("write", &tmp_path, &e.into_error()))?;
            // The data must be on stable storage *before* the rename makes
            // it reachable, or a crash could publish an empty file.
            file.sync_all().map_err(|e| io_err("sync", &tmp_path, &e))?;
        }
        std::fs::rename(&tmp_path, &final_path).map_err(|e| io_err("rename", &tmp_path, &e))?;
        // Best effort: make the rename itself durable. Not all platforms
        // support fsync on a directory handle; recovery tolerates a
        // missing newest generation either way.
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
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

fn io_err(action: &str, path: &Path, e: &std::io::Error) -> SpotError {
    SpotError::Io(format!("{action} {}: {e}", path.display()))
}
