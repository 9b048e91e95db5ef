//! Fleet-level durable state: a versioned container of per-tenant v2
//! checkpoints.
//!
//! A [`FleetCheckpoint`] composes, per tenant, exactly the
//! [`SpotCheckpoint`] a standalone detector captures — the same
//! column-oriented `DurableState` trees, the same bit-exactness contract
//! (see `docs/persistence.md`). The fleet layer adds only an envelope:
//! its own format version, the tenant ids, and (since envelope v2) each
//! tenant's WAL replay watermark, all sorted so capture → restore →
//! capture is a byte-level fixed point.
//!
//! Versioning follows the detector loader's policy: unknown envelope
//! versions yield [`SpotError::UnsupportedSnapshotVersion`], structurally
//! broken payloads yield [`SpotError::SnapshotCorrupt`] — never a panic.
//! The per-tenant payloads version independently (they carry the v2
//! `SpotCheckpoint` version field), so a future v3 detector format slots
//! in without changing the envelope.
//!
//! The envelope additionally seals its payload with an FNV-1a 64 checksum
//! (`checksum` field, over the canonical rendering of the `tenants`
//! array): a torn or bit-flipped file that still parses as JSON is
//! rejected as [`SpotError::SnapshotCorrupt`] instead of silently
//! restoring a subtly wrong engine. Envelopes without the field (written
//! before it existed) are still accepted. [`CheckpointStore`] layers
//! crash-safe *files* on top: atomic tmp + fsync + rename writes, a
//! bounded window of retained generations, and recovery that scans for
//! the newest valid file.

use serde::{DeError, Deserialize, Serialize, Value};
use spot::SpotCheckpoint;
use spot_types::persist::binary;
use spot_types::{Result, SpotError, TenantId};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Fleet checkpoint envelope version. Version 2 added the per-tenant WAL
/// replay watermarks (`wal` + `wal_checksum` fields); version-1 envelopes
/// are still accepted and read back with no positions.
pub const FLEET_CHECKPOINT_VERSION: u32 = 2;

/// Fleet envelope version stamped on the binary column carrier and on
/// delta envelopes. The tree shape matches v2 minus the JSON payload
/// checksums — a binary container seals the whole file with its own
/// trailer, so re-rendering the payload to JSON just to hash it would be
/// pure waste.
pub const FLEET_CHECKPOINT_BINARY_VERSION: u32 = 3;

/// The oldest envelope version the loader still accepts.
pub const FLEET_CHECKPOINT_MIN_VERSION: u32 = 1;

/// Longest base→delta chain [`CheckpointStore::load`] will resolve. With
/// rebases every few deltas real chains stay single digits; the cap only
/// exists so a corrupt `parent` pointer cannot recurse unboundedly.
pub const MAX_DELTA_CHAIN: usize = 64;

/// On-disk serialization carrier for checkpoint files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Carrier {
    /// Human-inspectable JSON text (the v1/v2 format). Roughly 10× the
    /// bytes and render time of the binary carrier; kept for debugging
    /// and for readers that predate the binary format.
    Json,
    /// The `SPOTBIN1` binary column container (envelope version 3):
    /// packed `u64` columns, varint/delta compression, one word-wise
    /// checksum trailer sealing the file.
    #[default]
    Binary,
}

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

    /// Renders the checkpoint to JSON text (the expensive part of
    /// persistence; do it off any ingestion path).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fleet checkpoint serialization is infallible")
    }

    /// Parses JSON text into a fleet checkpoint with typed errors:
    /// unknown envelope versions yield
    /// [`SpotError::UnsupportedSnapshotVersion`], anything structurally
    /// broken (including duplicate or invalid tenant ids) yields
    /// [`SpotError::SnapshotCorrupt`].
    pub fn from_json(text: &str) -> Result<Self> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| SpotError::SnapshotCorrupt(e.to_string()))?;
        envelope_version(&value)?;
        Self::from_value(&value).map_err(|e| SpotError::SnapshotCorrupt(e.0))
    }

    /// The checkpoint's value tree with the v3 (binary-carrier) version
    /// stamp — same shape as v2 minus the JSON payload checksums, which
    /// the binary container's own trailer supersedes.
    pub fn to_value_binary(&self) -> Value {
        Value::Object(vec![
            (
                "version".to_string(),
                Value::U64(FLEET_CHECKPOINT_BINARY_VERSION as u64),
            ),
            ("tenants".to_string(), self.tenants_value()),
            ("wal".to_string(), self.wal_value()),
        ])
    }

    /// Renders the checkpoint into a sealed `SPOTBIN1` binary container.
    pub fn to_bytes(&self) -> Vec<u8> {
        binary::encode_container(&self.to_value_binary())
    }

    /// Parses a sealed binary container (the v3 carrier) back into a
    /// fleet checkpoint with the same typed-error policy as
    /// [`FleetCheckpoint::from_json`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let value =
            binary::read_container(bytes).map_err(|e| SpotError::SnapshotCorrupt(e.to_string()))?;
        envelope_version(&value)?;
        Self::from_value(&value).map_err(|e| SpotError::SnapshotCorrupt(e.0))
    }

    fn tenants_value(&self) -> Value {
        Value::Array(
            self.tenants
                .iter()
                .map(|(id, cp)| {
                    Value::Object(vec![
                        ("id".to_string(), Value::Str(id.to_string())),
                        ("checkpoint".to_string(), cp.to_value()),
                    ])
                })
                .collect(),
        )
    }

    fn wal_value(&self) -> Value {
        Value::Array(
            self.wal
                .iter()
                .map(|(id, seq)| {
                    Value::Object(vec![
                        ("id".to_string(), Value::Str(id.to_string())),
                        ("seq".to_string(), Value::U64(*seq)),
                    ])
                })
                .collect(),
        )
    }
}

/// Extracts and range-checks the envelope `version` field with the typed
/// errors every loader shares.
fn envelope_version(value: &Value) -> Result<u32> {
    let version = match value.get_field("version") {
        Some(&Value::U64(n)) => u32::try_from(n).unwrap_or(u32::MAX),
        Some(other) => {
            return Err(SpotError::SnapshotCorrupt(format!(
                "version field is not an integer: {other:?}"
            )))
        }
        None => {
            return Err(SpotError::SnapshotCorrupt(
                "missing version field".to_string(),
            ))
        }
    };
    if !(FLEET_CHECKPOINT_MIN_VERSION..=FLEET_CHECKPOINT_BINARY_VERSION).contains(&version) {
        return Err(SpotError::UnsupportedSnapshotVersion(version));
    }
    Ok(version)
}

/// FNV-1a 64 of the canonical (compact-JSON) rendering of a payload
/// subtree — the quantity the envelope's `checksum` (tenants array) and
/// `wal_checksum` (wal array) fields seal. Both sides of the trip hash a
/// *rendering of a `Value`*, and capture → restore → capture being a
/// byte-level fixed point guarantees a re-parsed tree renders
/// identically, so a clean round trip always verifies.
fn payload_checksum(payload: &Value) -> u64 {
    let mut sink = FnvWriter::new();
    serde_json::to_writer(&mut sink, payload)
        .expect("fleet checkpoint payload serialization is infallible");
    sink.finish()
}

/// An `io::Write` that folds every byte into a running FNV-1a 64 hash —
/// the streaming equivalent of `fnv1a64(rendered_text.as_bytes())`,
/// without ever materializing the multi-megabyte rendering.
struct FnvWriter {
    hash: u64,
}

impl FnvWriter {
    fn new() -> Self {
        FnvWriter {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

impl Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Serialize for FleetCheckpoint {
    fn to_value(&self) -> Value {
        let tenants = self.tenants_value();
        let wal = self.wal_value();
        let checksum = payload_checksum(&tenants);
        let wal_checksum = payload_checksum(&wal);
        Value::Object(vec![
            (
                "version".to_string(),
                Value::U64(FLEET_CHECKPOINT_VERSION as u64),
            ),
            ("checksum".to_string(), Value::U64(checksum)),
            ("wal_checksum".to_string(), Value::U64(wal_checksum)),
            ("tenants".to_string(), tenants),
            ("wal".to_string(), wal),
        ])
    }
}

impl Deserialize for FleetCheckpoint {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let version = u32::from_value(v.get_field("version").unwrap_or(&Value::Null))
            .map_err(|e| e.in_field("version"))?;
        if !(FLEET_CHECKPOINT_MIN_VERSION..=FLEET_CHECKPOINT_BINARY_VERSION).contains(&version) {
            return Err(DeError::custom(format!(
                "expected fleet checkpoint version {FLEET_CHECKPOINT_MIN_VERSION}..={FLEET_CHECKPOINT_BINARY_VERSION}, found {version}"
            )));
        }
        let tenants_value = v.get_field("tenants");
        let Some(tenants_field @ Value::Array(entries)) = tenants_value else {
            return Err(DeError::custom("missing or non-array field `tenants`"));
        };
        // Verify the checksum seal when present (older envelopes lack it).
        match v.get_field("checksum") {
            Some(&Value::U64(stored)) => {
                let computed = payload_checksum(tenants_field);
                if stored != computed {
                    return Err(DeError::custom(format!(
                        "checksum mismatch: envelope declares {stored:#018x}, \
                         payload hashes to {computed:#018x}"
                    )));
                }
            }
            Some(other) => {
                return Err(DeError::custom(format!(
                    "checksum field is not an integer: {other:?}"
                )))
            }
            None => {}
        }
        let mut tenants: Vec<(TenantId, SpotCheckpoint)> = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let id = match entry.get_field("id") {
                Some(Value::Str(name)) => TenantId::new(name)
                    .map_err(|e| DeError::custom(format!("tenant {i}: invalid id: {e}")))?,
                _ => return Err(DeError::custom(format!("tenant {i}: missing string id"))),
            };
            if tenants.iter().any(|(t, _)| *t == id) {
                return Err(DeError::custom(format!("duplicate tenant id {id:?}")));
            }
            let cp =
                SpotCheckpoint::from_value(entry.get_field("checkpoint").unwrap_or(&Value::Null))
                    .map_err(|e| e.in_field("checkpoint"))?;
            tenants.push((id, cp));
        }
        // WAL watermarks arrived with version 2; a v1 envelope reads back
        // with none. The same read policy as the tenants seal applies:
        // a present `wal` must be an array and a present `wal_checksum`
        // must verify, but both are optional on read (always written on
        // save) so hand-stripped/legacy envelopes keep loading.
        let mut wal: Vec<(TenantId, u64)> = Vec::new();
        if let Some(wal_field) = v.get_field("wal") {
            let Value::Array(positions) = wal_field else {
                return Err(DeError::custom("field `wal` is not an array"));
            };
            match v.get_field("wal_checksum") {
                Some(&Value::U64(stored)) => {
                    let computed = payload_checksum(wal_field);
                    if stored != computed {
                        return Err(DeError::custom(format!(
                            "wal_checksum mismatch: envelope declares {stored:#018x}, \
                             payload hashes to {computed:#018x}"
                        )));
                    }
                }
                Some(other) => {
                    return Err(DeError::custom(format!(
                        "wal_checksum field is not an integer: {other:?}"
                    )))
                }
                None => {}
            }
            for (i, entry) in positions.iter().enumerate() {
                let id = match entry.get_field("id") {
                    Some(Value::Str(name)) => TenantId::new(name).map_err(|e| {
                        DeError::custom(format!("wal position {i}: invalid id: {e}"))
                    })?,
                    _ => {
                        return Err(DeError::custom(format!(
                            "wal position {i}: missing string id"
                        )))
                    }
                };
                let seq = match entry.get_field("seq") {
                    Some(&Value::U64(seq)) => seq,
                    _ => {
                        return Err(DeError::custom(format!(
                            "wal position {i}: missing integer seq"
                        )))
                    }
                };
                if wal.iter().any(|(t, _)| *t == id) {
                    return Err(DeError::custom(format!("duplicate wal position {id:?}")));
                }
                wal.push((id, seq));
            }
        }
        Ok(FleetCheckpoint::with_wal(tenants, wal))
    }
}

// ---- delta envelopes ----------------------------------------------------

/// One tenant's contribution to a [`FleetDelta`].
///
/// `Full` dwarfs the other variants inline, but entries only live in
/// short per-capture vectors where `Unchanged` dominates; boxing the
/// checkpoint would cost an allocation on exactly the path that already
/// pays a full capture.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum TenantEntry {
    /// Nothing moved since the parent generation — the parent's
    /// checkpoint carries forward as-is.
    Unchanged,
    /// Only runtime state moved: the tree produced by
    /// `Spot::delta_capture`, applied onto the parent's checkpoint
    /// with `SpotCheckpoint::apply_state_delta`.
    Delta(Value),
    /// Structure moved (or the tenant is new): a complete checkpoint.
    Full(SpotCheckpoint),
}

/// A delta checkpoint: the difference between the fleet now and the
/// immediately previous generation (`parent`). The tenant list is
/// complete — every live tenant appears exactly once, as `Unchanged`,
/// `Delta`, or `Full` — and so is the WAL watermark table, so resolving a
/// chain needs no merging of WAL state across generations. `removed`
/// records tenants the parent held that are gone, for audit; resolution
/// derives the tenant set from the entries alone.
#[derive(Debug, Clone)]
pub struct FleetDelta {
    parent: u64,
    entries: Vec<(TenantId, TenantEntry)>,
    removed: Vec<TenantId>,
    wal: Vec<(TenantId, u64)>,
}

impl FleetDelta {
    /// Wraps per-tenant delta entries against generation `parent` (all
    /// lists sorted by id, later duplicates dropped).
    pub fn new(
        parent: u64,
        mut entries: Vec<(TenantId, TenantEntry)>,
        mut removed: Vec<TenantId>,
        mut wal: Vec<(TenantId, u64)>,
    ) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        removed.sort();
        removed.dedup();
        wal.sort_by(|a, b| a.0.cmp(&b.0));
        wal.dedup_by(|a, b| a.0 == b.0);
        FleetDelta {
            parent,
            entries,
            removed,
            wal,
        }
    }

    /// The generation this delta extends.
    pub fn parent(&self) -> u64 {
        self.parent
    }

    /// How many tenants are carried as `Unchanged` / `Delta` / `Full`.
    pub fn shape(&self) -> (usize, usize, usize) {
        let mut shape = (0, 0, 0);
        for (_, e) in &self.entries {
            match e {
                TenantEntry::Unchanged => shape.0 += 1,
                TenantEntry::Delta(_) => shape.1 += 1,
                TenantEntry::Full(_) => shape.2 += 1,
            }
        }
        shape
    }

    /// The envelope tree. `sealed` adds the JSON payload checksums (used
    /// on the JSON carrier; the binary container seals itself).
    fn to_value(&self, sealed: bool) -> Value {
        let tenants = Value::Array(
            self.entries
                .iter()
                .map(|(id, entry)| {
                    let mut fields = vec![("id".to_string(), Value::Str(id.to_string()))];
                    match entry {
                        TenantEntry::Unchanged => {}
                        TenantEntry::Delta(d) => fields.push(("delta".to_string(), d.clone())),
                        TenantEntry::Full(cp) => {
                            fields.push(("checkpoint".to_string(), cp.to_value()))
                        }
                    }
                    Value::Object(fields)
                })
                .collect(),
        );
        let removed = Value::Array(
            self.removed
                .iter()
                .map(|id| Value::Str(id.to_string()))
                .collect(),
        );
        let wal = Value::Array(
            self.wal
                .iter()
                .map(|(id, seq)| {
                    Value::Object(vec![
                        ("id".to_string(), Value::Str(id.to_string())),
                        ("seq".to_string(), Value::U64(*seq)),
                    ])
                })
                .collect(),
        );
        let mut fields = vec![
            (
                "version".to_string(),
                Value::U64(FLEET_CHECKPOINT_BINARY_VERSION as u64),
            ),
            ("delta".to_string(), Value::Bool(true)),
            ("parent".to_string(), Value::U64(self.parent)),
        ];
        if sealed {
            fields.push((
                "checksum".to_string(),
                Value::U64(payload_checksum(&tenants)),
            ));
            fields.push((
                "wal_checksum".to_string(),
                Value::U64(payload_checksum(&wal)),
            ));
        }
        fields.push(("tenants".to_string(), tenants));
        fields.push(("removed".to_string(), removed));
        fields.push(("wal".to_string(), wal));
        Value::Object(fields)
    }

    fn from_value(v: &Value) -> Result<Self> {
        let corrupt = |msg: String| SpotError::SnapshotCorrupt(msg);
        let parent = match v.get_field("parent") {
            Some(&Value::U64(p)) => p,
            _ => return Err(corrupt("delta envelope: missing integer parent".into())),
        };
        let Some(tenants_field @ Value::Array(entries_v)) = v.get_field("tenants") else {
            return Err(corrupt("delta envelope: missing tenants array".into()));
        };
        if let Some(&Value::U64(stored)) = v.get_field("checksum") {
            let computed = payload_checksum(tenants_field);
            if stored != computed {
                return Err(corrupt(format!(
                    "delta checksum mismatch: envelope declares {stored:#018x}, \
                     payload hashes to {computed:#018x}"
                )));
            }
        }
        let mut entries: Vec<(TenantId, TenantEntry)> = Vec::with_capacity(entries_v.len());
        for (i, entry) in entries_v.iter().enumerate() {
            let id = match entry.get_field("id") {
                Some(Value::Str(name)) => TenantId::new(name)
                    .map_err(|e| corrupt(format!("delta tenant {i}: invalid id: {e}")))?,
                _ => return Err(corrupt(format!("delta tenant {i}: missing string id"))),
            };
            if entries.iter().any(|(t, _)| *t == id) {
                return Err(corrupt(format!("duplicate delta tenant id {id:?}")));
            }
            let te = if let Some(d) = entry.get_field("delta") {
                TenantEntry::Delta(d.clone())
            } else if let Some(cp) = entry.get_field("checkpoint") {
                TenantEntry::Full(
                    SpotCheckpoint::from_value(cp)
                        .map_err(|e| corrupt(format!("delta tenant {id:?}: {}", e.0)))?,
                )
            } else {
                TenantEntry::Unchanged
            };
            entries.push((id, te));
        }
        let mut removed = Vec::new();
        if let Some(Value::Array(ids)) = v.get_field("removed") {
            for (i, id) in ids.iter().enumerate() {
                let Value::Str(name) = id else {
                    return Err(corrupt(format!("delta removed {i}: not a string")));
                };
                removed.push(
                    TenantId::new(name)
                        .map_err(|e| corrupt(format!("delta removed {i}: invalid id: {e}")))?,
                );
            }
        }
        let Some(wal_field @ Value::Array(positions)) = v.get_field("wal") else {
            return Err(corrupt("delta envelope: missing wal array".into()));
        };
        if let Some(&Value::U64(stored)) = v.get_field("wal_checksum") {
            let computed = payload_checksum(wal_field);
            if stored != computed {
                return Err(corrupt(format!(
                    "delta wal_checksum mismatch: envelope declares {stored:#018x}, \
                     payload hashes to {computed:#018x}"
                )));
            }
        }
        let mut wal: Vec<(TenantId, u64)> = Vec::new();
        for (i, entry) in positions.iter().enumerate() {
            let id = match entry.get_field("id") {
                Some(Value::Str(name)) => TenantId::new(name)
                    .map_err(|e| corrupt(format!("delta wal position {i}: invalid id: {e}")))?,
                _ => {
                    return Err(corrupt(format!(
                        "delta wal position {i}: missing string id"
                    )))
                }
            };
            let seq = match entry.get_field("seq") {
                Some(&Value::U64(seq)) => seq,
                _ => {
                    return Err(corrupt(format!(
                        "delta wal position {i}: missing integer seq"
                    )))
                }
            };
            wal.push((id, seq));
        }
        Ok(FleetDelta::new(parent, entries, removed, wal))
    }

    /// Materializes the checkpoint this delta describes on top of its
    /// resolved parent. A tenant carried as `Unchanged` or `Delta` that
    /// the parent does not hold is corruption — the chain was pruned or
    /// damaged out from under the delta.
    pub fn apply(&self, base: &FleetCheckpoint) -> Result<FleetCheckpoint> {
        let mut tenants = Vec::with_capacity(self.entries.len());
        for (id, entry) in &self.entries {
            let cp = match entry {
                TenantEntry::Unchanged => base
                    .get(id)
                    .ok_or_else(|| {
                        SpotError::SnapshotCorrupt(format!(
                            "delta carries tenant {id:?} as unchanged, \
                             but the parent generation does not hold it"
                        ))
                    })?
                    .clone(),
                TenantEntry::Delta(d) => base
                    .get(id)
                    .ok_or_else(|| {
                        SpotError::SnapshotCorrupt(format!(
                            "delta carries a state delta for tenant {id:?}, \
                             but the parent generation does not hold it"
                        ))
                    })?
                    .apply_state_delta(d)?,
                TenantEntry::Full(cp) => cp.clone(),
            };
            tenants.push((id.clone(), cp));
        }
        Ok(FleetCheckpoint::with_wal(tenants, self.wal.clone()))
    }
}

// ---- crash-safe checkpoint files ---------------------------------------

const CKPT_PREFIX: &str = "fleet-";
const CKPT_SUFFIX: &str = ".ckpt";
const DELTA_SUFFIX: &str = ".dck";

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
/// * **Generations** — each save gets the next number; the oldest files
///   beyond the retention window are pruned after a successful rename, so
///   a corrupt newest generation never strands the fleet (recovery falls
///   back to an older one).
/// * **Typed recovery** — [`CheckpointStore::load_latest`] scans newest →
///   oldest, returning the first checkpoint that parses *and* passes the
///   envelope checksum; everything rejected is reported, not panicked on.
/// * **Fault harness** — [`CheckpointStore::corrupt`] and
///   [`CheckpointStore::truncate`] deterministically damage a retained
///   file so tests can drive the recovery path (see `docs/robustness.md`).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    swept: usize,
    carrier: Carrier,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory retaining the
    /// newest `retain` generations (clamped to at least 1), writing new
    /// files on the default [`Carrier::Binary`]. Stray `fleet-*.tmp`
    /// files left by a crash mid-save are deleted here — they are, by
    /// construction, incomplete (a completed save renames its tmp away)
    /// and would otherwise accumulate forever.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, &e))?;
        let mut swept = 0;
        let entries = std::fs::read_dir(&dir).map_err(|e| io_err("list", &dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list", &dir, &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(CKPT_PREFIX)
                && (name.ends_with(".ckpt.tmp") || name.ends_with(".dck.tmp"))
            {
                std::fs::remove_file(entry.path())
                    .map_err(|e| io_err("remove", &entry.path(), &e))?;
                swept += 1;
            }
        }
        Ok(CheckpointStore {
            dir,
            retain: retain.max(1),
            swept,
            carrier: Carrier::default(),
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

    /// The carrier new saves are written on. Loading auto-detects per
    /// file, so a directory may mix carriers across generations (as it
    /// will after an upgrade).
    pub fn carrier(&self) -> Carrier {
        self.carrier
    }

    /// Selects the carrier for subsequent saves.
    pub fn set_carrier(&mut self, carrier: Carrier) {
        self.carrier = carrier;
    }

    fn path_of(&self, generation: u64, delta: bool) -> PathBuf {
        let suffix = if delta { DELTA_SUFFIX } else { CKPT_SUFFIX };
        self.dir
            .join(format!("{CKPT_PREFIX}{generation:08}{suffix}"))
    }

    /// Locates a retained generation on disk; full checkpoints and delta
    /// extensions share one generation sequence but distinct suffixes.
    fn find(&self, generation: u64) -> Result<(PathBuf, bool)> {
        for delta in [false, true] {
            let path = self.path_of(generation, delta);
            if path.exists() {
                return Ok((path, delta));
            }
        }
        Err(SpotError::Io(format!(
            "generation {generation} not found in {}",
            self.dir.display()
        )))
    }

    /// Retained entries as `(generation, is_delta)`, oldest first.
    fn scan(&self) -> Result<Vec<(u64, bool)>> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err("list", &self.dir, &e))?;
        let mut gens = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list", &self.dir, &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(CKPT_PREFIX) else {
                continue;
            };
            let (digits, is_delta) = if let Some(d) = rest.strip_suffix(CKPT_SUFFIX) {
                (d, false)
            } else if let Some(d) = rest.strip_suffix(DELTA_SUFFIX) {
                (d, true)
            } else {
                continue;
            };
            if let Ok(g) = digits.parse::<u64>() {
                gens.push((g, is_delta));
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Retained generation numbers, oldest first (full checkpoints and
    /// delta extensions alike).
    pub fn generations(&self) -> Result<Vec<u64>> {
        Ok(self.scan()?.into_iter().map(|(g, _)| g).collect())
    }

    /// `true` when the retained generation is a delta extension.
    pub fn is_delta(&self, generation: u64) -> Result<bool> {
        self.find(generation).map(|(_, d)| d)
    }

    /// Writes `render` into `fleet-<generation><suffix>` via the atomic
    /// tmp + fsync + rename protocol.
    fn write_atomic(
        &self,
        final_path: &Path,
        render: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
    ) -> Result<()> {
        let mut tmp_name = final_path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        tmp_name.push_str(".tmp");
        let tmp_path = final_path.with_file_name(tmp_name);
        {
            let file =
                std::fs::File::create(&tmp_path).map_err(|e| io_err("create", &tmp_path, &e))?;
            let mut out = std::io::BufWriter::new(file);
            render(&mut out).map_err(|e| io_err("write", &tmp_path, &e))?;
            let file = out
                .into_inner()
                .map_err(|e| io_err("write", &tmp_path, &e.into_error()))?;
            // The data must be on stable storage *before* the rename makes
            // it reachable, or a crash could publish an empty file.
            file.sync_all().map_err(|e| io_err("sync", &tmp_path, &e))?;
        }
        std::fs::rename(&tmp_path, final_path).map_err(|e| io_err("rename", &tmp_path, &e))?;
        // Best effort: make the rename itself durable. Not all platforms
        // support fsync on a directory handle; recovery tolerates a
        // missing newest generation either way.
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn render_envelope(
        &self,
        path: &Path,
        json_tree: impl FnOnce() -> Value,
        binary_tree: impl FnOnce() -> Value,
    ) -> Result<()> {
        match self.carrier {
            Carrier::Json => {
                let tree = json_tree();
                self.write_atomic(path, |out| {
                    serde_json::to_writer(out, &tree)
                        .map_err(|e| std::io::Error::other(e.to_string()))
                })
            }
            Carrier::Binary => {
                let mut payload = Vec::new();
                binary::encode(&binary_tree(), &mut payload);
                self.write_atomic(path, |out| binary::write_container(out, &payload))
            }
        }
    }

    /// Atomically persists a full checkpoint as the next generation on
    /// the store's carrier, prunes generations beyond the retention
    /// window, and returns the new generation number.
    pub fn save(&self, checkpoint: &FleetCheckpoint) -> Result<u64> {
        let generation = self.generations()?.last().copied().unwrap_or(0) + 1;
        let final_path = self.path_of(generation, false);
        self.render_envelope(
            &final_path,
            || checkpoint.to_value(),
            || checkpoint.to_value_binary(),
        )?;
        self.prune_retained()?;
        Ok(generation)
    }

    /// Atomically persists a delta extension as the next generation. The
    /// delta must extend the current latest generation — a delta built
    /// against anything older would silently drop the generations in
    /// between, so it is rejected ([`SpotError::InvalidConfig`]) and the
    /// caller falls back to a full save.
    pub fn save_delta(&self, delta: &FleetDelta) -> Result<u64> {
        let last = self.generations()?.last().copied().unwrap_or(0);
        if last == 0 || delta.parent() != last {
            return Err(SpotError::InvalidConfig(format!(
                "delta extends generation {}, but the latest retained generation is {last}",
                delta.parent()
            )));
        }
        let generation = last + 1;
        let final_path = self.path_of(generation, true);
        self.render_envelope(
            &final_path,
            || delta.to_value(true),
            || delta.to_value(false),
        )?;
        self.prune_retained()?;
        Ok(generation)
    }

    /// Prunes generations beyond the retention window, never cutting a
    /// retained delta loose from its chain: the window extends backwards
    /// over consecutive deltas until it reaches the full checkpoint that
    /// anchors them. Removal is best-effort (a locked file stays; the
    /// next save retries).
    fn prune_retained(&self) -> Result<()> {
        let entries = self.scan()?;
        if entries.len() <= self.retain {
            return Ok(());
        }
        let mut keep_from = entries.len() - self.retain;
        // A delta resolves against the immediately previous generation;
        // keep walking back until the window starts at a full checkpoint.
        while keep_from > 0 && entries[keep_from].1 {
            keep_from -= 1;
        }
        for (g, is_delta) in &entries[..keep_from] {
            let _ = std::fs::remove_file(self.path_of(*g, *is_delta));
        }
        Ok(())
    }

    /// Loads one retained generation, resolving delta chains back to
    /// their full-checkpoint anchor, with the envelope's typed errors
    /// ([`SpotError::SnapshotCorrupt`] / `UnsupportedSnapshotVersion`)
    /// for damaged files and [`SpotError::Io`] for missing ones. The
    /// carrier is auto-detected per file, so mixed directories load.
    pub fn load(&self, generation: u64) -> Result<FleetCheckpoint> {
        self.load_resolving(generation, 0)
    }

    fn load_resolving(&self, generation: u64, depth: usize) -> Result<FleetCheckpoint> {
        if depth > MAX_DELTA_CHAIN {
            return Err(SpotError::SnapshotCorrupt(format!(
                "delta chain at generation {generation} exceeds {MAX_DELTA_CHAIN} links"
            )));
        }
        let (path, is_delta) = self.find(generation)?;
        let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, &e))?;
        let tree = if binary::is_container(&bytes) {
            binary::read_container(&bytes)
                .map_err(|e| SpotError::SnapshotCorrupt(format!("{}: {e}", path.display())))?
        } else {
            let text = String::from_utf8(bytes).map_err(|e| {
                SpotError::SnapshotCorrupt(format!("{}: not valid UTF-8: {e}", path.display()))
            })?;
            serde_json::from_str(&text)
                .map_err(|e| SpotError::SnapshotCorrupt(format!("{}: {e}", path.display())))?
        };
        let declares_delta = matches!(tree.get_field("delta"), Some(&Value::Bool(true)));
        if declares_delta != is_delta {
            return Err(SpotError::SnapshotCorrupt(format!(
                "{}: envelope kind does not match its file extension",
                path.display()
            )));
        }
        if is_delta {
            envelope_version(&tree)?;
            let delta = FleetDelta::from_value(&tree)?;
            if delta.parent() + 1 != generation {
                return Err(SpotError::SnapshotCorrupt(format!(
                    "{}: delta declares parent {}, expected {}",
                    path.display(),
                    delta.parent(),
                    generation - 1
                )));
            }
            let base = self.load_resolving(delta.parent(), depth + 1)?;
            delta.apply(&base)
        } else {
            envelope_version(&tree)?;
            FleetCheckpoint::from_value(&tree).map_err(|e| SpotError::SnapshotCorrupt(e.0))
        }
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
        let (path, _) = self.find(generation)?;
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
        let (path, _) = self.find(generation)?;
        let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, &e))?;
        let keep = len.min(bytes.len());
        std::fs::write(&path, &bytes[..keep]).map_err(|e| io_err("write", &path, &e))?;
        Ok(())
    }
}

fn io_err(action: &str, path: &Path, e: &std::io::Error) -> SpotError {
    SpotError::Io(format!("{action} {}: {e}", path.display()))
}
