//! Detector state persistence: full warm-restart checkpoints.
//!
//! A [`SpotCheckpoint`] holds the complete runtime state — SoA store
//! columns and packed cell keys, the global decayed weight, drift-test
//! state, the reservoir and outlier retention, counters, RNG state and the
//! stream clock — in a compact column-oriented encoding (floats as
//! IEEE-754 bit patterns; see `spot_types::persist`). A detector restored
//! from it produces **bit-identical verdicts and stats** to one that never
//! restarted. Each layer serializes itself through the
//! [`spot_types::DurableState`] capture/restore trait; the checkpoint
//! merely composes the layers.
//!
//! The one carrier is the sealed `SPOTBIN1` binary container
//! ([`SpotCheckpoint::to_bytes`]); [`restore_from_bytes`] rejects unknown
//! versions with a typed error
//! ([`SpotError::UnsupportedSnapshotVersion`]) and damaged bytes with
//! [`SpotError::SnapshotCorrupt`], never a panic. See
//! `docs/persistence.md` for the format layout and the versioning policy.

use crate::config::SpotConfig;
use crate::detector::Spot;
use crate::sst::Sst;
use serde::{DeError, Deserialize, Serialize, Value};
use spot_types::persist::binary;
use spot_types::{Result, SpotError, StateReader};

/// Checkpoint format version: the value tree carried in the binary column
/// container (`spot_types::persist::binary`).
pub const CHECKPOINT_BINARY_VERSION: u32 = 3;

/// The version stamp of the tenant trees inside fleet envelopes written
/// before the JSON carrier was retired: the same tree, read alike.
const LEGACY_TREE_VERSION: u32 = 2;

/// Durable state of a SPOT instance: configuration + SST + the complete
/// runtime state. [`Spot::from_checkpoint`] restores it bit-exactly — the
/// restored detector continues the stream as if it had never stopped.
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

impl Deserialize for SpotCheckpoint {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let version = u32::from_value(v.get_field("version").unwrap_or(&Value::Null))
            .map_err(|e| e.in_field("version"))?;
        if version != CHECKPOINT_BINARY_VERSION && version != LEGACY_TREE_VERSION {
            return Err(DeError::custom(format!(
                "expected checkpoint version {CHECKPOINT_BINARY_VERSION}, found {version}"
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

impl SpotCheckpoint {
    /// Serializes the checkpoint into a sealed binary container: its value
    /// tree encoded through `spot_types::persist::binary`, checksummed.
    /// Load with [`SpotCheckpoint::from_bytes`] or [`restore_from_bytes`].
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

    /// The checkpoint's value tree — what [`SpotCheckpoint::to_bytes`]
    /// encodes, and what a fleet envelope embeds per tenant.
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

    /// Deserializes a checkpoint container. Corruption anywhere — magic,
    /// checksum trailer, payload structure — is a typed error, never a
    /// panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let tree = binary::read_container(bytes).map_err(corrupt)?;
        SpotCheckpoint::from_value(&tree).map_err(corrupt)
    }
}

impl Spot {
    /// Captures the complete runtime state. The detector is not mutated;
    /// processing can resume immediately after.
    pub fn checkpoint(&self) -> SpotCheckpoint {
        SpotCheckpoint {
            config: self.config().clone(),
            sst: self.sst().clone(),
            state: self.capture_runtime_state(),
        }
    }

    /// Restores a detector from a checkpoint, bit-exactly: verdicts, stats
    /// and footprint continue as if the detector had never stopped (pinned
    /// by the warm-restart proptest suites).
    pub fn from_checkpoint(checkpoint: &SpotCheckpoint) -> Result<Self> {
        let mut spot = Spot::new(checkpoint.config.clone())?;
        let reader = StateReader::new(&checkpoint.state)
            .map_err(|e| SpotError::SnapshotCorrupt(e.to_string()))?;
        spot.restore_runtime_state(checkpoint.sst.clone(), &reader)?;
        Ok(spot)
    }
}

/// Restores a detector from the bytes of a sealed checkpoint container
/// ([`SpotCheckpoint::to_bytes`]). A version other than
/// [`CHECKPOINT_BINARY_VERSION`] yields
/// [`SpotError::UnsupportedSnapshotVersion`]; anything else that is not a
/// whole, valid container — a truncated or bit-flipped frame, a broken
/// payload — yields [`SpotError::SnapshotCorrupt`], never a panic.
pub fn restore_from_bytes(bytes: &[u8]) -> Result<Spot> {
    let value = binary::read_container(bytes).map_err(corrupt)?;
    let version = match value.get_field("version") {
        Some(&Value::U64(n)) => u32::try_from(n).unwrap_or(u32::MAX),
        Some(other) => {
            return Err(corrupt(format!(
                "version field is not an integer: {other:?}"
            )))
        }
        None => return Err(corrupt("missing version field")),
    };
    if version != CHECKPOINT_BINARY_VERSION {
        return Err(SpotError::UnsupportedSnapshotVersion(version));
    }
    Spot::from_checkpoint(&SpotCheckpoint::from_value(&value).map_err(corrupt)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EvolutionConfig, SpotBuilder};
    use crate::verdict::Verdict;
    use spot_types::{DataPoint, DomainBounds};

    /// Mutable access to a named field of a state object; a missing field
    /// or non-object shape is a corruption error.
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
        let restored = restore_from_bytes(&spot.checkpoint().to_bytes()).unwrap();

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
        let mut restored = restore_from_bytes(&spot.checkpoint().to_bytes()).unwrap();
        // Feed a recent batch, then detect.
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
        let restored = restore_from_bytes(&spot.checkpoint().to_bytes()).unwrap();
        assert!(!restored.is_learned());
        let (fs, cs, os) = restored.sst().sizes();
        assert_eq!(fs, 4 + 6);
        assert_eq!((cs, os), (0, 0));
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        // The acceptance bar: checkpoint mid-stream (through the typed
        // `from_bytes`), restore, continue — verdicts, stats and footprint
        // must be bit-identical to the uninterrupted detector, across
        // evolution and pruning ticks.
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
        let bytes = first_half.checkpoint().to_bytes();
        drop(first_half); // the "crash"
        let checkpoint = SpotCheckpoint::from_bytes(&bytes).unwrap();
        let mut resumed = Spot::from_checkpoint(&checkpoint).unwrap();
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
    fn checkpoint_bytes_depend_on_config_seed_and_stream_only() {
        // Twins built apart and fed one stream through the batch path —
        // whose stage timers read the wall clock — write the same bytes.
        let build = || {
            let mut s = SpotBuilder::new(DomainBounds::unit(4))
                .seed(23)
                .evolution(EvolutionConfig {
                    period: 150,
                    ..Default::default()
                })
                .build()
                .unwrap();
            s.learn(&train()).unwrap();
            s
        };
        let (mut a, mut b) = (build(), build());
        let pts = stream(400);
        for chunk in pts.chunks(97) {
            a.process_batch(chunk).unwrap();
            b.process_batch(chunk).unwrap();
        }
        assert!(a.stats().batch_runs > 0);
        assert_eq!(a.checkpoint().to_bytes(), b.checkpoint().to_bytes());
    }

    #[test]
    fn checkpoint_of_restored_detector_matches_original() {
        // capture → restore → capture is a fixed point (same bytes).
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(5)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        for p in stream(150) {
            spot.process(&p).unwrap();
        }
        let first = spot.checkpoint().to_bytes();
        let restored = restore_from_bytes(&first).unwrap();
        assert_eq!(restored.checkpoint().to_bytes(), first);
    }

    #[test]
    fn unknown_versions_are_rejected_with_typed_errors() {
        let spot = SpotBuilder::new(DomainBounds::unit(4)).build().unwrap();
        // A container claiming another version is refused, not misread —
        // including absurd versions and the retired JSON carrier's 1 and 2.
        for (version, named) in [(9, 9), (1, 1), (2, 2), (u64::MAX, u32::MAX)] {
            let mut tree = spot.checkpoint().to_value_binary();
            *field_mut(&mut tree, "version").unwrap() = Value::U64(version);
            assert_eq!(
                restore_from_bytes(&binary::encode_container(&tree)).unwrap_err(),
                SpotError::UnsupportedSnapshotVersion(named)
            );
        }
    }

    #[test]
    fn binary_checkpoint_resume_is_bit_exact() {
        // The same bar through `restore_from_bytes`: checkpoint through the
        // binary container mid-stream, restore, continue — verdicts and
        // stats bit-identical to the uninterrupted detector.
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
        // Bytes that are not a container at all.
        assert!(matches!(
            restore_from_bytes(&[0xff, 0xfe, 0x01]).unwrap_err(),
            SpotError::SnapshotCorrupt(_)
        ));
    }

    /// The `synopsis` object of a checkpoint state tree.
    fn synopsis_entries(state: &mut Value) -> &mut Vec<(String, Value)> {
        match field_mut(state, "synopsis").unwrap() {
            Value::Object(entries) => entries,
            other => panic!("synopsis is not an object: {other:?}"),
        }
    }

    #[test]
    fn trees_that_still_carry_a_base_component_restore() {
        // Older builds wrote a `base` component into the synopsis of every
        // tree. No reader asks for it: such a tree restores and carries on
        // bit-identically to the detector that never stopped.
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(11)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        for p in stream(160) {
            spot.process(&p).unwrap();
        }
        let old_base = Value::Object(vec![
            ("dims".to_string(), Value::U64(4)),
            (
                "keys".to_string(),
                Value::Array(vec![Value::U64(0), Value::U64(7)]),
            ),
            (
                "d".to_string(),
                Value::Array(vec![Value::U64(1.0f64.to_bits())]),
            ),
            ("last".to_string(), Value::Array(vec![Value::U64(7)])),
            ("ls".to_string(), Value::Array(vec![Value::U64(0); 4])),
            ("ss".to_string(), Value::Array(vec![Value::U64(0); 4])),
        ]);
        let mut old = spot.checkpoint();
        synopsis_entries(&mut old.state).insert(1, ("base".to_string(), old_base));

        let mut resumed = Spot::from_checkpoint(&old).unwrap();
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
        // tree that still has them restores through the container and
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

        let mut tree = fresh.to_value_binary();
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
        let binary = binary::encode_container(&tree);
        assert_ne!(binary, fresh_bytes, "the patched tree must differ");

        let tail = stream(2000);
        let want = spot.process_batch(&tail).unwrap();
        let restored = [
            restore_from_bytes(&binary).unwrap(),
            Spot::from_checkpoint(&SpotCheckpoint::from_value(&tree).unwrap()).unwrap(),
        ];
        for mut r in restored {
            assert_eq!(r.checkpoint().to_bytes(), fresh_bytes);
            let got = r.process_batch(&tail).unwrap();
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
        let err = restore_from_bytes(&hostile.to_bytes()).unwrap_err();
        assert!(
            matches!(&err, SpotError::SnapshotCorrupt(m) if m.contains("outside the grid")),
            "unexpected error: {err}"
        );
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
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(3)
            .build()
            .unwrap();
        spot.learn(&train()).unwrap();
        // Whole containers whose trees are not checkpoints: no object, no
        // version, a version that is not an integer, a mangled state.
        let tree = spot.checkpoint().to_value_binary();
        let mut no_version = tree.clone();
        *field_mut(&mut no_version, "version").unwrap() = Value::Null;
        let mut mangled = tree.clone();
        let state = field_mut(&mut mangled, "state").unwrap();
        *field_mut(state, "rng").unwrap() = Value::Str("gnr".to_string());
        let trees = [
            Value::Array(vec![]),
            Value::Object(vec![("no_version".to_string(), Value::Bool(true))]),
            no_version,
            mangled,
        ];
        for tree in trees {
            assert!(matches!(
                restore_from_bytes(&binary::encode_container(&tree)).unwrap_err(),
                SpotError::SnapshotCorrupt(_)
            ));
        }
    }
}
