//! Detector state persistence: full warm-restart checkpoints.
//!
//! A [`SpotCheckpoint`] is one sealed `SPOTBIN1` container holding the
//! configuration, the SST and the complete runtime state — SoA store
//! columns and packed cell keys, the global decayed weight, drift-test
//! state, the reservoir and outlier retention, counters, RNG state and the
//! stream clock — as named fields and columns (floats as IEEE-754 bit
//! patterns; see `spot_types::persist`). A detector restored from it
//! produces **bit-identical verdicts and stats** to one that never
//! restarted. Each layer writes itself through the
//! [`spot_types::DurableState`] capture/restore trait, straight into the
//! container's buffer: the checkpoint is bytes from capture on, and a
//! fleet envelope embeds them verbatim.
//!
//! [`restore_from_bytes`] and [`SpotCheckpoint::from_bytes`] read the
//! version stamp before anything else and refuse unknown versions with
//! [`SpotError::UnsupportedSnapshotVersion`], damaged bytes with
//! [`SpotError::SnapshotCorrupt`], never a panic. See
//! `docs/persistence.md` for the format layout and the versioning policy.
//!
//! [`SpotError::UnsupportedSnapshotVersion`]: spot_types::SpotError::UnsupportedSnapshotVersion
//! [`SpotError::SnapshotCorrupt`]: spot_types::SpotError::SnapshotCorrupt

use crate::config::SpotConfig;
use crate::detector::Spot;
use crate::sst::Sst;
use spot_types::{DomainBounds, Result, SpotError, StateReader, StateWriter};

/// Checkpoint format version: the stamp after the container magic.
pub const CHECKPOINT_BINARY_VERSION: u32 = 4;

/// Durable state of a SPOT instance — configuration, SST and the complete
/// runtime state — as the sealed container bytes it was captured into.
/// [`Spot::from_checkpoint`] restores it bit-exactly: the restored
/// detector continues the stream as if it had never stopped.
#[derive(Debug, Clone)]
pub struct SpotCheckpoint {
    bytes: Vec<u8>,
}

impl SpotCheckpoint {
    /// The sealed container bytes. Load them with
    /// [`SpotCheckpoint::from_bytes`] or [`restore_from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// The sealed container bytes, borrowed.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Checks a checkpoint container — magic, checksum trailer, version,
    /// configuration, SST and the shape of the state — and keeps its
    /// bytes. Corruption anywhere is a typed error, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let root = StateReader::open(bytes, CHECKPOINT_BINARY_VERSION)?;
        config_of(&root)?;
        root.restore_component("sst", &mut Sst::new(1, 1, 1, 1)?)?;
        root.nested("state")?;
        Ok(SpotCheckpoint {
            bytes: bytes.to_vec(),
        })
    }
}

/// The configuration a checkpoint's root object carries, validated: one
/// no detector could be built from is damage, not a setting.
fn config_of(root: &StateReader<'_>) -> Result<SpotConfig> {
    let mut config = SpotConfig::new(DomainBounds::unit(1));
    root.restore_component("config", &mut config)?;
    config.validate().map_err(corrupt_config)?;
    Ok(config)
}

fn corrupt_config(e: SpotError) -> SpotError {
    SpotError::SnapshotCorrupt(format!("config: {e}"))
}

impl Spot {
    /// Captures the complete state into a sealed container. The detector is
    /// not mutated; processing can resume immediately after.
    pub fn checkpoint(&self) -> SpotCheckpoint {
        let mut w = StateWriter::container(CHECKPOINT_BINARY_VERSION);
        w.component("config", self.config());
        self.capture_runtime_state(&mut w);
        SpotCheckpoint { bytes: w.seal() }
    }

    /// Restores a detector from a checkpoint, bit-exactly: verdicts, stats
    /// and footprint continue as if the detector had never stopped (pinned
    /// by the warm-restart proptest suites).
    pub fn from_checkpoint(checkpoint: &SpotCheckpoint) -> Result<Self> {
        restore_from_bytes(&checkpoint.bytes)
    }
}

/// Restores a detector from the bytes of a sealed checkpoint container
/// ([`SpotCheckpoint::to_bytes`]). A version other than
/// [`CHECKPOINT_BINARY_VERSION`] yields
/// [`SpotError::UnsupportedSnapshotVersion`]; anything else that is not a
/// whole, valid container — a truncated or bit-flipped frame, a broken
/// payload — yields [`SpotError::SnapshotCorrupt`], never a panic.
///
/// [`SpotError::UnsupportedSnapshotVersion`]: spot_types::SpotError::UnsupportedSnapshotVersion
/// [`SpotError::SnapshotCorrupt`]: spot_types::SpotError::SnapshotCorrupt
pub fn restore_from_bytes(bytes: &[u8]) -> Result<Spot> {
    let root = StateReader::open(bytes, CHECKPOINT_BINARY_VERSION)?;
    let mut spot = Spot::new(config_of(&root)?).map_err(corrupt_config)?;
    spot.restore_runtime_state(&root)?;
    Ok(spot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EvolutionConfig, SpotBuilder};
    use crate::verdict::Verdict;
    use spot_types::persist::binary::checksum64;
    use spot_types::DataPoint;

    /// Rewrites the checksum trailer after an edit, so the edit reaches
    /// the parser instead of stopping at the seal.
    fn reseal(bytes: &mut [u8]) {
        let end = bytes.len() - 8;
        let sum = checksum64(&bytes[8..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
    }

    /// Overwrites the bytes right after the first occurrence of `at`.
    fn patch(bytes: &[u8], at: &[u8], with: &[u8]) -> Vec<u8> {
        let i = bytes.windows(at.len()).position(|w| w == at).unwrap() + at.len();
        let mut out = bytes.to_vec();
        out[i..i + with.len()].copy_from_slice(with);
        reseal(&mut out);
        out
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

    /// `train()` cycled, with two coordinates of every 17th point moved
    /// across the whole domain.
    fn spiked(n: usize) -> Vec<DataPoint> {
        (0..n)
            .map(|i| {
                let mut p = train()[i % 400].clone().into_values();
                if i % 17 == 0 {
                    p[i % 4] = ((i * 7919) % 1000) as f64 / 1000.0;
                    p[(i + 1) % 4] = ((i * 104_729) % 997) as f64 / 997.0;
                }
                DataPoint::new(p)
            })
            .collect()
    }

    /// A learned 4-d detector; `evolve` sets the evolution period and
    /// `prune` the pruning period (`None` leaves either at its default).
    fn learned(seed: u64, evolve: Option<u64>, prune: Option<u64>) -> Spot {
        let mut b = SpotBuilder::new(DomainBounds::unit(4)).seed(seed);
        if let Some(period) = evolve {
            b = b.evolution(EvolutionConfig {
                period,
                ..Default::default()
            });
        }
        if let Some(every) = prune {
            b = b.pruning(every, 1e-4);
        }
        let mut spot = b.build().unwrap();
        spot.learn(&train()).unwrap();
        spot
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

    /// Checkpoints a detector point by point at `cut`, drops it (the
    /// "crash"), restores the bytes through `restore` and continues: the
    /// verdicts, stats, footprint, clock and drift signal must be
    /// bit-identical to the uninterrupted detector's, across evolution and
    /// pruning ticks.
    fn assert_resumes_at(cut: usize, restore: impl Fn(&[u8]) -> Spot) {
        let pts = stream(500);
        let mut uninterrupted = learned(17, Some(120), Some(90));
        let want: Vec<Verdict> = pts
            .iter()
            .map(|p| uninterrupted.process(p).unwrap())
            .collect();
        let mut first_half = learned(17, Some(120), Some(90));
        let mut got: Vec<Verdict> = pts[..cut]
            .iter()
            .map(|p| first_half.process(p).unwrap())
            .collect();
        let bytes = first_half.checkpoint().to_bytes();
        drop(first_half);
        let mut resumed = restore(&bytes);
        got.extend(pts[cut..].iter().map(|p| resumed.process(p).unwrap()));
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
    fn snapshot_roundtrip_preserves_sst() {
        let spot = learned(3, None, None);
        let restored = restore_from_bytes(&spot.checkpoint().to_bytes()).unwrap();
        assert!(restored.is_learned());
        assert_eq!(restored.sst().sizes(), spot.sst().sizes());
        let a: Vec<u64> = spot.sst().iter_all().map(|s| s.mask()).collect();
        let b: Vec<u64> = restored.sst().iter_all().map(|s| s.mask()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn restored_detector_detects() {
        let spot = learned(3, None, None);
        let mut restored = restore_from_bytes(&spot.checkpoint().to_bytes()).unwrap();
        // Feed a recent batch, then detect.
        restored.process_batch(&train()).unwrap();
        let sparse = DataPoint::new(vec![0.95, 0.02, 0.9, 0.05]);
        assert!(restored.process(&sparse).unwrap().outlier);
        let dense = DataPoint::new(vec![0.21, 0.31, 0.45, 0.52]);
        assert!(!restored.process(&dense).unwrap().outlier);
    }

    #[test]
    fn unlearned_snapshot_restores_unlearned() {
        let spot = SpotBuilder::new(DomainBounds::unit(4)).build().unwrap();
        let restored = restore_from_bytes(&spot.checkpoint().to_bytes()).unwrap();
        assert!(!restored.is_learned());
        assert_eq!(restored.sst().sizes(), (4 + 6, 0, 0));
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        // Through the typed `from_bytes` and `Spot::from_checkpoint`.
        assert_resumes_at(230, |bytes| {
            Spot::from_checkpoint(&SpotCheckpoint::from_bytes(bytes).unwrap()).unwrap()
        });
    }

    #[test]
    fn checkpoint_resume_is_bit_exact_for_batches() {
        let pts = stream(420);
        let mut uninterrupted = learned(29, Some(150), Some(100));
        let want = uninterrupted.process_batch(&pts).unwrap();

        let mut first_half = learned(29, Some(150), Some(100));
        let mut got = first_half.process_batch(&pts[..200]).unwrap();
        let mut resumed = Spot::from_checkpoint(&first_half.checkpoint()).unwrap();
        got.extend(resumed.process_batch(&pts[200..]).unwrap());

        assert_verdicts_bitwise(&want, &got);
        assert_eq!(resumed.stats(), uninterrupted.stats());
        assert_eq!(resumed.footprint(), uninterrupted.footprint());
    }

    #[test]
    fn checkpoint_bytes_depend_on_config_seed_and_stream_only() {
        // Twins built apart and fed one stream through the batch path —
        // whose stage timers read the wall clock — write the same bytes.
        let (mut a, mut b) = (learned(23, Some(150), None), learned(23, Some(150), None));
        for chunk in stream(400).chunks(97) {
            a.process_batch(chunk).unwrap();
            b.process_batch(chunk).unwrap();
        }
        assert!(a.stats().batch_runs > 0);
        assert_eq!(a.checkpoint().to_bytes(), b.checkpoint().to_bytes());
    }

    #[test]
    fn checkpoint_of_restored_detector_matches_original() {
        // capture → restore → capture is a fixed point (same bytes).
        let mut spot = learned(5, None, None);
        spot.process_batch(&stream(150)).unwrap();
        let first = spot.checkpoint().to_bytes();
        let restored = restore_from_bytes(&first).unwrap();
        assert_eq!(restored.checkpoint().to_bytes(), first);
    }

    #[test]
    fn unknown_versions_are_rejected_with_typed_errors() {
        let spot = SpotBuilder::new(DomainBounds::unit(4)).build().unwrap();
        let bytes = spot.checkpoint().to_bytes();
        // A container stamped with another version is refused, not misread
        // — including absurd versions and the retired carriers' 1, 2 and 3.
        for version in [9, 1, 2, 3, u32::MAX] {
            let mut other = bytes.clone();
            other[8..12].copy_from_slice(&version.to_le_bytes());
            reseal(&mut other);
            for err in [
                restore_from_bytes(&other).unwrap_err(),
                SpotCheckpoint::from_bytes(&other).unwrap_err(),
            ] {
                assert_eq!(err, SpotError::UnsupportedSnapshotVersion(version));
            }
        }
    }

    #[test]
    fn containers_written_before_version_4_are_refused_by_number() {
        // A ϕ=3 detector checkpointed by the last version-3 build.
        let old = include_bytes!("../tests/fixtures/detector_v3.ckpt");
        let want = SpotError::UnsupportedSnapshotVersion(3);
        assert_eq!(restore_from_bytes(old).unwrap_err(), want);
        assert_eq!(SpotCheckpoint::from_bytes(old).unwrap_err(), want);
    }

    #[test]
    fn a_version_4_file_with_the_retired_learning_block_continues_bit_for_bit() {
        // Written by the last build whose configuration carried a
        // `learning` block (the learning stage's searches were settable
        // then): ϕ = 4, seed 17, evolution every 120 points with OS growth
        // from 3 buffered outliers, pruning every 90; learned on `train()`
        // with two exemplars, then fed `spiked(800)[..300]` one by one.
        // That build recorded the FNV-1a digest of the next 500 verdicts.
        let old = include_bytes!("../tests/fixtures/detector_v4.ckpt");
        let digest = include_str!("../tests/fixtures/detector_v4.digest");
        let want = u64::from_str_radix(digest.trim().trim_start_matches("0x"), 16).unwrap();
        let carries = |bytes: &[u8]| bytes.windows(8).any(|w| w == b"learning");
        assert!(carries(old));

        let mut spot = restore_from_bytes(old).unwrap();
        assert!(!carries(spot.checkpoint().as_bytes()));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut word = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for p in &spiked(800)[300..] {
            let v = spot.process(p).unwrap();
            word(v.tick);
            word(u64::from(v.outlier) | u64::from(v.drift) << 1);
            word(v.score.to_bits());
            for f in &v.findings {
                word(f.subspace.mask());
                word(f.rd.to_bits());
                word(f.irsd.to_bits());
            }
        }
        assert_eq!(h, want, "digest {h:#018x}");
        // The 500 points ran five self-evolutions and added five OS
        // subspaces.
        let stats = spot.stats();
        let counts = (stats.processed, stats.outliers, stats.evolutions);
        assert_eq!((counts, stats.os_added), ((800, 39, 7), 11));
    }

    #[test]
    fn binary_checkpoint_resume_is_bit_exact() {
        // The same bar through `restore_from_bytes`.
        assert_resumes_at(180, |bytes| restore_from_bytes(bytes).unwrap());
    }

    #[test]
    fn corrupted_binary_frames_error_instead_of_panicking() {
        let mut spot = learned(3, None, None);
        spot.process_batch(&stream(60)).unwrap();
        let bytes = spot.checkpoint().to_bytes();
        assert!(restore_from_bytes(&bytes).is_ok());
        let corrupt =
            |b: &[u8]| matches!(restore_from_bytes(b), Err(SpotError::SnapshotCorrupt(_)));
        // Truncations at a spread of prefix lengths.
        for cut in [0, 7, 8, 100, bytes.len() / 2, bytes.len() - 1] {
            assert!(corrupt(&bytes[..cut]), "cut at {cut}");
        }
        // Bit flips across the frame (magic, payload, trailer).
        for at in (0..bytes.len()).step_by(bytes.len() / 37 + 1) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x04;
            assert!(corrupt(&bad), "flip at {at}");
        }
        // Bytes that are not a container at all.
        assert!(corrupt(&[0xff, 0xfe, 0x01]));
    }

    #[test]
    fn a_store_mask_outside_the_grid_is_snapshot_corrupt_not_a_panic() {
        let mut spot = learned(3, None, None);
        spot.process_batch(&stream(60)).unwrap();
        // The first store's one-byte mask, moved to dimension 5 of a 4-d
        // stream.
        let bytes = spot.checkpoint().to_bytes();
        let at = bytes.windows(6).position(|w| w == b"\x04mask\x01").unwrap() + 6;
        let hostile = patch(&bytes, b"\x04mask\x01", &[bytes[at] | 1 << 5]);
        let err = restore_from_bytes(&hostile).unwrap_err();
        assert!(
            matches!(&err, SpotError::SnapshotCorrupt(m) if m.contains("outside the grid")),
            "unexpected error: {err}"
        );
        let checkpoint = SpotCheckpoint::from_bytes(&hostile).unwrap();
        assert!(matches!(
            Spot::from_checkpoint(&checkpoint),
            Err(SpotError::SnapshotCorrupt(_))
        ));
        // The detector the checkpoint came from is none the worse.
        let want = restore_from_bytes(&bytes)
            .unwrap()
            .process_batch(&stream(30))
            .unwrap();
        assert_verdicts_bitwise(&want, &spot.process_batch(&stream(30)).unwrap());
    }

    #[test]
    fn an_sst_capacity_above_the_ceiling_is_snapshot_corrupt() {
        // Capacities of 2^14 take a three-byte varint, so the edit keeps
        // every length: 2^21 − 1 is valid LEB128 and above the ceiling.
        let spot = SpotBuilder::new(DomainBounds::unit(4))
            .cs_capacity(1 << 14)
            .os_capacity(1 << 14)
            .build()
            .unwrap();
        let bytes = spot.checkpoint().to_bytes();
        assert!(restore_from_bytes(&bytes).is_ok());
        for field in [&b"\x0bcs_capacity\x03"[..], b"\x0bos_capacity\x03"] {
            let hostile = patch(&bytes, field, &[0xff, 0xff, 0x7f]);
            assert!(matches!(
                restore_from_bytes(&hostile),
                Err(SpotError::SnapshotCorrupt(m)) if m.contains("capacity")
            ));
        }
    }

    #[test]
    fn corrupt_payloads_error_instead_of_panicking() {
        // Whole, sealed containers that are not checkpoints: no fields,
        // foreign fields, a state whose `rng` field is renamed away, a
        // `learned` flag that is neither 0 nor 1.
        let bytes = learned(3, None, None).checkpoint().to_bytes();
        let mut foreign = StateWriter::container(CHECKPOINT_BINARY_VERSION);
        foreign.bool("no_version", true);
        let containers = [
            StateWriter::container(CHECKPOINT_BINARY_VERSION).seal(),
            foreign.seal(),
            patch(&bytes, b"\x03rn", b"x"),
            patch(&bytes, b"\x07learned\x01", &[2]),
        ];
        for bytes in containers {
            assert!(matches!(
                restore_from_bytes(&bytes).unwrap_err(),
                SpotError::SnapshotCorrupt(_)
            ));
        }
    }
}
