//! Restore matrix for the checkpoint directory.
//!
//! * Every generation is a full checkpoint in the binary container; it
//!   loads and drives a restored fleet bit-identically to the live one.
//! * Files older builds left behind — incremental `.dck` extensions,
//!   JSON-text `.ckpt` envelopes and version-3 binary generations — are
//!   not generations this build reads: the first is ignored like any
//!   foreign file, the second is rejected as [`SpotError::SnapshotCorrupt`],
//!   the third as [`SpotError::UnsupportedSnapshotVersion`], and recovery
//!   falls back past both.
//! * Damaged binary containers (truncated, bit-flipped) are rejected with
//!   [`SpotError::SnapshotCorrupt`], never a panic, and recovery falls
//!   back to an older intact generation.

use spot::{SpotBuilder, SpotConfig, Verdict};
use spot_runtime::{CheckpointStore, FleetCheckpoint, FleetConfig, SpotFleet, TenantId};
use spot_types::{DataPoint, DomainBounds, SpotError, StateReader, StateWriter};
use std::path::PathBuf;

const DIMS: usize = 4;

fn tenant_config(seed: u64) -> SpotConfig {
    SpotBuilder::new(DomainBounds::unit(DIMS))
        .seed(seed)
        .fs_max_dimension(2)
        .build_config()
        .unwrap()
}

fn training(n: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            DataPoint::new(
                (0..DIMS)
                    .map(|d| {
                        let x = (i as u64)
                            .wrapping_mul(d as u64 + 5)
                            .wrapping_add(salt.wrapping_mul(11))
                            % 19;
                        0.35 + (x as f64 / 19.0) * 0.3
                    })
                    .collect(),
            )
        })
        .collect()
}

fn stream(n: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            let mut v: Vec<f64> = (0..DIMS)
                .map(|d| {
                    let x = (i as u64)
                        .wrapping_mul(d as u64 + 3)
                        .wrapping_add(salt.wrapping_mul(7))
                        % 23;
                    0.2 + (x as f64 / 23.0) * 0.5
                })
                .collect();
            if i % 11 == 4 {
                v[i % DIMS] = 0.97;
            }
            DataPoint::new(v)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spot-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tid(name: &str) -> TenantId {
    TenantId::new(name).expect("valid tenant id")
}

/// A serial fleet with `n` learned, exercised tenants `m-0..m-(n-1)`.
fn seeded_fleet(n_tenants: usize) -> SpotFleet {
    let fleet = SpotFleet::new(FleetConfig::default());
    let train = training(120, 5);
    for t in 0..n_tenants {
        let id = tid(&format!("m-{t}"));
        fleet.register(id.clone(), tenant_config(t as u64)).unwrap();
        fleet.learn(&id, &train).unwrap();
        fleet.process_batch(&id, &stream(60, t as u64)).unwrap();
    }
    fleet
}

fn assert_same_verdicts(want: &[Verdict], got: &[Verdict], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: verdict count diverged");
    for (a, b) in want.iter().zip(got) {
        assert!(a.bitwise_eq(b), "{label}: diverged at tick {}", a.tick);
    }
}

/// Restores a fleet from `cp` and proves it continues bit-identically to
/// `live` on a fresh probe stream.
fn assert_continues_like(live: &SpotFleet, cp: &FleetCheckpoint, label: &str) {
    let restored = SpotFleet::from_checkpoint(cp, FleetConfig::default()).unwrap();
    let probe = stream(40, 0xABCD);
    for id in live.tenant_ids() {
        let want = live.process_batch(&id, &probe).unwrap();
        let got = restored.process_batch(&id, &probe).unwrap();
        assert_same_verdicts(&want, &got, &format!("{label}/{id}"));
    }
}

// ---- generations -------------------------------------------------------

#[test]
fn files_left_by_older_builds_are_ignored_or_rejected() {
    let dir = temp_dir("older-files");
    let fleet = seeded_fleet(2);
    let cp = fleet.checkpoint();
    let store = CheckpointStore::open(&dir, 8).unwrap();
    assert_eq!(store.save(&cp).unwrap(), 1);

    // An incremental extension, a JSON-text envelope and a version-3
    // binary generation (two tenants, written by the last version-3
    // build), as older builds wrote them.
    let dck = dir.join("fleet-00000002.dck");
    std::fs::write(&dck, b"garbage delta extension").unwrap();
    std::fs::write(
        dir.join("fleet-00000003.ckpt"),
        br#"{"version":2,"checksum":1,"wal_checksum":2,"tenants":[],"wal":[]}"#,
    )
    .unwrap();
    let v3 = include_bytes!("fixtures/fleet-00000001-v3.ckpt");
    std::fs::write(dir.join("fleet-00000004.ckpt"), v3).unwrap();
    assert_eq!(
        FleetCheckpoint::from_bytes(v3).unwrap_err(),
        SpotError::UnsupportedSnapshotVersion(3)
    );

    // The `.dck` file is not a generation; the JSON and version-3 `.ckpt`
    // files are, but not ones this build reads.
    assert_eq!(store.generations().unwrap(), vec![1, 3, 4]);
    assert_eq!(
        store.load(4).unwrap_err(),
        SpotError::UnsupportedSnapshotVersion(3)
    );
    let scan = store.load_latest().unwrap();
    let (g, recovered) = scan.recovered.expect("generation 1 is intact");
    assert_eq!(g, 1);
    assert_eq!(recovered.to_bytes(), cp.to_bytes());
    assert_continues_like(&fleet, &recovered, "older-files");
    let rejected: Vec<u64> = scan.rejected.iter().map(|(g, _)| *g).collect();
    assert_eq!(rejected, vec![4, 3]);
    assert_eq!(scan.rejected[0].1, SpotError::UnsupportedSnapshotVersion(3));
    assert!(
        matches!(scan.rejected[1].1, SpotError::SnapshotCorrupt(_)),
        "{:?}",
        scan.rejected[1].1
    );

    // Numbering continues past the newest `.ckpt`; the foreign file stays.
    assert_eq!(store.save(&cp).unwrap(), 5);
    assert!(dck.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn binary_corruption_matrix_yields_typed_errors_and_falls_back() {
    let dir = temp_dir("bin-matrix");
    let fleet = seeded_fleet(1);
    let cp = fleet.checkpoint();
    let store = CheckpointStore::open(&dir, 8).unwrap();
    let good = store.save(&cp).unwrap();
    let golden = store.load(good).unwrap().to_bytes();

    // Truncations at a spread of prefix lengths.
    let torn = store.save(&cp).unwrap();
    let full_len = std::fs::metadata(dir.join(format!("fleet-{torn:08}.ckpt")))
        .unwrap()
        .len() as usize;
    for cut in [0, 3, 8, 100, full_len / 2, full_len - 1] {
        store.truncate(torn, cut).unwrap();
        assert!(
            matches!(store.load(torn), Err(SpotError::SnapshotCorrupt(_))),
            "cut {cut}: truncated container must be SnapshotCorrupt"
        );
        // Rewrite the generation intact for the next cut.
        let _ = std::fs::remove_file(dir.join(format!("fleet-{torn:08}.ckpt")));
        std::fs::write(dir.join(format!("fleet-{torn:08}.ckpt")), cp.to_bytes()).unwrap();
    }

    // Single bit flips: the container checksum catches every one of them.
    for offset in (0..full_len).step_by(61) {
        store.corrupt(torn, offset, 0x20).unwrap();
        assert!(
            matches!(store.load(torn), Err(SpotError::SnapshotCorrupt(_))),
            "flip at {offset} slipped through"
        );
        store.corrupt(torn, offset, 0x20).unwrap();
    }
    assert_eq!(store.load(torn).unwrap().to_bytes(), golden);

    // With the newest generation damaged, recovery falls back.
    store.truncate(torn, 10).unwrap();
    let scan = store.load_latest().unwrap();
    let (recovered_gen, recovered) = scan.recovered.expect("an intact generation exists");
    assert_eq!(recovered_gen, good);
    assert_eq!(recovered.to_bytes(), golden);
    assert_eq!(
        scan.rejected.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
        vec![torn]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gorilla_columns_survive_the_container_corruption_matrix() {
    // Decayed-count columns of a warm synopsis are slow-moving float bit
    // patterns (the shape the retired GORILLA column mode targeted). Seal
    // a container around such a column and run it through the same
    // truncation / bit-flip matrix the fleet checkpoints get: exact
    // round-trip when intact, a typed error for every damaged variant.
    let col: Vec<u64> = (0..300)
        .map(|i| (250.0 + (i % 17) as f64 * 0.5).to_bits())
        .collect();
    let mut w = StateWriter::container(1);
    w.u64_col("d", col.iter().copied());
    let frame = w.seal();
    // The column's differences must actually compress (under eight bytes
    // an entry) and round-trip bit-exactly through the container.
    assert!(
        frame.len() < col.len() * 8,
        "the container took {} bytes for {} raw column bytes",
        frame.len(),
        col.len() * 8
    );
    let open = |bytes: &[u8]| {
        StateReader::open(bytes, 1)?
            .u64_col("d")
            .map_err(SpotError::from)
    };
    assert_eq!(open(&frame).unwrap(), col);

    for cut in [0, 3, 8, frame.len() / 3, frame.len() / 2, frame.len() - 1] {
        assert!(
            open(&frame[..cut]).is_err(),
            "cut {cut}: a truncated container must be rejected"
        );
    }
    for offset in (0..frame.len()).step_by(5) {
        let mut bad = frame.clone();
        bad[offset] ^= 0x08;
        assert!(
            open(&bad).is_err(),
            "flip at {offset} slipped through the container"
        );
    }
}
