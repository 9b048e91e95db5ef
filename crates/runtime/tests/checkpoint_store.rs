//! Crash-safe checkpoint file suite: atomic writes, retention, the
//! corruption matrix (truncation, bit flips, bad version, bad checksum —
//! typed errors only, never a panic), and recovery from the newest valid
//! retained generation.

use serde::Value;
use spot::{SpotBuilder, SpotConfig, Verdict};
use spot_runtime::{CheckpointStore, FleetConfig, SpotFleet, TenantId};
use spot_types::persist::binary;
use spot_types::{DataPoint, DomainBounds, SpotError};

fn tenant_config(seed: u64, dims: usize) -> SpotConfig {
    SpotBuilder::new(DomainBounds::unit(dims))
        .seed(seed)
        .fs_max_dimension(2)
        .build_config()
        .unwrap()
}

fn training(n: usize, dims: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            DataPoint::new(
                (0..dims)
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

fn stream(n: usize, dims: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            let mut v: Vec<f64> = (0..dims)
                .map(|d| {
                    let x = (i as u64)
                        .wrapping_mul(d as u64 + 3)
                        .wrapping_add(salt.wrapping_mul(7))
                        % 23;
                    0.2 + (x as f64 / 23.0) * 0.5
                })
                .collect();
            if i % 11 == 4 {
                v[i % dims] = 0.97;
            }
            DataPoint::new(v)
        })
        .collect()
}

/// A small exercised fleet whose checkpoint has real synopsis content.
fn seeded_fleet(dims: usize, n_tenants: usize) -> SpotFleet {
    let fleet = SpotFleet::new(FleetConfig::default());
    let train = training(120, dims, 5);
    for t in 0..n_tenants {
        let id = TenantId::new(format!("store-{t}")).unwrap();
        fleet
            .register(id.clone(), tenant_config(t as u64, dims))
            .unwrap();
        fleet.learn(&id, &train).unwrap();
        fleet
            .process_batch(&id, &stream(60, dims, t as u64))
            .unwrap();
    }
    fleet
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spot-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn is_typed_snapshot_error(e: &SpotError) -> bool {
    matches!(
        e,
        SpotError::SnapshotCorrupt(_) | SpotError::UnsupportedSnapshotVersion(_)
    )
}

#[test]
fn save_load_roundtrip_is_bit_exact() {
    let dims = 4;
    let dir = temp_dir("roundtrip");
    let fleet = seeded_fleet(dims, 2);
    let store = CheckpointStore::open(&dir, 3).unwrap();
    let cp = fleet.checkpoint();
    let generation = store.save(&cp).unwrap();
    assert_eq!(generation, 1);
    let loaded = store.load(generation).unwrap();
    // Byte-level fixed point survives the file trip.
    assert_eq!(cp.to_bytes(), loaded.to_bytes());
    // And the restored fleet continues bit-identically.
    let restored = SpotFleet::from_checkpoint(&loaded, FleetConfig::default()).unwrap();
    let id = TenantId::new("store-0").unwrap();
    let probe = stream(40, dims, 99);
    let want: Vec<Verdict> = fleet.process_batch(&id, &probe).unwrap();
    let got = restored.process_batch(&id, &probe).unwrap();
    for (a, b) in want.iter().zip(&got) {
        assert!(a.bitwise_eq(b), "diverged at tick {}", a.tick);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn twin_fleets_write_identical_checkpoint_files() {
    // Checkpoint bytes are a function of config, seed and stream: two
    // fleets built apart write byte-identical generations.
    let files: Vec<Vec<u8>> = ["twin-a", "twin-b"]
        .into_iter()
        .map(|tag| {
            let dir = temp_dir(tag);
            let store = CheckpointStore::open(&dir, 3).unwrap();
            let g = store.save(&seeded_fleet(4, 3).checkpoint()).unwrap();
            let bytes = std::fs::read(dir.join(format!("fleet-{g:08}.ckpt"))).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            bytes
        })
        .collect();
    assert_eq!(files[0], files[1]);
}

#[test]
fn generations_roll_and_retention_prunes_oldest() {
    let dir = temp_dir("retention");
    let fleet = seeded_fleet(3, 1);
    let store = CheckpointStore::open(&dir, 2).unwrap();
    let cp = fleet.checkpoint();
    for want_gen in 1..=4u64 {
        assert_eq!(store.save(&cp).unwrap(), want_gen);
    }
    // Only the newest two survive.
    assert_eq!(store.generations().unwrap(), vec![3, 4]);
    assert!(matches!(store.load(1), Err(SpotError::Io(_))));
    assert!(store.load(4).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn save_leaves_no_tmp_file_and_ignores_stray_ones() {
    let dir = temp_dir("atomic");
    let fleet = seeded_fleet(3, 1);
    let store = CheckpointStore::open(&dir, 3).unwrap();
    // A stray tmp file from a simulated crash mid-save.
    std::fs::write(dir.join("fleet-00000007.ckpt.tmp"), b"torn garbage").unwrap();
    store.save(&fleet.checkpoint()).unwrap();
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.contains(&"fleet-00000001.ckpt".to_string()),
        "published file missing: {names:?}"
    );
    assert!(
        !names.contains(&"fleet-00000001.ckpt.tmp".to_string()),
        "tmp file leaked: {names:?}"
    );
    // The stray tmp never parses as a generation.
    assert_eq!(store.generations().unwrap(), vec![1]);
    let scan = store.load_latest().unwrap();
    assert_eq!(scan.recovered.unwrap().0, 1);
    assert!(scan.rejected.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The corruption matrix: truncated file, single bit flip, bad version,
/// bad checksum — every damaged form yields a typed error, never a panic,
/// and recovery falls back to the previous intact generation.
#[test]
fn corruption_matrix_yields_typed_errors_and_previous_generation_recovers() {
    let dims = 4;
    let dir = temp_dir("matrix");
    let fleet = seeded_fleet(dims, 2);
    let store = CheckpointStore::open(&dir, 8).unwrap();
    let cp = fleet.checkpoint();
    let good = store.save(&cp).unwrap();
    let good_bytes = store.load(good).unwrap().to_bytes();
    let path_of = |g: u64| store.dir().join(format!("fleet-{g:08}.ckpt"));

    // -- truncation (torn write without the atomic protocol) -------------
    let torn = store.save(&cp).unwrap();
    store.truncate(torn, good_bytes.len() / 2).unwrap();
    assert!(
        matches!(store.load(torn), Err(SpotError::SnapshotCorrupt(_))),
        "truncated file must be SnapshotCorrupt"
    );

    // -- single bit flips across the whole file --------------------------
    // The container's checksum trailer seals every byte, so every flip is
    // caught.
    let flipped = store.save(&cp).unwrap();
    let len = std::fs::metadata(path_of(flipped)).unwrap().len() as usize;
    for offset in (0..len).step_by(97) {
        store.corrupt(flipped, offset, 0x10).unwrap();
        let err = store.load(flipped).unwrap_err();
        assert!(is_typed_snapshot_error(&err), "offset {offset}: {err:?}");
        // Undo the flip (XOR is involutive) so each offset is tested alone.
        store.corrupt(flipped, offset, 0x10).unwrap();
    }
    assert_eq!(store.load(flipped).unwrap().to_bytes(), good_bytes);

    // -- bad version (a well-sealed container declaring version 9) -------
    let bad_version = store.save(&cp).unwrap();
    let mut tree = binary::read_container(&std::fs::read(path_of(bad_version)).unwrap()).unwrap();
    let Value::Object(fields) = &mut tree else {
        panic!("envelope is not an object")
    };
    fields[0] = ("version".to_string(), Value::U64(9));
    std::fs::write(path_of(bad_version), binary::encode_container(&tree)).unwrap();
    assert!(matches!(
        store.load(bad_version),
        Err(SpotError::UnsupportedSnapshotVersion(9))
    ));

    // -- bad checksum (payload intact, seal wrong) ------------------------
    let bad_checksum = store.save(&cp).unwrap();
    store.corrupt(bad_checksum, len - 1, 0x01).unwrap();
    match store.load(bad_checksum) {
        Err(SpotError::SnapshotCorrupt(msg)) => {
            assert!(msg.contains("checksum"), "unexpected reason: {msg}")
        }
        other => panic!("expected checksum rejection, got {other:?}"),
    }

    // -- recovery scan: newest valid wins, damage is reported -------------
    // Newest → oldest: bad_checksum (rejected), bad_version (rejected),
    // flipped (restored — valid), then torn and good behind it.
    let scan = store.load_latest().unwrap();
    let (recovered_gen, recovered_cp) = scan.recovered.expect("an intact generation exists");
    assert_eq!(recovered_gen, flipped);
    assert_eq!(recovered_cp.to_bytes(), good_bytes);
    assert_eq!(
        scan.rejected.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
        vec![bad_checksum, bad_version]
    );

    // capture → corrupt → recover-from-previous-generation roundtrip: the
    // recovered checkpoint drives a fleet bit-identically to the source.
    let restored = SpotFleet::from_checkpoint(&recovered_cp, FleetConfig::default()).unwrap();
    let id = TenantId::new("store-1").unwrap();
    let probe = stream(30, dims, 42);
    let want = fleet.process_batch(&id, &probe).unwrap();
    let got = restored.process_batch(&id, &probe).unwrap();
    for (a, b) in want.iter().zip(&got) {
        assert!(
            a.bitwise_eq(b),
            "recovered fleet diverged at tick {}",
            a.tick
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_store_recovers_to_nothing() {
    let dir = temp_dir("empty");
    let store = CheckpointStore::open(&dir, 3).unwrap();
    let scan = store.load_latest().unwrap();
    assert!(scan.recovered.is_none());
    assert!(scan.rejected.is_empty());
    assert_eq!(store.generations().unwrap(), Vec::<u64>::new());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_sweeps_stray_tmp_files() {
    let dir = temp_dir("sweep");
    std::fs::create_dir_all(&dir).unwrap();
    // Two crash leftovers and one innocent bystander.
    std::fs::write(dir.join("fleet-00000003.ckpt.tmp"), b"torn").unwrap();
    std::fs::write(dir.join("fleet-00000009.ckpt.tmp"), b"also torn").unwrap();
    std::fs::write(dir.join("notes.txt"), b"keep me").unwrap();
    let store = CheckpointStore::open(&dir, 3).unwrap();
    assert_eq!(store.swept_tmp(), 2);
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !names.iter().any(|n| n.ends_with(".ckpt.tmp")),
        "tmp files survived the sweep: {names:?}"
    );
    assert!(names.contains(&"notes.txt".to_string()));
    // A clean reopen sweeps nothing.
    assert_eq!(CheckpointStore::open(&dir, 3).unwrap().swept_tmp(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
