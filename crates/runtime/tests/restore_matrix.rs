//! Cross-version / cross-carrier restore matrix.
//!
//! Every on-disk shape the persistence layer has ever written must keep
//! restoring, and the new shapes must obey the same contracts the JSON
//! carrier pinned:
//!
//! * v1 JSON envelope (no WAL fields), v2 JSON, v3 binary container, and
//!   base+delta chains all load — and all drive a restored fleet
//!   bit-identically to the live one.
//! * Damaged binary containers (truncated, bit-flipped) are rejected with
//!   [`SpotError::SnapshotCorrupt`], never a panic, and recovery falls
//!   back to an older intact generation.
//! * Delta chains rebase after [`SpotFleet`]'s rebase interval and the
//!   retention pruner never cuts a retained delta loose from its anchor.
//! * Crash recovery replays the WAL tail on top of a resolved delta
//!   chain.

use spot::{SpotBuilder, SpotConfig, Verdict};
use spot_runtime::{
    Carrier, CheckpointStore, FleetCheckpoint, FleetConfig, FsyncPolicy, SpotFleet, TenantId,
    WalTuning,
};
use spot_types::{DataPoint, DomainBounds, SpotError};
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

// ---- carriers ----------------------------------------------------------

#[test]
fn all_carrier_generations_load_from_one_directory() {
    let dir = temp_dir("carriers");
    let fleet = seeded_fleet(2);
    let cp = fleet.checkpoint();
    let golden = cp.to_json();

    let mut store = CheckpointStore::open(&dir, 8).unwrap();
    assert_eq!(store.carrier(), Carrier::Binary);

    // gen 1 = JSON, gen 2 = binary: a directory written across an
    // upgrade holds both, and both must load.
    store.set_carrier(Carrier::Json);
    let g_json = store.save(&cp).unwrap();
    store.set_carrier(Carrier::Binary);
    let g_bin = store.save(&cp).unwrap();

    // The binary file is the compact carrier.
    let json_len = std::fs::metadata(dir.join(format!("fleet-{g_json:08}.ckpt")))
        .unwrap()
        .len();
    let bin_len = std::fs::metadata(dir.join(format!("fleet-{g_bin:08}.ckpt")))
        .unwrap()
        .len();
    assert!(
        bin_len * 2 < json_len,
        "binary {bin_len} vs json {json_len}"
    );

    for g in [g_json, g_bin] {
        let loaded = store.load(g).unwrap();
        assert_eq!(loaded.to_json(), golden, "generation {g} round trip");
    }
    assert_continues_like(&fleet, &store.load(g_bin).unwrap(), "binary");

    // A v1 JSON envelope (pre-WAL) dropped into the directory still
    // resolves through the same loader.
    let legacy = golden
        .replacen("\"version\":2", "\"version\":1", 1)
        .replacen("\"wal_checksum\":", "\"ignored\":", 1)
        .replacen(",\"wal\":[]", "", 1);
    let v1 = FleetCheckpoint::from_json(&legacy).unwrap();
    assert_eq!(v1.tenant_ids(), fleet.tenant_ids());

    // In-memory byte round trip on the binary carrier is a fixed point.
    let bytes = cp.to_bytes();
    let back = FleetCheckpoint::from_bytes(&bytes).unwrap();
    assert_eq!(back.to_json(), golden);
    assert_eq!(back.to_bytes(), bytes);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn binary_corruption_matrix_yields_typed_errors_and_falls_back() {
    let dir = temp_dir("bin-matrix");
    let fleet = seeded_fleet(1);
    let cp = fleet.checkpoint();
    let store = CheckpointStore::open(&dir, 8).unwrap();
    let good = store.save(&cp).unwrap();
    let golden = store.load(good).unwrap().to_json();

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

    // Single bit flips: the container checksum catches every one of them
    // (unlike JSON, where most flips land in float digits and only
    // re-render checks notice).
    for offset in (0..full_len).step_by(61) {
        store.corrupt(torn, offset, 0x20).unwrap();
        assert!(
            matches!(store.load(torn), Err(SpotError::SnapshotCorrupt(_))),
            "flip at {offset} slipped through"
        );
        store.corrupt(torn, offset, 0x20).unwrap();
    }
    assert_eq!(store.load(torn).unwrap().to_json(), golden);

    // With the newest generation damaged, recovery falls back.
    store.truncate(torn, 10).unwrap();
    let scan = store.load_latest().unwrap();
    let (recovered_gen, recovered) = scan.recovered.expect("an intact generation exists");
    assert_eq!(recovered_gen, good);
    assert_eq!(recovered.to_json(), golden);
    assert_eq!(
        scan.rejected.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
        vec![torn]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- delta chains ------------------------------------------------------

#[test]
fn delta_chain_resolves_bit_exactly_and_scales_with_dirty_tenants() {
    let dir = temp_dir("delta");
    let fleet = seeded_fleet(4);
    let store = CheckpointStore::open(&dir, 8).unwrap();

    // Anchor: a full durable checkpoint of all four tenants.
    let g1 = fleet.checkpoint_durable(&store).unwrap();
    assert!(!store.is_delta(g1).unwrap());
    let full_len = std::fs::metadata(dir.join(format!("fleet-{g1:08}.ckpt")))
        .unwrap()
        .len();

    // Only tenant m-0 moves; the delta must carry the other three as
    // "unchanged" markers, so its cost scales with what was dirtied.
    let active = tid("m-0");
    fleet.process_batch(&active, &stream(50, 77)).unwrap();
    let g2 = fleet.checkpoint_durable_delta(&store).unwrap();
    assert_eq!(g2, g1 + 1);
    assert!(store.is_delta(g2).unwrap());
    let delta_len = std::fs::metadata(dir.join(format!("fleet-{g2:08}.dck")))
        .unwrap()
        .len();
    assert!(
        delta_len * 3 < full_len,
        "delta {delta_len} bytes does not scale vs full {full_len}"
    );

    // Chain resolution materializes exactly the live state.
    let resolved = store.load(g2).unwrap();
    assert_eq!(resolved.to_json(), fleet.checkpoint().to_json());
    assert_continues_like(&fleet, &resolved, "chain-1");

    // A second link (the probe above touched every tenant, so this one
    // carries them all — chain resolution must still be exact).
    fleet.process_batch(&active, &stream(20, 78)).unwrap();
    fleet.process_batch(&tid("m-1"), &stream(20, 79)).unwrap();
    let g3 = fleet.checkpoint_durable_delta(&store).unwrap();
    assert!(store.is_delta(g3).unwrap());
    let resolved = store.load(g3).unwrap();
    assert_eq!(resolved.to_json(), fleet.checkpoint().to_json());
    assert_continues_like(&fleet, &resolved, "chain-2");

    // load_latest resolves the chain transparently.
    let scan = store.load_latest().unwrap();
    assert_eq!(scan.recovered.unwrap().0, g3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delta_handles_added_and_removed_tenants() {
    let dir = temp_dir("delta-membership");
    let fleet = seeded_fleet(3);
    let store = CheckpointStore::open(&dir, 8).unwrap();
    fleet.checkpoint_durable(&store).unwrap();

    // m-2 leaves, m-new arrives (a Full entry in the delta), m-0 moves.
    fleet.evict(&tid("m-2")).unwrap();
    let newcomer = tid("m-new");
    fleet.register(newcomer.clone(), tenant_config(9)).unwrap();
    fleet.learn(&newcomer, &training(120, 5)).unwrap();
    fleet.process_batch(&newcomer, &stream(30, 9)).unwrap();
    fleet.process_batch(&tid("m-0"), &stream(30, 10)).unwrap();

    let g = fleet.checkpoint_durable_delta(&store).unwrap();
    assert!(store.is_delta(g).unwrap());
    let resolved = store.load(g).unwrap();
    assert_eq!(resolved.to_json(), fleet.checkpoint().to_json());
    let ids = resolved.tenant_ids();
    assert!(ids.contains(&newcomer));
    assert!(!ids.contains(&tid("m-2")));
    assert_continues_like(&fleet, &resolved, "membership");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn chains_rebase_periodically_and_pruning_keeps_anchors() {
    let dir = temp_dir("rebase");
    let fleet = seeded_fleet(2);
    // Tight retention: pruning would strand deltas if it ignored chains.
    let store = CheckpointStore::open(&dir, 2).unwrap();
    fleet.checkpoint_durable(&store).unwrap();

    let active = tid("m-0");
    let mut full_seen_past_anchor = false;
    for round in 0..12u64 {
        fleet.process_batch(&active, &stream(10, round)).unwrap();
        let g = fleet.checkpoint_durable_delta(&store).unwrap();
        if !store.is_delta(g).unwrap() && g > 1 {
            full_seen_past_anchor = true;
        }
        // Whatever retention just pruned, the newest generation must
        // still resolve — its chain anchor is retained by construction.
        let resolved = store.load(g).unwrap();
        assert_eq!(
            resolved.to_json(),
            fleet.checkpoint().to_json(),
            "round {round}: resolved chain diverged"
        );
        // Every retained delta's anchor survives pruning: the oldest
        // retained generation is always a full checkpoint.
        let gens = store.generations().unwrap();
        assert!(
            !store.is_delta(gens[0]).unwrap(),
            "round {round}: window starts mid-chain: {gens:?}"
        );
    }
    assert!(
        full_seen_past_anchor,
        "twelve delta checkpoints never rebased"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_replays_wal_tail_on_top_of_a_delta_chain() {
    let dir = temp_dir("delta-recover");
    let tuning = WalTuning {
        fsync: FsyncPolicy::EveryRecord,
        ..WalTuning::default()
    };
    let train = training(120, 5);
    let pts = stream(240, 1);

    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 64,
        micro_batch: 16,
    });
    let id = tid("tenant-a");
    fleet.register(id.clone(), tenant_config(3)).unwrap();
    fleet.learn(&id, &train).unwrap();
    fleet.enable_wal(dir.join("wal"), tuning).unwrap();
    let store = CheckpointStore::open(&dir, 4).unwrap();

    // Full checkpoint at 100, delta at 180, crash at 220 (the last 40
    // points live only in the WAL).
    for p in &pts[..100] {
        fleet.ingest(&id, p.clone()).unwrap();
        fleet.drain_fully(&id).unwrap();
    }
    fleet.checkpoint_durable(&store).unwrap();
    for p in &pts[100..180] {
        fleet.ingest(&id, p.clone()).unwrap();
        fleet.drain_fully(&id).unwrap();
    }
    let g = fleet.checkpoint_durable_delta(&store).unwrap();
    assert!(store.is_delta(g).unwrap());
    for p in &pts[180..220] {
        fleet.ingest(&id, p.clone()).unwrap();
        fleet.drain_fully(&id).unwrap();
    }
    drop(fleet); // crash

    let (recovered, recovery) = SpotFleet::recover_with(
        &dir,
        FleetConfig {
            queue_capacity: 64,
            micro_batch: 16,
        },
        tuning,
        4,
    )
    .unwrap();
    assert_eq!(recovery.generation, Some(g));
    assert_eq!(recovered.tenant_stats(&id).unwrap().processed, 220);

    // The uncrashed twin.
    let reference = SpotFleet::new(FleetConfig::default());
    reference.register(id.clone(), tenant_config(3)).unwrap();
    reference.learn(&id, &train).unwrap();
    reference.process_batch(&id, &pts[..220]).unwrap();

    let probe = stream(48, 0xBEEF);
    let want = reference.process_batch(&id, &probe).unwrap();
    let got = recovered.process_batch(&id, &probe).unwrap();
    assert_same_verdicts(&want, &got, "delta-recover");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gorilla_columns_survive_the_container_corruption_matrix() {
    // Decayed-count columns of a warm synopsis are exactly the
    // slow-moving float bit patterns the GORILLA column mode targets.
    // Build a container around such a column and run it through the same
    // truncation / bit-flip matrix the fleet checkpoints get: exact
    // round-trip when intact, a typed error for every damaged variant.
    use serde::Value;
    use spot_types::persist::binary;

    let col: Vec<u64> = (0..300)
        .map(|i| (250.0 + (i % 17) as f64 * 0.5).to_bits())
        .collect();
    let tree = Value::Object(vec![("d".to_string(), Value::U64Col(col.clone()))]);
    let frame = binary::encode_container(&tree);
    // The XOR-prev lanes must actually engage (clearly under the 8-byte
    // RAW rate) and round-trip bit-exactly through the container.
    assert!(
        frame.len() < col.len() * 8,
        "gorilla container took {} bytes for {} raw column bytes",
        frame.len(),
        col.len() * 8
    );
    assert_eq!(binary::read_container(&frame).unwrap(), tree);

    for cut in [0, 3, 8, frame.len() / 3, frame.len() / 2, frame.len() - 1] {
        assert!(
            binary::read_container(&frame[..cut]).is_err(),
            "cut {cut}: truncated gorilla container must be rejected"
        );
    }
    for offset in (0..frame.len()).step_by(5) {
        let mut bad = frame.clone();
        bad[offset] ^= 0x08;
        assert!(
            binary::read_container(&bad).is_err(),
            "flip at {offset} slipped through a gorilla container"
        );
    }
}
