//! Hostile bytes over the checkpoint reader.
//!
//! A learned ϕ=16 detector container and a two-tenant fleet envelope are
//! cut at every length and flipped at every byte, each damaged copy
//! re-sealed with a fresh checksum so the damage reaches the parser rather
//! than stopping at the trailer. Every loader — `SpotCheckpoint::from_bytes`,
//! `restore_from_bytes`, `FleetCheckpoint::from_bytes` and a fleet rebuilt
//! from what loads — must answer `Ok` or a typed `SnapshotCorrupt` /
//! `UnsupportedSnapshotVersion`. None may panic; a length field that
//! claimed more than its input would abort the run on the allocation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot::{restore_from_bytes, SpotBuilder, SpotCheckpoint};
use spot_runtime::{FleetCheckpoint, FleetConfig, SpotFleet, TenantId};
use spot_types::persist::binary::checksum64;
use spot_types::{DataPoint, DomainBounds, Result, SpotError};

fn points(n: usize, dims: usize, salt: u64) -> Vec<DataPoint> {
    (0..n as u64)
        .map(|i| {
            DataPoint::new(
                (0..dims as u64)
                    .map(|d| ((i * (d + 3) + salt * 7 + d * 5) % 23) as f64 / 23.0)
                    .collect(),
            )
        })
        .collect()
}

/// A learned ϕ=16 detector, a stretch of stream past its training. Kept
/// to a few KB: every cut and every flip restores it once more.
fn detector_container() -> Vec<u8> {
    let mut spot = SpotBuilder::new(DomainBounds::unit(16))
        .seed(5)
        .fs_max_dimension(1)
        .cs_capacity(2)
        .os_capacity(2)
        .build()
        .unwrap();
    spot.learn(&points(40, 16, 1)).unwrap();
    spot.process_batch(&points(20, 16, 2)).unwrap();
    assert!(spot.is_learned() && spot.sst().sizes().1 > 0);
    spot.checkpoint().to_bytes()
}

/// Two small learned tenants, with WAL positions.
fn fleet_envelope() -> Vec<u8> {
    let fleet = SpotFleet::new(FleetConfig::default());
    let mut wal = Vec::new();
    for (k, name) in ["a", "b"].into_iter().enumerate() {
        let id = TenantId::new(name).unwrap();
        let config = SpotBuilder::new(DomainBounds::unit(3))
            .seed(k as u64)
            .fs_max_dimension(1)
            .build_config()
            .unwrap();
        fleet.register(id.clone(), config).unwrap();
        fleet.learn(&id, &points(24, 3, k as u64)).unwrap();
        fleet.process_batch(&id, &points(8, 3, 9)).unwrap();
        wal.push((id, 20 + k as u64));
    }
    let tenants: Vec<_> = fleet
        .tenant_ids()
        .into_iter()
        .map(|id| {
            let cp = fleet.checkpoint_tenant(&id).unwrap();
            (id, cp)
        })
        .collect();
    FleetCheckpoint::with_wal(tenants, wal).to_bytes()
}

/// Rewrites the checksum trailer of a frame long enough to carry one.
fn reseal(bytes: &mut [u8]) {
    if bytes.len() >= 20 {
        let end = bytes.len() - 8;
        let sum = checksum64(&bytes[8..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
    }
}

fn assert_typed<T>(what: &str, result: Result<T>) {
    match result {
        Ok(_) | Err(SpotError::SnapshotCorrupt(_)) => {}
        Err(SpotError::UnsupportedSnapshotVersion(_)) => {}
        Err(other) => panic!("{what}: untyped error {other:?}"),
    }
}

/// Every damaged copy of `bytes`: each prefix, and each byte XORed with a
/// seeded non-zero mask — all re-sealed.
fn damaged(bytes: &[u8], seed: u64) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let cuts = (0..bytes.len()).map(|cut| {
        let mut b = bytes[..cut].to_vec();
        reseal(&mut b);
        (format!("cut at {cut}"), b)
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let flips = (0..bytes.len()).map(move |at| {
        let mask = rng.gen_range(1..=255u32) as u8;
        let mut b = bytes.to_vec();
        b[at] ^= mask;
        reseal(&mut b);
        (format!("flip {mask:#04x} at {at}"), b)
    });
    cuts.chain(flips)
}

#[test]
fn damaged_detector_containers_are_typed_errors_or_restore() {
    let bytes = detector_container();
    let mut restored = 0;
    for (what, bad) in damaged(&bytes, 0xD37) {
        assert_typed(&what, SpotCheckpoint::from_bytes(&bad));
        let spot = restore_from_bytes(&bad);
        restored += usize::from(spot.is_ok());
        assert_typed(&what, spot);
    }
    // Flips inside column data decode to other values: the parser let
    // those through, the rest were refused.
    assert!(restored > 0 && restored < 2 * bytes.len());
}

#[test]
fn damaged_fleet_envelopes_are_typed_errors_or_restore() {
    let bytes = fleet_envelope();
    for (what, bad) in damaged(&bytes, 0xF1E) {
        match FleetCheckpoint::from_bytes(&bad) {
            Ok(cp) => assert_typed(
                &what,
                SpotFleet::from_checkpoint(&cp, FleetConfig::default()),
            ),
            Err(e) => assert_typed(&what, Err::<(), _>(e)),
        }
    }
}
