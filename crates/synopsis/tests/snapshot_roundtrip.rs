//! Round-trip pins for the synopsis layer: capturing and
//! restoring any populated `SynopsisManager` must be bit-exact — keys, SoA
//! columns, decay weights, registration order — including the wide-ϕ
//! fingerprint-key fallback.

use proptest::prelude::*;
use spot_stream::{DecayedCounter, TimeModel, WeightCache};
use spot_subspace::Subspace;
use spot_synopsis::{Grid, ProjectedStore, SynopsisManager};
use spot_types::{DataPoint, DomainBounds, DurableState, PersistError, StateReader, StateWriter};

/// The bytes `mgr` captures itself into.
fn capture(mgr: &SynopsisManager) -> Vec<u8> {
    let mut w = StateWriter::new();
    mgr.capture_state(&mut w);
    w.finish()
}

/// Captures `mgr`, restores into a fresh manager of the same grid/model
/// (no subspaces pre-registered — registration order must come from the
/// snapshot), and checks the restored state is bit-exact.
fn roundtrip_and_check(mgr: &SynopsisManager, now: u64, probes: &[DataPoint]) {
    let state = capture(mgr);
    let mut restored = SynopsisManager::new(mgr.grid().clone(), *mgr.model());
    restored
        .restore_state(&StateReader::new(&state).unwrap())
        .unwrap();

    // Registration order (= per-point result order) is preserved.
    let order: Vec<u64> = mgr.subspaces().map(|s| s.mask()).collect();
    let restored_order: Vec<u64> = restored.subspaces().map(|s| s.mask()).collect();
    assert_eq!(order, restored_order);

    // Logical state is bit-exact.
    assert_eq!(mgr.live_cells(), restored.live_cells());
    assert_eq!(mgr.approx_bytes(), restored.approx_bytes());
    assert_eq!(
        mgr.total_weight(now).to_bits(),
        restored.total_weight(now).to_bits()
    );
    // Both read every probe alike: the probes go on as the next points,
    // into copies, and every store's PCS is compared.
    let (mut a, mut b) = (mgr.clone(), restored.clone());
    let (mut sink_a, mut sink_b) = (Vec::new(), Vec::new());
    for (i, p) in probes.iter().enumerate() {
        a.update_and_query(now + i as u64, p, &mut sink_a).unwrap();
        b.update_and_query(now + i as u64, p, &mut sink_b).unwrap();
        for (x, y) in sink_a.iter().zip(&sink_b) {
            let s = x.subspace;
            assert_eq!(x.pcs.rd.to_bits(), y.pcs.rd.to_bits(), "rd in {s}");
            assert_eq!(x.pcs.irsd.to_bits(), y.pcs.irsd.to_bits(), "irsd in {s}");
        }
    }

    // Per-store columns are captured verbatim, slot order included.
    for s in mgr.subspaces() {
        let a = mgr.projected_store(&s).unwrap();
        let b = restored.projected_store(&s).unwrap();
        let cells_a: Vec<_> = a
            .iter()
            .map(|(k, c)| (k, c.count_at(mgr.model(), now).to_bits()))
            .collect();
        let cells_b: Vec<_> = b
            .iter()
            .map(|(k, c)| (k, c.count_at(mgr.model(), now).to_bits()))
            .collect();
        assert_eq!(cells_a, cells_b, "slot layout of {s}");
    }

    // A second capture is byte-identical: capture → restore → capture is a
    // fixed point.
    assert_eq!(capture(&restored), state);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn populated_manager_roundtrips_bit_exactly(
        raw in proptest::collection::vec(0.0f64..1.0, 24..240),
        granularity in 3u16..12,
        omega in 20u64..400,
        prune_at in 10u64..120,
    ) {
        let dims = 4;
        let grid = Grid::new(DomainBounds::unit(dims), granularity).unwrap();
        let model = TimeModel::new(omega, 0.01).unwrap();
        let mut mgr = SynopsisManager::new(grid, model);
        for d in 0..dims {
            mgr.add_subspace(Subspace::from_dims([d]).unwrap());
        }
        mgr.add_subspace(Subspace::from_dims([0, 1]).unwrap());
        mgr.add_subspace(Subspace::from_dims([2, 3]).unwrap());
        // Exercise removal so registration ordinals have real history.
        mgr.remove_subspace(&Subspace::from_dims([1]).unwrap());

        let points: Vec<DataPoint> = raw
            .chunks_exact(dims)
            .map(|c| DataPoint::new(c.to_vec()))
            .collect();
        let mut now = 0;
        for (i, p) in points.iter().enumerate() {
            now = 1 + i as u64 * 3; // gaps, so decay factors vary
            mgr.update(now, p).unwrap();
            // Fires for some streams only (prune_at beyond short streams).
            if i as u64 == prune_at {
                mgr.prune(now, 1e-3);
            }
        }
        roundtrip_and_check(&mgr, now, &points);
    }
}

#[test]
fn wide_phi_fingerprint_keys_roundtrip() {
    // ϕ = 40 at m = 10: a 33-dim monitored subspace (> 128/4 packed-bit
    // budget) forces fingerprinted projected keys.
    let dims = 40usize;
    let grid = Grid::new(DomainBounds::unit(dims), 10).unwrap();
    let model = TimeModel::new(120, 0.01).unwrap();
    let mut mgr = SynopsisManager::new(grid, model);
    mgr.add_subspace(Subspace::from_dims([0]).unwrap());
    mgr.add_subspace(Subspace::from_dims([3, 17]).unwrap());
    let wide = Subspace::from_dims(0..33).unwrap();
    assert!(
        !mgr.grid().codec().is_exact(wide.cardinality()),
        "test premise: fingerprinted projected keys"
    );
    mgr.add_subspace(wide);

    let points: Vec<DataPoint> = (0..80)
        .map(|i| {
            DataPoint::new(
                (0..dims)
                    .map(|d| ((i * (d + 3) + 7 * d) % 23) as f64 / 23.0)
                    .collect(),
            )
        })
        .collect();
    let mut now = 0;
    for (i, p) in points.iter().enumerate() {
        now = 1 + i as u64;
        mgr.update(now, p).unwrap();
    }
    roundtrip_and_check(&mgr, now, &points);
}

#[test]
fn corrupt_manager_state_is_rejected() {
    let grid = Grid::new(DomainBounds::unit(2), 4).unwrap();
    let model = TimeModel::new(50, 0.01).unwrap();
    let mut mgr = SynopsisManager::new(grid.clone(), model);
    mgr.add_subspace(Subspace::from_dims([0]).unwrap());
    mgr.update(1, &DataPoint::new(vec![0.2, 0.8])).unwrap();
    let good = capture(&mgr);

    // Dropping a required component must fail restore, not panic: rename
    // `total` in place.
    let at = good.windows(5).position(|w| w == b"total").unwrap();
    let mut broken = good.clone();
    broken[at + 4] = b'X';
    let mut fresh = SynopsisManager::new(grid, model);
    assert!(fresh
        .restore_state(&StateReader::new(&broken).unwrap())
        .is_err());
}

#[test]
fn stores_on_both_sides_of_the_dense_cut_roundtrip_and_keep_going() {
    // The slot index is derived state: a snapshot carries the key column
    // only, and restore rebuilds a direct-addressed table (keys up to 10
    // bits) or a hash map (wider) from it. One manager per granularity,
    // with a store on each side of the cut where the granularity allows:
    // m=10 → 4 bits/dim (8-bit dense, 12-bit hashed), m=32 → 5 bits/dim
    // (10-bit dense — the widest — and 15-bit hashed).
    for (m, subs) in [
        (10u16, vec![vec![0, 1], vec![2], vec![0, 1, 2]]),
        (32u16, vec![vec![1, 2], vec![0], vec![0, 1, 2]]),
    ] {
        let grid = Grid::new(DomainBounds::unit(3), m).unwrap();
        let model = TimeModel::new(40, 0.01).unwrap();
        let mut mgr = SynopsisManager::new(grid, model);
        for dims in &subs {
            mgr.add_subspace(Subspace::from_dims(dims.iter().copied()).unwrap());
        }
        let point = |i: u64, scale: f64| {
            DataPoint::new(
                (0..3u64)
                    .map(|d| ((i * (2 * d + 3) + 5 * d) % 29) as f64 / 29.0 * scale)
                    .collect(),
            )
        };
        // Fill the box, then only a corner much later, then prune: the
        // stale cells go and the survivors are compacted over them.
        let early: Vec<DataPoint> = (0..120).map(|i| point(i, 1.0)).collect();
        for (i, p) in early.iter().enumerate() {
            mgr.update(1 + i as u64, p).unwrap();
        }
        let corner: Vec<DataPoint> = (0..80).map(|i| point(i, 0.35)).collect();
        for (i, p) in corner.iter().enumerate() {
            mgr.update(400 + i as u64, p).unwrap();
        }
        let now = 480;
        assert!(mgr.prune(now, 1e-3) > 0, "m={m}: prune must evict");
        let probes: Vec<DataPoint> = early.iter().chain(&corner).cloned().collect();
        roundtrip_and_check(&mgr, now, &probes);

        // The restored manager is not just equal at rest: fed the same
        // tail it stays byte-identical, so the rebuilt index resolves old
        // cells and opens new ones exactly as the original does.
        let state = capture(&mgr);
        let mut restored = SynopsisManager::new(mgr.grid().clone(), *mgr.model());
        restored
            .restore_state(&StateReader::new(&state).unwrap())
            .unwrap();
        let mut sink_a = Vec::new();
        let mut sink_b = Vec::new();
        for i in 0..100u64 {
            let p = point(i + 7, 1.0);
            mgr.update_and_query(now + 1 + i, &p, &mut sink_a).unwrap();
            restored
                .update_and_query(now + 1 + i, &p, &mut sink_b)
                .unwrap();
            for (a, b) in sink_a.iter().zip(&sink_b) {
                assert_eq!(a.pcs.rd.to_bits(), b.pcs.rd.to_bits(), "m={m} point {i}");
                assert_eq!(
                    a.pcs.irsd.to_bits(),
                    b.pcs.irsd.to_bits(),
                    "m={m} point {i}"
                );
                assert_eq!(a.occupancy.to_bits(), b.occupancy.to_bits());
            }
        }
        assert_eq!(
            capture(&mgr),
            capture(&restored),
            "m={m}: states diverged after the tail"
        );
    }
}

/// Writes a projected-store snapshot with the given key column (one point
/// of weight per cell).
fn store_state(w: &mut StateWriter, s: Subspace, keys: &[u128]) {
    let n = keys.len();
    w.u64("mask", s.mask());
    w.u128_col("keys", keys.iter().copied());
    w.f64_bits_col("d", std::iter::repeat_n(1.0, n));
    w.u64_col("last", std::iter::repeat_n(5, n));
    w.f64_bits_col(
        "moments",
        std::iter::repeat_n(0.25, n * 2 * s.cardinality()),
    );
}

/// One store's snapshot bytes.
fn store_bytes(s: Subspace, keys: &[u128]) -> Vec<u8> {
    let mut w = StateWriter::new();
    store_state(&mut w, s, keys);
    w.finish()
}

#[test]
fn hostile_key_columns_are_typed_errors_not_panics() {
    // Keys come from disk. A dense store indexes a table with them, so a
    // key outside the table — or far outside `usize` — must be refused,
    // and a key listed twice must be refused by either index kind.
    let grid = Grid::new(DomainBounds::unit(3), 10).unwrap();
    let model = TimeModel::new(40, 0.01).unwrap();
    let dense = Subspace::from_dims([0, 1]).unwrap(); // 8-bit keys: 0..256
    let hashed = Subspace::from_dims([0, 1, 2]).unwrap(); // 12-bit keys
    let p = DataPoint::new(vec![0.15, 0.85, 0.5]);
    let base = grid.base_coords(&p).unwrap();
    let weights = WeightCache::new(model);

    let cases: [(Subspace, &[u128], &str); 5] = [
        (dense, &[3, 256], "out-of-range"),
        (dense, &[3, 1 << 40], "out-of-range"),
        (dense, &[u128::MAX], "out-of-range"),
        (dense, &[3, 17, 3], "duplicate"),
        (hashed, &[3, 4000, 3], "duplicate"),
    ];
    for (s, keys, what) in cases {
        let mut store = ProjectedStore::new(&grid, s);
        store.update_and_screen(&grid, &weights, 1, &base, &p, 1.0);
        let state = store_bytes(s, keys);
        let err: PersistError = store
            .restore(&StateReader::new(&state).unwrap())
            .expect_err("hostile key column must be refused");
        assert!(
            err.to_string().contains(what),
            "{keys:?} in {s}: expected a {what} error, got: {err}"
        );
        // The refused column left the store as it was, index included.
        assert_eq!(store.len(), 1);
        let touch = store.update_and_screen(&grid, &weights, 2, &base, &p, 2.0);
        assert_eq!(store.len(), 1, "the cell is still found by its key");
        assert!(touch.occupancy > 1.0);
    }

    // The same columns are fine where the keys are in range and distinct.
    let mut store = ProjectedStore::new(&grid, dense);
    let state = store_bytes(dense, &[3, 255, 0]);
    store.restore(&StateReader::new(&state).unwrap()).unwrap();
    assert_eq!(store.len(), 3);

    // And through the manager the refusal surfaces as a failed restore.
    let mut mgr = SynopsisManager::new(grid.clone(), model);
    mgr.add_subspace(dense);
    mgr.update(1, &p).unwrap();
    let mut w = StateWriter::new();
    w.component("total", &DecayedCounter::new());
    w.nested_list("stores", [&[9u128, 300][..]], |w, keys| {
        store_state(w, dense, keys)
    });
    let forged = w.finish();
    let mut fresh = SynopsisManager::new(grid, model);
    assert!(fresh
        .restore_state(&StateReader::new(&forged).unwrap())
        .is_err());
}

#[test]
fn a_store_mask_outside_the_grid_is_a_typed_error_and_changes_nothing() {
    // Masks come from disk too. A store over dimension 40 of a 4-d grid
    // would index past the grid's bounds as soon as it is built; the
    // manager must refuse it first, and stay exactly as it was.
    let grid = Grid::new(DomainBounds::unit(4), 10).unwrap();
    let model = TimeModel::new(40, 0.01).unwrap();
    let mut mgr = SynopsisManager::new(grid, model);
    let kept = Subspace::from_dims([1, 3]).unwrap();
    mgr.add_subspace(kept);
    let p = DataPoint::new(vec![0.15, 0.85, 0.5, 0.25]);
    mgr.update(1, &p).unwrap();
    let before = capture(&mgr);
    let footprint = (mgr.live_cells(), mgr.approx_bytes());
    for hostile in [
        Subspace::from_dims([40]).unwrap(),
        Subspace::from_dims([0, 4]).unwrap(),
        Subspace::from_dims([63]).unwrap(),
    ] {
        let mut w = StateWriter::new();
        w.component("total", &DecayedCounter::new());
        // A sound store first: nothing of a half-read state may stick.
        let stores = [
            (Subspace::from_dims([0]).unwrap(), &[3u128][..]),
            (hostile, &[]),
        ];
        w.nested_list("stores", stores, |w, (s, keys)| store_state(w, s, keys));
        let err: PersistError = mgr
            .restore_state(&StateReader::new(&w.finish()).unwrap())
            .expect_err("a mask outside the grid must be refused");
        assert!(err.to_string().contains("outside the grid"), "{err}");
        assert_eq!(capture(&mgr), before, "{hostile}");
        assert_eq!((mgr.live_cells(), mgr.approx_bytes()), footprint);
    }
    // Still the manager it was: same subspace, and it keeps ingesting.
    assert_eq!(mgr.subspaces().collect::<Vec<_>>(), vec![kept]);
    let mut sink = Vec::new();
    mgr.update_and_query(2, &p, &mut sink).unwrap();
    assert_eq!(sink.len(), 1);
    assert!(sink[0].occupancy > 1.0, "the old cell is still there");
}
