//! Snapshot v2 round-trip pins for the synopsis layer: serializing and
//! restoring any populated `BaseStore` / `SynopsisManager` must be
//! bit-exact — keys, SoA columns, decay weights, registration order —
//! including the wide-ϕ fingerprint-key fallback.

use proptest::prelude::*;
use serde::Value;
use spot_stream::{TimeModel, WeightCache};
use spot_subspace::Subspace;
use spot_synopsis::{Grid, ProjectedStore, SynopsisManager};
use spot_types::{DataPoint, DomainBounds, DurableState, PersistError, StateReader, StateWriter};

fn capture(c: &dyn DurableState) -> Value {
    let mut w = StateWriter::new();
    c.capture(&mut w);
    w.finish()
}

/// Captures `mgr`, restores into a fresh manager of the same grid/model
/// (no subspaces pre-registered — registration order must come from the
/// snapshot), and checks the restored state is bit-exact.
fn roundtrip_and_check(mgr: &SynopsisManager, now: u64, probes: &[DataPoint]) {
    let state = mgr.capture_state();
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
    for p in probes {
        let base = mgr.grid().base_coords(p).unwrap();
        assert_eq!(
            mgr.base_count_for(now, p).unwrap().to_bits(),
            restored.base_count_for(now, p).unwrap().to_bits()
        );
        for s in mgr.subspaces() {
            let a = mgr.pcs(now, &base, &s).unwrap();
            let b = restored.pcs(now, &base, &s).unwrap();
            assert_eq!(a.rd.to_bits(), b.rd.to_bits(), "rd in {s}");
            assert_eq!(a.irsd.to_bits(), b.irsd.to_bits(), "irsd in {s}");
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
    // fixed point (the base store's sorted columns make the encoding
    // independent of hash-map history).
    let again = restored.capture_state();
    assert_eq!(
        serde_json::to_string(&state).unwrap(),
        serde_json::to_string(&again).unwrap()
    );
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

    #[test]
    fn base_store_column_roundtrip_is_bit_exact(
        raw in proptest::collection::vec(0.0f64..1.0, 9..90),
    ) {
        let dims = 3;
        let grid = Grid::new(DomainBounds::unit(dims), 5).unwrap();
        let model = TimeModel::new(50, 0.01).unwrap();
        let mut store = spot_synopsis::BaseStore::new();
        let points: Vec<DataPoint> = raw
            .chunks_exact(dims)
            .map(|c| DataPoint::new(c.to_vec()))
            .collect();
        for (i, p) in points.iter().enumerate() {
            store.insert(&grid, &model, i as u64, p).unwrap();
        }
        let state = capture(&store);
        let mut restored = spot_synopsis::BaseStore::new();
        restored.restore(&StateReader::new(&state).unwrap()).unwrap();
        prop_assert_eq!(store.len(), restored.len());
        let now = points.len() as u64 + 7;
        for (key, cell) in store.iter() {
            let other = restored.get(key).expect("restored cell");
            prop_assert_eq!(cell.count_at(&model, now).to_bits(), other.count_at(&model, now).to_bits());
            prop_assert_eq!(cell.last_tick(), other.last_tick());
            let (ls_a, ss_a) = cell.moments();
            let (ls_b, ss_b) = other.moments();
            for (a, b) in ls_a.iter().zip(ls_b).chain(ss_a.iter().zip(ss_b)) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

#[test]
fn wide_phi_fingerprint_keys_roundtrip() {
    // ϕ = 40 at m = 10 needs 160 bits: base keys take the fingerprint
    // fallback. A 33-dim monitored subspace (> 128/4 packed-bit budget)
    // forces fingerprinted *projected* keys too.
    let dims = 40usize;
    let grid = Grid::new(DomainBounds::unit(dims), 10).unwrap();
    assert!(
        !grid.codec().base_is_exact(),
        "test premise: wide base keys"
    );
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
    let good = mgr.capture_state();
    let json = serde_json::to_string(&good).unwrap();

    // Dropping a required column must fail restore, not panic.
    let broken = json.replace("\"total\"", "\"tot\"");
    let v: Value = serde_json::from_str(&broken).unwrap();
    let mut fresh = SynopsisManager::new(grid, model);
    assert!(fresh.restore_state(&StateReader::new(&v).unwrap()).is_err());
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
        let state = mgr.capture_state();
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
            serde_json::to_string(&mgr.capture_state()).unwrap(),
            serde_json::to_string(&restored.capture_state()).unwrap(),
            "m={m}: states diverged after the tail"
        );
    }
}

/// A projected-store snapshot with the given key column (one point of
/// weight per cell).
fn store_state(s: Subspace, keys: &[u128]) -> Value {
    let n = keys.len();
    let mut w = StateWriter::new();
    w.u64("mask", s.mask());
    w.u128_col("keys", keys.iter().copied());
    w.f64_bits_col("d", std::iter::repeat_n(1.0, n));
    w.u64_col("last", std::iter::repeat_n(5, n));
    w.f64_bits_col(
        "moments",
        std::iter::repeat_n(0.25, n * 2 * s.cardinality()),
    );
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
        let state = store_state(s, keys);
        let err: PersistError = store
            .restore(&StateReader::new(&state).unwrap())
            .expect_err("hostile key column must be refused");
        assert!(
            err.to_string().contains(what),
            "{keys:?} in {s}: expected a {what} error, got: {err}"
        );
        // The refused column left the store as it was, index included.
        assert_eq!(store.len(), 1);
        assert!(store.pcs(&grid, &model, 1, &base, 1.0).rd > 0.0);
        store.update_and_screen(&grid, &weights, 2, &base, &p, 2.0);
        assert_eq!(store.len(), 1, "the cell is still found by its key");
    }

    // The same columns are fine where the keys are in range and distinct.
    let mut store = ProjectedStore::new(&grid, dense);
    let state = store_state(dense, &[3, 255, 0]);
    store.restore(&StateReader::new(&state).unwrap()).unwrap();
    assert_eq!(store.len(), 3);

    // And through the manager the refusal surfaces as a failed restore.
    let mut mgr = SynopsisManager::new(grid.clone(), model);
    mgr.add_subspace(dense);
    mgr.update(1, &p).unwrap();
    let mut w = StateWriter::new();
    w.value("total", {
        let good = mgr.capture_state();
        StateReader::new(&good)
            .unwrap()
            .value("total")
            .unwrap()
            .clone()
    });
    w.value("base", {
        let good = mgr.capture_state();
        StateReader::new(&good)
            .unwrap()
            .value("base")
            .unwrap()
            .clone()
    });
    w.nested_list("stores", vec![store_state(dense, &[9, 300])]);
    let forged = w.finish();
    let mut fresh = SynopsisManager::new(grid, model);
    assert!(fresh
        .restore_state(&StateReader::new(&forged).unwrap())
        .is_err());
}

/// The manager `fixtures/manager_state_pr13.json` was captured from, by
/// the commit before the base store went columnar (PR 13, `8568efa`):
/// 120 points over the box, 80 in one corner much later, one prune.
fn fixture_manager() -> SynopsisManager {
    let grid = Grid::new(DomainBounds::unit(5), 10).unwrap();
    let mut mgr = SynopsisManager::new(grid, TimeModel::new(40, 0.01).unwrap());
    for dims in [vec![0], vec![1, 2], vec![0, 3, 4]] {
        mgr.add_subspace(Subspace::from_dims(dims).unwrap());
    }
    let point = |i: u64, scale: f64| {
        DataPoint::new(
            (0..5u64)
                .map(|d| ((i * (2 * d + 3) + 5 * d) % 29) as f64 / 29.0 * scale)
                .collect(),
        )
    };
    for i in 0..120 {
        mgr.update(1 + i, &point(i, 1.0)).unwrap();
    }
    for i in 0..80 {
        mgr.update(400 + i, &point(i, 0.35)).unwrap();
    }
    assert!(mgr.prune(480, 1e-3) > 0);
    mgr
}

#[test]
fn state_captured_by_the_parent_commit_interchanges() {
    // The capture format did not move with the store layout: a state the
    // map-of-structs base store wrote restores into the columnar one and
    // re-captures to the same bytes, and the same stream ingested by this
    // build captures to those bytes too — checkpoints interchange in both
    // directions.
    let fixture = include_str!("fixtures/manager_state_pr13.json");
    let state: Value = serde_json::from_str(fixture).unwrap();
    let live = fixture_manager();
    let mut restored = SynopsisManager::new(live.grid().clone(), *live.model());
    restored
        .restore_state(&StateReader::new(&state).unwrap())
        .unwrap();
    assert_eq!(
        serde_json::to_string(&restored.capture_state()).unwrap(),
        fixture,
        "restore → capture is not the identity on the parent's bytes"
    );
    assert_eq!(
        serde_json::to_string(&live.capture_state()).unwrap(),
        fixture,
        "this build captures the same stream differently"
    );
    assert_eq!(restored.live_cells(), live.live_cells());
    assert_eq!(restored.approx_bytes(), live.approx_bytes());
}

/// A base-store snapshot of `keys.len()` one-point, 2-dimensional cells.
fn base_state(keys: &[u128], d: usize, last: usize, ls: usize, ss: usize) -> Value {
    let mut w = StateWriter::new();
    w.u64("dims", 2);
    w.u128_col("keys", keys.iter().copied());
    w.f64_bits_col("d", std::iter::repeat_n(1.0, d));
    w.u64_col("last", std::iter::repeat_n(5, last));
    w.f64_bits_col("ls", std::iter::repeat_n(0.5, ls));
    w.f64_bits_col("ss", std::iter::repeat_n(0.25, ss));
    w.finish()
}

#[test]
fn hostile_base_columns_are_typed_errors_and_leave_the_store_alone() {
    let grid = Grid::new(DomainBounds::unit(2), 10).unwrap();
    let model = TimeModel::new(40, 0.01).unwrap();
    let p = DataPoint::new(vec![0.15, 0.85]);
    let mut store = spot_synopsis::BaseStore::new();
    let (key, _) = store.insert(&grid, &model, 1, &p).unwrap();
    let before = capture(&store);

    let cases: [(&str, Value, &str); 6] = [
        (
            "duplicate key",
            base_state(&[3, 17, 3], 3, 3, 6, 6),
            "duplicate",
        ),
        ("short d", base_state(&[3, 17], 1, 2, 4, 4), "disagree"),
        ("short last", base_state(&[3, 17], 2, 1, 4, 4), "disagree"),
        ("short ls", base_state(&[3, 17], 2, 2, 3, 4), "disagree"),
        ("short ss", base_state(&[3, 17], 2, 2, 4, 2), "disagree"),
        (
            "no keys, stray moments",
            base_state(&[], 0, 0, 2, 2),
            "disagree",
        ),
    ];
    for (label, state, what) in cases {
        let err: PersistError = store
            .restore(&StateReader::new(&state).unwrap())
            .expect_err(label);
        assert!(
            err.to_string().contains(what),
            "{label}: expected a `{what}` error, got: {err}"
        );
        // Nothing of the refused snapshot stuck.
        assert_eq!(capture(&store), before, "{label}");
        assert_eq!(store.len(), 1);
        assert!(
            store.get(key).is_some(),
            "{label}: the cell is still indexed"
        );
    }
    // An odd u128 lane count never gets as far as the column check.
    let mut w = StateWriter::new();
    w.u64("dims", 2);
    w.u64_col("keys", [0, 3, 0]);
    for col in ["d", "last", "ls", "ss"] {
        w.u64_col(col, []);
    }
    assert!(store
        .restore(&StateReader::new(&w.finish()).unwrap())
        .is_err());
    assert_eq!(capture(&store), before);

    // The store still works, and a sound snapshot of the same shape loads.
    let (again, prior) = store.insert(&grid, &model, 2, &p).unwrap();
    assert_eq!(again, key);
    assert!(prior > 0.0);
    store
        .restore(&StateReader::new(&base_state(&[3, 17], 2, 2, 4, 4)).unwrap())
        .unwrap();
    assert_eq!(store.len(), 2);

    // A manager refuses base cells that are not as wide as its grid.
    let mut mgr = SynopsisManager::new(Grid::new(DomainBounds::unit(3), 10).unwrap(), model);
    mgr.update(1, &DataPoint::new(vec![0.1, 0.2, 0.3])).unwrap();
    let good = mgr.capture_state();
    let good = StateReader::new(&good).unwrap();
    let mut w = StateWriter::new();
    w.value("total", good.value("total").unwrap().clone());
    w.value("base", base_state(&[3, 17], 2, 2, 4, 4));
    w.nested_list("stores", vec![]);
    let err = mgr
        .restore_state(&StateReader::new(&w.finish()).unwrap())
        .expect_err("2-d cells in a 3-d grid");
    assert!(err.to_string().contains("dimensions"), "{err}");
}
