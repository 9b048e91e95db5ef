//! Screen ≡ report: the plans the detector assembles from the screened
//! ingest loops (thresholds folded into the loop, one accumulator) must
//! equal what the retired two-pass evaluation produced — materialize every
//! subspace's PCS, then sweep the list.
//!
//! `sweep_point` below is that sweep, kept verbatim as the reference. It
//! runs over `SynopsisManager::update_and_query` sinks of a twin manager;
//! the screened side runs the same stream through the store-major
//! `update_and_screen_batch` and through the per-point
//! `update_and_screen`.

use proptest::prelude::*;
use spot::stream::TimeModel;
use spot::subspace::Subspace;
use spot::synopsis::{CellConsumer, Grid, SubspacePcs, SynopsisManager};
use spot::types::{DataPoint, DomainBounds, StateWriter};
use spot::{EvalPlan, SpotBuilder, SpotConfig, SubspaceFinding, VerdictScreen};

/// The retired sweep phase for one point: thresholds and the drift signal
/// from the per-subspace PCS list and the configuration alone.
fn sweep_point(config: &SpotConfig, entries: &[SubspacePcs], plan: &mut EvalPlan) {
    plan.clear();
    let thresholds = config.thresholds;
    let mut min_rd = f64::INFINITY;
    for e in entries {
        min_rd = min_rd.min(e.pcs.rd);
        if e.subspace.cardinality() <= config.fs_max_dimension {
            plan.monitored += 1;
            if e.occupancy < config.drift.novelty_floor {
                plan.monitored_fresh += 1;
            }
        }
        let flagged = e.pcs.rd < thresholds.rd && thresholds.irsd.is_none_or(|t| e.pcs.irsd < t);
        if flagged {
            plan.findings.push(SubspaceFinding {
                subspace: e.subspace,
                rd: e.pcs.rd,
                irsd: e.pcs.irsd,
            });
        }
    }
    plan.findings
        .sort_by(|a, b| a.rd.partial_cmp(&b.rd).expect("RD values are not NaN"));
    plan.outlier = !plan.findings.is_empty();
    plan.score = if min_rd.is_finite() {
        1.0 / (1.0 + min_rd)
    } else {
        0.0
    };
}

fn assert_same_plans(want: &[EvalPlan], got: &[EvalPlan], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: plan count");
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        assert_eq!(a.outlier, b.outlier, "{label}: outlier at point {i}");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{label}: score at point {i}"
        );
        assert_eq!(
            (a.monitored, a.monitored_fresh),
            (b.monitored, b.monitored_fresh),
            "{label}: drift signal at point {i}"
        );
        assert_eq!(a.findings.len(), b.findings.len(), "{label}: point {i}");
        // Order included: ties on RD keep registration order.
        for (fa, fb) in a.findings.iter().zip(&b.findings) {
            assert_eq!(fa.subspace, fb.subspace, "{label}: finding order at {i}");
            assert_eq!(fa.rd.to_bits(), fb.rd.to_bits(), "{label}: point {i}");
            assert_eq!(fa.irsd.to_bits(), fb.irsd.to_bits(), "{label}: point {i}");
        }
    }
}

fn manager(dims: usize, granularity: u16) -> SynopsisManager {
    let grid = Grid::new(DomainBounds::unit(dims), granularity).unwrap();
    SynopsisManager::new(grid, TimeModel::new(80, 0.05).unwrap())
}

fn monitored(mgr: &SynopsisManager, config: &SpotConfig) -> u32 {
    mgr.subspaces()
        .filter(|s| s.cardinality() <= config.fs_max_dimension)
        .count() as u32
}

/// Reference plans of a run: per point, the full report, swept.
fn reference_run(
    mgr: &mut SynopsisManager,
    config: &SpotConfig,
    start: u64,
    run: &[DataPoint],
) -> Vec<EvalPlan> {
    let mut sink = Vec::new();
    run.iter()
        .enumerate()
        .map(|(i, p)| {
            mgr.update_and_query(start + i as u64, p, &mut sink)
                .unwrap();
            let mut plan = EvalPlan::default();
            sweep_point(config, &sink, &mut plan);
            plan
        })
        .collect()
}

fn screened_batch_run(
    mgr: &mut SynopsisManager,
    config: &SpotConfig,
    screen: &mut VerdictScreen,
    start: u64,
    run: &[DataPoint],
) -> Vec<EvalPlan> {
    screen.reset(run.len());
    mgr.update_and_screen_batch(start, run, screen).unwrap();
    let mut plans = vec![EvalPlan::default(); run.len()];
    screen.assemble(monitored(mgr, config), &mut plans);
    plans
}

fn screened_point_run(
    mgr: &mut SynopsisManager,
    config: &SpotConfig,
    screen: &mut VerdictScreen,
    start: u64,
    run: &[DataPoint],
) -> Vec<EvalPlan> {
    run.iter()
        .enumerate()
        .map(|(i, p)| {
            screen.reset(1);
            mgr.update_and_screen(start + i as u64, p, |ordinal, store, touch| {
                screen.cell(ordinal, store, 0, touch)
            })
            .unwrap();
            let mut plan = EvalPlan::default();
            screen.assemble(monitored(mgr, config), std::slice::from_mut(&mut plan));
            plan
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn screened_plans_equal_swept_reports(
        raw in proptest::collection::vec(0.0f64..1.0, 300..900),
        granularity in 2u16..5,
        rd_threshold in 0.3f64..2.5,
        irsd_on in proptest::bool::ANY,
        irsd_level in 0.5f64..6.0,
        novelty_floor in 1.5f64..8.0,
        run_len in 7usize..60,
    ) {
        // Coarse grids and short streams: many cells hold the same count,
        // so subspaces of equal cardinality tie on RD all the time, and a
        // generous RD threshold flags several of them per point.
        let dims = 5;
        let config = SpotBuilder::new(DomainBounds::unit(dims))
            .granularity(granularity)
            .rd_threshold(rd_threshold)
            .irsd_threshold(irsd_on.then_some(irsd_level))
            .fs_max_dimension(2)
            .drift(spot::DriftConfig { novelty_floor, ..Default::default() })
            .build_config()
            .unwrap();
        let points: Vec<DataPoint> = raw
            .chunks_exact(dims)
            .map(|c| DataPoint::new(c.to_vec()))
            .collect();

        // Registered out of cardinality order, so ordinal ≠ any order a
        // sort could fall back on. The first run sees an empty SST.
        let layout: Vec<Subspace> = [
            vec![3, 4], vec![0], vec![1, 2, 3], vec![0, 1], vec![4], vec![2], vec![0, 2, 4],
            vec![1, 3], vec![1], vec![2, 4], vec![0, 1, 2, 3], vec![3],
        ]
        .into_iter()
        .map(|d| Subspace::from_dims(d).unwrap())
        .collect();
        let late = Subspace::from_dims([0, 4]).unwrap();
        let dropped = layout[3];

        let mut reference = manager(dims, granularity);
        let mut batched = manager(dims, granularity);
        let mut pointwise = manager(dims, granularity);
        let mut screen_batch = VerdictScreen::new(&config);
        let mut screen_point = VerdictScreen::new(&config);

        let mut start = 1u64;
        for (r, run) in points.chunks(run_len).enumerate() {
            // Run 0: empty SST. Run 1: the layout arrives. Later: one
            // store is removed (ordinals shift down) and one added, each
            // between two runs of the same screen.
            let mut managers = [&mut reference, &mut batched, &mut pointwise];
            for mgr in managers.iter_mut() {
                match r {
                    1 => layout.iter().for_each(|&s| { mgr.add_subspace(s); }),
                    3 => { mgr.remove_subspace(&dropped); }
                    4 => { mgr.add_subspace(late); }
                    _ => {}
                }
            }
            let want = reference_run(&mut reference, &config, start, run);
            if r == 0 {
                prop_assert!(want.iter().all(|p| *p == EvalPlan::default()));
            }
            let got = screened_batch_run(&mut batched, &config, &mut screen_batch, start, run);
            assert_same_plans(&want, &got, "store-major batch path");
            let got = screened_point_run(&mut pointwise, &config, &mut screen_point, start, run);
            assert_same_plans(&want, &got, "per-point path");
            start += run.len() as u64;
        }
        // Same cells, same synopses — the consumers only read.
        let capture = |mgr: &SynopsisManager| {
            let mut w = StateWriter::new();
            mgr.capture_state(&mut w);
            w.finish()
        };
        let state = capture(&reference);
        prop_assert_eq!(&state, &capture(&batched));
        prop_assert_eq!(&state, &capture(&pointwise));
    }
}
