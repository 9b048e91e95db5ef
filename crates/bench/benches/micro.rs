//! Micro-benchmarks of SPOT's hot paths: synopsis maintenance, grid
//! mapping, subspace machinery and the end-to-end per-point cost. Each arm
//! prints one `mean … min …` line ([`spot_bench::timer`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot::{SparsityProblem, SparsityScratch, SpotBuilder, TrainingEvaluator};
use spot_bench::timer::time_arm;
use spot_clustering::LeaderClustering;
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_moga::{assign_rank_and_crowding, Individual, MogaConfig, ObjectiveArena, RankScratch};
use spot_stream::TimeModel;
use spot_subspace::Subspace;
use spot_synopsis::{CellConsumer, CellTouch, Grid, ProjectedStore, SynopsisManager};
use spot_types::{DataPoint, DomainBounds};
use std::hint::black_box;

fn random_points(n: usize, dims: usize, seed: u64) -> Vec<DataPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| DataPoint::new((0..dims).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect()
}

/// A clustered stream (cells are revisited, as on the benchmark workloads)
/// and a manager over the first `one_d` 1-d subspaces plus `two_d` 2-d
/// ones.
fn touch_fixture(
    dims: usize,
    one_d: usize,
    two_d: usize,
    n: usize,
) -> (SynopsisManager, Vec<DataPoint>) {
    let mut gen = SyntheticGenerator::new(SyntheticConfig {
        dims,
        seed: 21,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let pts = gen.generate_normal(n);
    let grid = Grid::new(gen.bounds(), 10).unwrap();
    let mut mgr = SynopsisManager::new(grid, TimeModel::new(6000, 0.05).unwrap());
    for d in 0..one_d {
        mgr.add_subspace(Subspace::from_dims([d]).unwrap());
    }
    let pairs = (0..dims).flat_map(|a| (a + 1..dims).map(move |b| [a, b]));
    for pair in pairs.take(two_d) {
        mgr.add_subspace(Subspace::from_dims(pair).unwrap());
    }
    assert_eq!(mgr.subspace_count(), one_d + two_d);
    (mgr, pts)
}

/// The cheapest consumer there is: one RD sum.
struct SumRd(f64);

impl CellConsumer for SumRd {
    #[inline]
    fn cell(&mut self, _: usize, _: &ProjectedStore, _: usize, touch: CellTouch) {
        self.0 += touch.rd;
    }
}

/// The cell-touch kernel at the two run lengths the detector feeds the
/// ingest loop (a point is a run of one; `process_batch` runs up to 256),
/// at the store counts of the benchmark workloads: divide an iteration by
/// `points × stores` for the per-touch cost `docs/hotpath.md` quotes.
fn bench_touch_kernel() {
    let (mut mgr, pts) = touch_fixture(64, 64, 14, 512);
    let mut now = 0u64;
    let mut sum = SumRd(0.0);
    time_arm("touch_point_phi64_78stores", || {
        for p in &pts {
            now += 1;
            mgr.update_and_screen_batch(now, std::slice::from_ref(black_box(p)), &mut sum)
                .unwrap();
        }
        sum.0
    });

    let (mut mgr, pts) = touch_fixture(16, 16, 120, 256);
    let mut start = 1u64;
    let mut sum = SumRd(0.0);
    time_arm("touch_run256_phi16_136stores", || {
        mgr.update_and_screen_batch(start, black_box(&pts), &mut sum)
            .unwrap();
        start += pts.len() as u64;
        sum.0
    });
}

fn bench_grid_mapping() {
    for dims in [8usize, 32] {
        let grid = Grid::new(DomainBounds::unit(dims), 10).unwrap();
        let pts = random_points(1024, dims, 2);
        time_arm(&format!("grid_base_coords/{dims}"), || {
            let mut acc = 0usize;
            for p in &pts {
                acc += grid.base_coords(black_box(p)).unwrap()[0] as usize;
            }
            acc
        });
    }
}

/// The chunked branch-free quantizer on the reused-scratch entry — the
/// satellite check that the autovectorizable form is no slower at any ϕ.
fn bench_grid_quantize_chunked() {
    for dims in [8usize, 24, 64] {
        let grid = Grid::new(DomainBounds::unit(dims), 10).unwrap();
        let pts = random_points(1024, dims, 2);
        let mut scratch = Vec::with_capacity(dims);
        time_arm(&format!("grid_base_coords_into/{dims}"), || {
            let mut acc = 0usize;
            for p in &pts {
                grid.base_coords_into(black_box(p), &mut scratch).unwrap();
                acc += scratch[0] as usize;
            }
            acc
        });
    }
}

fn bench_manager_update() {
    for n_subspaces in [16usize, 64, 256] {
        let dims = 16;
        let grid = Grid::new(DomainBounds::unit(dims), 10).unwrap();
        let mut mgr = SynopsisManager::new(grid, TimeModel::new(2000, 0.01).unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        let mut added = 0;
        while added < n_subspaces {
            if mgr.add_subspace(spot_subspace::genetic::random_subspace(dims, 3, &mut rng)) {
                added += 1;
            }
        }
        let pts = random_points(512, dims, 4);
        let mut now = 0u64;
        time_arm(&format!("manager_update/{n_subspaces}"), || {
            for p in &pts {
                now += 1;
                mgr.update(now, black_box(p)).unwrap();
            }
        });
    }
}

/// The fused single-pass path: update + per-subspace PCS in one access
/// (what `Spot::process` actually runs per point).
fn bench_manager_update_and_query() {
    for n_subspaces in [16usize, 64, 256] {
        let dims = 16;
        let grid = Grid::new(DomainBounds::unit(dims), 10).unwrap();
        let mut mgr = SynopsisManager::new(grid, TimeModel::new(2000, 0.01).unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        let mut added = 0;
        while added < n_subspaces {
            if mgr.add_subspace(spot_subspace::genetic::random_subspace(dims, 3, &mut rng)) {
                added += 1;
            }
        }
        let pts = random_points(512, dims, 4);
        let mut now = 0u64;
        let mut sink = Vec::new();
        time_arm(&format!("manager_update_and_query/{n_subspaces}"), || {
            let mut acc = 0.0f64;
            for p in &pts {
                now += 1;
                mgr.update_and_query(now, black_box(p), &mut sink).unwrap();
                for e in &sink {
                    acc += e.pcs.rd;
                }
            }
            acc
        });
    }
}

fn bench_spot_process_batch() {
    let dims = 16;
    let mut spot = SpotBuilder::new(DomainBounds::unit(dims))
        .fs_max_dimension(2)
        .seed(9)
        .build()
        .unwrap();
    spot.learn(&random_points(1000, dims, 7)).unwrap();
    let pts = random_points(256, dims, 8);
    time_arm("spot_process_batch_256_phi16", || {
        spot.process_batch(black_box(&pts)).unwrap().len()
    });
}

fn bench_nondominated_sort() {
    let mut rng = StdRng::seed_from_u64(5);
    for n in [64usize, 256] {
        let mut objectives = ObjectiveArena::new(3);
        let pop: Vec<Individual> = (0..n)
            .map(|_| Individual {
                subspace: Subspace::from_mask(rng.gen_range(1..1024)).unwrap(),
                row: objectives.push_with(|out| out.fill_with(|| rng.gen())),
                rank: 0,
                crowding: 0.0,
            })
            .collect();
        let mut scratch = RankScratch::default();
        let mut p = pop.clone();
        time_arm(&format!("nondominated_sort/{n}"), || {
            p.copy_from_slice(&pop);
            assign_rank_and_crowding(&objectives, &mut p, &mut scratch);
            p[0].rank
        });
    }
}

/// The batch a maintenance tick scores against: `normal` clustered points
/// (the reservoir, or a training batch) followed by `outliers` planted
/// projected outliers (the outlier buffer).
fn clustered_batch(dims: usize, normal: usize, outliers: usize) -> TrainingEvaluator {
    let mut gen = SyntheticGenerator::new(SyntheticConfig {
        dims,
        outlier_fraction: 0.5,
        seed: 11,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut pts = gen.generate_normal(normal);
    let planted = gen.by_ref().filter(|r| r.is_anomaly()).take(outliers);
    pts.extend(planted.map(|r| r.point));
    let grid = Grid::new(gen.bounds(), 10).unwrap();
    TrainingEvaluator::new(grid, &pts).unwrap()
}

/// 64 candidate subspaces of the cardinalities a MOGA run visits (≤ 4).
fn candidate_subspaces(dims: usize) -> Vec<Subspace> {
    let mut rng = StdRng::seed_from_u64(12);
    (0..64)
        .map(|_| spot_subspace::genetic::random_subspace(dims, 4, &mut rng))
        .collect()
}

/// The objective kernel on its own, 64 evaluations an iteration: the
/// online shape (320 points, the 64 buffered outliers as targets) at the
/// two benchmark widths, and the learning stage's whole-batch shape.
fn bench_sparsity_kernel() {
    let score_all = |ev: &TrainingEvaluator, targets: Option<&[usize]>, subs: &[Subspace]| {
        let mut scratch = SparsityScratch::default();
        let mut acc = 0.0;
        for &s in subs {
            let (rd, irsd) = ev.sparsity_with(black_box(s), targets, &mut scratch);
            acc += rd + irsd;
        }
        acc
    };
    for dims in [16usize, 64] {
        let ev = clustered_batch(dims, 256, 64);
        let subs = candidate_subspaces(dims);
        let targets: Vec<usize> = (256..320).collect();
        time_arm(&format!("sparsity_targets64_n320_phi{dims}"), || {
            score_all(&ev, Some(&targets), &subs)
        });
    }
    let ev = clustered_batch(16, 2000, 0);
    let subs = candidate_subspaces(16);
    time_arm("sparsity_whole_n2000_phi16", || score_all(&ev, None, &subs));
}

/// One OS-growth search as the detector runs it on a tick: the online MOGA
/// configuration over reservoir ∪ outlier buffer.
fn bench_moga_online() {
    let ev = clustered_batch(16, 256, 64);
    let config = MogaConfig {
        population: 24,
        generations: 12,
        seed: 13,
        ..MogaConfig::default()
    };
    time_arm("moga_online_n320_phi16", || {
        let mut problem = SparsityProblem::for_targets(&ev, (256..320).collect(), Some(4));
        spot_moga::run(&mut problem, black_box(&config))
            .unwrap()
            .evaluations
    });
}

fn bench_leader_clustering() {
    let pts = random_points(1000, 8, 6);
    let method = LeaderClustering::new(0.4).unwrap();
    time_arm("leader_clustering_1000x8", || {
        method.run(black_box(&pts)).num_clusters()
    });
}

fn bench_spot_process() {
    let dims = 16;
    let mut spot = SpotBuilder::new(DomainBounds::unit(dims))
        .fs_max_dimension(2)
        .seed(9)
        .build()
        .unwrap();
    spot.learn(&random_points(1000, dims, 7)).unwrap();
    let pts = random_points(256, dims, 8);
    let mut i = 0usize;
    time_arm("spot_process_per_point_phi16", || {
        let v = spot.process(&pts[i % pts.len()]).unwrap();
        i += 1;
        v.outlier
    });
}

fn main() {
    bench_touch_kernel();
    bench_grid_mapping();
    bench_grid_quantize_chunked();
    bench_manager_update();
    bench_manager_update_and_query();
    bench_spot_process_batch();
    bench_nondominated_sort();
    bench_sparsity_kernel();
    bench_moga_online();
    bench_leader_clustering();
    bench_spot_process();
}
