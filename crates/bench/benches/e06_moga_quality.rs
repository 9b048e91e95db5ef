//! E6 — MOGA search quality vs exhaustive search.
//!
//! Paper claim (Sections I, III): outlying-subspace search is infeasible
//! exhaustively, and "MOGA [is] an effective search method to find
//! subspaces that are able to optimize all the criteria". For lattice
//! sizes where brute force is still possible, this experiment measures how
//! much of the exact top-k the MOGA recovers, at what fraction of the
//! evaluation budget, plus both runtimes. Expected shape: ≥ 60-80% top-k
//! recovery with an evaluation budget that stays flat while brute force
//! grows as Σ C(ϕ,k).

use serde_json::{json, Value};
use spot::{SparsityProblem, TrainingEvaluator};
use spot_baselines::brute_force_top_k;
use spot_bench::emit;
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_metrics::Table;
use spot_moga::MogaConfig;
use spot_synopsis::Grid;
use spot_types::DomainBounds;
use std::collections::HashSet;
use std::time::Instant;

const TOP_K: usize = 5;
const MAX_CARD: usize = 3;

fn main() {
    let mut table = Table::new(
        "E6: MOGA vs exhaustive subspace search (top-5 recovery, card <= 3)",
        &[
            "phi",
            "lattice slice",
            "brute evals",
            "moga evals",
            "recovered (tie-aware)",
            "brute ms",
            "moga ms",
        ],
    );
    let mut artifact: Vec<Value> = Vec::new();

    for phi in [10usize, 14, 18, 22] {
        // A training batch with one planted sparse point: the search target
        // is "the subspaces in which the last point is sparsest".
        let config = SyntheticConfig {
            dims: phi,
            outlier_fraction: 0.0,
            seed: 31,
            ..Default::default()
        };
        let mut generator = SyntheticGenerator::new(config).expect("config is valid");
        let mut pts = generator.generate_normal(800);
        let target = pts.len();
        // Plant the outlier far from everything in dims {1, 4}.
        let mut vals = pts[0].values().to_vec();
        vals[1] = 0.985;
        vals[4] = 0.015;
        pts.push(spot_types::DataPoint::new(vals));

        let grid = Grid::new(DomainBounds::unit(phi), 10).expect("granularity is valid");
        let evaluator = TrainingEvaluator::new(grid, &pts).expect("batch is valid");

        // Exhaustive reference.
        let started = Instant::now();
        let mut problem = SparsityProblem::for_targets(&evaluator, vec![target], Some(MAX_CARD));
        let brute = brute_force_top_k(&mut problem, MAX_CARD).expect("phi is small enough");
        let brute_ms = started.elapsed().as_secs_f64() * 1e3;
        let exact: HashSet<u64> = brute
            .top_k(TOP_K)
            .into_iter()
            .map(|(s, _)| s.mask())
            .collect();

        // MOGA.
        let started = Instant::now();
        let mut problem = SparsityProblem::for_targets(&evaluator, vec![target], Some(MAX_CARD));
        let (moga, history) = spot_moga::run_traced(
            &mut problem,
            &MogaConfig {
                population: 40,
                generations: 30,
                ..Default::default()
            },
        )
        .expect("configuration is valid");
        let moga_ms = started.elapsed().as_secs_f64() * 1e3;
        let got: HashSet<u64> = moga
            .top_k(TOP_K)
            .into_iter()
            .map(|(s, _)| s.mask())
            .collect();
        let recovered = exact.intersection(&got).count();
        // Tie-aware recovery: sparsity objective sums carry large tie
        // groups (every singleton-cell subspace of the target scores the
        // same), so exact top-5 membership is ambiguous. Count MOGA picks
        // whose *exact* score is within the brute-force 5th-best band.
        let brute_scores: std::collections::HashMap<u64, f64> = brute
            .evaluated
            .iter()
            .map(|(s, objs)| (s.mask(), objs.iter().sum::<f64>()))
            .collect();
        let band = brute
            .top_k(TOP_K)
            .last()
            .expect("top-5 of non-empty sweep")
            .1
            + 1e-9;
        let within_band = moga
            .top_k(TOP_K)
            .iter()
            .filter(|(s, _)| brute_scores.get(&s.mask()).is_some_and(|&v| v <= band))
            .count();

        let slice = spot_subspace::count_up_to_dim(phi, MAX_CARD);
        table.add_row(vec![
            phi.to_string(),
            slice.to_string(),
            brute.evaluations().to_string(),
            moga.evaluations.to_string(),
            format!("{recovered}/{TOP_K} ({within_band}/{TOP_K} in band)"),
            format!("{brute_ms:.1}"),
            format!("{moga_ms:.1}"),
        ]);
        artifact.push(json!({
            "phi": phi,
            "brute_evals": brute.evaluations(),
            "moga_evals": moga.evaluations,
            "recovered": recovered,
            "within_band": within_band,
            "top_k": TOP_K,
            "brute_ms": brute_ms,
            "moga_ms": moga_ms,
        }));

        // Convergence curve (figure data): hypervolume + best scalar per
        // generation for the largest lattice.
        if phi == 22 {
            let mut curve = Table::new(
                "E6b: MOGA convergence at phi=22 (hypervolume of archive, best objective sum)",
                &["generation", "archive", "hypervolume", "best objective sum"],
            );
            for h in history.iter().step_by(5) {
                curve.add_row(vec![
                    h.generation.to_string(),
                    h.archive_size.to_string(),
                    h.hypervolume.map_or("-".into(), |v| format!("{v:.4}")),
                    format!("{:.4}", h.best_scalar),
                ]);
            }
            curve.print();
        }
    }

    emit("e06_moga_quality", &table, artifact);
}
