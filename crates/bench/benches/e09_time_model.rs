//! E9 — The (ω, ε) time model vs the exact sliding window.
//!
//! Paper claim (Section II-A): the (ω, ε) model "is an approximation of
//! [the] conventional window-based model … with an approximation factor of
//! ε", while keeping **no** in-window data and only the latest snapshot.
//! This experiment runs a bursty arrival process through both models and
//! measures:
//!
//! * the per-point guarantee — a point that slid out of the ω-window weighs
//!   at most ε (asserted; this is the paper's literal statement),
//! * the *mass* fraction held by expired points under sustained arrivals —
//!   converges to exactly ε in steady state, with transient excursions
//!   after rate changes (reported as median/max),
//! * the relative error of the decayed estimate of the window count under
//!   rate changes, and the memory of both models.
//!
//! Expected shape: median expired fraction ≈ ε; estimate error shrinks with
//! ε; the decayed counter stays O(1) bytes while the window buffer is O(ω).

use serde_json::{json, Value};
use spot_bench::emit;
use spot_metrics::Table;
use spot_stream::{DecayedCounter, TimeModel};
use std::collections::VecDeque;

const OMEGA: u64 = 1000;
const TICKS: u64 = 20_000;

/// Bursty arrival pattern: points per tick alternates between phases
/// (including a silent phase, where the exact window empties entirely).
fn arrivals_at(t: u64) -> u64 {
    match (t / 2500) % 4 {
        0 => 1,
        1 => 3,
        2 => 0,
        _ => 2,
    }
}

fn main() {
    let mut table = Table::new(
        "E9: (omega, epsilon) model vs exact sliding window (omega=1000, bursty arrivals)",
        &[
            "epsilon",
            "median expired mass",
            "max expired mass",
            "mean |rel err|",
            "p95 |rel err|",
            "decayed bytes",
            "window bytes",
        ],
    );
    let mut artifact: Vec<Value> = Vec::new();

    for &epsilon in &[0.2f64, 0.1, 0.05, 0.01, 0.001] {
        let model = TimeModel::new(OMEGA, epsilon).expect("parameters are valid");

        // Per-point guarantee (the paper's statement), asserted outright.
        assert!(model.weight_after(OMEGA) <= epsilon * (1.0 + 1e-9));
        assert!(model.weight_after(OMEGA * 3) <= epsilon * (1.0 + 1e-9));

        let mut decayed = DecayedCounter::new();
        let mut window: VecDeque<u64> = VecDeque::new();
        let mut all_arrivals: VecDeque<u64> = VecDeque::new();

        let mut fractions: Vec<f64> = Vec::new();
        let mut errors: Vec<f64> = Vec::new();
        // Normalization: a steady unit-rate stream has decayed weight
        // steady_state vs window count omega.
        let scale = OMEGA as f64 / model.steady_state_weight();

        for t in 0..TICKS {
            for _ in 0..arrivals_at(t) {
                decayed.add(&model, t, 1.0);
                window.push_back(t);
                all_arrivals.push_back(t);
            }
            while window
                .front()
                .is_some_and(|&a| t.saturating_sub(a) >= OMEGA)
            {
                window.pop_front();
            }
            // Cap the exact tally's history: beyond 6x omega the weights
            // are numerically negligible for every epsilon tested.
            while all_arrivals.front().is_some_and(|&a| t - a > 6 * OMEGA) {
                all_arrivals.pop_front();
            }
            if t < OMEGA || t % 50 != 0 {
                continue;
            }
            // Only judge the mass fraction under sustained arrivals (a full
            // window); during the silent phase the window empties and the
            // fraction is trivially 1.
            if window.len() >= OMEGA as usize {
                let mut live = 0.0;
                let mut expired = 0.0;
                for &a in &all_arrivals {
                    let w = model.weight_after(t - a);
                    if t - a >= OMEGA {
                        expired += w;
                    } else {
                        live += w;
                    }
                }
                if live + expired > 0.0 {
                    fractions.push(expired / (live + expired));
                }
                // Window-count estimate from the decayed counter.
                let estimate = decayed.value_at(&model, t) * scale;
                let truth = window.len() as f64;
                errors.push((estimate - truth).abs() / truth);
            }
        }
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v
        };
        let fractions = sorted(fractions);
        let errors = sorted(errors);
        let median_fraction = fractions.get(fractions.len() / 2).copied().unwrap_or(0.0);
        let max_fraction = fractions.last().copied().unwrap_or(0.0);
        let mean_err = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
        let p95 = errors.get(errors.len() * 95 / 100).copied().unwrap_or(0.0);
        let decayed_bytes = std::mem::size_of::<DecayedCounter>();
        let window_bytes = OMEGA as usize * std::mem::size_of::<u64>();
        table.add_row(vec![
            format!("{epsilon}"),
            format!("{median_fraction:.4}"),
            format!("{max_fraction:.4}"),
            format!("{mean_err:.4}"),
            format!("{p95:.4}"),
            decayed_bytes.to_string(),
            window_bytes.to_string(),
        ]);
        // Steady state converges to epsilon; allow transient excursions
        // after rate switches.
        assert!(
            median_fraction <= epsilon * 1.5 + 1e-6,
            "median expired fraction {median_fraction} is far above epsilon {epsilon}"
        );
        artifact.push(json!({
            "epsilon": epsilon,
            "median_expired_fraction": median_fraction,
            "max_expired_fraction": max_fraction,
            "mean_rel_err": mean_err,
            "p95_rel_err": p95,
            "decayed_bytes": decayed_bytes,
            "window_bytes": window_bytes,
        }));
    }

    emit("e09_time_model", &table, artifact);
}
