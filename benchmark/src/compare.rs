//! `compare <parent.json> <change.json>`: the noise-aware diff of two
//! result files.
//!
//! Per workload and end-to-end metric it prints the parent's value, the
//! change, the ratio with its base and the bound, and a verdict:
//!
//! * `REGRESSION` — worse than the parent by more than the bound;
//! * `DIFFERS` — an exact quantity (a count, a digest, `f1`,
//!   `state_bytes`, …) is not identical;
//! * `unresolved` — within the bound, but the run's own spread (third minus
//!   first quartile of the repeated measurements behind the median) is
//!   wider than the bound, so "unchanged" cannot be claimed;
//! * `improved` / `unchanged` otherwise.
//!
//! Latency rows carry their verdict but never fail the comparison (see
//! `metrics::EndToEnd::gated`). The exit code is non-zero on any other
//! `REGRESSION` or `DIFFERS`, when
//! `failed_share` rose, when an output check failed, or when the two files
//! were not measured on the same seed and sizes.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, RESULT_FILE_ONLY};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Differs,
    Unresolved,
    Improved,
    Unchanged,
}

impl Verdict {
    fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Differs)
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Differs => "DIFFERS",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// `(q3 − q1) / median` of a repeated measurement, if it is one.
fn spread(metric: &Json) -> Option<f64> {
    let value = metric.get("value")?.as_f64()?;
    let (q1, q3) = (metric.get("q1")?.as_f64()?, metric.get("q3")?.as_f64()?);
    (value != 0.0).then(|| (q3 - q1) / value.abs())
}

/// How much worse `change` is than `parent`, as a share of the parent
/// (negative when better).
fn worsening(def: &EndToEnd, parent: f64, change: f64) -> f64 {
    let delta = match def.better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    };
    if parent == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / parent.abs()
    }
}

pub fn judge(def: &EndToEnd, parent: &Json, change: &Json) -> Option<(f64, f64, Verdict)> {
    let (p, c) = (
        parent.get("value")?.as_f64()?,
        change.get("value")?.as_f64()?,
    );
    let worse = worsening(def, p, c);
    let noisy = [parent, change]
        .iter()
        .filter_map(|m| spread(m))
        .any(|s| s > def.bound);
    let verdict = if def.exact && p != c {
        Verdict::Differs
    } else if worse > def.bound {
        Verdict::Regression
    } else if noisy {
        Verdict::Unresolved
    } else if worse < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Some((p, c, verdict))
}

/// Compares two parsed result files, printing the table. `Ok(true)` when
/// nothing failed; `Err` when the files are not comparable at all.
pub fn compare(parent: &Json, change: &Json) -> Result<bool, String> {
    for key in ["schema", "kind", "seed", "seconds"] {
        let field = |doc: &Json| doc.get("header").and_then(|h| h.get(key)).cloned();
        let (p, c) = (field(parent), field(change));
        if p.is_none() || p != c {
            return Err(format!("headers disagree on {key}: {p:?} vs {c:?}"));
        }
    }
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("no workloads in file")
    };
    let (parents, changes) = (workloads(parent)?, workloads(change)?);
    let mut ok = true;
    println!(
        "{:<20} {:<26} {:>14} {:>14} {:>12} {:>22} {:>7}  verdict",
        "workload", "metric", "parent", "change", "delta", "ratio (base = parent)", "bound"
    );
    for (name, p) in &parents {
        let Some(c) = changes.get(name) else {
            println!("{name:<20} missing from the change's file");
            ok = false;
            continue;
        };
        if p.get("sizes") != c.get("sizes") {
            return Err(format!("{name}: the two runs were sized differently"));
        }
        for def in END_TO_END.iter().chain(&RESULT_FILE_ONLY) {
            let metric = |doc: &Json| doc.get("metrics").and_then(|m| m.get(def.name)).cloned();
            let (Some(pm), Some(cm)) = (metric(p), metric(c)) else {
                continue;
            };
            let Some((pv, cv, verdict)) = judge(def, &pm, &cm) else {
                continue;
            };
            ok &= !(verdict.fails() && def.gated);
            println!(
                "{name:<20} {:<26} {pv:>14.4} {cv:>14.4} {:>+12.4} {:>12.4} of {pv:<7.4e} {:>6.0}%  {}{}",
                def.name,
                cv - pv,
                cv / pv,
                def.bound * 100.0,
                verdict.label(),
                if def.gated { "" } else { " (shown, not gated)" }
            );
        }
        let share = |doc: &Json| {
            doc.get("failed_share")
                .and_then(Json::as_f64)
                .unwrap_or(1.0)
        };
        if share(c) > share(p) {
            println!("{name:<20} failed_share rose: {} -> {}", share(p), share(c));
            ok = false;
        }
        for doc in [p, c] {
            if doc.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("{name:<20} an output check failed in one of the runs");
                ok = false;
            }
        }
        for section in ["counts", "digests"] {
            let (Some(ps), Some(cs)) = (
                p.get(section).and_then(Json::as_obj),
                c.get(section).and_then(Json::as_obj),
            ) else {
                continue;
            };
            for (key, pv) in ps {
                if cs.get(key) != Some(pv) {
                    println!(
                        "{name:<20} {section}.{key} DIFFERS: {} -> {}",
                        pv.render(),
                        cs.get(key).map_or("absent".to_string(), Json::render)
                    );
                    ok = false;
                }
            }
        }
    }
    Ok(ok)
}

pub fn compare_files(parent: &Path, change: &Path) -> Result<ExitCode, String> {
    let load = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
    };
    let ok = compare(&load(parent)?, &load(change)?)?;
    println!("{}", if ok { "compare: ok" } else { "compare: FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn median_metric(value: f64, min: f64, max: f64) -> Json {
        obj([
            ("value", value.into()),
            ("unit", "1/s".into()),
            ("samples", 5u64.into()),
            ("q1", min.into()),
            ("q3", max.into()),
        ])
    }

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .chain(&RESULT_FILE_ONLY)
            .find(|d| d.name == name)
            .unwrap()
    }

    #[test]
    fn throughput_verdicts_follow_bound_and_spread() {
        let d = def("throughput_pts_s");
        let bound = d.bound;
        let parent = median_metric(100_000.0, 99_000.0, 101_000.0);
        let verdict = |c: Json| judge(d, &parent, &c).unwrap().2;
        let tight = |v: f64| median_metric(v, v * 0.99, v * 1.01);
        assert_eq!(verdict(tight(100_500.0)), Verdict::Unchanged);
        assert_eq!(
            verdict(tight(100_000.0 * (1.0 - bound) - 500.0)),
            Verdict::Regression
        );
        assert_eq!(
            verdict(tight(100_000.0 * (1.0 + bound) + 500.0)),
            Verdict::Improved
        );
        // Within the bound, but the change's own segments disagree by more
        // than the bound: not "unchanged".
        let wide = median_metric(99_000.0, 80_000.0, 105_000.0);
        assert_eq!(verdict(wide), Verdict::Unresolved);
        // A regression stays a regression however noisy the run.
        let bad = 100_000.0 * (1.0 - 2.0 * bound);
        assert_eq!(
            verdict(median_metric(bad, bad * 0.5, bad * 1.5)),
            Verdict::Regression
        );
    }

    #[test]
    fn lower_is_better_for_latency_and_exact_metrics_must_match() {
        let d = def("verdict_latency_p99_us");
        let m = |v: f64| {
            obj([
                ("value", v.into()),
                ("samples", 100_000u64.into()),
                ("min", 1.0.into()),
                ("max", 1e6.into()),
            ])
        };
        assert_eq!(
            judge(d, &m(100.0), &m(100.0 * (1.0 + d.bound) + 1.0))
                .unwrap()
                .2,
            Verdict::Regression
        );
        assert_eq!(judge(d, &m(100.0), &m(50.0)).unwrap().2, Verdict::Improved);
        // A latency population's min..max is not a repeat spread.
        assert_eq!(
            judge(d, &m(100.0), &m(101.0)).unwrap().2,
            Verdict::Unchanged
        );

        let f1 = def("f1");
        let r = |v: f64| obj([("value", v.into()), ("samples", 1u64.into())]);
        assert_eq!(judge(f1, &r(0.42), &r(0.42)).unwrap().2, Verdict::Unchanged);
        assert_eq!(
            judge(f1, &r(0.42), &r(0.4200001)).unwrap().2,
            Verdict::Differs
        );
    }

    fn file(seed: u64, throughput: f64, digest: &str, failed: u64) -> Json {
        obj([
            (
                "header",
                obj([
                    ("schema", 1u64.into()),
                    ("kind", "run".into()),
                    ("seed", seed.into()),
                    ("seconds", 20u64.into()),
                ]),
            ),
            (
                "workloads",
                obj([(
                    "w",
                    obj([
                        ("sizes", obj([("segment_points", 1000u64.into())])),
                        ("failed_share", (failed as f64 / 1000.0).into()),
                        ("correct", true.into()),
                        (
                            "metrics",
                            obj([(
                                "throughput_pts_s",
                                median_metric(throughput, throughput * 0.99, throughput * 1.01),
                            )]),
                        ),
                        ("counts", obj([("core.outliers", 7u64.into())])),
                        ("digests", obj([("t0", digest.into())])),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn files_compare_clean_both_ways_or_fail_for_a_reason() {
        let a = file(42, 100_000.0, "abc", 0);
        assert_eq!(compare(&a, &file(42, 101_000.0, "abc", 0)), Ok(true));
        assert_eq!(compare(&file(42, 101_000.0, "abc", 0), &a), Ok(true));
        assert_eq!(compare(&a, &file(42, 50_000.0, "abc", 0)), Ok(false));
        assert_eq!(compare(&a, &file(42, 100_000.0, "abd", 0)), Ok(false));
        assert_eq!(compare(&a, &file(42, 100_000.0, "abc", 3)), Ok(false));
        assert!(compare(&a, &file(7, 100_000.0, "abc", 0)).is_err());
    }
}
