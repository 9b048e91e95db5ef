//! What a workload run produces, the result-file schema, and the one-line
//! summary the driver reads.

use crate::json::{obj, Json};
use crate::stats::LatencySummary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Bumped whenever a reader of an older file would misread a newer one.
pub const SCHEMA_VERSION: u64 = 1;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples `value` summarises (1 for a plain reading).
    pub samples: usize,
    /// Smallest and largest of the samples, when there are several.
    pub range: Option<(f64, f64)>,
    /// First and third quartile of repeated measurements: the spread
    /// `compare` weighs a change against.
    pub quartiles: Option<(f64, f64)>,
    /// For latencies: the highest percentile with ≥10 samples beyond it.
    pub tail: Option<(&'static str, f64)>,
}

impl Metric {
    pub fn reading(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: 1,
            range: None,
            quartiles: None,
            tail: None,
        }
    }

    /// The median of repeated measurements, with their spread.
    pub fn median_of(name: &str, samples: &[f64], unit: &'static str) -> Self {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (lower, upper) = sorted.split_at(sorted.len() / 2);
        let upper = &upper[sorted.len() % 2..];
        let quartiles =
            (!lower.is_empty()).then(|| (crate::stats::median(lower), crate::stats::median(upper)));
        Metric {
            name: name.to_string(),
            value: crate::stats::median(samples),
            unit,
            samples: samples.len(),
            range: Some((min, max)),
            quartiles,
            tail: None,
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = BTreeMap::new();
        fields.insert("value".to_string(), Json::Num(self.value));
        fields.insert("unit".to_string(), self.unit.into());
        fields.insert("samples".to_string(), self.samples.into());
        if let Some((min, max)) = self.range {
            fields.insert("min".to_string(), Json::Num(min));
            fields.insert("max".to_string(), Json::Num(max));
        }
        if let Some((q1, q3)) = self.quartiles {
            fields.insert("q1".to_string(), Json::Num(q1));
            fields.insert("q3".to_string(), Json::Num(q3));
        }
        if let Some((label, value)) = self.tail {
            fields.insert(label.to_string(), Json::Num(value));
        }
        Json::Obj(fields)
    }
}

/// The `<prefix>_p50_us` / `<prefix>_p99_us` pair of a latency sample (ns).
pub fn latency_metrics(prefix: &str, summary: &LatencySummary) -> [Metric; 2] {
    let us = |ns: u64| ns as f64 / 1e3;
    let make = |which: &str, value: u64| Metric {
        name: format!("{prefix}_{which}_us"),
        value: us(value),
        unit: "us",
        samples: summary.samples,
        range: Some((us(summary.min), us(summary.max))),
        quartiles: None,
        tail: summary.tail.map(|(label, v)| (label, us(v))),
    };
    [make("p50", summary.p50), make("p99", summary.p99)]
}

#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, pass: bool, detail: impl Into<String>) -> Self {
        Check {
            name,
            pass,
            detail: detail.into(),
        }
    }

    pub fn equal<T: PartialEq + std::fmt::Debug>(name: &'static str, got: T, want: T) -> Self {
        let pass = got == want;
        let detail = if pass {
            String::new()
        } else {
            format!("got {got:?}, want {want:?}")
        };
        Check { name, pass, detail }
    }
}

/// Everything one workload run (or its traced twin) reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    /// Stream sizes derived from `--seconds`; two files are comparable only
    /// when these agree.
    pub sizes: BTreeMap<String, u64>,
    /// Points offered to the system, and those it shed, refused for good,
    /// errored on or never returned a verdict for.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Counts the program itself made; they must repeat exactly.
    pub counts: BTreeMap<String, u64>,
    /// Per-tenant verdict digests; they must repeat exactly.
    pub digests: BTreeMap<String, String>,
    pub checks: Vec<Check>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Json {
        let num_map = |m: &BTreeMap<String, u64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), (*v).into())).collect())
        };
        obj([
            ("sizes", num_map(&self.sizes)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "failed_share",
                (self.failed as f64 / self.attempted.max(1) as f64).into(),
            ),
            ("correct", self.correct().into()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.to_json()))
                        .collect(),
                ),
            ),
            ("counts", num_map(&self.counts)),
            (
                "digests",
                Json::Obj(
                    self.digests
                        .iter()
                        .map(|(k, v)| (k.clone(), v.as_str().into()))
                        .collect(),
                ),
            ),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            obj([
                                ("name", c.name.into()),
                                ("pass", c.pass.into()),
                                ("detail", c.detail.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The last line of standard output the driver parses: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`, with exactly the metrics
    /// named in `names` (the `end_to_end` or `per_layer` list).
    pub fn driver_line(&self, names: &[String]) -> Result<String, String> {
        let mut metrics = BTreeMap::new();
        for name in names {
            let m = self
                .metric(name)
                .ok_or_else(|| format!("{}: metric {name} was not measured", self.workload))?;
            metrics.insert(
                name.clone(),
                obj([("value", Json::Num(m.value)), ("unit", m.unit.into())]),
            );
        }
        Ok(obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .render())
    }

    /// Every metric by name with its unit, every count and check, for people.
    pub fn print(&self) {
        println!("== {} ==", self.workload);
        for m in &self.metrics {
            let mut line = format!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
            if m.samples > 1 {
                line.push_str(&format!("  (n={}", m.samples));
                if let Some((min, max)) = m.range {
                    line.push_str(&format!(", {min:.4}..{max:.4}"));
                }
                if let Some((q1, q3)) = m.quartiles {
                    line.push_str(&format!(", q1={q1:.4} q3={q3:.4}"));
                }
                if let Some((label, v)) = m.tail {
                    line.push_str(&format!(", {label}={v:.4}"));
                }
                line.push(')');
            }
            println!("{line}");
        }
        for (k, v) in &self.counts {
            println!("  {k:<44} {v:>16} count");
        }
        for (k, v) in &self.digests {
            println!("  verdict_digest.{k:<29} {v:>16}");
        }
        println!(
            "  attempted {}  failed {}  failed_share {:.6}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for c in &self.checks {
            let mark = if c.pass { "ok  " } else { "FAIL" };
            println!("  [{mark}] {} {}", c.name, c.detail);
        }
    }
}

/// What a result file says about where it was measured.
pub fn header(kind: &str, seed: u64, seconds: u64) -> Json {
    obj([
        ("schema", SCHEMA_VERSION.into()),
        ("kind", kind.into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .into(),
        ),
        ("rustc", tool_line("rustc", &["-V"]).into()),
        ("commit", tool_line("git", &["rev-parse", "HEAD"]).into()),
        // The benchmark enables no cargo feature of the crates it drives.
        ("features", "none".into()),
    ])
}

/// First line a tool prints, or "unknown" (a driver checkout is not a git
/// repository, and a deployed box need not have the toolchain).
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// A result file: the header plus one entry per workload.
pub fn file_json(header: Json, results: &[WorkloadResult]) -> Json {
    obj([
        ("header", header),
        (
            "workloads",
            Json::Obj(
                results
                    .iter()
                    .map(|r| (r.workload.clone(), r.to_json()))
                    .collect(),
            ),
        ),
    ])
}

/// `benchmark/out`, the one directory the benchmark writes into.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_file(path: &Path, doc: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render_pretty())
}
