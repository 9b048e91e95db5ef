//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! spot-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! spot-benchmark run     [--seed <n>] [--seconds <s>] [--out <file>]
//! spot-benchmark trace   [--seed <n>] [--seconds <s>] [--out <file>]
//! spot-benchmark compare <parent.json> <change.json>
//! ```
//!
//! The first form runs one workload in this process (so that peak memory is
//! that workload's) and ends its standard output with the one-line JSON
//! summary `BENCHMARK.json` promises. `run` and `trace` start one such
//! process per workload and gather their result files into one.

mod compare;
mod detect;
mod env;
mod fleet;
mod json;
mod ladder;
mod metrics;
mod openloop;
mod reference;
mod result;
mod serve;
mod spans;
mod stats;
mod workload;

use result::{file_json, header, out_dir, write_file, WorkloadResult};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Path as Entry, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, the default of `run` and `trace`.
const DEFAULT_SECONDS: u64 = 20;
const DEFAULT_SEED: u64 = 42;

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                o.workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()?.clamp(1, 60),
            "--trace" => o.trace = number()? != 0,
            "--out" => o.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

fn kind(trace: bool) -> &'static str {
    if trace {
        "trace"
    } else {
        "run"
    }
}

fn single_file(trace: bool, workload: &str) -> PathBuf {
    out_dir().join(format!("{}-{workload}.json", kind(trace)))
}

/// One workload, in this process.
fn run_one(o: &Options) -> Result<ExitCode, String> {
    let w = o.workload.ok_or("--workload is required")?;
    let result: WorkloadResult = if o.trace {
        ladder::trace(w, o.seed, o.seconds)
    } else {
        match w.path {
            Entry::Batch | Entry::Point => detect::run(w, o.seed, o.seconds),
            Entry::Fleet => fleet::run(w, o.seed, o.seconds),
            Entry::Serve => serve::run(w, o.seed, o.seconds),
        }
    };
    result.print();
    let doc = file_json(
        header(kind(o.trace), o.seed, o.seconds),
        std::slice::from_ref(&result),
    );
    write_file(&single_file(o.trace, w.name), &doc).map_err(|e| e.to_string())?;
    let names = if o.trace {
        metrics::per_layer_names()
    } else {
        metrics::end_to_end_names()
    };
    println!("{}", result.driver_line(&names)?);
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each in a child process, gathered into one result file.
fn run_all(o: &Options, trace: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workloads = std::collections::BTreeMap::new();
    let mut clean = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| o.workload.is_none_or(|only| only.name == w.name))
    {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("start {}: {e}", w.name))?;
        if !status.success() {
            return Err(format!("{} exited with {status}", w.name));
        }
        let text =
            std::fs::read_to_string(single_file(trace, w.name)).map_err(|e| e.to_string())?;
        let doc = json::Json::parse(&text)?;
        let entry = doc
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .ok_or("child wrote no result")?
            .clone();
        clean &= entry.get("correct").and_then(json::Json::as_bool) == Some(true)
            && entry.get("failed").and_then(json::Json::as_f64) == Some(0.0);
        workloads.insert(w.name.to_string(), entry);
    }
    let doc = json::obj([
        ("header", header(kind(trace), o.seed, o.seconds)),
        ("workloads", json::Json::Obj(workloads)),
    ]);
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("{}.json", kind(trace))));
    write_file(&path, &doc).map_err(|e| e.to_string())?;
    println!("result file: {}", path.display());
    if clean {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("FAILED: an output check failed or an operation failed; see above");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..]).and_then(|o| run_all(&o, false)),
        Some("trace") => parse_options(&args[1..]).and_then(|o| run_all(&o, true)),
        Some("compare") => match &args[1..] {
            [parent, change] => compare::compare_files(parent.as_ref(), change.as_ref()),
            _ => Err("usage: compare <parent.json> <change.json>".to_string()),
        },
        Some(flag) if flag.starts_with("--") => parse_options(&args).and_then(|o| run_one(&o)),
        _ => Err("usage: spot-benchmark run | trace | compare <a> <b> | --workload <name> --seed <n> --seconds <s> --trace <0|1>".to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("spot-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
