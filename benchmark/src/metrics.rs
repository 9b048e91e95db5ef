//! The metric lists. `BENCHMARK.json` repeats them for the driver; a unit
//! test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

// `unit` (like `PerLayer`'s fields and `Workload::why`) is read only by the
// test that keeps `BENCHMARK.json` in step with these tables.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may get worse.
    pub bound: f64,
    /// Deterministic for a given seed and size: `compare` demands equality
    /// between two files of the same commit's behaviour, whatever the bound.
    pub exact: bool,
    /// Whether `compare` fails on it. Latencies are shown with their
    /// verdict but do not fail the comparison: between two back-to-back
    /// sets of one commit on the baseline box, open-loop p99 moved five-fold
    /// and even the single-thread call p99 by a third.
    pub gated: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
        gated: true,
    }
}

const fn shown(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        gated: false,
        ..e2e(name, unit, better, bound)
    }
}

/// Measured on every workload and steady enough to gate on: the
/// `end_to_end` list of `BENCHMARK.json`. The throughput bound is as wide as
/// the list allows because it has to hold for `serve_http_4t` too, whose
/// closed loop keeps both cores of the baseline box busy and so moves with
/// the host's other tenants (10 % between identical runs).
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_pts_s", "1/s", Better::Higher, 0.25),
    EndToEnd {
        exact: true,
        ..e2e("f1", "ratio", Better::Higher, 0.05)
    },
    EndToEnd {
        exact: true,
        ..e2e("state_bytes", "B", Better::Lower, 0.05)
    },
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// End-to-end metrics that are in the result file and in `compare`'s table
/// but that the driver's list cannot carry: either only some workloads have
/// them (the list wants every metric from every workload), or they did not
/// repeat within the widest bound the list allows (open-loop latencies on
/// the two-thread workloads moved by 25-60 % between identical runs on the
/// baseline box, so a run-to-run gate on them would only ever report
/// noise; `compare` shows them without failing on them).
pub const RESULT_FILE_ONLY: [EndToEnd; 7] = [
    shown("verdict_latency_p50_us", "us", Better::Lower, 0.25),
    shown("verdict_latency_p99_us", "us", Better::Lower, 0.25),
    shown("request_latency_p50_us", "us", Better::Lower, 0.25),
    shown("request_latency_p99_us", "us", Better::Lower, 0.25),
    e2e("checkpoint_ms", "ms", Better::Lower, 0.25),
    // One reading of about two seconds; a burst of host noise moves it 15 %.
    e2e("recover_s", "s", Better::Lower, 0.25),
    // WAL and checkpoint bytes repeat exactly (see the counts); the archive
    // writes a frame per drained micro-batch, whose sizes are timing.
    e2e("disk_bytes_per_point", "B", Better::Lower, 0.05),
];

#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn cost(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn gain(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What the traced run reports, on every workload; the `per_layer` list of
/// `BENCHMARK.json`. Unbounded: they say where an end-to-end change came
/// from, they do not gate it. Counts carry a direction only because the
/// list demands one.
pub const PER_LAYER: [PerLayer; 68] = [
    cost("synopsis.grid.quantize_ns_pt", "ns"),
    cost("synopsis.manager.update_query_batch_ns_pt", "ns"),
    cost("synopsis.manager.update_query_ns_pt", "ns"),
    cost("synopsis.manager.prune_ns_pt", "ns"),
    cost("synopsis.base_cells", "count"),
    cost("synopsis.projected_cells", "count"),
    gain("synopsis.cells_pruned", "count"),
    cost("core.learn_s", "s"),
    cost("core.process_batch_ns_pt", "ns"),
    cost("core.process_ns_pt", "ns"),
    cost("core.sweep_ns_pt", "ns"),
    cost("core.commit_ns_pt", "ns"),
    cost("core.detect_self_ns_pt", "ns"),
    cost("core.outliers", "count"),
    cost("core.evolutions", "count"),
    cost("core.os_added", "count"),
    cost("core.drift_events", "count"),
    cost("core.batch_runs", "count"),
    cost("core.checkpoint_capture_ms", "ms"),
    cost("core.checkpoint_encode_ms", "ms"),
    cost("core.checkpoint_bytes", "B"),
    cost("core.restore_ms", "ms"),
    cost("runtime.fleet.process_batch_ns_pt", "ns"),
    cost("runtime.fleet.ingest_ns_pt", "ns"),
    cost("runtime.fleet.drain_ns_pt", "ns"),
    cost("runtime.fleet.drain_walled_ns_pt", "ns"),
    cost("runtime.wal.append_ns_pt", "ns"),
    cost("runtime.wal.bytes_pt", "B"),
    cost("runtime.archive.append_ns_verdict", "ns"),
    cost("runtime.archive.bytes_verdict", "B"),
    cost("runtime.checkpoint.full_ms", "ms"),
    cost("runtime.checkpoint.full_bytes", "B"),
    cost("runtime.checkpoint.delta_ms", "ms"),
    cost("runtime.checkpoint.delta_bytes", "B"),
    cost("runtime.recover_s", "s"),
    cost("runtime.recover.replayed_pts", "count"),
    cost("runtime.fleet.shed", "count"),
    cost("runtime.pipeline_ns_pt", "ns"),
    cost("runtime.fleet.queue_wait_us_p50", "us"),
    cost("runtime.fleet.queue_wait_us_p99", "us"),
    cost("runtime.generator_lag_us_p99", "us"),
    cost("runtime.latency_p99_us.r40k", "us"),
    cost("runtime.latency_p99_us.r80k", "us"),
    cost("runtime.latency_p99_us.r120k", "us"),
    gain("runtime.sustained_rate_pts_s", "1/s"),
    cost("serve.admit_ns_pt", "ns"),
    cost("serve.admit_cpu_ns_pt", "ns"),
    cost("serve.http.read_request_ns_req", "ns"),
    cost("serve.wire_bytes_pt", "B"),
    cost("serve.pipeline_ns_pt", "ns"),
    cost("serve.request_us_p50", "us"),
    cost("serve.request_us_p99", "us"),
    cost("serve.sink_lag_us_p50", "us"),
    cost("serve.generator_lag_us_p99", "us"),
    cost("serve.latency_p99_us.r40k", "us"),
    cost("serve.latency_p99_us.r80k", "us"),
    cost("serve.latency_p99_us.r120k", "us"),
    gain("serve.sustained_rate_pts_s", "1/s"),
    cost("serve.requests", "count"),
    cost("serve.backpressure_429", "count"),
    cost("serve.bad_requests", "count"),
    cost("serve.timeouts", "count"),
    cost("serve.shed_connections", "count"),
    cost("trace.e2e_arm_ns_pt", "ns"),
    cost("trace.layer_sum_ns_pt", "ns"),
    cost("trace.sum_error_pct", "%"),
    cost("trace.overhead_pct", "%"),
    cost("trace.spans", "count"),
];

pub fn end_to_end_names() -> Vec<String> {
    END_TO_END.iter().map(|m| m.name.to_string()).collect()
}

pub fn per_layer_names() -> Vec<String> {
    PER_LAYER.iter().map(|m| m.name.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` is the driver's copy of these lists.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(item, "name"), def.name);
            assert_eq!(text(item, "unit"), def.unit);
            assert_eq!(text(item, "better"), def.better.as_str());
            assert_eq!(
                item.get("bound").and_then(Json::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(item, "name"), def.name);
            assert_eq!(text(item, "unit"), def.unit);
            assert_eq!(text(item, "better"), def.better.as_str());
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(item, "name"), w.name);
            assert_eq!(text(item, "why"), w.why);
            assert!(w.why.len() <= 200, "{} chars", w.why.len());
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
