//! The metric catalogue, what a workload hands back, and the two
//! outputs: the result line (last line of stdout) and the result file.

use std::collections::BTreeMap;

use crate::host::Host;

use crate::json::Json;

/// End-to-end metrics, printed by a run with `--trace 0`. Every
/// workload reports every one of them; see `perfbench/README.md` for
/// what an op is on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("rss_peak_MB", "MB"),
];

/// Per-layer metrics, printed by a run with `--trace 1`. A workload
/// that does not exercise a layer reports 0 for it. The undotted names
/// first are the figures only some workloads have; a `--trace 0` run
/// prints them too, after its end-to-end metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p99_us", "us"),
    ("read_MBps", "MB/s"),
    ("write_MBps", "MB/s"),
    ("error_rate", "ratio"),
    ("sim_events_per_s", "1/s"),
    ("executor.steals_per_op", "count/op"),
    ("executor.parks_per_op", "count/op"),
    ("executor.dispatch_batch_mean", "count"),
    ("executor.mailbox_hwm_max", "count"),
    ("client.rpc_retries", "count"),
    ("client.replica_walks", "count"),
    ("client.reallocs", "count"),
    ("provider.cache_hit_ratio", "ratio"),
    ("vmanager.stalled_tickets", "count"),
    ("meta.tree_nodes", "count"),
    ("gateway.errors", "count"),
    ("threaded.submit_us", "us"),
    ("storage.crc32c_GBps", "GB/s"),
    ("provider.put_us_per_page", "us"),
    ("provider.get_us_per_page", "us"),
    ("meta.build_us", "us"),
    ("meta.nodes_per_write", "count"),
    ("meta.descent_us", "us"),
    ("meta.fetch_rounds_per_read", "count"),
    ("stream.put_us", "us"),
    ("stream.get_us", "us"),
    ("gateway.put_self_us", "us"),
    ("gateway.get_self_us", "us"),
    ("telemetry.record_ns", "ns"),
    ("telemetry.observations_per_op", "count/op"),
    ("proc.minflt_per_op", "count/op"),
    ("proc.majflt", "count"),
    ("sim.events", "count"),
    ("sim.metric_records_per_event", "count"),
    ("sim.run_s", "s"),
    ("residual.read_us", "us"),
    ("residual.write_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Every output matched its model and every invariant held.
    pub correct: bool,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that failed (errors and wrong bytes).
    pub failed: u64,
    /// Every figure the workload produced, by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Executor shards the workload's cluster ran on (0: none).
    pub executor_shards: usize,
    /// Workload-specific record: sample counts, executor and `/proc`
    /// state, set-up samples, notes.
    pub details: Json,
    /// Correctness failures, described.
    pub problems: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<crate::trace::SpanLog>,
}

/// The part of an op's p50 that the named layer costs on that op do
/// not explain (executor queueing, client state machine, messaging).
/// Layers that overlap in time can exceed the p50, so it may be negative;
/// it is never clamped, so layers plus residual always add up to `p50`.
pub fn residual(p50: f64, layers: &[f64]) -> f64 {
    p50 - layers.iter().sum::<f64>()
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the run's kind, each with its unit. A metric the workload did not
/// produce is reported as 0.
pub fn result_line(o: &Outcome, trace: bool) -> Json {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|(name, unit)| {
            let v = o.values.get(name).copied().unwrap_or(0.0);
            (
                name.to_string(),
                Json::obj().with("value", v).with("unit", *unit),
            )
        })
        .collect();
    Json::obj()
        .with("correct", o.correct)
        .with("attempted", o.attempted)
        .with("failed", o.failed)
        .with("metrics", Json::Obj(metrics))
}

/// The result file: the result line plus the run's arguments, the host
/// fingerprint, every figure the workload produced and its details.
pub fn result_file(
    o: &Outcome,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    host: &Host,
) -> Json {
    Json::obj()
        .with("workload", workload)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("trace", trace)
        .with("host", host.to_json(o.executor_shards))
        .with("result", result_line(o, trace))
        .with("all_values", crate::harness::to_json(&o.values))
        .with("details", o.details.clone())
        .with(
            "problems",
            Json::Arr(o.problems.iter().map(|p| Json::from(p.as_str())).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_and_residual_add_up_to_the_p50() {
        // bulk write: 16 pages × put, one tree build.
        let layers = [16.0 * 21.5, 37.25];
        let r = residual(1_000.0, &layers);
        assert!((r + layers.iter().sum::<f64>() - 1_000.0).abs() < 1e-9);
        assert!((r - (1_000.0 - 344.0 - 37.25)).abs() < 1e-9);
        // Overlapping layers can exceed the p50: the residual goes
        // negative rather than being clamped, so the sum still holds.
        assert_eq!(residual(100.0, &[80.0, 40.0]), -20.0);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let b = Json::parse(&text).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = b.get(key) else {
                panic!("{key} missing")
            };
            let listed: Vec<(String, String)> = items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("malformed {key} entry"),
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from the code's catalogue");
        }
        let Some(Json::Arr(w)) = b.get("workloads") else {
            panic!("workloads missing")
        };
        for name in w.iter().filter_map(|x| x.get("name")) {
            let Json::Str(name) = name else {
                panic!("workload name not a string")
            };
            assert!(
                crate::WORKLOADS.contains(&name.as_str()),
                "unknown workload {name}"
            );
        }
    }

    #[test]
    fn result_file_round_trips() {
        let mut o = Outcome {
            correct: true,
            attempted: 12_345,
            failed: 2,
            ..Default::default()
        };
        o.values.insert("setup_s", 0.812_734_5);
        o.values.insert("ops_per_s", 9_876.543_21);
        o.values.insert("op_p50_us", 151.25);
        o.values.insert("rss_peak_MB", 412.0);
        o.values.insert("meta.descent_us", 3.5);
        o.executor_shards = 2;
        o.details = Json::obj()
            .with("read_samples", 40_000u64)
            .with("tail_pct", 99.0);
        o.problems.push("op 0x1 failed: timeout".into());
        let host = Host {
            nproc: 2,
            loadavg: [0.5, 0.25, 0.125],
            commit: Some("2c21ec5".into()),
            source_crc32c: 0xdead_beef,
        };
        let file = result_file(&o, "meta-mix", 7, 10, false, &host);
        let back = Json::parse(&file.render()).unwrap();
        assert_eq!(back, file);
        let line = back.get("result").unwrap();
        assert_eq!(line.get("attempted"), Some(&Json::Int(12_345)));
        assert_eq!(line.get("failed"), Some(&Json::Int(2)));
        let m = line.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.812_734_5)
        );
        assert_eq!(
            m.get("ops_per_s").unwrap().get("unit"),
            Some(&Json::from("1/s"))
        );
        let Json::Obj(kv) = m else { panic!() };
        assert_eq!(kv.len(), END_TO_END.len());
        let h = back.get("host").unwrap();
        assert_eq!(h.get("nproc"), Some(&Json::Int(2)));
        assert_eq!(h.get("executor_shards"), Some(&Json::Int(2)));
        assert_eq!(h.get("source_crc32c"), Some(&Json::from("deadbeef")));
    }
}
