//! Pieces the three threaded-cluster workloads share: probing the
//! cluster around the measured loop, turning op logs into figures, the
//! traced run's layer replays, and the set-up median.

use std::collections::BTreeMap;

use sads_blob::runtime::threaded::{ClientHandle, Cluster};
use sads_telemetry::Snapshot;

use crate::harness::{faults, stalled_tickets, telemetry_layers, to_json, OpLog, RssPeak};
use crate::json::Json;
use crate::replay::{self, Trail};
use crate::report::{residual, Outcome};
use crate::stats::median;
use crate::trace::SpanLog;

/// Cluster state taken when the load starts.
pub struct Probe {
    snap: Snapshot,
    faults: (u64, u64),
    rss: RssPeak,
}

impl Probe {
    /// Take the starting state and begin sampling RSS.
    pub fn start(cluster: &Cluster) -> Probe {
        Probe {
            snap: cluster.telemetry().snapshot(),
            faults: faults(),
            rss: RssPeak::start(),
        }
    }

    /// Figures over the ops since [`Probe::start`]: executor, client,
    /// provider and metadata telemetry, page faults, peak RSS and
    /// observations per op. Drains the cluster's metric sink; returns
    /// the metric names it held, for the telemetry replay.
    pub fn finish(
        self,
        cluster: &Cluster,
        ops: u64,
        values: &mut BTreeMap<&'static str, f64>,
    ) -> Vec<String> {
        let after = cluster.telemetry().snapshot();
        let (minflt, majflt) = faults();
        values.insert("rss_peak_MB", self.rss.finish());
        values.extend(telemetry_layers(&self.snap, &after, ops as usize));
        values.insert("vmanager.stalled_tickets", stalled_tickets(&after));
        values.insert(
            "proc.minflt_per_op",
            (minflt - self.faults.0) as f64 / ops.max(1) as f64,
        );
        values.insert("proc.majflt", (majflt - self.faults.1) as f64);
        let sink = cluster.metrics();
        let names: Vec<String> = sink.series_names().map(str::to_owned).collect();
        let observations: usize = names.iter().map(|n| sink.series(n).len()).sum();
        values.insert(
            "telemetry.observations_per_op",
            observations as f64 / ops.max(1) as f64,
        );
        names
    }
}

/// Latency, error and tracing-overhead figures from a merged op log.
/// `op_p50_us` is over every measured untraced op of the run.
pub fn latency_figures(log: &mut OpLog, values: &mut BTreeMap<&'static str, f64>) -> Json {
    let (rp, read_tail) = log.read.tail();
    let (wp, write_tail) = log.write.tail();
    values.insert("op_p50_us", log.untraced.pct(50.0));
    values.insert("read_p50_us", log.read.pct(50.0));
    values.insert("write_p50_us", log.write.pct(50.0));
    values.insert("read_p99_us", read_tail);
    values.insert("write_p99_us", write_tail);
    values.insert(
        "error_rate",
        log.failed as f64 / log.attempted.max(1) as f64,
    );
    if log.traced.len() > 0 {
        values.insert(
            "trace.overhead_ratio",
            log.traced.mean() / log.untraced.mean(),
        );
    }
    Json::obj()
        .with("read_samples", log.read.len())
        .with("write_samples", log.write.len())
        .with("traced_samples", log.traced.len())
        .with("read_tail_percentile", rp)
        .with("write_tail_percentile", wp)
        .with("read_mean_us", log.read.mean())
        .with("write_mean_us", log.write.mean())
}

/// How many pages one op touches, for the residual.
pub struct Shape {
    /// Pages per write op.
    pub write_pages: f64,
    /// Replicas of each written page.
    pub replication: f64,
    /// Pages per read op.
    pub read_pages: f64,
    /// Ops go through the gateway, which sits on the stream handles: the
    /// gateway's own cost is its op p50 minus the stream figure.
    pub gateway: bool,
}

/// The traced run's replays of the recorded inputs (storage, metadata,
/// stream handles, telemetry), then the residual of each op type: its
/// p50 minus the replayed layer costs on one op (on the gateway, its own
/// cost counts as a layer). Returns the number of stream read-backs that
/// did not match.
pub fn replay_layers(
    client: &ClientHandle,
    trails: &[Trail],
    metric_names: &[String],
    shape: Shape,
    spans: &mut SpanLog,
    values: &mut BTreeMap<&'static str, f64>,
) -> u64 {
    // Replays time into a log of their own, so their figures never
    // depend on how full the op spans left the shared one.
    let mut r = spans.fresh();
    values.extend(replay::storage(trails, &mut r));
    values.extend(replay::metadata(trails, &mut r));
    let (stream, bad) = replay::stream(client, trails, &mut r);
    values.extend(stream);
    if shape.gateway {
        let v = |k: &str| values.get(k).copied().unwrap_or(0.0);
        let put_self = v("write_p50_us") - v("stream.put_us");
        let get_self = v("read_p50_us") - v("stream.get_us");
        values.insert("gateway.put_self_us", put_self);
        values.insert("gateway.get_self_us", get_self);
    }
    values.extend(replay::telemetry(metric_names, 20_000, 0, &mut r));
    values.insert("threaded.submit_us", spans.p50_us("ClientHandle::submit"));
    spans.absorb(r);
    let v = |k: &str| values.get(k).copied().unwrap_or(0.0);
    let write_residual = residual(
        v("write_p50_us"),
        &[
            shape.write_pages * shape.replication * v("provider.put_us_per_page"),
            v("meta.build_us"),
            v("gateway.put_self_us"),
        ],
    );
    let read_residual = residual(
        v("read_p50_us"),
        &[
            shape.read_pages * v("provider.get_us_per_page"),
            v("meta.descent_us"),
            v("gateway.get_self_us"),
        ],
    );
    values.insert("residual.write_us", write_residual);
    values.insert("residual.read_us", read_residual);
    bad
}

/// Copy the op counts into `o` and decide correctness: any read that
/// returned the wrong bytes, or a problem already noted, makes the run
/// incorrect. Returns every failure the lanes described.
pub fn settle(o: &mut Outcome, log: &OpLog) -> Json {
    o.attempted = log.attempted;
    o.failed = log.failed;
    if log.mismatches > 0 {
        o.problems.push(format!(
            "{} ops read bytes that differ from the model",
            log.mismatches
        ));
    }
    o.correct = o.problems.is_empty();
    Json::Arr(
        log.problems
            .iter()
            .map(|p| Json::from(p.as_str()))
            .collect(),
    )
}

/// Median of the set-up samples, recorded in `details` as well.
pub fn setup_figure(samples: &[f64], values: &mut BTreeMap<&'static str, f64>) -> Json {
    values.insert("setup_s", median(samples).unwrap_or(0.0));
    Json::Arr(samples.iter().map(|s| Json::Num(*s)).collect())
}

/// The per-layer figures also kept in every result file (traced or
/// not), so a slow run can be attributed afterwards.
pub fn attribution(values: &BTreeMap<&'static str, f64>) -> Json {
    let keep: BTreeMap<&'static str, f64> = values
        .iter()
        .filter(|(k, _)| {
            k.starts_with("executor.") || k.starts_with("proc.") || k.starts_with("client.")
        })
        .map(|(k, v)| (*k, *v))
        .collect();
    to_json(&keep)
}
