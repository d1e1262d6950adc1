//! `dos-sim`: the E2 DoS scenario (`sads_bench::dos::build`, security
//! on) at 2× its default size — 32 providers, 16 writers, 12 attackers —
//! run for 180 s of simulated time on the deterministic simulator. This
//! is the workload for `sads-sim`, `sads-monitor`, `sads-introspect` and
//! `sads-security`: the self-adaptive loop.
//!
//! At 16× a deployment holds ~300 MB and the simulator waits on memory:
//! on a shared 2-core VM, ten runs of it spread by up to 28 % of their
//! median. At 2× (~50 MB) the per-process median event rate varied about
//! a quarter as much, in processes alternated with 16× ones on the same
//! seeds.
//!
//! An op is one simulator event. Single events are too short to time,
//! so each simulated second is timed as one slice, and each of its events
//! is given the slice's wall time ÷ its events. `op_p50_us` is the median
//! of that over all measured events and `ops_per_s` its inverse: the
//! simulator's pace at its median event, which a slow second of the host
//! does not move. `sim_events_per_s` is the whole-run rate. One thread
//! runs the simulator. The simulator is deterministic, so every
//! run of one seed must process the same events in the same order
//! (`World::event_digest`), traced or not, and as in every earlier run
//! recorded in the same checkout.

use std::path::Path;
use std::time::Instant;

use sads_bench::dos::{build, DosScenario};
use sads_core::Deployment;
use sads_sim::SimDuration;

use crate::harness::{faults, more_setups, thread_cpu_s, RssPeak};
use crate::json::Json;
use crate::replay;
use crate::report::Outcome;
use crate::stats::{median, weighted_median, Latencies};
use crate::trace::SpanLog;

/// Multiple of the default E2 size (see the module comment).
const SCALE: usize = 2;
const SIM_SECONDS: u64 = 180;
/// The scenario's first 10 simulated seconds, before the writers start,
/// are the seeder filling the public blob: set-up, not measured.
const FILL_SECONDS: u64 = 10;
const MAX_EVENTS: u64 = 500_000_000;

fn scenario(seed: u64) -> DosScenario {
    let base = DosScenario::default();
    DosScenario {
        seed,
        data_providers: base.data_providers * SCALE,
        writers: base.writers * SCALE,
        attackers: base.attackers * SCALE,
        security: true,
        ..base
    }
}

/// Build the deployment and run the fill phase.
fn set_up(seed: u64) -> Deployment {
    let mut d = build(&scenario(seed));
    d.world
        .run_for(SimDuration::from_secs(FILL_SECONDS), MAX_EVENTS);
    d
}

/// What one scenario run produced.
struct RunResult {
    wall_s: f64,
    cpu_s: f64,
    /// Minor faults of the whole process during the run.
    minflt: u64,
    events: u64,
    /// Events after the fill phase.
    measured_events: u64,
    digest: u64,
    detections: usize,
    silenced: u64,
    /// Wall µs per event of each simulated second, with its events.
    per_event_us: Vec<(f64, u64)>,
}

/// Run the scenario from the end of the fill to the end, one simulated
/// second per `World::run_for` call: each call is timed (and, traced,
/// recorded as a span), since single events are too short to time. The schedule, and
/// so the digest, must not depend on the slicing or the tracing.
fn simulate(d: &mut Deployment, traced: bool, op: u64, spans: &mut SpanLog) -> RunResult {
    let t = Instant::now();
    let cpu0 = thread_cpu_s();
    let flt0 = faults().0;
    let mut per_event_us = Vec::new();
    let e_fill = d.world.events_processed();
    for _ in FILL_SECONDS..SIM_SECONDS {
        let e0 = d.world.events_processed();
        let start = Instant::now();
        d.world.run_for(SimDuration::from_secs(1), MAX_EVENTS);
        let end = Instant::now();
        if traced {
            spans.record("World::run_for", op, start, end);
        }
        let n = d.world.events_processed() - e0;
        if n > 0 {
            per_event_us.push((
                end.duration_since(start).as_nanos() as f64 / 1e3 / n as f64,
                n,
            ));
        }
    }
    RunResult {
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: thread_cpu_s().zip(cpu0).map_or(0.0, |(b, a)| b - a),
        minflt: faults().0 - flt0,
        events: d.world.events_processed(),
        measured_events: d.world.events_processed() - e_fill,
        digest: d.world.event_digest(),
        detections: d.security_engine().map_or(0, |e| e.detections().len()),
        silenced: d.world.metrics().counter("attacker.silenced"),
        per_event_us,
    }
}

/// Compare this process's schedule with the one recorded by earlier
/// runs of the same seed and source in this checkout (and record it if
/// none is). Returns a problem if they differ.
fn check_recorded(
    out_dir: &Path,
    source: u32,
    seed: u64,
    events: u64,
    digest: u64,
) -> Option<String> {
    let path = out_dir.join(format!("dos-sim-{source:08x}-seed{seed}.schedule.json"));
    let mine = Json::obj()
        .with("events", events)
        .with("digest", format!("{digest:016x}"));
    match std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    {
        Some(prev) if prev == mine => None,
        Some(prev) => Some(format!(
            "schedule {} differs from the recorded {}",
            mine.render(),
            prev.render()
        )),
        None => {
            let _ = std::fs::create_dir_all(out_dir);
            let _ = std::fs::write(&path, mine.render() + "\n");
            None
        }
    }
}

/// Every scenario run of one benchmark run, with their set-ups.
struct Runs {
    runs: Vec<RunResult>,
    setups: Vec<f64>,
    /// Wall time of measured untraced / traced runs.
    untraced: Latencies,
    traced: Latencies,
    per_event_us: Vec<(f64, u64)>,
    /// Events of the measured untraced runs.
    events: u64,
    spans: SpanLog,
    /// Metric series names and total samples of the last deployment.
    names: Vec<String>,
    records: usize,
}

/// A discarded warm-up run, then scenario runs until `seconds` of them
/// are measured. Traced runs alternate with untraced ones, so the
/// overhead ratio is an interleaved A/B.
fn scenario_runs(seed: u64, seconds: u64, trace: bool, epoch: Instant) -> Runs {
    let mut l = Runs {
        runs: Vec::new(),
        setups: Vec::new(),
        untraced: Latencies::default(),
        traced: Latencies::default(),
        per_event_us: Vec::new(),
        events: 0,
        spans: SpanLog::new(epoch),
        names: Vec::new(),
        records: 0,
    };
    let mut measured_s = 0.0;
    let mut k = 0u64;
    while k == 0 || measured_s < seconds as f64 {
        let tr = trace && k.is_multiple_of(2) && k > 0;
        let t = Instant::now();
        let mut d = l.spans.time("dos::build+fill", k, || set_up(seed));
        l.setups.push(t.elapsed().as_secs_f64());
        let r = simulate(&mut d, tr, k, &mut l.spans);
        if k > 0 {
            measured_s += r.wall_s;
            if tr {
                l.traced.push(r.wall_s);
            } else {
                l.untraced.push(r.wall_s);
                l.per_event_us.extend_from_slice(&r.per_event_us);
                l.events += r.measured_events;
            }
        }
        l.runs.push(r);
        let sink = d.world.metrics();
        l.names = sink.series_names().map(str::to_owned).collect();
        l.records = l.names.iter().map(|n| sink.series(n).len()).sum();
        k += 1;
    }
    l
}

/// Run `dos-sim`: the scenario of `seed`, over and over on this thread,
/// for `seconds` of measured time. The simulator is
/// single-threaded, and a second simulator beside it on a 2-core host
/// made the two contend for the memory system.
pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    epoch: Instant,
    out_dir: &Path,
    source: u32,
) -> Outcome {
    let mut o = Outcome::default();
    let attackers = scenario(seed).attackers as u64;
    let rss = RssPeak::start();
    let mut l = scenario_runs(seed, seconds, trace, epoch);
    let rss_peak = rss.finish();

    let first = &l.runs[0];
    for (i, r) in l.runs.iter().enumerate() {
        if (r.events, r.digest) != (first.events, first.digest) {
            o.problems.push(format!(
                "run {i}: {} events / digest {:016x}, first run: {} / {:016x}",
                r.events, r.digest, first.events, first.digest
            ));
        }
        if r.detections == 0 {
            o.problems
                .push(format!("run {i}: the security engine detected nothing"));
        }
        if r.silenced != attackers {
            o.problems.push(format!(
                "run {i}: {} of {attackers} attackers silenced",
                r.silenced
            ));
        }
    }
    o.problems.extend(check_recorded(
        out_dir,
        source,
        seed,
        first.events,
        first.digest,
    ));
    more_setups(&mut l.setups, || set_up(seed), drop);

    let op_p50_us = weighted_median(&l.per_event_us).unwrap_or(0.0);
    let v = &mut o.values;
    v.insert("rss_peak_MB", rss_peak);
    v.insert("setup_s", median(&l.setups).unwrap_or(0.0));
    // The simulator's pace at its median event.
    v.insert("ops_per_s", 1e6 / op_p50_us);
    v.insert("op_p50_us", op_p50_us);
    v.insert("sim.run_s", l.untraced.pct(50.0));
    v.insert("sim.events", first.events as f64);
    // Whole runs, slow seconds included.
    v.insert("sim_events_per_s", l.events as f64 / l.untraced.sum());
    v.insert(
        "sim.metric_records_per_event",
        l.records as f64 / first.events as f64,
    );
    if trace {
        v.extend(replay::telemetry(&l.names, 20_000, 0, &mut l.spans));
        v.insert("trace.overhead_ratio", l.traced.mean() / l.untraced.mean());
    }
    o.attempted = l.runs.len() as u64;
    o.failed = l
        .runs
        .iter()
        .filter(|r| r.detections == 0 || r.silenced != attackers)
        .count() as u64;
    o.correct = o.problems.is_empty();
    o.details = Json::obj()
        .with("runs", l.runs.len())
        .with("events", first.events)
        .with("measured_events", first.measured_events)
        .with("digest", format!("{:016x}", first.digest))
        .with("detections", first.detections)
        .with("attackers_silenced", first.silenced)
        .with(
            "run_wall_s",
            Json::Arr(l.runs.iter().map(|r| Json::Num(r.wall_s)).collect()),
        )
        .with(
            "run_cpu_s",
            Json::Arr(l.runs.iter().map(|r| Json::Num(r.cpu_s)).collect()),
        )
        .with(
            "run_minflt",
            Json::Arr(l.runs.iter().map(|r| Json::from(r.minflt)).collect()),
        )
        .with(
            "setup_samples_s",
            Json::Arr(l.setups.iter().map(|s| Json::Num(*s)).collect()),
        );
    o.spans = trace.then_some(l.spans);
    o
}
