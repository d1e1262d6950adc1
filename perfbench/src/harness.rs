//! What every workload shares: the run clock (warm-up, measured time,
//! traced windows), the per-thread lane that runs one closed loop and
//! records its ops, the RSS sampler, and the telemetry read-out.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sads_blob::runtime::threaded::{Cluster, ClusterBuilder};
use sads_telemetry::{parse_proc_stat, parse_proc_statm, SampleValue, Snapshot};

use crate::json::Json;
use crate::stats::Latencies;
use crate::trace::SpanLog;

/// Threads that issue ops. The host has two cores; each load thread
/// drives one client and keeps one op in flight (closed loop).
pub const LOAD_THREADS: usize = 2;

/// A counted run stops after this many times its nominal length even if
/// its ops are not done.
pub const CAP_FACTOR: u32 = 3;

/// Length of one traced (or untraced) window in a traced run. Windows
/// alternate, so host phases hit both sides alike and the traced ÷
/// untraced ratio is an interleaved A/B.
const TRACE_WINDOW: Duration = Duration::from_millis(250);

/// Command-line arguments, checked where they enter.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured time per run.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => out.workload = value()?,
                "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(1..=600).contains(&out.seconds) {
                        return Err("--seconds must be 1..=600".into());
                    }
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace must be 0 or 1, not {v}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if out.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(out)
    }
}

/// Where a run is in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Discarded: caches, allocator and executor settle.
    Warmup,
    /// Measured; `traced` says whether this window records spans.
    Measure {
        /// Spans are recorded in this window.
        traced: bool,
    },
    /// Past the measured time.
    Done,
}

/// A run's op budget per lane: `warmup` discarded ops, then measured
/// ones, stopping anyway once `cap` has passed (a host far slower than
/// the one the counts were sized on). Ops are counted rather than timed
/// so every run of a seed issues the same ops, however fast the host.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    warmup: u64,
    total: u64,
    cap: Duration,
    windows: bool,
}

impl Clock {
    /// Starts now. With `windows`, measured ops alternate between
    /// untraced and traced windows in time; without, nothing is traced.
    pub fn new(warmup: u64, measure: u64, windows: bool, cap: Duration) -> Clock {
        Clock {
            start: Instant::now(),
            warmup,
            total: warmup + measure,
            cap,
            windows,
        }
    }

    /// The phase at `now`, for a lane that has issued `issued` ops.
    pub fn phase(&self, now: Instant, issued: u64) -> Phase {
        let t = now.saturating_duration_since(self.start);
        if issued >= self.total || t >= self.cap {
            return Phase::Done;
        }
        if issued < self.warmup {
            return Phase::Warmup;
        }
        let window = (t.as_nanos() / TRACE_WINDOW.as_nanos()) as u64;
        Phase::Measure {
            traced: self.windows && window % 2 == 1,
        }
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read / GET.
    Read,
    /// Write / PUT.
    Write,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Read => "op.read",
            Kind::Write => "op.write",
        }
    }
}

/// How an op ended.
#[derive(Debug)]
pub enum Check {
    /// Completed and matched the content model.
    Ok,
    /// The program returned an error: counts as failed.
    Error(String),
    /// Completed with the wrong bytes: failed, and the run is incorrect.
    Mismatch(String),
}

/// One op handed out by [`Lane::next`].
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Op id, unique in the run; spans of this op carry it.
    pub id: u64,
    /// Counts toward the measured figures.
    pub measured: bool,
    /// Spans are recorded for it.
    pub traced: bool,
}

/// Ops one lane ran.
#[derive(Default)]
pub struct OpLog {
    /// Read latencies (µs) of measured, untraced ops.
    pub read: Latencies,
    /// Write latencies (µs) of measured, untraced ops.
    pub write: Latencies,
    /// Latencies of measured ops in traced windows.
    pub traced: Latencies,
    /// Latencies of measured ops in untraced windows (every measured
    /// op when the run is not traced).
    pub untraced: Latencies,
    /// Bytes read / written by measured ops.
    pub read_bytes: u64,
    /// See `read_bytes`.
    pub write_bytes: u64,
    /// Every op issued, warm-up included.
    pub attempted: u64,
    /// Ops that returned an error or the wrong bytes.
    pub failed: u64,
    /// Ops whose bytes did not match the model.
    pub mismatches: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
    /// Start of the first measured op.
    pub first_start: Option<Instant>,
    /// Completion of the last measured op.
    pub last_end: Option<Instant>,
}

impl OpLog {
    /// Fold another lane's log into this one.
    pub fn merge(&mut self, o: OpLog) {
        self.read.extend(&o.read);
        self.write.extend(&o.write);
        self.traced.extend(&o.traced);
        self.untraced.extend(&o.untraced);
        self.read_bytes += o.read_bytes;
        self.write_bytes += o.write_bytes;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        for p in o.problems {
            note(&mut self.problems, p);
        }
        self.first_start = match (self.first_start, o.first_start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_end = self.last_end.max(o.last_end);
    }

    /// Seconds from the first measured op's start to the last one's end.
    pub fn measured_s(&self) -> f64 {
        match (self.first_start, self.last_end) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Measured ops (traced and untraced windows).
    pub fn measured(&self) -> usize {
        self.traced.len() + self.untraced.len()
    }
}

fn note(problems: &mut Vec<String>, p: String) {
    if problems.len() < 8 {
        problems.push(p);
    }
}

/// One load thread's closed loop: hands out op slots until the clock
/// runs out and records how each op ended.
pub struct Lane {
    /// Lane index (one per load thread).
    pub index: usize,
    clock: Clock,
    seq: u64,
    /// What the lane's ops did.
    pub log: OpLog,
    /// Spans recorded in traced windows.
    pub spans: SpanLog,
}

impl Lane {
    /// Lane `index` running on `clock`; spans count from `epoch`.
    pub fn new(index: usize, clock: Clock, epoch: Instant) -> Lane {
        Lane {
            index,
            clock,
            seq: 0,
            log: OpLog::default(),
            spans: SpanLog::new(epoch),
        }
    }

    /// The next op to run, or `None` once measured time is over.
    pub fn next(&mut self) -> Option<Slot> {
        let (measured, traced) = match self.clock.phase(Instant::now(), self.seq) {
            Phase::Warmup => (false, false),
            Phase::Measure { traced } => (true, traced),
            Phase::Done => return None,
        };
        self.seq += 1;
        Some(Slot {
            id: ((self.index as u64 + 1) << 40) | self.seq,
            measured,
            traced,
        })
    }

    /// Record an op of `kind` moving `bytes` that ran from `t0` to `t1`.
    pub fn done(&mut self, slot: Slot, kind: Kind, bytes: u64, t0: Instant, t1: Instant, c: Check) {
        let log = &mut self.log;
        log.attempted += 1;
        match c {
            Check::Ok => {}
            Check::Error(e) => {
                log.failed += 1;
                note(&mut log.problems, format!("op {:#x} failed: {e}", slot.id));
            }
            Check::Mismatch(e) => {
                log.failed += 1;
                log.mismatches += 1;
                note(
                    &mut log.problems,
                    format!("op {:#x} read wrong bytes: {e}", slot.id),
                );
            }
        }
        if !slot.measured {
            return;
        }
        let us = t1.duration_since(t0).as_nanos() as f64 / 1e3;
        log.first_start = log.first_start.or(Some(t0));
        log.last_end = log.last_end.max(Some(t1));
        match kind {
            Kind::Read => log.read_bytes += bytes,
            Kind::Write => log.write_bytes += bytes,
        }
        if slot.traced {
            log.traced.push(us);
            self.spans.record(kind.span(), slot.id, t0, t1);
            return;
        }
        log.untraced.push(us);
        match kind {
            Kind::Read => log.read.push(us),
            Kind::Write => log.write.push(us),
        }
    }
}

/// Run one closed loop per state on its own thread, all on `clock`.
/// Returns the lanes' merged op log and spans once every loop ends.
pub fn run_lanes<S: Send>(
    states: &mut [S],
    clock: Clock,
    epoch: Instant,
    body: impl Fn(&mut S, &mut Lane) + Sync,
) -> (OpLog, SpanLog) {
    std::thread::scope(|s| {
        let body = &body;
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, st)| {
                s.spawn(move || {
                    let mut lane = Lane::new(i, clock, epoch);
                    body(st, &mut lane);
                    lane
                })
            })
            .collect();
        let mut log = OpLog::default();
        let mut spans = SpanLog::new(epoch);
        for h in handles {
            let lane = h.join().expect("load thread panicked");
            log.merge(lane.log);
            spans.absorb(lane.spans);
        }
        (log, spans)
    })
}

/// The threaded cluster every threaded workload runs on: 8 data
/// providers, 2 metadata providers, memory backend, one executor shard
/// per core.
pub fn start_cluster() -> Cluster {
    ClusterBuilder::new()
        .data_providers(8)
        .meta_providers(2)
        .provider_capacity(1 << 40)
        .start()
}

/// Set-up is timed at least this many times per run (the measured
/// cluster plus fresh ones after measurement), and further until
/// [`SETUP_BUDGET_S`] of set-up time is spent or [`MAX_SETUPS`] are
/// taken; the median is reported.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET_S: f64 = 1.0;

/// Time `setup` again, tearing each result down with `teardown`, until
/// `samples` (which holds the measured cluster's set-up time) is long
/// enough by the rule above.
pub fn more_setups<T>(samples: &mut Vec<f64>, setup: impl Fn() -> T, teardown: impl Fn(T)) {
    while samples.len() < MIN_SETUPS
        || (samples.iter().sum::<f64>() < SETUP_BUDGET_S && samples.len() < MAX_SETUPS)
    {
        let t = std::time::Instant::now();
        let x = setup();
        samples.push(t.elapsed().as_secs_f64());
        teardown(x);
    }
}

/// Samples the process RSS every 50 ms on a thread of its own, keeping
/// the peak, until dropped. It reads `/proc/self/statm`, whose counters
/// the kernel keeps up to date, and not `ProcSampler`'s `smaps_rollup`,
/// whose read walks every page table under the mmap lock that the
/// measured threads' page faults and `mmap` calls also take.
pub struct RssPeak {
    stop: std::sync::Arc<AtomicBool>,
    peak: std::sync::Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RssPeak {
    /// Start sampling.
    pub fn start() -> RssPeak {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let peak = std::sync::Arc::new(AtomicU64::new(0));
        let (s, p) = (stop.clone(), peak.clone());
        let thread = std::thread::spawn(move || {
            let sample = || {
                if let Some((_, rss)) = std::fs::read_to_string("/proc/self/statm")
                    .ok()
                    .and_then(|t| parse_proc_statm(&t))
                {
                    p.fetch_max(rss, Ordering::Relaxed);
                }
            };
            while !s.load(Ordering::Relaxed) {
                sample();
                std::thread::sleep(Duration::from_millis(50));
            }
            sample();
        });
        RssPeak {
            stop,
            peak,
            thread: Some(thread),
        }
    }

    /// Stop sampling and return the peak RSS in MB.
    pub fn finish(mut self) -> f64 {
        self.halt();
        self.peak.load(Ordering::Relaxed) as f64 / 1e6
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RssPeak {
    fn drop(&mut self) {
        self.halt();
    }
}

/// CPU time the calling thread has used, in seconds (user + system,
/// at the kernel's 10 ms tick), or `None` without procfs.
pub fn thread_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    let f: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let ticks: u64 = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Page faults so far: `(minflt, majflt)`.
pub fn faults() -> (u64, u64) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_proc_stat(&t))
        .map_or((0, 0), |s| (s.minflt, s.majflt))
}

fn counter(s: &Snapshot, name: &str) -> f64 {
    s.counter_total(name).unwrap_or(0) as f64
}

fn hist(s: &Snapshot, name: &str) -> (f64, f64) {
    s.family(name)
        .fold((0.0, 0.0), |(n, sum), x| match &x.value {
            SampleValue::Histogram(h) => (n + h.count as f64, sum + h.sum),
            _ => (n, sum),
        })
}

fn gauge_max(s: &Snapshot, name: &str) -> f64 {
    s.family(name).fold(0.0, |m, x| match x.value {
        SampleValue::Gauge(g) => f64::max(m, g),
        _ => m,
    })
}

/// Per-layer figures read from the cluster's telemetry registry,
/// as the change between two snapshots bracketing `ops` measured ops.
pub fn telemetry_layers(
    before: &Snapshot,
    after: &Snapshot,
    ops: usize,
) -> BTreeMap<&'static str, f64> {
    let ops = ops.max(1) as f64;
    let d = |name: &str| counter(after, name) - counter(before, name);
    let (n0, s0) = hist(before, "runtime.dispatch_batch");
    let (n1, s1) = hist(after, "runtime.dispatch_batch");
    let (hits, misses) = (d("provider.cache_hits"), d("provider.cache_misses"));
    BTreeMap::from([
        ("executor.steals_per_op", d("runtime.steals") / ops),
        ("executor.parks_per_op", d("runtime.parks") / ops),
        (
            "executor.dispatch_batch_mean",
            if n1 > n0 { (s1 - s0) / (n1 - n0) } else { 0.0 },
        ),
        (
            "executor.mailbox_hwm_max",
            gauge_max(after, "runtime.mailbox_hwm"),
        ),
        ("client.rpc_retries", d("client.rpc_retries")),
        ("client.replica_walks", d("client.replica_walks")),
        ("client.reallocs", d("client.reallocs")),
        (
            "provider.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        (
            "meta.tree_nodes",
            after.gauge_total("meta.tree_nodes").unwrap_or(0.0),
        ),
    ])
}

/// Largest `vman.stalled_tickets` gauge in a snapshot.
pub fn stalled_tickets(s: &Snapshot) -> f64 {
    gauge_max(s, "vman.stalled_tickets")
}

/// A map of figures as a JSON object.
pub fn to_json(m: &BTreeMap<&'static str, f64>) -> Json {
    Json::Obj(
        m.iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse("--workload bulk --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "bulk".into(),
                seed: 9,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse("--seed 9").is_err(), "workload is required");
        assert!(parse("--workload bulk --trace 2").is_err());
        assert!(parse("--workload bulk --seconds 0").is_err());
        assert!(parse("--workload bulk --seed x").is_err());
        assert!(parse("--workload bulk --bogus 1").is_err());
        assert!(parse("--workload bulk --seed").is_err());
    }

    #[test]
    fn clock_counts_ops_and_alternates_windows() {
        let c = Clock::new(2, 3, false, Duration::from_secs(100));
        let now = c.start + Duration::from_secs(99);
        let phases: Vec<Phase> = (0..6).map(|n| c.phase(now, n)).collect();
        let m = Phase::Measure { traced: false };
        assert_eq!(phases, [Phase::Warmup, Phase::Warmup, m, m, m, Phase::Done]);
        assert_eq!(
            c.phase(now + Duration::from_secs(1), 3),
            Phase::Done,
            "capped"
        );
        let t = Clock::new(0, 10, true, Duration::from_secs(100));
        assert_eq!(
            t.phase(t.start + Duration::from_millis(100), 1),
            Phase::Measure { traced: false }
        );
        assert_eq!(
            t.phase(t.start + Duration::from_millis(400), 1),
            Phase::Measure { traced: true }
        );
    }
}
