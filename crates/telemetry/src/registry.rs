//! The labeled metrics registry: `(name, labels)` → atomic cells.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default histogram bucket upper bounds (seconds-flavored: covers
/// sub-millisecond RPCs through multi-minute transfers).
pub(crate) const DEFAULT_BOUNDS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    120.0, 300.0,
];

type Key = (String, Vec<(String, String)>);

#[derive(Clone)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistCell>),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

/// A latency exemplar: the trace id of one observation that landed in a
/// bucket, so a slow percentile links straight to a dumpable trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// The exemplified observation's value.
    pub value: f64,
    /// Trace id of the request that produced it.
    pub trace_id: u64,
}

pub(crate) struct HistCell {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    /// Latest exemplar per bucket (incl. +Inf). Updated only on traced
    /// observations — rare relative to plain `observe` — so the mutex is
    /// off the hot path entirely.
    exemplars: Mutex<Vec<Option<Exemplar>>>,
}

impl HistCell {
    fn new(bounds: &[f64]) -> Self {
        HistCell {
            bounds: bounds.to_vec(),
            // One extra slot for the implicit +Inf bucket.
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            exemplars: Mutex::new(vec![None; bounds.len() + 1]),
        }
    }

    fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|b| *b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
    }

    /// Remember `trace_id` as the exemplar for the bucket `v` falls in
    /// (does not count the observation — pair with `observe` when the
    /// value was not already counted).
    fn attach(&self, v: f64, trace_id: u64) {
        if trace_id == 0 {
            return;
        }
        let idx = self.bounds.partition_point(|b| *b < v);
        let mut ex = self.exemplars.lock().expect("exemplar slots poisoned");
        ex[idx] = Some(Exemplar { value: v, trace_id });
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = 0u64;
        let mut buckets = Vec::with_capacity(self.bounds.len() + 1);
        for (i, b) in self.bounds.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            buckets.push((*b, cumulative));
        }
        cumulative += self.counts[self.bounds.len()].load(Ordering::Relaxed);
        buckets.push((f64::INFINITY, cumulative));
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            buckets,
            exemplars: self.exemplars.lock().expect("exemplar slots poisoned").clone(),
        }
    }
}

fn atomic_f64_add(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Monotone counter handle; cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Set-or-adjust gauge handle; cloning shares the underlying cell.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Replace the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adjust the value by `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        atomic_f64_add(&self.0, delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Bucketed histogram handle; cloning shares the underlying cell.
#[derive(Clone)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        self.0.observe(v);
    }

    /// Record one observation and remember `trace_id` as the exemplar of
    /// the bucket it lands in.
    pub fn observe_traced(&self, v: f64, trace_id: u64) {
        self.0.observe(v);
        self.0.attach(v, trace_id);
    }

    /// Attach an exemplar for an observation that was **already counted**
    /// via [`Histogram::observe`] (e.g. a request timed by generic
    /// instrumentation whose trace id only becomes known later). A
    /// `trace_id` of 0 is ignored.
    pub fn attach_exemplar(&self, v: f64, trace_id: u64) {
        self.0.attach(v, trace_id);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// A live, labeled metrics registry shared by every actor of a deployment.
///
/// Registration (`counter`/`gauge`/`histogram`) interns the `(name, labels)`
/// key under a mutex and hands back a lock-free handle; the one-shot
/// convenience methods (`inc`/`set`/`observe`) pay one mutex hold and one
/// key lookup per call; the threaded runtime's `Env::incr`/`Env::record`
/// use them, and hot paths that can keep a handle skip both. Nothing in
/// here touches clocks, RNGs, or event queues —
/// telemetry cannot perturb a deterministic schedule.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<HashMap<Key, Cell>>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> Key {
        let mut l: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        l.sort();
        (name.to_string(), l)
    }

    fn cell(&self, name: &str, labels: &[(&str, &str)], make: impl FnOnce() -> Cell) -> Cell {
        let mut inner = self.inner.lock().expect("telemetry registry poisoned");
        let cell = inner.entry(Self::key(name, labels)).or_insert_with(make);
        cell.clone()
    }

    /// Get-or-create a counter. Panics if `(name, labels)` is already
    /// registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.cell(name, labels, || Cell::Counter(Arc::new(AtomicU64::new(0)))) {
            Cell::Counter(c) => Counter(c),
            other => panic!("{name} already registered as {}", other.kind()),
        }
    }

    /// Get-or-create a gauge. Panics if `(name, labels)` is already
    /// registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.cell(name, labels, || Cell::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))) {
            Cell::Gauge(g) => Gauge(g),
            other => panic!("{name} already registered as {}", other.kind()),
        }
    }

    /// Get-or-create a histogram with the default (seconds-flavored)
    /// buckets. Panics if `(name, labels)` is already registered as a
    /// different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.cell(name, labels, || Cell::Histogram(Arc::new(HistCell::new(DEFAULT_BOUNDS)))) {
            Cell::Histogram(h) => Histogram(h),
            other => panic!("{name} already registered as {}", other.kind()),
        }
    }

    /// One-shot counter bump.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        self.counter(name, labels).inc(n);
    }

    /// One-shot gauge set.
    pub fn set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.gauge(name, labels).set(v);
    }

    /// Get-or-create a histogram with explicit bucket upper bounds (for
    /// count-flavored distributions like dispatch batch sizes where the
    /// seconds-flavored defaults are meaningless). If the `(name, labels)`
    /// key already exists as a histogram its original bounds are kept.
    pub fn histogram_with_bounds(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.cell(name, labels, || Cell::Histogram(Arc::new(HistCell::new(bounds)))) {
            Cell::Histogram(h) => Histogram(h),
            other => panic!("{name} already registered as {}", other.kind()),
        }
    }

    /// One-shot histogram observation.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.histogram(name, labels).observe(v);
    }

    /// One-shot exemplar attach (see [`Histogram::attach_exemplar`]).
    pub fn attach_exemplar(&self, name: &str, labels: &[(&str, &str)], v: f64, trace_id: u64) {
        self.histogram(name, labels).attach_exemplar(v, trace_id);
    }

    /// Structured point-in-time copy, sorted by `(name, labels)` for
    /// stable output.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("telemetry registry poisoned");
        let mut samples: Vec<Sample> = inner
            .iter()
            .map(|((name, labels), cell)| Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: match cell {
                    Cell::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => {
                        SampleValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                    }
                    Cell::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        drop(inner);
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { samples }
    }

    /// Render the current state in Prometheus text exposition format.
    pub fn render(&self) -> String {
        crate::expose::render_prometheus(&self.snapshot())
    }
}

/// One `(name, labels)` series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Dotted metric name as registered (e.g. `provider.cache_hits`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The observed value.
    pub value: SampleValue,
}

/// A sample's value, tagged by metric kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotone count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Bucketed distribution.
    Histogram(HistogramSnapshot),
}

/// Point-in-time copy of a histogram cell.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// `(upper_bound, cumulative_count)` pairs ending with `+Inf`.
    pub buckets: Vec<(f64, u64)>,
    /// Latest exemplar per bucket, aligned with `buckets`.
    pub exemplars: Vec<Option<Exemplar>>,
}

/// Structured registry snapshot: every sample, sorted by `(name, labels)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All samples.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        let mut want: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        want.sort();
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == want)
            .map(|s| &s.value)
    }

    /// Counter value for an exact `(name, labels)` key.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)? {
            SampleValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// Gauge value for an exact `(name, labels)` key.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.find(name, labels)? {
            SampleValue::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    /// Sum of a counter family across all label sets; `None` if the family
    /// does not exist at all.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        let mut seen = false;
        let mut total = 0u64;
        for s in &self.samples {
            if s.name == name {
                if let SampleValue::Counter(c) = &s.value {
                    seen = true;
                    total += c;
                }
            }
        }
        seen.then_some(total)
    }

    /// Sum of a gauge family across all label sets; `None` if absent.
    pub fn gauge_total(&self, name: &str) -> Option<f64> {
        let mut seen = false;
        let mut total = 0.0;
        for s in &self.samples {
            if s.name == name {
                if let SampleValue::Gauge(g) = &s.value {
                    seen = true;
                    total += g;
                }
            }
        }
        seen.then_some(total)
    }

    /// All samples of one family.
    pub fn family<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Sample> {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// Distinct metric family names, sorted.
    pub fn families(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.samples.iter().map(|s| s.name.as_str()).collect();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("client.rpc_retries", &[("node", "3")]);
        c.inc(2);
        reg.inc("client.rpc_retries", &[("node", "3")], 1);
        reg.set("pool.providers", &[], 16.0);
        let h = reg.histogram("gateway.op_seconds", &[("op", "get")]);
        h.observe(0.004);
        h.observe(0.2);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("client.rpc_retries", &[("node", "3")]), Some(3));
        assert_eq!(snap.gauge("pool.providers", &[]), Some(16.0));
        match snap.find("gateway.op_seconds", &[("op", "get")]).unwrap() {
            SampleValue::Histogram(hs) => {
                assert_eq!(hs.count, 2);
                assert!((hs.sum - 0.204).abs() < 1e-12);
                let inf = hs.buckets.last().unwrap();
                assert!(inf.0.is_infinite());
                assert_eq!(inf.1, 2);
                // Buckets are cumulative and monotone.
                assert!(hs.buckets.windows(2).all(|w| w[0].1 <= w[1].1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exemplars_land_in_the_right_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("gateway.op_seconds", &[("op", "get")]);
        h.observe(0.0004);
        h.observe_traced(0.03, 0xabcd);
        // Attach-only must not change the count.
        h.attach_exemplar(0.0004, 0x1111);
        reg.attach_exemplar("gateway.op_seconds", &[("op", "get")], 999.0, 0x2222);

        let snap = reg.snapshot();
        match snap.find("gateway.op_seconds", &[("op", "get")]).unwrap() {
            SampleValue::Histogram(hs) => {
                assert_eq!(hs.count, 2, "attach_exemplar must not count");
                assert_eq!(hs.exemplars.len(), hs.buckets.len());
                // 0.03 → the le=0.05 bucket; 0.0004 → le=0.001; 999 → +Inf.
                let at = |bound: f64| {
                    let i = hs.buckets.iter().position(|(b, _)| *b == bound).unwrap();
                    hs.exemplars[i].unwrap()
                };
                assert_eq!(at(0.05).trace_id, 0xabcd);
                assert_eq!(at(0.001).trace_id, 0x1111);
                let inf = hs.exemplars.last().unwrap().unwrap();
                assert_eq!(inf.trace_id, 0x2222);
                assert_eq!(inf.value, 999.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn custom_bounds_histograms_bucket_counts() {
        let reg = Registry::new();
        let h = reg.histogram_with_bounds("runtime.dispatch_batch", &[("shard", "0")], &[1.0, 4.0]);
        h.observe(1.0);
        h.observe(3.0);
        h.observe(100.0);
        let snap = reg.snapshot();
        match snap.find("runtime.dispatch_batch", &[("shard", "0")]).unwrap() {
            SampleValue::Histogram(hs) => {
                assert_eq!(hs.buckets, vec![(1.0, 1), (4.0, 2), (f64::INFINITY, 3)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_trace_ids_never_become_exemplars() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[]);
        h.observe_traced(0.01, 0);
        let snap = reg.snapshot();
        match snap.find("lat", &[]).unwrap() {
            SampleValue::Histogram(hs) => {
                assert!(hs.exemplars.iter().all(Option::is_none));
                assert_eq!(hs.count, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        reg.inc("x", &[("a", "1"), ("b", "2")], 1);
        reg.inc("x", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(reg.snapshot().counter("x", &[("a", "1"), ("b", "2")]), Some(2));
    }

    #[test]
    fn totals_sum_across_label_sets() {
        let reg = Registry::new();
        reg.inc("reads", &[("node", "1")], 4);
        reg.inc("reads", &[("node", "2")], 6);
        reg.set("fill", &[("node", "1")], 0.25);
        reg.set("fill", &[("node", "2")], 0.75);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("reads"), Some(10));
        assert_eq!(snap.gauge_total("fill"), Some(1.0));
        assert_eq!(snap.counter_total("missing"), None);
        assert_eq!(snap.families(), vec!["fill", "reads"]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_are_programming_errors() {
        let reg = Registry::new();
        reg.inc("dual", &[], 1);
        reg.set("dual", &[], 1.0);
    }

    #[test]
    fn handles_are_shared_across_threads() {
        let reg = Arc::new(Registry::new());
        let mut joins = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            joins.push(std::thread::spawn(move || {
                let c = reg.counter("spins", &[]);
                let g = reg.gauge("level", &[]);
                let h = reg.histogram("lat", &[]);
                for _ in 0..1000 {
                    c.inc(1);
                    g.add(1.0);
                    h.observe(0.01);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("spins", &[]), Some(4000));
        assert_eq!(snap.gauge("level", &[]), Some(4000.0));
        match snap.find("lat", &[]).unwrap() {
            SampleValue::Histogram(h) => assert_eq!(h.count, 4000),
            other => panic!("{other:?}"),
        }
    }
}
