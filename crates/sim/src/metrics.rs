//! Lightweight metric recording for simulations.
//!
//! Experiments need time series ("average client throughput over time"),
//! counters ("chunks written") and distributions ("detection delay").
//! [`MetricSink`] collects all three keyed by a static-ish metric name and
//! turns them into CSV rows for the experiment harness.
//!
//! Internally names are interned to dense ids on first use, so the hot
//! path (`incr`/`record`, called per simulated event) is one hash lookup
//! plus a `Vec` index — no allocation after a name's first use.
//! Report-time accessors sort by name, so output stays deterministic
//! regardless of interning order.

use std::collections::HashMap;

use crate::time::SimTime;

/// One `(time, value)` observation of a time-series metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the observation was made.
    pub at: SimTime,
    /// Observed value.
    pub value: f64,
}

/// Collects counters, gauges (time series) and raw distributions.
///
/// Names are free-form and interned on first use; counters and series of
/// the same name share one id.
#[derive(Debug, Default)]
pub struct MetricSink {
    index: HashMap<String, usize>,
    names: Vec<String>,
    /// Id-indexed counter values; `counter_set` marks ids whose counter
    /// was actually incremented (so `counter_names` does not report ids
    /// only ever used as series, matching the pre-interning behaviour).
    counters: Vec<u64>,
    counter_set: Vec<bool>,
    series: Vec<Vec<Sample>>,
}

impl MetricSink {
    /// Create an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dense id of `name`, assigned on first use.
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len();
        self.index.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        self.counters.push(0);
        self.counter_set.push(false);
        self.series.push(Vec::new());
        id
    }

    /// Add `delta` to the named counter.
    pub fn incr(&mut self, name: &str, delta: u64) {
        let id = self.intern(name);
        self.counters[id] += delta;
        self.counter_set[id] = true;
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.index.get(name).map(|&id| self.counters[id]).unwrap_or(0)
    }

    /// Append an observation to the named time series.
    pub fn record(&mut self, name: &str, at: SimTime, value: f64) {
        let id = self.intern(name);
        self.series[id].push(Sample { at, value });
    }

    /// The full series recorded under `name` (empty slice if absent).
    pub fn series(&self, name: &str) -> &[Sample] {
        self.index.get(name).map(|&id| self.series[id].as_slice()).unwrap_or(&[])
    }

    /// Names of all recorded series, sorted.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        let mut v: Vec<&str> = self
            .names
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.series[*i].is_empty())
            .map(|(_, n)| n.as_str())
            .collect();
        v.sort_unstable();
        v.into_iter()
    }

    /// Names of all counters, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        let mut v: Vec<&str> = self
            .names
            .iter()
            .enumerate()
            .filter(|(i, _)| self.counter_set[*i])
            .map(|(_, n)| n.as_str())
            .collect();
        v.sort_unstable();
        v.into_iter()
    }

    /// Mean of a series' values, or `None` if empty.
    pub fn mean(&self, name: &str) -> Option<f64> {
        let s = self.series(name);
        if s.is_empty() {
            return None;
        }
        Some(s.iter().map(|x| x.value).sum::<f64>() / s.len() as f64)
    }

    /// Minimum and maximum of a series' values, or `None` if empty.
    pub fn min_max(&self, name: &str) -> Option<(f64, f64)> {
        let s = self.series(name);
        if s.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for x in s {
            lo = lo.min(x.value);
            hi = hi.max(x.value);
        }
        Some((lo, hi))
    }

    /// `p`-th percentile (0..=100) of a series' values, by nearest-rank.
    pub fn percentile(&self, name: &str, p: f64) -> Option<f64> {
        let s = self.series(name);
        if s.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = s.iter().map(|x| x.value).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
        Some(v[rank.min(v.len() - 1)])
    }

    /// Bucket a series into fixed-width time bins and average values inside
    /// each bin. Useful for turning bursty per-event samples into a smooth
    /// timeline. Returns `(bin_start_secs, mean_value)` pairs; empty bins
    /// are skipped.
    pub fn binned_mean(&self, name: &str, bin_secs: f64) -> Vec<(f64, f64)> {
        let s = self.series(name);
        let mut bins: std::collections::BTreeMap<u64, (f64, u64)> =
            std::collections::BTreeMap::new();
        for x in s {
            let b = (x.at.as_secs_f64() / bin_secs) as u64;
            let e = bins.entry(b).or_insert((0.0, 0));
            e.0 += x.value;
            e.1 += 1;
        }
        bins.into_iter()
            .map(|(b, (sum, n))| (b as f64 * bin_secs, sum / n as f64))
            .collect()
    }

    /// Render a series as CSV with a header; times in seconds.
    pub fn series_csv(&self, name: &str) -> String {
        let mut out = String::from("time_s,value\n");
        for s in self.series(name) {
            out.push_str(&format!("{:.6},{}\n", s.at.as_secs_f64(), s.value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn counters_accumulate() {
        let mut m = MetricSink::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x", 2);
        m.incr("x", 3);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter_names().collect::<Vec<_>>(), vec!["x"]);
    }

    #[test]
    fn series_statistics() {
        let mut m = MetricSink::new();
        for (i, v) in [10.0, 20.0, 30.0, 40.0].iter().enumerate() {
            m.record("tp", t(i as u64), *v);
        }
        assert_eq!(m.mean("tp"), Some(25.0));
        assert_eq!(m.min_max("tp"), Some((10.0, 40.0)));
        assert_eq!(m.percentile("tp", 0.0), Some(10.0));
        assert_eq!(m.percentile("tp", 100.0), Some(40.0));
        assert_eq!(m.mean("absent"), None);
    }

    #[test]
    fn binned_mean_averages_within_bins() {
        let mut m = MetricSink::new();
        m.record("tp", t(0), 10.0);
        m.record("tp", t(1), 20.0);
        m.record("tp", t(5), 50.0);
        let bins = m.binned_mean("tp", 2.0);
        assert_eq!(bins, vec![(0.0, 15.0), (4.0, 50.0)]);
    }

    #[test]
    fn csv_rendering() {
        let mut m = MetricSink::new();
        m.record("s", t(1), 3.5);
        let csv = m.series_csv("s");
        assert!(csv.starts_with("time_s,value\n"));
        assert!(csv.contains("1.000000,3.5"));
    }

    #[test]
    fn names_share_one_slot_and_report_sorted() {
        let mut m = MetricSink::new();
        m.incr("hits", 4);
        m.incr("hits", 1);
        m.record("lat", t(1), 2.0);
        m.record("lat", t(2), 4.0);
        assert_eq!(m.counter("hits"), 5);
        assert_eq!(m.series("lat").len(), 2);
        // A series-only name does not appear among counters…
        assert_eq!(m.counter_names().collect::<Vec<_>>(), vec!["hits"]);
        // …and names sort in report output regardless of intern order.
        assert_eq!(m.series_names().collect::<Vec<_>>(), vec!["lat"]);
        let mut m2 = MetricSink::new();
        m2.record("zz", t(0), 0.0);
        m2.record("aa", t(0), 0.0);
        assert_eq!(m2.series_names().collect::<Vec<_>>(), vec!["aa", "zz"]);
    }
}
