//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Nothing inside the program is instrumented: a span covers one call
//! the benchmark makes to a layer's public function. Spans are kept in
//! memory (one log per load thread, merged at the end), carry the id of
//! the op they belong to, and are written out once the run is over.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Latencies;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer function, e.g. `ChunkStore::put`.
    pub name: &'static str,
    /// The op this call belongs to; calls replaying one op's inputs
    /// share its id.
    pub op: u64,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Spans are only kept up to this many per log, so a long run cannot
/// grow without bound; later ones are counted but dropped.
const MAX_SPANS: usize = 1 << 20;

/// An in-memory span log.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    /// Empty log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// An empty log on the same epoch.
    pub fn fresh(&self) -> SpanLog {
        SpanLog::new(self.epoch)
    }

    /// Record a call that ran from `start` to `end`.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            start_ns,
            dur_ns,
        });
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, op, start, Instant::now());
        out
    }

    /// Move every span of `other` into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        for s in other.spans {
            if self.spans.len() >= MAX_SPANS {
                self.dropped += 1;
            } else {
                self.spans.push(s);
            }
        }
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans dropped past the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Latencies {
        let mut out = Latencies::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(s.dur_ns as f64 / 1e3);
        }
        out
    }

    /// Median duration of the spans called `name`, microseconds (0 when
    /// there are none).
    pub fn p50_us(&self, name: &str) -> f64 {
        self.durations_us(name).pct(50.0)
    }

    /// Span count per name.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += 1;
        }
        out
    }

    /// Write the log as a Chrome trace (`chrome://tracing`, Perfetto):
    /// one complete event per span, `tid` = op id.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.render_chrome(&mut w)?;
        w.flush()
    }

    fn render_chrome(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(w, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}}}{sep}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )?;
        }
        writeln!(w, "], \"droppedSpans\": {}}}", self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_aggregate_by_name_and_write_valid_json() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        let x = a.time("layer::f", 1, || 40 + 2);
        assert_eq!(x, 42);
        a.time("layer::g", 1, || ());
        let mut b = SpanLog::new(epoch);
        b.time("layer::f", 2, || ());
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.counts().get("layer::f"), Some(&2));
        assert_eq!(a.durations_us("layer::f").len(), 2);

        let mut out = Vec::new();
        a.render_chrome(&mut out).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        match parsed.get("traceEvents") {
            Some(Json::Arr(ev)) => assert_eq!(ev.len(), 3),
            other => panic!("no events: {other:?}"),
        }
    }
}
