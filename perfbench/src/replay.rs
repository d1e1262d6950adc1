//! Replays: the traced run feeds a workload's own recorded inputs to
//! the public functions of each lower layer, one span per call, so each
//! layer's cost is measured on exactly the work the ops gave it.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use bytes::Bytes;
use sads_blob::meta::{BaseSnapshot, MetaStore, NodeRef, PageSource, TreeBuilder, TreeReader};
use sads_blob::provider::ChunkStore;
use sads_blob::runtime::threaded::ClientHandle;
use sads_blob::storage::crc32c;
use sads_blob::{
    BlobId, BlobSpec, ChunkDescriptor, ChunkKey, PageInterval, Payload, VersionId, WriteKind,
};
use sads_sim::{MetricSink, NodeId, SimTime};
use sads_telemetry::Registry;

use crate::trace::SpanLog;

/// One recorded op input.
#[derive(Clone)]
pub enum Input {
    /// `data` written at byte `offset`.
    Write {
        /// Op id.
        op: u64,
        /// Byte offset (page-aligned).
        offset: u64,
        /// The bytes written.
        data: Bytes,
    },
    /// A read at byte `offset` that returned `data` (checked against the
    /// content model before it was recorded).
    Read {
        /// Op id.
        op: u64,
        /// Byte offset (page-aligned).
        offset: u64,
        /// The bytes read.
        data: Bytes,
    },
}

/// The inputs recorded against one blob, in the order they were issued.
pub struct Trail {
    /// Blob page size.
    pub page_size: u64,
    /// Blob replication degree.
    pub replication: u32,
    /// Blob length (bytes) before the first recorded input.
    pub base_len: u64,
    /// Recorded inputs.
    pub inputs: Vec<Input>,
}

impl Trail {
    /// An empty trail for a blob of `base_len` bytes.
    pub fn new(page_size: u64, replication: u32, base_len: u64) -> Trail {
        Trail {
            page_size,
            replication,
            base_len,
            inputs: Vec::new(),
        }
    }
}

/// Per-layer figures a replay produced.
pub type Figures = BTreeMap<&'static str, f64>;

fn pages(data: &Bytes, page: u64) -> impl Iterator<Item = (u64, Bytes)> + '_ {
    (0..data.len() as u64 / page).map(move |i| {
        (
            i,
            data.slice((i * page) as usize..((i + 1) * page) as usize),
        )
    })
}

/// CRC-32C over every written page, then a bench-owned [`ChunkStore`]
/// taking every written page and serving every read page.
pub fn storage(trails: &[Trail], spans: &mut SpanLog) -> Figures {
    let store = ChunkStore::new(u64::MAX);
    let now = SimTime(0);
    let (mut crc_bytes, mut crc_ns) = (0u64, 0u128);
    for (b, t) in trails.iter().enumerate() {
        let blob = BlobId(b as u64 + 1);
        // page → version last stored, so reads fetch what was written.
        let mut latest: HashMap<u64, VersionId> = HashMap::new();
        let mut version = 0u64;
        for input in &t.inputs {
            match input {
                Input::Write { op, offset, data } => {
                    version += 1;
                    for (i, page) in pages(data, t.page_size) {
                        let start = Instant::now();
                        std::hint::black_box(crc32c(&page));
                        let end = Instant::now();
                        spans.record("crc32c", *op, start, end);
                        crc_bytes += page.len() as u64;
                        crc_ns += end.duration_since(start).as_nanos();
                        let p = offset / t.page_size + i;
                        let key = ChunkKey {
                            blob,
                            version: VersionId(version),
                            page: p,
                        };
                        spans
                            .time("ChunkStore::put", *op, || {
                                store.put(key, Payload::Data(page), now)
                            })
                            .expect("bench store has room");
                        latest.insert(p, VersionId(version));
                    }
                }
                Input::Read { op, offset, data } => {
                    for (i, page) in pages(data, t.page_size) {
                        let p = offset / t.page_size + i;
                        // A page written before recording began: store the
                        // bytes the read returned, untimed.
                        let v = *latest.entry(p).or_insert_with(|| {
                            let key = ChunkKey {
                                blob,
                                version: VersionId(0),
                                page: p,
                            };
                            store
                                .put(key, Payload::Data(page.clone()), now)
                                .expect("room");
                            VersionId(0)
                        });
                        let key = ChunkKey {
                            blob,
                            version: v,
                            page: p,
                        };
                        let got = spans.time("ChunkStore::get", *op, || store.get(&key, now));
                        assert!(got.is_some(), "replayed chunk {key:?} missing");
                    }
                }
            }
        }
    }
    Figures::from([
        (
            "storage.crc32c_GBps",
            if crc_ns > 0 {
                crc_bytes as f64 / crc_ns as f64
            } else {
                0.0
            },
        ),
        ("provider.put_us_per_page", spans.p50_us("ChunkStore::put")),
        ("provider.get_us_per_page", spans.p50_us("ChunkStore::get")),
    ])
}

/// Build one version's tree into `store`; returns (root, nodes written).
fn build(
    store: &mut MetaStore,
    blob: BlobId,
    version: VersionId,
    interval: PageInterval,
    page_size: u64,
    new_size: u64,
    base: BaseSnapshot,
) -> (NodeRef, usize) {
    let mut b = TreeBuilder::new(
        blob,
        version,
        interval,
        page_size,
        new_size,
        base,
        Vec::new(),
    );
    while !b.is_ready() {
        for k in b.needed_fetches() {
            b.supply(k, store.get(&k).expect("replayed metadata node present"));
        }
    }
    let chunks: Vec<ChunkDescriptor> = (interval.start..interval.end())
        .map(|page| ChunkDescriptor {
            key: ChunkKey {
                blob,
                version,
                page,
            },
            replicas: vec![NodeId(0)],
            size: page_size,
        })
        .collect();
    let (nodes, root) = b.build(&chunks);
    let n = nodes.len();
    for (k, node) in nodes {
        store.put(k, node);
    }
    (root, n)
}

/// Every write through a [`TreeBuilder`] into a bench-owned
/// [`MetaStore`], and every read through a [`TreeReader`] at the version
/// it read (the latest at that point). The blob's earlier contents are
/// laid down first, untimed, as one write.
pub fn metadata(trails: &[Trail], spans: &mut SpanLog) -> Figures {
    let mut store = MetaStore::new();
    let (mut writes, mut nodes, mut reads, mut rounds) = (0u64, 0u64, 0u64, 0u64);
    for (b, t) in trails.iter().enumerate() {
        let blob = BlobId(b as u64 + 1);
        let ps = t.page_size;
        let mut base = BaseSnapshot {
            version: VersionId(0),
            size: 0,
            root: None,
        };
        if t.base_len > 0 {
            let interval = PageInterval::new(0, t.base_len / ps);
            let (root, _) = build(
                &mut store,
                blob,
                VersionId(1),
                interval,
                ps,
                t.base_len,
                base,
            );
            base = BaseSnapshot {
                version: VersionId(1),
                size: t.base_len,
                root: Some(root),
            };
        }
        for input in &t.inputs {
            match input {
                Input::Write { op, offset, data } => {
                    let v = VersionId(base.version.0 + 1);
                    let interval = PageInterval::new(offset / ps, data.len() as u64 / ps);
                    let size = base.size.max(offset + data.len() as u64);
                    let (root, n) = spans.time("TreeBuilder", *op, || {
                        build(&mut store, blob, v, interval, ps, size, base)
                    });
                    base = BaseSnapshot {
                        version: v,
                        size,
                        root: Some(root),
                    };
                    writes += 1;
                    nodes += n as u64;
                }
                Input::Read { op, offset, data } => {
                    let query = PageInterval::new(offset / ps, data.len() as u64 / ps);
                    let (r, sources) = spans.time("TreeReader", *op, || {
                        let mut reader = TreeReader::new(blob, base.root, query);
                        let mut r = 0;
                        while !reader.is_done() {
                            r += 1;
                            for k in reader.needed_fetches() {
                                reader.supply(k, store.get(&k).expect("replayed node present"));
                            }
                        }
                        (r, reader.into_sources())
                    });
                    assert!(
                        sources.iter().all(|s| matches!(s, PageSource::Chunk(_))),
                        "replayed read hit a hole"
                    );
                    reads += 1;
                    rounds += r;
                }
            }
        }
    }
    Figures::from([
        ("meta.build_us", spans.p50_us("TreeBuilder")),
        (
            "meta.nodes_per_write",
            if writes > 0 {
                nodes as f64 / writes as f64
            } else {
                0.0
            },
        ),
        ("meta.descent_us", spans.p50_us("TreeReader")),
        (
            "meta.fetch_rounds_per_read",
            if reads > 0 {
                rounds as f64 / reads as f64
            } else {
                0.0
            },
        ),
    ])
}

/// Every recorded write through a stream write handle
/// (`open_write_stream` / `feed` / `commit`) into a blob of its own, each
/// read back through a stream read handle (`open_read_stream` / `next` /
/// `close`) and compared with what was written. Returns the figures and
/// the number of mismatches.
pub fn stream(client: &ClientHandle, trails: &[Trail], spans: &mut SpanLog) -> (Figures, u64) {
    let mut bad = 0;
    for t in trails {
        let spec = BlobSpec {
            page_size: t.page_size,
            replication: t.replication,
        };
        let blob = client.create(spec).expect("create replay blob");
        for input in &t.inputs {
            let Input::Write { op, offset, data } = input else {
                continue;
            };
            let len = data.len() as u64;
            let put = spans.time("BlobWriteHandle", *op, || {
                let mut h = client.open_write_stream(blob, WriteKind::At(*offset), len, None)?;
                h.feed(data.clone())?;
                h.commit()
            });
            let Ok(version) = put else {
                bad += 1;
                continue;
            };
            let got = spans.time("BlobReadHandle", *op, || {
                let mut h = client.open_read_stream(blob, Some(version), *offset, len, None)?;
                let mut out = Vec::with_capacity(len as usize);
                while let Some(part) = h.next()? {
                    out.extend_from_slice(&part);
                }
                h.close()?;
                Ok::<_, sads_blob::BlobError>(out)
            });
            if !matches!(got, Ok(ref b) if b[..] == data[..]) {
                bad += 1;
            }
        }
    }
    let figures = Figures::from([
        ("stream.put_us", spans.p50_us("BlobWriteHandle")),
        ("stream.get_us", spans.p50_us("BlobReadHandle")),
    ]);
    (figures, bad)
}

/// One metric record as the threaded runtime makes it for every
/// `Env::record`: a [`MetricSink::record`] plus a `node`-labelled
/// registry update, the label built per call. Runs over the workload's
/// own recorded metric names, `calls` times; returns
/// `telemetry.record_ns`.
pub fn telemetry(names: &[String], calls: usize, op: u64, spans: &mut SpanLog) -> Figures {
    let reg = Registry::new();
    let mut sink = MetricSink::new();
    let fallback = ["client.op_seconds".to_string()];
    let names = if names.is_empty() {
        &fallback[..]
    } else {
        names
    };
    let mut ns = crate::stats::Latencies::default();
    for i in 0..calls {
        let name = &names[i % names.len()];
        let value = i as f64;
        let start = Instant::now();
        sink.record(name, SimTime(i as u64), value);
        reg.set(name, &[("node", (i % 16).to_string().as_str())], value);
        let end = Instant::now();
        spans.record("MetricSink::record+Registry::set", op, start, end);
        ns.push(end.duration_since(start).as_nanos() as f64);
    }
    Figures::from([("telemetry.record_ns", ns.pct(50.0))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Pool;

    #[test]
    fn replays_cover_every_input() {
        let pool = Pool::new(1, 1 << 16);
        let mut t = Trail::new(1024, 1, 8 * 1024);
        t.inputs.push(Input::Write {
            op: 1,
            offset: 2048,
            data: pool.slice(0, 2048),
        });
        t.inputs.push(Input::Read {
            op: 2,
            offset: 2048,
            data: pool.slice(0, 2048),
        });
        t.inputs.push(Input::Read {
            op: 3,
            offset: 0,
            data: pool.slice(4096, 1024),
        });
        t.inputs.push(Input::Write {
            op: 4,
            offset: 8 * 1024,
            data: pool.slice(64, 1024),
        });
        let mut spans = SpanLog::new(Instant::now());
        let s = storage(std::slice::from_ref(&t), &mut spans);
        assert_eq!(spans.counts().get("crc32c"), Some(&3));
        assert_eq!(spans.counts().get("ChunkStore::put"), Some(&3));
        assert_eq!(spans.counts().get("ChunkStore::get"), Some(&3));
        assert!(s["storage.crc32c_GBps"] > 0.0);
        let m = metadata(std::slice::from_ref(&t), &mut spans);
        assert_eq!(spans.counts().get("TreeBuilder"), Some(&2));
        assert_eq!(spans.counts().get("TreeReader"), Some(&2));
        assert!(m["meta.nodes_per_write"] >= 2.0);
        assert!(m["meta.fetch_rounds_per_read"] >= 1.0);
        let f = telemetry(&[], 10, 9, &mut spans);
        assert_eq!(
            spans.counts().get("MetricSink::record+Registry::set"),
            Some(&10)
        );
        assert!(f["telemetry.record_ns"] > 0.0);
    }
}
