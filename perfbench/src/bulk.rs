//! `bulk`: each of two clients appends 4 MiB ops (16 pages of 256 KiB,
//! replication 1) to its own blob, then reads random ranges it wrote
//! back. Time goes to the chunk store, CRC-32C and multi-page read
//! assembly; metadata does one descent per 16 pages.

use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sads_blob::runtime::threaded::{ClientHandle, Cluster};
use sads_blob::{BlobId, BlobSpec, ClientId, ClientOp, OpOutput, Payload, WriteKind};

use crate::harness::{
    more_setups, run_lanes, start_cluster, Check, Clock, Kind, Lane, CAP_FACTOR, LOAD_THREADS,
};
use crate::json::Json;
use crate::model::{Pool, SlotModel};
use crate::replay::{Input, Trail};
use crate::report::Outcome;
use crate::stats::Latencies;
use crate::threaded::{
    attribution, latency_figures, replay_layers, settle, setup_figure, Probe, Shape,
};

const PAGE: u64 = 256 * 1024;
const OP: u64 = 16 * PAGE;
/// 64 MiB of seeded bytes; every payload is a slice of it.
const POOL: usize = 64 << 20;
/// Measured appends and reads per lane for each second of `--seconds`
/// (sized so a run measures about that long on a 2-core host), discarded
/// ones before each stage, and the appends that fill a blob in set-up.
const APPENDS_PER_SECOND: u64 = 160;
const READS_PER_SECOND: u64 = 200;
const WARM_APPENDS: u64 = 32;
const WARM_READS: u64 = 64;
const FILL_APPENDS: u64 = 32;
/// Recorded inputs per lane and stage, for the traced run's replays.
const TRAIL_OPS: usize = 48;
/// Window over which the write p50 is tracked, to show the bimodal
/// append latency rather than average it away.
const MODE_WINDOW: Duration = Duration::from_millis(500);

struct State {
    client: ClientHandle,
    blob: BlobId,
    model: SlotModel,
    rng: SmallRng,
    writes: Trail,
    reads: Trail,
    /// `(seconds since the run began, µs)` of measured writes.
    timeline: Vec<(f64, f64)>,
}

/// Start the cluster, create one blob per client and fill each with
/// [`FILL_APPENDS`] appends (the two clients in step).
fn setup(pool: &Pool, seed: u64) -> (Cluster, Vec<State>) {
    let mut cluster = start_cluster();
    let mut states: Vec<State> = (0..LOAD_THREADS)
        .map(|i| {
            let client = cluster.client(ClientId(100 + i as u64));
            let blob = client
                .create(BlobSpec {
                    page_size: PAGE,
                    replication: 1,
                })
                .expect("create blob");
            State {
                client,
                blob,
                model: SlotModel::new(pool.clone(), OP as usize),
                rng: SmallRng::seed_from_u64(seed ^ (0xb01c << 8) ^ i as u64),
                writes: Trail::new(PAGE, 1, 0),
                reads: Trail::new(PAGE, 1, 0),
                timeline: Vec::new(),
            }
        })
        .collect();
    for _ in 0..FILL_APPENDS {
        let tickets: Vec<_> = states
            .iter_mut()
            .map(|st| {
                let off = pool.pick(&mut st.rng, OP as usize);
                st.model.push(off);
                st.client
                    .submit_append(st.blob, pool.slice(off, OP as usize))
            })
            .collect();
        for t in tickets {
            t.wait().expect("fill append");
        }
    }
    (cluster, states)
}

fn append(st: &mut State, lane: &mut Lane, pool: &Pool, epoch: Instant) {
    while let Some(slot) = lane.next() {
        let off = pool.pick(&mut st.rng, OP as usize);
        let data = pool.slice(off, OP as usize);
        let op = ClientOp::Write {
            blob: st.blob,
            kind: WriteKind::Append,
            data: Payload::Data(data.clone()),
        };
        let t0 = Instant::now();
        let ticket = if slot.traced {
            lane.spans.time("ClientHandle::submit", slot.id, || {
                st.client.submit(op, None)
            })
        } else {
            st.client.submit(op, None)
        };
        let res = ticket.wait();
        let t1 = Instant::now();
        let expect_at = st.model.len() as u64 * OP;
        let check = match res {
            Ok(OpOutput::Written { offset, .. }) if offset == expect_at => {
                st.model.push(off);
                Check::Ok
            }
            Ok(OpOutput::Written { offset, .. }) => {
                Check::Mismatch(format!("append landed at {offset}, expected {expect_at}"))
            }
            Ok(other) => Check::Error(format!("unexpected output {other:?}")),
            Err(e) => Check::Error(e.to_string()),
        };
        let ok = matches!(check, Check::Ok);
        if ok && slot.measured && !slot.traced {
            let at = t0.saturating_duration_since(epoch).as_secs_f64();
            st.timeline
                .push((at, t1.duration_since(t0).as_nanos() as f64 / 1e3));
        }
        if ok && slot.traced && st.writes.inputs.len() < TRAIL_OPS {
            if st.writes.inputs.is_empty() {
                st.writes.base_len = expect_at;
            }
            st.writes.inputs.push(Input::Write {
                op: slot.id,
                offset: expect_at,
                data,
            });
        }
        lane.done(slot, Kind::Write, OP, t0, t1, check);
    }
}

fn read_back(st: &mut State, lane: &mut Lane) {
    st.reads.base_len = st.model.len() as u64 * OP;
    while let Some(slot) = lane.next() {
        let i = st.rng.random_range(0..st.model.len());
        let op = ClientOp::Read {
            blob: st.blob,
            version: None,
            offset: i as u64 * OP,
            len: OP,
        };
        let t0 = Instant::now();
        let ticket = if slot.traced {
            lane.spans.time("ClientHandle::submit", slot.id, || {
                st.client.submit(op, None)
            })
        } else {
            st.client.submit(op, None)
        };
        let res = ticket.wait();
        let t1 = Instant::now();
        let check = match res {
            Ok(OpOutput::Read {
                data: Payload::Data(b),
                ..
            }) if st.model.check(i, &b) => Check::Ok,
            Ok(OpOutput::Read { .. }) => {
                Check::Mismatch(format!("range {i} differs from the model"))
            }
            Ok(other) => Check::Error(format!("unexpected output {other:?}")),
            Err(e) => Check::Error(e.to_string()),
        };
        if matches!(check, Check::Ok) && slot.traced && st.reads.inputs.len() < TRAIL_OPS {
            let data: Bytes = st.model.expected(i);
            st.reads.inputs.push(Input::Read {
                op: slot.id,
                offset: i as u64 * OP,
                data,
            });
        }
        lane.done(slot, Kind::Read, OP, t0, t1, check);
    }
}

/// p50 of the write latencies in each [`MODE_WINDOW`] of measured time.
fn window_p50s(timeline: &[(f64, f64)]) -> Vec<f64> {
    let w = MODE_WINDOW.as_secs_f64();
    let mut by: std::collections::BTreeMap<u64, Latencies> = Default::default();
    for &(at, us) in timeline {
        by.entry((at / w) as u64).or_default().push(us);
    }
    by.into_values()
        .filter(|l| l.len() >= 20)
        .map(|mut l| l.pct(50.0))
        .collect()
}

/// Run `bulk`: a fixed number of appends, then a fixed number of reads,
/// both scaled by `seconds`.
pub fn run(seed: u64, seconds: u64, trace: bool, epoch: Instant) -> Outcome {
    let pool = Pool::new(seed, POOL);
    let mut o = Outcome::default();
    let t = Instant::now();
    let (cluster, mut states) = setup(&pool, seed);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    o.executor_shards = cluster.executor_shards();

    let probe = Probe::start(&cluster);
    // Ops are counted, not timed: the read stage always faces a blob of
    // the same size, and the op mix is the same, however fast the host.
    let cap = Duration::from_secs(seconds) * CAP_FACTOR;
    let wclock = Clock::new(WARM_APPENDS, APPENDS_PER_SECOND * seconds, trace, cap);
    let (wlog, wspans) = run_lanes(&mut states, wclock, epoch, |st, lane| {
        append(st, lane, &pool, epoch)
    });
    let w_s = wlog.measured_s();
    let rclock = Clock::new(WARM_READS, READS_PER_SECOND * seconds, trace, cap);
    let (rlog, rspans) = run_lanes(&mut states, rclock, epoch, read_back);
    let r_s = rlog.measured_s();
    let (w_ops, r_ops) = (wlog.measured(), rlog.measured());
    let mut log = wlog;
    log.merge(rlog);
    let mut spans = wspans;
    spans.absorb(rspans);
    let v = &mut o.values;
    v.insert("ops_per_s", (w_ops + r_ops) as f64 / (w_s + r_s));
    v.insert("write_MBps", w_ops as f64 * OP as f64 / 1e6 / w_s);
    v.insert("read_MBps", r_ops as f64 * OP as f64 / 1e6 / r_s);
    let latency = latency_figures(&mut log, v);
    let names = probe.finish(&cluster, log.attempted, v);
    let timeline: Vec<(f64, f64)> = states
        .iter()
        .flat_map(|s| s.timeline.iter().copied())
        .collect();
    let modes = window_p50s(&timeline);

    if trace {
        let trails: Vec<Trail> = states
            .iter_mut()
            .flat_map(|s| {
                [
                    std::mem::replace(&mut s.writes, Trail::new(PAGE, 1, 0)),
                    std::mem::replace(&mut s.reads, Trail::new(PAGE, 1, 0)),
                ]
            })
            .collect();
        let shape = Shape {
            write_pages: 16.0,
            replication: 1.0,
            read_pages: 16.0,
            gateway: false,
        };
        let bad = replay_layers(&states[0].client, &trails, &names, shape, &mut spans, v);
        if bad > 0 {
            o.problems.push(format!(
                "{bad} stream read-backs differ from what was written"
            ));
        }
    }
    drop(states);
    cluster.shutdown();
    more_setups(
        &mut setups,
        || setup(&pool, seed),
        |(c, s): (Cluster, Vec<State>)| {
            drop(s);
            c.shutdown()
        },
    );
    let setup_samples = setup_figure(&setups, &mut o.values);

    let failures = settle(&mut o, &log);
    o.details = Json::obj()
        .with("latency", latency)
        .with("write_seconds", w_s)
        .with("read_seconds", r_s)
        .with("setup_samples_s", setup_samples)
        .with(
            "write_p50_us_per_window",
            Json::Arr(modes.into_iter().map(Json::Num).collect()),
        )
        .with("attribution", attribution(&o.values))
        .with("failures", failures);
    o.spans = trace.then_some(spans);
    o
}
