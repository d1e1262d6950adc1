//! `meta-mix`: each of two clients owns a blob of 4096 × 4 KiB pages
//! (replication 2), filled during set-up. 90 % single-page reads of the
//! latest version, pages chosen by zipf s = 0.99; 10 % single-page
//! overwrites, each publishing a version. Time goes to metadata descent
//! and build, executor dispatch, version publication and the metric path.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sads_blob::runtime::threaded::{ClientHandle, Cluster};
use sads_blob::{BlobId, BlobSpec, ClientId, ClientOp, OpOutput, Payload, WriteKind};
use sads_workloads::ZipfSampler;

use crate::harness::{
    more_setups, run_lanes, start_cluster, Check, Clock, Kind, Lane, CAP_FACTOR, LOAD_THREADS,
};
use crate::json::Json;
use crate::model::{Pool, SlotModel};
use crate::replay::{Input, Trail};
use crate::report::Outcome;
use crate::threaded::{
    attribution, latency_figures, replay_layers, settle, setup_figure, Probe, Shape,
};

const PAGE: u64 = 4096;
const PAGES: u64 = 4096;
const REPLICATION: u32 = 2;
/// Pages per set-up write.
const FILL_PAGES: u64 = 256;
const POOL: usize = 32 << 20;
const READ_SHARE: f64 = 0.9;
const ZIPF_S: f64 = 0.99;
/// Measured ops per lane for each second of `--seconds` (sized so a run
/// measures about that long on a 2-core host), and discarded ones first.
/// Counted, so every run of a seed issues the same ops and publishes the
/// same number of versions, however fast the host.
const OPS_PER_SECOND: u64 = 9_000;
const WARM_OPS: u64 = 10_000;
/// Recorded inputs per lane, for the traced run's replays.
const TRAIL_OPS: usize = 4000;

struct State {
    client: ClientHandle,
    blob: BlobId,
    model: SlotModel,
    rng: SmallRng,
    /// Zipf rank → page, so the hot pages are spread over the blob.
    rank_to_page: Vec<u64>,
    trail: Trail,
}

fn setup(pool: &Pool, seed: u64) -> (Cluster, Vec<State>) {
    let mut cluster = start_cluster();
    let states = (0..LOAD_THREADS)
        .map(|i| {
            let client = cluster.client(ClientId(200 + i as u64));
            let spec = BlobSpec {
                page_size: PAGE,
                replication: REPLICATION,
            };
            let blob = client.create(spec).expect("create blob");
            let mut rng = SmallRng::seed_from_u64(seed ^ (0x3e7a << 8) ^ i as u64);
            let mut model = SlotModel::new(pool.clone(), PAGE as usize);
            for start in (0..PAGES).step_by(FILL_PAGES as usize) {
                let len = (FILL_PAGES * PAGE) as usize;
                let off = pool.pick(&mut rng, len);
                client
                    .write(blob, start * PAGE, pool.slice(off, len))
                    .expect("fill write");
                for p in 0..FILL_PAGES as usize {
                    model.push(off + p * PAGE as usize);
                }
            }
            let mut rank_to_page: Vec<u64> = (0..PAGES).collect();
            for k in (1..rank_to_page.len()).rev() {
                rank_to_page.swap(k, rng.random_range(0..=k));
            }
            State {
                client,
                blob,
                model,
                rng,
                rank_to_page,
                trail: Trail::new(PAGE, REPLICATION, PAGES * PAGE),
            }
        })
        .collect();
    (cluster, states)
}

fn mix(st: &mut State, lane: &mut Lane, pool: &Pool, zipf: &ZipfSampler) {
    while let Some(slot) = lane.next() {
        let page = st.rank_to_page[zipf.sample(&mut st.rng)];
        let offset = page * PAGE;
        let read = st.rng.random_bool(READ_SHARE);
        let (op, kind, off) = if read {
            (
                ClientOp::Read {
                    blob: st.blob,
                    version: None,
                    offset,
                    len: PAGE,
                },
                Kind::Read,
                0,
            )
        } else {
            let off = pool.pick(&mut st.rng, PAGE as usize);
            let data = Payload::Data(pool.slice(off, PAGE as usize));
            (
                ClientOp::Write {
                    blob: st.blob,
                    kind: WriteKind::At(offset),
                    data,
                },
                Kind::Write,
                off,
            )
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
        let i = page as usize;
        let check = match res {
            Ok(OpOutput::Read {
                data: Payload::Data(b),
                ..
            }) if st.model.check(i, &b) => Check::Ok,
            Ok(OpOutput::Read { .. }) => {
                Check::Mismatch(format!("page {page} differs from the model"))
            }
            Ok(OpOutput::Written { .. }) => {
                st.model.set(i, off);
                Check::Ok
            }
            Ok(other) => Check::Error(format!("unexpected output {other:?}")),
            Err(e) => Check::Error(e.to_string()),
        };
        if matches!(check, Check::Ok) && slot.traced && st.trail.inputs.len() < TRAIL_OPS {
            let data = st.model.expected(i);
            st.trail.inputs.push(match kind {
                Kind::Read => Input::Read {
                    op: slot.id,
                    offset,
                    data,
                },
                Kind::Write => Input::Write {
                    op: slot.id,
                    offset,
                    data,
                },
            });
        }
        lane.done(slot, kind, PAGE, t0, t1, check);
    }
}

/// Run `meta-mix`: a fixed number of ops, scaled by `seconds`.
pub fn run(seed: u64, seconds: u64, trace: bool, epoch: Instant) -> Outcome {
    let pool = Pool::new(seed, POOL);
    let zipf = ZipfSampler::new(PAGES as usize, ZIPF_S);
    let mut o = Outcome::default();
    let t = Instant::now();
    let (cluster, mut states) = setup(&pool, seed);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    o.executor_shards = cluster.executor_shards();

    let probe = Probe::start(&cluster);
    let cap = Duration::from_secs(seconds) * CAP_FACTOR;
    let clock = Clock::new(WARM_OPS, OPS_PER_SECOND * seconds, trace, cap);
    let (mut log, mut spans) = run_lanes(&mut states, clock, epoch, |st, lane| {
        mix(st, lane, &pool, &zipf)
    });
    let secs = log.measured_s();
    let v = &mut o.values;
    v.insert("ops_per_s", log.measured() as f64 / secs);
    v.insert("read_MBps", log.read_bytes as f64 / 1e6 / secs);
    v.insert("write_MBps", log.write_bytes as f64 / 1e6 / secs);
    let latency = latency_figures(&mut log, v);
    let names = probe.finish(&cluster, log.attempted, v);

    if trace {
        let trails: Vec<Trail> = states
            .iter_mut()
            .map(|s| std::mem::replace(&mut s.trail, Trail::new(PAGE, REPLICATION, 0)))
            .collect();
        let shape = Shape {
            write_pages: 1.0,
            replication: f64::from(REPLICATION),
            read_pages: 1.0,
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
        .with("seconds", secs)
        .with("setup_samples_s", setup_samples)
        .with("attribution", attribution(&o.values))
        .with("failures", failures);
    o.spans = trace.then_some(spans);
    o
}
