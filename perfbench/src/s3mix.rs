//! `s3-mix`: an [`ObjectGateway`] over the threaded cluster with two
//! pooled clients. Two connections each own 128 keys of 1 MiB objects,
//! filled during set-up, and send GET and PUT at 3:1; a PUT overwrites
//! one of the connection's own keys, so no overwrite races a check.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sads_blob::runtime::threaded::Cluster;
use sads_blob::ClientId;
use sads_gateway::{Acl, GatewayConfig, ObjectGateway};

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

const OBJECT: usize = 1 << 20;
const KEYS_PER_CONNECTION: usize = 128;
const PAGE: u64 = 256 * 1024;
const POOL: usize = 64 << 20;
const GET_SHARE: f64 = 0.75;
const BUCKET: &str = "bench";
const OWNER: ClientId = ClientId(1);
/// Measured requests per connection for each second of `--seconds`
/// (sized so a run measures about that long on a 2-core host), and
/// discarded ones first. Counted, so every run of a seed issues the same
/// requests however fast the host.
const OPS_PER_SECOND: u64 = 1_200;
const WARM_OPS: u64 = 1_500;
/// Recorded inputs per connection, for the traced run's replays.
const TRAIL_OPS: usize = 400;

struct Conn {
    index: usize,
    model: SlotModel,
    rng: SmallRng,
    trail: Trail,
}

fn key(conn: usize, k: usize) -> String {
    format!("c{conn}/k{k:03}")
}

fn setup(pool: &Pool, seed: u64) -> (Cluster, Arc<ObjectGateway>, Vec<Conn>) {
    let mut cluster = start_cluster();
    let clients = (0..LOAD_THREADS)
        .map(|i| cluster.client(ClientId(300 + i as u64)))
        .collect();
    let cfg = GatewayConfig {
        page_size: PAGE,
        replication: 1,
        ..Default::default()
    };
    let gw = Arc::new(ObjectGateway::with_clients(clients, cfg));
    gw.create_bucket(OWNER, BUCKET, Acl::Private)
        .expect("create bucket");
    let conns = (0..LOAD_THREADS)
        .map(|c| {
            let mut rng = SmallRng::seed_from_u64(seed ^ (0x53 << 8) ^ c as u64);
            let mut model = SlotModel::new(pool.clone(), OBJECT);
            for k in 0..KEYS_PER_CONNECTION {
                let off = pool.pick(&mut rng, OBJECT);
                gw.put_object(OWNER, BUCKET, &key(c, k), pool.slice(off, OBJECT))
                    .expect("fill put");
                model.push(off);
            }
            Conn {
                index: c,
                model,
                rng,
                trail: Trail::new(PAGE, 1, OBJECT as u64),
            }
        })
        .collect();
    (cluster, gw, conns)
}

fn mix(c: &mut Conn, lane: &mut Lane, gw: &ObjectGateway, pool: &Pool) {
    while let Some(slot) = lane.next() {
        let k = c.rng.random_range(0..KEYS_PER_CONNECTION);
        let name = key(c.index, k);
        let get = c.rng.random_bool(GET_SHARE);
        let t0 = Instant::now();
        let (kind, check) = if get {
            let res = if slot.traced {
                lane.spans.time("ObjectGateway::get_object", slot.id, || {
                    gw.get_object(OWNER, BUCKET, &name)
                })
            } else {
                gw.get_object(OWNER, BUCKET, &name)
            };
            let check = match res {
                Ok(body) if c.model.check(k, &body) => Check::Ok,
                Ok(_) => Check::Mismatch(format!("object {name} differs from the model")),
                Err(e) => Check::Error(e.to_string()),
            };
            (Kind::Read, check)
        } else {
            let off = pool.pick(&mut c.rng, OBJECT);
            let body = pool.slice(off, OBJECT);
            let res = if slot.traced {
                lane.spans.time("ObjectGateway::put_object", slot.id, || {
                    gw.put_object(OWNER, BUCKET, &name, body)
                })
            } else {
                gw.put_object(OWNER, BUCKET, &name, body)
            };
            let check = match res {
                Ok(_) => {
                    c.model.set(k, off);
                    Check::Ok
                }
                Err(e) => Check::Error(e.to_string()),
            };
            (Kind::Write, check)
        };
        let t1 = Instant::now();
        if matches!(check, Check::Ok) && slot.traced && c.trail.inputs.len() < TRAIL_OPS {
            let data = c.model.expected(k);
            c.trail.inputs.push(match kind {
                Kind::Read => Input::Read {
                    op: slot.id,
                    offset: 0,
                    data,
                },
                Kind::Write => Input::Write {
                    op: slot.id,
                    offset: 0,
                    data,
                },
            });
        }
        lane.done(slot, kind, OBJECT as u64, t0, t1, check);
    }
}

/// Run `s3-mix`: a fixed number of requests, scaled by `seconds`.
pub fn run(seed: u64, seconds: u64, trace: bool, epoch: Instant) -> Outcome {
    let pool = Pool::new(seed, POOL);
    let mut o = Outcome::default();
    let t = Instant::now();
    let (mut cluster, gw, mut conns) = setup(&pool, seed);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    o.executor_shards = cluster.executor_shards();

    let probe = Probe::start(&cluster);
    let errors_before = gw
        .telemetry()
        .snapshot()
        .counter_total("gateway.errors")
        .unwrap_or(0);
    let cap = Duration::from_secs(seconds) * CAP_FACTOR;
    let clock = Clock::new(WARM_OPS, OPS_PER_SECOND * seconds, trace, cap);
    let (mut log, mut spans) =
        run_lanes(&mut conns, clock, epoch, |c, lane| mix(c, lane, &gw, &pool));
    let secs = log.measured_s();
    let errors_after = gw
        .telemetry()
        .snapshot()
        .counter_total("gateway.errors")
        .unwrap_or(0);
    let v = &mut o.values;
    v.insert("ops_per_s", log.measured() as f64 / secs);
    v.insert("read_MBps", log.read_bytes as f64 / 1e6 / secs);
    v.insert("write_MBps", log.write_bytes as f64 / 1e6 / secs);
    v.insert("gateway.errors", (errors_after - errors_before) as f64);
    let latency = latency_figures(&mut log, v);
    let names = probe.finish(&cluster, log.attempted, v);

    if trace {
        let trails: Vec<Trail> = conns
            .iter_mut()
            .map(|c| std::mem::replace(&mut c.trail, Trail::new(PAGE, 1, 0)))
            .collect();
        // The stream handles the gateway itself sits on, timed on the same
        // objects: what the gateway adds on top is its own cost.
        let client = cluster.client(ClientId(399));
        let pages = (OBJECT as u64 / PAGE) as f64;
        let shape = Shape {
            write_pages: pages,
            replication: 1.0,
            read_pages: pages,
            gateway: true,
        };
        let bad = replay_layers(&client, &trails, &names, shape, &mut spans, v);
        if bad > 0 {
            o.problems.push(format!(
                "{bad} stream read-backs differ from what was written"
            ));
        }
    }
    drop(gw);
    cluster.shutdown();
    more_setups(
        &mut setups,
        || setup(&pool, seed),
        |(c, g, s): (Cluster, Arc<ObjectGateway>, Vec<Conn>)| {
            drop((g, s));
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
