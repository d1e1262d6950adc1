//! Lifecycle tests for the sharded work-stealing executor behind the
//! threaded runtime: shutdown with mail still queued, panic isolation
//! (a poisoned service must not wedge its shard), and address-preserving
//! service restart.

use std::time::{Duration, Instant};

use bytes::Bytes;
use sads::blob::pmanager::ProviderLoad;
use sads::blob::rpc::Msg;
use sads::blob::runtime::threaded::{Cluster, ClusterBuilder};
use sads::blob::services::{Env, Service};
use sads::blob::{BlobSpec, ClientId};
use sads_sim::NodeId;

fn ping() -> Msg {
    Msg::Heartbeat { load: ProviderLoad { used: 0, items: 0, recent_ops: 0, fill: 0.0 } }
}

/// Counts every message it receives into the cluster metric sink.
struct CounterService;

impl Service for CounterService {
    fn name(&self) -> &'static str {
        "counter"
    }
    fn on_msg(&mut self, env: &mut dyn Env, _from: NodeId, _msg: Msg) {
        env.incr("probe.pings", 1);
    }
}

/// Burns wall-clock time on every message — used to build a mailbox
/// backlog that shutdown must abandon rather than drain.
struct SlowService;

impl Service for SlowService {
    fn name(&self) -> &'static str {
        "slow"
    }
    fn on_msg(&mut self, _env: &mut dyn Env, _from: NodeId, _msg: Msg) {
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Panics on the first message it receives.
struct PanicService;

impl Service for PanicService {
    fn name(&self) -> &'static str {
        "grenade"
    }
    fn on_msg(&mut self, _env: &mut dyn Env, _from: NodeId, _msg: Msg) {
        panic!("service poisoned on purpose (executor isolation test)");
    }
}

/// Poll the cluster's counter total until it reaches `want` or the
/// deadline passes; returns the last total read.
fn wait_counter(cluster: &Cluster, counter: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let total = cluster.metrics().counter(counter);
        if total >= want || Instant::now() >= deadline {
            return total;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Shutdown must return promptly even with deep per-cell backlogs (the
/// queued mail is dropped, not drained) and must not strand blocked
/// client callers: their in-flight ops fail instead of hanging forever.
#[test]
fn shutdown_abandons_queued_mail_and_releases_clients() {
    let mut cluster = ClusterBuilder::new()
        .data_providers(4)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .executor_shards(2)
        .start();

    // 8 slow cells × 25 queued messages ≈ 4 s of handler work if it were
    // all drained; shutdown must not wait for that.
    let slow: Vec<NodeId> = (0..8).map(|_| cluster.add_service(Box::new(SlowService))).collect();
    for &node in &slow {
        for _ in 0..25 {
            cluster.send(node, ping());
        }
    }

    // Clients hammering the data path in parallel; after shutdown each
    // op must fail fast rather than block on a dead reply channel.
    let mut writers = Vec::new();
    for t in 0..4u64 {
        let h = cluster.client(ClientId(100 + t));
        writers.push(std::thread::spawn(move || {
            let blob = match h.create(BlobSpec { page_size: 64 * 1024, replication: 1 }) {
                Ok(b) => b,
                Err(_) => return 0u32, // shut down before we even started
            };
            let body = Bytes::from(vec![t as u8; 64 * 1024]);
            let mut ok = 0u32;
            loop {
                match h.append(blob, body.clone()) {
                    Ok(_) => ok += 1,
                    Err(_) => return ok,
                }
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    cluster.shutdown();
    let shutdown_took = t0.elapsed();
    // One in-turn slow cell may finish its current batch (≤ 0.5 s per
    // shard); a full drain would take ≈ 4 s.
    assert!(
        shutdown_took < Duration::from_secs(3),
        "shutdown drained the backlog instead of dropping it ({shutdown_took:?})"
    );
    for w in writers {
        // Threads must terminate (join would hang the test otherwise) —
        // every writer saw a clean error once the executor went away.
        w.join().expect("writer thread panicked");
    }
}

/// A panicking service must be the only casualty: the worker survives,
/// sibling cells on the same shard keep serving, the panic is counted,
/// and the poisoned address can be restarted.
#[test]
fn service_panic_is_isolated_to_its_cell() {
    let mut cluster = ClusterBuilder::new()
        .data_providers(2)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .executor_shards(1) // everything shares one shard on purpose
        .start();
    let grenade = cluster.add_service(Box::new(PanicService));

    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: 64 * 1024, replication: 1 }).unwrap();
    client.append(blob, Bytes::from(vec![1u8; 64 * 1024])).unwrap();

    cluster.send(grenade, ping());
    assert_eq!(wait_counter(&cluster, "runtime.service_panics", 1), 1);

    // The sole shard kept running: data-path ops still complete, and a
    // second message to the dead cell is dropped without a second panic.
    cluster.send(grenade, ping());
    for _ in 0..5 {
        client.append(blob, Bytes::from(vec![2u8; 64 * 1024])).expect("shard wedged");
    }
    assert_eq!(cluster.metrics().counter("runtime.service_panics"), 1);

    // The panic killed the cell, so its address is free for a restart.
    assert!(cluster.restart_service(grenade, Box::new(CounterService)));
    cluster.send(grenade, ping());
    assert_eq!(wait_counter(&cluster, "probe.pings", 1), 1);

    cluster.shutdown();
}

/// `Cluster::restart_service` under the executor: a killed address is
/// re-occupied in place, peers keep routing to the same `NodeId`, and a
/// live slot refuses reinstallation.
#[test]
fn restart_service_reoccupies_the_same_address() {
    let mut cluster = ClusterBuilder::new()
        .data_providers(2)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .executor_shards(2)
        .start();
    let node = cluster.add_service(Box::new(CounterService));

    for _ in 0..3 {
        cluster.send(node, ping());
    }
    assert_eq!(wait_counter(&cluster, "probe.pings", 3), 3);

    // A live slot must refuse reinstallation.
    assert!(!cluster.restart_service(node, Box::new(CounterService)));

    cluster.kill(node);
    cluster.send(node, ping()); // dropped: dead address
    assert!(cluster.restart_service(node, Box::new(CounterService)));
    cluster.send(node, ping());
    // Exactly one ping lands post-restart (3 before the kill + 1): the
    // one sent while dead was dropped with the old cell, not replayed
    // into the new one.
    assert_eq!(wait_counter(&cluster, "probe.pings", 4), 4);
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(cluster.metrics().counter("probe.pings"), 4);

    cluster.shutdown();
}
