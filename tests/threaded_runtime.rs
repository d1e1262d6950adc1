//! Threaded-runtime robustness: a started cluster's full provider pool,
//! elastic provider addition under live traffic, and replica failover
//! when a provider dies mid-service.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use sads::blob::client::ClientConfig;
use sads::blob::runtime::threaded::ClusterBuilder;
use sads::blob::{BlobSpec, ClientId};
use sads_sim::SimDuration;

const PAGE: u64 = 64 * 1024;

/// `start()` returns only once every provider has registered: a write
/// whose replication needs the whole pool succeeds as the very first
/// operation. Two spinning threads steal CPU from the executor workers,
/// which is what used to let the client's first `Alloc` overtake a
/// provider's `Register` (`AllocationFailed { available < pool }`).
#[test]
fn first_write_after_start_sees_the_whole_provider_pool() {
    const POOL: usize = 16;
    let stop = Arc::new(AtomicBool::new(false));
    let spinners: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
            })
        })
        .collect();
    let mut failures = Vec::new();
    for _ in 0..50 {
        let mut cluster = ClusterBuilder::new()
            .data_providers(POOL)
            .meta_providers(1)
            .executor_shards(2)
            .start();
        let client = cluster.client(ClientId(1));
        let spec = BlobSpec { page_size: 1024, replication: POOL as u32 };
        let blob = client.create(spec).unwrap();
        if let Err(e) = client.write(blob, 0, Bytes::from(vec![1u8; 1024])) {
            failures.push(e);
        }
        cluster.shutdown();
    }
    stop.store(true, Ordering::Relaxed);
    for s in spinners {
        s.join().unwrap();
    }
    assert!(failures.is_empty(), "{} of 50 first writes failed: {:?}", failures.len(), failures[0]);
}

#[test]
fn providers_added_at_runtime_serve_new_traffic() {
    let mut cluster = ClusterBuilder::new()
        .data_providers(2)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .start();
    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 2 }).unwrap();
    client.write(blob, 0, Bytes::from(vec![1u8; 2 * PAGE as usize])).unwrap();

    // Scale up mid-flight; the new providers register with the provider
    // manager and start taking allocations.
    for _ in 0..3 {
        let n = cluster.add_data_provider(256 << 20);
        cluster.data.push(n);
    }
    // Replication 4 requires the expanded pool (only 5 providers total).
    let blob4 = client.create(BlobSpec { page_size: PAGE, replication: 4 }).unwrap();
    let mut ok = false;
    for _ in 0..50 {
        match client.write(blob4, 0, Bytes::from(vec![2u8; PAGE as usize])) {
            Ok(_) => {
                ok = true;
                break;
            }
            // Until the new providers' registrations land, allocation may
            // fail; retry briefly.
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    assert!(ok, "replication-4 write succeeds once the pool grew");
    let back = client.read(blob4, None, 0, PAGE).unwrap();
    assert!(back.iter().all(|b| *b == 2));
    cluster.shutdown();
}

#[test]
fn reads_fail_over_when_a_replica_dies_threaded() {
    let mut cluster = ClusterBuilder::new()
        .data_providers(3)
        .meta_providers(2)
        .provider_capacity(256 << 20)
        .client_config(ClientConfig {
            chunk_timeout: SimDuration::from_millis(500),
            materialize_zeros: true,
            ..ClientConfig::default()
        })
        .start();
    let client = cluster.client(ClientId(1));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 3 }).unwrap();
    let data = Bytes::from((0..4 * PAGE as usize).map(|i| i as u8).collect::<Vec<u8>>());
    client.write(blob, 0, data.clone()).unwrap();

    // Kill one of the three replicas' hosts.
    let victim = cluster.data[1];
    cluster.kill(victim);

    // Every read must still return the full data: fetches that land on
    // the dead replica time out after 500 ms and fail over.
    for round in 0..5 {
        let got = client.read(blob, None, 0, 4 * PAGE).expect("failover read");
        assert_eq!(got, data, "round {round}");
    }
    cluster.shutdown();
}

#[test]
fn deterministic_simulated_twin_runs_identically() {
    // The simulated deployment is bit-for-bit deterministic by seed —
    // the property every experiment in EXPERIMENTS.md leans on.
    use sads::blob::runtime::sim::{BlobRef, ScriptStep};
    use sads::blob::WriteKind;
    use sads::{Deployment, DeploymentConfig};
    use sads_sim::SimTime;

    fn run() -> (u64, Vec<(u64, f64)>) {
        let mut d = Deployment::build(DeploymentConfig {
            seed: 12345,
            data_providers: 8,
            meta_providers: 2,
            ..DeploymentConfig::default()
        });
        let spec = BlobSpec { page_size: 1 << 20, replication: 2 };
        for i in 0..4u64 {
            d.add_client(
                ClientId(1 + i),
                vec![
                    ScriptStep::Create(spec),
                    ScriptStep::WaitUntil(SimTime(2_000_000_000)),
                    ScriptStep::Write {
                        blob: BlobRef::Created(0),
                        kind: WriteKind::Append,
                        bytes: 64 << 20,
                    },
                ],
                "c",
            );
        }
        d.world.run_for(SimDuration::from_secs(60), 10_000_000);
        let series = d
            .world
            .metrics()
            .series("c.write_mbps")
            .iter()
            .map(|s| (s.at.as_nanos(), s.value))
            .collect();
        (d.world.events_processed(), series)
    }
    assert_eq!(run(), run());
}
