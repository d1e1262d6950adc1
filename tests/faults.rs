//! Fault-tolerance properties of the data path.
//!
//! * **Convergence**: a run under a seeded provider crash/restart
//!   schedule — with client retries, degraded reads, and replication
//!   repair on — ends with the same published version history as the
//!   fault-free run of the identical workload, and the data stays
//!   readable afterwards.
//! * **Determinism**: the same fault seed twice yields byte-identical
//!   outcomes (same crashes, same client counters, same final clock).
//! * **Idempotency**: a retransmitted chunk put (fresh request id, same
//!   chunk key) is acknowledged again but never double-applies.

use proptest::prelude::*;

use sads::blob::client::{ClientConfig, RetryPolicy};
use sads::blob::model::{BlobId, BlobSpec, ChunkKey, ClientId, Payload, VersionId};
use sads::blob::runtime::sim::{BlobRef, ScriptStep};
use sads::blob::rpc::Msg;
use sads::blob::services::{
    DataProviderService, Env, Service, ServiceConfig, VersionManagerService,
};
use sads::blob::WriteKind;
use sads::{Deployment, DeploymentConfig};
use sads_adaptive::ReplicationConfig;
use sads_sim::{FaultPlan, NodeId, SimDuration, SimTime};

const MB: u64 = 1_000_000;
const PAGE: u64 = MB;
const DATASET: u64 = 16 * MB;
const HORIZON_S: u64 = 80;

/// Everything we compare between runs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunSummary {
    versions: Vec<u64>,
    write_ok: u64,
    write_err: u64,
    read_ok: u64,
    read_err: u64,
    crashes: u64,
    restarts: u64,
    probe_ok: u64,
    final_ns: u64,
}

/// Run the standard workload; `fault_seed = None` is the fault-free run.
fn run_workload(fault_seed: Option<u64>) -> RunSummary {
    let cfg = DeploymentConfig {
        seed: 7,
        data_providers: 10,
        meta_providers: 2,
        replication: Some(ReplicationConfig {
            base_degree: 2,
            sweep_every: SimDuration::from_secs(2),
            ..ReplicationConfig::default()
        }),
        recovery: Some(SimDuration::from_secs(5)),
        client_cfg: ClientConfig { retry: RetryPolicy::standard(), ..ClientConfig::default() },
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(cfg);
    let spec = BlobSpec { page_size: PAGE, replication: 2 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::Append, bytes: DATASET },
        ],
        "loader",
    );
    d.world.run_for(SimDuration::from_secs(10), 20_000_000);

    let blob = BlobRef::Id(BlobId(1));
    let mut wscript = Vec::new();
    for _ in 0..5 {
        wscript.push(ScriptStep::Write { blob, kind: WriteKind::At(0), bytes: 4 * MB });
        wscript.push(ScriptStep::Pause(SimDuration::from_secs(8)));
    }
    d.add_client(ClientId(2), wscript, "w");
    let mut rscript = Vec::new();
    for i in 0..20u64 {
        rscript.push(ScriptStep::Read {
            blob,
            version: None,
            offset: (i % 4) * 4 * MB,
            len: 4 * MB,
        });
        rscript.push(ScriptStep::Pause(SimDuration::from_secs(3)));
    }
    d.add_client(ClientId(3), rscript, "r");

    let mut plan = match fault_seed {
        Some(seed) => FaultPlan::crash_restart(
            seed,
            &d.data.clone(),
            SimTime::from_secs(HORIZON_S),
            SimDuration::from_secs(25),
            SimDuration::from_secs(8),
        ),
        None => FaultPlan::default(),
    };
    d.run_with_faults(&mut plan, SimTime::from_secs(HORIZON_S), 20_000_000);
    // Drain retries, repairs, and recovery with the fleet healthy again.
    d.world.run_for(SimDuration::from_secs(40), 20_000_000);

    // A fresh probe client proves the data outlived the faults.
    d.add_client(
        ClientId(9),
        vec![ScriptStep::Read { blob, version: None, offset: 0, len: DATASET }],
        "probe",
    );
    d.world.run_for(SimDuration::from_secs(30), 20_000_000);

    let vman = d.world.actor_as::<VersionManagerService>(d.vman).expect("vman");
    let versions: Vec<u64> = vman
        .state()
        .blob(BlobId(1))
        .expect("blob exists")
        .versions()
        .map(|v| v.version.0)
        .collect();
    let m = d.world.metrics();
    RunSummary {
        versions,
        write_ok: m.counter("w.ops_ok"),
        write_err: m.counter("w.ops_err"),
        read_ok: m.counter("r.ops_ok"),
        read_err: m.counter("r.ops_err"),
        crashes: m.counter("fault.crashes"),
        restarts: m.counter("fault.restarts"),
        probe_ok: m.counter("probe.ops_ok"),
        final_ns: d.world.now().as_nanos(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash/restart schedules + retries converge to the fault-free
    /// outcome, and the same schedule replays identically.
    #[test]
    fn faulted_run_converges_and_replays(seed in 0u64..10_000) {
        let clean = run_workload(None);
        prop_assert_eq!(clean.crashes, 0);
        prop_assert_eq!(clean.write_err, 0);
        prop_assert_eq!(clean.read_err, 0);
        prop_assert_eq!(clean.probe_ok, 1);

        let faulted = run_workload(Some(seed));
        // Determinism: replaying the same fault seed is byte-identical.
        let replay = run_workload(Some(seed));
        prop_assert_eq!(&faulted, &replay);

        // Convergence: every write still published, in the same order,
        // and the dataset is still fully readable afterwards.
        prop_assert_eq!(&faulted.versions, &clean.versions);
        prop_assert_eq!(faulted.write_ok, clean.write_ok);
        prop_assert_eq!(faulted.write_err, 0);
        prop_assert_eq!(faulted.probe_ok, 1);
    }
}

// ---------------------------------------------------------------------
// Idempotent retransmissions at the provider.
// ---------------------------------------------------------------------

/// Minimal [`Env`] capturing outgoing messages.
struct TestEnv {
    rng: rand::rngs::SmallRng,
    sent: Vec<(NodeId, Msg)>,
}

impl TestEnv {
    fn new() -> Self {
        use rand::SeedableRng;
        TestEnv { rng: rand::rngs::SmallRng::seed_from_u64(1), sent: Vec::new() }
    }
}

impl Env for TestEnv {
    fn id(&self) -> NodeId {
        NodeId(0)
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn send(&mut self, to: NodeId, msg: Msg) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, _d: SimDuration, _t: u64) {}
    fn rng(&mut self) -> &mut rand::rngs::SmallRng {
        &mut self.rng
    }
}

/// The client's retry path resends a timed-out put under a **fresh**
/// request id; if the original did land (only the ack was lost), the
/// provider must ack the duplicate without double-charging the store.
#[test]
fn retransmitted_put_is_acked_once_applied_once() {
    let cfg = ServiceConfig {
        monitor: None,
        heartbeat_every: SimDuration::from_secs(1),
        instr_flush_every: SimDuration::from_secs(1),
        nic_bandwidth: 0,
        ..ServiceConfig::default()
    };
    let mut p = DataProviderService::new(NodeId(99), 64 * MB, cfg);
    let mut env = TestEnv::new();
    let key = ChunkKey { blob: BlobId(1), version: VersionId(1), page: 0 };
    let client = ClientId(5);
    let from = NodeId(7);

    p.on_msg(&mut env, from, Msg::PutChunk { req: 1, client, key, data: Payload::Sim(PAGE) });
    // Retransmission: same chunk key, fresh request id (as the client's
    // backoff resend path produces).
    p.on_msg(&mut env, from, Msg::PutChunk { req: 2, client, key, data: Payload::Sim(PAGE) });

    let acks: Vec<u64> = env
        .sent
        .iter()
        .filter_map(|(to, m)| match m {
            Msg::PutChunkOk { req } if *to == from => Some(*req),
            _ => None,
        })
        .collect();
    assert_eq!(acks, vec![1, 2], "both the original and the duplicate are acked");
    assert_eq!(p.store().len(), 1, "one chunk stored");
    assert_eq!(p.store().used(), PAGE, "charged exactly once");
    assert_eq!(p.store().total_puts(), 2, "both puts hit the store");

    // The batch path follows the same contract.
    p.on_msg(
        &mut env,
        from,
        Msg::PutChunkBatch { req: 3, client, items: vec![(key, Payload::Sim(PAGE))] },
    );
    assert_eq!(p.store().len(), 1);
    assert_eq!(p.store().used(), PAGE);
}

/// A provider that dies before a batched read reaches it: every batch
/// aimed at the dead node goes unanswered, its single shared deadline
/// fires, and each item independently re-enters the per-chunk replica
/// walk against the surviving copy — the read completes degraded
/// instead of failing wholesale.
#[test]
fn mid_batch_provider_crash_degrades_to_replica_walk() {
    let cfg = DeploymentConfig {
        seed: 11,
        data_providers: 4,
        meta_providers: 2,
        client_cfg: ClientConfig { retry: RetryPolicy::standard(), ..ClientConfig::default() },
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(cfg);
    let spec = BlobSpec { page_size: PAGE, replication: 2 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::Append, bytes: DATASET },
        ],
        "loader",
    );
    d.world.run_for(SimDuration::from_secs(10), 20_000_000);

    let victim = d.data[0];
    d.world.crash(victim);
    d.add_client(
        ClientId(2),
        vec![ScriptStep::Read {
            blob: BlobRef::Id(BlobId(1)),
            version: None,
            offset: 0,
            len: DATASET,
        }],
        "r",
    );
    d.world.run_for(SimDuration::from_secs(60), 20_000_000);

    let m = d.world.metrics();
    assert_eq!(m.counter("r.ops_ok"), 1, "degraded read still completes");
    assert_eq!(m.counter("r.ops_err"), 0, "no failed reads");
    assert!(
        m.counter("client.replica_walks") > 0,
        "batch items walked to the surviving replica"
    );
}

// ---------------------------------------------------------------------
// Pinned fault schedule of the client's chunk-RPC recovery arms.
// ---------------------------------------------------------------------

/// Outcome of [`pinned_fault_run`]: the simulator's order-sensitive event
/// digest plus the client's recovery counters.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    digest: u64,
    events: u64,
    rpc_retries: u64,
    reallocs: u64,
    replica_walks: u64,
    ops: [u64; 4],
}

/// Two of four providers crash just as a writer and a reader start, and
/// stay down for a minute. The writer's puts to the dead pair time out,
/// are re-sent to the same target with backoff (`client.rpc_retries`)
/// and then re-placed through the provider manager (`client.reallocs`).
/// The reader's batches to the dead pair time out and walk to the other
/// replica (`client.replica_walks`); chunks whose both replicas died
/// exhaust the walk and re-fetch their leaf (the degraded-read refresh).
/// A probe after the restart reads back the rewritten half, whose every
/// replica the re-allocations placed on a live provider.
fn pinned_fault_run() -> Pinned {
    let cfg = DeploymentConfig {
        seed: 21,
        data_providers: 4,
        meta_providers: 2,
        recovery: Some(SimDuration::from_secs(5)),
        client_cfg: ClientConfig { retry: RetryPolicy::standard(), ..ClientConfig::default() },
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(cfg);
    let spec = BlobSpec { page_size: PAGE, replication: 2 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::Append, bytes: DATASET },
        ],
        "loader",
    );
    d.world.run_for(SimDuration::from_secs(10), 20_000_000);

    let blob = BlobRef::Id(BlobId(1));
    let down = SimTime::from_secs(10);
    let up = SimTime::from_secs(70);
    let mut plan = FaultPlan::builder()
        .crash_at(d.data[0], down)
        .crash_at(d.data[1], down)
        .restart_at(d.data[0], up)
        .restart_at(d.data[1], up)
        .build();
    d.add_client(
        ClientId(2),
        vec![ScriptStep::Write { blob, kind: WriteKind::At(0), bytes: 8 * MB }],
        "w",
    );
    d.add_client(
        ClientId(3),
        vec![ScriptStep::Read { blob, version: None, offset: 0, len: DATASET }],
        "r",
    );
    d.run_with_faults(&mut plan, SimTime::from_secs(HORIZON_S), 20_000_000);
    d.add_client(
        ClientId(4),
        vec![ScriptStep::Read { blob, version: None, offset: 0, len: 8 * MB }],
        "probe",
    );
    d.world.run_for(SimDuration::from_secs(60), 20_000_000);

    let m = d.world.metrics();
    Pinned {
        digest: d.world.event_digest(),
        events: d.world.events_processed(),
        rpc_retries: m.counter("client.rpc_retries"),
        reallocs: m.counter("client.reallocs"),
        replica_walks: m.counter("client.replica_walks"),
        ops: [
            m.counter("w.ops_ok"),
            m.counter("r.ops_ok") + m.counter("r.ops_err"),
            m.counter("probe.ops_ok"),
            m.counter("fault.crashes"),
        ],
    }
}

/// The retry, re-allocation, replica-walk and leaf-refresh arms of the
/// client produce exactly this schedule. Any change to the messages they
/// send, the order they send them in, their RNG draws or their timers
/// moves the digest.
#[test]
fn client_recovery_arms_keep_their_pinned_schedule() {
    let want = Pinned {
        digest: 12_400_515_910_939_295_524,
        events: 5_639,
        rpc_retries: 4,
        reallocs: 2,
        replica_walks: 10,
        // Writes ok, reads done, probes ok, crashes.
        ops: [1, 1, 1, 2],
    };
    assert_eq!(pinned_fault_run(), want);
}
