//! Integration tests for the storage lifecycle layer (`sads-lifecycle`):
//!
//! * property tests driving random interleavings of writes, snapshot
//!   pins, retention-policy changes and GC sweeps against the reference
//!   mark-and-sweep — the sweeper must never collect a chunk reachable
//!   from a live version or a snapshot;
//! * an end-to-end scrub test on the threaded runtime: a byte-flipped
//!   disk chunk is detected by the background scrub, quarantined at the
//!   provider, reported to the replication manager, and repaired back
//!   to full replication while reads keep returning correct bytes.

use proptest::prelude::*;

use sads::blob::model::{BlobId, ChunkKey, PageInterval, VersionId};
use sads::blob::vmanager::VersionSummary;
use sads::lifecycle::{mark_live_chunks, plan_blob, CatalogView, RetentionPolicy};
use sads_sim::SimTime;

use std::collections::BTreeSet;

const PAGE: u64 = 8;
const BLOB: BlobId = BlobId(1);

// ---------------------------------------------------------------------
// Harness: an in-memory version catalog the ops mutate, mirroring what
// the version manager reports to the sweeper.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Publish a version writing `len` pages at `start`.
    Write { start: u64, len: u64 },
    /// Pin the latest published version (what the gateway snapshot
    /// endpoint does).
    Snapshot,
    /// Switch the retention policy.
    SetPolicy(RetentionPolicy),
    /// Run one GC sweep.
    Sweep,
    /// Decommission the BLOB (everything becomes reclaimable).
    Decommission,
}

/// Decode `(selector, a, b)` triples into ops. `allow_mutating_policy`
/// gates the policy-change and decommission variants so the stable-policy
/// property can reuse the same generator.
fn decode(ops: &[(u8, u64, u64)], allow_mutating_policy: bool) -> Vec<Op> {
    ops.iter()
        .map(|&(sel, a, b)| match sel % 10 {
            0..=3 => Op::Write { start: a % 16, len: 1 + b % 5 },
            4..=6 => Op::Sweep,
            7 => Op::Snapshot,
            8 if allow_mutating_policy => Op::SetPolicy(match a % 3 {
                0 => RetentionPolicy::KeepAll,
                1 => RetentionPolicy::KeepLastN((b % 4) as usize),
                _ => RetentionPolicy::KeepSnapshots,
            }),
            9 if allow_mutating_policy => Op::Decommission,
            _ => Op::Sweep,
        })
        .collect()
}

struct Catalog {
    versions: Vec<VersionSummary>,
    snapshots: Vec<VersionId>,
    decommissioned: bool,
    next: u64,
}

impl Catalog {
    fn new() -> Self {
        Catalog {
            versions: vec![VersionSummary {
                version: VersionId::INITIAL,
                size: 0,
                interval: PageInterval::EMPTY,
                published_at: SimTime::ZERO,
            }],
            snapshots: vec![],
            decommissioned: false,
            next: 1,
        }
    }

    fn view(&self) -> CatalogView<'_> {
        CatalogView {
            blob: BLOB,
            page_size: PAGE,
            versions: &self.versions,
            snapshots: &self.snapshots,
            decommissioned: self.decommissioned,
        }
    }

    fn write(&mut self, start: u64, len: u64) {
        let interval = PageInterval::new(start, len);
        let prev = self.versions.iter().map(|v| v.size).max().unwrap_or(0);
        let v = VersionId(self.next);
        self.next += 1;
        self.versions.push(VersionSummary {
            version: v,
            size: prev.max(interval.end() * PAGE),
            interval,
            published_at: SimTime(v.0 * 1_000_000_000),
        });
    }

    fn snapshot(&mut self) {
        let latest = self.versions.iter().map(|v| v.version).max().unwrap();
        if latest != VersionId::INITIAL && !self.snapshots.contains(&latest) {
            self.snapshots.push(latest);
        }
    }

    /// One sweep: plan, model-check the plan, apply it. Returns the
    /// chunks the sweep deleted.
    fn sweep(&mut self, policy: RetentionPolicy) -> Vec<ChunkKey> {
        let plan = plan_blob(&self.view(), policy);
        let live = mark_live_chunks(&self.view(), policy);
        for c in &plan.chunks {
            assert!(
                !live.contains(c),
                "sweep under {policy:?} collected live chunk {c:?}\ncatalog: {:?}\nsnapshots: {:?}",
                self.versions,
                self.snapshots
            );
        }
        for r in &plan.retire {
            assert!(
                self.decommissioned || !self.snapshots.contains(r),
                "retired pinned version {r:?}"
            );
        }
        self.versions.retain(|v| !plan.retire.contains(&v.version));
        self.snapshots.retain(|s| !plan.retire.contains(s));
        plan.chunks
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline safety property: across any interleaving of writes,
    /// snapshot pins, retention changes, decommissions and sweeps, a
    /// sweep never plans a chunk the reference mark-and-sweep still
    /// reaches from some GC root at that instant.
    #[test]
    fn gc_never_collects_a_reachable_chunk(
        raw in prop::collection::vec((0u8..10, 0u64..64, 0u64..64), 1..40),
    ) {
        let mut cat = Catalog::new();
        let mut policy = RetentionPolicy::KeepLastN(1);
        for op in decode(&raw, true) {
            match op {
                Op::Write { start, len } if !cat.decommissioned => cat.write(start, len),
                Op::Write { .. } => {}
                Op::Snapshot if !cat.decommissioned => cat.snapshot(),
                Op::Snapshot => {}
                Op::SetPolicy(p) => policy = p,
                Op::Decommission => {
                    cat.decommissioned = true;
                    cat.snapshots.clear();
                }
                Op::Sweep => { cat.sweep(policy); }
            }
        }
        // Drain to a fixpoint: repeated sweeps must terminate with
        // nothing reclaimable left (and stay safe the whole way down).
        for _ in 0..64 {
            if cat.sweep(policy).is_empty() && plan_blob(&cat.view(), policy).is_empty() {
                break;
            }
        }
    }

    /// Under a fixed policy, collection is permanent-safe: a chunk
    /// deleted by any sweep is never reachable at ANY later instant —
    /// new versions, new pins of the latest, and record retirement
    /// cannot resurrect it. (Widening the policy after collection could,
    /// which is why retention changes are excluded here and applied only
    /// between sweeps in the property above.)
    #[test]
    fn collected_chunks_stay_dead_under_a_stable_policy(
        raw in prop::collection::vec((0u8..8, 0u64..64, 0u64..64), 1..40),
        pol in 0u8..5,
    ) {
        let policy = match pol {
            0 => RetentionPolicy::KeepAll,
            1 => RetentionPolicy::KeepLastN(0),
            2 => RetentionPolicy::KeepLastN(1),
            3 => RetentionPolicy::KeepLastN(3),
            _ => RetentionPolicy::KeepSnapshots,
        };
        let mut cat = Catalog::new();
        let mut deleted: BTreeSet<ChunkKey> = BTreeSet::new();
        for op in decode(&raw, false) {
            match op {
                Op::Write { start, len } => cat.write(start, len),
                Op::Snapshot => cat.snapshot(),
                Op::Sweep => { deleted.extend(cat.sweep(policy)); }
                Op::SetPolicy(_) | Op::Decommission => unreachable!(),
            }
            let live = mark_live_chunks(&cat.view(), policy);
            if let Some(c) = deleted.intersection(&live).next() {
                panic!(
                    "{policy:?}: previously collected chunk {c:?} became reachable again\n\
                     catalog: {:?}\nsnapshots: {:?}",
                    cat.versions, cat.snapshots
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Threaded end-to-end: byte-flip → scrub → quarantine → repair.
// ---------------------------------------------------------------------

mod scrub_e2e {
    use bytes::Bytes;
    use sads::blob::model::{BlobSpec, ChunkKey, ClientId};
    use sads::blob::rpc::Msg;
    use sads::blob::storage::BackendSpec;
    use sads::lifecycle::ScrubConfig;
    use sads::{AdaptiveClusterConfig, SelfAdaptiveCluster};
    use sads_adaptive::ReplicationConfig;
    use sads_sim::SimDuration;

    const PAGE: u64 = 64 * 1024;
    const PAGES: u64 = 8;

    fn pattern(len: usize, seed: u8) -> Bytes {
        Bytes::from(
            (0..len).map(|i| (i as u8).wrapping_mul(17).wrapping_add(seed)).collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn byte_flipped_disk_chunk_is_quarantined_and_repaired() {
        let root = std::env::temp_dir().join(format!("sads-scrub-e2e-{}", std::process::id()));
        let mut sys = SelfAdaptiveCluster::start(AdaptiveClusterConfig {
            data_providers: 4,
            meta_providers: 2,
            security: None,
            replication: Some(ReplicationConfig {
                base_degree: 2,
                sweep_every: SimDuration::from_millis(500),
                ..ReplicationConfig::default()
            }),
            scrub: Some(ScrubConfig {
                every: SimDuration::from_millis(100),
                batch: 64,
            }),
            backend: BackendSpec::disk(root.clone()),
            ..AdaptiveClusterConfig::default()
        });

        let client = sys.client(ClientId(5));
        let blob = client
            .create(BlobSpec { page_size: PAGE, replication: 2 })
            .expect("create");
        let data = pattern((PAGES * PAGE) as usize, 3);
        let version = client.write(blob, 0, data.clone()).expect("write");

        // Wait until the replication manager has learned the placement
        // of every chunk from the monitoring write records — corruption
        // reported before that could not be repaired.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let tracked = sys
                .cluster
                .telemetry()
                .snapshot()
                .gauge_total("repl.tracked_chunks")
                .unwrap_or(0.0);
            if tracked >= PAGES as f64 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "replication manager never learned the placement (tracked {tracked})"
            );
            std::thread::sleep(std::time::Duration::from_millis(100));
        }

        // Flip bytes in every replica ONE provider holds for this blob.
        // Replicas of a chunk never share a provider, so each damaged
        // chunk keeps one intact copy elsewhere.
        let victim = sys.cluster.data[0];
        for page in 0..PAGES {
            sys.cluster.send(victim, Msg::CorruptChunk {
                key: ChunkKey { blob, version, page },
            });
        }

        // The scrub walks the providers every 100 ms; wait until every
        // detection has been quarantined, reported and repaired.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let (quarantined, reports, repairs) = loop {
            let all = sys.cluster.metrics();
            let q = all.counter("provider.quarantined_chunks");
            let c = all.counter("repl.corrupt_reports");
            let r = all.counter("repl.repairs");
            if q > 0 && c >= q && r >= c {
                break (q, c, r);
            }
            assert!(
                std::time::Instant::now() < deadline,
                "scrub/repair loop stalled: quarantined {q}, reported {c}, repaired {r}"
            );
            std::thread::sleep(std::time::Duration::from_millis(200));
        };
        assert!(quarantined >= 1, "victim held no replica of the test blob");
        assert_eq!(reports, quarantined, "every quarantine must reach the repl manager");
        assert!(repairs >= reports, "not every corruption was repaired");
        assert_eq!(sys.cluster.metrics().counter("repl.lost_chunks"), 0, "no chunk may be lost: one replica survived");

        // Reads return the original bytes: corrupt replicas were patched
        // out of the leaves and the repaired copies serve.
        let back = client.read(blob, None, 0, PAGES * PAGE).expect("read after repair");
        assert_eq!(back, data, "bytes diverged after scrub+repair");

        sys.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
