//! The BlobSeer client: one protocol state machine per operation kind,
//! written as a resumable core ([`ClientCore`]) that both runtimes embed.
//!
//! A write proceeds through the BlobSeer protocol: obtain a ticket from
//! the version manager → obtain chunk placements from the provider
//! manager → store chunk replicas on the data providers (pipelined under
//! a window, batched per provider) → resolve the untouched-subtree
//! references against the published metadata (O(log n) reads) → store
//! the new tree nodes on the metadata providers → commit to the version
//! manager, which acknowledges once the version publishes in order. A
//! read looks up the version, descends the metadata tree to a chunk plan,
//! and fetches the chunks (batched per provider, with replica failover).
//!
//! Each machine has two kinds of caller, and which one a session serves
//! follows only from the [`ClientOp`] that opened it:
//!
//! * a one-shot op — [`ClientOp::Write`] / [`ClientOp::Read`] — runs the
//!   whole machine and completes once: the write feeds its payload in one
//!   piece as soon as the placements arrive and commits at once; the read
//!   fetches every page of its plan as one batch. Its deadline is
//!   absolute.
//! * a stream — [`ClientOp::OpenWriteStream`] /
//!   [`ClientOp::OpenReadStream`] — completes once per sub-operation:
//!   open, each feed (withheld until the window has headroom), commit;
//!   open, each window-sized pull. Its deadline is an idle timeout.
//!
//! Both share every protocol step: the chunk-store pump, retry and
//! re-allocation; the metadata build and descent; the per-provider fetch
//! batches, replica walk and leaf refresh; the assembly routine; and the
//! completion epilogue.

use std::collections::{HashMap, HashSet, VecDeque};

use bytes::BytesMut;
use rand::Rng;
use sads_sim::{NodeId, SimDuration, SimTime, SpanClass, SpanKind, SpanRecord, TraceCtx};

use crate::meta::{partition, MetaNode, NodeKey, NodeRange, PageSource, TreeBuilder, TreeReader};
use crate::model::{
    BlobError, BlobId, BlobSpec, ChunkDescriptor, ChunkKey, ClientId, PageInterval, Payload,
    VersionId, VersionInfo,
};
use crate::rpc::{ChunkErr, Msg};
use crate::services::Env;
use crate::vmanager::{WriteKind, WriteTicket};

/// Bit set on every timer token owned by the client core, so embedding
/// actors can route timers.
pub const CLIENT_TIMER_BIT: u64 = 1 << 63;

/// Secondary namespace bit: per-chunk-RPC deadline tokens (the low bits
/// carry the request id).
const CHUNK_TIMEOUT_BIT: u64 = 1 << 62;

/// Secondary namespace bit: deferred-resend tokens armed by the
/// exponential-backoff retry path (the low bits carry the request id of
/// the resend that fires when the timer does).
const RETRY_TIMER_BIT: u64 = 1 << 61;

/// An operation a client can perform.
#[derive(Debug)]
pub enum ClientOp {
    /// Create a new BLOB.
    Create {
        /// BLOB parameters.
        spec: BlobSpec,
    },
    /// Write (or append) data. Offsets and lengths must be multiples of
    /// the BLOB page size.
    Write {
        /// Target BLOB.
        blob: BlobId,
        /// Offset or append.
        kind: WriteKind,
        /// Data (real bytes or simulated length).
        data: Payload,
    },
    /// Read a byte range of a version (latest if `version` is `None`).
    Read {
        /// Target BLOB.
        blob: BlobId,
        /// Version to read, or latest.
        version: Option<VersionId>,
        /// Byte offset.
        offset: u64,
        /// Byte length (clamped to the version size).
        len: u64,
    },
    /// Pin a version as a snapshot (latest if `version` is `None`). A
    /// metadata-only O(1) operation: the pinned version becomes a GC
    /// root, its segment tree is shared, never copied.
    Snapshot {
        /// Target BLOB.
        blob: BlobId,
        /// Version to pin, or latest.
        version: Option<VersionId>,
    },
    /// Decommission a BLOB: unpin every snapshot and mark the whole
    /// version history reclaimable by the lifecycle sweeper.
    Decommission {
        /// Target BLOB.
        blob: BlobId,
    },
    /// Open a streaming write of `len` bytes (declared up front: the
    /// ticket pre-assigns the version and the page range). Completes with
    /// [`OpOutput::WriteStreamOpened`] once ticket + placements are held;
    /// the stream then accepts [`ClientOp::FeedWriteStream`] calls.
    OpenWriteStream {
        /// Target BLOB.
        blob: BlobId,
        /// Offset or append.
        kind: WriteKind,
        /// Total byte length that will be fed (page-aligned).
        len: u64,
    },
    /// Push bytes into an open write stream. Completes (with
    /// [`OpOutput::Fed`]) only once the stream has window headroom for
    /// the *next* feed — this completion is the backpressure signal that
    /// bounds buffered bytes at `chunk_window × page_size`.
    FeedWriteStream {
        /// Stream id from [`OpOutput::WriteStreamOpened`].
        stream: u64,
        /// Bytes to append to the stream (at most one page per feed to
        /// keep the memory bound exact).
        data: Payload,
    },
    /// Publish an open write stream: drains in-flight chunks, writes the
    /// metadata tree, commits at the version manager. Completes with
    /// [`OpOutput::Written`]. Every declared byte must have been fed.
    CommitWriteStream {
        /// Stream id.
        stream: u64,
    },
    /// Abandon an open write stream without publishing. Already-stored
    /// chunks are reclaimed by the version manager's stalled-write
    /// recovery and the lifecycle sweeper.
    AbortWriteStream {
        /// Stream id.
        stream: u64,
    },
    /// Open a streaming read of a byte range (latest version if `None`).
    /// Completes with [`OpOutput::ReadStreamOpened`] once the metadata
    /// descent resolved the chunk plan; data then arrives window-by-window
    /// via [`ClientOp::ReadStreamNext`].
    OpenReadStream {
        /// Target BLOB.
        blob: BlobId,
        /// Version to read, or latest.
        version: Option<VersionId>,
        /// Byte offset.
        offset: u64,
        /// Byte length (clamped to the version size).
        len: u64,
    },
    /// Pull the next window of bytes from an open read stream. Completes
    /// with [`OpOutput::ReadChunk`]; at most `chunk_window` pages are in
    /// client memory at any point. The stream closes itself when the
    /// chunk carrying `eof = true` is delivered.
    ReadStreamNext {
        /// Stream id from [`OpOutput::ReadStreamOpened`].
        stream: u64,
    },
    /// Close a read stream early (before `eof`).
    CloseReadStream {
        /// Stream id.
        stream: u64,
    },
}

/// Successful operation output.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// BLOB created.
    Created(BlobId),
    /// Write published.
    Written {
        /// Target BLOB.
        blob: BlobId,
        /// The published version.
        version: VersionId,
        /// Byte offset written.
        offset: u64,
        /// Byte length written.
        len: u64,
    },
    /// Read finished.
    Read {
        /// Assembled data (zeros for holes; `Payload::Sim` in simulation).
        data: Payload,
        /// The version that was read.
        version: VersionId,
    },
    /// Snapshot pinned.
    Snapshotted {
        /// Target BLOB.
        blob: BlobId,
        /// The pinned version.
        version: VersionId,
    },
    /// BLOB decommissioned (`false` = refused, e.g. blocked client).
    Decommissioned {
        /// Target BLOB.
        blob: BlobId,
        /// Whether the version manager accepted.
        ok: bool,
    },
    /// A write stream is open and accepting feeds.
    WriteStreamOpened {
        /// Stream id for subsequent feed/commit/abort ops.
        stream: u64,
        /// The version the commit will publish.
        version: VersionId,
        /// Byte offset the stream writes at.
        offset: u64,
        /// Declared byte length.
        len: u64,
        /// BLOB page size (the stream's chunk size).
        page_size: u64,
    },
    /// A feed was absorbed and the stream has headroom for the next one.
    Fed {
        /// Stream id.
        stream: u64,
    },
    /// A read stream is open; its chunk plan is resolved.
    ReadStreamOpened {
        /// Stream id for subsequent next/close ops.
        stream: u64,
        /// The version being read.
        version: VersionId,
        /// Effective (clamped) byte length the stream will deliver.
        len: u64,
        /// BLOB page size (the stream's chunk size).
        page_size: u64,
    },
    /// One window of streamed read data.
    ReadChunk {
        /// Stream id.
        stream: u64,
        /// The bytes (zeros for holes; `Payload::Sim` in simulation).
        data: Payload,
        /// True on the final chunk; the stream is closed after this.
        eof: bool,
    },
    /// A stream was closed (abort or explicit close).
    StreamClosed {
        /// Stream id.
        stream: u64,
    },
}

/// A finished operation, successful or not.
#[derive(Debug)]
pub struct Completion {
    /// Caller-chosen tag from `start_op`.
    pub tag: u64,
    /// Outcome.
    pub result: Result<OpOutput, BlobError>,
    /// When the op started.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
    /// Payload bytes moved (0 for create / failures).
    pub bytes: u64,
}

impl Completion {
    /// Throughput in MB/s (payload bytes over op duration), or 0.
    pub fn throughput_mbps(&self) -> f64 {
        let secs = self.finished.since(self.started).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1e6 / secs
        }
    }
}

/// Fault-tolerance policy for chunk-store RPCs.
///
/// With the policy [disabled](RetryPolicy::disabled) (the default) the
/// client behaves exactly as before this knob existed: chunk stores carry
/// no per-request deadline and any `PutChunkErr` fails the operation. An
/// [enabled](RetryPolicy::standard) policy arms a deadline on every
/// chunk store; a timed-out or refused store is re-sent to the *same*
/// provider after a bounded exponential backoff (`backoff_base · 2ᵏ`,
/// capped at `backoff_max`), and once `max_attempts` sends are exhausted
/// — or the provider reports `Full` — the client asks the provider
/// manager for a replacement placement and re-sends there instead
/// (bounded by `max_reallocs` per write).
///
/// Retries are safe because request ids correlate, never apply: a chunk
/// put is idempotent at the provider (keyed by [`ChunkKey`], an existing
/// key is kept and never double-charged), so a duplicate arrival — e.g.
/// the original slow ack racing a retransmission — cannot double-apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Deadline for one chunk-store RPC attempt.
    pub put_timeout: SimDuration,
    /// Maximum sends per target provider (1 = no same-target retry).
    /// `0` disables the whole policy.
    pub max_attempts: u32,
    /// Backoff before the k-th retry is `backoff_base · 2^(k-1)` …
    pub backoff_base: SimDuration,
    /// … capped at this value.
    pub backoff_max: SimDuration,
    /// How many times one write may fall back to the provider manager
    /// for a replacement placement before giving up.
    pub max_reallocs: u32,
}

impl RetryPolicy {
    /// No deadlines, no retries — the pre-fault-layer behavior, and the
    /// default (so fault-free runs are bit-identical with the policy
    /// merely present).
    pub const fn disabled() -> Self {
        RetryPolicy {
            put_timeout: SimDuration::ZERO,
            max_attempts: 0,
            backoff_base: SimDuration::ZERO,
            backoff_max: SimDuration::ZERO,
            max_reallocs: 0,
        }
    }

    /// A sane enabled policy: 10 s put deadline, 3 attempts per target
    /// with 500 ms → 8 s backoff, up to 4 re-allocations per write.
    pub const fn standard() -> Self {
        RetryPolicy {
            put_timeout: SimDuration::from_secs(10),
            max_attempts: 3,
            backoff_base: SimDuration::from_millis(500),
            backoff_max: SimDuration::from_secs(8),
            max_reallocs: 4,
        }
    }

    /// Is any retry machinery active?
    pub fn enabled(&self) -> bool {
        self.max_attempts > 0
    }

    /// Backoff before retry number `attempts` (1-based attempts so far).
    fn backoff(&self, attempts: u32) -> SimDuration {
        let shift = attempts.saturating_sub(1).min(16);
        self.backoff_base.saturating_mul(1u64 << shift).min(self.backoff_max)
    }
}

/// Client tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Per-operation deadline; the op fails with `Timeout` past it.
    pub op_timeout: SimDuration,
    /// Per-chunk-fetch deadline: an unresponsive replica (crashed or
    /// drowning in backlog) triggers failover to the next replica.
    pub chunk_timeout: SimDuration,
    /// Real-data deployments set this so reads always materialize actual
    /// zero bytes for holes (simulated deployments keep size-only
    /// payloads).
    pub materialize_zeros: bool,
    /// Maximum chunk transfers (puts or gets) in flight per operation.
    /// Completed transfers refill the window from the pending queue, so
    /// chunk I/O to distinct providers pipelines while memory and provider
    /// backlog stay bounded. `0` means unbounded (burst everything).
    pub chunk_window: usize,
    /// Capacity (node count) of the client-side metadata-node cache.
    /// Metadata nodes are immutable once published, so cached nodes are
    /// never stale; hits skip whole rounds of the tree descent. `0`
    /// disables the cache.
    pub meta_cache_nodes: usize,
    /// Chunk-RPC fault tolerance (deadlines, backoff, re-allocation and
    /// degraded-read placement refresh). Disabled by default.
    pub retry: RetryPolicy,
    /// Cold-cache reads open the metadata descent with one bulk
    /// [`Msg::GetMetaRange`] broadcast to the metadata providers instead
    /// of walking the tree one remote level at a time. The replies only
    /// warm the node cache — anything missing falls back to the per-node
    /// descent, so this is purely a round-trip optimization (and can be
    /// turned off to talk to servers that predate the message).
    pub meta_range_fetch: bool,
    /// Reply-size cap (node count) each provider applies to one
    /// `GetMetaRange` answer; truncated scans continue via cursor.
    pub meta_range_max_nodes: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            op_timeout: SimDuration::from_secs(600),
            chunk_timeout: SimDuration::from_secs(15),
            materialize_zeros: false,
            chunk_window: 32,
            meta_cache_nodes: 4096,
            retry: RetryPolicy::disabled(),
            meta_range_fetch: true,
            meta_range_max_nodes: 512,
        }
    }
}

/// Bounded FIFO cache of immutable metadata nodes. Because a `NodeKey`
/// names a node created by exactly one (never-rewritten) version, any
/// cached entry is valid forever; eviction exists only to bound memory.
#[derive(Debug, Default)]
struct MetaCache {
    cap: usize,
    map: HashMap<NodeKey, MetaNode>,
    order: VecDeque<NodeKey>,
}

impl MetaCache {
    fn new(cap: usize) -> Self {
        MetaCache { cap, map: HashMap::new(), order: VecDeque::new() }
    }

    fn get(&self, k: &NodeKey) -> Option<&MetaNode> {
        self.map.get(k)
    }

    fn insert(&mut self, k: NodeKey, n: MetaNode) {
        if self.cap == 0 {
            return;
        }
        if self.map.insert(k, n).is_none() {
            self.order.push_back(k);
            while self.map.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// What a parked (sub-)operation is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaiterKind {
    /// A one-shot operation (create, snapshot, decommission, whole-buffer
    /// write or read): parked for the session's whole life, completes
    /// once, and emits no sub-operation span.
    Op,
    Open,
    Feed,
    Commit,
    Next,
}

impl WaiterKind {
    /// Span label of a stream sub-operation.
    fn label(self) -> Option<&'static str> {
        match self {
            WaiterKind::Op => None,
            WaiterKind::Open => Some("stream_open"),
            WaiterKind::Feed => Some("stream_feed"),
            WaiterKind::Commit => Some("stream_commit"),
            WaiterKind::Next => Some("stream_next"),
        }
    }
}

/// The one (sub-)operation currently awaiting completion. Streams are
/// strictly half-duplex per handle: at most one feed/commit/next is
/// outstanding at a time, which is exactly what gives the backpressure
/// completion its meaning.
#[derive(Debug)]
struct Waiter {
    tag: u64,
    started: SimTime,
    kind: WaiterKind,
    /// Payload bytes this sub-operation moves (a feed's accepted bytes);
    /// stamped on its [`Completion`].
    bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WritePhase {
    /// Awaiting the version manager's ticket.
    Ticket,
    /// Awaiting chunk placements.
    Alloc,
    /// Open: accepting feeds, shipping cut pages under the window.
    Streaming,
    /// Every byte is in: draining in-flight chunk stores.
    Draining,
    /// Resolving untouched base-tree subtrees.
    MetaResolve,
    /// Storing the new tree nodes.
    MetaPut,
    /// Awaiting the version manager's publish ack.
    Commit,
}

/// A write session. The ticket/alloc handshake runs first (the declared
/// length pins the version and page range), then fed bytes are cut into
/// page-sized chunks that ship through the pipelined, per-provider
/// batched put path under `chunk_window`, then the metadata tree is built
/// and the version committed.
///
/// A stream is fed by its caller, and a feed's completion is withheld
/// until there is headroom for the next page, so the client never holds
/// more than `max(chunk_window, 2) × page_size` un-acknowledged bytes. A
/// whole-buffer [`ClientOp::Write`] feeds its payload in one piece as
/// soon as the placements arrive and commits at once.
#[derive(Debug)]
struct WriteSess {
    blob: BlobId,
    /// A whole-buffer write's payload, until the placements arrive.
    data: Option<Payload>,
    ticket: Option<WriteTicket>,
    chunks: Vec<ChunkDescriptor>,
    builder: Option<TreeBuilder>,
    root: Option<crate::meta::NodeRef>,
    phase: WritePhase,
    /// Partial page under accumulation (real-data streams).
    acc: BytesMut,
    /// Partial page under accumulation (size-only simulation streams).
    acc_sim: u64,
    /// `Some(true)` once the first feed fixed the payload flavor to
    /// real data, `Some(false)` for simulation; mixing is a protocol
    /// error.
    data_mode: Option<bool>,
    /// Index into `chunks` of the next page to cut.
    next_page: u64,
    /// Cut page stores not yet issued because the window is full, one
    /// batch per provider in the order providers were first seen; a
    /// store for a provider already queued joins its batch.
    queued: VecDeque<(NodeId, Vec<(ChunkKey, Payload)>)>,
    /// Replica acks still owed per page (indexed like `chunks`); a page's
    /// bytes stay "buffered" until its last replica acks.
    page_acks: Vec<u32>,
    /// Bytes cut but not yet fully acknowledged (each page counted once
    /// — replicas share one refcounted buffer).
    unacked_bytes: u64,
    /// Total bytes accepted so far.
    fed: u64,
    /// High-water mark of `buffered()`, exported as the
    /// `client.stream_buffered_bytes` gauge.
    peak_buffered: u64,
    /// Replacement placements requested so far (bounded by
    /// [`RetryPolicy::max_reallocs`]).
    reallocs: u32,
}

impl WriteSess {
    fn new(blob: BlobId, data: Option<Payload>) -> Self {
        WriteSess {
            blob,
            data,
            ticket: None,
            chunks: Vec::new(),
            builder: None,
            root: None,
            phase: WritePhase::Ticket,
            acc: BytesMut::new(),
            acc_sim: 0,
            data_mode: None,
            next_page: 0,
            queued: VecDeque::new(),
            page_acks: Vec::new(),
            unacked_bytes: 0,
            fed: 0,
            peak_buffered: 0,
            reallocs: 0,
        }
    }

    fn page_size(&self) -> u64 {
        self.ticket.as_ref().map_or(0, |t| t.page_size)
    }

    fn declared(&self) -> u64 {
        self.ticket.as_ref().map_or(0, |t| t.len)
    }

    /// Bytes this stream currently holds: the partial page plus every
    /// cut-but-not-fully-acked page.
    fn buffered(&self) -> u64 {
        self.acc.len() as u64 + self.acc_sim + self.unacked_bytes
    }

    /// May a feed completion be released? Yes once every cut page is at
    /// least in flight and there is headroom for one more page under the
    /// window cap — so the *next* feed cannot push `buffered()` past
    /// `chunk_window × page_size`.
    fn feed_ready(&self, window: usize) -> bool {
        if !self.queued.is_empty() {
            return false;
        }
        if window == 0 {
            return true;
        }
        let cap = (window as u64).max(2) * self.page_size();
        self.unacked_bytes == 0 || self.buffered() + self.page_size() <= cap
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadPhase {
    /// Awaiting the version lookup.
    Version,
    /// Running the metadata descent for the whole range.
    Meta,
    /// Stream open, no fetch in flight; awaiting the next pull.
    Idle,
    /// One batch of chunk fetches in flight.
    Fetching,
}

/// A read session. The version lookup and the (bulk, cache-warming)
/// metadata descent resolve the whole chunk plan — an O(#pages) table of
/// descriptors, not data. A stream then fetches at most `chunk_window`
/// pages per [`ClientOp::ReadStreamNext`], so a multi-GB read runs in
/// O(window) data memory; a whole-buffer [`ClientOp::Read`] fetches every
/// page as one batch right away.
#[derive(Debug)]
struct ReadSess {
    blob: BlobId,
    offset: u64,
    len: u64,
    info: Option<VersionInfo>,
    reader: Option<TreeReader>,
    phase: ReadPhase,
    page0: u64,
    /// The resolved page plan not yet handed to a batch.
    sources: VecDeque<PageSource>,
    /// Pages of the plan handed to batches so far.
    cursor: usize,
    /// Plan index of `parts[0]` for the batch in flight.
    batch_base: usize,
    /// The batch in flight.
    parts: Vec<Option<Payload>>,
    /// Per-provider fetches of the batch not yet issued (reversed;
    /// `pop()` yields the next); the in-flight window refills from here.
    pending: Vec<(NodeId, Vec<(usize, ChunkDescriptor)>)>,
    /// Whether this read already issued its one bulk `GetMetaRange`
    /// broadcast (at most one per read; later descent gaps use the
    /// per-node path).
    range_used: bool,
}

impl ReadSess {
    fn new(blob: BlobId, offset: u64, len: u64) -> Self {
        ReadSess {
            blob,
            offset,
            len,
            info: None,
            reader: None,
            phase: ReadPhase::Version,
            page0: 0,
            sources: VecDeque::new(),
            cursor: 0,
            batch_base: 0,
            parts: Vec::new(),
            pending: Vec::new(),
            range_used: false,
        }
    }

    fn page_size(&self) -> u64 {
        self.info.as_ref().map_or(0, |i| i.page_size)
    }

    /// Version + page interval of this read's bulk range query. The tree
    /// being descended is the one rooted at the version that *created*
    /// the root node — equal to the read version except when a recovered
    /// no-op version republished its predecessor's root.
    fn range_query(&self) -> (VersionId, PageInterval) {
        let info = self.info.as_ref().expect("info set");
        let version = match info.root {
            Some(crate::meta::NodeRef::Node { version, .. }) => version,
            _ => info.version,
        };
        let last = (self.offset + self.len - 1) / info.page_size;
        (version, PageInterval::new(self.page0, last - self.page0 + 1))
    }
}

#[derive(Debug)]
enum SessKind {
    Create,
    Snapshot(BlobId),
    Decommission(BlobId),
    // Boxed: write and read sessions embed builders, descriptor tables
    // and pending queues, and are much larger than the other variants.
    Write(Box<WriteSess>),
    Read(Box<ReadSess>),
}

/// Causal-trace state of one operation: the root span identity plus the
/// start time of the protocol stage currently in flight. Present only
/// when the embedding runtime exposes a [`sads_sim::SpanSink`]; with
/// tracing off the field is `None` and the client does no span work.
#[derive(Debug)]
struct OpTrace {
    /// Root context: `span_id` is the operation's `Op` span, under which
    /// every stage span and (via ambient propagation) every network and
    /// server-side handle span of this operation nests.
    ctx: TraceCtx,
    /// Operation label: `"create"`, `"write"`, `"read_stream"`, ….
    op: &'static str,
    /// When the current stage began (stage spans are emitted lazily, at
    /// the transition out of the stage).
    stage_start: SimTime,
}

/// Request ids one session awaits in its current phase.
#[derive(Debug)]
struct Outstanding {
    sid: u64,
    reqs: HashSet<u64>,
}

impl Outstanding {
    fn len(&self) -> usize {
        self.reqs.len()
    }

    fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }
}

#[derive(Debug)]
struct Session {
    started: SimTime,
    kind: SessKind,
    /// Opened by `OpenWriteStream`/`OpenReadStream`: its caller drives it
    /// with sub-operations, and its deadline is an *idle* timeout. Every
    /// other session is a one-shot operation with an absolute deadline.
    stream: bool,
    out: Outstanding,
    /// Span bookkeeping when tracing is on (`None` = zero trace work).
    trace: Option<OpTrace>,
    waiter: Option<Waiter>,
    /// A fatal error that arrived while no sub-op was parked; delivered
    /// to (and ending the stream at) the next sub-op.
    failed: Option<BlobError>,
    /// Progress clock for the idle-timeout check: message arrivals and
    /// sub-operations refresh it.
    last_activity: SimTime,
}

impl Session {
    /// Name of the protocol stage the session is currently in.
    fn stage(&self) -> &'static str {
        match &self.kind {
            SessKind::Create => "create",
            SessKind::Snapshot(_) => "snapshot",
            SessKind::Decommission(_) => "decommission",
            SessKind::Write(w) => match w.phase {
                WritePhase::Ticket => "ticket",
                WritePhase::Alloc => "alloc",
                WritePhase::Streaming => "stream",
                WritePhase::Draining if self.stream => "drain",
                WritePhase::Draining => "chunks",
                WritePhase::MetaResolve => "meta_resolve",
                WritePhase::MetaPut => "meta_put",
                WritePhase::Commit => "commit",
            },
            SessKind::Read(r) => match r.phase {
                ReadPhase::Version => "version",
                ReadPhase::Meta => "meta",
                ReadPhase::Idle => "stream",
                ReadPhase::Fetching => "chunks",
            },
        }
    }
}

/// Which sub-protocol a pending request id belongs to, plus retry state
/// for chunk transfers.
#[derive(Debug)]
enum ReqRole {
    Plain,
    /// A chunk fetch for read-part `idx`. `first` is the replica index
    /// tried initially; `attempts` counts tries so far, and failover
    /// walks `replicas[(first + attempts) % len]` until every replica
    /// was tried once. `refreshed` marks a fetch re-issued after a
    /// degraded-read placement refresh (one refresh per chunk per op).
    ChunkGet {
        idx: usize,
        desc: ChunkDescriptor,
        first: usize,
        attempts: usize,
        refreshed: bool,
    },
    /// One provider's batch of chunk fetches (batch slots grouped by
    /// the replica chosen for each chunk). A single deadline guards the
    /// whole batch; failed or unanswered items re-enter the per-chunk
    /// replica walk individually.
    ChunkGetBatch {
        target: NodeId,
        items: Vec<(usize, ChunkDescriptor)>,
    },
    /// A metadata fetch carrying the requested keys (during resolve).
    MetaGet,
    /// One provider's slice of the bulk metadata range query a cold read
    /// opens with (`target` kept for continuation requests).
    MetaRange {
        target: NodeId,
    },
    /// One provider's batch of chunk stores, kept so a timed-out or
    /// refused store can be re-sent (same target, then a replacement).
    ChunkPut {
        target: NodeId,
        items: Vec<(ChunkKey, Payload)>,
        attempts: u32,
    },
    /// A replacement-placement request for chunk stores that exhausted
    /// their target (`failed`); `items` are re-sent to the new placement.
    ReAlloc {
        failed: NodeId,
        items: Vec<(ChunkKey, Payload)>,
    },
    /// A degraded-read placement refresh: re-fetch the leaf of read-part
    /// `idx` directly (bypassing the cache) to pick up repair patches.
    LeafRefresh {
        idx: usize,
        desc: ChunkDescriptor,
    },
}

/// What a session's state machine decided after one message or
/// sub-operation.
enum Step {
    /// Keep waiting; nothing completes.
    Park,
    /// Complete the parked sub-operation; the stream stays open.
    Complete(Result<OpOutput, BlobError>, u64),
    /// Complete the parked (sub-)operation and end the session (the
    /// op's reply, commit acknowledged, eof delivered, or a fatal error
    /// with a waiter to receive it).
    Finish(Result<OpOutput, BlobError>, u64),
    /// Fatal error with no sub-operation parked: remember it; the next
    /// sub-operation delivers it and reaps the stream.
    Fatal(BlobError),
}

/// Route a fatal error: to the parked (sub-)operation if one is waiting,
/// stored for the next sub-operation otherwise.
fn fail(waiter: &Option<Waiter>, err: BlobError) -> Step {
    match waiter {
        Some(_) => Step::Finish(Err(err), 0),
        None => Step::Fatal(err),
    }
}

/// Everything the state machines share across sessions: the
/// deployment's addresses, the tuning, the request table and the
/// metadata-node cache.
struct Conn {
    id: ClientId,
    vman: NodeId,
    pman: NodeId,
    meta_providers: Vec<NodeId>,
    cfg: ClientConfig,
    req_index: HashMap<u64, (u64, ReqRole)>,
    next_req: u64,
    /// Metadata nodes seen (fetched or written) by this client. Nodes are
    /// immutable, so hits skip whole descent rounds with no coherence
    /// protocol.
    meta_cache: MetaCache,
}

/// The embeddable client core. Drive it with `start_op`, feed it every
/// incoming message/timer, and collect [`Completion`]s.
pub struct ClientCore {
    conn: Conn,
    sessions: HashMap<u64, Session>,
    next_sid: u64,
}

impl ClientCore {
    /// A client of the deployment whose managers and (static) metadata
    /// provider ring are given.
    pub fn new(
        id: ClientId,
        vman: NodeId,
        pman: NodeId,
        meta_providers: Vec<NodeId>,
        cfg: ClientConfig,
    ) -> Self {
        assert!(!meta_providers.is_empty(), "at least one metadata provider");
        ClientCore {
            conn: Conn {
                id,
                vman,
                pman,
                meta_providers,
                cfg,
                req_index: HashMap::new(),
                next_req: 1,
                meta_cache: MetaCache::new(cfg.meta_cache_nodes),
            },
            sessions: HashMap::new(),
            next_sid: 1,
        }
    }

    /// This client's principal id.
    pub fn id(&self) -> ClientId {
        self.conn.id
    }

    /// Operations currently in flight.
    pub fn active_ops(&self) -> usize {
        self.sessions.len()
    }

    /// Does this timer token belong to the client core?
    pub fn owns_timer(token: u64) -> bool {
        token & CLIENT_TIMER_BIT != 0
    }

    /// Begin an operation; its completion will carry `tag`.
    ///
    /// Most operations complete later, through [`handle_msg`] /
    /// [`handle_timer`]; stream sub-operations (feeds, pulls) can
    /// complete synchronously when the stream already has headroom, so
    /// completions may also be returned here.
    ///
    /// [`handle_msg`]: ClientCore::handle_msg
    /// [`handle_timer`]: ClientCore::handle_timer
    pub fn start_op(&mut self, env: &mut dyn Env, op: ClientOp, tag: u64) -> Vec<Completion> {
        // Stream sub-operations act on an existing session instead of
        // opening one.
        let op = match op {
            ClientOp::FeedWriteStream { stream, data } => return self.feed(env, stream, data, tag),
            ClientOp::CommitWriteStream { stream } => return self.commit(env, stream, tag),
            ClientOp::AbortWriteStream { stream } | ClientOp::CloseReadStream { stream } => {
                return self.close(env, stream, tag)
            }
            ClientOp::ReadStreamNext { stream } => return self.next(env, stream, tag),
            op => op,
        };
        let stream =
            matches!(op, ClientOp::OpenWriteStream { .. } | ClientOp::OpenReadStream { .. });
        let sid = self.next_sid;
        self.next_sid += 1;
        let started = env.now();
        env.set_timer(self.conn.cfg.op_timeout, CLIENT_TIMER_BIT | sid);
        let mut out = Outstanding { sid, reqs: HashSet::new() };
        let req = self.conn.fresh(&mut out, ReqRole::Plain);
        let client = self.conn.id;
        // Every operation opens with one request to the version manager.
        let (op_name, kind, msg) = match op {
            ClientOp::Create { spec } => {
                ("create", SessKind::Create, Msg::CreateBlob { req, client, spec })
            }
            ClientOp::Snapshot { blob, version } => (
                "snapshot",
                SessKind::Snapshot(blob),
                Msg::SnapshotVersion { req, client, blob, version },
            ),
            ClientOp::Decommission { blob } => (
                "decommission",
                SessKind::Decommission(blob),
                Msg::DecommissionBlob { req, client, blob },
            ),
            ClientOp::Write { blob, kind, data } => {
                let len = data.len();
                let sess = Box::new(WriteSess::new(blob, Some(data)));
                ("write", SessKind::Write(sess), Msg::Ticket { req, client, blob, kind, len })
            }
            ClientOp::OpenWriteStream { blob, kind, len } => {
                let sess = Box::new(WriteSess::new(blob, None));
                (
                    "write_stream",
                    SessKind::Write(sess),
                    Msg::Ticket { req, client, blob, kind, len },
                )
            }
            ClientOp::Read { blob, version, offset, len }
            | ClientOp::OpenReadStream { blob, version, offset, len } => (
                if stream { "read_stream" } else { "read" },
                SessKind::Read(Box::new(ReadSess::new(blob, offset, len))),
                Msg::GetVersion { req, client, blob, version },
            ),
            _ => unreachable!("stream sub-ops handled above"),
        };
        let trace = env.span_sink().map(|sink| {
            // Nest under an ambient context when one exists (e.g. the S3
            // gateway's per-request span); otherwise open a fresh trace.
            let (trace_id, parent) = match env.trace_ctx() {
                Some(tc) => (tc.trace_id, tc.span_id),
                None => (sink.next_id(), 0),
            };
            let span_id = sink.next_id();
            OpTrace {
                ctx: TraceCtx { trace_id, span_id, parent },
                op: op_name,
                stage_start: started,
            }
        });
        env.set_trace_ctx(trace.as_ref().map(|t| t.ctx));
        let kind_of_waiter = if stream { WaiterKind::Open } else { WaiterKind::Op };
        self.sessions.insert(
            sid,
            Session {
                started,
                kind,
                stream,
                out,
                trace,
                waiter: Some(Waiter { tag, started, kind: kind_of_waiter, bytes: 0 }),
                failed: None,
                last_activity: started,
            },
        );
        env.send(self.conn.vman, msg);
        env.set_trace_ctx(None);
        vec![]
    }

    /// Feed a timer owned by the client core (see [`ClientCore::owns_timer`]).
    pub fn handle_timer(&mut self, env: &mut dyn Env, token: u64) -> Vec<Completion> {
        if token & RETRY_TIMER_BIT != 0 {
            // A backoff expired: the deferred resend registered under this
            // request id goes out now. Stale timers (op already finished)
            // fall out at the request-index lookup.
            let req = token & !(CLIENT_TIMER_BIT | RETRY_TIMER_BIT);
            self.fire_deferred_resend(env, req);
            return vec![];
        }
        if token & CHUNK_TIMEOUT_BIT != 0 {
            // A chunk RPC went unanswered (provider crashed or drowned in
            // backlog): synthesize the matching error locally so the
            // normal failover/retry path handles timeouts and explicit
            // refusals identically. Stale timers (request already
            // answered) fall out at the request-index lookup.
            let req = token & !(CLIENT_TIMER_BIT | CHUNK_TIMEOUT_BIT);
            let msg = match self.conn.req_index.get(&req) {
                Some((_, ReqRole::ChunkPut { .. })) => {
                    Msg::PutChunkErr { req, err: ChunkErr::Unreachable }
                }
                Some(_) => Msg::GetChunkErr { req, err: ChunkErr::NotFound },
                None => return vec![],
            };
            return self.handle_msg(env, NodeId::EXTERNAL, msg);
        }
        let sid = token & !CLIENT_TIMER_BIT;
        let Some(sess) = self.sessions.get(&sid) else { return vec![] };
        // A one-shot op's deadline is absolute. A stream is long-lived:
        // its deadline is an *idle* timeout, so if the stream made
        // progress since the timer was armed, re-arm for the remainder.
        if sess.stream {
            let deadline = sess.last_activity + self.conn.cfg.op_timeout;
            let now = env.now();
            if deadline > now {
                env.set_timer(deadline.since(now), CLIENT_TIMER_BIT | sid);
                return vec![];
            }
        }
        self.abort(env, sid, BlobError::Timeout)
    }

    /// Send the chunk store registered for a deferred (backed-off) resend
    /// under request id `req`, arming a fresh RPC deadline. No-op if the
    /// operation finished (or timed out) while the backoff ran.
    fn fire_deferred_resend(&mut self, env: &mut dyn Env, req: u64) {
        let Some((sid, ReqRole::ChunkPut { target, items, .. })) = self.conn.req_index.get(&req)
        else {
            return;
        };
        let sid = *sid;
        let target = *target;
        let msg = if items.len() == 1 {
            let (key, data) = items[0].clone();
            Msg::PutChunk { req, client: self.conn.id, key, data }
        } else {
            Msg::PutChunkBatch { req, client: self.conn.id, items: items.clone() }
        };
        // The resend belongs to the operation's causal tree.
        let tc = self.sessions.get(&sid).and_then(|s| s.trace.as_ref().map(|t| t.ctx));
        env.set_trace_ctx(tc);
        env.send(target, msg);
        env.set_trace_ctx(None);
        env.set_timer(self.conn.cfg.retry.put_timeout, CLIENT_TIMER_BIT | CHUNK_TIMEOUT_BIT | req);
    }

    /// Feed an incoming message. Returns any operations that completed.
    pub fn handle_msg(&mut self, env: &mut dyn Env, _from: NodeId, msg: Msg) -> Vec<Completion> {
        let Some(req) = req_of(&msg) else { return vec![] };
        let Some((sid, role)) = self.conn.req_index.remove(&req) else { return vec![] };
        let Some(sess) = self.sessions.get_mut(&sid) else { return vec![] };
        sess.out.reqs.remove(&req);
        sess.last_activity = env.now();
        // Restore this operation's causal context so every message sent
        // while advancing the protocol nests under its root span, and
        // remember the stage so a phase transition can close its span.
        let stage_before = sess.stage();
        env.set_trace_ctx(sess.trace.as_ref().map(|t| t.ctx));
        let step = match &sess.kind {
            SessKind::Write(_) => self.conn.write_step(sess, role, msg, env),
            SessKind::Read(_) => self.conn.read_step(sess, role, msg, env),
            kind => Step::Finish(one_shot_reply(kind, msg), 0),
        };
        self.epilogue(env, sid, stage_before, step)
    }

    /// Apply a [`Step`] to session `sid`: deliver the waiter's
    /// completion, end the session on [`Step::Finish`], store a fatal
    /// error, and close the stage span the step moved out of.
    fn epilogue(
        &mut self,
        env: &mut dyn Env,
        sid: u64,
        stage_before: &'static str,
        step: Step,
    ) -> Vec<Completion> {
        let out = match (step, self.sessions.get_mut(&sid)) {
            (Step::Finish(result, bytes), _) => self.finish(env, sid, stage_before, result, bytes),
            (_, None) => vec![],
            (step, Some(sess)) => {
                let now = env.now();
                if sess.stage() != stage_before {
                    if let Some(t) = sess.trace.as_mut() {
                        Self::record_stage(env, &*t, stage_before, now);
                        t.stage_start = now;
                    }
                }
                match step {
                    Step::Complete(result, bytes) => {
                        sess.last_activity = now;
                        let waiter = sess.waiter.take();
                        if let (Some(t), Some(wt)) = (&sess.trace, &waiter) {
                            Self::record_sub_op(env, t, wt, now);
                        }
                        waiter
                            .map(|wt| Completion {
                                tag: wt.tag,
                                result,
                                started: wt.started,
                                finished: now,
                                bytes,
                            })
                            .into_iter()
                            .collect()
                    }
                    Step::Fatal(err) => {
                        for req in sess.out.reqs.drain() {
                            self.conn.req_index.remove(&req);
                        }
                        sess.failed = Some(err);
                        vec![]
                    }
                    Step::Park | Step::Finish(..) => vec![],
                }
            }
        };
        env.set_trace_ctx(None);
        out
    }

    /// End session `sid`: forget its requests, close its stage (`stage`)
    /// and op spans, and hand `result` to its parked (sub-)operation.
    fn finish(
        &mut self,
        env: &mut dyn Env,
        sid: u64,
        stage: &'static str,
        result: Result<OpOutput, BlobError>,
        bytes: u64,
    ) -> Vec<Completion> {
        let Some(mut sess) = self.sessions.remove(&sid) else { return vec![] };
        let now = env.now();
        for req in &sess.out.reqs {
            self.conn.req_index.remove(req);
        }
        let waiter = sess.waiter.take();
        if let Some(t) = &sess.trace {
            if let Some(wt) = &waiter {
                Self::record_sub_op(env, t, wt, now);
            }
            Self::record_stage(env, t, stage, now);
            Self::record_op(env, t, sess.started, now);
        }
        waiter
            .map(|wt| Completion { tag: wt.tag, result, started: wt.started, finished: now, bytes })
            .into_iter()
            .collect()
    }

    /// End session `sid` in its current stage with `err`.
    fn abort(&mut self, env: &mut dyn Env, sid: u64, err: BlobError) -> Vec<Completion> {
        let Some(stage) = self.sessions.get(&sid).map(Session::stage) else { return vec![] };
        self.finish(env, sid, stage, Err(err), 0)
    }

    /// End stream `sid`, delivering `err` to the sub-operation `tag` that
    /// found the stream failed or itself broke the stream's protocol.
    fn reap(
        &mut self,
        env: &mut dyn Env,
        sid: u64,
        tag: u64,
        kind: WaiterKind,
        err: BlobError,
    ) -> Vec<Completion> {
        if let Some(sess) = self.sessions.get_mut(&sid) {
            sess.waiter = Some(Waiter { tag, started: env.now(), kind, bytes: 0 });
        }
        self.abort(env, sid, err)
    }

    /// Admit a stream sub-operation of `kind` on `sid`: `Some` carries
    /// the completions that end it right here (a stored failure, or an
    /// unknown, wrong-kind or busy stream).
    fn admit(
        &mut self,
        env: &mut dyn Env,
        sid: u64,
        tag: u64,
        kind: WaiterKind,
    ) -> Option<Vec<Completion>> {
        let now = env.now();
        let reject = |why| Some(vec![instant(tag, now, Err(BlobError::Protocol(why)))]);
        let Some(sess) = self.sessions.get_mut(&sid) else { return reject("unknown stream") };
        if let Some(err) = sess.failed.take() {
            return Some(self.reap(env, sid, tag, kind, err));
        }
        match (&sess.kind, kind) {
            (SessKind::Write(_), WaiterKind::Feed | WaiterKind::Commit) if sess.stream => {}
            (SessKind::Read(_), WaiterKind::Next) if sess.stream => {}
            (_, WaiterKind::Next) => return reject("not a read stream"),
            _ => return reject("not a write stream"),
        }
        if sess.waiter.is_some() {
            return reject("stream sub-operation already in flight");
        }
        None
    }

    /// Close a stream (write-stream abort or read-stream close).
    /// Idempotent: closing an already-gone stream succeeds, so handle
    /// drop paths can race eof/timeout teardown safely.
    fn close(&mut self, env: &mut dyn Env, sid: u64, tag: u64) -> Vec<Completion> {
        let now = env.now();
        let closed = instant(tag, now, Ok(OpOutput::StreamClosed { stream: sid }));
        match self.sessions.get(&sid) {
            None => vec![closed],
            Some(sess) if !sess.stream => {
                vec![instant(tag, now, Err(BlobError::Protocol("not a stream")))]
            }
            Some(_) => {
                // Handles are half-duplex, so no sub-operation should be
                // parked here — but a racing caller gets a clean error,
                // not silence.
                let mut out = self.abort(env, sid, BlobError::Protocol("stream closed"));
                out.push(closed);
                out
            }
        }
    }

    /// Push bytes into an open write stream (see
    /// [`ClientOp::FeedWriteStream`]). Completes synchronously when the
    /// stream has headroom; otherwise the completion parks until enough
    /// chunk acks arrive.
    fn feed(&mut self, env: &mut dyn Env, sid: u64, data: Payload, tag: u64) -> Vec<Completion> {
        if let Some(out) = self.admit(env, sid, tag, WaiterKind::Feed) {
            return out;
        }
        let now = env.now();
        let sess = self.sessions.get_mut(&sid).expect("admitted");
        let SessKind::Write(w) = &mut sess.kind else { unreachable!("admitted") };
        if w.phase != WritePhase::Streaming {
            return vec![instant(
                tag,
                now,
                Err(BlobError::Protocol("stream is not accepting feeds")),
            )];
        }
        let len = data.len();
        sess.last_activity = now;
        env.set_trace_ctx(sess.trace.as_ref().map(|t| t.ctx));
        let absorbed = self.conn.absorb(&mut sess.out, w, data, env);
        env.set_trace_ctx(None);
        if let Err(why) = absorbed {
            return self.reap(env, sid, tag, WaiterKind::Feed, BlobError::Protocol(why));
        }
        let buffered = w.buffered();
        if buffered > w.peak_buffered {
            w.peak_buffered = buffered;
            env.record("client.stream_buffered_bytes", buffered as f64);
        }
        if w.feed_ready(self.conn.cfg.chunk_window) {
            let fed = Ok(OpOutput::Fed { stream: sid });
            return vec![Completion { tag, result: fed, started: now, finished: now, bytes: len }];
        }
        sess.waiter = Some(Waiter { tag, started: now, kind: WaiterKind::Feed, bytes: len });
        vec![]
    }

    /// Publish an open write stream (see [`ClientOp::CommitWriteStream`]):
    /// drain in-flight chunk stores, then run the metadata/commit tail of
    /// the write protocol.
    fn commit(&mut self, env: &mut dyn Env, sid: u64, tag: u64) -> Vec<Completion> {
        if let Some(out) = self.admit(env, sid, tag, WaiterKind::Commit) {
            return out;
        }
        let now = env.now();
        let sess = self.sessions.get_mut(&sid).expect("admitted");
        let stage_before = sess.stage();
        let SessKind::Write(w) = &mut sess.kind else { unreachable!("admitted") };
        if w.phase != WritePhase::Streaming {
            let why = "stream is not accepting a commit";
            return vec![instant(tag, now, Err(BlobError::Protocol(why)))];
        }
        if w.fed != w.declared() {
            let why = "commit before the declared length was fed";
            return self.reap(env, sid, tag, WaiterKind::Commit, BlobError::Protocol(why));
        }
        sess.last_activity = now;
        sess.waiter = Some(Waiter { tag, started: now, kind: WaiterKind::Commit, bytes: 0 });
        env.set_trace_ctx(sess.trace.as_ref().map(|t| t.ctx));
        let step = self.conn.drain(&mut sess.out, w, env);
        self.epilogue(env, sid, stage_before, step)
    }

    /// Pull the next window of bytes from an open read stream (see
    /// [`ClientOp::ReadStreamNext`]); past the last page, deliver eof.
    fn next(&mut self, env: &mut dyn Env, sid: u64, tag: u64) -> Vec<Completion> {
        if let Some(out) = self.admit(env, sid, tag, WaiterKind::Next) {
            return out;
        }
        let now = env.now();
        let sess = self.sessions.get_mut(&sid).expect("admitted");
        let stage_before = sess.stage();
        let SessKind::Read(r) = &mut sess.kind else { unreachable!("admitted") };
        if r.phase != ReadPhase::Idle {
            return vec![instant(tag, now, Err(BlobError::Protocol("stream is not open")))];
        }
        sess.last_activity = now;
        sess.waiter = Some(Waiter { tag, started: now, kind: WaiterKind::Next, bytes: 0 });
        // Besides the pipelining window, cap one delivered batch below
        // 32 MiB: glibc never raises its dynamic mmap threshold past that
        // (`DEFAULT_MMAP_THRESHOLD_MAX`), so a ≥ 32 MiB assembly buffer is
        // freshly mmap'd — and page-fault-zeroed — on every `next()`,
        // which measures ~6× slower than reusable sub-threshold buffers
        // (E15). The memory bound only tightens.
        const BATCH_BYTES_CAP: u64 = 16 << 20;
        let page_cap = ((BATCH_BYTES_CAP / r.page_size().max(1)) as usize).max(1);
        let mut pages = r.sources.len().min(page_cap);
        if self.conn.cfg.chunk_window > 0 {
            pages = pages.min(self.conn.cfg.chunk_window);
        }
        env.set_trace_ctx(sess.trace.as_ref().map(|t| t.ctx));
        let step = self.conn.fetch(&mut sess.out, true, r, pages, env);
        self.epilogue(env, sid, stage_before, step)
    }

    /// Close the stage span that just ended (`start` = when the stage
    /// began, kept in the session's [`OpTrace`]).
    fn record_stage(env: &mut dyn Env, t: &OpTrace, stage: &'static str, end: SimTime) {
        Self::record_span(env, t, stage, t.stage_start, end);
    }

    /// Emit a Stage span for one stream sub-operation (the open
    /// handshake, a parked feed, the commit drain, a pull). One-shot ops
    /// and synchronous completions (start == end, no latency
    /// information) are skipped.
    fn record_sub_op(env: &mut dyn Env, t: &OpTrace, wt: &Waiter, end: SimTime) {
        if let Some(label) = wt.kind.label() {
            if wt.started != end {
                Self::record_span(env, t, label, wt.started, end);
            }
        }
    }

    fn record_span(env: &mut dyn Env, t: &OpTrace, op: &'static str, start: SimTime, end: SimTime) {
        let Some(sink) = env.span_sink() else { return };
        sink.record(SpanRecord {
            trace: t.ctx.trace_id,
            span: sink.next_id(),
            parent: t.ctx.span_id,
            service: "client",
            op,
            node: env.id().0 as u64,
            start_ns: start.as_nanos(),
            end_ns: end.as_nanos(),
            kind: SpanKind::Stage,
            class: SpanClass::Control,
            queue_ns: 0,
            xfer_ns: 0,
            wire_ns: 0,
        });
    }

    /// Close the operation's root span.
    fn record_op(env: &mut dyn Env, t: &OpTrace, started: SimTime, end: SimTime) {
        let Some(sink) = env.span_sink() else { return };
        sink.record(SpanRecord {
            trace: t.ctx.trace_id,
            span: t.ctx.span_id,
            parent: t.ctx.parent,
            service: "client",
            op: t.op,
            node: env.id().0 as u64,
            start_ns: started.as_nanos(),
            end_ns: end.as_nanos(),
            kind: SpanKind::Op,
            class: SpanClass::Control,
            queue_ns: 0,
            xfer_ns: 0,
            wire_ns: 0,
        });
    }
}

/// A zero-duration completion (sub-ops that finish synchronously).
fn instant(tag: u64, now: SimTime, result: Result<OpOutput, BlobError>) -> Completion {
    Completion { tag, result, started: now, finished: now, bytes: 0 }
}

/// The version manager's answer to a create, snapshot or decommission.
fn one_shot_reply(kind: &SessKind, msg: Msg) -> Result<OpOutput, BlobError> {
    match (kind, msg) {
        (SessKind::Create, Msg::CreateBlobOk { blob, .. }) => Ok(OpOutput::Created(blob)),
        (SessKind::Snapshot(blob), Msg::SnapshotVersionOk { version, .. }) => {
            Ok(OpOutput::Snapshotted { blob: *blob, version })
        }
        (SessKind::Snapshot(_), Msg::SnapshotVersionErr { err, .. }) => Err(err),
        (SessKind::Decommission(blob), Msg::DecommissionBlobOk { ok, .. }) => {
            Ok(OpOutput::Decommissioned { blob: *blob, ok })
        }
        (SessKind::Create, _) => Err(BlobError::Protocol("unexpected reply to create")),
        (SessKind::Snapshot(_), _) => Err(BlobError::Protocol("unexpected reply to snapshot")),
        _ => Err(BlobError::Protocol("unexpected reply to decommission")),
    }
}

impl Conn {
    /// Register a new request of session `out.sid` under `role`.
    fn fresh(&mut self, out: &mut Outstanding, role: ReqRole) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        self.req_index.insert(req, (out.sid, role));
        out.reqs.insert(req);
        req
    }

    /// The in-flight chunk-transfer cap per operation.
    fn window(&self) -> usize {
        match self.cfg.chunk_window {
            0 => usize::MAX,
            w => w,
        }
    }

    // ---- the write machine -------------------------------------------

    /// One write protocol step, for either kind of caller.
    fn write_step(
        &mut self,
        sess: &mut Session,
        role: ReqRole,
        msg: Msg,
        env: &mut dyn Env,
    ) -> Step {
        let Session { kind: SessKind::Write(w), out, waiter, .. } = sess else {
            unreachable!("write session")
        };
        let client = self.id;
        match (w.phase, msg) {
            (WritePhase::Ticket, Msg::TicketOk { ticket, .. }) => {
                let req = self.fresh(out, ReqRole::Plain);
                let alloc = Msg::Alloc {
                    req,
                    client,
                    chunks: ticket.interval().len as u32,
                    replication: ticket.replication,
                    chunk_size: ticket.page_size,
                };
                env.send(self.pman, alloc);
                w.ticket = Some(ticket);
                w.phase = WritePhase::Alloc;
                Step::Park
            }
            (WritePhase::Ticket | WritePhase::Commit, Msg::TicketErr { err, .. }) => {
                Step::Finish(Err(err), 0)
            }

            (WritePhase::Alloc, Msg::AllocOk { placement, .. }) => {
                let ticket = w.ticket.clone().expect("ticket set");
                let interval = ticket.interval();
                debug_assert_eq!(placement.len() as u64, interval.len);
                let blob = w.blob;
                w.chunks = placement
                    .into_iter()
                    .zip(interval.start..)
                    .map(|(replicas, page)| ChunkDescriptor {
                        key: ChunkKey { blob, version: ticket.version, page },
                        replicas,
                        size: ticket.page_size,
                    })
                    .collect();
                w.page_acks = vec![0; w.chunks.len()];
                w.phase = WritePhase::Streaming;
                let Some(data) = w.data.take() else {
                    let opened = OpOutput::WriteStreamOpened {
                        stream: out.sid,
                        version: ticket.version,
                        offset: ticket.offset,
                        len: ticket.len,
                        page_size: ticket.page_size,
                    };
                    return Step::Complete(Ok(opened), 0);
                };
                // A whole-buffer write feeds everything and commits now.
                if let Err(why) = self.absorb(out, w, data, env) {
                    return fail(waiter, BlobError::Protocol(why));
                }
                self.drain(out, w, env)
            }
            (WritePhase::Alloc, Msg::AllocErr { available, .. }) => {
                let requested = w.ticket.as_ref().map_or(0, |t| t.interval().len as u32);
                Step::Finish(Err(BlobError::AllocationFailed { requested, available }), 0)
            }

            (WritePhase::Streaming | WritePhase::Draining, Msg::PutChunkOk { .. }) => {
                if let ReqRole::ChunkPut { items, .. } = role {
                    let first = w.chunks.first().map_or(0, |d| d.key.page);
                    for (key, data) in &items {
                        let owed = &mut w.page_acks[(key.page - first) as usize];
                        if *owed > 0 {
                            *owed -= 1;
                            if *owed == 0 {
                                w.unacked_bytes = w.unacked_bytes.saturating_sub(data.len());
                            }
                        }
                    }
                }
                // The ack hands its slot to the next provider's batch —
                // even above the window, after a re-allocation burst —
                // and the window is topped up.
                if !w.queued.is_empty() {
                    self.issue_next_put(out, w, env);
                }
                self.pump(out, w, env);
                if w.phase == WritePhase::Draining && out.is_empty() {
                    return self.build_step(out, w, env);
                }
                match waiter {
                    Some(wt)
                        if wt.kind == WaiterKind::Feed && w.feed_ready(self.cfg.chunk_window) =>
                    {
                        Step::Complete(Ok(OpOutput::Fed { stream: out.sid }), wt.bytes)
                    }
                    _ => Step::Park,
                }
            }
            (WritePhase::Streaming | WritePhase::Draining, Msg::PutChunkErr { err, .. }) => {
                if err == ChunkErr::Blocked {
                    return fail(waiter, BlobError::Blocked(client));
                }
                let retry = self.cfg.retry;
                let ReqRole::ChunkPut { target, items, attempts } = role else {
                    return fail(waiter, chunk_err(err, client));
                };
                if !retry.enabled() {
                    return fail(waiter, chunk_err(err, client));
                }
                if err != ChunkErr::Full && attempts < retry.max_attempts {
                    // Same-target retry: register the resend under a
                    // fresh request id; the backoff timer sends it.
                    env.incr("client.rpc_retries", 1);
                    let role = ReqRole::ChunkPut { target, items, attempts: attempts + 1 };
                    let req = self.fresh(out, role);
                    env.set_timer(
                        retry.backoff(attempts),
                        CLIENT_TIMER_BIT | RETRY_TIMER_BIT | req,
                    );
                    return Step::Park;
                }
                // Target exhausted (dead) or full: ask the provider
                // manager for a replacement placement for these chunks.
                if w.reallocs < retry.max_reallocs {
                    w.reallocs += 1;
                    env.incr("client.reallocs", 1);
                    let chunks = items.len() as u32;
                    let req = self.fresh(out, ReqRole::ReAlloc { failed: target, items });
                    let chunk_size = w.page_size();
                    env.send(
                        self.pman,
                        Msg::Alloc { req, client, chunks, replication: 1, chunk_size },
                    );
                    return Step::Park;
                }
                match items.first() {
                    Some((key, _)) => fail(waiter, BlobError::ChunkUnavailable(*key)),
                    None => fail(waiter, chunk_err(err, client)),
                }
            }
            (WritePhase::Streaming | WritePhase::Draining, Msg::AllocOk { placement, .. }) => {
                // A replacement placement arrived for chunk stores whose
                // target died: patch the descriptor table so the metadata
                // tree records the replacement replica, then re-send each
                // chunk to its new home.
                let ReqRole::ReAlloc { failed, items } = role else {
                    return fail(waiter, BlobError::Protocol("unexpected write reply"));
                };
                debug_assert_eq!(placement.len(), items.len());
                let mut jobs: Vec<(NodeId, Vec<(ChunkKey, Payload)>)> = Vec::new();
                for ((key, data), replicas) in items.into_iter().zip(placement) {
                    let Some(&new_target) = replicas.first() else {
                        return fail(waiter, BlobError::ChunkUnavailable(key));
                    };
                    if let Some(desc) = w.chunks.iter_mut().find(|d| d.key == key) {
                        for r in &mut desc.replicas {
                            if *r == failed {
                                *r = new_target;
                            }
                        }
                    }
                    match jobs.iter_mut().find(|(t, _)| *t == new_target) {
                        Some((_, batch)) => batch.push((key, data)),
                        None => jobs.push((new_target, vec![(key, data)])),
                    }
                }
                for (target, batch) in jobs {
                    self.issue_chunk_put(out, target, batch, env);
                }
                Step::Park
            }
            (WritePhase::Streaming | WritePhase::Draining, Msg::AllocErr { available, .. }) => {
                // No replacement capacity anywhere: total unavailability.
                if let ReqRole::ReAlloc { items, .. } = role {
                    if let Some((key, _)) = items.first() {
                        return fail(waiter, BlobError::ChunkUnavailable(*key));
                    }
                }
                fail(waiter, BlobError::AllocationFailed { requested: 0, available })
            }

            (WritePhase::MetaResolve, Msg::GetMetaOk { nodes, .. }) => {
                let builder = w.builder.as_mut().expect("builder set");
                if let Err(err) = supply_nodes(&mut self.meta_cache, builder, nodes) {
                    return Step::Finish(Err(err), 0);
                }
                if !out.is_empty() {
                    return Step::Park;
                }
                self.build_step(out, w, env)
            }
            (WritePhase::MetaPut, Msg::PutMetaOk { .. }) => {
                if !out.is_empty() {
                    return Step::Park;
                }
                let ticket = w.ticket.as_ref().expect("ticket set");
                let req = self.fresh(out, ReqRole::Plain);
                let commit = Msg::Commit {
                    req,
                    client,
                    blob: w.blob,
                    version: ticket.version,
                    root: w.root.expect("root set in meta phase"),
                    size: ticket.new_size,
                };
                env.send(self.vman, commit);
                w.phase = WritePhase::Commit;
                Step::Park
            }
            (WritePhase::Commit, Msg::CommitOk { version, .. }) => {
                let ticket = w.ticket.as_ref().expect("ticket set");
                let (offset, len) = (ticket.offset, ticket.len);
                Step::Finish(Ok(OpOutput::Written { blob: w.blob, version, offset, len }), len)
            }

            (_, _) => fail(waiter, BlobError::Protocol("unexpected write reply")),
        }
    }

    /// Take fed bytes into a write session: cut full pages off them and
    /// ship what the window admits. Checked before anything is taken: the
    /// declared length and one payload flavor per stream.
    fn absorb(
        &mut self,
        out: &mut Outstanding,
        w: &mut WriteSess,
        data: Payload,
        env: &mut dyn Env,
    ) -> Result<(), &'static str> {
        if w.fed + data.len() > w.declared() {
            return Err("feed exceeds the declared stream length");
        }
        let real = matches!(data, Payload::Data(_));
        if w.data_mode.is_some_and(|m| m != real) {
            return Err("mixed real and simulated payloads in one stream");
        }
        w.data_mode = Some(real);
        w.fed += data.len();
        match data {
            Payload::Data(b) => {
                // Zero-copy fast path: with an empty accumulator, whole
                // pages are cut straight off the fed buffer as refcounted
                // sub-slices; only a sub-page tail goes through `acc`.
                let page = w.page_size() as usize;
                let mut at = 0usize;
                if page > 0 && w.acc.is_empty() {
                    while b.len() - at >= page && (w.next_page as usize) < w.chunks.len() {
                        Self::enqueue(w, Payload::Data(b.slice(at..at + page)));
                        at += page;
                    }
                }
                w.acc.extend_from_slice(&b[at..]);
            }
            Payload::Sim(n) => w.acc_sim += n,
        }
        Self::cut(w);
        self.pump(out, w, env);
        Ok(())
    }

    /// Queue one page payload for the next page slot, one send per
    /// replica. Each cut page is counted once in `unacked_bytes` until
    /// its last replica acks.
    fn enqueue(w: &mut WriteSess, payload: Payload) {
        let desc = &w.chunks[w.next_page as usize];
        if !desc.replicas.is_empty() {
            w.page_acks[w.next_page as usize] = desc.replicas.len() as u32;
            w.unacked_bytes += payload.len();
            for replica in &desc.replicas {
                let item = (desc.key, payload.clone());
                match w.queued.iter_mut().find(|(t, _)| t == replica) {
                    Some((_, items)) => items.push(item),
                    None => w.queued.push_back((*replica, vec![item])),
                }
            }
        }
        w.next_page += 1;
    }

    /// Cut full pages off the accumulator into per-replica queued sends.
    /// (Declared lengths are page multiples: the version manager refuses
    /// misaligned tickets, so no short last page exists.)
    fn cut(w: &mut WriteSess) {
        let page = w.page_size();
        if page == 0 {
            return;
        }
        while (w.next_page as usize) < w.chunks.len() {
            let payload = if w.acc.len() as u64 >= page {
                Payload::Data(w.acc.split_to(page as usize).freeze())
            } else if w.acc_sim >= page {
                w.acc_sim -= page;
                Payload::Sim(page)
            } else {
                break;
            };
            Self::enqueue(w, payload);
        }
    }

    /// Issue queued page stores while the in-flight window has room.
    fn pump(&mut self, out: &mut Outstanding, w: &mut WriteSess, env: &mut dyn Env) {
        while out.len() < self.window() && !w.queued.is_empty() {
            self.issue_next_put(out, w, env);
        }
    }

    /// Issue the batch at the front of the queue: providers are served
    /// in first-seen order, and a provider holding several pages gets one
    /// round trip.
    fn issue_next_put(&mut self, out: &mut Outstanding, w: &mut WriteSess, env: &mut dyn Env) {
        let (target, items) = w.queued.pop_front().expect("non-empty");
        self.issue_chunk_put(out, target, items, env);
    }

    /// Every byte is in: wait for the in-flight stores, or go straight to
    /// the metadata phase when none is left.
    fn drain(&mut self, out: &mut Outstanding, w: &mut WriteSess, env: &mut dyn Env) -> Step {
        w.phase = WritePhase::Draining;
        if !out.is_empty() {
            return Step::Park;
        }
        debug_assert!(w.queued.is_empty(), "queued chunks with an empty in-flight window");
        self.build_step(out, w, env)
    }

    /// The metadata step of a write: resolve the untouched base-tree
    /// subtrees (cache first, then remote fetches), then build the new
    /// nodes and store them.
    fn build_step(&mut self, out: &mut Outstanding, w: &mut WriteSess, env: &mut dyn Env) -> Step {
        if w.builder.is_none() {
            let t = w.ticket.as_ref().expect("ticket set");
            let (interval, pending) = (t.interval(), t.pending.clone());
            w.builder = Some(TreeBuilder::new(
                w.blob,
                t.version,
                interval,
                t.page_size,
                t.new_size,
                t.base,
                pending,
            ));
        }
        let builder = w.builder.as_mut().expect("builder set");
        if let Some(missing) = descend_cached(&self.meta_cache, builder) {
            for (target, keys) in group_by_partition(&missing, &self.meta_providers) {
                let req = self.fresh(out, ReqRole::MetaGet);
                env.send(target, Msg::GetMeta { req, keys });
            }
            w.phase = WritePhase::MetaResolve;
            return Step::Park;
        }
        let (nodes, root) = builder.build(&w.chunks);
        w.root = Some(root);
        let mut per_provider: HashMap<NodeId, Vec<(NodeKey, MetaNode)>> = HashMap::new();
        for (k, n) in nodes {
            // The writer will likely read (or extend) this version soon:
            // warm the cache with the nodes just built.
            self.meta_cache.insert(k, n.clone());
            let target = self.meta_providers[partition(&k, self.meta_providers.len())];
            per_provider.entry(target).or_default().push((k, n));
        }
        let mut targets: Vec<NodeId> = per_provider.keys().copied().collect();
        targets.sort();
        for target in targets {
            let nodes = per_provider.remove(&target).expect("present");
            let req = self.fresh(out, ReqRole::Plain);
            env.send(target, Msg::PutMeta { req, nodes });
        }
        w.phase = WritePhase::MetaPut;
        Step::Park
    }

    /// Send one provider's chunk stores: a lone chunk as a plain
    /// `PutChunk`, several as one `PutChunkBatch` round trip. The items
    /// are kept in the request's role so an enabled [`RetryPolicy`] can
    /// re-send them (payloads are refcounted views — no data is copied);
    /// the policy also arms the per-RPC deadline here.
    fn issue_chunk_put(
        &mut self,
        out: &mut Outstanding,
        target: NodeId,
        items: Vec<(ChunkKey, Payload)>,
        env: &mut dyn Env,
    ) {
        let role = ReqRole::ChunkPut { target, items: items.clone(), attempts: 1 };
        let req = self.fresh(out, role);
        let client = self.id;
        if items.len() == 1 {
            let (key, data) = items.into_iter().next().expect("one item");
            env.send(target, Msg::PutChunk { req, client, key, data });
        } else {
            env.send(target, Msg::PutChunkBatch { req, client, items });
        }
        if self.cfg.retry.enabled() {
            env.set_timer(self.cfg.retry.put_timeout, CLIENT_TIMER_BIT | CHUNK_TIMEOUT_BIT | req);
        }
    }
}

impl Conn {
    // ---- the read machine --------------------------------------------

    /// One read protocol step, for either kind of caller.
    fn read_step(
        &mut self,
        sess: &mut Session,
        role: ReqRole,
        msg: Msg,
        env: &mut dyn Env,
    ) -> Step {
        let Session { kind: SessKind::Read(r), out, waiter, stream, .. } = sess else {
            unreachable!("read session")
        };
        let stream = *stream;
        let client = self.id;
        match (r.phase, msg, role) {
            (ReadPhase::Version, Msg::GetVersionOk { info, .. }, _) => {
                if r.len == 0 {
                    // Nothing to fetch: an empty plan, at any offset.
                    r.info = Some(info);
                    return self.opened(out, stream, r, env);
                }
                if r.offset >= info.size {
                    let (offset, len, size) = (r.offset, r.len, info.size);
                    return Step::Finish(Err(BlobError::OutOfBounds { offset, len, size }), 0);
                }
                r.len = r.len.min(info.size - r.offset);
                r.page0 = r.offset / info.page_size;
                let root = info.root;
                r.info = Some(info);
                let (_, interval) = r.range_query();
                r.reader = Some(TreeReader::new(r.blob, root, interval));
                self.descend(out, stream, r, env)
            }
            (ReadPhase::Version, Msg::GetVersionErr { err, .. }, _) => Step::Finish(Err(err), 0),

            (ReadPhase::Meta, Msg::GetMetaOk { nodes, .. }, _) => {
                let reader = r.reader.as_mut().expect("reader set");
                if let Err(err) = supply_nodes(&mut self.meta_cache, reader, nodes) {
                    return Step::Finish(Err(err), 0);
                }
                if !out.is_empty() {
                    return Step::Park;
                }
                self.descend(out, stream, r, env)
            }
            (
                ReadPhase::Meta,
                Msg::GetMetaRangeOk { nodes, more, .. },
                ReqRole::MetaRange { target },
            ) => {
                // Bulk reply from one provider's slice of the read path:
                // every node only warms the cache. Correctness never
                // depends on what the provider chose to send — the descent
                // re-runs cache-first and anything the bulk replies missed
                // falls back to per-node fetches.
                let mut last = None;
                for (k, n) in nodes {
                    last = Some(k.range);
                    self.meta_cache.insert(k, n);
                }
                if let (true, Some(after)) = (more, last) {
                    let (version, query) = r.range_query();
                    let req = self.fresh(out, ReqRole::MetaRange { target });
                    let max_nodes = self.cfg.meta_range_max_nodes;
                    let blob = r.blob;
                    let msg = Msg::GetMetaRange {
                        req,
                        blob,
                        version,
                        query,
                        after: Some(after),
                        max_nodes,
                    };
                    env.send(target, msg);
                    return Step::Park;
                }
                if !out.is_empty() {
                    return Step::Park;
                }
                self.descend(out, stream, r, env)
            }

            (ReadPhase::Fetching, Msg::GetChunkOk { data, .. }, ReqRole::ChunkGet { idx, .. }) => {
                r.parts[idx] = Some(data);
                self.fetched(out, stream, r, env)
            }
            (
                ReadPhase::Fetching,
                Msg::GetChunkBatchOk { items, .. },
                ReqRole::ChunkGetBatch { target, items: asked },
            ) => {
                // Per-item results: store the hits, walk the misses. This
                // reply disarms the batch's shared deadline; resubmitted
                // items arm their own per-chunk deadlines.
                let mut failed: Vec<(usize, ChunkDescriptor)> = Vec::new();
                for (idx, desc) in asked {
                    match items.iter().find(|(k, _)| *k == desc.key) {
                        Some((_, Ok(data))) => r.parts[idx] = Some(data.clone()),
                        Some((_, Err(ChunkErr::Blocked))) => {
                            return fail(waiter, BlobError::Blocked(client))
                        }
                        _ => failed.push((idx, desc)),
                    }
                }
                if let Err(key) = self.walk_batch(out, target, failed, env) {
                    return fail(waiter, BlobError::ChunkUnavailable(key));
                }
                self.fetched(out, stream, r, env)
            }
            (
                ReadPhase::Fetching,
                Msg::GetChunkErr { err, .. },
                ReqRole::ChunkGetBatch { target, items },
            ) => {
                // The whole batch failed: the provider refused it, or its
                // single shared deadline fired. Each item independently
                // re-enters the per-chunk replica walk (retries occupy the
                // batch's window slot, so no refill here).
                if err == ChunkErr::Blocked {
                    return fail(waiter, BlobError::Blocked(client));
                }
                match self.walk_batch(out, target, items, env) {
                    Ok(()) => Step::Park,
                    Err(key) => fail(waiter, BlobError::ChunkUnavailable(key)),
                }
            }
            (
                ReadPhase::Fetching,
                Msg::GetChunkErr { err, .. },
                ReqRole::ChunkGet { idx, desc, first, attempts, refreshed },
            ) => {
                if err == ChunkErr::Blocked {
                    return fail(waiter, BlobError::Blocked(client));
                }
                match self.failover_chunk_get(out, idx, desc, first, attempts, refreshed, env) {
                    Ok(()) => Step::Park,
                    Err(key) => fail(waiter, BlobError::ChunkUnavailable(key)),
                }
            }
            (
                ReadPhase::Fetching,
                Msg::GetMetaOk { nodes, .. },
                ReqRole::LeafRefresh { idx, desc },
            ) => {
                // The refreshed leaf supersedes the stale cached copy.
                let mut fresh_desc = None;
                for (k, n) in nodes {
                    if let Some(MetaNode::Leaf { chunk }) = &n {
                        fresh_desc = Some(chunk.clone());
                        self.meta_cache.insert(k, n.expect("checked Some"));
                    }
                }
                match fresh_desc {
                    Some(chunk) if !chunk.replicas.is_empty() => {
                        self.issue_chunk_get(out, idx, chunk, env);
                        Step::Park
                    }
                    _ => fail(waiter, BlobError::ChunkUnavailable(desc.key)),
                }
            }

            (_, _, _) => fail(waiter, BlobError::Protocol("unexpected read reply")),
        }
    }

    /// The descent step of a read: walk the tree through the node cache;
    /// where it stalls, go remote — on a cold cache with one bulk
    /// `GetMetaRange` broadcast, later per node. Once the whole chunk plan
    /// is resolved, the read is [`opened`](Self::opened).
    fn descend(
        &mut self,
        out: &mut Outstanding,
        stream: bool,
        r: &mut ReadSess,
        env: &mut dyn Env,
    ) -> Step {
        let reader = r.reader.as_mut().expect("reader set");
        let Some(missing) = descend_cached(&self.meta_cache, reader) else {
            r.sources = r.reader.take().expect("reader set").into_sources().into();
            return self.opened(out, stream, r, env);
        };
        if self.cfg.meta_range_fetch && !r.range_used {
            // Cold cache: instead of walking the tree one level per round
            // trip, ask every metadata provider for its slice of the read
            // path in one bulk query. Nodes are hash-partitioned, so no
            // single provider holds a full root-to-leaf path — the
            // broadcast is still one logical round trip, replacing
            // O(depth) of them.
            r.range_used = true;
            let (version, query) = r.range_query();
            let max_nodes = self.cfg.meta_range_max_nodes;
            for i in 0..self.meta_providers.len() {
                let target = self.meta_providers[i];
                let req = self.fresh(out, ReqRole::MetaRange { target });
                let blob = r.blob;
                env.send(
                    target,
                    Msg::GetMetaRange { req, blob, version, query, after: None, max_nodes },
                );
            }
        } else {
            for (target, keys) in group_by_partition(&missing, &self.meta_providers) {
                let req = self.fresh(out, ReqRole::MetaGet);
                env.send(target, Msg::GetMeta { req, keys });
            }
        }
        r.phase = ReadPhase::Meta;
        Step::Park
    }

    /// The chunk plan is resolved: a stream reports itself open; a
    /// whole-buffer read fetches every page as one batch now.
    fn opened(
        &mut self,
        out: &mut Outstanding,
        stream: bool,
        r: &mut ReadSess,
        env: &mut dyn Env,
    ) -> Step {
        if !stream {
            return self.fetch(out, false, r, r.sources.len(), env);
        }
        r.phase = ReadPhase::Idle;
        let info = r.info.as_ref().expect("info set");
        let opened = OpOutput::ReadStreamOpened {
            stream: out.sid,
            version: info.version,
            len: r.len,
            page_size: info.page_size,
        };
        Step::Complete(Ok(opened), 0)
    }

    /// Fetch the next `pages` pages of the plan as one batch. Holes and
    /// tombstone leaves (pages stalled-write recovery never stored) read
    /// as zeros at once; each chunk draws one replica (in page order),
    /// fetches are grouped per chosen provider in first-seen order — the
    /// schedule stays deterministic — and issued under the in-flight
    /// window, each reply refilling one slot. A provider serving several
    /// of the batch's chunks gets them in one round trip.
    fn fetch(
        &mut self,
        out: &mut Outstanding,
        stream: bool,
        r: &mut ReadSess,
        pages: usize,
        env: &mut dyn Env,
    ) -> Step {
        let page = r.page_size();
        r.batch_base = r.cursor;
        r.cursor += pages;
        r.parts = (0..pages).map(|_| None).collect();
        let mut groups: Vec<(NodeId, Vec<(usize, ChunkDescriptor)>)> = Vec::new();
        for (i, src) in r.sources.drain(..pages).enumerate() {
            match src {
                PageSource::Chunk(desc) if !desc.replicas.is_empty() => {
                    let target = desc.replicas[env.rng().random_range(0..desc.replicas.len())];
                    match groups.iter_mut().find(|(t, _)| *t == target) {
                        Some((_, items)) => items.push((i, desc)),
                        None => groups.push((target, vec![(i, desc)])),
                    }
                }
                _ => r.parts[i] = Some(Payload::Sim(page)),
            }
        }
        if groups.is_empty() {
            return deliver(out.sid, stream, r, self.cfg.materialize_zeros);
        }
        groups.reverse(); // pop() = next batch, in first-seen order
        r.pending = groups;
        while out.len() < self.window() {
            let Some((target, items)) = r.pending.pop() else { break };
            self.issue_chunk_get_batch(out, target, items, env);
        }
        r.phase = ReadPhase::Fetching;
        Step::Park
    }

    /// A fetch reply landed: refill its window slot, and deliver the
    /// batch once nothing is outstanding.
    fn fetched(
        &mut self,
        out: &mut Outstanding,
        stream: bool,
        r: &mut ReadSess,
        env: &mut dyn Env,
    ) -> Step {
        if let Some((target, items)) = r.pending.pop() {
            self.issue_chunk_get_batch(out, target, items, env);
        }
        if !out.is_empty() {
            return Step::Park;
        }
        deliver(out.sid, stream, r, self.cfg.materialize_zeros)
    }

    /// Send one provider's chunk fetches: a lone chunk as a plain
    /// `GetChunk` (per-chunk replica walk), several as one
    /// `GetChunkBatch` round trip. One deadline guards the whole batch;
    /// items that fail or go unanswered re-enter the per-chunk walk
    /// individually, each arming its own deadline.
    fn issue_chunk_get_batch(
        &mut self,
        out: &mut Outstanding,
        target: NodeId,
        items: Vec<(usize, ChunkDescriptor)>,
        env: &mut dyn Env,
    ) {
        let client = self.id;
        let req = if items.len() == 1 {
            let (idx, desc) = items.into_iter().next().expect("one item");
            let first = desc.replicas.iter().position(|t| *t == target).unwrap_or(0);
            let key = desc.key;
            let role = ReqRole::ChunkGet { idx, desc, first, attempts: 1, refreshed: false };
            let req = self.fresh(out, role);
            env.send(target, Msg::GetChunk { req, client, key });
            req
        } else {
            let keys: Vec<ChunkKey> = items.iter().map(|(_, d)| d.key).collect();
            let req = self.fresh(out, ReqRole::ChunkGetBatch { target, items });
            env.send(target, Msg::GetChunkBatch { req, client, keys });
            req
        };
        env.set_timer(self.cfg.chunk_timeout, CLIENT_TIMER_BIT | CHUNK_TIMEOUT_BIT | req);
    }

    /// Re-fetch a refreshed leaf's chunk from a randomly chosen replica,
    /// arming the per-chunk failover timer.
    fn issue_chunk_get(
        &mut self,
        out: &mut Outstanding,
        idx: usize,
        desc: ChunkDescriptor,
        env: &mut dyn Env,
    ) {
        let first = env.rng().random_range(0..desc.replicas.len());
        let target = desc.replicas[first];
        let key = desc.key;
        let role = ReqRole::ChunkGet { idx, desc, first, attempts: 1, refreshed: true };
        let req = self.fresh(out, role);
        env.send(target, Msg::GetChunk { req, client: self.id, key });
        env.set_timer(self.cfg.chunk_timeout, CLIENT_TIMER_BIT | CHUNK_TIMEOUT_BIT | req);
    }

    /// Send every item of a failed batch (or the failed items of a
    /// partial reply) from provider `target` down its own replica walk.
    fn walk_batch(
        &mut self,
        out: &mut Outstanding,
        target: NodeId,
        items: Vec<(usize, ChunkDescriptor)>,
        env: &mut dyn Env,
    ) -> Result<(), ChunkKey> {
        for (idx, desc) in items {
            let first = desc.replicas.iter().position(|t| *t == target).unwrap_or(0);
            self.failover_chunk_get(out, idx, desc, first, 1, false, env)?;
        }
        Ok(())
    }

    /// Walk a failed chunk fetch to the next replica (arming a fresh
    /// per-chunk deadline) or — once every replica was tried, and at most
    /// once per chunk — re-fetch the chunk's leaf in case a replication
    /// repair moved it. `Err(key)` means the chunk is unavailable and the
    /// read must fail.
    #[allow(clippy::too_many_arguments)]
    fn failover_chunk_get(
        &mut self,
        out: &mut Outstanding,
        idx: usize,
        desc: ChunkDescriptor,
        first: usize,
        attempts: usize,
        refreshed: bool,
        env: &mut dyn Env,
    ) -> Result<(), ChunkKey> {
        if attempts < desc.replicas.len() {
            env.incr("client.replica_walks", 1);
            let target = desc.replicas[(first + attempts) % desc.replicas.len()];
            let key = desc.key;
            let role = ReqRole::ChunkGet { idx, desc, first, attempts: attempts + 1, refreshed };
            let req = self.fresh(out, role);
            env.send(target, Msg::GetChunk { req, client: self.id, key });
            env.set_timer(self.cfg.chunk_timeout, CLIENT_TIMER_BIT | CHUNK_TIMEOUT_BIT | req);
            return Ok(());
        }
        if self.cfg.retry.enabled() && !refreshed {
            // Degraded read: every known replica failed, but a replication
            // repair may have patched the leaf with fresh replicas since
            // this descent cached it. Re-fetch the leaf directly
            // (bypassing the cache) and retry against whatever placement
            // it records.
            let key = NodeKey {
                blob: desc.key.blob,
                version: desc.key.version,
                range: NodeRange::new(desc.key.page, 1),
            };
            let owner = self.meta_providers[partition(&key, self.meta_providers.len())];
            let req = self.fresh(out, ReqRole::LeafRefresh { idx, desc });
            env.send(owner, Msg::GetMeta { req, keys: vec![key] });
            return Ok(());
        }
        Err(desc.key)
    }
}

/// The batch in flight is whole: assemble it and complete — the whole
/// read at once, or one window of a stream (ending it at eof).
fn deliver(sid: u64, stream: bool, r: &mut ReadSess, materialize_zeros: bool) -> Step {
    let (data, bytes, eof) = assemble(r, materialize_zeros);
    if !stream {
        let version = r.info.as_ref().expect("info set").version;
        return Step::Finish(Ok(OpOutput::Read { data, version }), bytes);
    }
    let chunk = Ok(OpOutput::ReadChunk { stream: sid, data, eof });
    if eof {
        Step::Finish(chunk, bytes)
    } else {
        Step::Complete(chunk, bytes)
    }
}

/// Splice the requested byte range out of the batch's pages. Returns the
/// bytes, their count, and whether the batch ends the plan. Real bytes
/// iff some part carries real bytes or the deployment materializes zeros
/// (holes then become zero bytes); a range inside a single real-data page
/// is served as a refcounted sub-slice of the stored chunk — no copy from
/// provider buffer to client buffer anywhere on the path.
fn assemble(r: &mut ReadSess, materialize_zeros: bool) -> (Payload, u64, bool) {
    let page = r.page_size();
    let base = (r.page0 + r.batch_base as u64) * page;
    let lo = r.offset.max(base);
    let hi = (r.offset + r.len).min(base + r.parts.len() as u64 * page);
    let skip = lo - base;
    let total = hi.saturating_sub(lo);
    let eof = r.sources.is_empty();
    let parts = std::mem::take(&mut r.parts);
    r.phase = ReadPhase::Idle;
    if let [Some(Payload::Data(b))] = parts.as_slice() {
        if (skip + total) as usize <= b.len() {
            return (Payload::Data(b.slice(skip as usize..(skip + total) as usize)), total, eof);
        }
    }
    if !materialize_zeros && !parts.iter().flatten().any(|p| matches!(p, Payload::Data(_))) {
        return (Payload::Sim(total), total, eof);
    }
    let mut buf = BytesMut::with_capacity(total as usize);
    let mut remaining = total;
    let mut offset_in_part = skip;
    for part in parts.iter().flatten() {
        if remaining == 0 {
            break;
        }
        let take = (page - offset_in_part).min(remaining);
        let got = match part {
            Payload::Data(b) => {
                let s = (offset_in_part as usize).min(b.len());
                let e = ((offset_in_part + take) as usize).min(b.len());
                buf.extend_from_slice(&b[s..e]);
                (e - s) as u64
            }
            Payload::Sim(_) => 0,
        };
        // Holes, and defensively any short chunk, pad with zeros.
        buf.extend(std::iter::repeat_n(0u8, (take - got) as usize));
        remaining -= take;
        offset_in_part = 0;
    }
    (Payload::Data(buf.freeze()), total, eof)
}

/// A metadata walk fed node by node: the write path's base-tree resolve
/// or the read path's descent.
trait Walk {
    fn done(&self) -> bool;
    fn needed(&self) -> Vec<NodeKey>;
    fn supply(&mut self, key: NodeKey, node: &MetaNode);
}

impl Walk for TreeBuilder {
    fn done(&self) -> bool {
        self.is_ready()
    }
    fn needed(&self) -> Vec<NodeKey> {
        self.needed_fetches()
    }
    fn supply(&mut self, key: NodeKey, node: &MetaNode) {
        TreeBuilder::supply(self, key, node)
    }
}

impl Walk for TreeReader {
    fn done(&self) -> bool {
        self.is_done()
    }
    fn needed(&self) -> Vec<NodeKey> {
        self.needed_fetches()
    }
    fn supply(&mut self, key: NodeKey, node: &MetaNode) {
        TreeReader::supply(self, key, node)
    }
}

/// Advance `walk` as far as the node cache carries it, without leaving
/// the client: `None` once the walk is complete, otherwise the keys of
/// the round where no cached node advanced it (they must be fetched).
fn descend_cached(cache: &MetaCache, walk: &mut impl Walk) -> Option<Vec<NodeKey>> {
    while !walk.done() {
        let fetches = walk.needed();
        debug_assert!(!fetches.is_empty());
        let mut missing: Vec<NodeKey> = Vec::new();
        let mut hits = 0usize;
        for k in fetches {
            match cache.get(&k) {
                Some(n) => {
                    walk.supply(k, n);
                    hits += 1;
                }
                None => missing.push(k),
            }
        }
        if hits == 0 {
            return Some(missing);
        }
        // Some descent advanced; recompute the frontier before deciding
        // what (if anything) must still be fetched.
    }
    None
}

/// Feed fetched nodes to `walk`, caching each; a node its provider does
/// not have is fatal.
fn supply_nodes(
    cache: &mut MetaCache,
    walk: &mut impl Walk,
    nodes: Vec<(NodeKey, Option<MetaNode>)>,
) -> Result<(), BlobError> {
    for (k, n) in nodes {
        let node = n.ok_or(BlobError::MetaUnavailable)?;
        walk.supply(k, &node);
        cache.insert(k, node);
    }
    Ok(())
}

/// Extract the correlation id of a reply message.
fn req_of(msg: &Msg) -> Option<u64> {
    Some(match msg {
        Msg::AllocOk { req, .. }
        | Msg::AllocErr { req, .. }
        | Msg::Directory { req, .. }
        | Msg::PutChunkOk { req }
        | Msg::PutChunkErr { req, .. }
        | Msg::GetChunkOk { req, .. }
        | Msg::GetChunkErr { req, .. }
        | Msg::GetChunkBatchOk { req, .. }
        | Msg::GetMetaRangeOk { req, .. }
        | Msg::DeleteChunkOk { req, .. }
        | Msg::PutMetaOk { req }
        | Msg::GetMetaOk { req, .. }
        | Msg::DeleteMetaOk { req, .. }
        | Msg::CreateBlobOk { req, .. }
        | Msg::SnapshotVersionOk { req, .. }
        | Msg::SnapshotVersionErr { req, .. }
        | Msg::DecommissionBlobOk { req, .. }
        | Msg::TicketOk { req, .. }
        | Msg::TicketErr { req, .. }
        | Msg::CommitOk { req, .. }
        | Msg::GetVersionOk { req, .. }
        | Msg::GetVersionErr { req, .. } => *req,
        _ => return None,
    })
}

fn chunk_err(err: ChunkErr, client: ClientId) -> BlobError {
    match err {
        ChunkErr::Blocked => BlobError::Blocked(client),
        ChunkErr::Full => BlobError::ProviderFull,
        ChunkErr::NotFound => BlobError::Protocol("put got NotFound"),
        ChunkErr::Unreachable => BlobError::Timeout,
    }
}

/// Group metadata keys by their owning provider.
fn group_by_partition(keys: &[NodeKey], meta_providers: &[NodeId]) -> Vec<(NodeId, Vec<NodeKey>)> {
    let mut map: HashMap<NodeId, Vec<NodeKey>> = HashMap::new();
    for k in keys {
        let target = meta_providers[partition(k, meta_providers.len())];
        map.entry(target).or_default().push(*k);
    }
    let mut out: Vec<(NodeId, Vec<NodeKey>)> = map.into_iter().collect();
    out.sort_by_key(|(n, _)| *n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{MetaNode, NodeRange, NodeRef};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    struct TestEnv {
        now: SimTime,
        sent: Vec<(NodeId, Msg)>,
        timers: Vec<(SimDuration, u64)>,
        rng: SmallRng,
    }

    impl TestEnv {
        fn new() -> Self {
            TestEnv {
                now: SimTime::ZERO,
                sent: vec![],
                timers: vec![],
                rng: SmallRng::seed_from_u64(0),
            }
        }
        fn take_sent(&mut self) -> Vec<(NodeId, Msg)> {
            std::mem::take(&mut self.sent)
        }
    }

    impl Env for TestEnv {
        fn id(&self) -> NodeId {
            NodeId(0)
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn send(&mut self, to: NodeId, msg: Msg) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, delay: SimDuration, token: u64) {
            self.timers.push((delay, token));
        }
        fn rng(&mut self) -> &mut SmallRng {
            &mut self.rng
        }
    }

    const VMAN: NodeId = NodeId(1);
    const PMAN: NodeId = NodeId(2);
    const META: NodeId = NodeId(3);
    const PROV_A: NodeId = NodeId(10);
    const PROV_B: NodeId = NodeId(11);

    fn core() -> ClientCore {
        ClientCore::new(ClientId(7), VMAN, PMAN, vec![META], ClientConfig::default())
    }

    #[test]
    fn create_roundtrip() {
        let mut env = TestEnv::new();
        let mut c = core();
        c.start_op(&mut env, ClientOp::Create { spec: BlobSpec::default() }, 42);
        let (to, msg) = env.take_sent().pop().expect("create sent");
        assert_eq!(to, VMAN);
        let Msg::CreateBlob { req, .. } = msg else { panic!("wrong msg {msg:?}") };
        let done = c.handle_msg(&mut env, VMAN, Msg::CreateBlobOk { req, blob: BlobId(5) });
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 42);
        assert_eq!(done[0].result.as_ref().unwrap(), &OpOutput::Created(BlobId(5)));
        assert_eq!(c.active_ops(), 0);
    }

    #[test]
    fn snapshot_and_decommission_round_trips() {
        let mut env = TestEnv::new();
        let mut c = core();
        c.start_op(&mut env, ClientOp::Snapshot { blob: BlobId(5), version: None }, 1);
        let (to, msg) = env.take_sent().pop().expect("snapshot sent");
        assert_eq!(to, VMAN);
        let Msg::SnapshotVersion { req, version: None, .. } = msg else { panic!("{msg:?}") };
        let done =
            c.handle_msg(&mut env, VMAN, Msg::SnapshotVersionOk { req, version: VersionId(3) });
        assert_eq!(
            done[0].result.as_ref().unwrap(),
            &OpOutput::Snapshotted { blob: BlobId(5), version: VersionId(3) }
        );

        c.start_op(&mut env, ClientOp::Decommission { blob: BlobId(5) }, 2);
        let (to, msg) = env.take_sent().pop().expect("decommission sent");
        assert_eq!(to, VMAN);
        let Msg::DecommissionBlob { req, .. } = msg else { panic!("{msg:?}") };
        let done = c.handle_msg(&mut env, VMAN, Msg::DecommissionBlobOk { req, ok: true });
        assert_eq!(
            done[0].result.as_ref().unwrap(),
            &OpOutput::Decommissioned { blob: BlobId(5), ok: true }
        );
        assert_eq!(c.active_ops(), 0);
    }

    #[test]
    fn snapshot_of_unknown_version_fails_the_op() {
        let mut env = TestEnv::new();
        let mut c = core();
        c.start_op(
            &mut env,
            ClientOp::Snapshot { blob: BlobId(5), version: Some(VersionId(9)) },
            1,
        );
        let (_, msg) = env.take_sent().pop().unwrap();
        let Msg::SnapshotVersion { req, .. } = msg else { panic!() };
        let done = c.handle_msg(
            &mut env,
            VMAN,
            Msg::SnapshotVersionErr {
                req,
                err: BlobError::UnknownVersion(BlobId(5), VersionId(9)),
            },
        );
        assert!(matches!(done[0].result, Err(BlobError::UnknownVersion(..))));
    }

    #[test]
    fn ticket_error_fails_the_op() {
        let mut env = TestEnv::new();
        let mut c = core();
        c.start_op(
            &mut env,
            ClientOp::Write { blob: BlobId(5), kind: WriteKind::Append, data: Payload::Sim(16) },
            1,
        );
        let (_, msg) = env.take_sent().pop().unwrap();
        let Msg::Ticket { req, .. } = msg else { panic!() };
        let done = c.handle_msg(
            &mut env,
            VMAN,
            Msg::TicketErr { req, err: BlobError::Blocked(ClientId(7)) },
        );
        assert!(matches!(done[0].result, Err(BlobError::Blocked(_))));
    }

    /// The two kinds of caller each read/write machine serves.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Caller {
        /// `ClientOp::Write` / `ClientOp::Read`: one completion.
        Whole,
        /// `OpenWriteStream` … / `OpenReadStream` + `ReadStreamNext`.
        Stream,
    }

    const CALLERS: [Caller; 2] = [Caller::Whole, Caller::Stream];

    /// Start a read of `[offset, offset + len)` of blob 5 as `caller`.
    fn start_read(c: &mut ClientCore, env: &mut TestEnv, caller: Caller, offset: u64, len: u64) {
        let (blob, version) = (BlobId(5), None);
        let op = match caller {
            Caller::Whole => ClientOp::Read { blob, version, offset, len },
            Caller::Stream => ClientOp::OpenReadStream { blob, version, offset, len },
        };
        assert!(c.start_op(env, op, 9).is_empty());
    }

    /// Deliver the reply that resolves a read's chunk plan. A whole-buffer
    /// read goes on to fetch at once; a stream completes its open here and
    /// is pulled once (every test plan fits one window). Also returns the
    /// version a stream's open reported (`None` for a whole-buffer read).
    fn resolve_plan(
        c: &mut ClientCore,
        env: &mut TestEnv,
        caller: Caller,
        msg: Msg,
    ) -> (Vec<Completion>, Option<VersionId>) {
        let done = c.handle_msg(env, META, msg);
        if caller == Caller::Whole {
            return (done, None);
        }
        assert_eq!(done.len(), 1, "{done:?}");
        let Ok(OpOutput::ReadStreamOpened { stream, version, .. }) = done[0].result else {
            panic!("{:?}", done[0].result)
        };
        (c.start_op(env, ClientOp::ReadStreamNext { stream }, 10), Some(version))
    }

    /// The version and bytes a read delivered: a whole-buffer read's one
    /// completion carries both; a stream's final pull carries the bytes
    /// and its open (`opened`) carried the version.
    fn read_data(
        caller: Caller,
        opened: Option<VersionId>,
        done: &Completion,
    ) -> (VersionId, &Payload) {
        match (caller, opened, &done.result) {
            (Caller::Whole, None, Ok(OpOutput::Read { data, version })) => (*version, data),
            (Caller::Stream, Some(version), Ok(OpOutput::ReadChunk { data, eof: true, .. })) => {
                (version, data)
            }
            (_, _, other) => panic!("{caller:?}: {other:?}"),
        }
    }

    fn one_page_info(root: Option<NodeRef>) -> VersionInfo {
        VersionInfo { version: VersionId(1), size: 8, page_size: 8, root }
    }

    #[test]
    fn allocation_failure_fails_the_op() {
        for caller in CALLERS {
            let mut env = TestEnv::new();
            let mut c = core();
            let (blob, kind) = (BlobId(5), WriteKind::At(0));
            let op = match caller {
                Caller::Whole => ClientOp::Write { blob, kind, data: Payload::Sim(16) },
                Caller::Stream => ClientOp::OpenWriteStream { blob, kind, len: 16 },
            };
            c.start_op(&mut env, op, 1);
            let (_, msg) = env.take_sent().pop().unwrap();
            let Msg::Ticket { req, .. } = msg else { panic!() };
            let ticket = WriteTicket {
                blob: BlobId(5),
                version: VersionId(1),
                offset: 0,
                len: 16,
                page_size: 8,
                replication: 3,
                new_size: 16,
                base: crate::meta::BaseSnapshot { version: VersionId(0), size: 0, root: None },
                pending: vec![],
            };
            assert!(c.handle_msg(&mut env, VMAN, Msg::TicketOk { req, ticket }).is_empty());
            let (to, msg) = env.take_sent().pop().unwrap();
            assert_eq!(to, PMAN);
            let Msg::Alloc { req, chunks, replication, .. } = msg else { panic!() };
            assert_eq!((chunks, replication), (2, 3));
            let done = c.handle_msg(&mut env, PMAN, Msg::AllocErr { req, available: 2 });
            assert!(
                matches!(done[0].result, Err(BlobError::AllocationFailed { available: 2, .. })),
                "{caller:?}: {:?}",
                done[0].result
            );
            assert_eq!(c.active_ops(), 0);
        }
    }

    #[test]
    fn op_timeout_fires_and_completes_with_error() {
        let timeout = ClientConfig::default().op_timeout;
        let root = NodeRef::Node { version: VersionId(1), range: NodeRange::new(0, 1) };
        for caller in CALLERS {
            let mut env = TestEnv::new();
            let mut c = core();
            start_read(&mut c, &mut env, caller, 0, 8);
            // The op-deadline timer was armed.
            let (delay, token) = env.timers[0];
            assert_eq!(delay, timeout);
            assert!(ClientCore::owns_timer(token));
            // Progress 5 s in: the version lookup answers.
            let Msg::GetVersion { req, .. } = env.take_sent().pop().unwrap().1 else { panic!() };
            env.now = SimTime::ZERO + SimDuration::from_secs(5);
            let info = one_page_info(Some(root));
            assert!(c.handle_msg(&mut env, VMAN, Msg::GetVersionOk { req, info }).is_empty());
            env.now = SimTime::ZERO + timeout;
            let mut done = c.handle_timer(&mut env, token);
            if caller == Caller::Stream {
                // A stream's deadline is idle time: the reply 5 s in
                // re-arms it for the remainder.
                assert!(done.is_empty(), "{done:?}");
                let (delay, rearmed) = *env.timers.last().unwrap();
                assert_eq!((delay, rearmed), (SimDuration::from_secs(5), token));
                env.now += delay;
                done = c.handle_timer(&mut env, token);
            }
            // A whole-buffer op's deadline is absolute: the same reply
            // does not move it.
            assert_eq!(done.len(), 1);
            assert!(matches!(done[0].result, Err(BlobError::Timeout)));
            assert_eq!(done[0].finished, env.now);
            assert_eq!(c.active_ops(), 0);
            // A stale reply afterwards is ignored.
            assert!(c
                .handle_msg(
                    &mut env,
                    VMAN,
                    Msg::GetVersionErr { req: 1, err: BlobError::UnknownBlob(BlobId(5)) },
                )
                .is_empty());
        }
    }

    #[test]
    fn read_fails_over_to_next_replica_on_chunk_timeout() {
        for caller in CALLERS {
            let mut env = TestEnv::new();
            let mut c = core();
            start_read(&mut c, &mut env, caller, 0, 8);
            let (_, msg) = env.take_sent().pop().unwrap();
            let Msg::GetVersion { req, .. } = msg else { panic!() };
            // One-page blob whose root is a leaf with two replicas.
            let root = NodeRef::Node { version: VersionId(1), range: NodeRange::new(0, 1) };
            let info = one_page_info(Some(root));
            assert!(c.handle_msg(&mut env, VMAN, Msg::GetVersionOk { req, info }).is_empty());
            // Cold cache: one bulk range query replaces the per-level fetch.
            let (to, msg) = env.take_sent().pop().unwrap();
            assert_eq!(to, META);
            let Msg::GetMetaRange { req, .. } = msg else { panic!("{msg:?}") };
            let leaf = MetaNode::Leaf {
                chunk: ChunkDescriptor {
                    key: ChunkKey { blob: BlobId(5), version: VersionId(1), page: 0 },
                    replicas: vec![PROV_A, PROV_B],
                    size: 8,
                },
            };
            let leaf_key =
                NodeKey { blob: BlobId(5), version: VersionId(1), range: NodeRange::new(0, 1) };
            let reply = Msg::GetMetaRangeOk { req, nodes: vec![(leaf_key, leaf)], more: false };
            let (done, opened) = resolve_plan(&mut c, &mut env, caller, reply);
            assert!(done.is_empty(), "{done:?}");
            // A chunk fetch went out to one replica, with a failover timer.
            let (first_target, msg) = env.take_sent().pop().unwrap();
            assert!(first_target == PROV_A || first_target == PROV_B);
            let Msg::GetChunk { .. } = msg else { panic!("{msg:?}") };
            let (_, token) = *env.timers.last().unwrap();
            assert!(ClientCore::owns_timer(token));
            // The replica never answers: the chunk timer fires and the
            // client retries another replica.
            assert!(c.handle_timer(&mut env, token).is_empty());
            let (second_target, msg) = env.take_sent().pop().unwrap();
            let Msg::GetChunk { req, .. } = msg else { panic!("{msg:?}") };
            assert_ne!(second_target, first_target, "failover goes to the other replica");
            // That one answers: the read completes.
            let reply = Msg::GetChunkOk { req, data: Payload::Sim(8) };
            let done = c.handle_msg(&mut env, second_target, reply);
            assert_eq!(done.len(), 1);
            let (version, data) = read_data(caller, opened, &done[0]);
            assert_eq!(data.len(), 8);
            assert_eq!(version, VersionId(1));
            assert_eq!(c.active_ops(), 0, "{caller:?}");
        }
    }

    /// Build (locally) the stored tree of a `pages`-page blob at version
    /// 1, every chunk placed on `replicas` — exactly the node set a
    /// writer would have put to the metadata providers.
    fn stored_tree(
        pages: u64,
        page: u64,
        replicas: Vec<NodeId>,
    ) -> (Vec<(NodeKey, MetaNode)>, NodeRef) {
        let chunks: Vec<ChunkDescriptor> = (0..pages)
            .map(|p| ChunkDescriptor {
                key: ChunkKey { blob: BlobId(5), version: VersionId(1), page: p },
                replicas: replicas.clone(),
                size: page,
            })
            .collect();
        let builder = crate::meta::TreeBuilder::new(
            BlobId(5),
            VersionId(1),
            PageInterval::new(0, pages),
            page,
            pages * page,
            crate::meta::BaseSnapshot { version: VersionId(0), size: 0, root: None },
            vec![],
        );
        assert!(builder.is_ready(), "no base tree to resolve");
        builder.build(&chunks)
    }

    /// Drive a fresh read through GetVersion and the cold-cache bulk
    /// metadata exchange (and, for a stream, its open and first pull);
    /// returns with the chunk fetches just sent, and the version a
    /// stream's open reported.
    fn open_read(
        c: &mut ClientCore,
        env: &mut TestEnv,
        caller: Caller,
        pages: u64,
        page: u64,
        nodes: Vec<(NodeKey, MetaNode)>,
        root: NodeRef,
    ) -> Option<VersionId> {
        start_read(c, env, caller, 0, pages * page);
        let (_, msg) = env.take_sent().pop().unwrap();
        let Msg::GetVersion { req, .. } = msg else { panic!() };
        let info = VersionInfo {
            version: VersionId(1),
            size: pages * page,
            page_size: page,
            root: Some(root),
        };
        assert!(c.handle_msg(env, VMAN, Msg::GetVersionOk { req, info }).is_empty());
        // Cold cache: exactly one bulk range query per metadata provider
        // (the test ring has one) and no per-node GetMeta at all.
        let sent = env.take_sent();
        assert_eq!(sent.len(), 1, "one logical metadata round trip: {sent:?}");
        let (to, msg) = sent.into_iter().next().unwrap();
        assert_eq!(to, META);
        let Msg::GetMetaRange { req, query, .. } = msg else { panic!("{msg:?}") };
        assert_eq!(query, PageInterval::new(0, pages));
        let reply = Msg::GetMetaRangeOk { req, nodes, more: false };
        let (done, opened) = resolve_plan(c, env, caller, reply);
        assert!(done.is_empty(), "{done:?}");
        opened
    }

    #[test]
    fn cold_read_uses_one_meta_round_trip_and_one_chunk_batch() {
        let mut env = TestEnv::new();
        let mut c = core();
        let (pages, page) = (16u64, 8u64);
        let (nodes, root) = stored_tree(pages, page, vec![PROV_A]);
        open_read(&mut c, &mut env, Caller::Whole, pages, page, nodes, root);
        // All 16 chunks live on one provider: a single batched fetch
        // replaces 16 per-chunk round trips.
        let sent = env.take_sent();
        assert_eq!(sent.len(), 1, "one batched chunk round trip: {sent:?}");
        let (to, msg) = sent.into_iter().next().unwrap();
        assert_eq!(to, PROV_A);
        let Msg::GetChunkBatch { req, keys, .. } = msg else { panic!("{msg:?}") };
        assert_eq!(keys.len(), pages as usize);
        let items = keys.iter().map(|k| (*k, Ok(Payload::Sim(page)))).collect();
        let done = c.handle_msg(&mut env, PROV_A, Msg::GetChunkBatchOk { req, items });
        assert_eq!(done.len(), 1);
        let Ok(OpOutput::Read { data, version }) = &done[0].result else {
            panic!("{:?}", done[0].result)
        };
        assert_eq!(data.len(), pages * page);
        assert_eq!(*version, VersionId(1));
    }

    #[test]
    fn batch_timeout_resubmits_each_item_individually() {
        for caller in CALLERS {
            let mut env = TestEnv::new();
            let mut c = core();
            let (pages, page) = (2u64, 8u64);
            // Both replicas on the same provider: the batch has one
            // possible target, and the per-item walk still has somewhere
            // to go.
            let (nodes, root) = stored_tree(pages, page, vec![PROV_A, PROV_A]);
            let opened = open_read(&mut c, &mut env, caller, pages, page, nodes, root);
            // One batch, guarded by one shared deadline.
            let sent = env.take_sent();
            assert_eq!(sent.len(), 1, "{sent:?}");
            let Msg::GetChunkBatch { keys, .. } = &sent[0].1 else { panic!("{:?}", sent[0].1) };
            assert_eq!(keys.len(), 2);
            let timers_before = env.timers.len();
            let (_, token) = *env.timers.last().unwrap();
            assert!(ClientCore::owns_timer(token));
            // The provider never answers: the batch deadline fires once and
            // every item re-enters the per-chunk replica walk on its own.
            assert!(c.handle_timer(&mut env, token).is_empty());
            let sent = env.take_sent();
            assert_eq!(sent.len(), 2, "per-item resubmission: {sent:?}");
            let reqs: Vec<u64> = sent
                .iter()
                .map(|(to, m)| {
                    assert_eq!(*to, PROV_A);
                    let Msg::GetChunk { req, .. } = m else { panic!("{m:?}") };
                    *req
                })
                .collect();
            assert_eq!(
                env.timers.len(),
                timers_before + 2,
                "each resubmission arms its own deadline"
            );
            let mut done = vec![];
            for req in reqs {
                let reply = Msg::GetChunkOk { req, data: Payload::Sim(page) };
                done = c.handle_msg(&mut env, PROV_A, reply);
            }
            assert_eq!(done.len(), 1);
            assert_eq!(read_data(caller, opened, &done[0]).1.len(), pages * page);
        }
    }

    #[test]
    fn partial_batch_failure_retries_only_the_missing_item() {
        for caller in CALLERS {
            let mut env = TestEnv::new();
            let mut c = core();
            let (pages, page) = (2u64, 8u64);
            let (nodes, root) = stored_tree(pages, page, vec![PROV_A, PROV_A]);
            let opened = open_read(&mut c, &mut env, caller, pages, page, nodes, root);
            let sent = env.take_sent();
            let (_, Msg::GetChunkBatch { req, keys, .. }) = sent.into_iter().next().unwrap() else {
                panic!()
            };
            // One hit, one per-item miss: only the miss is retried.
            let items = vec![(keys[0], Ok(Payload::Sim(page))), (keys[1], Err(ChunkErr::NotFound))];
            assert!(c.handle_msg(&mut env, PROV_A, Msg::GetChunkBatchOk { req, items }).is_empty());
            let sent = env.take_sent();
            assert_eq!(sent.len(), 1, "{sent:?}");
            let (to, Msg::GetChunk { req, key, .. }) = sent.into_iter().next().unwrap() else {
                panic!()
            };
            assert_eq!(to, PROV_A);
            assert_eq!(key, keys[1]);
            let reply = Msg::GetChunkOk { req, data: Payload::Sim(page) };
            let done = c.handle_msg(&mut env, PROV_A, reply);
            assert_eq!(done.len(), 1);
            assert_eq!(read_data(caller, opened, &done[0]).1.len(), pages * page);
        }
    }

    #[test]
    fn read_of_out_of_bounds_offset_errors() {
        for caller in CALLERS {
            let mut env = TestEnv::new();
            let mut c = core();
            start_read(&mut c, &mut env, caller, 100, 8);
            let (_, msg) = env.take_sent().pop().unwrap();
            let Msg::GetVersion { req, .. } = msg else { panic!() };
            let info = one_page_info(None);
            let done = c.handle_msg(&mut env, VMAN, Msg::GetVersionOk { req, info });
            assert!(matches!(done[0].result, Err(BlobError::OutOfBounds { .. })), "{caller:?}");
            assert_eq!(c.active_ops(), 0);
        }
    }

    #[test]
    fn zero_length_read_completes_immediately() {
        for caller in CALLERS {
            let mut env = TestEnv::new();
            let mut c = core();
            start_read(&mut c, &mut env, caller, 0, 0);
            let (_, msg) = env.take_sent().pop().unwrap();
            let Msg::GetVersion { req, .. } = msg else { panic!() };
            let info = VersionInfo { version: VersionId(2), size: 8, page_size: 8, root: None };
            let reply = Msg::GetVersionOk { req, info };
            let (done, opened) = match caller {
                Caller::Whole => (c.handle_msg(&mut env, VMAN, reply), None),
                Caller::Stream => {
                    let opened = c.handle_msg(&mut env, VMAN, reply);
                    let Ok(OpOutput::ReadStreamOpened { stream, version, len: 0, .. }) =
                        opened[0].result
                    else {
                        panic!("{opened:?}")
                    };
                    (c.start_op(&mut env, ClientOp::ReadStreamNext { stream }, 10), Some(version))
                }
            };
            assert_eq!(done.len(), 1);
            assert_eq!(read_data(caller, opened, &done[0]).1.len(), 0);
            assert_eq!(c.active_ops(), 0);
        }
    }

    #[test]
    fn replies_from_unknown_requests_are_ignored() {
        let mut env = TestEnv::new();
        let mut c = core();
        assert!(c.handle_msg(&mut env, VMAN, Msg::PutChunkOk { req: 999 }).is_empty());
        assert!(c
            .handle_msg(&mut env, VMAN, Msg::CreateBlobOk { req: 1, blob: BlobId(1) })
            .is_empty());
    }
}
