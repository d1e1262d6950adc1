//! Sharded work-stealing service executor.
//!
//! The threaded runtime used to give every actor its own OS thread; past a
//! few dozen clients the deployment became a few hundred threads fighting
//! over the scheduler and throughput collapsed (see BENCH_perf.json history:
//! 49 GB/s at 4 clients down to 13.5 GB/s at 64). This module replaces that
//! with a **bounded pool of event-loop workers**:
//!
//! * every node — service or client core — is a [`Cell`]: a multiplexed
//!   state machine with its own mailbox, timer heap and RNG,
//! * cells are owned by `N ≈ cores` **shards**, each with a run queue and
//!   one worker thread,
//! * a sender marks the target cell *scheduled* (one atomic CAS) and pushes
//!   it onto its home shard's run queue; idle workers **steal** ready cells
//!   from the back of other shards' queues,
//! * a worker drains a cell's mailbox in **batches** (up to
//!   [`DRAIN_BATCH`] envelopes per mailbox lock, at most [`MAX_PER_RUN`]
//!   per scheduling turn) so one hot service cannot starve its shard — the
//!   cell is simply re-queued at the back and the worker moves on.
//!
//! Lifecycle guarantees the rest of the repo relies on:
//!
//! * **Panic isolation** — a handler panic poisons only its own cell: the
//!   cell is marked dead, its mailbox dropped, its routing slot cleared and
//!   `runtime.service_panics` incremented; the worker (and every other cell
//!   on the shard) keeps running.
//! * **Observability survives multiplexing** — envelopes still carry
//!   `sent_ns`, so `Net` spans keep attributing mailbox wait as `queue_ns`,
//!   and [`Env::queue_depth_seconds`] reports the age of the oldest queued
//!   envelope of *this* cell (not of the whole shard).

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sads_sim::{
    Counter, FlightEvent, FlightRecorder, FlightRing, Gauge, Histogram, NodeId,
    Registry as TelemetryRegistry, SimDuration, SimTime, SpanKind, SpanRecord, SpanSink, TraceCtx,
};

use crate::client::{ClientConfig, ClientCore, ClientOp, Completion};
use crate::model::ClientId;
use crate::rpc::Msg;
use crate::services::{Env, Service};

/// Envelopes drained per mailbox lock acquisition.
const DRAIN_BATCH: usize = 64;
/// Envelopes handled per scheduling turn before the cell yields its worker.
const MAX_PER_RUN: usize = 256;
/// Idle park cap so workers notice `running == false` and freshly
/// registered cross-shard work even without a notification.
const PARK_CAP: Duration = Duration::from_millis(100);

/// What travels between cells.
pub(crate) enum Envelope {
    Msg {
        from: NodeId,
        msg: Msg,
        /// Causal context of the sender's operation, if tracing is on.
        trace: Option<TraceCtx>,
        /// Wall-clock send time (ns since cluster start), so the receiver
        /// can attribute mailbox queueing delay to the trace.
        sent_ns: u64,
    },
    Op {
        op: ClientOp,
        reply: Sender<Completion>,
        /// Ambient context the operation should nest under (e.g. the S3
        /// gateway's per-request span), if tracing is on.
        trace: Option<TraceCtx>,
    },
}

/// What a cell multiplexes: a service, or a client core with its
/// outstanding-op reply routes.
pub(crate) enum NodeKind {
    Service(Box<dyn Service>),
    Client {
        core: Box<ClientCore>,
        pending: HashMap<u64, Sender<Completion>>,
        next_tag: u64,
    },
}

impl NodeKind {
    pub(crate) fn client(
        client_id: ClientId,
        vman: NodeId,
        pman: NodeId,
        meta: Vec<NodeId>,
        cfg: ClientConfig,
    ) -> Self {
        NodeKind::Client {
            core: Box::new(ClientCore::new(client_id, vman, pman, meta, cfg)),
            pending: HashMap::new(),
            next_tag: 1,
        }
    }
}

/// Per-cell mutable state, touched only by the worker currently running
/// the cell (guarded by the `scheduled` flag plus this mutex).
struct NodeState {
    kind: NodeKind,
    timers: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    rng: SmallRng,
    started: bool,
    /// Held until `on_start` has run. The worker drops it right after
    /// (or while unwinding from) `on_start`, which releases the caller
    /// blocked in [`Executor::add_node`] or [`Executor::reinstall`].
    start_ack: Option<Sender<()>>,
}

/// One multiplexed node: mailbox + state machine + scheduling flag.
pub(crate) struct Cell {
    id: NodeId,
    /// `id` rendered once for the `node` label of every metric the cell
    /// records.
    node_label: String,
    /// True while the cell sits in a run queue or is being run. The
    /// transition false→true is the only way into a run queue, so a cell
    /// is never queued twice.
    scheduled: AtomicBool,
    /// Dead cells (killed or panicked) drop their mail and never run again.
    dead: AtomicBool,
    /// Earliest deadline currently registered in a shard timer heap
    /// (`u64::MAX` = none): hot cells run thousands of turns between timer
    /// fires, and without this watermark each turn would push a duplicate
    /// heap entry.
    timer_registered: std::sync::atomic::AtomicU64,
    /// Shard the cell last ran on; senders enqueue it there (locality),
    /// thieves migrate it.
    home: AtomicUsize,
    /// Deepest mailbox ever observed on this cell. The paired gauge
    /// (`runtime.mailbox_hwm{node=…}`) is only written when the watermark
    /// actually rises, so the steady-state send cost is one `fetch_max`.
    mail_hwm: std::sync::atomic::AtomicU64,
    hwm_gauge: Gauge,
    /// Flight-recorder ring for this cell's service family, resolved once
    /// at creation so a recorded turn is a single `Ring::record`.
    ring: Option<Arc<FlightRing>>,
    mailbox: Mutex<VecDeque<Envelope>>,
    node: Mutex<NodeState>,
}

/// Timer registration on a shard: wake at `deadline` and reschedule the
/// cell (stale entries — cell already ran, or died — are skipped).
struct ShardTimer {
    deadline: u64,
    seq: u64,
    cell: Weak<Cell>,
}

impl PartialEq for ShardTimer {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl Eq for ShardTimer {}
impl PartialOrd for ShardTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ShardTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// One executor shard: a run queue, its worker's parking lot, and the
/// timers registered by cells that last ran here.
struct Shard {
    runq: StdMutex<VecDeque<Arc<Cell>>>,
    cv: Condvar,
    timers: Mutex<BinaryHeap<std::cmp::Reverse<ShardTimer>>>,
    timer_seq: AtomicUsize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            runq: StdMutex::new(VecDeque::new()),
            cv: Condvar::new(),
            timers: Mutex::new(BinaryHeap::new()),
            timer_seq: AtomicUsize::new(0),
        }
    }
}

/// Bucket bounds for `runtime.dispatch_batch` (envelopes per scheduling
/// turn): powers of two up to the [`MAX_PER_RUN`] fairness cap.
const DISPATCH_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Pre-interned per-shard `runtime.*` handles, so the scheduler hot paths
/// pay one atomic op per update instead of a registry lookup.
struct ShardStats {
    /// `runtime.runq_depth{shard}` — cells queued on the shard right now.
    runq_depth: Gauge,
    /// `runtime.steals{shard}` — cells this shard's worker stole.
    steals: Counter,
    /// `runtime.parks{shard}` / `runtime.unparks{shard}` — idle waits.
    parks: Counter,
    unparks: Counter,
    /// `runtime.dispatch_batch{shard}` — envelopes handled per turn.
    dispatch_batch: Histogram,
    /// `runtime.timer_lag_seconds{shard}` — how late shard timers fire.
    timer_lag: Histogram,
}

impl ShardStats {
    fn new(telem: &TelemetryRegistry, shard: usize) -> Self {
        let s = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", s.as_str())];
        ShardStats {
            runq_depth: telem.gauge("runtime.runq_depth", labels),
            steals: telem.counter("runtime.steals", labels),
            parks: telem.counter("runtime.parks", labels),
            unparks: telem.counter("runtime.unparks", labels),
            dispatch_batch: telem.histogram_with_bounds(
                "runtime.dispatch_batch",
                labels,
                DISPATCH_BOUNDS,
            ),
            timer_lag: telem.histogram("runtime.timer_lag_seconds", labels),
        }
    }
}

/// State shared by workers, senders and the cluster handle.
pub(crate) struct ExecShared {
    /// Grow-only routing table: `NodeId` → live cell.
    slots: RwLock<Vec<Option<Arc<Cell>>>>,
    shards: Vec<Shard>,
    /// Per-shard telemetry handles, parallel to `shards`.
    stats: Vec<ShardStats>,
    running: AtomicBool,
    start: Instant,
    telem: Arc<TelemetryRegistry>,
    sink: Option<Arc<SpanSink>>,
    recorder: Option<Arc<FlightRecorder>>,
}

impl ExecShared {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Route an envelope; returns `false` if the slot is dead or unknown.
    pub(crate) fn send_to(&self, to: NodeId, env: Envelope) -> bool {
        let cell = {
            let slots = self.slots.read();
            match slots.get(to.index()) {
                Some(Some(c)) => Arc::clone(c),
                _ => return false,
            }
        };
        let depth = {
            let mut mb = cell.mailbox.lock();
            mb.push_back(env);
            mb.len() as u64
        };
        if depth > cell.mail_hwm.fetch_max(depth, Ordering::Relaxed) {
            cell.hwm_gauge.set(depth as f64);
        }
        self.schedule(&cell);
        true
    }

    /// Mark `cell` runnable and hand it to its home shard. No-op if it is
    /// already queued or running (the final mailbox re-check in
    /// [`Executor::run_cell`] covers that race).
    fn schedule(&self, cell: &Arc<Cell>) {
        if cell.dead.load(Ordering::Acquire) {
            return;
        }
        if cell.scheduled.swap(true, Ordering::AcqRel) {
            return;
        }
        let home = cell.home.load(Ordering::Relaxed) % self.shards.len();
        let depth = {
            let mut q = self.shards[home].runq.lock().expect("runq");
            q.push_back(Arc::clone(cell));
            q.len()
        };
        self.stats[home].runq_depth.set(depth as f64);
        self.shards[home].cv.notify_one();
    }

    /// Stop routing to `node`, drop its queued mail, and make sure it
    /// never runs again. Its `NodeId` slot can later be re-occupied by
    /// [`Executor::reinstall`].
    pub(crate) fn kill(&self, node: NodeId) {
        let cell = {
            let mut slots = self.slots.write();
            match slots.get_mut(node.index()) {
                Some(slot) => slot.take(),
                None => None,
            }
        };
        if let Some(cell) = cell {
            cell.dead.store(true, Ordering::Release);
            cell.mailbox.lock().clear();
        }
    }
}

/// The executor: shared state plus the worker pool.
pub(crate) struct Executor {
    shared: Arc<ExecShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Spawn `shards` workers (0 = one per available core).
    pub(crate) fn start(
        shards: usize,
        start: Instant,
        telem: Arc<TelemetryRegistry>,
        sink: Option<Arc<SpanSink>>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Executor {
        let n = if shards == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).clamp(1, 16)
        } else {
            shards.min(64)
        };
        let shared = Arc::new(ExecShared {
            slots: RwLock::new(Vec::new()),
            shards: (0..n).map(|_| Shard::new()).collect(),
            stats: (0..n).map(|w| ShardStats::new(&telem, w)).collect(),
            running: AtomicBool::new(true),
            start,
            telem,
            sink,
            recorder,
        });
        let workers = (0..n)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sads-exec-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { shared, workers }
    }

    pub(crate) fn shared(&self) -> &Arc<ExecShared> {
        &self.shared
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Register a new node and run its `on_start`. Returns only once
    /// `on_start` has run on a worker: every message it sent (a
    /// provider's `Register`) is then already queued at its receiver,
    /// ahead of anything the caller sends next.
    pub(crate) fn add_node(&self, kind: NodeKind, seed: u64) -> NodeId {
        let id = {
            let mut slots = self.shared.slots.write();
            slots.push(None);
            NodeId(slots.len() as u32 - 1)
        };
        let (cell, started) = self.new_cell(id, kind, seed);
        self.shared.slots.write()[id.index()] = Some(Arc::clone(&cell));
        self.start_cell(&cell, started);
        id
    }

    /// Re-occupy a previously killed slot with a fresh node at the
    /// **same** [`NodeId`], returning once its `on_start` has run (as
    /// [`Executor::add_node`]). Fails if the slot is live or never existed.
    pub(crate) fn reinstall(&self, node: NodeId, kind: NodeKind, seed: u64) -> bool {
        let (cell, started) = self.new_cell(node, kind, seed);
        {
            let mut slots = self.shared.slots.write();
            match slots.get_mut(node.index()) {
                Some(slot @ None) => *slot = Some(Arc::clone(&cell)),
                _ => return false,
            }
        }
        self.start_cell(&cell, started);
        true
    }

    /// Schedule a fresh cell's first turn and block until its `on_start`
    /// has run: the worker drops the acknowledgement's sender then (and
    /// a cell killed before its first turn drops it with the cell). Every
    /// worker is woken, so an idle one steals the turn when the cell's
    /// home worker is busy with a long turn of another cell.
    fn start_cell(&self, cell: &Arc<Cell>, started: Receiver<()>) {
        self.shared.schedule(cell);
        for shard in &self.shared.shards {
            shard.cv.notify_one();
        }
        let _ = started.recv();
    }

    fn new_cell(&self, id: NodeId, kind: NodeKind, seed: u64) -> (Arc<Cell>, Receiver<()>) {
        let (start_ack, started) = crossbeam::channel::bounded(0);
        let family = match &kind {
            NodeKind::Service(s) => s.name(),
            NodeKind::Client { .. } => "client",
        };
        let node_label = id.0.to_string();
        let hwm_gauge =
            self.shared.telem.gauge("runtime.mailbox_hwm", &[("node", node_label.as_str())]);
        let cell = Arc::new(Cell {
            id,
            node_label,
            scheduled: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            timer_registered: std::sync::atomic::AtomicU64::new(u64::MAX),
            home: AtomicUsize::new(id.index() % self.shared.shards.len()),
            mail_hwm: std::sync::atomic::AtomicU64::new(0),
            hwm_gauge,
            ring: self.shared.recorder.as_ref().map(|r| r.ring(family)),
            mailbox: Mutex::new(VecDeque::new()),
            node: Mutex::new(NodeState {
                kind,
                timers: BinaryHeap::new(),
                rng: SmallRng::seed_from_u64(seed),
                started: false,
                start_ack: Some(start_ack),
            }),
        });
        (cell, started)
    }

    /// Stop the workers and join them. Queued envelopes are dropped —
    /// blocked [`ClientHandle`](super::threaded::ClientHandle) callers see
    /// their reply channel disconnect.
    pub(crate) fn shutdown(&mut self) {
        self.shared.running.store(false, Ordering::Release);
        for shard in &self.shared.shards {
            let _g = shard.runq.lock().expect("runq");
            shard.cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Unroute every cell and drop its mailbox: queued `Op` envelopes
        // hold the caller's reply `Sender`, so dropping them here is what
        // turns a blocked `run()` into an immediate disconnect instead of
        // a full op-timeout wait. Run queues pin cells with strong `Arc`s
        // (a scheduled-but-never-run cell would otherwise outlive the
        // routing table), so both must be cleared. Must happen only after
        // the join above — workers may still be mid-turn until then.
        self.shared.slots.write().clear();
        for shard in &self.shared.shards {
            shard.runq.lock().expect("runq").clear();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The [`Env`] a multiplexed node sees during one callback.
struct ExecEnv<'a> {
    /// The running cell: its id, `node` label and mailbox (for per-node
    /// backlog depth).
    cell: &'a Cell,
    shared: &'a ExecShared,
    timers: &'a mut BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    rng: &'a mut SmallRng,
    /// Causal context of the callback being handled; outgoing messages
    /// carry it so replies land in the same trace.
    current: Option<TraceCtx>,
}

impl Env for ExecEnv<'_> {
    fn id(&self) -> NodeId {
        self.cell.id
    }
    fn now(&self) -> SimTime {
        SimTime(self.shared.now_ns())
    }
    fn send(&mut self, to: NodeId, msg: Msg) {
        let sent_ns = self.shared.now_ns();
        self.shared.send_to(
            to,
            Envelope::Msg { from: self.cell.id, msg, trace: self.current, sent_ns },
        );
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let deadline = self.shared.now_ns() + delay.as_nanos();
        self.timers.push(std::cmp::Reverse((deadline, token)));
    }
    fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
    /// A node-labeled registry gauge: the threaded runtime keeps the last
    /// value, not a series.
    fn record(&mut self, name: &str, value: f64) {
        self.shared.telem.set(name, &[("node", self.cell.node_label.as_str())], value);
    }
    fn incr(&mut self, name: &str, delta: u64) {
        self.shared.telem.inc(name, &[("node", self.cell.node_label.as_str())], delta);
    }
    fn span_sink(&self) -> Option<Arc<SpanSink>> {
        self.shared.sink.clone()
    }
    fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        Some(Arc::clone(&self.shared.telem))
    }
    fn trace_ctx(&self) -> Option<TraceCtx> {
        self.current
    }
    fn set_trace_ctx(&mut self, trace: Option<TraceCtx>) {
        self.current = trace;
    }
    fn queue_depth_seconds(&self) -> f64 {
        // Age of the oldest envelope still queued for *this* cell: the
        // multiplexed equivalent of "how far behind is my inbox".
        let mb = self.cell.mailbox.lock();
        match mb.front() {
            Some(Envelope::Msg { sent_ns, .. }) => {
                self.shared.now_ns().saturating_sub(*sent_ns) as f64 / 1e9
            }
            _ => 0.0,
        }
    }
}

/// Record the mailbox-queueing delay of a traced envelope as a `Net`
/// span: in the threaded runtime there is no modeled wire, so the whole
/// delivery delay is queueing (send → drain on the target cell).
fn record_net_span(
    sink: &SpanSink,
    tc: TraceCtx,
    msg: &Msg,
    node: NodeId,
    sent_ns: u64,
    recv_ns: u64,
) {
    sink.record(SpanRecord {
        trace: tc.trace_id,
        span: sink.next_id(),
        parent: tc.span_id,
        service: "net",
        op: sads_sim::Message::op_name(msg),
        node: node.0 as u64,
        start_ns: sent_ns,
        end_ns: recv_ns,
        kind: SpanKind::Net,
        class: sads_sim::Message::span_class(msg),
        queue_ns: recv_ns.saturating_sub(sent_ns),
        xfer_ns: 0,
        wire_ns: 0,
    });
}

fn worker_loop(shared: &ExecShared, w: usize) {
    while shared.running.load(Ordering::Acquire) {
        // Wake cells whose registered timers are due.
        let now = shared.now_ns();
        loop {
            let due = {
                let mut th = shared.shards[w].timers.lock();
                match th.peek() {
                    Some(std::cmp::Reverse(t)) if t.deadline <= now => th.pop(),
                    _ => None,
                }
            };
            match due {
                Some(std::cmp::Reverse(t)) => {
                    // How far past its deadline the heap let this timer
                    // drift — queueing lag of the timer plane itself.
                    shared.stats[w]
                        .timer_lag
                        .observe(now.saturating_sub(t.deadline) as f64 / 1e9);
                    if let Some(cell) = t.cell.upgrade() {
                        cell.timer_registered.store(u64::MAX, Ordering::Release);
                        shared.schedule(&cell);
                    }
                }
                None => break,
            }
        }

        // Own queue first, then steal from the back of a busier shard.
        let next = pop_front(shared, w).or_else(|| steal(shared, w));
        if let Some(cell) = next {
            run_cell(shared, w, &cell);
            continue;
        }

        // Park until the next registered timer, a notification, or the cap.
        let wait = {
            let th = shared.shards[w].timers.lock();
            th.peek()
                .map(|std::cmp::Reverse(t)| {
                    Duration::from_nanos(t.deadline.saturating_sub(now))
                })
                .unwrap_or(PARK_CAP)
                .min(PARK_CAP)
        };
        let g = shared.shards[w].runq.lock().expect("runq");
        if g.is_empty() && shared.running.load(Ordering::Acquire) {
            shared.stats[w].parks.inc(1);
            let _ = shared.shards[w].cv.wait_timeout(g, wait);
            shared.stats[w].unparks.inc(1);
        }
    }
}

fn pop_front(shared: &ExecShared, w: usize) -> Option<Arc<Cell>> {
    let (cell, depth) = {
        let mut q = shared.shards[w].runq.lock().expect("runq");
        let cell = q.pop_front();
        (cell, q.len())
    };
    if cell.is_some() {
        shared.stats[w].runq_depth.set(depth as f64);
    }
    cell
}

fn steal(shared: &ExecShared, w: usize) -> Option<Arc<Cell>> {
    let n = shared.shards.len();
    for i in 1..n {
        let v = (w + i) % n;
        let (cell, depth) = {
            let mut q = shared.shards[v].runq.lock().expect("runq");
            let cell = q.pop_back();
            (cell, q.len())
        };
        if cell.is_some() {
            shared.stats[v].runq_depth.set(depth as f64);
            shared.stats[w].steals.inc(1);
            return cell;
        }
    }
    None
}

/// Run one scheduling turn of `cell` on worker `w`: lazy `on_start`, due
/// timers, then batched mailbox drain up to the fairness cap.
fn run_cell(shared: &ExecShared, w: usize, cell: &Arc<Cell>) {
    cell.home.store(w, Ordering::Relaxed);
    if cell.dead.load(Ordering::Acquire) {
        cell.scheduled.store(false, Ordering::Release);
        return;
    }

    let turn_start = shared.now_ns();
    let mut node = cell.node.lock();
    let outcome = catch_unwind(AssertUnwindSafe(|| drive(shared, cell, &mut node)));
    let next_deadline = node.timers.peek().map(|std::cmp::Reverse((d, _))| *d);
    drop(node);
    let panicked = outcome.is_err();
    let handled = outcome.unwrap_or(0);
    shared.stats[w].dispatch_batch.observe(handled as f64);
    if handled > 0 {
        if let Some(ring) = &cell.ring {
            ring.record(FlightEvent {
                at_ns: turn_start,
                dur_ns: shared.now_ns().saturating_sub(turn_start),
                label: "turn",
                node: cell.id.0 as u64,
                a: handled as u64,
                b: cell.mail_hwm.load(Ordering::Relaxed),
            });
        }
    }

    if panicked {
        // Poison only this cell: unroute it, drop its mail, count it. The
        // worker and every other cell on the shard keep going.
        shared.kill(cell.id);
        shared.telem.inc("runtime.service_panics", &[("node", cell.node_label.as_str())], 1);
        cell.scheduled.store(false, Ordering::Release);
        return;
    }

    if let Some(deadline) = next_deadline {
        if deadline < cell.timer_registered.load(Ordering::Acquire) {
            cell.timer_registered.store(deadline, Ordering::Release);
            let shard = &shared.shards[w];
            let seq = shard.timer_seq.fetch_add(1, Ordering::Relaxed) as u64;
            shard.timers.lock().push(std::cmp::Reverse(ShardTimer {
                deadline,
                seq,
                cell: Arc::downgrade(cell),
            }));
        }
    }

    cell.scheduled.store(false, Ordering::SeqCst);
    // Re-check after clearing the flag: a sender that pushed while we were
    // draining (and saw `scheduled == true`) relies on this to not lose
    // its wakeup.
    if !cell.mailbox.lock().is_empty() {
        shared.schedule(cell);
    }
}

/// Returns the number of envelopes handled this turn.
fn drive(shared: &ExecShared, cell: &Arc<Cell>, node: &mut NodeState) -> usize {
    let NodeState { kind, timers, rng, started, start_ack } = node;
    if !*started {
        *started = true;
        // Released at the end of this block, after `on_start` ran.
        let _ack = start_ack.take();
        if let NodeKind::Service(service) = kind {
            let mut env = ExecEnv {
                cell,
                shared,
                timers,
                rng,
                current: None,
            };
            service.on_start(&mut env);
        }
    }

    fire_due_timers(shared, cell, kind, timers, rng);

    let mut handled = 0usize;
    loop {
        let batch: Vec<Envelope> = {
            let mut mb = cell.mailbox.lock();
            let n = mb.len().min(DRAIN_BATCH);
            mb.drain(..n).collect()
        };
        if batch.is_empty() {
            break;
        }
        handled += batch.len();
        for env in batch {
            handle_envelope(shared, cell, kind, timers, rng, env);
        }
        // Time advanced while handling; fire anything that came due.
        fire_due_timers(shared, cell, kind, timers, rng);
        if handled >= MAX_PER_RUN {
            break; // Yield the worker; run_cell re-queues us at the back.
        }
    }
    handled
}

fn fire_due_timers(
    shared: &ExecShared,
    cell: &Arc<Cell>,
    kind: &mut NodeKind,
    timers: &mut BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    rng: &mut SmallRng,
) {
    loop {
        let now = shared.now_ns();
        let token = match timers.peek() {
            Some(std::cmp::Reverse((deadline, token))) if *deadline <= now => *token,
            _ => break,
        };
        timers.pop();
        let mut env = ExecEnv {
            cell,
            shared,
            timers,
            rng,
            current: None,
        };
        match kind {
            NodeKind::Service(service) => service.on_timer(&mut env, token),
            NodeKind::Client { core, pending, .. } => {
                if ClientCore::owns_timer(token) {
                    let completions = core.handle_timer(&mut env, token);
                    deliver(pending, completions);
                }
            }
        }
    }
}

fn deliver(pending: &mut HashMap<u64, Sender<Completion>>, completions: Vec<Completion>) {
    for c in completions {
        if let Some(tx) = pending.remove(&c.tag) {
            let _ = tx.send(c);
        }
    }
}

fn handle_envelope(
    shared: &ExecShared,
    cell: &Arc<Cell>,
    kind: &mut NodeKind,
    timers: &mut BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    rng: &mut SmallRng,
    envelope: Envelope,
) {
    match envelope {
        Envelope::Msg { from, msg, trace, sent_ns } => {
            let recv_ns = shared.now_ns();
            let traced = match (&shared.sink, trace) {
                (Some(s), Some(tc)) => {
                    record_net_span(s, tc, &msg, cell.id, sent_ns, recv_ns);
                    Some((Arc::clone(s), tc, sads_sim::Message::op_name(&msg)))
                }
                _ => None,
            };
            let mut env = ExecEnv {
                cell,
                shared,
                timers,
                rng,
                current: trace,
            };
            match kind {
                NodeKind::Service(service) => {
                    service.on_msg(&mut env, from, msg);
                    if let Some((s, tc, op)) = traced {
                        let end_ns = shared.now_ns();
                        s.record(SpanRecord {
                            trace: tc.trace_id,
                            span: s.next_id(),
                            parent: tc.span_id,
                            service: service.name(),
                            op,
                            node: cell.id.0 as u64,
                            start_ns: recv_ns,
                            end_ns,
                            kind: SpanKind::Handle,
                            class: sads_sim::SpanClass::Control,
                            queue_ns: 0,
                            xfer_ns: 0,
                            wire_ns: 0,
                        });
                    }
                }
                NodeKind::Client { core, pending, .. } => {
                    let completions = core.handle_msg(&mut env, from, msg);
                    deliver(pending, completions);
                }
            }
        }
        Envelope::Op { op, reply, trace } => {
            if let NodeKind::Client { core, pending, next_tag } = kind {
                let tag = *next_tag;
                *next_tag += 1;
                pending.insert(tag, reply);
                let mut env = ExecEnv {
                    cell,
                    shared,
                    timers,
                    rng,
                    current: trace,
                };
                // Stream sub-operations (a feed with headroom, a close)
                // can complete synchronously.
                let completions = core.start_op(&mut env, op, tag);
                deliver(pending, completions);
            }
        }
    }
}
