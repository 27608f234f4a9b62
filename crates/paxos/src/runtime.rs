//! Threaded Paxos group runtime.
//!
//! A [`PaxosGroup`] is the execution of one multicast group's ordering
//! protocol (§VI-A of the paper): a **coordinator** thread that batches
//! submitted commands (8 KB cap) and drives phases 1 and 2 against `n`
//! **acceptors** (3 in the paper). Acceptors that share the coordinator's
//! process are state machines on the coordinator thread, called directly;
//! the others are [`RemoteAcceptor`]s reached over a [`LiveNet`]. Every
//! vote, inline or not, passes the net's fault filter
//! ([`LiveNet::admit`]), so tests can inject link faults or crash an
//! acceptor and verify the group still makes progress with a majority.
//!
//! The coordinator doubles as distinguished learner: once a quorum of
//! `Accepted` replies arrives it delivers the batch, in instance order, to
//! every subscriber, and tells no acceptor (acceptors have no use for a
//! `Decide`). Subscribers are the per-replica worker threads of the
//! replication engines in `psmr-core`.
//!
//! **Pacing.** A stand-alone [`PaxosGroup`] is traffic-driven: batches
//! close when full or after the linger delay. Streams that are merged
//! with others run round-paced instead ([`LockstepGroups`]): one
//! `order-rounds` thread owns every group of a deployment and closes
//! exactly one round (empty = *skip*) on each of them per fire, so all
//! merged streams advance in lockstep, as with the skip messages of
//! Multi-Ring Paxos. Fires are demand-driven: the next round fires as
//! soon as the previous one is decided on every group, every subscriber
//! took the one before it and some group has a queued command, so a lone
//! command waits for one decide rather than a timer, and everything that
//! arrives while a round is in flight rides in the next one — rounds
//! grow with load. Only an idle deployment is paced by time: one skip
//! round per `skip_interval`.

use crate::acceptor::Acceptor;
use crate::msg::{Instance, PaxosMsg};
use crate::proposer::Proposer;
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use psmr_common::metrics::{counters, gauges, global};
use psmr_common::runtime::{recv_timeout_via, Clock, ClockHandle, Runtime, SchedulePoint};
use psmr_common::trace::{self, Stage};
use psmr_common::SystemConfig;
use psmr_netsim::live::LiveNet;
use psmr_netsim::sim::NodeId;
use psmr_wal::Wal;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The value type a group agrees on: an **Arc-shared** batch of opaque
/// commands.
///
/// Sharing the allocation is what makes the hot path zero-copy: phase-2
/// fan-out hands every acceptor (and the learner bookkeeping inside the
/// proposer) a reference-count bump instead of a deep clone of the batch,
/// and the decided value moves into the delivered [`DecidedBatch`]
/// without being copied out of the consensus layer.
pub type Batch = Arc<Vec<Bytes>>;

/// An ordered batch delivered to a group subscriber.
///
/// `seq` numbers are contiguous and start at 1 within each group's stream;
/// a batch with no commands is a *skip* emitted to keep merge advancing.
/// The command payloads are the same `Bytes` the clients submitted and the
/// same allocation the consensus messages carried — one buffer end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecidedBatch {
    /// 1-based position of this batch in the group's stream.
    pub seq: u64,
    /// The ordered commands inside the batch (possibly empty for skips),
    /// shared with every other subscriber rather than cloned per
    /// subscriber.
    pub commands: Batch,
}

impl DecidedBatch {
    /// Returns whether this is a skip (empty) batch.
    pub fn is_skip(&self) -> bool {
        self.commands.is_empty()
    }
}

/// Messages exchanged between coordinator and acceptors over the live net.
pub type NetMsg = PaxosMsg<Batch>;

/// Deployment-wide fsync notification hub for pipelined group commit.
///
/// The WAL sync thread bumps the hub after advancing durability
/// watermarks; response-holdback logic (in `psmr-core`) installs an
/// on-bump observer that runs **inline on the sync thread** — releasing
/// held responses in the same scheduling quantum as the fsync that
/// covered them.
#[derive(Default)]
pub struct DurabilityHub {
    /// Invoked inline by [`DurabilityHub::bump`].
    observer: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for DurabilityHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityHub").finish_non_exhaustive()
    }
}

impl DurabilityHub {
    /// Creates a hub with no observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or, with `None`, removes) the on-bump observer. Called
    /// with the watermark-advance callback of the response gate; must be
    /// cleared at gate shutdown (the hub holds the observer strongly).
    pub fn set_on_bump(&self, observer: Option<Arc<dyn Fn() + Send + Sync>>) {
        *self.observer.lock() = observer;
    }

    /// Runs the observer (called by the sync thread after a watermark
    /// moved).
    pub fn bump(&self) {
        let observer = self.observer.lock().clone();
        if let Some(observer) = observer {
            observer();
        }
    }
}

/// How a group's durable log is driven.
#[derive(Debug, Clone)]
pub enum WalMode {
    /// No durable log: the ordered stream lives in memory only.
    None,
    /// Inline group commit: every decided batch is appended **and its
    /// windowed `fsync` runs on the ordering thread** before fan-out —
    /// the conservative mode (`wal_batch` appends per fsync).
    Inline(Arc<Wal>),
    /// Pipelined group commit: the batch is appended and fanned out
    /// immediately; the covering `fsync` runs on the deployment's shared
    /// [`WalSyncer`] thread, which advances
    /// [`GroupHandle::durable_seq`]. Execution overlaps durability;
    /// callers gate externally-visible effects (client responses) on the
    /// watermark.
    Pipelined {
        /// The group's durable log.
        wal: Arc<Wal>,
        /// The deployment's shared sync thread.
        syncer: Arc<WalSyncer>,
    },
}

impl WalMode {
    fn wal(&self) -> Option<&Arc<Wal>> {
        match self {
            WalMode::None => None,
            WalMode::Inline(wal) | WalMode::Pipelined { wal, .. } => Some(wal),
        }
    }
}

/// Per-group pipelined-commit state shared between the ordering thread
/// and the deployment's [`WalSyncer`].
#[derive(Debug)]
struct Pipeline {
    wal: Arc<Wal>,
    /// Which group this log belongs to — labels the trace stamps the
    /// sync thread emits when a pass advances the watermark.
    group: usize,
    /// Highest stream seq appended to the log so far.
    appended: AtomicU64,
    /// Highest appended seq whose batch **carries commands** — the part
    /// of the log a response may be waiting on. Skip-only suffixes sync
    /// lazily: nothing observable gates on them.
    urgent: AtomicU64,
    /// Durability watermark: highest seq covered by an `fsync`
    /// (`u64::MAX` once the log is poisoned — durability abandoned, the
    /// stream keeps flowing, as in inline mode's detach-on-error).
    durable: AtomicU64,
    /// Fault injection: freeze this group's fsyncs (they "never land").
    hold: AtomicBool,
}

impl Pipeline {
    fn new(wal: Arc<Wal>, group: usize) -> Self {
        // Everything replayed from disk at open is already durable.
        let durable = wal.durable_next_seq().saturating_sub(1);
        Self {
            wal,
            group,
            appended: AtomicU64::new(durable),
            urgent: AtomicU64::new(durable),
            durable: AtomicU64::new(durable),
            hold: AtomicBool::new(false),
        }
    }

    /// The append path failed: durability is gone for good, so stop
    /// gating on it (matches inline mode, which detaches the WAL and
    /// keeps the in-memory stream flowing).
    fn poison(&self) {
        self.durable.store(u64::MAX, Ordering::Release);
    }
}

/// The deployment-wide WAL sync thread of pipelined group commit.
///
/// One thread serves **every** group: each pass group-commits all logs
/// with a command batch in their open window, publishes the advanced
/// watermarks and bumps the shared [`DurabilityHub`] once. Passes are
/// floored `pace` apart, so one fsync amortizes a whole pacing window of
/// appends — per-group sync threads chasing every record would burn a
/// core on fsync churn under a steady skip stream. Skip-only windows
/// (nothing observable gates on them) are flushed on a lazy timer
/// instead of eagerly.
#[derive(Debug)]
pub struct WalSyncer {
    shared: Arc<SyncerShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

#[derive(Debug)]
struct SyncerShared {
    hub: Arc<DurabilityHub>,
    /// Injected clock (pacing sleeps, lazy-flush timing) and scheduler
    /// (the `WalFsync` schedule point before each pipeline's fsync).
    rt: Runtime,
    pace: Duration,
    pipelines: Mutex<Vec<Arc<Pipeline>>>,
    stop: AtomicBool,
    /// Skip the final flush on stop (power-failure shutdown: the open
    /// windows are about to be discarded, flushing them would model a
    /// clean shutdown instead).
    abandon: AtomicBool,
    park: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

/// How often skip-only open windows are flushed.
const LAZY_SYNC_EVERY: Duration = Duration::from_millis(20);

impl WalSyncer {
    /// Spawns the sync thread with the given pacing interval on the
    /// production runtime; groups attach as they spawn with
    /// [`WalMode::Pipelined`].
    pub fn spawn(pace: Duration) -> Arc<Self> {
        Self::spawn_rt(pace, Runtime::real())
    }

    /// Like [`WalSyncer::spawn`], but pacing sleeps run on the injected
    /// clock and every per-pipeline fsync crosses the
    /// [`SchedulePoint::WalFsync`] schedule point of the injected
    /// scheduler first.
    pub fn spawn_rt(pace: Duration, rt: Runtime) -> Arc<Self> {
        let shared = Arc::new(SyncerShared {
            hub: Arc::new(DurabilityHub::new()),
            rt,
            pace,
            pipelines: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            abandon: AtomicBool::new(false),
            park: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wal-syncer".into())
                .spawn(move || syncer_main(&shared))
                .expect("spawn WAL sync thread")
        };
        Arc::new(Self {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The hub whose observer the sync thread runs after each watermark
    /// move.
    pub fn hub(&self) -> &Arc<DurabilityHub> {
        &self.shared.hub
    }

    fn attach(&self, pipeline: Arc<Pipeline>) {
        self.shared.pipelines.lock().push(pipeline);
    }

    /// Ordering-thread side: an urgent (command-carrying) record landed
    /// in some log; wake the sync thread.
    fn nudge(&self) {
        let mut pending = self.shared.park.lock().unwrap_or_else(|e| e.into_inner());
        *pending = true;
        drop(pending);
        self.shared.cv.notify_one();
    }

    /// Stops the sync thread after one final flush pass (held groups
    /// excepted: their "in-flight" fsync never lands) and joins it.
    /// Call once every attached group has shut down.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.cv.notify_all();
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
        // Drop the attachments so Wal handles (and their fds) release.
        self.shared.pipelines.lock().clear();
    }

    /// Stops the sync thread **without** the final flush — the
    /// power-failure shutdown, where every open group-commit window is
    /// about to be discarded and flushing it first would silently turn
    /// the scenario into a clean shutdown.
    pub fn abort(&self) {
        self.shared.abandon.store(true, Ordering::Relaxed);
        self.stop();
    }
}

/// One fsync pass over the attached pipelines. Returns whether any
/// watermark advanced.
fn sync_pass(
    shared: &SyncerShared,
    lazy: bool,
    inflight_gauge: &psmr_common::metrics::Gauge,
) -> bool {
    let pipelines: Vec<Arc<Pipeline>> = shared.pipelines.lock().clone();
    let mut advanced = false;
    for pipeline in pipelines {
        if pipeline.hold.load(Ordering::Relaxed) {
            continue;
        }
        let durable = pipeline.durable.load(Ordering::Acquire);
        if durable == u64::MAX {
            continue; // poisoned: nothing gates on this log anymore
        }
        let target = if lazy {
            pipeline.appended.load(Ordering::Acquire)
        } else {
            pipeline.urgent.load(Ordering::Acquire)
        };
        if target <= durable {
            continue;
        }
        // The window between fan-out and fsync is where power failures
        // bite; let an injected scheduler stretch it.
        shared.rt.sched.reach(SchedulePoint::WalFsync {
            group: pipeline.group as u64,
        });
        inflight_gauge.set(pipeline.appended.load(Ordering::Acquire) - durable);
        if pipeline.wal.sync().is_ok() {
            let synced = pipeline.wal.durable_next_seq().saturating_sub(1);
            // Stamp before publishing the watermark so a traced batch can
            // never observe its release without the durability stamp.
            trace::global().stamp_durable_range(pipeline.group, durable, synced);
            pipeline.durable.store(synced, Ordering::Release);
        } else {
            global().counter(counters::WAL_SYNC_FAILURES).inc();
            pipeline.poison();
        }
        advanced = true;
    }
    advanced
}

fn syncer_main(shared: &SyncerShared) {
    let clock = &shared.rt.clock;
    let inflight_gauge = global().gauge(gauges::WAL_INFLIGHT);
    let mut last_pass = clock.now() - shared.pace;
    let mut last_lazy = clock.now();
    loop {
        {
            let mut pending = shared.park.lock().unwrap_or_else(|e| e.into_inner());
            while !*pending && !shared.stop.load(Ordering::Relaxed) {
                let (next, timed_out) = shared
                    .cv
                    .wait_timeout(pending, clock.poll_slice(LAZY_SYNC_EVERY))
                    .unwrap_or_else(|e| e.into_inner());
                pending = next;
                if timed_out.timed_out()
                    && clock.now().saturating_duration_since(last_lazy) >= LAZY_SYNC_EVERY
                {
                    break; // lazy pass: flush skip-only windows
                }
            }
            *pending = false;
        }
        let stopping = shared.stop.load(Ordering::Relaxed);
        if stopping && shared.abandon.load(Ordering::Relaxed) {
            return; // power failure: the open windows die unflushed
        }
        if !stopping {
            // Pace the commits: everything appended while we sleep joins
            // this pass's group commit. The pace is measured on
            // the injected clock, so a virtual-time test controls when
            // passes run.
            let since = clock.now().saturating_duration_since(last_pass);
            if since < shared.pace {
                clock.sleep(shared.pace - since);
            }
        }
        let lazy = stopping || clock.now().saturating_duration_since(last_lazy) >= LAZY_SYNC_EVERY;
        if sync_pass(shared, lazy, &inflight_gauge) {
            shared.hub.bump();
        }
        last_pass = clock.now();
        if lazy {
            last_lazy = last_pass;
        }
        if stopping {
            return;
        }
    }
}

/// Subscribers plus the retained suffix of the decided stream, guarded
/// together so a late subscriber ([`GroupHandle::subscribe_from`]) can
/// atomically replay the retained batches and join the live feed with
/// neither a gap nor a duplicate.
#[derive(Debug)]
struct StreamState {
    subscribers: Vec<Sender<Arc<DecidedBatch>>>,
    /// Retained decided batches, contiguous by `seq`, oldest first.
    log: VecDeque<Arc<DecidedBatch>>,
    /// Sequence number the next decided batch will carry.
    next_seq: u64,
    /// Maximum retained batches (checkpoints trim below this cap too).
    retention: usize,
    /// Capacity, in batches, of each subscriber's bounded delivery ring.
    queue_cap: usize,
    /// Durable ordered log, when the deployment configured one: every
    /// decided batch is appended before fan-out, so the stream survives
    /// a whole-deployment crash and a cold start can replay it.
    wal: Option<Arc<Wal>>,
}

#[derive(Debug)]
struct Inner {
    /// Commands queued for ordering, each carrying its enqueue time so the
    /// `Submitted` trace stamp covers the channel wait (the proposer loop
    /// can lag behind arrivals, e.g. while an inline-mode fsync runs).
    submit_tx: Sender<(Instant, Bytes)>,
    /// The ordering thread's doorbell of a [`LockstepGroups`] member,
    /// rung after every submission, at the start and at the shutdown.
    doorbell: Option<Sender<()>>,
    stream: Mutex<StreamState>,
    /// Pipelined-commit state of a [`WalMode::Pipelined`] group, plus
    /// the deployment syncer to nudge after urgent appends.
    pipeline: Option<Arc<Pipeline>>,
    syncer: Option<Arc<WalSyncer>>,
    shutdown: AtomicBool,
    /// Gate: the coordinator proposes nothing (no batches, no skips) until
    /// the group is started. Subscribers must register before the start so
    /// that every subscriber observes the stream from sequence number 1 —
    /// deterministic merge relies on that alignment.
    started: AtomicBool,
    decided: AtomicU64,
    net: LiveNet<NetMsg>,
    /// Injected clock + scheduler, inherited from the net the group was
    /// spawned on: submit stamps and coordinator timers read the clock,
    /// fan-out crosses the `Delivered` schedule point.
    rt: Runtime,
    group_id: usize,
}

impl Inner {
    /// A group's shared state, with its stream seeded from the log's
    /// records (see [`PaxosGroup::spawn_with_wal_mode`]), and the receiving
    /// end of its submission queue.
    fn new(
        group_id: usize,
        cfg: &SystemConfig,
        net: &LiveNet<NetMsg>,
        mode: &WalMode,
        doorbell: Option<Sender<()>>,
    ) -> (Arc<Self>, Receiver<(Instant, Bytes)>) {
        let mut log = VecDeque::new();
        let mut next_seq = 1;
        if let Some(wal) = mode.wal() {
            for record in wal.replay().expect("replay group write-ahead log") {
                log.push_back(Arc::new(DecidedBatch {
                    seq: record.seq,
                    // The replayed commands move straight into the
                    // retained log — no per-batch deep clone on the
                    // respawn path.
                    commands: Arc::new(record.commands),
                }));
            }
            next_seq = wal.next_seq();
            // Replay must reach the tail: records stopping short mean a
            // corrupt frame in an earlier segment, and bridging the
            // hole would rebuild divergent state with no error.
            let replayed_through = log
                .back()
                .map_or(wal.first_seq(), |b: &Arc<DecidedBatch>| b.seq + 1);
            assert!(
                replayed_through == next_seq,
                "write-ahead log of group {group_id} is corrupt mid-stream: \
                 replay reaches seq {replayed_through}, tail is at {next_seq}"
            );
        }
        let (pipeline, syncer) = match mode {
            WalMode::Pipelined { wal, syncer } => {
                let pipeline = Arc::new(Pipeline::new(Arc::clone(wal), group_id));
                syncer.attach(Arc::clone(&pipeline));
                (Some(pipeline), Some(Arc::clone(syncer)))
            }
            _ => (None, None),
        };
        let (submit_tx, submit_rx) = bounded::<(Instant, Bytes)>(16 * 1024);
        let inner = Arc::new(Inner {
            submit_tx,
            doorbell,
            stream: Mutex::new(StreamState {
                subscribers: Vec::new(),
                log,
                next_seq,
                retention: cfg.log_retention.max(1),
                queue_cap: cfg.delivery_queue.max(1),
                wal: mode.wal().cloned(),
            }),
            pipeline,
            syncer,
            shutdown: AtomicBool::new(false),
            started: AtomicBool::new(false),
            decided: AtomicU64::new(0),
            rt: net.runtime().clone(),
            net: net.clone(),
            group_id,
        });
        (inner, submit_rx)
    }

    fn ring(&self) {
        if let Some(doorbell) = &self.doorbell {
            // Full means a ring is already pending: the two merge.
            let _ = doorbell.try_send(());
        }
    }

    /// Decided batches waiting in the fullest subscriber ring: how far
    /// the slowest consumer of this stream is behind its delivery.
    fn backlog(&self) -> usize {
        let stream = self.stream.lock();
        stream
            .subscribers
            .iter()
            .map(|s| s.len())
            .max()
            .unwrap_or(0)
    }

    /// Appends a decided batch to the log (durably, when a WAL is
    /// attached) and fans it out to every subscriber.
    ///
    /// Only the stream bookkeeping runs under the stream lock; the sends
    /// happen **outside** it, so a full subscriber ring blocks the
    /// ordering thread (backpressure — a slow worker throttles ordering
    /// instead of growing memory without bound) without also blocking
    /// [`GroupHandle::trim_below`] or a catch-up subscription behind the
    /// lock. Only the single ordering thread calls this, so the
    /// out-of-lock sends stay in stream order.
    fn deliver(&self, batch: Arc<DecidedBatch>) {
        if !batch.is_skip() {
            trace::global().stamp(self.group_id, batch.seq, Stage::Ordered);
        }
        let targets: Vec<Sender<Arc<DecidedBatch>>> = {
            let mut stream = self.stream.lock();
            debug_assert_eq!(batch.seq, stream.next_seq, "stream must stay contiguous");
            if let Some(wal) = &stream.wal {
                // Disk trouble must not stop the ordering protocol: the
                // in-memory stream keeps flowing. But a record that failed
                // to land ends the *durable prefix* — replay could never
                // cross the hole, so appending later records would only
                // misrepresent the log. Detach the WAL at the first failure
                // and surface the gap through the counter (and release any
                // responses a pipelined deployment was holding: the
                // durability they wait for can no longer arrive).
                if wal.append(batch.seq, &batch.commands).is_err() {
                    global().counter(counters::WAL_APPEND_FAILURES).inc();
                    stream.wal = None;
                    if let Some(pipeline) = &self.pipeline {
                        pipeline.poison();
                        if let Some(syncer) = &self.syncer {
                            // Release anything held on this log: the
                            // durability it waits for can never arrive.
                            syncer.hub().bump();
                        }
                    }
                } else if let Some(pipeline) = &self.pipeline {
                    pipeline.appended.store(batch.seq, Ordering::Release);
                    if !batch.is_skip() {
                        pipeline.urgent.store(batch.seq, Ordering::Release);
                        if let Some(syncer) = &self.syncer {
                            syncer.nudge();
                        }
                    }
                }
            }
            // Stamped whether or not a WAL is attached: in a no-WAL
            // deployment the append is a no-op and the stage collapses to
            // zero width, keeping the interval chain complete.
            if !batch.is_skip() {
                trace::global().stamp(self.group_id, batch.seq, Stage::WalAppended);
            }
            stream.next_seq = batch.seq + 1;
            stream.log.push_back(Arc::clone(&batch));
            while stream.log.len() > stream.retention {
                stream.log.pop_front();
            }
            // Every subscriber captured here registered before this batch
            // entered the retained log, so none of them saw it through a
            // catch-up replay; every later subscriber replays it from the
            // log instead. Exactly-once either way.
            stream.subscribers.clone()
        };
        // Outside the stream lock, before the fan-out sends: an injected
        // scheduler can stall the ordering thread here — the window
        // between append and fan-out — without holding up `trim_below`.
        self.rt.sched.reach(SchedulePoint::Delivered {
            group: self.group_id as u64,
            seq: batch.seq,
        });
        let mut dead: Vec<&Sender<Arc<DecidedBatch>>> = Vec::new();
        for tx in &targets {
            match tx.try_send(Arc::clone(&batch)) {
                Ok(()) => {}
                Err(TrySendError::Full(b)) => {
                    // Registry lookups stay off the non-stalled path.
                    global()
                        .counter(counters::DELIVERY_BACKPRESSURE_STALLS)
                        .inc();
                    global()
                        .gauge(gauges::DELIVERY_QUEUE_DEPTH)
                        .set(tx.len() as u64);
                    if tx.send(b).is_err() {
                        dead.push(tx);
                    }
                }
                Err(TrySendError::Disconnected(_)) => dead.push(tx),
            }
        }
        if !dead.is_empty() {
            // Prune disconnected subscribers under the lock; identity
            // comparison keeps a subscriber registered between capture
            // and pruning untouched.
            let mut stream = self.stream.lock();
            stream
                .subscribers
                .retain(|s| !dead.iter().any(|d| d.same_channel(s)));
        }
    }
}

/// Handle to a running Paxos group. Cloneable; the group shuts down when
/// [`GroupHandle::shutdown`] is called (threads are detached daemons that
/// exit on shutdown).
#[derive(Debug, Clone)]
pub struct GroupHandle {
    inner: Arc<Inner>,
}

/// Spawner for Paxos group runtimes. See the [crate-level
/// example](crate) for typical usage.
#[derive(Debug)]
pub struct PaxosGroup {
    handle: GroupHandle,
    /// The coordinator thread, which also runs the co-located acceptors.
    thread: Option<JoinHandle<()>>,
}

/// Deterministic node-id layout of a group on its live net: coordinator at
/// `group*100`, acceptor `i` at `group*100 + 1 + i`.
pub fn coordinator_node(group_id: usize) -> NodeId {
    NodeId::new(group_id as u64 * 100)
}

/// Node id of acceptor `i` of a group (see [`coordinator_node`]).
pub fn acceptor_node(group_id: usize, i: usize) -> NodeId {
    NodeId::new(group_id as u64 * 100 + 1 + i as u64)
}

impl PaxosGroup {
    /// Spawns a traffic-driven group with its own private network.
    pub fn spawn(group_id: usize, cfg: &SystemConfig) -> Self {
        Self::spawn_with(group_id, cfg, LiveNet::new())
    }

    /// Spawns a group on the given network.
    ///
    /// Tests pass a shared [`LiveNet`] here so they can crash acceptors or
    /// inject link faults while the group runs.
    pub fn spawn_with(group_id: usize, cfg: &SystemConfig, net: LiveNet<NetMsg>) -> Self {
        Self::spawn_with_wal(group_id, cfg, net, None)
    }

    /// Like [`PaxosGroup::spawn_with`], additionally attaching a durable
    /// write-ahead log in the inline (conservative) mode — shorthand for
    /// [`PaxosGroup::spawn_with_wal_mode`] with [`WalMode::Inline`].
    ///
    /// # Panics
    ///
    /// See [`PaxosGroup::spawn_with_wal_mode`].
    pub fn spawn_with_wal(
        group_id: usize,
        cfg: &SystemConfig,
        net: LiveNet<NetMsg>,
        wal: Option<Arc<Wal>>,
    ) -> Self {
        let mode = match wal {
            Some(wal) => WalMode::Inline(wal),
            None => WalMode::None,
        };
        Self::spawn_with_wal_mode(group_id, cfg, net, mode)
    }

    /// Spawns a group with the given durable-log mode. Every decided
    /// batch is appended to the log before fan-out ([`WalMode::Inline`])
    /// or concurrently with it ([`WalMode::Pipelined`]),
    /// [`GroupHandle::trim_below`] trims its segments, and — crucially
    /// for whole-deployment cold starts — the log's existing records are
    /// **replayed into the retained log** here, so the stream
    /// *continues* the old sequence numbering instead of restarting at
    /// 1: checkpoint cuts taken before the crash stay comparable, and
    /// `subscribe_from` reaches back into the pre-crash suffix.
    ///
    /// # Panics
    ///
    /// Panics when the log's records cannot be replayed, or when replay
    /// stops short of the log's tail (corruption in a *non-tail*
    /// segment — a torn tail self-heals, a hole in the middle of the
    /// stream cannot) — a group asked to be durable must not come up
    /// with a silently truncated stream.
    pub fn spawn_with_wal_mode(
        group_id: usize,
        cfg: &SystemConfig,
        net: LiveNet<NetMsg>,
        mode: WalMode,
    ) -> Self {
        let all: Vec<usize> = (0..cfg.n_acceptors).collect();
        Self::spawn_hosted(group_id, cfg, net, mode, &all)
    }

    /// Like [`PaxosGroup::spawn_with_wal_mode`], but hosts only the
    /// acceptors in `local_acceptors`. Those run inline on the
    /// coordinator thread — no thread and no inbox of their own: the
    /// coordinator hands each `Prepare`/`Accept` to them by a direct call
    /// and feeds their replies straight to its proposer, after the net's
    /// fault filter ([`LiveNet::admit`]) in each direction, so crashing
    /// or degrading their [`acceptor_node`] ids still works. The
    /// remaining acceptors are expected to run elsewhere — typically in
    /// other OS processes reached through the net's gateway (see
    /// `psmr_netsim::live::LiveNet::set_gateway` and the `psmr-net`
    /// bridge) — as [`RemoteAcceptor`]s registered under the same
    /// [`acceptor_node`] ids. Quorum logic is unchanged: the coordinator
    /// still addresses all `cfg.n_acceptors` acceptors and needs a
    /// majority of them reachable to decide. It sends no `Decide`.
    ///
    /// # Panics
    ///
    /// See [`PaxosGroup::spawn_with_wal_mode`].
    pub fn spawn_hosted(
        group_id: usize,
        cfg: &SystemConfig,
        net: LiveNet<NetMsg>,
        mode: WalMode,
        local_acceptors: &[usize],
    ) -> Self {
        let (inner, submit_rx) = Inner::new(group_id, cfg, &net, &mode, None);
        for &i in local_acceptors {
            assert!(
                i < cfg.n_acceptors,
                "local acceptor index {i} out of range (group has {})",
                cfg.n_acceptors
            );
        }
        let acceptors = Acceptors::new(group_id, &net, cfg.n_acceptors, local_acceptors);
        let coord_inbox = net.register(coordinator_node(group_id));
        let coord_inner = Arc::clone(&inner);
        let cfg = cfg.clone();
        let thread = std::thread::Builder::new()
            .name(format!("coord-g{group_id}"))
            .spawn(move || coordinator_main(cfg, coord_inner, submit_rx, coord_inbox, acceptors))
            .expect("spawn coordinator thread");

        Self {
            handle: GroupHandle { inner },
            thread: Some(thread),
        }
    }

    /// Returns a cloneable handle to the group.
    pub fn handle(&self) -> GroupHandle {
        self.handle.clone()
    }

    /// See [`GroupHandle::submit`].
    pub fn submit(&self, command: Bytes) {
        self.handle.submit(command);
    }

    /// See [`GroupHandle::subscribe`].
    pub fn subscribe(&self) -> Receiver<Arc<DecidedBatch>> {
        self.handle.subscribe()
    }

    /// See [`GroupHandle::start`].
    pub fn start(&self) {
        self.handle.start();
    }

    /// See [`GroupHandle::net`].
    pub fn net(&self) -> LiveNet<NetMsg> {
        self.handle.net()
    }

    /// Stops the group and joins its coordinator thread.
    pub fn shutdown(mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A stand-alone acceptor thread: one group member hosted by a process
/// that does not run the group's coordinator.
///
/// Multi-process deployments spawn the coordinator (whose co-located
/// acceptor votes inline on the coordinator thread) with
/// [`PaxosGroup::spawn_hosted`] on one node and a `RemoteAcceptor` per
/// remaining node; the coordinator's `Prepare`s and `Accept`s reach them
/// through the net's gateway (bridged over TCP by `psmr-net`), and their
/// replies come back the same way. No `Decide` is sent to them. Unlike
/// an inline acceptor it never forgets an accepted instance, so a
/// restarted coordinator's phase 1 gets back its whole accepted history.
/// It is intentionally amnesiac across process
/// restarts — safe in this deployment shape because the group runs a
/// fixed coordinator that is also the distinguished learner: a value it
/// decided is retained in its stream/WAL, so a restarted acceptor
/// re-promising from scratch can never help a *different* value win.
#[derive(Debug)]
pub struct RemoteAcceptor {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl RemoteAcceptor {
    /// Registers [`acceptor_node`]`(group_id, index)` on `net` and runs
    /// the acceptor loop until [`RemoteAcceptor::shutdown`].
    pub fn spawn(group_id: usize, index: usize, net: LiveNet<NetMsg>) -> Self {
        let node = acceptor_node(group_id, index);
        let inbox = net.register(node);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let clock = net.runtime().clock.clone();
        let thread = std::thread::Builder::new()
            .name(format!("racceptor-g{group_id}-a{index}"))
            .spawn(move || {
                let mut acceptor = Acceptor::<Batch>::new();
                loop {
                    match recv_timeout_via(&*clock, &inbox, Duration::from_millis(50)) {
                        Ok((from, msg)) => {
                            if let Some(reply) = acceptor.handle(msg) {
                                net.send(node, from, reply);
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if stop_flag.load(Ordering::Relaxed) {
                                return;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            })
            .expect("spawn remote acceptor thread");
        Self {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the acceptor thread and joins it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl GroupHandle {
    /// Submits a command for ordering. Blocks when the group's submission
    /// queue is full (natural client backpressure); silently drops the
    /// command if the group has shut down.
    pub fn submit(&self, command: Bytes) {
        if self.inner.shutdown.load(Ordering::Relaxed) {
            global().counter(counters::REQUESTS_DROPPED).inc();
            return;
        }
        if self
            .inner
            .submit_tx
            .send((self.inner.rt.clock.now(), command))
            .is_err()
        {
            global().counter(counters::REQUESTS_DROPPED).inc();
        } else {
            self.inner.ring();
        }
    }

    /// Submissions queued and not yet drawn into a batch or round.
    pub fn queued(&self) -> usize {
        self.inner.submit_tx.len()
    }

    /// Registers a new subscriber. The subscriber receives every batch the
    /// group decides, from sequence number 1, in stream order.
    ///
    /// # Panics
    ///
    /// Panics if the group has already been started: late subscribers would
    /// observe a truncated stream and break deterministic merge.
    pub fn subscribe(&self) -> Receiver<Arc<DecidedBatch>> {
        assert!(
            !self.inner.started.load(Ordering::Relaxed),
            "subscribe must happen before the group is started"
        );
        let mut stream = self.inner.stream.lock();
        let (tx, rx) = bounded(stream.queue_cap);
        stream.subscribers.push(tx);
        rx
    }

    /// Registers a subscriber **after** the group started, replaying the
    /// retained log from `from_seq` before joining the live feed — the
    /// catch-up path a restarted replica uses. The replay and the
    /// registration happen atomically with delivery, so the subscriber
    /// observes the stream gap-free from `from_seq`.
    ///
    /// # Errors
    ///
    /// Returns the first retained sequence number if the log has been
    /// trimmed past `from_seq`, or `None` inside the error if `from_seq`
    /// lies in the future of the stream.
    pub fn subscribe_from(
        &self,
        from_seq: u64,
    ) -> Result<Receiver<Arc<DecidedBatch>>, SubscribeError> {
        let mut stream = self.inner.stream.lock();
        if from_seq > stream.next_seq {
            return Err(SubscribeError::Future {
                next_seq: stream.next_seq,
            });
        }
        if let Some(front) = stream.log.front() {
            if from_seq < front.seq {
                return Err(SubscribeError::Trimmed {
                    first_retained: front.seq,
                });
            }
        } else if from_seq < stream.next_seq {
            return Err(SubscribeError::Trimmed {
                first_retained: stream.next_seq,
            });
        }
        // The ring must hold the whole replayed suffix up front (nobody
        // consumes until this returns) plus the normal live headroom;
        // the replayed entries are Arc clones of retained batches, so
        // the extra capacity costs pointers, not payload copies.
        let replayed = stream.log.iter().filter(|b| b.seq >= from_seq).count();
        let (tx, rx) = bounded(replayed + stream.queue_cap);
        for batch in stream.log.iter().filter(|b| b.seq >= from_seq) {
            let _ = tx.send(Arc::clone(batch));
        }
        stream.subscribers.push(tx);
        Ok(rx)
    }

    /// Drops retained batches with `seq < below` — called once a
    /// checkpoint covers them. Keeps everything a recovery from the
    /// latest checkpoint could still need. With a write-ahead log
    /// attached, also unlinks the log segments the trim makes
    /// unreachable (segment granularity: the WAL may retain slightly
    /// more than memory, never less).
    pub fn trim_below(&self, below: u64) {
        let wal = {
            let mut stream = self.inner.stream.lock();
            while stream.log.front().is_some_and(|b| b.seq < below) {
                stream.log.pop_front();
            }
            stream.wal.clone()
        };
        // Segment unlinks happen outside the stream lock: the WAL is
        // internally locked, and delivery must not stall behind file
        // I/O it does not depend on.
        if let Some(wal) = wal {
            let _ = wal.trim_below(below);
        }
    }

    /// Number of decided batches currently retained for catch-up.
    pub fn retained_len(&self) -> usize {
        self.inner.stream.lock().log.len()
    }

    /// Sequence number the next decided batch will carry. Grows
    /// monotonically across process incarnations of a WAL-backed group,
    /// which makes it usable as an incarnation stamp (cold starts derive
    /// fresh client-id ranges from it so new clients never collide with
    /// the client ids inside replayed commands).
    pub fn next_seq(&self) -> u64 {
        self.inner.stream.lock().next_seq
    }

    /// First retained sequence number, if the log is non-empty.
    pub fn first_retained_seq(&self) -> Option<u64> {
        self.inner.stream.lock().log.front().map(|b| b.seq)
    }

    /// The live network this group's coordinator and acceptors run on;
    /// tests use it to crash acceptors or degrade links mid-run.
    pub fn net(&self) -> LiveNet<NetMsg> {
        self.inner.net.clone()
    }

    /// Opens the gate: the coordinator starts deciding batches (a
    /// [`LockstepGroups`] member: closing rounds, once every member is
    /// started). Call after every subscriber has registered.
    pub fn start(&self) {
        self.inner.started.store(true, Ordering::Release);
        self.inner.ring();
    }

    /// Number of batches decided so far by this incarnation (for a
    /// round-paced group: rounds closed).
    pub fn decided_count(&self) -> u64 {
        self.inner.decided.load(Ordering::Relaxed)
    }

    /// The group's identifier.
    pub fn group_id(&self) -> usize {
        self.inner.group_id
    }

    /// The group's durability watermark: the highest stream sequence
    /// number whose batch is known covered by an `fsync`.
    ///
    /// * [`WalMode::Pipelined`]: advanced by the sync thread; gates
    ///   response release in the engines. `u64::MAX` once the log failed
    ///   (durability abandoned, nothing left to wait for).
    /// * [`WalMode::Inline`] / no WAL: everything delivered counts as
    ///   stable under the process-crash model, so this tracks
    ///   `next_seq - 1`.
    pub fn durable_seq(&self) -> u64 {
        match &self.inner.pipeline {
            Some(pipeline) => pipeline.durable.load(Ordering::Acquire),
            None => self.inner.stream.lock().next_seq - 1,
        }
    }

    /// Fault injection: freezes (or thaws) the pipelined sync thread, as
    /// if the covering `fsync` never completed. While held, the
    /// durability watermark stops advancing — and a group shut down
    /// while held skips its final flush, modeling a crash between
    /// fan-out and fsync. No-op for non-pipelined groups.
    pub fn hold_wal_sync(&self, hold: bool) {
        if let Some(pipeline) = &self.inner.pipeline {
            pipeline.hold.store(hold, Ordering::Relaxed);
        }
    }

    /// Power-failure fault injection: discards the WAL's un-fsynced
    /// suffix ([`psmr_wal::Wal::discard_unsynced`]). Call after the
    /// group's threads have stopped — a live ordering thread would race
    /// the truncation. Returns how many records were dropped (0 without
    /// a WAL).
    pub fn power_fail(&self) -> u64 {
        let wal = self.inner.stream.lock().wal.clone();
        wal.map_or(0, |wal| wal.discard_unsynced().unwrap_or(0))
    }

    /// Signals all threads of the group to stop. (A pipelined
    /// deployment's shared [`WalSyncer`] is stopped separately, once
    /// every group attached to it has shut down.)
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.net.shutdown();
        self.inner.stream.lock().subscribers.clear();
        self.inner.ring();
    }
}

/// Error of [`GroupHandle::subscribe_from`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscribeError {
    /// The retained log no longer reaches back to the requested seq.
    Trimmed {
        /// Oldest sequence number still available.
        first_retained: u64,
    },
    /// The requested seq has not been decided yet.
    Future {
        /// The next sequence number the stream will produce.
        next_seq: u64,
    },
}

impl std::fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscribeError::Trimmed { first_retained } => {
                write!(f, "log trimmed; first retained seq is {first_retained}")
            }
            SubscribeError::Future { next_seq } => {
                write!(f, "requested seq is in the future (next is {next_seq})")
            }
        }
    }
}

impl std::error::Error for SubscribeError {}

/// Upper bound on instances a traffic-driven coordinator has proposed but
/// not yet decided; bounds memory under overload while keeping the
/// pipeline full.
const MAX_INFLIGHT: usize = 256;

/// How long phase 1 waits for a quorum of promises before it starts
/// again with a higher ballot (promises may have been lost).
const PREPARE_RETRY: Duration = Duration::from_millis(20);

/// How long the coordinator lets undecided instances go without any
/// decision before it sends their `Accept`s again (a lost vote would
/// otherwise stall the stream for good once a quorum is reachable again).
const ACCEPT_RETRY: Duration = Duration::from_millis(100);

/// One leg of a co-located vote that a link delay holds back.
#[derive(Debug)]
enum Leg {
    /// Coordinator → local acceptor `i` (an index into
    /// [`Acceptors::local`]): the acceptor handles it when due.
    Request(usize),
    /// Acceptor → coordinator: the reply reaches the proposer when due.
    Reply(NodeId),
}

/// A vote on a delayed link, waiting on the coordinator's due list.
#[derive(Debug)]
struct Held {
    due: Instant,
    leg: Leg,
    msg: NetMsg,
}

/// The coordinator's side of its group's acceptors.
///
/// Co-located acceptors — the ones [`PaxosGroup::spawn_hosted`] hosts —
/// are state machines owned by the coordinator thread: a `Prepare` or
/// `Accept` reaches each by a direct call, and the reply goes straight
/// back into the [`Proposer`] on the same thread, with no thread, inbox
/// or channel hop in between. Every such vote still passes
/// [`LiveNet::admit`] in both directions, so crash-stop, link cuts, loss,
/// delay and the injected scheduler apply to it exactly as to a message
/// behind an inbox. A delayed vote waits on a due list the coordinator's
/// wait timeout covers, never in a sleep on the coordinator thread: a
/// slow acceptor is outvoted, not waited on.
///
/// The other acceptors ([`RemoteAcceptor`]s) are reached with
/// [`LiveNet::send`]. `Decide` goes to no acceptor: the coordinator is
/// its group's learner and acceptors ignore it.
#[derive(Debug)]
struct Acceptors {
    me: NodeId,
    net: LiveNet<NetMsg>,
    clock: ClockHandle,
    local: Vec<(NodeId, Acceptor<Batch>)>,
    remote: Vec<NodeId>,
    /// Delayed votes, in the order they were held.
    held: Vec<Held>,
    /// Co-located replies not yet handed to the proposer.
    replies: VecDeque<(NodeId, NetMsg)>,
    /// When the proposer last learned a decision or had none open.
    progress_at: Instant,
}

impl Acceptors {
    /// The acceptors of `group` on `net`: `local` (indices below
    /// `n_acceptors`) run inline, the rest are addressed on the net.
    fn new(group: usize, net: &LiveNet<NetMsg>, n_acceptors: usize, local: &[usize]) -> Self {
        let clock = Arc::clone(&net.runtime().clock);
        Self {
            me: coordinator_node(group),
            net: net.clone(),
            progress_at: clock.now(),
            clock,
            local: local
                .iter()
                .map(|&i| (acceptor_node(group, i), Acceptor::new()))
                .collect(),
            remote: (0..n_acceptors)
                .filter(|i| !local.contains(i))
                .map(|i| acceptor_node(group, i))
                .collect(),
            held: Vec::new(),
            replies: VecDeque::new(),
        }
    }

    /// Feeds one reply that arrived on the coordinator's inbox to the
    /// proposer, then [`Acceptors::drive`]s what it yields.
    fn handle(&mut self, prop: &mut Proposer<Batch>, from: NodeId, msg: NetMsg) {
        let out = prop.handle(from.as_raw(), msg);
        self.drive(prop, out);
    }

    /// Sends `msgs` to every acceptor, releases the delayed votes that
    /// came due, and feeds every co-located reply to the proposer —
    /// including replies to the messages those replies yield (a promise
    /// quorum → leadership → `Accept`s) — until none is left. A loop over
    /// a work queue, not recursion.
    fn drive(&mut self, prop: &mut Proposer<Batch>, msgs: Vec<NetMsg>) {
        self.broadcast(msgs);
        self.release_due();
        while let Some((from, reply)) = self.replies.pop_front() {
            let out = prop.handle(from.as_raw(), reply);
            self.broadcast(out);
        }
    }

    fn broadcast(&mut self, msgs: Vec<NetMsg>) {
        for msg in msgs {
            if matches!(msg, PaxosMsg::Decide { .. }) {
                continue;
            }
            // Remote sends first: their wire work starts while the local
            // votes run.
            for &a in &self.remote {
                self.net.send(self.me, a, msg.clone());
            }
            for i in 0..self.local.len() {
                let to = self.local[i].0;
                match self.net.admit(self.me, to) {
                    None => {}
                    Some(delay) if delay.is_zero() => self.vote(i, msg.clone()),
                    Some(delay) => self.hold(delay, Leg::Request(i), msg.clone()),
                }
            }
        }
    }

    /// Local acceptor `i` handles `msg`; its reply crosses the link back.
    fn vote(&mut self, i: usize, msg: NetMsg) {
        let (node, acceptor) = &mut self.local[i];
        let node = *node;
        let Some(reply) = acceptor.handle(msg) else {
            return;
        };
        match self.net.admit(node, self.me) {
            None => {}
            Some(delay) if delay.is_zero() => self.replies.push_back((node, reply)),
            Some(delay) => self.hold(delay, Leg::Reply(node), reply),
        }
    }

    fn hold(&mut self, delay: Duration, leg: Leg, msg: NetMsg) {
        let due = self.clock.now() + delay;
        self.held.push(Held { due, leg, msg });
    }

    fn release_due(&mut self) {
        if self.held.is_empty() {
            return;
        }
        let now = self.clock.now();
        let (due, later): (Vec<Held>, Vec<Held>) = std::mem::take(&mut self.held)
            .into_iter()
            .partition(|h| h.due <= now);
        self.held = later;
        for h in due {
            match h.leg {
                Leg::Request(i) => self.vote(i, h.msg),
                Leg::Reply(from) => self.replies.push_back((from, h.msg)),
            }
        }
    }

    /// Caps a wait so that the next delayed vote is released on time.
    fn wait(&self, timeout: Duration) -> Duration {
        match self.held.iter().map(|h| h.due).min() {
            Some(due) => timeout.min(due.saturating_duration_since(self.clock.now())),
            None => timeout,
        }
    }

    /// The proposer's newly decided instances, in order.
    ///
    /// The co-located acceptors forget everything below them: this
    /// incarnation's phase 1 only ever asks from the next delivery, and
    /// they die with the coordinator, so nothing can ask for a decided
    /// instance again. When open instances went [`ACCEPT_RETRY`] without
    /// any decision, their `Accept`s go out again.
    fn take_decided(&mut self, prop: &mut Proposer<Batch>) -> Vec<(Instance, Batch)> {
        let decided = prop.take_decided();
        if let Some(&(last, _)) = decided.last() {
            for (_, acceptor) in &mut self.local {
                acceptor.forget_below(last + 1);
            }
        }
        let now = self.clock.now();
        if !decided.is_empty() || prop.inflight_len() == 0 {
            self.progress_at = now;
        } else if now.saturating_duration_since(self.progress_at) >= ACCEPT_RETRY {
            let accepts = prop.undecided_accepts();
            self.drive(prop, accepts);
            self.progress_at = now;
        }
        decided
    }
}

fn coordinator_main(
    cfg: SystemConfig,
    inner: Arc<Inner>,
    submit_rx: Receiver<(Instant, Bytes)>,
    inbox: Receiver<(NodeId, NetMsg)>,
    mut acceptors: Acceptors,
) {
    let clock = Arc::clone(&inner.rt.clock);
    let mut prop: Proposer<Batch> =
        Proposer::new(coordinator_node(inner.group_id).as_raw(), cfg.n_acceptors);

    // Win leadership (phase 1) before accepting traffic.
    let mut retry_at = clock.now();
    while !prop.is_leading() {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let now = clock.now();
        if now >= retry_at {
            let prepare = prop.start();
            acceptors.drive(&mut prop, vec![prepare]);
            retry_at = now + PREPARE_RETRY;
            continue;
        }
        match recv_timeout_via(&*clock, &inbox, acceptors.wait(retry_at - now)) {
            Ok((from, msg)) => acceptors.handle(&mut prop, from, msg),
            Err(RecvTimeoutError::Timeout) => acceptors.drive(&mut prop, Vec::new()),
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
    batched_main(cfg, inner, submit_rx, inbox, prop, acceptors);
}

/// Traffic-driven batching (single-stream deployments: SMR, sP-SMR).
///
/// Batches close when full (8 KB cap) or after the linger delay. The stream
/// carries only real traffic — fine when nobody merges it with another
/// stream.
fn batched_main(
    cfg: SystemConfig,
    inner: Arc<Inner>,
    submit_rx: Receiver<(Instant, Bytes)>,
    inbox: Receiver<(NodeId, NetMsg)>,
    mut prop: Proposer<Batch>,
    mut acceptors: Acceptors,
) {
    // A WAL-seeded stream continues the pre-crash numbering: Paxos
    // instances restart at 0 each incarnation, the stream seq does not.
    let seq_base = inner.stream.lock().next_seq;
    // Linger timing runs on the injected clock so a virtual-time test
    // controls exactly when batches close.
    let clock = Arc::clone(&inner.rt.clock);
    let mut batch: Vec<Bytes> = Vec::new();
    let mut batch_bytes = 0usize;
    // Linger timer: when this loop *saw* the batch's first command.
    let mut batch_opened_at: Option<Instant> = None;
    // Trace origin: when that command was *enqueued* — includes the
    // channel wait, which grows whenever this loop lags behind arrivals.
    let mut batch_arrived_at: Option<Instant> = None;
    // Mirrors the proposer's instance counter (instances are assigned
    // sequentially in submission order), so the stream seq of a batch is
    // known at submit time — where the Submitted trace stamp belongs.
    let mut submitted: u64 = 0;

    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }

        // 0. Hold the gate until the group is started so every subscriber
        //    sees the stream from its first batch.
        if !inner.started.load(Ordering::Acquire) {
            match inbox.recv_timeout(acceptors.wait(Duration::from_millis(1))) {
                Ok((from, msg)) => acceptors.handle(&mut prop, from, msg),
                Err(RecvTimeoutError::Timeout) => acceptors.drive(&mut prop, Vec::new()),
                Err(RecvTimeoutError::Disconnected) => return,
            }
            continue;
        }

        // 1. Wait for work on either channel: a new submission or an
        //    acceptor reply. The timeout covers the batch linger and the
        //    next delayed co-located vote.
        let timeout = match batch_opened_at {
            Some(t) => cfg
                .batch_delay
                .saturating_sub(clock.now().saturating_duration_since(t))
                .max(Duration::from_micros(1)),
            None => Duration::from_millis(5),
        };
        crossbeam::channel::select! {
            recv(submit_rx) -> cmd => {
                if let Ok((at, cmd)) = cmd {
                    batch_bytes += cmd.len();
                    batch.push(cmd);
                    if batch_opened_at.is_none() {
                        batch_opened_at = Some(clock.now());
                        batch_arrived_at = Some(at);
                    }
                }
            }
            recv(inbox) -> msg => {
                match msg {
                    Ok((from, msg)) => acceptors.handle(&mut prop, from, msg),
                    Err(_) => return,
                }
            }
            default(clock.poll_slice(acceptors.wait(timeout))) => {}
        }
        // Drain whatever else is queued, without blocking.
        while batch_bytes < cfg.batch_bytes {
            match submit_rx.try_recv() {
                Ok((at, cmd)) => {
                    batch_bytes += cmd.len();
                    batch.push(cmd);
                    if batch_opened_at.is_none() {
                        batch_opened_at = Some(clock.now());
                        batch_arrived_at = Some(at);
                    }
                }
                Err(_) => break,
            }
        }
        while let Ok((from, msg)) = inbox.try_recv() {
            acceptors.handle(&mut prop, from, msg);
        }
        acceptors.drive(&mut prop, Vec::new());

        // 2. Close the batch if full or lingered long enough (respect the
        //    pipeline cap).
        let linger_expired = batch_opened_at
            .map(|t| clock.now().saturating_duration_since(t) >= cfg.batch_delay)
            .unwrap_or(false);
        if (batch_bytes >= cfg.batch_bytes || (linger_expired && !batch.is_empty()))
            && prop.inflight_len() < MAX_INFLIGHT
        {
            let full = std::mem::take(&mut batch);
            batch_bytes = 0;
            batch_opened_at = None;
            if let Some(arrived) = batch_arrived_at.take() {
                trace::global().stamp_at(
                    inner.group_id,
                    seq_base + submitted,
                    Stage::Submitted,
                    arrived,
                );
            }
            submitted += 1;
            // One Arc for phase 2: every acceptor receives the same
            // shared value, never a deep clone of the commands.
            let accepts = prop.submit(Arc::new(full));
            acceptors.drive(&mut prop, accepts);
        }

        // 3. Deliver decided batches to subscribers, in order (one stream
        //    batch per decided instance). The decided value moves into
        //    the stream batch as the same shared allocation.
        for (instance, commands) in acceptors.take_decided(&mut prop) {
            inner.decided.fetch_add(1, Ordering::Relaxed);
            inner.deliver(Arc::new(DecidedBatch {
                seq: seq_base + instance,
                commands,
            }));
        }
    }
}

/// The round-paced groups of one deployment (P-SMR's per-worker groups
/// plus `g_all`), all ordered by one `order-rounds` thread.
///
/// Deterministic merge pairs batch `r` of every merged stream, so **all
/// streams must produce batches at the same rate** — otherwise their
/// sequence numbers drift apart without bound (the skip mechanism of
/// Multi-Ring Paxos). The thread owns every group's proposer, acceptors
/// (all inline), open round and stream, and each fire closes exactly one
/// round on every group: everything queued, split across Paxos instances
/// of at most `batch_bytes` each (the paper's 8 KB message cap), or a
/// single empty *skip* instance when idle. Round `r + 1` fires once round
/// `r` is decided on every group, and then as soon as every subscriber
/// took round `r - 1` (its ring holds at most round `r`) and some group
/// has a queued submission — or once `skip_interval` has passed since
/// round `r` fired: the idle skip round, which also bounds how long a
/// consumer that stopped reading holds rounds back. One pass proposes,
/// votes, decides, logs and fans out the whole round: `g_all` (the last
/// group) first, so a worker woken by its own group finds the round's
/// `g_all` batch already in its ring, then the groups whose round carries
/// commands, then the skips.
///
/// Precondition: every group keeps an acceptor majority (the `f = 1`
/// fault model). A group that cannot decide holds the next round on
/// every group, including workers whose merges do not read the stalled
/// stream; firing only the groups that caught up would break the lockstep
/// the merge needs.
#[derive(Debug)]
pub struct LockstepGroups {
    handles: Vec<GroupHandle>,
    doorbell: Sender<()>,
    thread: Option<JoinHandle<()>>,
}

impl LockstepGroups {
    /// Spawns one group per entry of `modes` (group `i` logs in
    /// `modes[i]`), each on its own [`LiveNet`] over `rt`, and the thread
    /// that orders them. The WAL replay of
    /// [`PaxosGroup::spawn_with_wal_mode`] applies to each.
    ///
    /// # Panics
    ///
    /// See [`PaxosGroup::spawn_with_wal_mode`].
    pub fn spawn(cfg: &SystemConfig, rt: &Runtime, modes: Vec<WalMode>) -> Self {
        let (doorbell, rings) = bounded(1);
        let all: Vec<usize> = (0..cfg.n_acceptors).collect();
        let (handles, groups) = modes
            .iter()
            .enumerate()
            .map(|(gid, mode)| {
                let net = LiveNet::with_runtime(rt.clone());
                let (inner, submit_rx) = Inner::new(gid, cfg, &net, mode, Some(doorbell.clone()));
                let group = RoundGroup {
                    prop: Proposer::new(coordinator_node(gid).as_raw(), cfg.n_acceptors),
                    acceptors: Acceptors::new(gid, &net, cfg.n_acceptors, &all),
                    submit_rx,
                    undecided: 0,
                    commands: Vec::new(),
                    next_seq: inner.stream.lock().next_seq,
                    retry_at: rt.clock.now(),
                    inner: Arc::clone(&inner),
                };
                (GroupHandle { inner }, group)
            })
            .unzip();
        let clock = Arc::clone(&rt.clock);
        let cfg = cfg.clone();
        let thread = std::thread::Builder::new()
            .name("order-rounds".into())
            .spawn(move || order_rounds_main(groups, &rings, &*clock, &cfg))
            .expect("spawn round ordering thread");
        Self {
            handles,
            doorbell,
            thread: Some(thread),
        }
    }

    /// The groups, by group id.
    pub fn handles(&self) -> &[GroupHandle] {
        &self.handles
    }

    /// The ordering thread's `bounded(1)` doorbell. A consumer rings it
    /// after taking a round out of its delivery rings, so a round held
    /// back for slow consumers fires as soon as they caught up.
    pub fn doorbell(&self) -> Sender<()> {
        self.doorbell.clone()
    }

    /// Stops every group and joins the ordering thread.
    pub fn shutdown(mut self) {
        for handle in &self.handles {
            handle.shutdown();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One group's ordering state, owned by the `order-rounds` thread.
#[derive(Debug)]
struct RoundGroup {
    inner: Arc<Inner>,
    submit_rx: Receiver<(Instant, Bytes)>,
    prop: Proposer<Batch>,
    acceptors: Acceptors,
    /// Instances of the open round not yet decided (0: no round open).
    undecided: usize,
    /// Commands of the open round's decided instances, in instance order.
    commands: Vec<Bytes>,
    /// Stream seq of the open (or next) round; a WAL-seeded stream
    /// continues the pre-crash numbering.
    next_seq: u64,
    /// When phase 1 may start (again).
    retry_at: Instant,
}

impl RoundGroup {
    /// Whether the group leads and its last round is delivered.
    fn closed(&self) -> bool {
        self.undecided == 0 && self.prop.is_leading()
    }

    /// Starts phase 1 when it is due and releases delayed votes that
    /// came due.
    fn step(&mut self, now: Instant) {
        let mut msgs = Vec::new();
        if !self.prop.is_leading() && now >= self.retry_at {
            msgs.push(self.prop.start());
            self.retry_at = now + PREPARE_RETRY;
        }
        self.acceptors.drive(&mut self.prop, msgs);
    }

    /// Opens the next round: everything queued now, split into instances
    /// of at most `batch_bytes`, or one empty skip instance. Returns
    /// whether the round carries commands.
    fn fire(&mut self, batch_bytes: usize) -> bool {
        let mut opened: Option<Instant> = None;
        let mut instances: Vec<Vec<Bytes>> = vec![Vec::new()];
        let mut last_bytes = 0usize;
        while let Ok((at, cmd)) = self.submit_rx.try_recv() {
            opened.get_or_insert(at);
            if last_bytes + cmd.len() > batch_bytes && !instances[instances.len() - 1].is_empty() {
                instances.push(Vec::new());
                last_bytes = 0;
            }
            last_bytes += cmd.len();
            instances.last_mut().expect("non-empty").push(cmd);
        }
        // The enqueue time travels with each command, so the Submitted
        // stamp of the round covers the queue wait of its oldest command.
        if let Some(opened) = opened {
            trace::global().stamp_at(self.inner.group_id, self.next_seq, Stage::Submitted, opened);
        }
        self.undecided = instances.len();
        for instance in instances {
            let accepts = self.prop.submit(Arc::new(instance));
            self.acceptors.drive(&mut self.prop, accepts);
        }
        opened.is_some()
    }

    /// Folds decided instances into the open round and delivers it once
    /// all of them are decided. Folding clones only the `Bytes` handles:
    /// the payloads stay shared with the consensus layer.
    fn deliver_decided(&mut self) {
        for (_, commands) in self.acceptors.take_decided(&mut self.prop) {
            self.commands.extend(commands.iter().cloned());
            self.undecided -= 1;
            if self.undecided == 0 {
                self.inner.decided.fetch_add(1, Ordering::Relaxed);
                let seq = self.next_seq;
                self.next_seq += 1;
                self.inner.deliver(Arc::new(DecidedBatch {
                    seq,
                    commands: Arc::new(std::mem::take(&mut self.commands)),
                }));
            }
        }
    }

    /// When the group next needs the thread without a ring: a phase-1
    /// retry, a delayed vote coming due, or the [`ACCEPT_RETRY`] re-send
    /// of undecided instances.
    fn deadline(&self) -> Option<Instant> {
        let retry = if !self.prop.is_leading() {
            Some(self.retry_at)
        } else if self.prop.inflight_len() > 0 {
            Some(self.acceptors.progress_at + ACCEPT_RETRY)
        } else {
            None
        };
        self.acceptors.held.iter().map(|h| h.due).chain(retry).min()
    }
}

/// The `order-rounds` thread (see [`LockstepGroups`]). It parks on one
/// doorbell — rung by submissions, consumers, the start and the shutdown —
/// for at most the time left until the idle skip round or the nearest
/// group [`RoundGroup::deadline`], all on the injected `clock`.
fn order_rounds_main(
    mut groups: Vec<RoundGroup>,
    rings: &Receiver<()>,
    clock: &dyn Clock,
    cfg: &SystemConfig,
) {
    let idle = cfg.skip_interval;
    let mut fired_at = clock.now();
    loop {
        // Take a pending ring before looking at anything: whatever lands
        // after the look rings again.
        let _ = rings.try_recv();
        if groups
            .iter()
            .any(|g| g.inner.shutdown.load(Ordering::Relaxed))
        {
            return;
        }
        let now = clock.now();
        for g in groups.iter_mut().rev() {
            g.step(now);
            g.deliver_decided();
        }
        let ready = groups
            .iter()
            .all(|g| g.closed() && g.inner.started.load(Ordering::Acquire));
        let since = clock.now().saturating_duration_since(fired_at);
        if ready
            && (since >= idle
                // A consumer may still hold round `r`: waiting for it to
                // take that too would tie every command's latency to the
                // slowest replica's execution of the previous round.
                || groups.iter().all(|g| g.inner.backlog() <= 1)
                    && groups.iter().any(|g| !g.submit_rx.is_empty()))
        {
            let loaded: Vec<bool> = groups.iter_mut().map(|g| g.fire(cfg.batch_bytes)).collect();
            fired_at = clock.now();
            // `g_all` first, then the groups with commands: their workers
            // wake before the ones that only take a skip.
            let last = groups.len() - 1;
            let mut order: Vec<usize> = (0..groups.len()).collect();
            order.sort_by_key(|&i| (i != last, !loaded[i]));
            for i in order {
                groups[i].deliver_decided();
            }
            continue;
        }
        let mut timeout = if ready {
            idle - since
        } else {
            idle.max(ACCEPT_RETRY)
        };
        if let Some(due) = groups.iter().filter_map(RoundGroup::deadline).min() {
            timeout = timeout.min(due.saturating_duration_since(clock.now()));
        }
        let _ = recv_timeout_via(clock, rings, timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::new(1);
        cfg.batch_delay(Duration::from_micros(100))
            .skip_interval(Duration::from_millis(5));
        cfg
    }

    #[test]
    fn single_command_is_delivered() {
        let group = PaxosGroup::spawn(1, &test_cfg());
        let sub = group.subscribe();
        group.start();
        group.submit(Bytes::from_static(b"hello"));
        let batch = sub.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(batch.seq, 1);
        assert_eq!(&batch.commands[..], &[Bytes::from_static(b"hello")]);
        group.shutdown();
    }

    #[test]
    fn stream_seq_numbers_are_contiguous() {
        let group = PaxosGroup::spawn(2, &test_cfg());
        let sub = group.subscribe();
        group.start();
        for i in 0..200u32 {
            group.submit(Bytes::from(i.to_le_bytes().to_vec()));
        }
        let mut got = Vec::new();
        let mut expect_seq = 1;
        while got.len() < 200 {
            let batch = sub.recv_timeout(Duration::from_secs(5)).expect("delivered");
            assert_eq!(batch.seq, expect_seq, "contiguous stream");
            expect_seq += 1;
            got.extend(
                batch
                    .commands
                    .iter()
                    .map(|c| u32::from_le_bytes(c[..4].try_into().unwrap())),
            );
        }
        assert_eq!(got, (0..200).collect::<Vec<_>>(), "FIFO order preserved");
        group.shutdown();
    }

    #[test]
    fn all_subscribers_see_the_same_stream() {
        let group = PaxosGroup::spawn(3, &test_cfg());
        let sub1 = group.subscribe();
        let sub2 = group.subscribe();
        group.start();
        for i in 0..50u32 {
            group.submit(Bytes::from(i.to_le_bytes().to_vec()));
        }
        let drain = |rx: &Receiver<Arc<DecidedBatch>>| {
            let mut cmds = Vec::new();
            while cmds.len() < 50 {
                let b = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
                cmds.extend(b.commands.iter().cloned());
            }
            cmds
        };
        assert_eq!(drain(&sub1), drain(&sub2));
        group.shutdown();
    }

    #[test]
    fn batching_respects_size_cap() {
        let mut cfg = test_cfg();
        cfg.batch_bytes(64);
        let group = PaxosGroup::spawn(4, &cfg);
        let sub = group.subscribe();
        group.start();
        // 32 commands of 16 bytes each; no batch may exceed ~64+16 bytes.
        for i in 0..32u64 {
            group.submit(Bytes::from(vec![i as u8; 16]));
        }
        let mut seen = 0;
        while seen < 32 {
            let b = sub.recv_timeout(Duration::from_secs(5)).expect("delivered");
            let bytes: usize = b.commands.iter().map(|c| c.len()).sum();
            assert!(bytes <= 64 + 16, "batch of {bytes} bytes exceeds cap");
            seen += b.commands.len();
        }
        group.shutdown();
    }

    /// `n` lockstep groups on the real clock with an idle skip round
    /// every `idle`.
    fn lockstep(n: usize, idle: Duration, cfg: &mut SystemConfig) -> LockstepGroups {
        cfg.skip_interval(idle);
        LockstepGroups::spawn(cfg, &Runtime::real(), vec![WalMode::None; n])
    }

    #[test]
    fn lockstep_groups_emit_skip_rounds_when_idle() {
        let groups = lockstep(2, Duration::from_millis(5), &mut test_cfg());
        let subs: Vec<_> = groups.handles().iter().map(|g| g.subscribe()).collect();
        for g in groups.handles() {
            g.start();
        }
        for sub in &subs {
            let batch = sub
                .recv_timeout(Duration::from_secs(5))
                .expect("skip arrives");
            assert!(batch.is_skip());
            assert_eq!(batch.seq, 1);
        }
        assert!(groups.handles()[0].decided_count() >= 1);
        groups.shutdown();
    }

    #[test]
    fn lockstep_groups_pack_queued_submissions_into_one_round() {
        let groups = lockstep(2, Duration::from_millis(200), &mut test_cfg());
        let subs: Vec<_> = groups.handles().iter().map(|g| g.subscribe()).collect();
        let g0 = &groups.handles()[0];
        // Nothing fires before the start: the submissions wait in the
        // queue, and the start fires them as one round.
        for i in 0..10u32 {
            g0.submit(Bytes::from(i.to_le_bytes().to_vec()));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(g0.queued(), 10);
        for g in groups.handles() {
            g.start();
        }
        let batch = subs[0]
            .recv_timeout(Duration::from_secs(5))
            .expect("round arrives");
        assert_eq!(batch.seq, 1);
        assert_eq!(batch.commands.len(), 10, "whole backlog in one round");
        assert_eq!(g0.queued(), 0);
        let other = subs[1].recv_timeout(Duration::from_secs(5)).expect("skip");
        assert!(
            other.is_skip() && other.seq == 1,
            "every group closes round 1"
        );
        // The next round with no traffic is the idle skip, with the next seq.
        let batch = subs[0]
            .recv_timeout(Duration::from_secs(5))
            .expect("skip arrives");
        assert!(batch.is_skip());
        assert_eq!(batch.seq, 2);
        groups.shutdown();
    }

    #[test]
    fn lockstep_round_splits_oversized_backlog_into_capped_instances() {
        let mut cfg = test_cfg();
        cfg.batch_bytes(64);
        let groups = lockstep(1, Duration::from_secs(10), &mut cfg);
        let g0 = &groups.handles()[0];
        let sub = g0.subscribe();
        for i in 0..32u64 {
            g0.submit(Bytes::from(vec![i as u8; 16]));
        }
        std::thread::sleep(Duration::from_millis(20));
        g0.start();
        // All 32 commands arrive as ONE stream batch (one round) even
        // though they were decided as multiple 64-byte Paxos instances.
        let batch = sub
            .recv_timeout(Duration::from_secs(5))
            .expect("round arrives");
        assert_eq!(batch.seq, 1);
        assert_eq!(batch.commands.len(), 32);
        assert_eq!(g0.decided_count(), 1);
        groups.shutdown();
    }

    #[test]
    fn survives_one_acceptor_crash() {
        let net: LiveNet<NetMsg> = LiveNet::new();
        let group = PaxosGroup::spawn_with(6, &test_cfg(), net.clone());
        let sub = group.subscribe();
        group.start();
        group.submit(Bytes::from_static(b"before"));
        let b = sub
            .recv_timeout(Duration::from_secs(5))
            .expect("pre-crash traffic");
        assert_eq!(&b.commands[0][..], b"before");
        // Crash one of the three acceptors: majority (2) remains.
        net.crash(acceptor_node(6, 2));
        for _ in 0..20 {
            group.submit(Bytes::from_static(b"after"));
        }
        let mut seen = 0;
        while seen < 20 {
            let b = sub
                .recv_timeout(Duration::from_secs(5))
                .expect("post-crash progress");
            seen += b.commands.len();
        }
        group.shutdown();
    }

    #[test]
    fn decided_count_tracks_batches() {
        let group = PaxosGroup::spawn(7, &test_cfg());
        let sub = group.subscribe();
        group.start();
        group.submit(Bytes::from_static(b"x"));
        let _ = sub.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert!(group.handle().decided_count() >= 1);
        assert_eq!(group.handle().group_id(), 7);
        group.shutdown();
    }

    #[test]
    fn late_subscriber_replays_the_retained_suffix() {
        let group = PaxosGroup::spawn(11, &test_cfg());
        let live = group.subscribe();
        group.start();
        for i in 0..20u32 {
            group.submit(Bytes::from(i.to_le_bytes().to_vec()));
        }
        // Wait until the live subscriber saw everything.
        let mut seen = 0;
        let mut last_seq = 0;
        while seen < 20 {
            let b = live
                .recv_timeout(Duration::from_secs(5))
                .expect("delivered");
            seen += b.commands.len();
            last_seq = b.seq;
        }
        // A catch-up subscriber from seq 1 replays the identical stream.
        let replay = group.handle().subscribe_from(1).expect("log retained");
        let mut got = Vec::new();
        let mut expect_seq = 1;
        while got.len() < 20 {
            let b = replay
                .recv_timeout(Duration::from_secs(5))
                .expect("replayed");
            assert_eq!(b.seq, expect_seq, "replay is gap-free");
            expect_seq += 1;
            got.extend(
                b.commands
                    .iter()
                    .map(|c| u32::from_le_bytes(c[..4].try_into().unwrap())),
            );
        }
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        // Mid-stream resumption also works.
        let partial = group
            .handle()
            .subscribe_from(last_seq)
            .expect("still retained");
        let b = partial
            .recv_timeout(Duration::from_secs(5))
            .expect("replayed");
        assert_eq!(b.seq, last_seq);
        group.shutdown();
    }

    #[test]
    fn trim_below_bounds_the_log_and_fails_stale_subscribers() {
        let group = PaxosGroup::spawn(12, &test_cfg());
        let sub = group.subscribe();
        group.start();
        // Submit one at a time, waiting for delivery, so the batcher
        // cannot coalesce: the stream is guaranteed to span seq >= 3.
        for i in 0..30u32 {
            group.submit(Bytes::from(i.to_le_bytes().to_vec()));
            let mut seen = 0;
            while seen < 1 {
                let b = sub.recv_timeout(Duration::from_secs(5)).expect("delivered");
                seen += b.commands.len();
            }
        }
        let handle = group.handle();
        let retained_before = handle.retained_len();
        assert!(retained_before >= 1);
        handle.trim_below(3);
        assert_eq!(handle.first_retained_seq(), Some(3));
        assert!(handle.retained_len() < retained_before + 1);
        match handle.subscribe_from(1) {
            Err(SubscribeError::Trimmed { first_retained }) => {
                assert_eq!(first_retained, 3)
            }
            other => panic!("expected trimmed error, got {other:?}"),
        }
        assert!(matches!(
            handle.subscribe_from(u64::MAX),
            Err(SubscribeError::Future { .. })
        ));
        group.shutdown();
    }

    #[test]
    fn retention_cap_bounds_memory_without_checkpoints() {
        let mut cfg = test_cfg();
        cfg.log_retention(4);
        let group = PaxosGroup::spawn(13, &cfg);
        let sub = group.subscribe();
        group.start();
        for i in 0..200u32 {
            group.submit(Bytes::from(i.to_le_bytes().to_vec()));
        }
        let mut seen = 0;
        while seen < 200 {
            let b = sub.recv_timeout(Duration::from_secs(5)).expect("delivered");
            seen += b.commands.len();
        }
        assert!(
            group.handle().retained_len() <= 4,
            "retained {} > cap 4",
            group.handle().retained_len()
        );
        group.shutdown();
    }

    /// Corruption in a *non-tail* segment leaves a hole in the stream
    /// that replay cannot cross; respawning over such a log must fail
    /// loudly instead of bridging the gap into divergent state.
    #[test]
    #[should_panic(expected = "corrupt mid-stream")]
    fn respawn_over_a_mid_stream_hole_refuses_to_bridge_it() {
        use psmr_wal::{Wal, WalOptions};
        let dir = std::env::temp_dir().join(format!("psmr-paxos-wal-hole-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = WalOptions {
            segment_bytes: 64,
            batch: 1,
        };
        {
            let wal = Wal::open(&dir, opts).unwrap();
            for seq in 1..=10 {
                wal.append(seq, &[Bytes::from(vec![seq as u8; 48])])
                    .unwrap();
            }
            assert!(
                wal.segment_count() >= 3,
                "rotation produced a middle segment"
            );
        }
        // Flip a byte inside the FIRST segment's records.
        let mut seg: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        seg.sort();
        let mut bytes = std::fs::read(&seg[0]).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x40;
        std::fs::write(&seg[0], bytes).unwrap();

        let wal = Arc::new(Wal::open(&dir, opts).unwrap());
        // (The panic unwinds before any cleanup; the pid-stamped dir is
        // reclaimed by the next run's remove_dir_all.)
        let _group = PaxosGroup::spawn_with_wal(21, &test_cfg(), LiveNet::new(), Some(wal));
    }

    /// The durable-ordered-log contract: a group spawned over the WAL a
    /// previous incarnation wrote *continues* its stream — the retained
    /// log replays the pre-crash suffix, the sequence numbering does not
    /// restart, and new decisions land behind the replayed ones.
    #[test]
    fn wal_backed_group_survives_a_full_respawn() {
        use psmr_wal::{Wal, WalOptions};
        let dir = std::env::temp_dir().join(format!("psmr-paxos-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open_wal = || Some(Arc::new(Wal::open(&dir, WalOptions::default()).unwrap()));

        // First incarnation: decide a few batches, then die (shutdown).
        let group = PaxosGroup::spawn_with_wal(20, &test_cfg(), LiveNet::new(), open_wal());
        let sub = group.subscribe();
        group.start();
        let mut last_seq = 0;
        for i in 0..10u32 {
            group.submit(Bytes::from(i.to_le_bytes().to_vec()));
            let mut seen = 0;
            while seen < 1 {
                let b = sub.recv_timeout(Duration::from_secs(5)).expect("delivered");
                seen += b.commands.len();
                last_seq = b.seq;
            }
        }
        assert!(last_seq >= 10);
        group.shutdown();

        // Second incarnation over the same directory: the whole stream
        // replays from the retained log and the numbering continues.
        let group = PaxosGroup::spawn_with_wal(20, &test_cfg(), LiveNet::new(), open_wal());
        let replay = group
            .handle()
            .subscribe_from(1)
            .expect("pre-crash suffix retained");
        group.start();
        group.submit(Bytes::from_static(b"post-crash"));
        let mut got = Vec::new();
        let mut expect_seq = 1;
        loop {
            let b = replay
                .recv_timeout(Duration::from_secs(5))
                .expect("replayed");
            assert_eq!(b.seq, expect_seq, "contiguous across incarnations");
            expect_seq += 1;
            got.extend(b.commands.iter().map(|c| c.to_vec()));
            if got.last().is_some_and(|c| c == b"post-crash") {
                break;
            }
        }
        assert!(
            expect_seq > last_seq + 1,
            "new decisions continue the old numbering"
        );
        let pre_crash: Vec<u32> = got[..got.len() - 1]
            .iter()
            .map(|c| u32::from_le_bytes(c[..4].try_into().unwrap()))
            .collect();
        assert_eq!(pre_crash, (0..10).collect::<Vec<_>>());
        // trim_below reclaims WAL segments too (covered in psmr-wal's own
        // tests; here we just exercise the wiring).
        group.handle().trim_below(last_seq);
        group.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The WAL/execution overlap contract: with the sync thread held
    /// (the fsync "in flight forever"), decided batches still fan out —
    /// execution is never gated on durability — while the durability
    /// watermark stays put; releasing the hold lets the watermark catch
    /// up.
    #[test]
    fn pipelined_group_fans_out_before_the_covering_fsync() {
        use psmr_wal::{Wal, WalOptions};
        let dir = std::env::temp_dir().join(format!("psmr-paxos-pipe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Arc::new(
            Wal::open(
                &dir,
                WalOptions {
                    segment_bytes: 4 * 1024 * 1024,
                    batch: usize::MAX,
                },
            )
            .unwrap(),
        );
        let syncer = WalSyncer::spawn(Duration::from_micros(200));
        let group = PaxosGroup::spawn_with_wal_mode(
            30,
            &test_cfg(),
            LiveNet::new(),
            WalMode::Pipelined {
                wal,
                syncer: Arc::clone(&syncer),
            },
        );
        let handle = group.handle();
        let sub = group.subscribe();
        group.start();
        handle.hold_wal_sync(true);
        let durable_before = handle.durable_seq();
        group.submit(Bytes::from_static(b"overlapped"));
        let batch = sub
            .recv_timeout(Duration::from_secs(5))
            .expect("fan-out does not wait for the fsync");
        assert_eq!(&batch.commands[0][..], b"overlapped");
        assert_eq!(
            handle.durable_seq(),
            0,
            "held sync thread must not advance the watermark"
        );
        handle.hold_wal_sync(false);
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.durable_seq() < batch.seq {
            assert!(Instant::now() < deadline, "watermark never caught up");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            handle.durable_seq() > durable_before,
            "fsync completion advanced the watermark"
        );
        group.shutdown();
        syncer.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash between fan-out and fsync: a pipelined group shut down
    /// while its sync thread is held loses exactly the un-fsynced
    /// suffix to a power failure — the respawned stream replays the
    /// durable prefix and nothing after the watermark.
    #[test]
    fn pipelined_power_failure_loses_only_the_unsynced_suffix() {
        use psmr_wal::{Wal, WalOptions};
        let dir = std::env::temp_dir().join(format!("psmr-paxos-pwr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = WalOptions {
            segment_bytes: 4 * 1024 * 1024,
            batch: usize::MAX,
        };
        let syncer = WalSyncer::spawn(Duration::from_micros(200));
        let group = PaxosGroup::spawn_with_wal_mode(
            31,
            &test_cfg(),
            LiveNet::new(),
            WalMode::Pipelined {
                wal: Arc::new(Wal::open(&dir, opts).unwrap()),
                syncer: Arc::clone(&syncer),
            },
        );
        let handle = group.handle();
        let sub = group.subscribe();
        group.start();
        // Phase 1: decided and fsynced (watermark catches up).
        let mut durable_seq = 0;
        for i in 0..5u32 {
            group.submit(Bytes::from(i.to_le_bytes().to_vec()));
            let b = sub.recv_timeout(Duration::from_secs(5)).expect("delivered");
            durable_seq = b.seq;
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.durable_seq() < durable_seq {
            assert!(Instant::now() < deadline, "watermark never caught up");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Phase 2: the fsync never lands — decided, fanned out, undurable.
        handle.hold_wal_sync(true);
        for i in 100..103u32 {
            group.submit(Bytes::from(i.to_le_bytes().to_vec()));
            let _ = sub.recv_timeout(Duration::from_secs(5)).expect("delivered");
        }
        assert_eq!(handle.durable_seq(), durable_seq, "suffix is not durable");
        // Crash + power failure: threads stop, the unsynced tail is gone.
        group.shutdown();
        syncer.stop();
        let dropped = handle.power_fail();
        assert!(dropped >= 3, "the held suffix was discarded ({dropped})");

        // The respawn sees exactly the durable prefix.
        let group = PaxosGroup::spawn_with_wal(
            31,
            &test_cfg(),
            LiveNet::new(),
            Some(Arc::new(Wal::open(&dir, opts).unwrap())),
        );
        assert_eq!(group.handle().next_seq(), durable_seq + 1);
        let replay = group.handle().subscribe_from(1).expect("prefix retained");
        let mut got = Vec::new();
        while got.len() < 5 {
            let b = replay
                .recv_timeout(Duration::from_secs(5))
                .expect("replayed");
            got.extend(
                b.commands
                    .iter()
                    .map(|c| u32::from_le_bytes(c[..4].try_into().unwrap())),
            );
        }
        assert_eq!(
            got,
            (0..5).collect::<Vec<_>>(),
            "prefix intact, suffix gone"
        );
        group.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bounded delivery rings: a subscriber that stops consuming
    /// throttles the ordering thread at its ring's capacity — memory
    /// stays bounded, the stall is counted, and everything flows once
    /// the subscriber drains.
    #[test]
    fn slow_subscriber_throttles_ordering_with_bounded_memory() {
        let mut cfg = test_cfg();
        cfg.batch_bytes(32).delivery_queue(4);
        let group = PaxosGroup::spawn_with(32, &cfg, LiveNet::new());
        let sub = group.subscribe();
        group.start();
        let stalls_before = global().value(counters::DELIVERY_BACKPRESSURE_STALLS);
        // 48-byte commands against a 32-byte cap: one batch per command,
        // far more batches than the 4-slot ring holds.
        for i in 0..32u8 {
            group.submit(Bytes::from(vec![i; 48]));
        }
        // The ring fills and delivery stalls behind it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while global().value(counters::DELIVERY_BACKPRESSURE_STALLS) == stalls_before {
            assert!(Instant::now() < deadline, "backpressure stall never seen");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            sub.len() <= 4,
            "ring exceeded its bound: {} batches queued",
            sub.len()
        );
        // Draining un-throttles ordering: every command still arrives,
        // in order.
        let mut got = Vec::new();
        while got.len() < 32 {
            let b = sub.recv_timeout(Duration::from_secs(5)).expect("delivered");
            got.extend(b.commands.iter().map(|c| c[0]));
        }
        assert_eq!(got, (0..32).collect::<Vec<_>>());
        group.shutdown();
    }

    /// Co-located acceptors forget what their coordinator learned: after
    /// 10 000 decided instances each holds no more than the in-flight
    /// cap, not the group's whole history.
    #[test]
    fn inline_acceptors_forget_decided_instances() {
        let net: LiveNet<NetMsg> = LiveNet::new();
        let mut acceptors = Acceptors::new(40, &net, 3, &[0, 1, 2]);
        let mut prop: Proposer<Batch> = Proposer::new(coordinator_node(40).as_raw(), 3);
        let prepare = prop.start();
        acceptors.drive(&mut prop, vec![prepare]);
        assert!(prop.is_leading(), "inline promises win phase 1 at once");
        let mut decided = 0;
        for i in 0..10_000u32 {
            let accepts = prop.submit(Arc::new(vec![Bytes::from(i.to_le_bytes().to_vec())]));
            acceptors.drive(&mut prop, accepts);
            decided += acceptors.take_decided(&mut prop).len();
        }
        assert_eq!(decided, 10_000);
        for (node, acceptor) in &acceptors.local {
            assert!(
                acceptor.accepted_count() <= MAX_INFLIGHT,
                "{node:?} still holds {} accepted instances",
                acceptor.accepted_count()
            );
        }
    }

    /// Names of this process's threads, from `/proc/self/task/*/comm`.
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .map(|tasks| {
                tasks
                    .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                    .map(|name| name.trim().to_string())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The coordinator is the group's learner and sends no `Decide`:
    /// with acceptor 0 inline and acceptors 1 and 2 behind a counting
    /// gateway (a second net running them as [`RemoteAcceptor`]s, the
    /// shape of a multi-process deployment), the gateway carries Accepts
    /// and not one Decide, and the group runs no acceptor thread.
    #[test]
    fn no_decide_leaves_the_coordinator() {
        use std::sync::atomic::AtomicUsize;
        let (near, far): (LiveNet<NetMsg>, LiveNet<NetMsg>) = (LiveNet::new(), LiveNet::new());
        let accepts = Arc::new(AtomicUsize::new(0));
        let decides = Arc::new(AtomicUsize::new(0));
        {
            let (far, accepts, decides) = (far.clone(), Arc::clone(&accepts), Arc::clone(&decides));
            near.set_gateway(Arc::new(move |from, to, msg: &NetMsg| {
                match msg {
                    PaxosMsg::Accept { .. } => accepts.fetch_add(1, Ordering::Relaxed),
                    PaxosMsg::Decide { .. } => decides.fetch_add(1, Ordering::Relaxed),
                    _ => 0,
                };
                far.deliver(from, to, msg.clone())
            }));
        }
        {
            let near = near.clone();
            far.set_gateway(Arc::new(move |from, to, msg: &NetMsg| {
                near.deliver(from, to, msg.clone())
            }));
        }
        let remotes: Vec<RemoteAcceptor> = (1..3)
            .map(|i| RemoteAcceptor::spawn(41, i, far.clone()))
            .collect();
        let group = PaxosGroup::spawn_hosted(41, &test_cfg(), near, WalMode::None, &[0]);
        let sub = group.subscribe();
        group.start();
        for i in 0..20u32 {
            group.submit(Bytes::from(i.to_le_bytes().to_vec()));
            let b = sub.recv_timeout(Duration::from_secs(5)).expect("delivered");
            assert!(!b.commands.is_empty());
        }
        assert!(
            accepts.load(Ordering::Relaxed) >= 2 * 20,
            "every instance's Accept reaches both remote acceptors"
        );
        assert_eq!(decides.load(Ordering::Relaxed), 0, "no Decide is sent");
        let names = thread_names();
        assert!(
            names.iter().any(|n| n.starts_with("coord-g41")),
            "the /proc scan sees the coordinator: {names:?}"
        );
        assert!(
            !names.iter().any(|n| n.starts_with("acceptor-g")),
            "co-located acceptors run on the coordinator thread: {names:?}"
        );
        group.shutdown();
        for remote in remotes {
            remote.shutdown();
        }
    }

    #[test]
    fn shutdown_disconnects_subscribers() {
        let group = PaxosGroup::spawn(8, &test_cfg());
        let sub = group.subscribe();
        group.start();
        group.shutdown();
        // After shutdown the subscriber eventually disconnects.
        loop {
            match sub.recv_timeout(Duration::from_secs(5)) {
                Ok(_) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => panic!("subscriber not disconnected"),
            }
        }
    }
}
