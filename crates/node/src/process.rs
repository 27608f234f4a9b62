//! One OS process of a multi-process deployment.
//!
//! [`run_node`] assembles everything a `psmr-node` process hosts, from
//! the cluster config and this process's id:
//!
//! * the [`TcpMesh`] endpoint with two `LiveNet`s spliced onto it
//!   ([`bridge::splice`]) — channel 0 carries paxos traffic, channel 1
//!   the state-transfer protocol — so the consensus and recovery code
//!   run unmodified over real sockets, delivered straight from the mesh
//!   reader threads;
//! * on node 0 (the orderer): the paxos group — coordinator, WAL, and
//!   acceptor 0 — spawned with [`LockstepGroups::spawn_hosted`] as the
//!   one group of an `order-rounds` thread. Acceptor 0 votes inline on
//!   that thread; the followers' votes arrive on the coordinator's inbox
//!   and wake it. It proposes as soon as a command is queued and relays
//!   every decided instance as one batch. Node 0 also serves the
//!   decided-batch **relay** (mesh channel 2) and runs the periodic
//!   checkpoint driver. The relay has no thread of its own: a handler
//!   on the mesh reader thread answers `Subscribe` with a `relay-fwd-*`
//!   forwarder and queues a follower's `Submit` with
//!   [`GroupHandle::try_submit`], which never blocks (a reader stalled on
//!   a full queue would hold that link's paxos votes behind it). Each
//!   decided batch is encoded once, by the first forwarder to reach it,
//!   and that body is shared with the other forwarders (`RelayCache`);
//! * on every other node: a [`RemoteAcceptor`] (acceptor `me` of the
//!   group) and the relay **follower** that streams decided batches
//!   from node 0, re-subscribing on gaps and falling back to TCP state
//!   transfer when the orderer has trimmed past its position;
//! * on every node: the kvstore replica executing the decided stream,
//!   its checkpoint/durable stores, a [`StateTransferServer`] serving
//!   peers, and the client listener.
//!
//! Every replica executes the same single ordered stream, so all nodes
//! converge on the same store state; a node answers exactly the clients
//! connected to *it* (command provenance rides in the ordered
//! [`Request`] envelope).
//!
//! The client and relay planes pay their costs per batch, not per
//! command: a client connection hands every request one socket read
//! decoded to ordering at once (a follower forwards them to node 0 as
//! one `Submit` frame), and the executor gathers an executed batch's
//! replies per connection and sends each connection's with one write.

use crate::admin::{self, AdminHub};
use crate::logger;
use crate::wire::{
    decode_stale_read, encode_batch, encode_response, encode_stale_response, push_response_frame,
    NodeClient, RelayMsg, STALE_READ,
};
use bytes::Bytes;
use parking_lot::Mutex;
use psmr_common::envelope::Request;
use psmr_common::export::JsonlSnapshotter;
use psmr_common::ids::{ClientId, CommandId, GroupId, RequestId};
use psmr_common::metrics::{counters, global as metrics_global};
use psmr_common::trace::{global as trace_global, ChainPrefix, Stage};
use psmr_common::SystemConfig;
use psmr_core::service::Service;
use psmr_kvstore::KvService;
use psmr_net::codec::{decode_paxos, decode_transfer, encode_paxos, encode_transfer};
use psmr_net::frame::encode_frame;
use psmr_net::{bridge, ClusterConfig, TcpMesh};
use psmr_netsim::{LiveNet, NodeId};
use psmr_paxos::runtime::{
    coordinator_node, DecidedBatch, GroupHandle, LockstepGroups, RemoteAcceptor, SubscribeError,
    WalMode,
};
use psmr_paxos::NetMsg;
use psmr_recovery::{
    fetch_latest, AutoCheckpointer, Checkpoint, CheckpointStore, DurableStore, Snapshot,
    StateTransferServer, StreamCut, TransferMsg, CHECKPOINT,
};
use psmr_wal::{Wal, WalOptions};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client id the orderer's periodic checkpoint driver stamps on the
/// CHECKPOINT commands it submits (never registered by a connection, so
/// driver checkpoints produce no response traffic).
const DRIVER_CLIENT: u64 = u64::MAX;

/// Transfer-plane node id a fetching node registers under (servers sit
/// at `NodeId(proc)`, fetchers at `NodeId(FETCHER_BASE + proc)`).
const FETCHER_BASE: u64 = 100;

/// Durable snapshots each node keeps on disk.
const DISK_RETAIN: usize = 2;

/// How often the metrics flight recorder appends a snapshot.
const METRICS_SNAPSHOT_PERIOD: Duration = Duration::from_millis(250);

/// Sequences node 0's [`RelayCache`] holds at most (the relay
/// forwarders of lagging followers may ask for old batches).
const RELAY_RETAIN: usize = 2048;

/// What node 0 keeps per stream sequence for its relay forwarders.
enum Relayed {
    /// A sampled batch's [`ChainPrefix`], anchored on the wall clock
    /// ([`reanchor`]). The executor deposits it *before* its `Released`
    /// stamp frees the trace slot, so a forwarder that reaches the batch
    /// after the local lifecycle folded can still attach it.
    Prefix(ChainPrefix),
    /// The batch's encoded [`RelayMsg::Batch`] body, trace prefix
    /// included: what every forwarder sends for this sequence.
    Body(Arc<Vec<u8>>),
}

/// Node 0's per-sequence relay state, shared by the executor and every
/// relay forwarder: the first forwarder to reach a decided batch encodes
/// it, the others send that same body. Holds the newest
/// [`RELAY_RETAIN`] sequences that were touched.
#[derive(Default)]
struct RelayCache(Mutex<BTreeMap<u64, Relayed>>);

impl RelayCache {
    /// Keeps the exported trace prefix of `seq` for the forwarders,
    /// unless one of them already encoded the batch.
    fn deposit_prefix(&self, seq: u64, prefix: ChainPrefix) {
        let mut slots = self.0.lock();
        slots.entry(seq).or_insert(Relayed::Prefix(prefix));
        Self::bound(&mut slots);
    }

    /// The encoded relay body of `batch`, encoded here on the first ask.
    /// Its trace prefix comes from the executor's deposit, or from the
    /// live trace slot for a batch the executor has not reached yet.
    fn body(&self, batch: &DecidedBatch) -> Arc<Vec<u8>> {
        let mut slots = self.0.lock();
        let trace = match slots.get(&batch.seq) {
            Some(Relayed::Body(body)) => return Arc::clone(body),
            Some(Relayed::Prefix(prefix)) => Some(*prefix),
            None => trace_global()
                .chain_prefix(0, batch.seq, Instant::now())
                .map(reanchor),
        };
        let body = Arc::new(encode_batch(batch.seq, trace.as_ref(), &batch.commands));
        slots.insert(batch.seq, Relayed::Body(Arc::clone(&body)));
        Self::bound(&mut slots);
        body
    }

    fn bound(slots: &mut BTreeMap<u64, Relayed>) {
        while slots.len() > RELAY_RETAIN {
            slots.pop_first();
        }
    }
}

/// Moves a trace prefix between its two anchors, and back (it is its own
/// inverse). Read off a local recorder, `submitted_age_ns` is how long
/// before the read `Submitted` was stamped; on the relay wire it holds
/// the `Submitted` instant on the wall clock (unix ns) instead. Node 0
/// converts at export and the follower converts back right after the
/// receive, so the hop between the two ends stays in the follower's
/// chain (in `appended_to_delivered`): an age read at the send and
/// re-anchored at the receive would drop it. Both ends must read one
/// wall clock — one host, or hosts kept in sync.
fn reanchor(mut prefix: ChainPrefix) -> ChainPrefix {
    let unix_ns = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    prefix.submitted_age_ns = unix_ns.saturating_sub(prefix.submitted_age_ns);
    prefix
}

/// Tunables of one node process (CLI flags of `psmr-node`).
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// Keys `0..keys` pre-loaded into every replica (value = key), the
    /// `KvService::with_keys` initial state all nodes must share.
    pub keys: u64,
    /// Interval of node 0's periodic CHECKPOINT submissions (`None` =
    /// checkpoints only when a client submits one explicitly).
    pub checkpoint_interval: Option<Duration>,
    /// Lifecycle-trace sampling: one stream sequence in `trace_sample`
    /// is stamped, chosen by a hash of the sequence (0 disables tracing).
    pub trace_sample: u64,
    /// How long a follower may go without hearing from the orderer
    /// before its admin `status` reports `degraded`. Must comfortably
    /// exceed `checkpoint_interval` — on an otherwise idle cluster the
    /// periodic CHECKPOINT batches are the heartbeat this bound
    /// measures against.
    pub degraded_after: Duration,
}

impl Default for NodeOptions {
    fn default() -> Self {
        Self {
            keys: 8,
            checkpoint_interval: Some(Duration::from_millis(200)),
            trace_sample: 32,
            degraded_after: Duration::from_secs(3),
        }
    }
}

/// Everything a running node process must keep alive. Dropping it tears
/// the node down (the binaries never do; deployments stop nodes with
/// signals).
pub struct RunningNode {
    mesh: TcpMesh,
    _xfer_server: StateTransferServer,
    _group: Option<LockstepGroups>,
    _racceptor: Option<RemoteAcceptor>,
    _driver: Option<AutoCheckpointer>,
    _metrics_recorder: JsonlSnapshotter,
}

impl RunningNode {
    /// Parks the calling thread forever — the binary's tail.
    pub fn park(&self) -> ! {
        loop {
            std::thread::park();
        }
    }

    /// The node's mesh endpoint (tests shut it down explicitly).
    pub fn mesh(&self) -> &TcpMesh {
        &self.mesh
    }
}

/// Per-client retransmission state: the newest executed request id and
/// its cached response. Built purely from the ordered stream, so every
/// replica holds the identical table.
type DedupTable = HashMap<u64, (u64, Vec<u8>)>;

/// The replica state one executor thread owns.
struct Core {
    me: usize,
    service: Arc<KvService>,
    store: Arc<CheckpointStore>,
    durable: DurableStore,
    clients: Clients,
    /// Present on node 0 only; used to trim the stream at checkpoints.
    handle: Option<GroupHandle>,
    /// Position of the checkpoint this incarnation restored from:
    /// commands at or before it are already reflected in the restored
    /// snapshot and must be skipped on replay.
    resume: Option<StreamCut>,
    /// Highest stream sequence this replica has applied — the admin
    /// `status` endpoint's `executed_seq` watermark.
    executed: Arc<AtomicU64>,
    /// Server-side exactly-once: a retransmitted request (same
    /// `(client, request)` id pushed into the stream again by a
    /// reconnecting [`NodeClient`]) is answered from the cached
    /// response instead of executing twice. Rides inside checkpoints
    /// (see [`encode_node_snapshot`]) so restored replicas keep
    /// recognizing duplicates of pre-cut originals.
    dedup: DedupTable,
    /// The replies of the batch being executed, in stream order:
    /// `(client, request, result)`.
    replies: Vec<(u64, RequestId, Vec<u8>)>,
}

/// The write half of one client connection, shared by its reader thread
/// (stale-read answers) and the executor (ordered replies).
type Conn = Arc<Mutex<TcpStream>>;

/// Client id → the connection that client last sent a request on.
type Clients = Arc<Mutex<HashMap<u64, Conn>>>;

impl Core {
    fn execute_batch(&mut self, seq: u64, commands: &[Bytes]) {
        // Lifecycle stamps land only where a slot is live: on node 0 the
        // embedded group claimed it at Submitted; on followers the
        // ingest loop claimed it by adopting the wire-carried prefix.
        let rec = trace_global();
        rec.stamp(0, seq, Stage::Delivered);
        rec.stamp(0, seq, Stage::ExecStart);
        let mut applied = 0u64;
        for (offset, raw) in commands.iter().enumerate() {
            if let Some(cut) = self.resume {
                if seq < cut.seq || (seq == cut.seq && offset <= cut.offset) {
                    continue;
                }
                self.resume = None;
            }
            let Ok(req) = Request::decode(raw) else {
                continue; // foreign bytes in the stream: skip, deterministically
            };
            if req.command == CHECKPOINT {
                self.take_checkpoint(seq, offset, &req);
            } else {
                let client_raw = req.client.as_raw();
                let request_raw = req.request.as_raw();
                if client_raw != DRIVER_CLIENT {
                    match self.dedup.get(&client_raw) {
                        Some(&(last, ref cached)) if request_raw == last => {
                            // A retransmitted copy of the newest command
                            // from this client: re-answer from the cache,
                            // never re-execute.
                            metrics_global().counter(counters::REQUESTS_DEDUPED).inc();
                            let cached = cached.clone();
                            self.respond(req.client, req.request, cached);
                            continue;
                        }
                        Some(&(last, _)) if request_raw < last => {
                            // An even older straggler (its client has
                            // already moved on): drop, deterministically.
                            metrics_global().counter(counters::REQUESTS_DEDUPED).inc();
                            continue;
                        }
                        _ => {}
                    }
                }
                let result = self.service.execute(req.command, &req.payload);
                if client_raw != DRIVER_CLIENT {
                    self.dedup.insert(client_raw, (request_raw, result.clone()));
                }
                self.respond(req.client, req.request, result);
            }
            applied += 1;
        }
        // A reply is released when it is written, so the batch's replies
        // go out before the Executed and Released stamps.
        self.flush_replies();
        rec.stamp(0, seq, Stage::Executed);
        rec.stamp(0, seq, Stage::Released);
        if applied > 0 {
            metrics_global()
                .counter(counters::COMMANDS_EXECUTED)
                .add(applied);
        }
        self.executed.store(seq, Ordering::Relaxed);
    }

    /// Snapshots the replica at `(seq, offset)` — every node executes
    /// this at the same stream position, so the installed checkpoints
    /// are byte-identical deployment-wide. Node 0 additionally trims the
    /// ordered stream (and WAL) it no longer needs for catch-up.
    fn take_checkpoint(&mut self, seq: u64, offset: usize, req: &Request) {
        let cut = StreamCut {
            group: GroupId::new(0),
            seq,
            offset,
        };
        let snapshot = encode_node_snapshot(&self.dedup, &self.service.snapshot());
        let id = self.store.latest_id() + 1;
        self.store.install(cut, id, snapshot.clone());
        let checkpoint = Checkpoint { id, cut, snapshot };
        if self.durable.persist(&checkpoint).is_ok() {
            let _ = self.durable.retain_newest(DISK_RETAIN);
        }
        if let Some(handle) = &self.handle {
            handle.trim_below(seq);
        }
        // Ack client-submitted checkpoints once the trim is done (the
        // driver's sentinel client has no connection; nothing is sent).
        self.respond(req.client, req.request, id.to_le_bytes().to_vec());
    }

    /// Queues a reply for the end of the batch ([`Core::flush_replies`]).
    fn respond(&mut self, client: ClientId, request: RequestId, result: Vec<u8>) {
        if client.as_raw() != DRIVER_CLIENT {
            self.replies.push((client.as_raw(), request, result));
        }
    }

    /// Sends the queued replies of one batch: the frames of each
    /// connection, in stream order, with one `write_all`. One `clients`
    /// lock looks every connection up; replies to clients connected to
    /// another node are dropped. A failed write unregisters the
    /// connection.
    fn flush_replies(&mut self) {
        if self.replies.is_empty() {
            return;
        }
        // Frames per connection; a batch touches few connections.
        let mut outgoing: Vec<(Conn, Vec<u8>)> = Vec::new();
        {
            let clients = self.clients.lock();
            for (client, request, result) in self.replies.drain(..) {
                let Some(conn) = clients.get(&client) else {
                    continue;
                };
                let at = match outgoing.iter().position(|(c, _)| Arc::ptr_eq(c, conn)) {
                    Some(at) => at,
                    None => {
                        outgoing.push((Arc::clone(conn), Vec::new()));
                        outgoing.len() - 1
                    }
                };
                push_response_frame(&mut outgoing[at].1, request, &result);
            }
        }
        for (conn, frames) in outgoing {
            if conn.lock().write_all(&frames).is_err() {
                self.clients.lock().retain(|_, c| !Arc::ptr_eq(c, &conn));
            }
        }
    }
}

/// Wraps the service snapshot into the node-layer checkpoint image:
/// `count u32 | (client u64, request u64, len u32, response)* | service
/// bytes`. The dedup table must travel with the snapshot — a replica
/// restored at cut C skips every pre-cut command, and without the table
/// a retransmitted duplicate of a pre-cut original would execute again
/// (diverging from replicas that saw the original). Entries are sorted
/// so the image stays byte-identical deployment-wide.
fn encode_node_snapshot(dedup: &DedupTable, service: &[u8]) -> Vec<u8> {
    let mut entries: Vec<(&u64, &(u64, Vec<u8>))> = dedup.iter().collect();
    entries.sort_unstable_by_key(|(client, _)| **client);
    let mut out = Vec::with_capacity(4 + service.len());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (client, (request, response)) in entries {
        out.extend_from_slice(&client.to_le_bytes());
        out.extend_from_slice(&request.to_le_bytes());
        out.extend_from_slice(&(response.len() as u32).to_le_bytes());
        out.extend_from_slice(response);
    }
    out.extend_from_slice(service);
    out
}

/// Splits a node-layer checkpoint image back into the dedup table and
/// the service snapshot bytes; `None` on malformed bytes.
fn decode_node_snapshot(bytes: &[u8]) -> Option<(DedupTable, &[u8])> {
    let count = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?) as usize;
    let mut at = 4;
    let mut dedup = DedupTable::with_capacity(count.min(4096));
    for _ in 0..count {
        let client = u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?);
        let request = u64::from_le_bytes(bytes.get(at + 8..at + 16)?.try_into().ok()?);
        let len = u32::from_le_bytes(bytes.get(at + 16..at + 20)?.try_into().ok()?) as usize;
        at += 20;
        let response = bytes.get(at..at + len)?.to_vec();
        at += len;
        dedup.insert(client, (request, response));
    }
    Some((dedup, bytes.get(at..)?))
}

/// Wall-clock milliseconds — the freshness timestamps behind the
/// degraded-mode bound and the stale-read tag.
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Assembles and starts one node process. Returns once every component
/// is running; the caller keeps the [`RunningNode`] alive (binaries
/// [`RunningNode::park`]).
///
/// # Errors
///
/// A human-readable reason when a socket cannot bind, a data directory
/// cannot be created, or local recovery state cannot be read.
pub fn run_node(
    cluster: &ClusterConfig,
    me: usize,
    opts: &NodeOptions,
) -> Result<RunningNode, String> {
    let n = cluster.len();
    if me >= n {
        return Err(format!("node id {me} out of range: cluster has {n} nodes"));
    }
    let spec = cluster.nodes[me].clone();
    std::fs::create_dir_all(&spec.data_dir)
        .map_err(|e| format!("create {}: {e}", spec.data_dir.display()))?;
    logger::init(me, &spec.data_dir).map_err(|e| format!("open flight recorder: {e}"))?;
    trace_global().set_sample(opts.trace_sample);
    let metrics_recorder = JsonlSnapshotter::spawn(
        metrics_global(),
        spec.data_dir.join(format!("node{me}_metrics.jsonl")),
        METRICS_SNAPSHOT_PERIOD,
    )
    .map_err(|e| format!("open metrics recorder: {e}"))?;

    let mesh = TcpMesh::spawn(me, cluster).map_err(|e| format!("bind mesh {}: {e}", spec.addr))?;

    // Paxos plane (mesh channel 0). Node layout: coordinator of group 0
    // on node 0, acceptor i on node i.
    let paxos_net: LiveNet<NetMsg> = LiveNet::new();
    bridge::splice(
        &paxos_net,
        &mesh,
        0,
        Arc::new(move |node: NodeId| {
            let raw = node.as_raw();
            if node == coordinator_node(0) {
                Some(0)
            } else if (1..=n as u64).contains(&raw) {
                Some((raw - 1) as usize)
            } else {
                None
            }
        }),
        Arc::new(|msg: &NetMsg| encode_paxos(msg)),
        Arc::new(|bytes: &[u8]| decode_paxos(bytes)),
    );

    // Transfer plane (mesh channel 1). Servers at NodeId(proc),
    // fetchers at NodeId(FETCHER_BASE + proc).
    let xfer_net: LiveNet<TransferMsg> = LiveNet::new();
    bridge::splice(
        &xfer_net,
        &mesh,
        1,
        Arc::new(move |node: NodeId| {
            let raw = node.as_raw();
            if raw < n as u64 {
                Some(raw as usize)
            } else if (FETCHER_BASE..FETCHER_BASE + n as u64).contains(&raw) {
                Some((raw - FETCHER_BASE) as usize)
            } else {
                None
            }
        }),
        Arc::new(|msg: &TransferMsg| encode_transfer(msg)),
        Arc::new(|bytes: &[u8]| decode_transfer(bytes)),
    );

    // Local replica state: restore the newest durable snapshot if one
    // survived, otherwise start from the shared pre-loaded image.
    let service = Arc::new(KvService::with_keys(opts.keys));
    let store = Arc::new(CheckpointStore::new());
    let durable = DurableStore::open(spec.data_dir.join("snap"))
        .map_err(|e| format!("open snapshot dir: {e}"))?;
    let mut resume = None;
    let mut restored_dedup = DedupTable::new();
    if let Some(d) = durable.load_latest() {
        let (dedup, service_bytes) = decode_node_snapshot(&d.snapshot)
            .ok_or_else(|| "malformed node snapshot image".to_string())?;
        service
            .restore(service_bytes)
            .map_err(|e| format!("restore durable snapshot: {e}"))?;
        restored_dedup = dedup;
        store.install(d.cut, d.id, d.snapshot.clone());
        resume = Some(d.cut);
        logger::info(
            me,
            &format!("restored durable checkpoint {} at seq {}", d.id, d.cut.seq),
        );
    }

    let xfer_server = StateTransferServer::spawn(
        xfer_net.clone(),
        NodeId::new(me as u64),
        Arc::clone(&store),
        4096,
    );

    let clients: Clients = Arc::new(Mutex::new(HashMap::new()));
    let executed = Arc::new(AtomicU64::new(0));
    // When this node last heard from the orderer (unix ms). Seeded to
    // "now" so a booting node is not instantly degraded; on node 0 the
    // executor refreshes it per batch, on followers the ingest loop
    // refreshes it on every relay signal.
    let last_ordered = Arc::new(AtomicU64::new(unix_ms()));
    let mut cfg = SystemConfig::new(1);
    cfg.acceptors(n);

    let mut group = None;
    let mut racceptor = None;
    let mut driver = None;
    let mut admin_handle = None;
    let submit: SubmitFn;

    if me == 0 {
        let wal = Wal::open(spec.data_dir.join("wal"), WalOptions::default())
            .map_err(|e| format!("open wal: {e}"))?;
        let g = LockstepGroups::spawn_hosted(
            &cfg,
            paxos_net.clone(),
            WalMode::Inline(Arc::new(wal)),
            &[0],
        );
        let handle = g.handles()[0].clone();
        let from = resume.map_or(1, |cut: StreamCut| cut.seq);
        let rx = match handle.subscribe_from(from) {
            Ok(rx) => rx,
            // A WAL trimmed past the durable cut cannot happen (trims
            // follow checkpoints), but fail soft: resume at the edge.
            Err(SubscribeError::Trimmed { first_retained }) => handle
                .subscribe_from(first_retained)
                .map_err(|e| format!("subscribe: {e}"))?,
            Err(SubscribeError::Future { next_seq }) => handle
                .subscribe_from(next_seq)
                .map_err(|e| format!("subscribe: {e}"))?,
        };
        handle.start();

        let mut core = Core {
            me,
            service: Arc::clone(&service),
            store: Arc::clone(&store),
            durable,
            clients: Arc::clone(&clients),
            handle: Some(handle.clone()),
            resume,
            executed: Arc::clone(&executed),
            dedup: restored_dedup,
            replies: Vec::new(),
        };
        let relayed = Arc::new(RelayCache::default());
        let exec_relayed = Arc::clone(&relayed);
        let exec_last_ordered = Arc::clone(&last_ordered);
        std::thread::Builder::new()
            .name("node-exec".into())
            .spawn(move || {
                while let Ok(batch) = rx.recv() {
                    // Export the trace prefix before executing: the
                    // Released stamp below frees the slot, and the relay
                    // forwarders still need the prefix afterwards.
                    if let Some(p) = trace_global().chain_prefix(0, batch.seq, Instant::now()) {
                        exec_relayed.deposit_prefix(batch.seq, reanchor(p));
                    }
                    core.execute_batch(batch.seq, &batch.commands);
                    exec_last_ordered.store(unix_ms(), Ordering::Relaxed);
                }
            })
            .map_err(|e| format!("spawn executor: {e}"))?;

        relay_server(&mesh, handle.clone(), relayed);
        admin_handle = Some(handle.clone());

        if let Some(interval) = opts.checkpoint_interval {
            let driver_handle = handle.clone();
            driver = Some(AutoCheckpointer::spawn(interval, move || {
                // next_seq is monotonic across incarnations (WAL-backed),
                // so driver request ids never repeat after a restart.
                let request = driver_handle.next_seq();
                let req = Request::new(
                    ClientId::new(DRIVER_CLIENT),
                    RequestId::new(request),
                    CHECKPOINT,
                    Vec::new(),
                );
                driver_handle.submit(Bytes::from(req.encode()));
            }));
        }

        let submit_handle = handle;
        submit = Arc::new(move |commands: Vec<Bytes>| {
            for command in commands {
                submit_handle.submit(command);
            }
        });
        group = Some(g);
    } else {
        racceptor = Some(RemoteAcceptor::spawn(0, me, paxos_net.clone()));
        let core = Core {
            me,
            service: Arc::clone(&service),
            store: Arc::clone(&store),
            durable,
            clients: Arc::clone(&clients),
            handle: None,
            resume,
            executed: Arc::clone(&executed),
            dedup: restored_dedup,
            replies: Vec::new(),
        };
        follower_ingest(
            mesh.clone(),
            xfer_net.clone(),
            core,
            n,
            Arc::clone(&last_ordered),
        );

        let submit_mesh = mesh.clone();
        let from = me as u64;
        submit = Arc::new(move |commands: Vec<Bytes>| {
            submit_mesh.send(0, 2, from, 0, &RelayMsg::Submit { commands }.encode());
        });
    }

    // Stale reads answer from the local replica without an ordering
    // round-trip: read-only commands only, tagged with how long ago
    // this node last heard from the orderer.
    let stale_service = Arc::clone(&service);
    let stale_last = Arc::clone(&last_ordered);
    let stale: StaleFn = Arc::new(move |command, payload| {
        if command != psmr_kvstore::READ {
            return Err(format!(
                "command {} is not a read-only command",
                command.as_raw()
            ));
        }
        let stale_ms = unix_ms().saturating_sub(stale_last.load(Ordering::Relaxed));
        Ok((stale_ms, stale_service.execute(command, payload)))
    });

    client_listener(me, &spec.client_addr, clients, submit, stale)?;
    logger::info(me, &format!("serving clients on {}", spec.client_addr));

    if !spec.admin_addr.is_empty() {
        admin::serve(
            &spec.admin_addr,
            AdminHub {
                me,
                mesh: mesh.clone(),
                handle: admin_handle,
                executed,
                store,
                last_ordered,
                degraded_after: opts.degraded_after,
            },
        )?;
        logger::info(me, &format!("serving admin on {}", spec.admin_addr));
    }

    Ok(RunningNode {
        mesh,
        _xfer_server: xfer_server,
        _group: group,
        _racceptor: racceptor,
        _driver: driver,
        _metrics_recorder: metrics_recorder,
    })
}

/// Node 0's relay server, a handler on the mesh reader thread of
/// channel 2 (no thread of its own). It answers `Subscribe` with a
/// `relay-fwd-*` forwarder thread streaming decided batches to the
/// follower, and queues a forwarded `Submit`'s commands, in order, with
/// [`GroupHandle::try_submit`]: the handler must never block, since the
/// link's next frames — its paxos votes among them — wait for it, so a
/// command that finds the submission queue full is dropped and counted
/// (`requests_dropped`), and its client retransmits. A newer `Subscribe`
/// from the same follower supersedes the old forwarder (generation
/// counter). The forwarder blocks on its subscription: a superseded one
/// exits at its next batch, or when the group drops its subscription,
/// and the group prunes what it left. Every forwarder sends the one body
/// [`RelayCache::body`] encodes per batch.
fn relay_server(mesh: &TcpMesh, handle: GroupHandle, relayed: Arc<RelayCache>) {
    let generations: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let fwd_mesh = mesh.clone();
    mesh.subscribe_handler(2, move |peer, _to, body| match RelayMsg::decode(body) {
        Some(RelayMsg::Subscribe { from_seq }) => {
            let generation = {
                let mut g = generations.lock();
                let slot = g.entry(peer).or_insert(0);
                *slot += 1;
                *slot
            };
            let reply = match handle.subscribe_from(from_seq) {
                Ok(batches) => {
                    let mesh = fwd_mesh.clone();
                    let generations = Arc::clone(&generations);
                    let relayed = Arc::clone(&relayed);
                    let spawned = std::thread::Builder::new()
                        .name(format!("relay-fwd-{peer}"))
                        .spawn(move || {
                            while let Ok(batch) = batches.recv() {
                                if generations.lock().get(&peer) != Some(&generation) {
                                    return;
                                }
                                let body = relayed.body(&batch);
                                if !mesh.send(peer as usize, 2, 0, peer, &body) {
                                    return;
                                }
                            }
                        });
                    if let Err(e) = spawned {
                        // The follower re-subscribes after its silence
                        // timeout.
                        logger::warn(0, &format!("spawn relay forwarder: {e}"));
                    }
                    return;
                }
                Err(SubscribeError::Trimmed { first_retained }) => {
                    RelayMsg::Trimmed { first_retained }
                }
                Err(SubscribeError::Future { next_seq }) => RelayMsg::Future { next_seq },
            };
            fwd_mesh.send(peer as usize, 2, 0, peer, &reply.encode());
        }
        Some(RelayMsg::Submit { commands }) => {
            for command in commands {
                handle.try_submit(command);
            }
        }
        _ => {}
    });
}

/// A follower's ingest loop: subscribes to the orderer's decided
/// stream, executes batches in contiguous order, re-subscribes on gaps
/// or silence, and falls back to TCP state transfer when the orderer
/// trimmed past its position.
fn follower_ingest(
    mesh: TcpMesh,
    xfer_net: LiveNet<TransferMsg>,
    mut core: Core,
    n: usize,
    last_ordered: Arc<AtomicU64>,
) {
    let rx = mesh.subscribe(2);
    std::thread::Builder::new()
        .name("node-ingest".into())
        .spawn(move || {
            let me = core.me;
            let peers: Vec<NodeId> = (0..n)
                .filter(|&p| p != me)
                .map(|p| NodeId::new(p as u64))
                .collect();
            let subscribe = |from_seq: u64| {
                mesh.send(
                    0,
                    2,
                    me as u64,
                    0,
                    &RelayMsg::Subscribe { from_seq }.encode(),
                );
            };
            let mut next = core.resume.map_or(1, |cut| cut.seq);
            subscribe(next);
            let mut last_signal = Instant::now();
            loop {
                match rx.recv_timeout(Duration::from_millis(500)) {
                    Ok(inbound) => {
                        // Any relay-plane traffic proves the orderer
                        // link is alive — the freshness the degraded
                        // bound and the stale-read tag measure against.
                        last_ordered.store(unix_ms(), Ordering::Relaxed);
                        match RelayMsg::decode(&inbound.body) {
                        Some(RelayMsg::Batch {
                            seq,
                            trace,
                            commands,
                        }) => {
                            if seq < next {
                                continue; // replayed duplicate
                            }
                            if seq > next {
                                // A gap: frames were lost (resend-buffer
                                // overflow) — rewind the subscription.
                                if last_signal.elapsed() > Duration::from_millis(200) {
                                    subscribe(next);
                                    last_signal = Instant::now();
                                }
                                continue;
                            }
                            if let Some(prefix) = trace {
                                // Re-anchor the wire-carried chain prefix
                                // locally so execute_batch's stamps extend
                                // it into a cross-process chain.
                                let now = Instant::now();
                                let rec = trace_global();
                                rec.adopt_prefix(0, seq, &reanchor(prefix), now);
                                rec.stamp_at(0, seq, Stage::Delivered, now);
                            }
                            core.execute_batch(seq, &commands);
                            next += 1;
                            last_signal = Instant::now();
                        }
                        Some(RelayMsg::Trimmed { first_retained }) => {
                            logger::info(
                                me,
                                &format!(
                                    "stream trimmed to {first_retained}, need {next}: fetching state over TCP"
                                ),
                            );
                            match fetch_latest(
                                &xfer_net,
                                NodeId::new(FETCHER_BASE + me as u64),
                                &peers,
                                Duration::from_secs(2),
                            ) {
                                Ok(fetched) => {
                                    let ckpt = fetched.checkpoint;
                                    let restored = decode_node_snapshot(&ckpt.snapshot).map(
                                        |(dedup, service_bytes)| {
                                            (dedup, core.service.restore(service_bytes))
                                        },
                                    );
                                    if let Some((dedup, Ok(()))) = restored {
                                        core.dedup = dedup;
                                        core.store.install(ckpt.cut, ckpt.id, ckpt.snapshot.clone());
                                        let _ = core.durable.persist(&ckpt);
                                        let _ = core.durable.retain_newest(DISK_RETAIN);
                                        core.resume = Some(ckpt.cut);
                                        next = ckpt.cut.seq;
                                        logger::info(
                                            me,
                                            &format!(
                                                "state-transfer ok: checkpoint {} at seq {} from node {}",
                                                ckpt.id,
                                                ckpt.cut.seq,
                                                fetched.from.as_raw()
                                            ),
                                        );
                                    }
                                }
                                Err(e) => {
                                    logger::warn(me, &format!("state transfer failed ({e}), retrying"));
                                    std::thread::sleep(Duration::from_millis(300));
                                }
                            }
                            subscribe(next);
                            last_signal = Instant::now();
                        }
                        Some(RelayMsg::Future { next_seq }) => {
                            next = next_seq;
                            subscribe(next);
                            last_signal = Instant::now();
                        }
                        _ => {}
                        }
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                        // Silence: the subscribe may have raced the relay
                        // server's startup, or our forwarder died with a
                        // node-0 restart. Idempotent to repeat.
                        if last_signal.elapsed() > Duration::from_secs(2) {
                            subscribe(next);
                            last_signal = Instant::now();
                        }
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                }
            }
        })
        .expect("spawn follower ingest");
}

/// Answers a stale read locally: `(staleness ms, result)` on success, a
/// refusal reason otherwise.
type StaleFn = Arc<dyn Fn(CommandId, &[u8]) -> Result<(u64, Vec<u8>), String> + Send + Sync>;

/// Hands encoded [`Request`]s to ordering, in order: node 0 queues them
/// on its group, a follower forwards them to node 0 in one relay frame.
type SubmitFn = Arc<dyn Fn(Vec<Bytes>) + Send + Sync>;

/// The client plane: accepts connections on `client_addr`, decodes
/// framed [`Request`]s, registers the connection under the request's
/// client id (the executor routes responses through the registry), and
/// hands the raw commands to `submit` for ordering — except
/// [`STALE_READ`]s, which `stale` answers from the local replica
/// without an ordering round-trip.
fn client_listener(
    me: usize,
    client_addr: &str,
    clients: Clients,
    submit: SubmitFn,
    stale: StaleFn,
) -> Result<(), String> {
    let listener =
        TcpListener::bind(client_addr).map_err(|e| format!("bind client {client_addr}: {e}"))?;
    std::thread::Builder::new()
        .name("client-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let _ = stream.set_nodelay(true);
                let clients = Arc::clone(&clients);
                let submit = Arc::clone(&submit);
                let stale = Arc::clone(&stale);
                std::thread::Builder::new()
                    .name(format!("client-conn-{me}"))
                    .spawn(move || client_conn(stream, &clients, &submit, &stale))
                    .expect("spawn client connection");
            }
        })
        .map_err(|e| format!("spawn client accept: {e}"))?;
    Ok(())
}

/// Serves one client connection: every request one `read` decodes goes
/// to `submit` as one ordered list.
fn client_conn(mut stream: TcpStream, clients: &Clients, submit: &SubmitFn, stale: &StaleFn) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let writer: Conn = Arc::new(Mutex::new(writer));
    let mut decoder = psmr_net::FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut registered: Option<u64> = None;
    let mut commands = Vec::new();
    let mut open = true;
    while open {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => decoder.push(&buf[..n]),
        }
        loop {
            let body = match decoder.next() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(_) => {
                    // Poisoned framing: drop the connection.
                    open = false;
                    break;
                }
            };
            let Ok(req) = Request::decode(&body) else {
                continue;
            };
            if req.command == STALE_READ {
                // Served from the local store, bypassing ordering:
                // never blocks on a lost orderer link.
                let outcome = match decode_stale_read(&req.payload) {
                    Some((command, payload)) => stale(command, payload),
                    None => Err("malformed stale-read payload".to_string()),
                };
                if outcome.is_ok() {
                    metrics_global().counter(counters::STALE_READS_SERVED).inc();
                }
                let frame = encode_frame(&encode_response(
                    req.request,
                    &encode_stale_response(&outcome),
                ));
                if writer.lock().write_all(&frame).is_err() {
                    open = false;
                    break;
                }
                continue;
            }
            if registered != Some(req.client.as_raw()) {
                clients
                    .lock()
                    .insert(req.client.as_raw(), Arc::clone(&writer));
                registered = Some(req.client.as_raw());
            }
            commands.push(Bytes::from(body));
        }
        if !commands.is_empty() {
            submit(std::mem::take(&mut commands));
        }
    }
    if let Some(client) = registered {
        // Unless the client already reconnected on a new connection.
        let mut clients = clients.lock();
        if clients
            .get(&client)
            .is_some_and(|c| Arc::ptr_eq(c, &writer))
        {
            clients.remove(&client);
        }
    }
}

/// Convenience for tests and the `psmr-client` binary: connect to a
/// node with retries (a booting deployment refuses connections until
/// its listener is up).
///
/// # Errors
///
/// The last connect error once `deadline` is exhausted.
pub fn connect_with_retry(
    addr: &str,
    client: u64,
    deadline: Duration,
) -> std::io::Result<NodeClient> {
    let give_up = Instant::now() + deadline;
    // Jittered so a swarm of booting clients does not hammer the
    // listener in lockstep.
    let mut rng = psmr_net::chaos::Rng::seeded(client ^ 0x5EED_C1E0);
    loop {
        match NodeClient::connect(addr, client) {
            Ok(conn) => return Ok(conn),
            Err(e) if Instant::now() >= give_up => return Err(e),
            Err(_) => std::thread::sleep(rng.jittered(Duration::from_millis(50))),
        }
    }
}

/// Issues CHECKPOINT through a client connection and blocks for the
/// ack — the deployment has snapshotted (and node 0 trimmed) once this
/// returns. Used by tests to force the state-transfer path before
/// restarting a wiped node.
///
/// # Errors
///
/// See [`NodeClient::execute`].
pub fn force_checkpoint(client: &mut NodeClient, deadline: Duration) -> std::io::Result<u64> {
    let ack = client.execute(CHECKPOINT, Vec::new(), deadline)?;
    Ok(ack
        .get(0..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        .unwrap_or(0))
}

/// Wipes a node's data directory (the rejoin-after-loss scenario: the
/// restarted node must rebuild over TCP state transfer).
pub fn wipe_data_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One command id is reserved by the recovery layer; everything else is
/// service-defined. Re-exported so binaries need not depend on
/// `psmr-recovery` directly.
pub const CHECKPOINT_COMMAND: CommandId = CHECKPOINT;

#[cfg(test)]
mod tests {
    use super::*;
    use psmr_kvstore::{KvOp, READ, UPDATE};

    /// A connected loopback pair: `(server end, client end)`.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (server, client)
    }

    fn request(client: u64, request: u64, command: CommandId, payload: Vec<u8>) -> Bytes {
        let req = Request::new(
            ClientId::new(client),
            RequestId::new(request),
            command,
            payload,
        );
        Bytes::from(req.encode())
    }

    fn reply(request: u64, result: &[u8]) -> Vec<u8> {
        encode_frame(&encode_response(RequestId::new(request), result))
    }

    /// Reads exactly `len` bytes, then checks nothing more arrives.
    fn read_exactly(conn: &mut TcpStream, len: usize) -> Vec<u8> {
        let mut got = vec![0; len];
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        conn.read_exact(&mut got).expect("replies");
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .expect("timeout");
        let mut more = [0u8; 64];
        assert!(
            conn.read(&mut more).is_err(),
            "bytes past the expected replies"
        );
        got
    }

    #[test]
    fn a_batch_answers_each_connection_with_its_replies_in_stream_order() {
        let dir = std::env::temp_dir().join(format!("psmr-node-replies-{}", std::process::id()));
        let clients: Clients = Arc::default();
        let (a_end, mut a) = socket_pair();
        let (b_end, mut b) = socket_pair();
        clients.lock().insert(1, Arc::new(Mutex::new(a_end)));
        clients.lock().insert(2, Arc::new(Mutex::new(b_end)));
        let mut core = Core {
            me: 0,
            service: Arc::new(KvService::with_keys(8)),
            store: Arc::new(CheckpointStore::new()),
            durable: DurableStore::open(&dir).expect("snapshot dir"),
            clients,
            handle: None,
            resume: None,
            executed: Arc::new(AtomicU64::new(0)),
            dedup: DedupTable::new(),
            replies: Vec::new(),
        };
        let read = |key: u64| KvOp::Read { key }.encode();
        let update = |key: u64, value: u64| KvOp::Update { key, value }.encode();
        let value = |v: u64| psmr_kvstore::KvResult::Value(v).encode();
        let ok = psmr_kvstore::KvResult::Ok.encode();

        // Two clients interleaved, a retransmitted copy of client 1's
        // request 1, and a checkpoint from the driver, whose sentinel
        // client has no connection.
        core.execute_batch(
            1,
            &[
                request(1, 1, UPDATE, update(3, 30)),
                request(2, 1, READ, read(3)),
                request(1, 1, UPDATE, update(3, 31)),
                request(DRIVER_CLIENT, 1, CHECKPOINT, Vec::new()),
                request(2, 2, READ, read(4)),
                request(1, 2, READ, read(3)),
            ],
        );
        core.execute_batch(
            2,
            &[
                request(2, 3, UPDATE, update(4, 40)),
                request(1, 3, READ, read(4)),
            ],
        );
        assert_eq!(core.store.latest_id(), 1, "the driver's checkpoint ran");

        let mut expect_a = reply(1, &ok);
        expect_a.extend(reply(1, &ok)); // the dedup re-answer, in place
        expect_a.extend(reply(2, &value(30)));
        expect_a.extend(reply(3, &value(40)));
        assert_eq!(read_exactly(&mut a, expect_a.len()), expect_a);
        let mut expect_b = reply(1, &value(30));
        expect_b.extend(reply(2, &value(4)));
        expect_b.extend(reply(3, &ok));
        assert_eq!(read_exactly(&mut b, expect_b.len()), expect_b);
        assert!(core.replies.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
