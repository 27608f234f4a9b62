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
//!   acceptor 0, which votes inline on the coordinator thread — spawned
//!   with [`PaxosGroup::spawn_hosted`], the
//!   decided-batch **relay server** (mesh channel 2), and the periodic
//!   checkpoint driver;
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

use crate::admin::{self, AdminHub};
use crate::logger;
use crate::wire::{
    decode_stale_read, encode_response, encode_stale_response, NodeClient, RelayMsg, STALE_READ,
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
    coordinator_node, GroupHandle, PaxosGroup, RemoteAcceptor, SubscribeError, WalMode,
};
use psmr_paxos::NetMsg;
use psmr_recovery::{
    fetch_latest, AutoCheckpointer, Checkpoint, CheckpointStore, DurableStore, Snapshot,
    StateTransferServer, StreamCut, TransferMsg, CHECKPOINT,
};
use psmr_wal::{Wal, WalOptions};
use std::collections::HashMap;
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

/// Sequences the orderer keeps exported trace prefixes around for (the
/// relay forwarders of lagging followers may ask for old batches).
const PREFIX_RETAIN: u64 = 2048;

/// Exported trace prefixes, keyed by stream sequence: the node-0
/// executor deposits each sampled batch's [`ChainPrefix`] (with its
/// export instant) *before* releasing the trace slot, so the relay
/// forwarders can attach it to the wire envelope even after the local
/// lifecycle folded. Forwarders re-age `submitted_age_ns` by the time
/// the prefix sat in the cache.
type PrefixCache = Arc<Mutex<HashMap<u64, (ChainPrefix, Instant)>>>;

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
    _group: Option<PaxosGroup>,
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
}

type Clients = Arc<Mutex<HashMap<u64, Arc<Mutex<TcpStream>>>>>;

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
                            self.respond(req.client, req.request, &cached);
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
                self.respond(req.client, req.request, &result);
            }
            applied += 1;
        }
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
        self.respond(req.client, req.request, &id.to_le_bytes());
    }

    fn respond(&self, client: ClientId, request: RequestId, result: &[u8]) {
        let conn = self.clients.lock().get(&client.as_raw()).cloned();
        if let Some(conn) = conn {
            let frame = encode_frame(&encode_response(request, result));
            if conn.lock().write_all(&frame).is_err() {
                self.clients.lock().remove(&client.as_raw());
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
    let submit: Arc<dyn Fn(Vec<u8>) + Send + Sync>;

    if me == 0 {
        let wal = Wal::open(spec.data_dir.join("wal"), WalOptions::default())
            .map_err(|e| format!("open wal: {e}"))?;
        let g = PaxosGroup::spawn_hosted(
            0,
            &cfg,
            paxos_net.clone(),
            WalMode::Inline(Arc::new(wal)),
            &[0],
        );
        let handle = g.handle();
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
        };
        let prefixes: PrefixCache = Arc::new(Mutex::new(HashMap::new()));
        let exec_prefixes = Arc::clone(&prefixes);
        let exec_last_ordered = Arc::clone(&last_ordered);
        std::thread::Builder::new()
            .name("node-exec".into())
            .spawn(move || {
                while let Ok(batch) = rx.recv() {
                    // Export the trace prefix before executing: the
                    // Released stamp below frees the slot, and the relay
                    // forwarders still need the prefix afterwards.
                    if let Some(p) = trace_global().chain_prefix(0, batch.seq, Instant::now()) {
                        let mut cache = exec_prefixes.lock();
                        cache.insert(batch.seq, (p, Instant::now()));
                        if cache.len() as u64 > PREFIX_RETAIN {
                            let floor = batch.seq.saturating_sub(PREFIX_RETAIN);
                            cache.retain(|&s, _| s > floor);
                        }
                    }
                    core.execute_batch(batch.seq, &batch.commands);
                    exec_last_ordered.store(unix_ms(), Ordering::Relaxed);
                }
            })
            .map_err(|e| format!("spawn executor: {e}"))?;

        relay_server(mesh.clone(), handle.clone(), prefixes);
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
        submit = Arc::new(move |command: Vec<u8>| {
            submit_handle.submit(Bytes::from(command));
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
        submit = Arc::new(move |command: Vec<u8>| {
            submit_mesh.send(0, 2, from, 0, &RelayMsg::Submit { command }.encode());
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

/// Reads the exported trace prefix for `seq`, preferring the executor's
/// cache (re-aged by its cache residency) and falling back to the live
/// trace slot for batches the executor has not reached yet.
fn prefix_for(prefixes: &PrefixCache, seq: u64) -> Option<ChainPrefix> {
    if let Some((mut p, exported_at)) = prefixes.lock().get(&seq).copied() {
        p.submitted_age_ns += exported_at.elapsed().as_nanos() as u64;
        return Some(p);
    }
    trace_global().chain_prefix(0, seq, Instant::now())
}

/// Node 0's relay server: answers `Subscribe` with a forwarder thread
/// streaming decided batches to the follower, and orders forwarded
/// `Submit`s. A newer `Subscribe` from the same follower supersedes the
/// old forwarder (generation counter); the superseded thread drops its
/// stream subscription, which the group prunes.
fn relay_server(mesh: TcpMesh, handle: GroupHandle, prefixes: PrefixCache) {
    let rx = mesh.subscribe(2);
    std::thread::Builder::new()
        .name("relay-server".into())
        .spawn(move || {
            let generations: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
            while let Ok(inbound) = rx.recv() {
                match RelayMsg::decode(&inbound.body) {
                    Some(RelayMsg::Subscribe { from_seq }) => {
                        let peer = inbound.from;
                        let generation = {
                            let mut g = generations.lock();
                            let slot = g.entry(peer).or_insert(0);
                            *slot += 1;
                            *slot
                        };
                        match handle.subscribe_from(from_seq) {
                            Ok(batches) => {
                                let mesh = mesh.clone();
                                let generations = Arc::clone(&generations);
                                let prefixes = Arc::clone(&prefixes);
                                std::thread::Builder::new()
                                    .name(format!("relay-fwd-{peer}"))
                                    .spawn(move || loop {
                                        let stale =
                                            || generations.lock().get(&peer) != Some(&generation);
                                        match batches.recv_timeout(Duration::from_millis(100)) {
                                            Ok(batch) => {
                                                if stale() {
                                                    return;
                                                }
                                                let msg = RelayMsg::Batch {
                                                    seq: batch.seq,
                                                    trace: prefix_for(&prefixes, batch.seq),
                                                    commands: (*batch.commands).clone(),
                                                };
                                                if !mesh.send(
                                                    peer as usize,
                                                    2,
                                                    0,
                                                    peer,
                                                    &msg.encode(),
                                                ) {
                                                    return;
                                                }
                                            }
                                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                                                if stale() {
                                                    return;
                                                }
                                            }
                                            Err(_) => return,
                                        }
                                    })
                                    .expect("spawn relay forwarder");
                            }
                            Err(SubscribeError::Trimmed { first_retained }) => {
                                mesh.send(
                                    peer as usize,
                                    2,
                                    0,
                                    peer,
                                    &RelayMsg::Trimmed { first_retained }.encode(),
                                );
                            }
                            Err(SubscribeError::Future { next_seq }) => {
                                mesh.send(
                                    peer as usize,
                                    2,
                                    0,
                                    peer,
                                    &RelayMsg::Future { next_seq }.encode(),
                                );
                            }
                        }
                    }
                    Some(RelayMsg::Submit { command }) => {
                        handle.submit(Bytes::from(command));
                    }
                    _ => {}
                }
            }
        })
        .expect("spawn relay server");
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
                                rec.adopt_prefix(0, seq, &prefix, now);
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

/// The client plane: accepts connections on `client_addr`, decodes
/// framed [`Request`]s, registers the connection under the request's
/// client id (the executor routes responses through the registry), and
/// hands the raw command to `submit` for ordering — except
/// [`STALE_READ`]s, which `stale` answers from the local replica
/// without an ordering round-trip.
fn client_listener(
    me: usize,
    client_addr: &str,
    clients: Clients,
    submit: Arc<dyn Fn(Vec<u8>) + Send + Sync>,
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

fn client_conn(
    mut stream: TcpStream,
    clients: &Clients,
    submit: &Arc<dyn Fn(Vec<u8>) + Send + Sync>,
    stale: &StaleFn,
) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(writer));
    let mut decoder = psmr_net::FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut registered: Option<u64> = None;
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                decoder.push(&buf[..n]);
                loop {
                    match decoder.next() {
                        Ok(Some(body)) => {
                            let Ok(req) = Request::decode(&body) else {
                                continue;
                            };
                            if req.command == STALE_READ {
                                // Served from the local store, bypassing
                                // ordering: never blocks on a lost
                                // orderer link.
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
                            submit(body);
                        }
                        Ok(None) => break,
                        Err(_) => return, // poisoned framing: drop the conn
                    }
                }
            }
        }
    }
    if let Some(client) = registered {
        clients.lock().remove(&client);
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
