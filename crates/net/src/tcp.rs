//! The TCP mesh: one process's view of the deployment's full mesh of
//! loopback-or-LAN links.
//!
//! Each process runs a [`TcpMesh`]: a listener accepting inbound links
//! from every peer, and one **dialer** per outbound peer that connects,
//! reconnects with exponential backoff, and writes [`crate::frame`]
//! envelopes from a per-peer outbound queue. Delivery semantics match
//! the simulated [`psmr_netsim::live::LiveNet`] the protocols were built
//! against: **best-effort, dup-suppressed, per-link FIFO**.
//!
//! * Every data frame carries a per-link sequence number. The dialer
//!   keeps a bounded resend buffer and replays it wholesale after a
//!   reconnect (`net_frames_resent`); the receiver drops any sequence
//!   number at or below the last one seen from that peer
//!   (`net_frames_dup_dropped`), so a replayed prefix never delivers
//!   twice to the same incarnation.
//! * Every mesh picks a fresh **incarnation id** at spawn. HELLO
//!   carries the sender's; the receiver acks with its own, and resets
//!   its dup filter when a peer's incarnation changed (a restarted
//!   process restarts its sequence numbers). Symmetrically, a dialer
//!   that sees a *new* incarnation in the ack discards every frame
//!   queued before that dial began instead of replaying it: those
//!   frames were addressed to a process that no longer exists, and
//!   replaying them would resurrect state (e.g. trimmed log prefixes)
//!   the restarted peer must instead rebuild through its own
//!   protocols. Discards count as loss (`net_frames_dropped`).
//! * A full resend buffer evicts its oldest **unsent** frame
//!   (`net_frames_dropped`) — loss, exactly like a lossy `LiveNet`
//!   link. Protocols already tolerate it (paxos retries, the decided-
//!   batch relay re-subscribes on a gap).
//! * Frames are multiplexed by an application-chosen channel byte, so
//!   paxos traffic, state transfer, and the relay/client planes share
//!   one socket pair per peer direction. A channel's consumer is either
//!   a queue drained by its own thread ([`TcpMesh::subscribe`]) or a
//!   handler run on the reader thread itself
//!   ([`TcpMesh::subscribe_handler`]), which saves a thread hand-off per
//!   frame when delivery cannot block.
//!
//! **Batching.** `send` builds each frame in place (one allocation) and
//! appends it to the link's resend buffer, which always holds the
//! contiguous seq run `front..next_seq`, so the dialer finds its cursor
//! by index, not by a scan. Each dialer wake takes everything queued
//! past the cursor, up to `WRITE_CAP` (256 KiB), and writes it with one
//! `write_all` (`net_writes` counts them; `net_frames_sent` still counts
//! frames). The chaos egress plan is still decided per frame inside that
//! walk: a drop skips the frame, corruption or duplication alters its
//! image in the batch, and a delay or a withheld (partitioned) frame
//! ends the batch there. Clean and chaotic links share this one path.

use crate::chaos::{ChaosHandle, EgressPlan, Rng, CLEAN_WRITE};
use crate::cluster::ClusterConfig;
use crate::frame::{encode_frame, seal_frame, FrameDecoder, HEADER_LEN};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use psmr_common::metrics::{counters, global, histograms, ScopedCounter, ScopedHistogram};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Frames a dialer retains for replay-on-reconnect, per peer.
const RESEND_CAP: usize = 4096;
/// Bytes one coalesced dialer write carries at most (a single larger
/// frame still goes out whole, alone).
const WRITE_CAP: usize = 256 * 1024;
/// First retry delay after a failed dial.
const BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Retry delays stop doubling here.
const BACKOFF_MAX: Duration = Duration::from_secs(1);
/// How often parked threads re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Frame kinds inside the envelope payload.
const KIND_DATA: u8 = 0;
/// `kind | sender proc u64 | sender incarnation u64`.
const KIND_HELLO: u8 = 1;
/// `kind | receiver incarnation u64` — the listener's reply to HELLO.
const KIND_ACK: u8 = 2;
/// `kind | seq u64 | chan u8 | from u64 | to u64` precedes a data body.
const DATA_HEADER: usize = 1 + 8 + 1 + 8 + 8;
/// Where the seq sits in an encoded data frame (after the frame header
/// and the kind byte).
const SEQ_AT: usize = HEADER_LEN + 1;
/// How long a dialer waits for the HELLO ack before re-dialing.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// One received message: the logical endpoints the sender stamped plus
/// the opaque body (decoded by the channel's own codec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inbound {
    /// Logical sender (a protocol-level node id, not the process id).
    pub from: u64,
    /// Logical destination.
    pub to: u64,
    /// The message bytes.
    pub body: Vec<u8>,
}

/// Outbound state of one peer link, shared between `send` and the
/// dialer thread.
struct LinkState {
    next_seq: u64,
    /// `(seq, encoded frame)` — encoded once, replayed as-is. Always the
    /// contiguous run `front_seq()..next_seq`: `send` appends, eviction
    /// and the incarnation discard remove a prefix.
    buffer: VecDeque<(u64, Arc<Vec<u8>>)>,
}

impl LinkState {
    /// Seq of the oldest retained frame (`next_seq` when empty).
    fn front_seq(&self) -> u64 {
        self.buffer.front().map_or(self.next_seq, |(seq, _)| *seq)
    }

    /// Clones into `out` the frames at or past `cursor`, oldest first,
    /// up to [`WRITE_CAP`] bytes (at least one frame). A cursor below
    /// the front — its frames were evicted — starts at the front.
    fn frames_from(&self, cursor: u64, out: &mut Vec<(u64, Arc<Vec<u8>>)>) {
        let skip = (cursor.saturating_sub(self.front_seq()) as usize).min(self.buffer.len());
        let mut bytes = 0;
        for (seq, frame) in self.buffer.range(skip..) {
            if !out.is_empty() && bytes + frame.len() > WRITE_CAP {
                break;
            }
            bytes += frame.len();
            out.push((*seq, Arc::clone(frame)));
        }
    }
}

struct Link {
    state: Mutex<LinkState>,
    /// Kicks the dialer out of its idle wait when a frame is queued.
    wake: Sender<()>,
    /// `highest seq ever written + 1`: frames below it are resends when
    /// written again, frames at/above it were never sent (eviction of
    /// one is real loss).
    sent_watermark: AtomicU64,
    /// Whether the dialer currently holds an acked connection — the
    /// admin `status` endpoint's per-peer connectivity bit.
    connected: AtomicBool,
    /// `net_frames_dropped{peer=P}` — shared between `send` (eviction)
    /// and the dialer (incarnation-change discard).
    dropped: ScopedCounter,
}

/// The dialer side's per-peer (`{peer=P}`) instruments, resolved once
/// per dialer thread so the send path never re-hashes metric names.
struct DialerMetrics {
    connects: ScopedCounter,
    reconnects: ScopedCounter,
    backoff_sleeps: ScopedCounter,
    frames_sent: ScopedCounter,
    writes: ScopedCounter,
    bytes_sent: ScopedCounter,
    frames_resent: ScopedCounter,
    handshake_ns: ScopedHistogram,
    chaos_dropped: ScopedCounter,
    chaos_delayed: ScopedCounter,
    chaos_duplicated: ScopedCounter,
    chaos_corrupted: ScopedCounter,
    chaos_partitioned: ScopedCounter,
    chaos_throttle_sleeps: ScopedCounter,
}

impl DialerMetrics {
    fn new(peer: usize) -> Self {
        let scope = global().scoped("peer", peer);
        Self {
            connects: scope.counter(counters::NET_CONNECTS),
            reconnects: scope.counter(counters::NET_RECONNECTS),
            backoff_sleeps: scope.counter(counters::NET_BACKOFF_SLEEPS),
            frames_sent: scope.counter(counters::NET_FRAMES_SENT),
            writes: scope.counter(counters::NET_WRITES),
            bytes_sent: scope.counter(counters::NET_BYTES_SENT),
            frames_resent: scope.counter(counters::NET_FRAMES_RESENT),
            handshake_ns: scope.histogram(histograms::NET_HANDSHAKE_NS),
            chaos_dropped: scope.counter(counters::CHAOS_FRAMES_DROPPED),
            chaos_delayed: scope.counter(counters::CHAOS_FRAMES_DELAYED),
            chaos_duplicated: scope.counter(counters::CHAOS_FRAMES_DUPLICATED),
            chaos_corrupted: scope.counter(counters::CHAOS_FRAMES_CORRUPTED),
            chaos_partitioned: scope.counter(counters::CHAOS_FRAMES_PARTITIONED),
            chaos_throttle_sleeps: scope.counter(counters::CHAOS_THROTTLE_SLEEPS),
        }
    }
}

/// The receiver side's per-sending-process (`{peer=P}`) instruments,
/// resolved when the connection's HELLO reveals who is talking.
struct ReaderMetrics {
    frames_received: ScopedCounter,
    bytes_received: ScopedCounter,
    dup_dropped: ScopedCounter,
}

impl ReaderMetrics {
    fn new(from_proc: u64) -> Self {
        let scope = global().scoped("peer", from_proc);
        Self {
            frames_received: scope.counter(counters::NET_FRAMES_RECEIVED),
            bytes_received: scope.counter(counters::NET_BYTES_RECEIVED),
            dup_dropped: scope.counter(counters::NET_FRAMES_DUP_DROPPED),
        }
    }
}

/// Dialer-side health of one outbound peer link, as reported by
/// [`TcpMesh::peer_status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerStatus {
    /// The peer's node id.
    pub peer: usize,
    /// Whether the outbound link currently holds an acked connection.
    pub connected: bool,
    /// Frames parked in the bounded resend buffer.
    pub resend_depth: usize,
}

struct MeshInner {
    me: usize,
    /// Distinguishes this process's lifetime from earlier ones at the
    /// same address, so peers can tell a reconnect from a restart.
    incarnation: u64,
    shutdown: AtomicBool,
    /// Index = peer id; `None` at `me`.
    links: Vec<Option<Link>>,
    /// Channel → consumer. [`dispatch`] clones the `Arc` out and
    /// delivers without holding the lock.
    subscribers: Mutex<HashMap<u8, Arc<Consumer>>>,
    /// Per sending process: its incarnation and the highest data-frame
    /// seq seen from it — the reconnect dup filter. A new incarnation
    /// resets the seq floor (restarted peers restart their counters).
    last_seen: Mutex<HashMap<u64, (u64, u64)>>,
    /// The live fault-injection policy consulted by every dialer write
    /// and every inbound data frame. All clean by default.
    chaos: ChaosHandle,
}

/// Where one channel's inbound messages go.
enum Consumer {
    /// Queued for a consumer thread ([`TcpMesh::subscribe`]).
    Queue(Sender<Inbound>),
    /// Run on the reader thread ([`TcpMesh::subscribe_handler`]).
    Handler(Box<Handler>),
}

/// A reader-thread consumer, called with `(from, to, body)`.
type Handler = dyn Fn(u64, u64, &[u8]) + Send + Sync;

/// This process's endpoint of the deployment mesh. Cloneable; all clones
/// share the links.
#[derive(Clone)]
pub struct TcpMesh {
    inner: Arc<MeshInner>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for TcpMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpMesh")
            .field("me", &self.inner.me)
            .field("peers", &(self.inner.links.len() - 1))
            .finish()
    }
}

impl TcpMesh {
    /// Binds `cluster.nodes[me].addr` and spawns the accept loop plus
    /// one dialer per peer. Dialers start connecting immediately and
    /// keep retrying with backoff until shutdown.
    ///
    /// # Errors
    ///
    /// The bind error when the mesh address is unavailable.
    pub fn spawn(me: usize, cluster: &ClusterConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cluster.nodes[me].addr)?;
        listener.set_nonblocking(true)?;
        // Build each link together with its dialer's wake receiver
        // (bounded(1): wakes coalesce while the dialer is busy).
        let mut wake_rxs: Vec<Option<Receiver<()>>> = Vec::with_capacity(cluster.len());
        let links = (0..cluster.len())
            .map(|peer| {
                if peer == me {
                    wake_rxs.push(None);
                    return None;
                }
                let (wake, wake_rx) = bounded(1);
                wake_rxs.push(Some(wake_rx));
                Some(Link {
                    state: Mutex::new(LinkState {
                        next_seq: 1,
                        buffer: VecDeque::new(),
                    }),
                    wake,
                    sent_watermark: AtomicU64::new(1),
                    connected: AtomicBool::new(false),
                    dropped: global()
                        .scoped("peer", peer)
                        .counter(counters::NET_FRAMES_DROPPED),
                })
            })
            .collect();
        let incarnation = fresh_incarnation();
        let inner = Arc::new(MeshInner {
            me,
            incarnation,
            shutdown: AtomicBool::new(false),
            links,
            subscribers: Mutex::new(HashMap::new()),
            last_seen: Mutex::new(HashMap::new()),
            chaos: ChaosHandle::new(incarnation ^ (me as u64)),
        });
        let mesh = Self {
            inner,
            threads: Arc::new(Mutex::new(Vec::new())),
        };
        let mut threads = Vec::new();
        for (peer, wake_rx) in wake_rxs.into_iter().enumerate() {
            let Some(wake_rx) = wake_rx else { continue };
            let inner = Arc::clone(&mesh.inner);
            let addr = cluster.nodes[peer].addr.clone();
            let thread = std::thread::Builder::new()
                .name(format!("mesh-{me}-dial-{peer}"))
                .spawn(move || dialer_main(&inner, peer, &addr, wake_rx))
                .expect("spawn mesh dialer");
            threads.push(thread);
        }
        let inner = Arc::clone(&mesh.inner);
        let accept_threads = Arc::clone(&mesh.threads);
        let thread = std::thread::Builder::new()
            .name(format!("mesh-{me}-accept"))
            .spawn(move || accept_main(&inner, listener, &accept_threads))
            .expect("spawn mesh acceptor");
        threads.push(thread);
        mesh.threads.lock().extend(threads);
        Ok(mesh)
    }

    /// This process's id in the cluster config.
    pub fn me(&self) -> usize {
        self.inner.me
    }

    /// This process lifetime's incarnation id (what peers see in HELLO).
    pub fn incarnation(&self) -> u64 {
        self.inner.incarnation
    }

    /// The mesh's live fault-injection policy. Install faults through
    /// it ([`ChaosHandle::set`]) and they take effect on the very next
    /// frame — no restart, no rebuild.
    pub fn chaos(&self) -> &ChaosHandle {
        &self.inner.chaos
    }

    /// Dialer-side health of every outbound peer link, in peer-id order
    /// (this node itself is omitted).
    pub fn peer_status(&self) -> Vec<PeerStatus> {
        self.inner
            .links
            .iter()
            .enumerate()
            .filter_map(|(peer, link)| {
                link.as_ref().map(|l| PeerStatus {
                    peer,
                    connected: l.connected.load(Ordering::Relaxed),
                    resend_depth: l.state.lock().buffer.len(),
                })
            })
            .collect()
    }

    /// Queues one message for `peer` on channel `chan`. Returns `false`
    /// only after shutdown (a down peer still queues: the dialer
    /// delivers once it connects). `from`/`to` are protocol-level node
    /// ids carried opaquely to the receiver.
    pub fn send(&self, peer: usize, chan: u8, from: u64, to: u64, body: &[u8]) -> bool {
        if self.inner.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        if peer == self.inner.me {
            // Local loopback: reliable, no seq machinery.
            dispatch(&self.inner, chan, from, to, body);
            return true;
        }
        let Some(link) = self.inner.links.get(peer).and_then(|l| l.as_ref()) else {
            return false;
        };
        // The whole wire image in one buffer: frame header, data header
        // and body. Only the seq and the crc wait for the link lock.
        let mut frame = Vec::with_capacity(HEADER_LEN + DATA_HEADER + body.len());
        frame.extend_from_slice(&[0; HEADER_LEN]);
        frame.push(KIND_DATA);
        frame.extend_from_slice(&[0; 8]);
        frame.push(chan);
        frame.extend_from_slice(&from.to_le_bytes());
        frame.extend_from_slice(&to.to_le_bytes());
        frame.extend_from_slice(body);
        let mut state = link.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        frame[SEQ_AT..SEQ_AT + 8].copy_from_slice(&seq.to_le_bytes());
        seal_frame(&mut frame);
        if state.buffer.len() >= RESEND_CAP {
            if let Some((evicted, _)) = state.buffer.pop_front() {
                if evicted >= link.sent_watermark.load(Ordering::Relaxed) {
                    link.dropped.inc();
                }
            }
        }
        state.buffer.push_back((seq, Arc::new(frame)));
        drop(state);
        let _ = link.wake.try_send(());
        true
    }

    /// Registers (or replaces) the consumer of channel `chan`: a queue
    /// drained by the caller's own thread.
    pub fn subscribe(&self, chan: u8) -> Receiver<Inbound> {
        let (tx, rx) = unbounded();
        self.set_consumer(chan, Consumer::Queue(tx));
        rx
    }

    /// Registers (or replaces) the consumer of channel `chan`: `handler`
    /// is called with `(from, to, body)` of every message, in per-link
    /// FIFO order, **on the mesh reader thread** that decoded it (on the
    /// sending thread for a loopback send to this node itself). It must
    /// not block: the link's next frame waits for it. It may subscribe,
    /// send, or replace itself — no mesh lock is held while it runs.
    /// [`TcpMesh::shutdown`] drops it.
    pub fn subscribe_handler(
        &self,
        chan: u8,
        handler: impl Fn(u64, u64, &[u8]) + Send + Sync + 'static,
    ) {
        self.set_consumer(chan, Consumer::Handler(Box::new(handler)));
    }

    fn set_consumer(&self, chan: u8, consumer: Consumer) {
        self.inner
            .subscribers
            .lock()
            .insert(chan, Arc::new(consumer));
    }

    /// Stops every mesh thread and joins them. Subscriber receivers
    /// disconnect (their senders are dropped), so consumer threads
    /// blocked on `recv()` unblock too, and handlers are dropped.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.subscribers.lock().clear();
        for link in self.inner.links.iter().flatten() {
            let _ = link.wake.try_send(());
        }
        let drained: Vec<JoinHandle<()>> = std::mem::take(&mut *self.threads.lock());
        for t in drained {
            let _ = t.join();
        }
    }
}

/// A value distinguishing this process lifetime from any other process
/// that answered (or will answer) at the same mesh address: wall-clock
/// nanos folded with the pid.
fn fresh_incarnation() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| d.as_nanos() as u64);
    nanos ^ (u64::from(std::process::id()) << 48)
}

/// Hands one inbound message to the channel's consumer (or drops it —
/// same contract as `LiveNet` sending to an unregistered node). The
/// consumer is cloned out first, so a handler runs without the
/// subscriber lock.
fn dispatch(inner: &MeshInner, chan: u8, from: u64, to: u64, body: &[u8]) {
    let consumer = inner.subscribers.lock().get(&chan).cloned();
    match consumer.as_deref() {
        Some(Consumer::Queue(tx)) => {
            let _ = tx.send(Inbound {
                from,
                to,
                body: body.to_vec(),
            });
        }
        Some(Consumer::Handler(handler)) => handler(from, to, body),
        None => {}
    }
}

/// The per-peer dialer: connect (with backoff), replay the resend
/// buffer, then stream queued frames until the link drops.
fn dialer_main(inner: &Arc<MeshInner>, peer: usize, addr: &str, wake: Receiver<()>) {
    let link = inner.links[peer].as_ref().expect("dialer has a link");
    let mut pump = Pump {
        inner,
        link,
        peer,
        metrics: DialerMetrics::new(peer),
        frames: Vec::new(),
        image: Vec::new(),
        held: None,
    };
    // Jitters the dial backoff so the followers of a restarted peer
    // spread their re-dials instead of arriving in lockstep.
    let mut rng = Rng::seeded(inner.incarnation ^ ((peer as u64) << 32));
    let mut conn: Option<TcpStream> = None;
    // Next seq to write on the current connection.
    let mut cursor = 0u64;
    let mut backoff = BACKOFF_MIN;
    let mut ever_connected = false;
    // The peer incarnation this link last replayed to.
    let mut peer_incarnation: Option<u64> = None;
    while !inner.shutdown.load(Ordering::Relaxed) {
        let Some(stream) = conn.as_mut() else {
            let metrics = &pump.metrics;
            match TcpStream::connect(addr) {
                Ok(mut stream) => {
                    let _ = stream.set_nodelay(true);
                    // Frames queued before this connect attempt were
                    // addressed to whichever process was (or wasn't)
                    // alive back then; if the ack below reveals a new
                    // incarnation, exactly those frames are discarded.
                    let pre_dial_seq = link.state.lock().next_seq;
                    let mut hello = Vec::with_capacity(17);
                    hello.push(KIND_HELLO);
                    hello.extend_from_slice(&(inner.me as u64).to_le_bytes());
                    hello.extend_from_slice(&inner.incarnation.to_le_bytes());
                    let handshake_start = std::time::Instant::now();
                    let handshake = stream
                        .write_all(&encode_frame(&hello))
                        .and_then(|()| read_ack(inner, &mut stream));
                    let acked = match handshake {
                        Ok(acked) => acked,
                        Err(_) => {
                            metrics.backoff_sleeps.inc();
                            std::thread::sleep(rng.jittered(backoff.min(POLL)));
                            backoff = (backoff * 2).min(BACKOFF_MAX);
                            continue;
                        }
                    };
                    metrics.handshake_ns.record(handshake_start.elapsed());
                    metrics.connects.inc();
                    if ever_connected {
                        metrics.reconnects.inc();
                    }
                    ever_connected = true;
                    backoff = BACKOFF_MIN;
                    link.connected.store(true, Ordering::Relaxed);
                    let mut state = link.state.lock();
                    let prior = peer_incarnation.replace(acked);
                    if prior.is_some() && prior != Some(acked) {
                        // A *different* process now answers at this
                        // address. Frames retained for its predecessor
                        // must not replay — discard them as loss —
                        // while frames queued once this dial was
                        // already underway still deliver.
                        let watermark = link.sent_watermark.load(Ordering::Relaxed);
                        let unsent = state
                            .buffer
                            .iter()
                            .filter(|(s, _)| *s < pre_dial_seq && *s >= watermark)
                            .count();
                        link.dropped.add(unsent as u64);
                        state.buffer.retain(|(s, _)| *s >= pre_dial_seq);
                    }
                    // Replay the whole retained buffer on this fresh
                    // connection; the receiver's seq filter drops what
                    // its incarnation already saw.
                    cursor = state.front_seq();
                    drop(state);
                    conn = Some(stream);
                }
                Err(_) => {
                    metrics.backoff_sleeps.inc();
                    sleep_unless_shutdown(inner, rng.jittered(backoff));
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                }
            }
            continue;
        };
        pump.frames.clear();
        link.state.lock().frames_from(cursor, &mut pump.frames);
        if pump.frames.is_empty() {
            match wake.recv_timeout(POLL) {
                Ok(()) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            continue;
        }
        match pump.write(stream, cursor) {
            Ok(next) => cursor = next,
            Err(_) => {
                conn = None;
                pump.held = None;
                link.connected.store(false, Ordering::Relaxed);
            }
        }
    }
}

/// Sleeps `left` in [`POLL`] slices so shutdown stays prompt.
fn sleep_unless_shutdown(inner: &MeshInner, mut left: Duration) {
    while left > Duration::ZERO && !inner.shutdown.load(Ordering::Relaxed) {
        let slice = left.min(POLL);
        std::thread::sleep(slice);
        left = left.saturating_sub(slice);
    }
}

/// One dialer's write path: the frames of one wake, walked through the
/// chaos policy into one coalesced write.
struct Pump<'a> {
    inner: &'a MeshInner,
    link: &'a Link,
    peer: usize,
    metrics: DialerMetrics,
    /// The frames past the cursor, cloned out of the link for one wake.
    frames: Vec<(u64, Arc<Vec<u8>>)>,
    /// The bytes of one coalesced write, reused across wakes.
    image: Vec<u8>,
    /// A delayed frame's plan, kept for the wake that writes it so the
    /// frame's dice are rolled once.
    held: Option<(u64, EgressPlan)>,
}

impl Pump<'_> {
    /// Walks `self.frames` (oldest first, none below `cursor`'s frame),
    /// writes what the walk keeps with one `write_all`, and returns the
    /// cursor past the last frame written or dropped. On an error
    /// nothing is committed: the reconnect replays from the front.
    fn write(&mut self, stream: &mut TcpStream, cursor: u64) -> std::io::Result<u64> {
        let metrics = &self.metrics;
        let watermark = self.link.sent_watermark.load(Ordering::Relaxed);
        self.image.clear();
        let mut next = cursor;
        let (mut fresh, mut resent, mut bytes, mut dropped) = (0u64, 0u64, 0u64, 0u64);
        let mut withheld = false;
        for (seq, frame) in &self.frames {
            let (seq, frame) = (*seq, frame.as_slice());
            let mut plan = match self.held.take() {
                Some((held, plan)) if held == seq => plan,
                _ => self.inner.chaos.egress_plan(self.peer, frame.len()),
            };
            // Frame-destroying faults (loss, corruption) hit a frame's
            // *first* transmission only: a replayed frame (seq below the
            // sent watermark) is the recovery path for a teardown that
            // already happened, and re-rolling destructive dice on it
            // would let a growing backlog make every replay fail — a
            // wedged link instead of a faulty one. Partition, delay, and
            // throttle still shape replays like any other bytes.
            if seq < watermark {
                match &mut plan {
                    EgressPlan::Drop => plan = CLEAN_WRITE,
                    EgressPlan::Write { corrupt_at, .. } => *corrupt_at = None,
                    EgressPlan::Withhold => {}
                }
            }
            match plan {
                EgressPlan::Withhold => {
                    // Partitioned outbound: the frame stays queued (it
                    // is not loss — it delivers when the partition
                    // heals); the batch ends before it.
                    metrics.chaos_partitioned.inc();
                    withheld = true;
                    break;
                }
                EgressPlan::Drop => {
                    // Injected loss: consumed exactly as if written, so
                    // the link's seq accounting stays coherent and
                    // nothing ever replays it.
                    dropped += 1;
                    next = seq + 1;
                }
                EgressPlan::Write {
                    delay,
                    throttled,
                    corrupt_at,
                    duplicate,
                } => {
                    if !delay.is_zero() {
                        if !self.image.is_empty() {
                            // The frames before it go out now; this one
                            // waits out its delay on the next wake.
                            self.held = Some((seq, plan));
                            break;
                        }
                        metrics.chaos_delayed.inc();
                        if throttled {
                            metrics.chaos_throttle_sleeps.inc();
                        }
                        sleep_unless_shutdown(self.inner, delay);
                    }
                    let at = self.image.len();
                    self.image.extend_from_slice(frame);
                    if let Some(roll) = corrupt_at {
                        // One byte flips in the batch image; the
                        // canonical frame stays in the resend buffer, so
                        // the receiver's crc teardown + our reconnect
                        // replay eventually delivers it intact. The flip
                        // lands past the 4-byte length field (crc or
                        // payload): a flipped *length* would desync the
                        // decoder into silently awaiting a phantom frame
                        // — no poison, no teardown, a wedged link —
                        // whereas a crc/payload flip is always detected.
                        metrics.chaos_corrupted.inc();
                        self.image[at + 4 + (roll % (frame.len() as u64 - 4)) as usize] ^= 0x01;
                    }
                    if duplicate {
                        // The receiver's seq filter drops the copy.
                        metrics.chaos_duplicated.inc();
                        self.image.extend_from_slice(frame);
                    }
                    bytes += frame.len() as u64;
                    if seq < watermark {
                        resent += 1;
                    } else {
                        fresh += 1;
                    }
                    next = seq + 1;
                    if !delay.is_zero() {
                        // A delayed frame ends its batch, so the next
                        // frame's delay is served after this write.
                        break;
                    }
                }
            }
        }
        if !self.image.is_empty() {
            stream.write_all(&self.image)?;
            metrics.writes.inc();
            metrics.frames_sent.add(fresh);
            metrics.frames_resent.add(resent);
            metrics.bytes_sent.add(bytes);
        }
        metrics.chaos_dropped.add(dropped);
        if next > watermark {
            self.link.sent_watermark.store(next, Ordering::Relaxed);
        }
        if withheld {
            // Park briefly before re-checking the policy.
            std::thread::sleep(POLL);
        }
        Ok(next)
    }
}

/// Blocks (bounded by [`HANDSHAKE_TIMEOUT`]) for the listener's ack and
/// returns the peer's incarnation id.
fn read_ack(inner: &MeshInner, stream: &mut TcpStream) -> std::io::Result<u64> {
    stream.set_read_timeout(Some(POLL))?;
    let give_up = std::time::Instant::now() + HANDSHAKE_TIMEOUT;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 256];
    loop {
        if inner.shutdown.load(Ordering::Relaxed) || std::time::Instant::now() >= give_up {
            return Err(std::io::Error::from(ErrorKind::TimedOut));
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::UnexpectedEof)),
            Ok(n) => {
                decoder.push(&buf[..n]);
                if let Some(payload) = decoder
                    .next()
                    .map_err(|_| std::io::Error::from(ErrorKind::InvalidData))?
                {
                    if payload.len() != 9 || payload[0] != KIND_ACK {
                        return Err(std::io::Error::from(ErrorKind::InvalidData));
                    }
                    return Ok(u64::from_le_bytes(payload[1..9].try_into().unwrap()));
                }
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The accept loop: one reader thread per inbound connection.
fn accept_main(
    inner: &Arc<MeshInner>,
    listener: TcpListener,
    threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !inner.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(POLL));
                let inner = Arc::clone(inner);
                let me = inner.me;
                let handle = std::thread::Builder::new()
                    .name(format!("mesh-{me}-read"))
                    .spawn(move || reader_main(&inner, stream))
                    .expect("spawn mesh reader");
                threads.lock().push(handle);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

/// Reads one inbound connection: HELLO first, then seq-filtered data
/// frames dispatched to channel subscribers. Any framing error tears
/// the connection down (the peer's dialer re-establishes and replays).
fn reader_main(inner: &Arc<MeshInner>, mut stream: TcpStream) {
    let mut decoder = FrameDecoder::new();
    let mut sender: Option<(u64, u64)> = None;
    let mut metrics: Option<ReaderMetrics> = None;
    let mut buf = [0u8; 64 * 1024];
    // A framing/protocol violation (not a clean close or shutdown)
    // counts as a poisoned decode, labeled by sender once known.
    let poisoned = |sender: &Option<(u64, u64)>| match sender {
        Some((from_proc, _)) => global()
            .scoped("peer", from_proc)
            .counter(counters::NET_DECODE_POISONED)
            .inc(),
        None => global().counter(counters::NET_DECODE_POISONED).inc(),
    };
    while !inner.shutdown.load(Ordering::Relaxed) {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                decoder.push(&buf[..n]);
                loop {
                    match decoder.next() {
                        Ok(Some(payload)) => {
                            if !handle_payload(
                                inner,
                                &mut sender,
                                &mut metrics,
                                &payload,
                                &mut stream,
                            ) {
                                poisoned(&sender);
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            poisoned(&sender);
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// One decoded frame payload; `false` = protocol violation, drop the
/// connection.
fn handle_payload(
    inner: &MeshInner,
    sender: &mut Option<(u64, u64)>,
    metrics: &mut Option<ReaderMetrics>,
    payload: &[u8],
    stream: &mut TcpStream,
) -> bool {
    match payload.first() {
        Some(&KIND_HELLO) => {
            if payload.len() != 17 {
                return false;
            }
            let from_proc = u64::from_le_bytes(payload[1..9].try_into().unwrap());
            let incarnation = u64::from_le_bytes(payload[9..17].try_into().unwrap());
            {
                // A new incarnation of the peer restarts its sequence
                // numbers; lift the dup floor so its frames deliver.
                let mut last_seen = inner.last_seen.lock();
                let entry = last_seen.entry(from_proc).or_insert((incarnation, 0));
                if entry.0 != incarnation {
                    *entry = (incarnation, 0);
                }
            }
            *sender = Some((from_proc, incarnation));
            *metrics = Some(ReaderMetrics::new(from_proc));
            let mut ack = Vec::with_capacity(9);
            ack.push(KIND_ACK);
            ack.extend_from_slice(&inner.incarnation.to_le_bytes());
            stream.write_all(&encode_frame(&ack)).is_ok()
        }
        Some(&KIND_DATA) => {
            let Some(&(from_proc, conn_incarnation)) = sender.as_ref() else {
                return false; // data before HELLO
            };
            if payload.len() < DATA_HEADER {
                return false;
            }
            if let Some(m) = metrics.as_ref() {
                m.frames_received.inc();
                m.bytes_received.add(payload.len() as u64);
            }
            if inner.chaos.ingress_blocked(from_proc as usize) {
                // Inbound partition: discard before the dup-floor
                // update so the frame still delivers when the peer's
                // dialer replays it after the partition heals.
                global()
                    .scoped("peer", from_proc)
                    .counter(counters::CHAOS_FRAMES_PARTITIONED)
                    .inc();
                return true;
            }
            let seq = u64::from_le_bytes(payload[1..9].try_into().unwrap());
            let chan = payload[9];
            let from = u64::from_le_bytes(payload[10..18].try_into().unwrap());
            let to = u64::from_le_bytes(payload[18..26].try_into().unwrap());
            {
                let mut last_seen = inner.last_seen.lock();
                let (current, last) = last_seen.entry(from_proc).or_insert((conn_incarnation, 0));
                // A lingering connection from a dead incarnation may
                // still have buffered frames after the restarted peer's
                // HELLO reset the floor; letting them through would
                // raise the floor past the fresh sequence numbers and
                // swallow the new incarnation's traffic.
                if *current != conn_incarnation || seq <= *last {
                    match metrics.as_ref() {
                        Some(m) => m.dup_dropped.inc(),
                        None => global().counter(counters::NET_FRAMES_DUP_DROPPED).inc(),
                    }
                    return true;
                }
                *last = seq;
            }
            dispatch(inner, chan, from, to, &payload[DATA_HEADER..]);
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(front: u64, frames: usize, len: usize) -> LinkState {
        LinkState {
            next_seq: front + frames as u64,
            buffer: (0..frames)
                .map(|i| (front + i as u64, Arc::new(vec![0; len])))
                .collect(),
        }
    }

    fn seqs(state: &LinkState, cursor: u64) -> Vec<u64> {
        let mut out = Vec::new();
        state.frames_from(cursor, &mut out);
        out.iter().map(|(seq, _)| *seq).collect()
    }

    #[test]
    fn cursor_indexes_into_the_contiguous_buffer() {
        let link = state(10, 5, 8);
        assert_eq!(link.front_seq(), 10);
        assert_eq!(seqs(&link, 12), [12, 13, 14]);
        // Caught up: nothing to write.
        assert!(seqs(&link, 15).is_empty());
        // Frames below the front were evicted: start at the front.
        assert_eq!(seqs(&link, 3), [10, 11, 12, 13, 14]);
        assert_eq!(state(7, 0, 8).front_seq(), 7);
    }

    #[test]
    fn one_wake_takes_at_most_the_write_cap_but_always_one_frame() {
        let per_cap = 4;
        let link = state(1, 10, WRITE_CAP / per_cap);
        assert_eq!(seqs(&link, 1).len(), per_cap);
        assert_eq!(seqs(&link, 9), [9, 10]);
        let huge = state(1, 2, WRITE_CAP + 1);
        assert_eq!(seqs(&huge, 1), [1]);
    }
}
