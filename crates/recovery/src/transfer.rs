//! Peer-to-peer state transfer.
//!
//! A restarting replica fetches the latest checkpoint from a **live
//! peer** instead of a shared in-process store — the way the paper's
//! Multi-Ring Paxos deployments actually recover. The wire protocol runs
//! over the same [`LiveNet`] substrate as everything else in this
//! reproduction (one channel hop stands in for a cluster link):
//!
//! ```text
//! fetcher                         serving peer
//!    │ ───────── Fetch ──────────────▶ │
//!    │ ◀──────── Offer ─────────────── │  id, cut, total length,
//!    │ ◀──────── Chunk 0 ───────────── │  chunk count, digest
//!    │ ◀──────── Chunk 1 ───────────── │
//!    │            …                    │
//!    │ ◀──────── Chunk n-1 ─────────── │
//! ```
//!
//! Snapshots are streamed in chunks and verified against an end-to-end
//! digest; a peer that crashes mid-transfer shows up as a per-message
//! timeout and the fetcher **falls back to the next peer**.

use crate::{Checkpoint, CheckpointStore, StreamCut};
use psmr_common::metrics::{counters, global};
use psmr_common::runtime::{recv_timeout_via, Clock, RealClock};
use psmr_netsim::live::LiveNet;
use psmr_netsim::NodeId;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The message network state transfer runs over.
pub type TransferNet = LiveNet<TransferMsg>;

/// Wire protocol of a state transfer (see the module-level diagram).
#[derive(Debug, Clone)]
pub enum TransferMsg {
    /// Fetcher → peer: send me your latest checkpoint.
    Fetch,
    /// Peer → fetcher: the transfer manifest; `chunks` chunk messages
    /// follow.
    Offer {
        /// Checkpoint number of the offered snapshot.
        id: u64,
        /// Stream position the snapshot was cut at.
        cut: StreamCut,
        /// Total snapshot length in bytes.
        len: u64,
        /// Number of chunk messages that follow.
        chunks: u32,
        /// FNV-1a 64-bit digest of the complete snapshot.
        digest: u64,
    },
    /// Peer → fetcher: one snapshot chunk, in order.
    Chunk {
        /// Chunk index in `0..chunks`.
        index: u32,
        /// The chunk's bytes.
        bytes: Vec<u8>,
    },
    /// Peer → fetcher: the peer is alive but has no checkpoint yet.
    NotFound,
}

/// FNV-1a 64-bit digest — the end-to-end integrity check of a transfer.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Why a fetch found no usable peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferError {
    /// The peer list was empty — nobody to fetch from.
    NoPeers,
    /// Every peer either timed out, crashed mid-transfer, failed the
    /// digest check, or had no checkpoint to offer.
    AllPeersFailed {
        /// How many peers were attempted.
        attempted: usize,
    },
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::NoPeers => write!(f, "no live peer to fetch state from"),
            TransferError::AllPeersFailed { attempted } => {
                write!(f, "state transfer failed on all {attempted} peers")
            }
        }
    }
}

impl std::error::Error for TransferError {}

/// A completed fetch: the checkpoint and where it came from.
#[derive(Debug, Clone)]
pub struct FetchedState {
    /// The transferred (digest-verified) checkpoint.
    pub checkpoint: Checkpoint,
    /// The peer that served the transfer.
    pub from: NodeId,
    /// Peers given up on before this one served (timeouts, digest
    /// mismatches, mid-transfer crashes).
    pub fallbacks: u64,
}

/// One replica's serving half: a thread answering [`TransferMsg::Fetch`]
/// requests with the replica's latest checkpoint, chunked.
///
/// Spawned per live replica; stopped (and its node crashed on the
/// transfer network) when the replica crashes, so fetchers see dead
/// peers as silence, not errors. The thread blocks on its inbox and
/// wakes only for a message or for its stop, which disconnects the
/// inbox.
#[derive(Debug)]
pub struct StateTransferServer {
    net: TransferNet,
    node: NodeId,
    thread: Option<JoinHandle<()>>,
}

impl StateTransferServer {
    /// Spawns the serving thread: registers `node` on `net` and answers
    /// every fetch with the newest checkpoint in `store`, `chunk_bytes`
    /// per chunk message.
    pub fn spawn(
        net: TransferNet,
        node: NodeId,
        store: Arc<CheckpointStore>,
        chunk_bytes: usize,
    ) -> Self {
        let chunk_bytes = chunk_bytes.max(1);
        let inbox = net.register(node);
        let replies = net.clone();
        let thread = std::thread::Builder::new()
            .name(format!("xfer-serve-{}", node.as_raw()))
            .spawn(move || {
                while let Ok((from, msg)) = inbox.recv() {
                    if let TransferMsg::Fetch = msg {
                        serve_one(&replies, node, from, &store, chunk_bytes);
                    }
                }
            })
            .expect("spawn state-transfer server");
        Self {
            net,
            node,
            thread: Some(thread),
        }
    }

    /// Stops the serving thread and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    /// Registering the node again drops the old inbox's sender, which
    /// disconnects the thread's `recv`; the new inbox is dropped at once,
    /// so the node stays unreachable.
    fn halt(&mut self) {
        if let Some(t) = self.thread.take() {
            drop(self.net.register(self.node));
            let _ = t.join();
        }
    }
}

impl Drop for StateTransferServer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Answers one fetch: the offer, then the chunks.
fn serve_one(
    net: &TransferNet,
    me: NodeId,
    fetcher: NodeId,
    store: &CheckpointStore,
    chunk_bytes: usize,
) {
    let Some(checkpoint) = store.latest() else {
        net.send(me, fetcher, TransferMsg::NotFound);
        return;
    };
    let snapshot = &checkpoint.snapshot;
    let chunks = snapshot.len().div_ceil(chunk_bytes).max(1) as u32;
    let offer = TransferMsg::Offer {
        id: checkpoint.id,
        cut: checkpoint.cut,
        len: snapshot.len() as u64,
        chunks,
        digest: digest64(snapshot),
    };
    if !net.send(me, fetcher, offer) {
        return; // fetcher gone mid-transfer
    }
    global().counter(counters::TRANSFERS_SERVED).inc();
    for (index, chunk) in snapshot.chunks(chunk_bytes).enumerate() {
        let msg = TransferMsg::Chunk {
            index: index as u32,
            bytes: chunk.to_vec(),
        };
        if !net.send(me, fetcher, msg) {
            return;
        }
        global().counter(counters::TRANSFER_CHUNKS_SENT).inc();
    }
    if snapshot.is_empty() {
        // Zero-length snapshots still send their one (empty) chunk so the
        // fetcher's receive loop has something to terminate on.
        net.send(
            me,
            fetcher,
            TransferMsg::Chunk {
                index: 0,
                bytes: Vec::new(),
            },
        );
        global().counter(counters::TRANSFER_CHUNKS_SENT).inc();
    }
}

/// Fetches the latest checkpoint from the first peer that completes a
/// digest-verified transfer, trying `peers` in order.
///
/// `me` is registered on `net` with a fresh inbox (stale traffic from a
/// previous incarnation is gone). Each protocol message is awaited for
/// at most `timeout`; a peer that exceeds it — crashed outright, or died
/// mid-chunk-stream — is abandoned and the next peer tried.
///
/// # Errors
///
/// [`TransferError::NoPeers`] when `peers` is empty;
/// [`TransferError::AllPeersFailed`] when every peer was tried without a
/// verified transfer.
pub fn fetch_latest(
    net: &TransferNet,
    me: NodeId,
    peers: &[NodeId],
    timeout: Duration,
) -> Result<FetchedState, TransferError> {
    fetch_latest_via(&RealClock, net, me, peers, timeout)
}

/// [`fetch_latest`] with every per-message timeout interpreted in
/// `clock`'s timebase — the variant deterministic-simulation harnesses
/// inject a virtual clock into.
pub fn fetch_latest_via(
    clock: &dyn Clock,
    net: &TransferNet,
    me: NodeId,
    peers: &[NodeId],
    timeout: Duration,
) -> Result<FetchedState, TransferError> {
    if peers.is_empty() {
        return Err(TransferError::NoPeers);
    }
    let inbox = net.register(me);
    let mut fallbacks = 0u64;
    for &peer in peers {
        match fetch_from(clock, net, &inbox, me, peer, timeout) {
            Some(mut fetched) => {
                fetched.fallbacks = fallbacks;
                global().counter(counters::TRANSFERS_COMPLETED).inc();
                return Ok(fetched);
            }
            None => {
                fallbacks += 1;
                global().counter(counters::TRANSFER_FALLBACKS).inc();
            }
        }
    }
    Err(TransferError::AllPeersFailed {
        attempted: peers.len(),
    })
}

/// One attempt against one peer; `None` on timeout, digest mismatch,
/// `NotFound`, or protocol confusion.
fn fetch_from(
    clock: &dyn Clock,
    net: &TransferNet,
    inbox: &crossbeam::channel::Receiver<(NodeId, TransferMsg)>,
    me: NodeId,
    peer: NodeId,
    timeout: Duration,
) -> Option<FetchedState> {
    if !net.send(me, peer, TransferMsg::Fetch) {
        return None; // peer already known-dead
    }
    // Await the offer, ignoring stragglers from previously abandoned peers.
    let (id, cut, len, chunks, digest) = loop {
        match recv_timeout_via(clock, inbox, timeout) {
            Ok((
                from,
                TransferMsg::Offer {
                    id,
                    cut,
                    len,
                    chunks,
                    digest,
                },
            )) if from == peer => break (id, cut, len, chunks, digest),
            Ok((from, TransferMsg::NotFound)) if from == peer => return None,
            Ok(_) => continue, // stale message from an abandoned peer
            Err(_) => return None,
        }
    };
    let mut snapshot = Vec::with_capacity(usize::try_from(len).ok()?);
    let mut next = 0u32;
    while next < chunks {
        match recv_timeout_via(clock, inbox, timeout) {
            Ok((from, TransferMsg::Chunk { index, bytes })) if from == peer => {
                if index != next {
                    return None; // protocol violation; don't guess
                }
                snapshot.extend_from_slice(&bytes);
                next += 1;
            }
            Ok(_) => continue,
            Err(_) => return None, // peer died mid-transfer
        }
    }
    if snapshot.len() as u64 != len || digest64(&snapshot) != digest {
        return None;
    }
    Some(FetchedState {
        checkpoint: Checkpoint { id, cut, snapshot },
        from: peer,
        fallbacks: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psmr_common::ids::GroupId;

    fn cut(seq: u64) -> StreamCut {
        StreamCut {
            group: GroupId::new(2),
            seq,
            offset: 0,
        }
    }

    fn source(snapshot: Option<Vec<u8>>) -> Arc<CheckpointStore> {
        let store = CheckpointStore::new();
        if let Some(snapshot) = snapshot {
            store.install(cut(3), 1, snapshot);
        }
        Arc::new(store)
    }

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn digest64_is_stable_and_input_sensitive() {
        assert_eq!(digest64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest64(b"a"), digest64(b"b"));
        assert_eq!(digest64(b"abc"), digest64(b"abc"));
    }

    #[test]
    fn fetch_transfers_a_chunked_snapshot_with_handshake() {
        let net: TransferNet = LiveNet::new();
        let snapshot: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let server =
            StateTransferServer::spawn(net.clone(), n(0), source(Some(snapshot.clone())), 512);
        let fetched = fetch_latest(&net, n(9), &[n(0)], Duration::from_secs(2)).expect("transfer");
        assert_eq!(fetched.checkpoint.snapshot, snapshot);
        assert_eq!(fetched.checkpoint.id, 1);
        assert_eq!(fetched.checkpoint.cut, cut(3));
        assert_eq!(fetched.from, n(0));
        assert_eq!(fetched.fallbacks, 0);
        server.stop();
    }

    #[test]
    fn empty_and_tiny_snapshots_transfer() {
        let net: TransferNet = LiveNet::new();
        let server = StateTransferServer::spawn(net.clone(), n(0), source(Some(Vec::new())), 512);
        let fetched = fetch_latest(&net, n(9), &[n(0)], Duration::from_secs(2)).expect("transfer");
        assert!(fetched.checkpoint.snapshot.is_empty());
        server.stop();
    }

    #[test]
    fn fetch_with_no_peers_is_a_typed_error() {
        let net: TransferNet = LiveNet::new();
        assert_eq!(
            fetch_latest(&net, n(9), &[], Duration::from_millis(10)).unwrap_err(),
            TransferError::NoPeers
        );
    }

    #[test]
    fn dead_peer_falls_back_to_the_next_one() {
        let net: TransferNet = LiveNet::new();
        // Peer 0 is registered then crashes; peer 1 serves.
        let _dead_inbox = net.register(n(0));
        net.crash(n(0));
        let server = StateTransferServer::spawn(net.clone(), n(1), source(Some(vec![5; 100])), 16);
        let fetched =
            fetch_latest(&net, n(9), &[n(0), n(1)], Duration::from_millis(200)).expect("fallback");
        assert_eq!(fetched.from, n(1));
        assert_eq!(fetched.fallbacks, 1);
        server.stop();
    }

    #[test]
    fn peer_crashing_mid_transfer_falls_back() {
        let net: TransferNet = LiveNet::new();
        let snapshot = vec![7u8; 4096];
        let bad = StateTransferServer::spawn(net.clone(), n(0), source(Some(snapshot.clone())), 64);
        let good =
            StateTransferServer::spawn(net.clone(), n(1), source(Some(snapshot.clone())), 64);
        // Peer 0's link to the fetcher dies after the offer + 3 chunks.
        net.sever_after(n(0), n(9), 4);
        let fetched =
            fetch_latest(&net, n(9), &[n(0), n(1)], Duration::from_millis(150)).expect("fallback");
        assert_eq!(fetched.from, n(1), "completed on the fallback peer");
        assert_eq!(fetched.fallbacks, 1);
        assert_eq!(fetched.checkpoint.snapshot, snapshot);
        bad.stop();
        good.stop();
    }

    #[test]
    fn peer_without_a_checkpoint_is_skipped() {
        let net: TransferNet = LiveNet::new();
        let empty = StateTransferServer::spawn(net.clone(), n(0), source(None), 64);
        let full = StateTransferServer::spawn(net.clone(), n(1), source(Some(vec![1, 2])), 64);
        let fetched =
            fetch_latest(&net, n(9), &[n(0), n(1)], Duration::from_millis(300)).expect("skip");
        assert_eq!(fetched.from, n(1));
        empty.stop();
        full.stop();

        let lonely: TransferNet = LiveNet::new();
        let empty = StateTransferServer::spawn(lonely.clone(), n(0), source(None), 64);
        assert_eq!(
            fetch_latest(&lonely, n(9), &[n(0)], Duration::from_millis(150)).unwrap_err(),
            TransferError::AllPeersFailed { attempted: 1 }
        );
        empty.stop();
    }
}
