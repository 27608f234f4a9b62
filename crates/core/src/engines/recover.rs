//! Engine-side halves of the checkpoint & recovery subsystem shared by
//! every engine: executing a delivered [`psmr_recovery::CHECKPOINT`]
//! command at its consistent cut (and persisting it durably), the
//! per-engine recovery context — per-replica checkpoint stores, the
//! state-transfer fabric replicas recover over, durable snapshot
//! directories, the optional periodic driver — and the replica
//! bookkeeping crash/restart operates on.
//!
//! Recovery is **deployment-shaped**, not a shared-memory fiction: each
//! replica owns its checkpoint store and serves it to peers through a
//! [`StateTransferServer`]; a restarting replica recovers from its own
//! disk snapshot when the retained logs still cover it, and falls back
//! to fetching a fresher checkpoint from a live peer otherwise.

use super::sync::Rendezvous;
use crate::client::RequestSink;
use crate::service::RecoverableService;
use psmr_common::envelope::Request;
use psmr_common::ids::{ClientId, GroupId, RequestId};
use psmr_common::metrics::{counters, global};
use psmr_common::runtime::{ClockHandle, RealClock};
use psmr_common::SystemConfig;
use psmr_multicast::{Delivered, MulticastHandle};
use psmr_netsim::NodeId;
use psmr_recovery::transfer::{fetch_latest_via, StateTransferServer, TransferNet};
use psmr_recovery::{
    AutoCheckpointer, Checkpoint, CheckpointStore, DurableStore, RecoveryError, StreamCut,
    TransferError, CHECKPOINT,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked replica threads re-check their crash flag.
pub(crate) const CRASH_POLL: Duration = Duration::from_millis(20);

/// How often a restart re-fetches from peers when a concurrent trim
/// races the cut it is restoring at, before giving up with
/// [`RecoveryError::CutTrimmed`].
const REFETCH_ATTEMPTS: usize = 3;

/// Durable snapshot files each replica keeps on disk (the newest ones).
const DISK_RETAIN: usize = 2;

/// The state-transfer address of a replica.
fn transfer_node(replica: usize) -> NodeId {
    NodeId::new(replica as u64)
}

/// What an executor needs to take a checkpoint when the control command
/// reaches it: a way to snapshot its replica's service, the replica's
/// own store to install into, the durable store to persist into, and
/// (for multicast-backed engines) the handle whose ordered logs become
/// trimmable afterwards.
#[derive(Clone)]
pub(crate) struct CheckpointHook {
    snapshot: Arc<dyn Fn() -> Vec<u8> + Send + Sync>,
    store: Arc<CheckpointStore>,
    durable: Option<Arc<DurableStore>>,
    trim: Option<MulticastHandle>,
    /// CHECKPOINT commands this replica has executed, seeded at restart
    /// with the recovery checkpoint's id. Replicas execute the same
    /// CHECKPOINT commands in the same order, so every replica derives
    /// the identical id for a given command deterministically — a lagging
    /// replica answers an old request with the same id the fast replicas
    /// already did, no matter how far behind it is.
    executed: Arc<AtomicU64>,
}

impl CheckpointHook {
    /// Builds the hook for one replica's service. `seed` is 0 for a fresh
    /// replica and the recovery checkpoint's id for a restarted one (its
    /// stream resumes just past that checkpoint's command).
    pub fn new(
        service: &Arc<dyn RecoverableService>,
        store: Arc<CheckpointStore>,
        durable: Option<Arc<DurableStore>>,
        trim: Option<MulticastHandle>,
        seed: u64,
    ) -> Self {
        let svc = Arc::clone(service);
        Self {
            snapshot: Arc::new(move || svc.snapshot()),
            store,
            durable,
            trim,
            executed: Arc::new(AtomicU64::new(seed)),
        }
    }

    /// Executes a delivered [`CHECKPOINT`] command: snapshots the
    /// (quiesced) service, installs the checkpoint at the command's cut,
    /// persists it durably (when the deployment configured a snapshot
    /// directory), and trims the ordered logs it makes reclaimable.
    /// Returns the response payload (the checkpoint id, little-endian).
    pub fn execute(&self, delivered: &Delivered) -> Vec<u8> {
        let cut = StreamCut {
            group: delivered.group,
            seq: delivered.batch_seq,
            offset: delivered.offset,
        };
        let id = self.executed.fetch_add(1, Ordering::Relaxed) + 1;
        let snapshot = (self.snapshot)();
        match &self.durable {
            // Workers are quiesced while this runs: without a durable
            // store, hand the bytes straight over — no copy on the path
            // that lengthens the checkpoint stall.
            None => {
                if self.store.install(cut, id, snapshot) {
                    global().counter(counters::CHECKPOINTS_TAKEN).inc();
                }
            }
            Some(durable) => {
                if self.store.install(cut, id, snapshot.clone()) {
                    global().counter(counters::CHECKPOINTS_TAKEN).inc();
                    // Disk trouble must not take the replica down with
                    // it: the in-memory checkpoint is installed either
                    // way, and load-time crc checks keep a bad write
                    // from ever being trusted.
                    let checkpoint = Checkpoint { id, cut, snapshot };
                    if durable.persist(&checkpoint).is_ok() {
                        let _ = durable.retain_newest(DISK_RETAIN);
                    }
                }
            }
        }
        if let Some(handle) = &self.trim {
            handle.trim_to_cut(&cut);
        }
        id.to_le_bytes().to_vec()
    }
}

/// Where a restarted replica's recovery snapshot came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// The replica's own durable snapshot directory.
    Disk,
    /// State transfer from the given live replica.
    Peer(usize),
    /// No snapshot at all: the replica rebuilt its entire state by
    /// replaying the durable ordered log from the beginning (a cold
    /// start before any checkpoint was ever taken).
    WalOnly,
}

/// What a completed restart reports back: enough for operators (and
/// tests) to see which recovery path ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Where the recovery snapshot came from.
    pub source: RecoverySource,
    /// Id of the checkpoint the replica restored from.
    pub checkpoint_id: u64,
    /// The stream cut the replica resumed its subscriptions at.
    pub cut: StreamCut,
    /// Peers abandoned mid-transfer before one served (0 when recovery
    /// came from disk or the first peer).
    pub transfer_fallbacks: u64,
    /// Id of the newest valid snapshot found on the replica's own disk,
    /// whether or not it was used.
    pub disk_checkpoint: Option<u64>,
}

/// Per-replica recovery state: the replica's own checkpoint store, its
/// durable snapshot directory, and the server streaming its checkpoints
/// to restarting peers.
pub(crate) struct ReplicaRecovery {
    pub store: Arc<CheckpointStore>,
    pub durable: Option<Arc<DurableStore>>,
    server: Option<StateTransferServer>,
}

/// Engine-level recovery context of a `spawn_recoverable` deployment.
pub(crate) struct EngineRecovery {
    /// Produces a fresh (empty) service instance for a restarting
    /// replica; `restore` then replays the snapshot into it.
    pub factory: Arc<dyn Fn() -> Arc<dyn RecoverableService> + Send + Sync>,
    /// Per-replica stores/servers/disks (index = replica id).
    pub replicas: Vec<ReplicaRecovery>,
    /// The network state transfers run over.
    net: TransferNet,
    chunk_bytes: usize,
    timeout: Duration,
    /// Timebase the transfer timeouts are measured on (injected by
    /// runtime-aware spawn paths; real time by default).
    clock: ClockHandle,
    /// Periodic CHECKPOINT driver (when `cfg.checkpoint_interval` set).
    pub checkpointer: Option<AutoCheckpointer>,
}

impl EngineRecovery {
    /// Builds the recovery context of a fresh deployment: one store,
    /// transfer server and (with `cfg.snapshot_dir`) durable directory
    /// per replica.
    ///
    /// # Panics
    ///
    /// Panics when a configured snapshot directory cannot be created —
    /// a deployment asked to be durable must not come up silently
    /// non-durable.
    pub fn build(
        cfg: &SystemConfig,
        factory: Arc<dyn Fn() -> Arc<dyn RecoverableService> + Send + Sync>,
    ) -> Self {
        let net: TransferNet = TransferNet::new();
        let replicas = (0..cfg.n_replicas)
            .map(|idx| {
                let store = Arc::new(CheckpointStore::new());
                let durable = cfg.snapshot_dir.as_ref().map(|dir| {
                    Arc::new(
                        DurableStore::open(dir.join(format!("r{idx}")))
                            .expect("create replica snapshot directory"),
                    )
                });
                let server = StateTransferServer::spawn(
                    net.clone(),
                    transfer_node(idx),
                    Arc::clone(&store),
                    cfg.transfer_chunk_bytes,
                );
                ReplicaRecovery {
                    store,
                    durable,
                    server: Some(server),
                }
            })
            .collect();
        Self {
            factory,
            replicas,
            net,
            chunk_bytes: cfg.transfer_chunk_bytes,
            timeout: cfg.transfer_timeout,
            clock: Arc::new(RealClock),
            checkpointer: None,
        }
    }

    /// Measures the transfer timeouts on `clock` instead of real time
    /// (runtime-aware spawn paths call this right after `build`).
    pub fn set_clock(&mut self, clock: ClockHandle) {
        self.clock = clock;
    }

    /// The checkpoint hook of one replica, seeded for a fresh spawn
    /// (`seed` 0) or a restart (the recovery checkpoint's id).
    pub fn hook_for(
        &self,
        replica: usize,
        service: &Arc<dyn RecoverableService>,
        trim: MulticastHandle,
        seed: u64,
    ) -> CheckpointHook {
        let slot = &self.replicas[replica];
        CheckpointHook::new(
            service,
            Arc::clone(&slot.store),
            slot.durable.clone(),
            Some(trim),
            seed,
        )
    }

    /// Takes a crashed replica off the transfer fabric: its serving
    /// thread stops and its node crash-stops, so fetching peers see it
    /// as silence.
    pub fn on_crash(&mut self, replica: usize) {
        if let Some(server) = self.replicas[replica].server.take() {
            server.stop();
        }
        self.net.crash(transfer_node(replica));
    }

    /// The restart path shared by every replicated engine: recover the
    /// replica's state **disk-first** (its own durable snapshot, when the
    /// retained logs still cover that cut) with **peer fallback** (a
    /// fresher checkpoint fetched from the first live peer that completes
    /// a digest-verified transfer), restore a fresh service from the
    /// chosen snapshot, and subscribe its streams at the cut through
    /// `subscribe`. The chunked transfer runs only if the disk candidate
    /// is absent or its log suffix is gone.
    ///
    /// A checkpoint installed *while we restore* trims the logs past the
    /// cut being restored; when `subscribe` loses that race the restart
    /// re-fetches a fresher checkpoint from the peers (bounded attempts)
    /// and, if none exists, surfaces [`RecoveryError::CutTrimmed`]
    /// instead of looping on the stale cut.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::NoCheckpoint`] when there is no disk snapshot and
    /// no live peer; [`RecoveryError::Transfer`] when peers exist but
    /// none completed a transfer and no disk snapshot stood in;
    /// [`RecoveryError::CutTrimmed`] when trims raced every candidate
    /// cut; plus whatever `subscribe` or snapshot decoding surface.
    pub fn recover<S>(
        &mut self,
        replica: usize,
        live_peers: &[usize],
        mut subscribe: impl FnMut(StreamCut) -> Result<S, RecoveryError>,
    ) -> Result<(Arc<dyn RecoverableService>, S, RecoveryReport), RecoveryError> {
        let me = transfer_node(replica);
        self.net.restart(me);
        let durable = self.replicas[replica].durable.clone();
        let disk = durable.as_ref().and_then(|d| d.load_latest());
        let disk_checkpoint = disk.as_ref().map(|d| d.id);
        let peer_nodes: Vec<NodeId> = live_peers.iter().map(|&p| transfer_node(p)).collect();
        let mut newest_tried: Option<StreamCut> = None;
        if let Some(d) = disk {
            newest_tried = Some(d.cut);
            // An inner Err(()) means the cut was trimmed; fall through to
            // the peers.
            if let Ok((service, streams, checkpoint)) = self.try_restore(d, &mut subscribe)? {
                let report = self.finish(
                    replica,
                    &checkpoint,
                    RecoverySource::Disk,
                    0,
                    disk_checkpoint,
                );
                return Ok((service, streams, report));
            }
        }

        // Peer transfer, re-fetching a bounded number of times when a
        // checkpoint installed mid-restart trims the cut being restored.
        for _ in 0..=REFETCH_ATTEMPTS {
            let f = match fetch_latest_via(&*self.clock, &self.net, me, &peer_nodes, self.timeout) {
                Ok(f) => f,
                Err(e) => {
                    return Err(match (newest_tried, e) {
                        // A disk candidate was tried and trimmed, and no
                        // peer can offer anything fresher.
                        (Some(cut), _) => RecoveryError::CutTrimmed { cut },
                        (None, TransferError::NoPeers) => RecoveryError::NoCheckpoint,
                        (None, e) => e.into(),
                    });
                }
            };
            if let Some(tried) = newest_tried {
                if !f.checkpoint.cut.is_newer_than(&tried) {
                    // No fresher point exists; looping on the stale cut
                    // would never terminate. Surface the race as a typed
                    // error.
                    return Err(RecoveryError::CutTrimmed { cut: tried });
                }
            }
            newest_tried = Some(f.checkpoint.cut);
            let peer = f.from.as_raw() as usize;
            if let Ok((service, streams, checkpoint)) =
                self.try_restore(f.checkpoint, &mut subscribe)?
            {
                let source = RecoverySource::Peer(peer);
                let report =
                    self.finish(replica, &checkpoint, source, f.fallbacks, disk_checkpoint);
                return Ok((service, streams, report));
            }
        }
        Err(RecoveryError::CutTrimmed {
            cut: newest_tried.expect("at least one candidate was tried"),
        })
    }

    /// The whole-deployment cold-start path of one replica: **no live
    /// peer exists**, so recovery is disk-only. The replica walks its
    /// own durable snapshots newest-first (a corrupt newest file was
    /// already skipped by the store; a snapshot whose stream position
    /// the replayed WAL cannot serve falls through to the next), and —
    /// when it has no usable snapshot at all — rebuilds from scratch by
    /// replaying the entire durable ordered log (`subscribe_start`).
    /// The recovered checkpoint is installed into the replica's (fresh)
    /// in-memory store so the transfer fabric serves it to later
    /// single-replica restarts.
    ///
    /// `scratch_group` tags the synthetic stream cut of a from-scratch
    /// report (the layout's serialized group).
    ///
    /// # Errors
    ///
    /// [`RecoveryError::CutTrimmed`] when snapshots exist but the WAL no
    /// longer covers any of their cuts; [`RecoveryError::LogTrimmed`]
    /// when no snapshot exists and the WAL does not reach back to the
    /// stream's beginning; plus whatever restore surfaces.
    pub fn cold_start<S>(
        &mut self,
        replica: usize,
        scratch_group: GroupId,
        mut subscribe_at: impl FnMut(StreamCut) -> Result<S, RecoveryError>,
        subscribe_start: impl FnOnce() -> Result<S, RecoveryError>,
    ) -> Result<(Arc<dyn RecoverableService>, S, RecoveryReport), RecoveryError> {
        let durable = self.replicas[replica].durable.clone();
        let candidates = durable.as_ref().map(|d| d.load_all()).unwrap_or_default();
        let disk_checkpoint = candidates.first().map(|d| d.id);
        let mut newest_tried: Option<StreamCut> = None;
        for candidate in candidates {
            if newest_tried.is_none() {
                newest_tried = Some(candidate.cut);
            }
            // Inner Err(()) = this cut's suffix is unavailable; an older
            // snapshot may still sit inside the replayed stream (e.g.
            // when the newest outlived a partially lost WAL directory).
            if let Ok((service, streams, checkpoint)) =
                self.try_restore(candidate, &mut subscribe_at)?
            {
                self.replicas[replica].store.install(
                    checkpoint.cut,
                    checkpoint.id,
                    checkpoint.snapshot.clone(),
                );
                let report = RecoveryReport {
                    source: RecoverySource::Disk,
                    checkpoint_id: checkpoint.id,
                    cut: checkpoint.cut,
                    transfer_fallbacks: 0,
                    disk_checkpoint,
                };
                return Ok((service, streams, report));
            }
        }
        if let Some(cut) = newest_tried {
            // Snapshots exist but none of their cuts can be served: the
            // WAL was trimmed past them (or lost). Surface the typed
            // race instead of silently rebuilding a truncated state.
            return Err(RecoveryError::CutTrimmed { cut });
        }
        let service = (self.factory)();
        let streams = subscribe_start()?;
        let report = RecoveryReport {
            source: RecoverySource::WalOnly,
            checkpoint_id: 0,
            cut: StreamCut {
                group: scratch_group,
                seq: 0,
                offset: 0,
            },
            transfer_fallbacks: 0,
            disk_checkpoint: None,
        };
        Ok((service, streams, report))
    }

    /// Takes **every** replica off the transfer fabric at once — the
    /// whole-deployment power failure. All serving threads stop and the
    /// fabric crash-stops every node, so nothing survives to answer a
    /// fetch.
    pub fn crash_everything(&mut self) {
        self.net.crash_all();
        for slot in &mut self.replicas {
            if let Some(server) = slot.server.take() {
                server.stop();
            }
        }
    }

    /// Restores a fresh service from `checkpoint` and subscribes at its
    /// cut. The outer `Result` carries fatal errors; the inner `Err(())`
    /// means "this cut's log suffix is trimmed — try a fresher one".
    #[allow(clippy::type_complexity)]
    fn try_restore<S>(
        &self,
        checkpoint: Checkpoint,
        subscribe: &mut impl FnMut(StreamCut) -> Result<S, RecoveryError>,
    ) -> Result<Result<(Arc<dyn RecoverableService>, S, Checkpoint), ()>, RecoveryError> {
        let service = (self.factory)();
        service.restore(&checkpoint.snapshot)?;
        match subscribe(checkpoint.cut) {
            Ok(streams) => Ok(Ok((service, streams, checkpoint))),
            Err(RecoveryError::LogTrimmed { .. }) => Ok(Err(())),
            Err(other) => Err(other),
        }
    }

    /// Installs the recovered replica back into the fabric: a fresh store
    /// seeded with the recovery checkpoint, the checkpoint persisted to
    /// its own disk (so the *next* restart finds it locally), and a new
    /// transfer server. Returns the restart's report.
    fn finish(
        &mut self,
        replica: usize,
        checkpoint: &Checkpoint,
        source: RecoverySource,
        transfer_fallbacks: u64,
        disk_checkpoint: Option<u64>,
    ) -> RecoveryReport {
        let durable = self.replicas[replica].durable.clone();
        let store = Arc::new(CheckpointStore::new());
        store.install(checkpoint.cut, checkpoint.id, checkpoint.snapshot.clone());
        if let (Some(durable), RecoverySource::Peer(_)) = (&durable, source) {
            if durable.persist(checkpoint).is_ok() {
                let _ = durable.retain_newest(DISK_RETAIN);
            }
        }
        let server = StateTransferServer::spawn(
            self.net.clone(),
            transfer_node(replica),
            Arc::clone(&store),
            self.chunk_bytes,
        );
        self.replicas[replica] = ReplicaRecovery {
            store,
            durable,
            server: Some(server),
        };
        RecoveryReport {
            source,
            checkpoint_id: checkpoint.id,
            cut: checkpoint.cut,
            transfer_fallbacks,
            disk_checkpoint,
        }
    }

    /// Severs the transfer-fabric link `from → to` after `budget` more
    /// messages (fault injection: a serving peer dying mid-transfer).
    pub fn sever_transfer_link(&self, from: usize, to: usize, budget: u64) {
        self.net
            .sever_after(transfer_node(from), transfer_node(to), budget);
    }

    /// Stops the periodic driver, every transfer server and the fabric
    /// (call during engine shutdown).
    pub fn stop(mut self) {
        if let Some(driver) = self.checkpointer.take() {
            driver.stop();
        }
        self.net.shutdown();
        for slot in &mut self.replicas {
            if let Some(server) = slot.server.take() {
                server.stop();
            }
        }
    }
}

/// Client id the periodic checkpointer stamps on its control requests.
/// Never registered with the response router, so the (identical)
/// responses from all replicas are dropped on arrival.
const CHECKPOINTER_CLIENT: ClientId = ClientId::new(u64::MAX);

/// Spawns the periodic driver that multicasts a [`CHECKPOINT`] through
/// `sink` every `interval`.
pub(crate) fn auto_checkpointer(
    sink: Arc<dyn RequestSink>,
    interval: Duration,
    clock: ClockHandle,
) -> AutoCheckpointer {
    let mut next_request = 0u64;
    AutoCheckpointer::spawn_with_clock(interval, clock, move || {
        let request = Request::new(
            CHECKPOINTER_CLIENT,
            RequestId::new(next_request),
            CHECKPOINT,
            Vec::new(),
        );
        next_request += 1;
        sink.submit(&request);
    })
}

/// One replica's runtime state, uniform across engines: its threads, the
/// flag that crash-stops them, the rendezvous of a P-SMR replica's
/// workers (woken on crash), and (for recoverable deployments) the live
/// service instance so tests can compare replica states.
pub(crate) struct ReplicaSlot {
    pub threads: Vec<JoinHandle<()>>,
    pub kill: Arc<AtomicBool>,
    pub rendezvous: Option<Arc<Rendezvous>>,
    pub service: Option<Arc<dyn RecoverableService>>,
    pub crashed: bool,
}

impl ReplicaSlot {
    /// Crash-stops the replica: stops its threads and discards its
    /// service state.
    pub fn crash(&mut self) {
        if self.crashed {
            return;
        }
        self.stop();
        self.service = None;
        self.crashed = true;
    }

    /// Raises the kill flag, wakes workers parked on the rendezvous and
    /// joins every thread (shutdown; [`ReplicaSlot::crash`] adds the
    /// bookkeeping).
    pub fn stop(&mut self) {
        self.kill.store(true, Ordering::Relaxed);
        if let Some(rendezvous) = &self.rendezvous {
            rendezvous.shutdown();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Service;
    use psmr_common::ids::{CommandId, GroupId};
    use psmr_recovery::{RestoreError, Snapshot};

    struct Null;

    impl Service for Null {
        fn execute(&self, _c: CommandId, _p: &[u8]) -> Vec<u8> {
            Vec::new()
        }
    }

    impl Snapshot for Null {
        fn snapshot(&self) -> Vec<u8> {
            vec![7]
        }

        fn restore(&self, _s: &[u8]) -> Result<(), RestoreError> {
            Ok(())
        }
    }

    fn delivered(seq: u64) -> Delivered {
        Delivered {
            group: GroupId::new(0),
            batch_seq: seq,
            offset: 0,
            payload: bytes::Bytes::new(),
        }
    }

    fn hook(
        service: &Arc<dyn RecoverableService>,
        store: Arc<CheckpointStore>,
        seed: u64,
    ) -> CheckpointHook {
        CheckpointHook::new(service, store, None, None, seed)
    }

    /// Replicas derive checkpoint ids from their own execution count, so
    /// a replica lagging arbitrarily far behind answers an old CHECKPOINT
    /// request with the same id the fast replicas already did.
    #[test]
    fn replicas_derive_identical_checkpoint_ids() {
        let store = Arc::new(CheckpointStore::new());
        let fast: Arc<dyn RecoverableService> = Arc::new(Null);
        let fast_hook = hook(&fast, Arc::clone(&store), 0);
        let slow: Arc<dyn RecoverableService> = Arc::new(Null);
        let slow_hook = hook(&slow, Arc::clone(&store), 0);
        // The fast replica executes checkpoints 1 and 2 before the slow
        // replica gets to the first one.
        assert_eq!(fast_hook.execute(&delivered(10)), 1u64.to_le_bytes());
        assert_eq!(fast_hook.execute(&delivered(20)), 2u64.to_le_bytes());
        assert_eq!(slow_hook.execute(&delivered(10)), 1u64.to_le_bytes());
        assert_eq!(slow_hook.execute(&delivered(20)), 2u64.to_le_bytes());
        assert_eq!(store.latest_id(), 2);
        // A restarted replica seeds from the checkpoint it recovered and
        // continues the same numbering for the replayed suffix.
        let restarted_hook = hook(&slow, store, 2);
        assert_eq!(restarted_hook.execute(&delivered(30)), 3u64.to_le_bytes());
    }

    fn test_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::new(1);
        cfg.replicas(2)
            .transfer_timeout(Duration::from_millis(60))
            .transfer_chunk_bytes(4);
        cfg
    }

    fn null_factory() -> Arc<dyn Fn() -> Arc<dyn RecoverableService> + Send + Sync> {
        Arc::new(|| Arc::new(Null) as Arc<dyn RecoverableService>)
    }

    fn cut_at(seq: u64) -> StreamCut {
        StreamCut {
            group: GroupId::new(1),
            seq,
            offset: 0,
        }
    }

    fn unique_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("psmr-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The CutTrimmed fix: when every candidate cut's log suffix is
    /// trimmed and the peers have nothing fresher, recovery surfaces a
    /// typed error instead of looping on the stale checkpoint.
    #[test]
    fn recover_surfaces_cut_trimmed_when_trims_race() {
        let mut recovery = EngineRecovery::build(&test_cfg(), null_factory());
        recovery.replicas[0].store.install(cut_at(5), 1, vec![7]);
        recovery.on_crash(1);
        let result = recovery.recover::<()>(1, &[0], |cut| {
            Err(RecoveryError::LogTrimmed {
                group: cut.group,
                needed: cut.seq,
            })
        });
        let Err(err) = result else {
            panic!("expected CutTrimmed");
        };
        assert_eq!(err, RecoveryError::CutTrimmed { cut: cut_at(5) });
        recovery.stop();
    }

    /// No disk snapshot, no live peer: nothing to restart from.
    #[test]
    fn recover_without_disk_or_peers_is_no_checkpoint() {
        let mut recovery = EngineRecovery::build(&test_cfg(), null_factory());
        recovery.on_crash(1);
        let result = recovery.recover::<()>(1, &[], |_| Ok(()));
        let Err(err) = result else {
            panic!("expected NoCheckpoint");
        };
        assert_eq!(err, RecoveryError::NoCheckpoint);
        recovery.stop();
    }

    /// Disk-first: when the replica's own durable snapshot is as fresh
    /// as the peers' and its log suffix is retained, recovery never
    /// transfers the snapshot bytes at all.
    #[test]
    fn recover_prefers_its_own_disk_when_logs_cover_it() {
        let mut cfg = test_cfg();
        let dir = unique_dir("disk-first");
        cfg.snapshot_dir(Some(dir.clone()));
        let mut recovery = EngineRecovery::build(&cfg, null_factory());
        let checkpoint = Checkpoint {
            id: 3,
            cut: cut_at(7),
            snapshot: vec![7],
        };
        recovery.replicas[1]
            .durable
            .as_ref()
            .expect("durable configured")
            .persist(&checkpoint)
            .unwrap();
        recovery.replicas[0].store.install(cut_at(7), 3, vec![7]);
        recovery.on_crash(1);
        let (_, (), report) = recovery
            .recover(1, &[0], |_| Ok(()))
            .expect("recover from disk");
        assert_eq!(report.source, RecoverySource::Disk);
        assert_eq!(report.checkpoint_id, 3);
        assert_eq!(report.disk_checkpoint, Some(3));
        recovery.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Peer fallback: a stale disk snapshot whose log suffix is trimmed
    /// loses to the fresher checkpoint fetched from a live peer — and
    /// the fetched checkpoint is persisted to the replica's own disk so
    /// the *next* restart finds it locally.
    #[test]
    fn recover_falls_back_to_a_peer_past_a_stale_disk_snapshot() {
        let mut cfg = test_cfg();
        let dir = unique_dir("peer-fallback");
        cfg.snapshot_dir(Some(dir.clone()));
        let mut recovery = EngineRecovery::build(&cfg, null_factory());
        let stale = Checkpoint {
            id: 2,
            cut: cut_at(4),
            snapshot: vec![7],
        };
        recovery.replicas[1]
            .durable
            .as_ref()
            .expect("durable configured")
            .persist(&stale)
            .unwrap();
        recovery.replicas[0].store.install(cut_at(9), 5, vec![7]);
        recovery.on_crash(1);
        let (_, (), report) = recovery
            .recover(1, &[0], |cut| {
                if cut.seq < 9 {
                    Err(RecoveryError::LogTrimmed {
                        group: cut.group,
                        needed: cut.seq,
                    })
                } else {
                    Ok(())
                }
            })
            .expect("recover from peer");
        assert_eq!(report.source, RecoverySource::Peer(0));
        assert_eq!(report.checkpoint_id, 5);
        assert_eq!(report.disk_checkpoint, Some(2));
        let on_disk = recovery.replicas[1]
            .durable
            .as_ref()
            .unwrap()
            .load_latest()
            .expect("fetched checkpoint persisted locally");
        assert_eq!(on_disk.id, 5);
        recovery.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Cold start walks the replica's own disk: a snapshot restores as
    /// `Disk` (seeding the fresh in-memory store), an empty disk falls
    /// back to replaying the whole durable log (`WalOnly`).
    #[test]
    fn cold_start_prefers_disk_and_falls_back_to_wal_only() {
        let mut cfg = test_cfg();
        let dir = unique_dir("cold-start");
        cfg.snapshot_dir(Some(dir.clone()));
        let mut recovery = EngineRecovery::build(&cfg, null_factory());
        recovery.replicas[0]
            .durable
            .as_ref()
            .expect("durable configured")
            .persist(&Checkpoint {
                id: 2,
                cut: cut_at(6),
                snapshot: vec![7],
            })
            .unwrap();
        let (_, (), report) = recovery
            .cold_start(0, GroupId::new(1), |_| Ok(()), || Ok(()))
            .expect("cold start from disk");
        assert_eq!(report.source, RecoverySource::Disk);
        assert_eq!(report.checkpoint_id, 2);
        assert_eq!(
            recovery.replicas[0].store.latest_id(),
            2,
            "recovered checkpoint seeds the fresh store"
        );
        // Replica 1 never persisted anything: scratch replay.
        let (_, (), report) = recovery
            .cold_start(1, GroupId::new(1), |_| Ok(()), || Ok(()))
            .expect("cold start from the log alone");
        assert_eq!(report.source, RecoverySource::WalOnly);
        assert_eq!(report.checkpoint_id, 0);
        assert_eq!(report.disk_checkpoint, None);
        recovery.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Snapshots exist but the durable log no longer covers any of
    /// their cuts: the cold start surfaces the typed error instead of
    /// silently rebuilding a truncated state from scratch.
    #[test]
    fn cold_start_surfaces_cut_trimmed_when_the_log_is_gone() {
        let mut cfg = test_cfg();
        let dir = unique_dir("cold-trimmed");
        cfg.snapshot_dir(Some(dir.clone()));
        let mut recovery = EngineRecovery::build(&cfg, null_factory());
        recovery.replicas[0]
            .durable
            .as_ref()
            .expect("durable configured")
            .persist(&Checkpoint {
                id: 1,
                cut: cut_at(9),
                snapshot: vec![7],
            })
            .unwrap();
        let result = recovery.cold_start::<()>(
            0,
            GroupId::new(1),
            |cut| {
                Err(RecoveryError::LogTrimmed {
                    group: cut.group,
                    needed: cut.seq,
                })
            },
            || panic!("scratch must not run while snapshots exist"),
        );
        assert_eq!(
            result.map(|_| ()),
            Err(RecoveryError::CutTrimmed { cut: cut_at(9) })
        );
        recovery.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The hook persists installed checkpoints to the replica's durable
    /// store and prunes old files.
    #[test]
    fn checkpoint_hook_persists_durably() {
        let dir = std::env::temp_dir().join(format!("psmr-hook-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = Arc::new(DurableStore::open(&dir).unwrap());
        let store = Arc::new(CheckpointStore::new());
        let service: Arc<dyn RecoverableService> = Arc::new(Null);
        let hook = CheckpointHook::new(&service, store, Some(Arc::clone(&durable)), None, 0);
        for seq in 1..=4 {
            hook.execute(&delivered(seq * 10));
        }
        let latest = durable.load_latest().expect("persisted");
        assert_eq!(latest.id, 4);
        assert_eq!(latest.snapshot, vec![7]);
        // retain_newest keeps the directory bounded.
        assert_eq!(durable.retain_newest(DISK_RETAIN).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
