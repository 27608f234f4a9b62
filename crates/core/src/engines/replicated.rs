//! The replicated-engine lifecycle, written once for SMR, sP-SMR and
//! P-SMR.
//!
//! The paper places the three techniques in one design space (§III, §IV,
//! Table I): they share the ordering layer and the replica lifecycle and
//! differ only in how a replica consumes the ordered stream. So here a
//! [`ReplicatedEngine`] owns everything the three have in common — the
//! multicast substrate, client plumbing and response gate, coordinated
//! checkpoints, crash-stop, disk-first restart with peer fallback and the
//! whole-deployment cold start — and a technique supplies only
//!
//! * its multicast layout: `k` per-worker groups plus `g_all` (P-SMR) or
//!   one totally ordered group (SMR, sP-SMR);
//! * its executor, the body each replica runs over the streams the layout
//!   hands it: P-SMR's `k` workers on `k` merged streams, sP-SMR's
//!   scheduler feeding `k` workers, or SMR's single thread (below).
//!
//! A replica's streams come from the layout itself
//! ([`MulticastSystem::replica_streams`] and its `_at`/`_from_start`
//! siblings), so fresh spawn, restart at a checkpoint cut and WAL-only
//! cold start need no per-technique branch.
//!
//! Classical SMR is the degenerate executor: one thread executes every
//! command in delivery order, so every point between two commands is a
//! consistent cut and a delivered [`psmr_recovery::CHECKPOINT`] simply
//! snapshots there.

use super::holdback::ResponseGate;
use super::recover::{
    auto_checkpointer, CheckpointHook, EngineRecovery, RecoveryReport, ReplicaSlot,
};
use super::{psmr, spsmr, CgSink, Engine, TotalOrderSink};
use crate::client::{ClientProxy, RequestSink};
use crate::conflict::CommandMap;
use crate::service::{RecoverableService, ResponseRouter, Service, SharedRouter};
use psmr_common::envelope::{Request, Response};
use psmr_common::ids::{ClientId, GroupId, ReplicaId};
use psmr_common::metrics::{counters, global};
use psmr_common::runtime::Runtime;
use psmr_common::SystemConfig;
use psmr_multicast::{Delivered, MergedStream, MulticastSystem};
use psmr_recovery::{CheckpointStore, RecoveryError, CHECKPOINT};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running replicated deployment. The technique marker `T` selects the
/// constructors ([`PsmrEngine`](super::PsmrEngine),
/// [`SpSmrEngine`](super::SpSmrEngine), [`SmrEngine`]); everything else —
/// clients, checkpoints, crash and restart, cold start, shutdown — is the
/// same for all three.
///
/// See the [crate-level quickstart](crate) for an end-to-end example.
pub struct ReplicatedEngine<T> {
    system: MulticastSystem,
    router: SharedRouter,
    /// Response path of every executor: passthrough normally, durability-
    /// gated when `cfg.wal_pipeline` is on.
    gate: Arc<ResponseGate>,
    sink: Arc<dyn RequestSink>,
    executor: Executor,
    replicas: Vec<ReplicaSlot>,
    recovery: Option<EngineRecovery>,
    next_client: AtomicU64,
    technique: PhantomData<T>,
}

/// Technique marker of [`SmrEngine`].
#[derive(Debug)]
pub enum Smr {}

/// A running classical-SMR deployment (paper §III): one totally ordered
/// stream; each replica executes every command sequentially in delivery
/// order on a single thread. No C-Dep is needed.
///
/// # Example
///
/// ```
/// use psmr_core::engines::{Engine, SmrEngine};
/// use psmr_core::service::Service;
/// use psmr_common::{ids::CommandId, SystemConfig};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// #[derive(Default)]
/// struct Counter(AtomicU64);
/// impl Service for Counter {
///     fn execute(&self, _c: CommandId, _p: &[u8]) -> Vec<u8> {
///         (self.0.fetch_add(1, Ordering::SeqCst) + 1).to_le_bytes().to_vec()
///     }
/// }
///
/// let engine = SmrEngine::spawn(&SystemConfig::new(1), Counter::default);
/// let mut client = engine.client();
/// let resp = client.execute(CommandId::new(0), Vec::new());
/// assert_eq!(u64::from_le_bytes(resp[..].try_into().unwrap()), 1);
/// engine.shutdown();
/// ```
pub type SmrEngine = ReplicatedEngine<Smr>;

/// How a replica consumes its ordered streams — the one thing the three
/// replicated techniques differ in.
pub(crate) enum Executor {
    /// `k` workers, each on the merge of `g_i` and `g_all` (Algorithm 1).
    Psmr(CommandMap),
    /// A scheduler on the one stream feeding `workers` worker threads.
    SpSmr { map: CommandMap, workers: usize },
    /// One thread on the one stream.
    Smr,
}

impl Executor {
    fn label(&self) -> &'static str {
        match self {
            Executor::Psmr(_) => "P-SMR",
            Executor::SpSmr { .. } => "sP-SMR",
            Executor::Smr => "SMR",
        }
    }
}

/// What every executor thread of one replica shares: the service it runs
/// commands against, the response path, the crash flag, and the
/// checkpoint hook of a recoverable deployment.
#[derive(Clone)]
pub(crate) struct ReplicaCtx<S> {
    pub service: S,
    pub gate: Arc<ResponseGate>,
    pub kill: Arc<AtomicBool>,
    pub hook: Option<CheckpointHook>,
}

impl<S> ReplicaCtx<S> {
    /// The response to a delivered [`CHECKPOINT`]: the hook snapshots the
    /// quiesced service at the command's cut; a non-recoverable
    /// deployment acknowledges with an empty id so clients are not
    /// wedged.
    pub fn checkpoint(&self, delivered: &Delivered) -> Vec<u8> {
        match &self.hook {
            Some(hook) => hook.execute(delivered),
            None => Vec::new(),
        }
    }
}

impl<T> ReplicatedEngine<T> {
    /// Spawns `cfg.n_replicas` replicas, each with its own `factory()`
    /// service, over fresh subscriptions.
    pub(crate) fn launch<S: Service>(
        cfg: &SystemConfig,
        executor: Executor,
        rt: Runtime,
        factory: impl Fn() -> S,
    ) -> Self {
        let mut engine = Self::scaffold(cfg, executor, rt);
        for replica in 0..cfg.n_replicas {
            let streams = engine.system.replica_streams();
            let slot = engine.spawn_replica(replica, streams, Arc::new(factory()), None, None);
            engine.replicas.push(slot);
        }
        engine.system.start();
        engine
    }

    /// Like [`ReplicatedEngine::launch`] for a deployment whose replicas
    /// can be checkpointed, crashed and restarted.
    pub(crate) fn launch_recoverable<S: RecoverableService>(
        cfg: &SystemConfig,
        executor: Executor,
        rt: Runtime,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        let mut engine = Self::scaffold(cfg, executor, rt);
        let recovery = engine.recovery_context(cfg, factory);
        for replica in 0..cfg.n_replicas {
            let streams = engine.system.replica_streams();
            let slot = engine.spawn_recovered(&recovery, replica, (recovery.factory)(), streams, 0);
            engine.replicas.push(slot);
        }
        engine.go_live(cfg, recovery);
        engine
    }

    /// Cold-starts every replica from disk with no live peer (see
    /// [`PsmrEngine::cold_start`](super::PsmrEngine::cold_start)).
    pub(crate) fn launch_cold<S: RecoverableService>(
        cfg: &SystemConfig,
        executor: Executor,
        rt: Runtime,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Result<(Self, Vec<RecoveryReport>), RecoveryError> {
        let mut engine = Self::scaffold(cfg, executor, rt);
        // Replayed commands re-respond to the client ids of the dead
        // incarnation; fresh clients must not collide with them or a
        // replayed response answers a new request. Stream positions are
        // monotonic across incarnations, so the furthest one stamps a
        // disjoint client-id range per cold start. The *maximum* over
        // all groups matters: a crash can land after a per-worker group
        // appended its round but before g_all appended its own, and a
        // g_all-only stamp would then repeat.
        let stamp = (0..engine.system.group_count())
            .map(|g| engine.system.next_seq(GroupId::new(g)))
            .max()
            .unwrap_or(1);
        engine.next_client = AtomicU64::new(stamp << 32);
        let mut recovery = engine.recovery_context(cfg, factory);
        let mut reports = Vec::new();
        for replica in 0..cfg.n_replicas {
            let system = &engine.system;
            let recovered = recovery.cold_start(
                replica,
                system.all_group(),
                |cut| system.replica_streams_at(cut),
                || system.replica_streams_from_start(),
            );
            let (service, streams, report) = match recovered {
                Ok(recovered) => recovered,
                Err(e) => {
                    engine.recovery = Some(recovery);
                    engine.shutdown();
                    return Err(e);
                }
            };
            let slot =
                engine.spawn_recovered(&recovery, replica, service, streams, report.checkpoint_id);
            engine.replicas.push(slot);
            reports.push(report);
        }
        engine.go_live(cfg, recovery);
        global().counter(counters::COLD_STARTS).inc();
        Ok((engine, reports))
    }

    /// Builds the multicast layout and the client-side plumbing; replicas
    /// attach afterwards.
    fn scaffold(cfg: &SystemConfig, executor: Executor, rt: Runtime) -> Self {
        let system = match executor {
            Executor::Psmr(_) => MulticastSystem::spawn_with_runtime(cfg, rt),
            _ => MulticastSystem::spawn_single_with_runtime(cfg, rt),
        };
        let router: SharedRouter = Arc::new(ResponseRouter::new());
        let gate = ResponseGate::for_view(
            Arc::clone(&router),
            system.durability(),
            Arc::clone(&system.runtime().clock),
        );
        let handle = system.handle();
        let sink: Arc<dyn RequestSink> = match &executor {
            Executor::Psmr(map) => Arc::new(CgSink {
                handle,
                map: map.clone(),
                mpl: cfg.mpl,
            }),
            _ => Arc::new(TotalOrderSink { handle }),
        };
        Self {
            system,
            router,
            gate,
            sink,
            executor,
            replicas: Vec::new(),
            recovery: None,
            next_client: AtomicU64::new(0),
            technique: PhantomData,
        }
    }

    /// The recovery context of a recoverable deployment: per-replica
    /// stores, transfer fabric and disks, timed on the deployment's clock.
    fn recovery_context<S: RecoverableService>(
        &self,
        cfg: &SystemConfig,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> EngineRecovery {
        let mut recovery = EngineRecovery::build(
            cfg,
            Arc::new(move || Arc::new(factory()) as Arc<dyn RecoverableService>),
        );
        recovery.set_clock(Arc::clone(&self.system.runtime().clock));
        recovery
    }

    /// Starts ordering and, with `cfg.checkpoint_interval` set, the
    /// periodic checkpointer.
    fn go_live(&mut self, cfg: &SystemConfig, mut recovery: EngineRecovery) {
        self.system.start();
        recovery.checkpointer = cfg.checkpoint_interval.map(|interval| {
            auto_checkpointer(
                Arc::clone(&self.sink),
                interval,
                Arc::clone(&self.system.runtime().clock),
            )
        });
        self.recovery = Some(recovery);
    }

    /// Spawns a replica of a recoverable deployment, its checkpoint hook
    /// seeded with `seed` (0 fresh, the recovery checkpoint's id after a
    /// restore).
    fn spawn_recovered(
        &self,
        recovery: &EngineRecovery,
        replica: usize,
        service: Arc<dyn RecoverableService>,
        streams: Vec<MergedStream>,
        seed: u64,
    ) -> ReplicaSlot {
        let hook = recovery.hook_for(replica, &service, self.system.handle(), seed);
        self.spawn_replica(replica, streams, service.clone(), Some(service), Some(hook))
    }

    /// Spawns one replica's executor threads over its streams.
    fn spawn_replica<S: Service + Clone>(
        &self,
        replica: usize,
        streams: Vec<MergedStream>,
        service: S,
        dyn_service: Option<Arc<dyn RecoverableService>>,
        hook: Option<CheckpointHook>,
    ) -> ReplicaSlot {
        let kill = Arc::new(AtomicBool::new(false));
        // One stop channel per stream: workers of a replica wake together,
        // and a shared channel's lock would make them queue on it.
        let (halt, streams) = streams
            .into_iter()
            .map(|s| {
                let (halt, halted) = crossbeam::channel::bounded(1);
                (halt, s.with_stop(halted))
            })
            .unzip();
        let ctx = ReplicaCtx {
            service,
            gate: Arc::clone(&self.gate),
            kill: Arc::clone(&kill),
            hook,
        };
        let (threads, rendezvous) = match &self.executor {
            Executor::Psmr(_) => {
                let all_group = self.system.all_group();
                let (threads, rendezvous) = psmr::spawn_workers(replica, streams, all_group, ctx);
                (threads, Some(rendezvous))
            }
            Executor::SpSmr { map, workers } => {
                let stream = only(streams);
                let scheduler = spsmr::spawn_scheduler(replica, stream, map, *workers, ctx);
                (vec![scheduler], None)
            }
            Executor::Smr => (vec![spawn_executor(replica, only(streams), ctx)], None),
        };
        ReplicaSlot {
            threads,
            kill,
            halt,
            rendezvous,
            service: dyn_service,
            crashed: false,
        }
    }

    /// Crash-stops one replica mid-run: its executor threads exit, its
    /// service state is discarded, and the rest of the deployment keeps
    /// serving. Idempotent for an already-crashed replica.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::UnknownReplica`] for an out-of-range id.
    pub fn crash_replica(&mut self, replica: ReplicaId) -> Result<(), RecoveryError> {
        let idx = replica.as_raw();
        let slot = self
            .replicas
            .get_mut(idx)
            .ok_or(RecoveryError::UnknownReplica { replica: idx })?;
        slot.crash();
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.on_crash(idx);
        }
        Ok(())
    }

    /// Crash-stops **every replica at once** — the whole-deployment
    /// power failure. The state-transfer fabric goes dark with them
    /// (`LiveNet::crash_all`), so nothing is left to answer a fetch:
    /// the only way back is a cold start
    /// ([`PsmrEngine::cold_start`](super::PsmrEngine::cold_start) and its
    /// siblings) over the same `wal_dir`/`snapshot_dir` after shutting
    /// this instance down.
    pub fn crash_all_replicas(&mut self) {
        for idx in 0..self.replicas.len() {
            let _ = self.crash_replica(ReplicaId::new(idx));
        }
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.crash_everything();
        }
    }

    /// Restarts a crashed replica the way a redeployed process would:
    /// recover the newest usable checkpoint **disk-first with peer
    /// fallback** (own durable snapshot while the retained logs still
    /// cover its cut, digest-verified chunked state transfer from a live
    /// peer otherwise), re-subscribe the replica's streams at the
    /// checkpoint's cut, and replay the retained ordered-log suffix until
    /// the replica converges with the live ones. Returns a
    /// [`RecoveryReport`] naming the path taken.
    ///
    /// # Errors
    ///
    /// Requires a recoverable deployment, a previously crashed replica, a
    /// recovery point (disk snapshot or live peer with a checkpoint), and
    /// retained logs covering its cut ([`RecoveryError::CutTrimmed`] when
    /// concurrent checkpoints trim every candidate cut mid-restart).
    pub fn restart_replica(&mut self, replica: ReplicaId) -> Result<RecoveryReport, RecoveryError> {
        let idx = replica.as_raw();
        if idx >= self.replicas.len() {
            return Err(RecoveryError::UnknownReplica { replica: idx });
        }
        if !self.replicas[idx].crashed {
            return Err(RecoveryError::NotCrashed);
        }
        let Some(recovery) = self.recovery.as_mut() else {
            return Err(RecoveryError::NotRecoverable);
        };
        let live_peers: Vec<usize> = (0..self.replicas.len())
            .filter(|&p| p != idx && !self.replicas[p].crashed)
            .collect();
        let system = &self.system;
        let (service, streams, report) =
            recovery.recover(idx, &live_peers, |cut| system.replica_streams_at(cut))?;
        let recovery = self.recovery.as_ref().expect("checked above");
        self.replicas[idx] =
            self.spawn_recovered(recovery, idx, service, streams, report.checkpoint_id);
        global().counter(counters::REPLICA_RESTARTS).inc();
        Ok(report)
    }

    /// The checkpoint store of one live replica (recoverable deployments
    /// only): every replica installs the same checkpoints, so any live
    /// store answers "what is the deployment's newest recovery point".
    pub fn checkpoint_store(&self) -> Option<Arc<CheckpointStore>> {
        let recovery = self.recovery.as_ref()?;
        self.replicas
            .iter()
            .position(|slot| !slot.crashed)
            .map(|idx| Arc::clone(&recovery.replicas[idx].store))
    }

    /// The live service instance of one replica (recoverable deployments;
    /// `None` for crashed replicas). Lets tests compare replica states
    /// through deterministic snapshots.
    pub fn replica_service(&self, replica: ReplicaId) -> Option<Arc<dyn RecoverableService>> {
        self.replicas.get(replica.as_raw())?.service.clone()
    }

    /// Whether the replica is currently crashed.
    pub fn is_crashed(&self, replica: ReplicaId) -> bool {
        self.replicas
            .get(replica.as_raw())
            .is_some_and(|slot| slot.crashed)
    }

    /// Crash-stops one acceptor of one Paxos group through the group's
    /// [`psmr_netsim::live::LiveNet`] — engine-level fault injection. The
    /// single-stream layouts order everything on `GroupId::new(0)`.
    pub fn crash_acceptor(&self, group: GroupId, acceptor: usize) {
        self.system.crash_acceptor(group, acceptor);
    }

    /// Fault injection for pipelined deployments: freezes (or thaws)
    /// every group's WAL sync thread. While held, fsyncs never land, the
    /// durability watermarks stop, and the response gate holds every new
    /// acknowledgment — the window a crash-between-fan-out-and-fsync
    /// test needs to keep open. No-op without `cfg.wal_pipeline`.
    pub fn hold_wal_sync(&self, hold: bool) {
        self.system.hold_wal_sync(hold);
    }

    /// Shuts the deployment down **through a power failure**: every
    /// group stops and each WAL's un-fsynced suffix is discarded
    /// (`psmr_wal::Wal::discard_unsynced`), modeling power loss with
    /// the group-commit windows open. Returns the total records
    /// discarded. Recover with a cold start over the same directories.
    pub fn shutdown_power_fail(self) -> u64 {
        self.teardown(MulticastSystem::shutdown_power_fail)
    }

    /// Severs the state-transfer link `from → to` after `budget` more
    /// messages — engine-level fault injection modeling a serving peer
    /// that dies mid-transfer (the fetcher times out and falls back to
    /// its next peer). No-op on non-recoverable deployments.
    pub fn sever_transfer_link(&self, from: ReplicaId, to: ReplicaId, budget: u64) {
        if let Some(recovery) = &self.recovery {
            recovery.sever_transfer_link(from.as_raw(), to.as_raw(), budget);
        }
    }

    /// Decided batches currently retained by `group` for catch-up.
    pub fn retained_len(&self, group: GroupId) -> usize {
        self.system.retained_len(group)
    }

    /// Stops recovery, ordering (through `stop_system`), every replica
    /// and the response gate, in that order.
    fn teardown<R>(mut self, stop_system: impl FnOnce(MulticastSystem) -> R) -> R {
        if let Some(recovery) = self.recovery.take() {
            recovery.stop();
        }
        let stopped = stop_system(self.system);
        for slot in &mut self.replicas {
            slot.stop();
        }
        self.gate.stop();
        stopped
    }
}

impl<T> Engine for ReplicatedEngine<T> {
    fn client(&self) -> ClientProxy {
        let id = ClientId::new(self.next_client.fetch_add(1, Ordering::Relaxed));
        ClientProxy::new(id, Arc::clone(&self.sink), Arc::clone(&self.router))
    }

    fn label(&self) -> &'static str {
        self.executor.label()
    }

    fn shutdown(self) {
        self.teardown(MulticastSystem::shutdown);
    }
}

impl SmrEngine {
    /// Spawns `cfg.n_replicas` single-threaded replicas (the configured
    /// MPL is ignored: SMR executes sequentially by definition).
    pub fn spawn<S: Service>(cfg: &SystemConfig, factory: impl Fn() -> S) -> Self {
        Self::launch(cfg, Executor::Smr, Runtime::real(), factory)
    }

    /// Like [`SmrEngine::spawn`] with checkpoint/crash/restart support
    /// (the contract of [`PsmrEngine::spawn_recoverable`](super::PsmrEngine::spawn_recoverable)).
    pub fn spawn_recoverable<S: RecoverableService>(
        cfg: &SystemConfig,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        Self::launch_recoverable(cfg, Executor::Smr, Runtime::real(), factory)
    }

    /// Cold-starts a whole SMR deployment from disk with no live peer
    /// (the contract of [`PsmrEngine::cold_start`](super::PsmrEngine::cold_start)
    /// over the single totally ordered stream).
    ///
    /// # Errors
    ///
    /// Same as [`PsmrEngine::cold_start`](super::PsmrEngine::cold_start).
    pub fn cold_start<S: RecoverableService>(
        cfg: &SystemConfig,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Result<(Self, Vec<RecoveryReport>), RecoveryError> {
        Self::launch_cold(cfg, Executor::Smr, Runtime::real(), factory)
    }
}

/// The one stream of a single-layout replica.
fn only(streams: Vec<MergedStream>) -> MergedStream {
    debug_assert_eq!(streams.len(), 1, "the single layout has one stream");
    streams.into_iter().next().expect("one stream")
}

/// Spawns SMR's executor: one thread running every command in delivery
/// order.
fn spawn_executor<S: Service>(
    replica: usize,
    mut stream: MergedStream,
    ctx: ReplicaCtx<S>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("smr-r{replica}"))
        .spawn(move || loop {
            if ctx.kill.load(Ordering::Relaxed) {
                return;
            }
            let Some(delivered) = stream.next() else {
                return; // shutdown or crash
            };
            let Ok(req) = Request::decode(&delivered.payload) else {
                debug_assert!(false, "malformed request");
                continue;
            };
            let resp = if req.command == CHECKPOINT {
                ctx.checkpoint(&delivered)
            } else {
                ctx.service.execute(req.command, &req.payload)
            };
            ctx.gate.respond_at(
                delivered.group,
                delivered.batch_seq,
                req.client,
                Response::new(req.request, resp),
            );
        })
        .expect("spawn SMR executor")
}
