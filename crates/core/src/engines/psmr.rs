//! The P-SMR engine (paper §IV, Algorithm 1) plus coordinated
//! checkpointing and replica recovery.
//!
//! Each of the `n` replicas runs `k = MPL` worker threads. Worker `t_i`
//! consumes the deterministic merge of multicast groups `g_i` and `g_all`:
//!
//! * a command delivered on `g_i` was multicast to a single group —
//!   **parallel mode**: execute and respond immediately (lines 10–13);
//! * a command delivered on `g_all` was multicast to several groups —
//!   **synchronous mode**: the involved workers synchronize with signals
//!   and the deterministically elected executor `e = min{j : g_j ∈ γ}` runs
//!   the command alone (lines 14–26).
//!
//! No component sequences all commands: delivery, scheduling and execution
//! are all per-worker, which is what lets throughput scale with cores
//! (Figure 5 of the paper).
//!
//! # Checkpointing and recovery
//!
//! Deployments spawned with [`PsmrEngine::spawn_recoverable`] support the
//! crash/recovery scenario family. A [`psmr_recovery::CHECKPOINT`]
//! control command is classified `Global`, so it travels on `g_all` and
//! synchronizes all `k` workers exactly like any dependent command — the
//! synchronous-mode barrier *is* the quiescence point. The elected
//! executor snapshots the service while its peers wait, installs the
//! checkpoint into its replica's own [`psmr_recovery::CheckpointStore`]
//! tagged with the command's stream position, persists it durably when
//! `SystemConfig::snapshot_dir` is set, and trims the ordered logs the
//! checkpoint makes reclaimable. Each replica serves its store to
//! restarting peers through a `psmr_recovery::transfer` server.
//! [`PsmrEngine::crash_replica`] crash-stops one replica's workers
//! mid-run; [`PsmrEngine::restart_replica`] recovers it disk-first with
//! peer fallback — own durable snapshot when the retained logs still
//! cover it, chunked digest-verified state transfer from a live peer
//! otherwise — replays the retained log suffix, and the replica
//! converges with the rest.

use super::holdback::ResponseGate;
use super::recover::{
    auto_checkpointer, CheckpointHook, EngineRecovery, RecoveryReport, ReplicaSlot, CRASH_POLL,
};
use super::sync::{SignalBoard, SignalEndpoint, SignalKind};
use super::{CgSink, Engine};
use crate::client::ClientProxy;
use crate::conflict::CommandMap;
use crate::service::{RecoverableService, ResponseRouter, Service, SharedRouter};
use psmr_common::envelope::{Request, Response};
use psmr_common::ids::{ClientId, GroupId, ReplicaId, WorkerId};
use psmr_common::metrics::{counters, global, ScopedCounter};
use psmr_common::runtime::Runtime;
use psmr_common::trace::{self, Stage};
use psmr_common::SystemConfig;
use psmr_multicast::{MergedStream, MulticastSystem};
use psmr_recovery::{CheckpointStore, RecoveryError, CHECKPOINT};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A running P-SMR deployment.
///
/// See the [crate-level quickstart](crate) for an end-to-end example.
pub struct PsmrEngine {
    system: MulticastSystem,
    router: SharedRouter,
    /// Response path of every worker: passthrough normally, durability-
    /// gated when `cfg.wal_pipeline` is on.
    gate: Arc<ResponseGate>,
    sink: Arc<CgSink>,
    boards: Vec<SignalBoard>,
    replicas: Vec<ReplicaSlot>,
    recovery: Option<EngineRecovery>,
    next_client: AtomicU64,
}

impl PsmrEngine {
    /// Spawns `cfg.n_replicas` replicas with `cfg.mpl` worker threads each,
    /// every replica initialized with `factory()`.
    ///
    /// `factory` must produce identical initial states — replica
    /// determinism starts from equal initial states (§III).
    pub fn spawn<S: Service>(cfg: &SystemConfig, map: CommandMap, factory: impl Fn() -> S) -> Self {
        Self::spawn_with_runtime(cfg, map, factory, Runtime::real())
    }

    /// Like [`PsmrEngine::spawn`] with an injected [`Runtime`]: every
    /// wall-clock read, pacing sleep and schedule point of the whole
    /// stack (Paxos groups, merge streams, WAL syncer, response gate)
    /// flows through `rt`'s clock and scheduler. Production code uses
    /// [`Runtime::real`]; the deterministic-simulation harness injects
    /// seeded schedulers and virtual clocks here.
    pub fn spawn_with_runtime<S: Service>(
        cfg: &SystemConfig,
        map: CommandMap,
        factory: impl Fn() -> S,
        rt: Runtime,
    ) -> Self {
        let mut engine = Self::scaffold(cfg, map, rt);
        for replica in 0..cfg.n_replicas {
            let service = Arc::new(factory());
            let slot = engine.spawn_replica(cfg, replica, service, None, None);
            engine.replicas.push(slot);
        }
        engine.system.start();
        engine
    }

    /// Spawns a deployment whose replicas can be checkpointed, crashed
    /// and restarted: the service additionally implements
    /// [`psmr_recovery::Snapshot`]. With `cfg.checkpoint_interval` set, a
    /// background driver multicasts [`CHECKPOINT`] commands periodically;
    /// otherwise submit them through any client (the response carries the
    /// checkpoint id). With `cfg.snapshot_dir` set, every replica also
    /// persists its checkpoints to disk and recovers from them.
    pub fn spawn_recoverable<S: RecoverableService>(
        cfg: &SystemConfig,
        map: CommandMap,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        Self::spawn_recoverable_with_runtime(cfg, map, factory, Runtime::real())
    }

    /// [`PsmrEngine::spawn_recoverable`] with an injected [`Runtime`]
    /// (see [`PsmrEngine::spawn_with_runtime`]). The transfer fabric's
    /// timeouts and the periodic checkpointer also run on `rt`'s clock.
    pub fn spawn_recoverable_with_runtime<S: RecoverableService>(
        cfg: &SystemConfig,
        map: CommandMap,
        factory: impl Fn() -> S + Send + Sync + 'static,
        rt: Runtime,
    ) -> Self {
        let mut engine = Self::scaffold(cfg, map, rt);
        let dyn_factory: Arc<dyn Fn() -> Arc<dyn RecoverableService> + Send + Sync> =
            Arc::new(move || Arc::new(factory()) as Arc<dyn RecoverableService>);
        let mut recovery = EngineRecovery::build(cfg, Arc::clone(&dyn_factory));
        recovery.set_clock(Arc::clone(&engine.system.runtime().clock));
        for replica in 0..cfg.n_replicas {
            let service = (dyn_factory)();
            let hook = recovery.hook_for(replica, &service, Some(engine.sink.handle.clone()), 0);
            let slot =
                engine.spawn_replica(cfg, replica, service.clone(), Some(service), Some(hook));
            engine.replicas.push(slot);
        }
        engine.system.start();
        recovery.checkpointer = cfg.checkpoint_interval.map(|interval| {
            auto_checkpointer(
                Arc::clone(&engine.sink) as _,
                interval,
                Arc::clone(&engine.system.runtime().clock),
            )
        });
        engine.recovery = Some(recovery);
        engine
    }

    /// **Cold-starts a whole deployment from disk** — every replica
    /// restarts at once with **no live peer to fetch from**, the
    /// scenario a whole-cluster crash leaves behind. Requires a
    /// deployment previously spawned with `cfg.wal_dir` (the durable
    /// ordered logs) and, for state older than the logs' retention,
    /// `cfg.snapshot_dir`. Recovery replays everything the logs hold:
    /// complete after a process-level crash; after a power failure, up
    /// to the open group-commit window (`wal_batch - 1` unsynced
    /// appends per group) can be missing from the tail.
    ///
    /// The multicast substrate replays each group's write-ahead log into
    /// its retained stream (the sequence numbering *continues* — cuts
    /// taken before the crash stay comparable); each replica then
    /// restores its newest valid durable snapshot, re-subscribes its
    /// `k` worker streams at the snapshot's cut, and replays the WAL
    /// suffix through the ordinary worker loop until it has re-executed
    /// everything the dead deployment ever ordered. A replica with no
    /// snapshot at all replays the entire log from scratch
    /// ([`RecoverySource::WalOnly`](super::RecoverySource::WalOnly)).
    ///
    /// Returns the running engine plus one [`RecoveryReport`] per
    /// replica.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::CutTrimmed`] when a replica's snapshots exist
    /// but the logs no longer cover any of their cuts;
    /// [`RecoveryError::LogTrimmed`] when a replica has no snapshot and
    /// the logs do not reach back to the stream's beginning; plus
    /// whatever snapshot decoding surfaces. On error everything spawned
    /// so far is shut down before returning.
    pub fn cold_start<S: RecoverableService>(
        cfg: &SystemConfig,
        map: CommandMap,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Result<(Self, Vec<RecoveryReport>), RecoveryError> {
        Self::cold_start_with_runtime(cfg, map, factory, Runtime::real())
    }

    /// [`PsmrEngine::cold_start`] with an injected [`Runtime`] (see
    /// [`PsmrEngine::spawn_with_runtime`]).
    pub fn cold_start_with_runtime<S: RecoverableService>(
        cfg: &SystemConfig,
        map: CommandMap,
        factory: impl Fn() -> S + Send + Sync + 'static,
        rt: Runtime,
    ) -> Result<(Self, Vec<RecoveryReport>), RecoveryError> {
        let mut engine = Self::scaffold(cfg, map, rt);
        // Replayed commands re-respond to the client ids of the dead
        // incarnation; fresh clients must not collide with them or a
        // replayed response answers a new request. Stream positions are
        // monotonic across incarnations, so the furthest one stamps a
        // disjoint client-id range per cold start. The *maximum* over
        // all groups matters: a crash can land after a per-worker group
        // appended its round but before g_all appended its own, and a
        // g_all-only stamp would then repeat.
        let stamp = (0..cfg.group_count())
            .map(|g| engine.system.next_seq(GroupId::new(g)))
            .max()
            .unwrap_or(1);
        engine.next_client = AtomicU64::new(stamp << 32);
        let dyn_factory: Arc<dyn Fn() -> Arc<dyn RecoverableService> + Send + Sync> =
            Arc::new(move || Arc::new(factory()) as Arc<dyn RecoverableService>);
        let mut recovery = EngineRecovery::build(cfg, Arc::clone(&dyn_factory));
        recovery.set_clock(Arc::clone(&engine.system.runtime().clock));
        let mut reports = Vec::new();
        let mut failure = None;
        for replica in 0..cfg.n_replicas {
            let recovered = {
                let system = &engine.system;
                recovery.cold_start(
                    replica,
                    cfg.all_group(),
                    |cut| {
                        (0..cfg.mpl)
                            .map(|i| system.worker_stream_at(WorkerId::new(i), cut))
                            .collect::<Result<Vec<_>, _>>()
                    },
                    || {
                        (0..cfg.mpl)
                            .map(|i| system.worker_stream_from_start(WorkerId::new(i)))
                            .collect::<Result<Vec<_>, _>>()
                    },
                )
            };
            let (service, streams, report) = match recovered {
                Ok(recovered) => recovered,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            let hook = recovery.hook_for(
                replica,
                &service,
                Some(engine.sink.handle.clone()),
                report.checkpoint_id,
            );
            let slot = engine.spawn_replica_at(
                cfg.mpl,
                cfg.all_group(),
                replica,
                streams,
                service.clone(),
                Some(service),
                Some(hook),
            );
            engine.replicas.push(slot);
            reports.push(report);
        }
        if let Some(e) = failure {
            engine.recovery = Some(recovery);
            engine.shutdown();
            return Err(e);
        }
        engine.system.start();
        recovery.checkpointer = cfg.checkpoint_interval.map(|interval| {
            auto_checkpointer(
                Arc::clone(&engine.sink) as _,
                interval,
                Arc::clone(&engine.system.runtime().clock),
            )
        });
        engine.recovery = Some(recovery);
        global().counter(counters::COLD_STARTS).inc();
        Ok((engine, reports))
    }

    /// Builds the multicast substrate and client-side plumbing; replicas
    /// attach afterwards.
    fn scaffold(cfg: &SystemConfig, map: CommandMap, rt: Runtime) -> Self {
        let system = MulticastSystem::spawn_with_runtime(cfg, rt);
        let router: SharedRouter = Arc::new(ResponseRouter::new());
        let gate = ResponseGate::for_view(
            Arc::clone(&router),
            system.durability(),
            Arc::clone(&system.runtime().clock),
        );
        let sink = Arc::new(CgSink {
            handle: system.handle(),
            map,
            mpl: cfg.mpl,
        });
        Self {
            system,
            router,
            gate,
            sink,
            boards: Vec::new(),
            replicas: Vec::new(),
            recovery: None,
            next_client: AtomicU64::new(0),
        }
    }

    /// Spawns the `k` worker threads of one replica over fresh
    /// subscriptions (initial spawn). Restart uses
    /// [`PsmrEngine::spawn_replica_at`] with resumed streams instead.
    fn spawn_replica<S: Service + Clone>(
        &mut self,
        cfg: &SystemConfig,
        replica: usize,
        service: S,
        dyn_service: Option<Arc<dyn RecoverableService>>,
        hook: Option<CheckpointHook>,
    ) -> ReplicaSlot {
        let streams = (0..cfg.mpl)
            .map(|i| self.system.worker_stream(WorkerId::new(i)))
            .collect();
        self.spawn_replica_at(
            cfg.mpl,
            cfg.all_group(),
            replica,
            streams,
            service,
            dyn_service,
            hook,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_replica_at<S: Service + Clone>(
        &mut self,
        mpl: usize,
        all_group: GroupId,
        replica: usize,
        streams: Vec<MergedStream>,
        service: S,
        dyn_service: Option<Arc<dyn RecoverableService>>,
        hook: Option<CheckpointHook>,
    ) -> ReplicaSlot {
        let (board, endpoints) = SignalBoard::new(mpl);
        let kill = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::with_capacity(mpl);
        for ((i, endpoint), stream) in endpoints.into_iter().enumerate().zip(streams) {
            let ctx = WorkerCtx {
                me: WorkerId::new(i),
                service: service.clone(),
                board: board.clone(),
                endpoint,
                map: self.sink.map.clone(),
                gate: Arc::clone(&self.gate),
                mpl,
                all_group,
                kill: Arc::clone(&kill),
                hook: hook.clone(),
                executed: global()
                    .scoped("replica", replica as u64)
                    .and("worker", i as u64)
                    .counter(counters::COMMANDS_EXECUTED),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("psmr-r{replica}-t{i}"))
                    .spawn(move || worker_main(ctx, stream))
                    .expect("spawn P-SMR worker"),
            );
        }
        self.boards.push(board);
        ReplicaSlot {
            threads,
            kill,
            service: dyn_service,
            crashed: false,
        }
    }

    /// Crash-stops one replica mid-run: its worker threads exit, its
    /// service state is discarded, and the rest of the deployment keeps
    /// serving. Idempotent for an already-crashed replica.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::UnknownReplica`] for an out-of-range id.
    pub fn crash_replica(&mut self, replica: ReplicaId) -> Result<(), RecoveryError> {
        let idx = replica.as_raw();
        let board = self
            .boards
            .get(idx)
            .cloned()
            .ok_or(RecoveryError::UnknownReplica { replica: idx })?;
        let slot = self
            .replicas
            .get_mut(idx)
            .ok_or(RecoveryError::UnknownReplica { replica: idx })?;
        slot.crash(|| board.shutdown());
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.on_crash(idx);
        }
        Ok(())
    }

    /// Crash-stops **every replica at once** — the whole-deployment
    /// power failure. The state-transfer fabric goes dark with them
    /// (`LiveNet::crash_all`), so nothing is left to answer a fetch:
    /// the only way back is [`PsmrEngine::cold_start`] over the same
    /// `wal_dir`/`snapshot_dir` after shutting this instance down.
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
    /// peer otherwise), re-subscribe the `k` worker streams at the
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
        if self.recovery.is_none() {
            return Err(RecoveryError::NotRecoverable);
        }
        let live_peers: Vec<usize> = (0..self.replicas.len())
            .filter(|&p| p != idx && !self.replicas[p].crashed)
            .collect();
        let mpl = self.system.config().mpl;
        let all_group = self.system.config().all_group();
        let system = &self.system;
        let recovery = self.recovery.as_mut().expect("checked above");
        let (service, streams, report) = recovery.recover(idx, &live_peers, |cut| {
            (0..mpl)
                .map(|i| system.worker_stream_at(WorkerId::new(i), cut))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let hook = recovery.hook_for(
            idx,
            &service,
            Some(self.sink.handle.clone()),
            report.checkpoint_id,
        );
        let slot = self.spawn_replica_at(
            mpl,
            all_group,
            idx,
            streams,
            service.clone(),
            Some(service),
            Some(hook),
        );
        // The replacement board was pushed at the end; move it into the
        // replica's slot so a later crash shuts down the right workers.
        let board = self.boards.pop().expect("spawn_replica_at pushed a board");
        self.boards[idx] = board;
        self.replicas[idx] = slot;
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
    /// [`psmr_netsim::live::LiveNet`] — engine-level fault injection.
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
    /// discarded. Recover with [`PsmrEngine::cold_start`] over the same
    /// directories.
    pub fn shutdown_power_fail(mut self) -> u64 {
        if let Some(recovery) = self.recovery.take() {
            recovery.stop();
        }
        let dropped = self.system.shutdown_power_fail();
        for (slot, board) in self.replicas.iter_mut().zip(&self.boards) {
            slot.stop(|| board.shutdown());
        }
        self.gate.stop();
        dropped
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
}

impl Engine for PsmrEngine {
    fn client(&self) -> ClientProxy {
        let id = ClientId::new(self.next_client.fetch_add(1, Ordering::Relaxed));
        ClientProxy::new(id, Arc::clone(&self.sink) as _, Arc::clone(&self.router))
    }

    fn label(&self) -> &'static str {
        "P-SMR"
    }

    fn shutdown(mut self) {
        if let Some(recovery) = self.recovery.take() {
            recovery.stop();
        }
        self.system.shutdown();
        for (slot, board) in self.replicas.iter_mut().zip(&self.boards) {
            slot.stop(|| board.shutdown());
        }
        self.gate.stop();
    }
}

struct WorkerCtx<S> {
    me: WorkerId,
    service: S,
    board: SignalBoard,
    endpoint: SignalEndpoint,
    map: CommandMap,
    gate: Arc<ResponseGate>,
    mpl: usize,
    all_group: GroupId,
    kill: Arc<AtomicBool>,
    hook: Option<CheckpointHook>,
    /// Per-replica/per-worker executed-command counter, resolved once at
    /// spawn so the hot path never formats a label.
    executed: ScopedCounter,
}

/// The body of worker thread `t_i` — Algorithm 1, lines 7–26, plus the
/// checkpoint path of the recovery subsystem.
fn worker_main<S: Service>(mut ctx: WorkerCtx<S>, mut stream: MergedStream) {
    let my_group = GroupId::from(ctx.me);
    loop {
        if ctx.kill.load(Ordering::Relaxed) {
            return;
        }
        let delivered = match stream.next_timeout(CRASH_POLL) {
            Ok(Some(delivered)) => delivered,
            Ok(None) => continue, // idle poll: re-check the crash flag
            Err(_) => return,     // system shut down
        };
        trace::global().stamp(
            delivered.group.as_raw(),
            delivered.batch_seq,
            Stage::Delivered,
        );
        let Ok(req) = Request::decode(&delivered.payload) else {
            debug_assert!(false, "malformed request on stream {}", delivered.group);
            continue;
        };
        if delivered.group != ctx.all_group {
            // Parallel mode (lines 10–13): multicast to a single group.
            // The response releases once the batch is durable (gated
            // deployments) — execution itself never waits.
            trace::global().stamp(
                delivered.group.as_raw(),
                delivered.batch_seq,
                Stage::ExecStart,
            );
            let resp = ctx.service.execute(req.command, &req.payload);
            ctx.executed.inc();
            trace::global().stamp(
                delivered.group.as_raw(),
                delivered.batch_seq,
                Stage::Executed,
            );
            ctx.gate.respond_at(
                delivered.group,
                delivered.batch_seq,
                req.client,
                Response::new(req.request, resp),
            );
            continue;
        }
        // Synchronous mode (lines 14–26): re-derive γ like the server proxy
        // (line 9) and synchronize the involved workers.
        let dests = ctx
            .map
            .destinations_at(req.command, &req.payload, ctx.mpl, delivered.group);
        if !dests.contains(my_group) {
            // Multicast to a strict subset not containing t_i: skip. (With
            // the paper's C-G functions γ is all groups here, so every
            // worker participates.)
            continue;
        }
        let executor = dests.executor().worker();
        if ctx.me == executor {
            let others: Vec<WorkerId> = dests
                .groups()
                .iter()
                .filter(|g| **g != my_group)
                .map(|g| g.worker())
                .collect();
            if !ctx.endpoint.wait_ready_from_all(&others) {
                return; // shutdown or crash
            }
            // CHECKPOINT acts on the replica instead of the service: it
            // snapshots the quiesced state at this exact cut. Everything
            // else executes normally.
            trace::global().stamp(
                delivered.group.as_raw(),
                delivered.batch_seq,
                Stage::ExecStart,
            );
            let resp = if req.command == CHECKPOINT {
                match &ctx.hook {
                    Some(hook) => hook.execute(&delivered),
                    // Non-recoverable deployment: acknowledge with an
                    // empty id so clients are not wedged.
                    None => Vec::new(),
                }
            } else {
                let resp = ctx.service.execute(req.command, &req.payload);
                ctx.executed.inc();
                resp
            };
            trace::global().stamp(
                delivered.group.as_raw(),
                delivered.batch_seq,
                Stage::Executed,
            );
            ctx.gate.respond_at(
                delivered.group,
                delivered.batch_seq,
                req.client,
                Response::new(req.request, resp),
            );
            for other in others {
                ctx.board.signal(ctx.me, other, SignalKind::Resume);
            }
        } else {
            ctx.board.signal(ctx.me, executor, SignalKind::Ready);
            if !ctx.endpoint.wait_for(executor, SignalKind::Resume) {
                return; // shutdown or crash
            }
        }
    }
}
