//! Semi-parallel state-machine replication (sP-SMR), the model of CBASE
//! (reference 4 of the paper) and the paper's main prior-work comparison.
//!
//! Commands are totally ordered and delivered as **one stream** per
//! replica; a single scheduler thread inspects each command's dependencies
//! (C-Dep) and dispatches independent commands to worker threads,
//! serializing dependent ones. Delivery and scheduling are sequential;
//! only execution is parallel — the scheduler is the component that
//! becomes CPU-bound and caps throughput in Figures 3, 5 and 7.
//!
//! Checkpointing rides the scheduler's existing synchronization: a
//! delivered [`psmr_recovery::CHECKPOINT`] drains the worker stage (the
//! same quiescence global commands use) and snapshots the service at
//! that point of the total order. Crash/restart mirrors the other
//! replicated engines.

use super::holdback::ResponseGate;
use super::recover::{
    auto_checkpointer, CheckpointHook, EngineRecovery, RecoveryReport, ReplicaSlot, CRASH_POLL,
};
use super::scheduler::{ExecStage, EXEC_RING};
use super::{Engine, TotalOrderSink};
use crate::client::ClientProxy;
use crate::conflict::CommandMap;
use crate::service::{RecoverableService, ResponseRouter, Service, SharedRouter};
use psmr_common::envelope::{Request, Response};
use psmr_common::ids::{ClientId, GroupId, ReplicaId};
use psmr_common::metrics::{counters, global};
use psmr_common::SystemConfig;
use psmr_multicast::{MergedStream, MulticastSystem};
use psmr_recovery::{CheckpointStore, RecoveryError, CHECKPOINT};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A running sP-SMR deployment with `cfg.mpl` worker threads per replica
/// (the scheduler thread is extra, matching the paper's thread accounting).
pub struct SpSmrEngine {
    system: MulticastSystem,
    router: SharedRouter,
    gate: Arc<ResponseGate>,
    sink: Arc<TotalOrderSink>,
    map: CommandMap,
    mpl: usize,
    replicas: Vec<ReplicaSlot>,
    recovery: Option<EngineRecovery>,
    next_client: AtomicU64,
}

impl SpSmrEngine {
    /// Spawns the deployment; each replica's state comes from `factory()`.
    pub fn spawn<S: Service>(cfg: &SystemConfig, map: CommandMap, factory: impl Fn() -> S) -> Self {
        let mut engine = Self::scaffold(cfg, map);
        for replica in 0..cfg.n_replicas {
            let service: Arc<dyn Service> = Arc::new(factory());
            let stream = engine.system.single_stream();
            let slot = engine.spawn_replica(replica, stream, service, None, None);
            engine.replicas.push(slot);
        }
        engine.system.start();
        engine
    }

    /// Like [`SpSmrEngine::spawn`] with checkpoint/crash/restart support
    /// (see [`super::PsmrEngine::spawn_recoverable`] — same contract).
    pub fn spawn_recoverable<S: RecoverableService>(
        cfg: &SystemConfig,
        map: CommandMap,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        let mut engine = Self::scaffold(cfg, map);
        let dyn_factory: Arc<dyn Fn() -> Arc<dyn RecoverableService> + Send + Sync> =
            Arc::new(move || Arc::new(factory()) as Arc<dyn RecoverableService>);
        let mut recovery = EngineRecovery::build(cfg, Arc::clone(&dyn_factory));
        recovery.set_clock(Arc::clone(&engine.system.runtime().clock));
        for replica in 0..cfg.n_replicas {
            let service = (dyn_factory)();
            let hook = recovery.hook_for(replica, &service, Some(engine.sink.handle.clone()), 0);
            let stream = engine.system.single_stream();
            let slot = engine.spawn_replica(
                replica,
                stream,
                Arc::clone(&service) as Arc<dyn Service>,
                Some(service),
                Some(hook),
            );
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

    /// Cold-starts a whole sP-SMR deployment from disk with no live peer
    /// (see [`super::PsmrEngine::cold_start`] — same contract over the
    /// single totally ordered stream).
    ///
    /// # Errors
    ///
    /// Same as [`super::PsmrEngine::cold_start`].
    pub fn cold_start<S: RecoverableService>(
        cfg: &SystemConfig,
        map: CommandMap,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Result<(Self, Vec<RecoveryReport>), RecoveryError> {
        let mut engine = Self::scaffold(cfg, map);
        // Fresh clients must not collide with the client ids inside
        // replayed commands (see `PsmrEngine::cold_start`).
        engine.next_client = AtomicU64::new(engine.system.next_seq(GroupId::new(0)) << 32);
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
                    GroupId::new(0),
                    |cut| system.single_stream_at(cut),
                    || system.single_stream_from_start(),
                )
            };
            let (service, stream, report) = match recovered {
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
            let slot = engine.spawn_replica(
                replica,
                stream,
                Arc::clone(&service) as Arc<dyn Service>,
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

    /// Crash-stops every replica at once (see
    /// [`super::PsmrEngine::crash_all_replicas`]); recover with
    /// [`SpSmrEngine::cold_start`] over the same directories.
    pub fn crash_all_replicas(&mut self) {
        for idx in 0..self.replicas.len() {
            let _ = self.crash_replica(ReplicaId::new(idx));
        }
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.crash_everything();
        }
    }

    fn scaffold(cfg: &SystemConfig, map: CommandMap) -> Self {
        let system = MulticastSystem::spawn_single(cfg);
        let router: SharedRouter = Arc::new(ResponseRouter::new());
        let gate = ResponseGate::for_view(
            Arc::clone(&router),
            system.durability(),
            Arc::clone(&system.runtime().clock),
        );
        let sink = Arc::new(TotalOrderSink {
            handle: system.handle(),
        });
        Self {
            system,
            router,
            gate,
            sink,
            map,
            mpl: cfg.mpl,
            replicas: Vec::new(),
            recovery: None,
            next_client: AtomicU64::new(0),
        }
    }

    fn spawn_replica(
        &self,
        replica: usize,
        stream: MergedStream,
        service: Arc<dyn Service>,
        dyn_service: Option<Arc<dyn RecoverableService>>,
        hook: Option<CheckpointHook>,
    ) -> ReplicaSlot {
        let kill = Arc::new(AtomicBool::new(false));
        let stage = ExecStage::spawn(
            self.mpl,
            service,
            self.map.clone(),
            Arc::clone(&self.gate),
            EXEC_RING,
            &format!("spsmr-r{replica}"),
        );
        let ctx = SchedulerCtx {
            gate: Arc::clone(&self.gate),
            kill: Arc::clone(&kill),
            hook,
        };
        let thread = std::thread::Builder::new()
            .name(format!("spsmr-r{replica}-sched"))
            .spawn(move || scheduler_main(ctx, stream, stage))
            .expect("spawn sP-SMR scheduler");
        ReplicaSlot {
            threads: vec![thread],
            kill,
            service: dyn_service,
            crashed: false,
        }
    }

    /// Crash-stops one replica (scheduler plus worker stage) mid-run.
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
        slot.crash(|| {});
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.on_crash(idx);
        }
        Ok(())
    }

    /// Restarts a crashed replica disk-first with peer fallback (see
    /// [`super::PsmrEngine::restart_replica`] — same recovery path over
    /// the single totally ordered stream).
    ///
    /// # Errors
    ///
    /// Requires a recoverable deployment, a crashed replica, a recovery
    /// point (disk snapshot or live peer), and retained logs covering
    /// its cut.
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
        let system = &self.system;
        let recovery = self.recovery.as_mut().expect("checked above");
        let (service, stream, report) =
            recovery.recover(idx, &live_peers, |cut| system.single_stream_at(cut))?;
        let hook = recovery.hook_for(
            idx,
            &service,
            Some(self.sink.handle.clone()),
            report.checkpoint_id,
        );
        self.replicas[idx] = self.spawn_replica(
            idx,
            stream,
            Arc::clone(&service) as Arc<dyn Service>,
            Some(service),
            Some(hook),
        );
        global().counter(counters::REPLICA_RESTARTS).inc();
        Ok(report)
    }

    /// The checkpoint store of one live replica (recoverable deployments
    /// only).
    pub fn checkpoint_store(&self) -> Option<Arc<CheckpointStore>> {
        let recovery = self.recovery.as_ref()?;
        self.replicas
            .iter()
            .position(|slot| !slot.crashed)
            .map(|idx| Arc::clone(&recovery.replicas[idx].store))
    }

    /// The live service instance of one replica (recoverable
    /// deployments; `None` for crashed replicas).
    pub fn replica_service(&self, replica: ReplicaId) -> Option<Arc<dyn RecoverableService>> {
        self.replicas.get(replica.as_raw())?.service.clone()
    }

    /// Crash-stops one acceptor of the ordering group (engine-level
    /// fault injection).
    pub fn crash_acceptor(&self, acceptor: usize) {
        self.system.crash_acceptor(GroupId::new(0), acceptor);
    }
}

impl Engine for SpSmrEngine {
    fn client(&self) -> ClientProxy {
        let id = ClientId::new(self.next_client.fetch_add(1, Ordering::Relaxed));
        ClientProxy::new(id, Arc::clone(&self.sink) as _, Arc::clone(&self.router))
    }

    fn label(&self) -> &'static str {
        "sP-SMR"
    }

    fn shutdown(mut self) {
        if let Some(recovery) = self.recovery.take() {
            recovery.stop();
        }
        self.system.shutdown();
        for slot in &mut self.replicas {
            slot.stop(|| {});
        }
        self.gate.stop();
    }
}

struct SchedulerCtx {
    gate: Arc<ResponseGate>,
    kill: Arc<AtomicBool>,
    hook: Option<CheckpointHook>,
}

fn scheduler_main(ctx: SchedulerCtx, mut stream: MergedStream, mut stage: ExecStage) {
    loop {
        if ctx.kill.load(Ordering::Relaxed) {
            break;
        }
        let delivered = match stream.next_timeout(CRASH_POLL) {
            Ok(Some(delivered)) => delivered,
            Ok(None) => continue,
            Err(_) => break,
        };
        let Ok(req) = Request::decode(&delivered.payload) else {
            debug_assert!(false, "malformed request");
            continue;
        };
        if req.command == CHECKPOINT {
            // Quiesce the worker stage — the same synchronization global
            // commands use — then snapshot at this point of the total
            // order. The scheduler answers directly; no worker runs it.
            stage.drain();
            let resp = match &ctx.hook {
                Some(hook) => hook.execute(&delivered),
                None => Vec::new(),
            };
            ctx.gate.respond_at(
                delivered.group,
                delivered.batch_seq,
                req.client,
                Response::new(req.request, resp),
            );
            continue;
        }
        let (group, seq) = (delivered.group, delivered.batch_seq);
        stage.schedule(req, group, seq);
    }
    stage.shutdown();
}
