//! Classical state-machine replication (paper §III).
//!
//! One totally ordered stream; each replica executes every command
//! sequentially in delivery order with a single thread. No C-Dep is needed:
//! sequential execution trivially serializes everything.
//!
//! Checkpointing degenerates pleasantly here: the single executor *is*
//! the consistent cut, so a delivered [`psmr_recovery::CHECKPOINT`]
//! simply snapshots between two commands. Crash/restart mirrors the
//! P-SMR engine: [`SmrEngine::crash_replica`] stops a replica's executor
//! and [`SmrEngine::restart_replica`] replays `(snapshot, log suffix)`.

use super::holdback::ResponseGate;
use super::recover::{
    auto_checkpointer, CheckpointHook, EngineRecovery, RecoveryReport, ReplicaSlot, CRASH_POLL,
};
use super::{Engine, TotalOrderSink};
use crate::client::ClientProxy;
use crate::service::{RecoverableService, ResponseRouter, Service, SharedRouter};
use psmr_common::envelope::{Request, Response};
use psmr_common::ids::{ClientId, GroupId, ReplicaId};
use psmr_common::metrics::{counters, global};
use psmr_common::SystemConfig;
use psmr_multicast::{MergedStream, MulticastSystem};
use psmr_recovery::{CheckpointStore, RecoveryError, CHECKPOINT};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A running SMR deployment.
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
pub struct SmrEngine {
    system: MulticastSystem,
    router: SharedRouter,
    gate: Arc<ResponseGate>,
    sink: Arc<TotalOrderSink>,
    replicas: Vec<ReplicaSlot>,
    recovery: Option<EngineRecovery>,
    next_client: AtomicU64,
}

impl SmrEngine {
    /// Spawns `cfg.n_replicas` single-threaded replicas (the configured
    /// MPL is ignored: SMR executes sequentially by definition).
    pub fn spawn<S: Service>(cfg: &SystemConfig, factory: impl Fn() -> S) -> Self {
        let mut engine = Self::scaffold(cfg);
        for replica in 0..cfg.n_replicas {
            let service = Arc::new(factory());
            let stream = engine.system.single_stream();
            let slot = engine.spawn_replica(replica, stream, service, None, None);
            engine.replicas.push(slot);
        }
        engine.system.start();
        engine
    }

    /// Like [`SmrEngine::spawn`] with checkpoint/crash/restart support
    /// (see [`super::PsmrEngine::spawn_recoverable`] — same contract).
    pub fn spawn_recoverable<S: RecoverableService>(
        cfg: &SystemConfig,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        let mut engine = Self::scaffold(cfg);
        let dyn_factory: Arc<dyn Fn() -> Arc<dyn RecoverableService> + Send + Sync> =
            Arc::new(move || Arc::new(factory()) as Arc<dyn RecoverableService>);
        let mut recovery = EngineRecovery::build(cfg, Arc::clone(&dyn_factory));
        recovery.set_clock(Arc::clone(&engine.system.runtime().clock));
        for replica in 0..cfg.n_replicas {
            let service = (dyn_factory)();
            let hook = recovery.hook_for(replica, &service, Some(engine.sink.handle.clone()), 0);
            let stream = engine.system.single_stream();
            let slot =
                engine.spawn_replica(replica, stream, service.clone(), Some(service), Some(hook));
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

    /// Cold-starts a whole SMR deployment from disk with no live peer
    /// (see [`super::PsmrEngine::cold_start`] — same contract over the
    /// single totally ordered stream).
    ///
    /// # Errors
    ///
    /// Same as [`super::PsmrEngine::cold_start`].
    pub fn cold_start<S: RecoverableService>(
        cfg: &SystemConfig,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Result<(Self, Vec<RecoveryReport>), RecoveryError> {
        let mut engine = Self::scaffold(cfg);
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
            let slot =
                engine.spawn_replica(replica, stream, service.clone(), Some(service), Some(hook));
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
    /// [`SmrEngine::cold_start`] over the same directories.
    pub fn crash_all_replicas(&mut self) {
        for idx in 0..self.replicas.len() {
            let _ = self.crash_replica(ReplicaId::new(idx));
        }
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.crash_everything();
        }
    }

    fn scaffold(cfg: &SystemConfig) -> Self {
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
            replicas: Vec::new(),
            recovery: None,
            next_client: AtomicU64::new(0),
        }
    }

    fn spawn_replica<S: Service>(
        &self,
        replica: usize,
        stream: MergedStream,
        service: S,
        dyn_service: Option<Arc<dyn RecoverableService>>,
        hook: Option<CheckpointHook>,
    ) -> ReplicaSlot {
        let kill = Arc::new(AtomicBool::new(false));
        let ctx = ExecutorCtx {
            service,
            gate: Arc::clone(&self.gate),
            kill: Arc::clone(&kill),
            hook,
        };
        let thread = std::thread::Builder::new()
            .name(format!("smr-r{replica}"))
            .spawn(move || executor_main(ctx, stream))
            .expect("spawn SMR executor");
        ReplicaSlot {
            threads: vec![thread],
            kill,
            service: dyn_service,
            crashed: false,
        }
    }

    /// Crash-stops one replica's executor mid-run (idempotent).
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
        self.replicas[idx] =
            self.spawn_replica(idx, stream, service.clone(), Some(service), Some(hook));
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

    /// Crash-stops one acceptor of the ordering group through its live
    /// network (engine-level fault injection).
    pub fn crash_acceptor(&self, acceptor: usize) {
        self.system.crash_acceptor(GroupId::new(0), acceptor);
    }

    /// Decided batches currently retained by the ordering group.
    pub fn retained_len(&self) -> usize {
        self.system.retained_len(GroupId::new(0))
    }
}

impl Engine for SmrEngine {
    fn client(&self) -> ClientProxy {
        let id = ClientId::new(self.next_client.fetch_add(1, Ordering::Relaxed));
        ClientProxy::new(id, Arc::clone(&self.sink) as _, Arc::clone(&self.router))
    }

    fn label(&self) -> &'static str {
        "SMR"
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

struct ExecutorCtx<S> {
    service: S,
    gate: Arc<ResponseGate>,
    kill: Arc<AtomicBool>,
    hook: Option<CheckpointHook>,
}

fn executor_main<S: Service>(ctx: ExecutorCtx<S>, mut stream: MergedStream) {
    loop {
        if ctx.kill.load(Ordering::Relaxed) {
            return;
        }
        let delivered = match stream.next_timeout(CRASH_POLL) {
            Ok(Some(delivered)) => delivered,
            Ok(None) => continue,
            Err(_) => return,
        };
        let Ok(req) = Request::decode(&delivered.payload) else {
            debug_assert!(false, "malformed request");
            continue;
        };
        let resp = if req.command == CHECKPOINT {
            match &ctx.hook {
                Some(hook) => hook.execute(&delivered),
                None => Vec::new(),
            }
        } else {
            ctx.service.execute(req.command, &req.payload)
        };
        ctx.gate.respond_at(
            delivered.group,
            delivered.batch_seq,
            req.client,
            Response::new(req.request, resp),
        );
    }
}
