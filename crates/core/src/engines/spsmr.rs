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
//! that point of the total order. Crash/restart is the lifecycle every
//! replicated engine shares ([`ReplicatedEngine`]).

use super::recover::{RecoveryReport, CRASH_POLL};
use super::replicated::{Executor, ReplicaCtx, ReplicatedEngine};
use super::scheduler::{ExecStage, EXEC_RING};
use crate::conflict::CommandMap;
use crate::service::{RecoverableService, Service};
use psmr_common::envelope::{Request, Response};
use psmr_common::runtime::Runtime;
use psmr_common::SystemConfig;
use psmr_multicast::MergedStream;
use psmr_recovery::{RecoveryError, CHECKPOINT};
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;

/// Technique marker of [`SpSmrEngine`].
#[derive(Debug)]
pub enum SpSmr {}

/// A running sP-SMR deployment with `cfg.mpl` worker threads per replica
/// (the scheduler thread is extra, matching the paper's thread accounting).
pub type SpSmrEngine = ReplicatedEngine<SpSmr>;

impl SpSmrEngine {
    /// Spawns the deployment; each replica's state comes from `factory()`.
    pub fn spawn<S: Service>(cfg: &SystemConfig, map: CommandMap, factory: impl Fn() -> S) -> Self {
        Self::launch(cfg, executor(cfg, map), Runtime::real(), factory)
    }

    /// Like [`SpSmrEngine::spawn`] with checkpoint/crash/restart support
    /// (the contract of [`PsmrEngine::spawn_recoverable`](super::PsmrEngine::spawn_recoverable)).
    pub fn spawn_recoverable<S: RecoverableService>(
        cfg: &SystemConfig,
        map: CommandMap,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        Self::launch_recoverable(cfg, executor(cfg, map), Runtime::real(), factory)
    }

    /// Cold-starts a whole sP-SMR deployment from disk with no live peer
    /// (the contract of [`PsmrEngine::cold_start`](super::PsmrEngine::cold_start)
    /// over the single totally ordered stream).
    ///
    /// # Errors
    ///
    /// Same as [`PsmrEngine::cold_start`](super::PsmrEngine::cold_start).
    pub fn cold_start<S: RecoverableService>(
        cfg: &SystemConfig,
        map: CommandMap,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Result<(Self, Vec<RecoveryReport>), RecoveryError> {
        Self::launch_cold(cfg, executor(cfg, map), Runtime::real(), factory)
    }
}

fn executor(cfg: &SystemConfig, map: CommandMap) -> Executor {
    Executor::SpSmr {
        map,
        workers: cfg.mpl,
    }
}

/// Spawns one replica's scheduler thread; it owns the replica's worker
/// stage and joins it on exit.
pub(crate) fn spawn_scheduler<S: Service + Clone>(
    replica: usize,
    stream: MergedStream,
    map: &CommandMap,
    workers: usize,
    ctx: ReplicaCtx<S>,
) -> JoinHandle<()> {
    let stage = ExecStage::spawn(
        workers,
        ctx.service.clone(),
        map.clone(),
        std::sync::Arc::clone(&ctx.gate),
        EXEC_RING,
        &format!("spsmr-r{replica}"),
    );
    std::thread::Builder::new()
        .name(format!("spsmr-r{replica}-sched"))
        .spawn(move || scheduler_main(ctx, stream, stage))
        .expect("spawn sP-SMR scheduler")
}

fn scheduler_main<S>(ctx: ReplicaCtx<S>, mut stream: MergedStream, mut stage: ExecStage) {
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
            let resp = ctx.checkpoint(&delivered);
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
