//! The P-SMR engine (paper §IV, Algorithm 1) plus coordinated
//! checkpointing and replica recovery.
//!
//! Each of the `n` replicas runs `k = MPL` worker threads. Worker `t_i`
//! consumes the deterministic merge of multicast groups `g_i` and `g_all`:
//!
//! * a command delivered on `g_i` was multicast to a single group —
//!   **parallel mode**: execute and respond immediately (lines 10–13);
//! * a command delivered on `g_all` was multicast to several groups —
//!   **synchronous mode** (lines 14–26). Every dependent command travels on
//!   `g_all` with γ = all `k` groups, so the elected executor
//!   `e = min{j : g_j ∈ γ}` is always worker `t_0`. A decided `g_all`
//!   batch is one contiguous run in every worker's merged stream, so the
//!   replica meets **once per run**, not once per command (the batching
//!   of §VI-A, applied at the barrier): the other `k − 1` workers meet
//!   `t_0` at the replica's [`Rendezvous`] and pass over the run without
//!   decoding it, and `t_0`, the only one that decodes it, runs each
//!   command of the run alone, in stream order, while they wait. A
//!   worker released from run `n` goes on to whatever follows it.
//!
//! No component sequences all commands: delivery, scheduling and execution
//! are all per-worker, which is what lets throughput scale with cores
//! (Figure 5 of the paper).
//!
//! # Checkpointing and recovery
//!
//! Deployments spawned with [`PsmrEngine::spawn_recoverable`] support the
//! crash/recovery scenario family, through the lifecycle every replicated
//! engine shares ([`ReplicatedEngine`]). A [`psmr_recovery::CHECKPOINT`]
//! control command is classified `Global`, so it travels on `g_all` and
//! synchronizes all `k` workers exactly like any dependent command — the
//! synchronous-mode rendezvous *is* the quiescence point. The peers stay
//! parked for the whole run, so the executor `t_0` snapshots the service
//! at the command's exact cut even inside a run, installs the
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

use super::recover::RecoveryReport;
use super::replicated::{Executor, ReplicaCtx, ReplicatedEngine};
use super::sync::Rendezvous;
use crate::conflict::CommandMap;
use crate::service::{RecoverableService, Service};
use psmr_common::envelope::{Request, Response};
use psmr_common::ids::{GroupId, WorkerId};
use psmr_common::metrics::{counters, global, ScopedCounter};
use psmr_common::runtime::Runtime;
use psmr_common::trace::{self, Stage};
use psmr_common::SystemConfig;
use psmr_multicast::{Delivered, MergedStream};
use psmr_recovery::{RecoveryError, CHECKPOINT};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Technique marker of [`PsmrEngine`].
#[derive(Debug)]
pub enum Psmr {}

/// A running P-SMR deployment.
///
/// See the [crate-level quickstart](crate) for an end-to-end example.
pub type PsmrEngine = ReplicatedEngine<Psmr>;

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
        Self::launch(cfg, Executor::Psmr(map), rt, factory)
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
        Self::launch_recoverable(cfg, Executor::Psmr(map), rt, factory)
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
    /// streams at the snapshot's cut, and replays the WAL suffix through
    /// its ordinary executor until it has re-executed everything the
    /// dead deployment ever ordered. A replica with no snapshot at all
    /// replays the entire log from scratch
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
        Self::launch_cold(cfg, Executor::Psmr(map), rt, factory)
    }
}

/// Spawns the `k` worker threads of one replica, worker `t_i` on
/// `streams[i]`, and returns them with the rendezvous they meet at for
/// `g_all` commands.
pub(crate) fn spawn_workers<S: Service + Clone>(
    replica: usize,
    streams: Vec<MergedStream>,
    all_group: GroupId,
    ctx: ReplicaCtx<S>,
) -> (Vec<JoinHandle<()>>, Arc<Rendezvous>) {
    let rendezvous = Arc::new(Rendezvous::new(streams.len()));
    let mut threads = Vec::with_capacity(streams.len());
    for (i, stream) in streams.into_iter().enumerate() {
        let ctx = WorkerCtx {
            me: WorkerId::new(i),
            shared: ctx.clone(),
            rendezvous: Arc::clone(&rendezvous),
            all_group,
            executed: global()
                .scoped("replica", replica as u64)
                .and("worker", i as u64)
                .counter(counters::COMMANDS_EXECUTED),
            meetings: global()
                .scoped("replica", replica as u64)
                .counter(counters::RENDEZVOUS),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("psmr-r{replica}-t{i}"))
                .spawn(move || worker_main(ctx, stream))
                .expect("spawn P-SMR worker"),
        );
    }
    (threads, rendezvous)
}

/// The executor of every `g_all` command: `min{j : g_j ∈ γ}` with γ = all
/// groups (Algorithm 1, line 16).
const EXECUTOR: WorkerId = WorkerId::new(0);

struct WorkerCtx<S> {
    me: WorkerId,
    shared: ReplicaCtx<S>,
    rendezvous: Arc<Rendezvous>,
    all_group: GroupId,
    /// Per-replica/per-worker executed-command counter, resolved once at
    /// spawn so the hot path never formats a label.
    executed: ScopedCounter,
    /// The replica's rendezvous counter; only the executor counts.
    meetings: ScopedCounter,
}

/// The body of worker thread `t_i` — Algorithm 1, lines 7–26, plus the
/// checkpoint path of the recovery subsystem.
fn worker_main<S: Service>(ctx: WorkerCtx<S>, mut stream: MergedStream) {
    loop {
        if ctx.shared.kill.load(Ordering::Relaxed) {
            return;
        }
        let Some(delivered) = stream.next() else {
            return; // shutdown or crash
        };
        let (group, seq) = (delivered.group.as_raw(), delivered.batch_seq);
        trace::global().stamp(group, seq, Stage::Delivered);
        if delivered.group != ctx.all_group {
            // Parallel mode (lines 10–13): multicast to a single group.
            // The response releases once the batch is durable (gated
            // deployments) — execution itself never waits.
            if let Some(req) = decode(&delivered) {
                ctx.execute(&delivered, req);
            }
            continue;
        }
        // Synchronous mode (lines 14–26), once per run: γ is every worker
        // of the replica, and the rest of this decided `g_all` batch
        // follows in every worker's stream, so one meeting covers it all.
        // The others signal their arrival, wait for the release and pass
        // over the run without looking at it.
        if ctx.me != EXECUTOR {
            if !ctx.rendezvous.arrive() {
                return; // shutdown or crash
            }
            stream.rest_of_batch().for_each(drop);
            continue;
        }
        // Decoded before the wait, so the parked peers do not wait for it.
        let req = decode(&delivered);
        if !ctx.rendezvous.wait_all() {
            return; // shutdown or crash
        }
        ctx.meetings.inc();
        trace::global().stamp(group, seq, Stage::Synced);
        // Each command of the run still executes alone on the quiesced
        // replica, in stream order; a crash stops the run between two.
        if let Some(req) = req {
            ctx.execute(&delivered, req);
        }
        for delivered in stream.rest_of_batch() {
            if ctx.shared.kill.load(Ordering::Relaxed) {
                return;
            }
            if let Some(req) = decode(&delivered) {
                ctx.execute(&delivered, req);
            }
        }
        ctx.rendezvous.release();
    }
}

impl<S: Service> WorkerCtx<S> {
    /// Executes one command and responds for it. A `CHECKPOINT` (always
    /// `Global`, so only ever met inside a run) acts on the replica
    /// instead of the service: it snapshots the quiesced state at this
    /// exact cut.
    fn execute(&self, delivered: &Delivered, req: Request) {
        let (group, seq) = (delivered.group.as_raw(), delivered.batch_seq);
        trace::global().stamp(group, seq, Stage::ExecStart);
        let resp = if req.command == CHECKPOINT {
            self.shared.checkpoint(delivered)
        } else {
            let resp = self.shared.service.execute(req.command, &req.payload);
            self.executed.inc();
            resp
        };
        trace::global().stamp(group, seq, Stage::Executed);
        self.shared.gate.respond_at(
            delivered.group,
            delivered.batch_seq,
            req.client,
            Response::new(req.request, resp),
        );
    }
}

/// Decodes a delivered command; a malformed payload is skipped.
fn decode(delivered: &Delivered) -> Option<Request> {
    let req = Request::decode(&delivered.payload).ok();
    debug_assert!(
        req.is_some(),
        "malformed request on stream {}",
        delivered.group
    );
    req
}
