//! The multicast system: group management and routing.

use crate::merge::MergedStream;
use bytes::Bytes;
use psmr_common::ids::{GroupId, WorkerId};
use psmr_common::metrics::{global, histograms};
use psmr_common::runtime::Runtime;
use psmr_common::{trace, SystemConfig};
use psmr_paxos::runtime::{
    acceptor_node, DurabilityHub, GroupHandle, LockstepGroups, WalMode, WalSyncer,
};
use psmr_recovery::{RecoveryError, StreamCut};
use psmr_wal::{Wal, WalOptions};
use std::sync::Arc;
use std::time::Duration;

/// Size at which a group's write-ahead log rotates to a fresh segment
/// file; trimming reclaims whole segments by unlink.
const WAL_SEGMENT_BYTES: usize = 4 * 1024 * 1024;

/// Minimum interval between two fsync passes of a pipelined deployment's
/// shared sync thread — the group-commit pacing. Each pass syncs every
/// group with an open command window.
const WAL_SYNC_PACE: Duration = Duration::from_millis(1);

/// Opens group `gid`'s write-ahead log (when the deployment configured a
/// WAL directory, `<wal_dir>/g<gid>`) in the mode `cfg.wal_pipeline`
/// selects. Pipelined logs never fsync on the append path — the per-group
/// sync thread owns the group-commit cadence — so their inline window is
/// unbounded.
///
/// # Panics
///
/// Panics when the log cannot be opened or replayed — a deployment that
/// asked for a durable ordered log must not come up silently
/// non-durable.
fn group_wal_mode(
    cfg: &SystemConfig,
    gid: usize,
    syncer: &Option<Arc<WalSyncer>>,
    rt: &Runtime,
) -> WalMode {
    let Some(dir) = cfg.wal_dir.as_ref() else {
        return WalMode::None;
    };
    let opts = WalOptions {
        segment_bytes: WAL_SEGMENT_BYTES,
        batch: if cfg.wal_pipeline {
            usize::MAX
        } else {
            cfg.wal_batch
        },
    };
    let wal =
        Arc::new(Wal::open(dir.join(format!("g{gid}")), opts).expect("open group write-ahead log"));
    // Observed fsync latency, labeled per group and rolled up globally.
    wal.observe_fsync(
        global()
            .scoped("group", gid)
            .histogram(histograms::WAL_FSYNC_NS),
    );
    // Every fsync of this log — inline windowed commits included — is a
    // schedule point the injected scheduler can stretch.
    {
        let sched = Arc::clone(&rt.sched);
        wal.set_sync_hook(Some(Arc::new(move || {
            sched.reach(psmr_common::runtime::SchedulePoint::WalFsync { group: gid as u64 });
        })));
    }
    match syncer {
        Some(syncer) => WalMode::Pipelined {
            wal,
            syncer: Arc::clone(syncer),
        },
        None => WalMode::Inline(wal),
    }
}

/// The shared sync thread of a pipelined deployment (`None` when
/// pipelining is off or no WAL is configured).
fn deployment_syncer(cfg: &SystemConfig, rt: &Runtime) -> Option<Arc<WalSyncer>> {
    (cfg.wal_pipeline && cfg.wal_dir.is_some())
        .then(|| WalSyncer::spawn_rt(WAL_SYNC_PACE, rt.clone()))
}

/// The destination set `γ` of a multicast (Algorithm 1, line 2).
///
/// The C-G functions of the paper produce either a singleton (independent
/// command → parallel mode) or the set of all groups (dependent command →
/// synchronous mode), and those are the only sets this type builds.
/// [`MulticastHandle::multicast`] routes any set larger than one group
/// through `g_all`, where every worker of a replica meets: a strict subset
/// would be over-synchronized there, which is conservative but correct.
///
/// # Example
///
/// ```
/// use psmr_common::ids::GroupId;
/// use psmr_multicast::Destinations;
///
/// let one = Destinations::one(GroupId::new(2));
/// assert!(one.is_singleton());
/// let all = Destinations::all(4);
/// assert_eq!(all.groups().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Destinations {
    groups: Vec<GroupId>,
}

impl Destinations {
    /// A singleton destination set.
    pub fn one(group: GroupId) -> Self {
        Self {
            groups: vec![group],
        }
    }

    /// The set of all `k` per-worker groups `g_0..g_{k-1}`.
    pub fn all(k: usize) -> Self {
        Self {
            groups: (0..k).map(GroupId::new).collect(),
        }
    }

    /// Whether the command involves exactly one group (parallel mode).
    pub fn is_singleton(&self) -> bool {
        self.groups.len() == 1
    }

    /// The groups of the set, sorted ascending.
    pub fn groups(&self) -> &[GroupId] {
        &self.groups
    }

    /// The deterministically elected executor group: `min{j : g_j ∈ γ}`
    /// (Algorithm 1, line 16).
    pub fn executor(&self) -> GroupId {
        self.groups[0]
    }
}

/// A running multicast deployment: one Paxos group per per-worker stream
/// plus the shared `g_all` stream.
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct MulticastSystem {
    groups: Vec<GroupHandle>,
    /// The thread that orders the groups.
    orderer: LockstepGroups,
    /// Shared WAL sync thread of a pipelined (`cfg.wal_pipeline`)
    /// deployment.
    syncer: Option<Arc<WalSyncer>>,
    /// The injected clock/scheduler pair everything in this deployment
    /// steps on (real time + FIFO unless a test injected otherwise).
    rt: Runtime,
}

/// Read-side of a pipelined deployment's durability state: per-group
/// watermarks plus the hook the WAL sync thread calls after each
/// watermark advance (which the response holdback drains from).
/// Cloneable; obtained from [`MulticastSystem::durability`].
#[derive(Debug, Clone)]
pub struct DurabilityView {
    handles: Vec<GroupHandle>,
    hub: Arc<DurabilityHub>,
}

impl DurabilityView {
    /// The durability watermark of `group`: the highest stream sequence
    /// number whose batch is covered by an `fsync`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is outside the deployment's layout.
    pub fn durable_seq(&self, group: GroupId) -> u64 {
        self.handles[group.as_raw()].durable_seq()
    }

    /// Installs (or clears) the callback the sync thread runs inline
    /// after each watermark advance (see
    /// [`psmr_paxos::runtime::DurabilityHub::set_on_bump`]).
    pub fn set_on_bump(&self, observer: Option<Arc<dyn Fn() + Send + Sync>>) {
        self.hub.set_on_bump(observer);
    }
}

/// Where a replica's subscriptions start.
#[derive(Debug, Clone, Copy)]
enum Position {
    /// With the live feed, before the start.
    Fresh,
    /// Right behind a checkpoint command.
    At(StreamCut),
    /// At sequence number 1, replaying everything retained.
    Start,
}

/// Cloneable sender side of a [`MulticastSystem`] used by client proxies.
#[derive(Debug, Clone)]
pub struct MulticastHandle {
    handles: Vec<GroupHandle>,
}

impl MulticastSystem {
    /// Spawns the P-SMR group layout: `k` per-worker groups plus `g_all`
    /// (index `k`), where `k = cfg.mpl`, all round-paced by one
    /// `order-rounds` thread ([`LockstepGroups`]): a submission to any
    /// group fires the next round on every group as soon as the previous
    /// round is decided everywhere, and an idle deployment closes no
    /// round at all. With `cfg.wal_dir` set, every group's decided stream
    /// is additionally appended to a durable write-ahead log under
    /// `<wal_dir>/g<gid>`, and a spawn over a
    /// directory a previous incarnation wrote **continues** the old
    /// streams (sequence numbers and retained logs included) — the
    /// substrate half of a whole-deployment cold start. Note that a
    /// *fresh* deployment must use a fresh WAL directory; only the
    /// cold-start paths subscribe correctly to a resumed stream.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` fails [`SystemConfig::validate`] or a
    /// configured write-ahead log cannot be opened.
    pub fn spawn(cfg: &SystemConfig) -> Self {
        Self::spawn_with_runtime(cfg, Runtime::real())
    }

    /// Like [`MulticastSystem::spawn`], but every nondeterministic
    /// decision of the deployment — the round pacing, WAL sync
    /// pacing, fault delays, fan-out — steps on the injected `rt`
    /// instead of real time and FIFO scheduling. The `psmr-sim`
    /// exploration harness enters through here.
    ///
    /// # Panics
    ///
    /// As [`MulticastSystem::spawn`].
    pub fn spawn_with_runtime(cfg: &SystemConfig, rt: Runtime) -> Self {
        Self::launch(cfg, rt, cfg.group_count())
    }

    /// Spawns a single totally-ordered stream (the SMR / sP-SMR layout):
    /// one group on its own `order-rounds` thread. No merge reads it, so
    /// it needs no rounds and no skips: a command is proposed as soon as
    /// it is queued, and every decided Paxos instance is a stream batch.
    /// `g0` is both the only stream and `g_all`, so serialized multicasts
    /// land on it too. Durable-log behavior matches
    /// [`MulticastSystem::spawn`], with only `g0`'s log in play.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` fails [`SystemConfig::validate`] or a
    /// configured write-ahead log cannot be opened.
    pub fn spawn_single(cfg: &SystemConfig) -> Self {
        Self::spawn_single_with_runtime(cfg, Runtime::real())
    }

    /// The injected-runtime variant of [`MulticastSystem::spawn_single`]
    /// (see [`MulticastSystem::spawn_with_runtime`]).
    ///
    /// # Panics
    ///
    /// As [`MulticastSystem::spawn_single`].
    pub fn spawn_single_with_runtime(cfg: &SystemConfig, rt: Runtime) -> Self {
        Self::launch(cfg, rt, 1)
    }

    /// Spawns `groups` groups on one ordering thread; the loop takes its
    /// rules from that count.
    fn launch(cfg: &SystemConfig, rt: Runtime, groups: usize) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid SystemConfig: {e}"));
        trace::global().set_sample(cfg.trace_sample);
        let syncer = deployment_syncer(cfg, &rt);
        let modes = (0..groups)
            .map(|gid| group_wal_mode(cfg, gid, &syncer, &rt))
            .collect();
        let orderer = LockstepGroups::spawn(cfg, &rt, modes);
        Self {
            groups: orderer.handles().to_vec(),
            orderer,
            syncer,
            rt,
        }
    }

    /// The injected runtime this deployment steps on.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// The durability view of a pipelined deployment (`None` unless
    /// `cfg.wal_pipeline` was on with a WAL directory configured): what
    /// the engines' response-holdback gates read watermarks from.
    pub fn durability(&self) -> Option<DurabilityView> {
        self.syncer.as_ref().map(|syncer| DurabilityView {
            handles: self.groups.clone(),
            hub: Arc::clone(syncer.hub()),
        })
    }

    /// Fault injection: freezes (or thaws) every group's pipelined sync
    /// thread — fsyncs stop landing and durability watermarks stop
    /// advancing, while ordering and fan-out continue. No-op on
    /// non-pipelined deployments.
    pub fn hold_wal_sync(&self, hold: bool) {
        for g in &self.groups {
            g.hold_wal_sync(hold);
        }
    }

    /// Shuts the system down **through a power failure**: stops every
    /// group *without* the syncer's final flush, then discards each
    /// WAL's un-fsynced suffix — modeling the machine losing power with
    /// the group-commit windows open (a plain [`MulticastSystem::shutdown`]
    /// would flush those windows first, silently turning the scenario
    /// into a clean shutdown). Returns the total records discarded.
    pub fn shutdown_power_fail(self) -> u64 {
        self.orderer.shutdown();
        if let Some(syncer) = self.syncer {
            syncer.abort();
        }
        self.groups.iter().map(|h| h.power_fail()).sum()
    }

    /// Number of groups this layout runs: `mpl + 1` for P-SMR, 1 for the
    /// single layout.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The serialized group, the last one: `g_all` on the P-SMR layout,
    /// `g0` on the single layout. Checkpoint cuts sit on it.
    pub fn all_group(&self) -> GroupId {
        GroupId::new(self.groups.len() - 1)
    }

    /// Returns a cloneable multicast handle for client proxies.
    pub fn handle(&self) -> MulticastHandle {
        MulticastHandle {
            handles: self.groups.clone(),
        }
    }

    /// Steps a new merge on the deployment's injected scheduler and, on
    /// the P-SMR layout (whose rounds wait for their consumers), wires it
    /// to the ordering thread.
    fn attach(&self, stream: MergedStream) -> MergedStream {
        let stream = stream.with_sched(Arc::clone(&self.rt.sched));
        if self.groups.len() > 1 {
            stream.with_progress(self.orderer.doorbell())
        } else {
            stream
        }
    }

    /// Subscribes worker `t_i` of a replica: a deterministic merge of its
    /// per-worker stream `g_i` and the shared stream `g_all`.
    ///
    /// Every call creates an independent subscription, so each replica's
    /// `t_i` gets an identical merged sequence.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is outside the configured multiprogramming level
    /// or if the system was spawned with [`MulticastSystem::spawn_single`].
    pub fn worker_stream(&self, worker: WorkerId) -> MergedStream {
        assert!(
            self.groups.len() > 1,
            "worker streams require the P-SMR layout (use spawn, not spawn_single)"
        );
        let mpl = self.groups.len() - 1;
        assert!(worker.as_raw() < mpl, "worker {worker} outside MPL {mpl}");
        self.subscribe(worker.as_raw(), Position::Fresh)
            .expect("fresh subscriptions replay nothing")
    }

    /// Subscribes to the single totally-ordered stream of a
    /// [`MulticastSystem::spawn_single`] deployment.
    pub fn single_stream(&self) -> MergedStream {
        self.subscribe(0, Position::Fresh)
            .expect("fresh subscriptions replay nothing")
    }

    /// Subscribes one replica to every stream it consumes, before the
    /// start: `k` merged streams (`g_i` with `g_all`, worker order) on
    /// the P-SMR layout, the one stream on the single layout. Every call
    /// creates independent subscriptions, so all replicas see identical
    /// sequences.
    pub fn replica_streams(&self) -> Vec<MergedStream> {
        self.subscribe_replica(Position::Fresh)
            .expect("fresh subscriptions replay nothing")
    }

    /// Re-subscribes one replica's streams **after** the start, resuming
    /// right behind the checkpoint command at `cut` (which sat on the
    /// serialized group). This is the catch-up path of a restarted
    /// replica: the cut's own group replays from `cut.seq` (suppressing
    /// the commands up to and including the cut) and every other group
    /// from `cut.seq + 1`, reproducing exactly the merge position each
    /// stream held when the checkpoint was taken.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::LogTrimmed`] when retention no longer
    /// covers the cut.
    ///
    /// # Panics
    ///
    /// Panics if `cut` is not on [`MulticastSystem::all_group`].
    pub fn replica_streams_at(&self, cut: StreamCut) -> Result<Vec<MergedStream>, RecoveryError> {
        assert_eq!(
            cut.group,
            self.all_group(),
            "checkpoints travel on the serialized group"
        );
        self.subscribe_replica(Position::At(cut))
    }

    /// Subscribes one replica's streams from the **beginning of the
    /// retained streams** (sequence number 1): the WAL-only cold-start
    /// path of a replica that has no snapshot at all — everything it ever
    /// executed is rebuilt by replaying the durable ordered logs from
    /// scratch.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::LogTrimmed`] when the logs no longer
    /// reach back to sequence number 1 (a checkpoint trimmed them; the
    /// replica needs a snapshot to recover).
    pub fn replica_streams_from_start(&self) -> Result<Vec<MergedStream>, RecoveryError> {
        self.subscribe_replica(Position::Start)
    }

    fn subscribe_replica(&self, at: Position) -> Result<Vec<MergedStream>, RecoveryError> {
        let streams = self.groups.len().saturating_sub(1).max(1);
        (0..streams).map(|i| self.subscribe(i, at)).collect()
    }

    /// Subscribes stream `i` of a replica at `at`: `g_i` merged with
    /// `g_all` on the P-SMR layout, `g0` alone on the single layout.
    fn subscribe(&self, i: usize, at: Position) -> Result<MergedStream, RecoveryError> {
        let groups = if self.groups.len() == 1 {
            vec![self.all_group()]
        } else {
            vec![GroupId::new(i), self.all_group()]
        };
        let mut subs = Vec::with_capacity(groups.len());
        for group in groups {
            let from = match at {
                Position::Fresh => None,
                Position::At(cut) if cut.group == group => Some(cut.seq),
                Position::At(cut) => Some(cut.seq + 1),
                Position::Start => Some(1),
            };
            let paxos = &self.groups[group.as_raw()];
            let rx = match from {
                None => paxos.subscribe(),
                Some(from) => {
                    paxos
                        .subscribe_from(from)
                        .map_err(|_| RecoveryError::LogTrimmed {
                            group,
                            needed: from,
                        })?
                }
            };
            subs.push((group, rx));
        }
        Ok(self.attach(match at {
            Position::At(cut) => MergedStream::resume(subs, cut),
            _ => MergedStream::new(subs),
        }))
    }

    /// Crash-stops acceptor `acceptor` of `group` (f = 1 of the paper's
    /// 3-acceptor instances keeps committing with the majority).
    ///
    /// # Panics
    ///
    /// Panics if `group` is outside the configured layout.
    pub fn crash_acceptor(&self, group: GroupId, acceptor: usize) {
        let gid = group.as_raw();
        self.groups[gid].net().crash(acceptor_node(gid, acceptor));
    }

    /// Decided batches currently retained by `group` for catch-up.
    ///
    /// # Panics
    ///
    /// Panics if `group` is outside the configured layout.
    pub fn retained_len(&self, group: GroupId) -> usize {
        self.groups[group.as_raw()].retained_len()
    }

    /// Sequence number `group`'s stream will assign next — monotonic
    /// across incarnations of a WAL-backed deployment (see
    /// [`psmr_paxos::runtime::GroupHandle::next_seq`]).
    ///
    /// # Panics
    ///
    /// Panics if `group` is outside the configured layout.
    pub fn next_seq(&self, group: GroupId) -> u64 {
        self.groups[group.as_raw()].next_seq()
    }

    /// Starts every group. Call once all worker streams / subscriptions
    /// have been created; before the start no batches (or skip rounds)
    /// flow.
    pub fn start(&self) {
        for g in &self.groups {
            g.start();
        }
    }

    /// Shuts down every group and joins the ordering thread (the shared
    /// WAL syncer, if any, flushes its open windows and stops last).
    pub fn shutdown(self) {
        self.orderer.shutdown();
        if let Some(syncer) = self.syncer {
            syncer.stop();
        }
    }
}

impl MulticastHandle {
    /// Multicasts a request payload to the destination set `γ`.
    ///
    /// Routing follows §VI-A: a message can be addressed to a single group
    /// only, so singleton sets go to that group's stream and any larger set
    /// is routed through `g_all` (which every worker delivers).
    pub fn multicast(&self, destinations: &Destinations, payload: Bytes) {
        let target = if destinations.is_singleton() {
            destinations.executor()
        } else {
            self.all_group()
        };
        self.handles[target.as_raw()].submit(payload);
    }

    /// Multicasts a payload through the shared serialized-request group
    /// `g_all`, regardless of destination-set size (§VI-C: "one group
    /// for serialized requests"). Used for globally dependent commands so
    /// the serialized path is identical at every MPL, including MPL 1
    /// where the "all groups" set is technically a singleton.
    pub fn multicast_serial(&self, payload: Bytes) {
        self.handles[self.all_group().as_raw()].submit(payload);
    }

    /// The shared group used for multi-destination commands: the last
    /// group of the layout.
    pub fn all_group(&self) -> GroupId {
        GroupId::new(self.handles.len() - 1)
    }

    /// Trims every group's retained log down to what a recovery from the
    /// checkpoint at `cut` still needs: the cut's own stream keeps
    /// `cut.seq` onward, all earlier-merging streams keep `cut.seq + 1`
    /// onward. Idempotent — every replica calls this after installing
    /// the same checkpoint.
    pub fn trim_to_cut(&self, cut: &StreamCut) {
        for (gid, handle) in self.handles.iter().enumerate() {
            let keep_from = if GroupId::new(gid) == cut.group {
                cut.seq
            } else {
                cut.seq + 1
            };
            handle.trim_below(keep_from);
        }
    }

    /// Decided batches currently retained by `group` (diagnostics and
    /// retention tests).
    ///
    /// # Panics
    ///
    /// Panics if `group` is outside the configured layout.
    pub fn retained_len(&self, group: GroupId) -> usize {
        self.handles[group.as_raw()].retained_len()
    }

    /// Shuts down all underlying groups (used by engines owning a handle).
    pub fn shutdown(&self) {
        for h in &self.handles {
            h.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn test_cfg(mpl: usize) -> SystemConfig {
        SystemConfig::new(mpl)
    }

    #[test]
    fn destinations_singleton_and_all() {
        let d = Destinations::one(GroupId::new(3));
        assert!(d.is_singleton());
        assert_eq!(d.executor(), GroupId::new(3));
        let d = Destinations::all(4);
        assert!(!d.is_singleton());
        assert_eq!(d.executor(), GroupId::new(0));
    }

    /// Waits until every group's stream reached the same `next_seq` and
    /// returns it.
    fn quiesced_next_seq(system: &MulticastSystem) -> u64 {
        let groups = system.group_count();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let seqs: Vec<u64> = (0..groups)
                .map(|g| system.next_seq(GroupId::new(g)))
                .collect();
            if seqs.iter().all(|s| *s == seqs[0]) {
                return seqs[0];
            }
            assert!(
                std::time::Instant::now() < deadline,
                "groups left lockstep: {seqs:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn lone_command_does_not_wait_for_the_idle_skip_round() {
        let system = MulticastSystem::spawn(&test_cfg(2));
        let handle = system.handle();
        let mut w0 = system.worker_stream(WorkerId::new(0));
        system.start();
        for i in 0..3u32 {
            let t = std::time::Instant::now();
            handle.multicast(
                &Destinations::one(GroupId::new(0)),
                Bytes::from(i.to_le_bytes().to_vec()),
            );
            let d = w0.next().expect("delivered");
            assert_eq!(&d.payload[..], &i.to_le_bytes());
            assert!(
                t.elapsed() < Duration::from_millis(100),
                "command {i} waited {:?} — a tick, not a decide",
                t.elapsed()
            );
        }
        system.shutdown();
    }

    #[test]
    fn burst_rides_in_far_fewer_rounds_than_commands() {
        const PER_THREAD: u32 = 1_000;
        let system = MulticastSystem::spawn(&test_cfg(2));
        let handle = system.handle();
        let mut streams: Vec<_> = (0..2)
            .map(|w| system.worker_stream(WorkerId::new(w)))
            .collect();
        system.start();
        let submitters: Vec<_> = (0..2usize)
            .map(|w| {
                let handle = handle.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        handle.multicast(
                            &Destinations::one(GroupId::new(w)),
                            Bytes::from(i.to_le_bytes().to_vec()),
                        );
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        // Drain both streams side by side, and keep draining one that is
        // done: the loop holds the next round while any worker stream has
        // not taken the last one, so a stream left unread would hold every
        // further round for the stall bound.
        let mut next = [0u32; 2];
        while next.iter().any(|n| *n < PER_THREAD) {
            let mut idle = true;
            for (stream, next) in streams.iter_mut().zip(&mut next) {
                while let Some(d) = stream.try_next().expect("system alive") {
                    assert_eq!(&d.payload[..], &next.to_le_bytes());
                    *next += 1;
                    idle = false;
                }
            }
            if idle {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let rounds = quiesced_next_seq(&system) - 1;
        assert!(
            rounds * 4 <= u64::from(2 * PER_THREAD),
            "{} commands took {rounds} rounds: rounds must batch under load",
            2 * PER_THREAD
        );
        system.shutdown();
    }

    #[test]
    fn groups_close_rounds_in_lockstep() {
        let system = MulticastSystem::spawn(&test_cfg(3));
        let handle = system.handle();
        let mut w1 = system.worker_stream(WorkerId::new(1));
        system.start();
        for i in 0..50u32 {
            let payload = Bytes::from(i.to_le_bytes().to_vec());
            if i % 5 == 0 {
                handle.multicast(&Destinations::all(3), payload);
            } else {
                handle.multicast(&Destinations::one(GroupId::new(1)), payload);
            }
            let d = w1.next().expect("delivered");
            assert_eq!(&d.payload[..], &i.to_le_bytes());
        }
        let next = quiesced_next_seq(&system);
        assert!(next > 1, "rounds were closed");
        // Quiet now: with nothing queued, no group moves on.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(quiesced_next_seq(&system), next);
        system.shutdown();
    }

    #[test]
    fn shutdown_does_not_wait_out_the_idle_interval() {
        let system = MulticastSystem::spawn(&test_cfg(2));
        let handle = system.handle();
        let mut w0 = system.worker_stream(WorkerId::new(0));
        system.start();
        handle.multicast(
            &Destinations::one(GroupId::new(0)),
            Bytes::from_static(b"one"),
        );
        w0.next().expect("delivered");
        drop(w0);
        let t = std::time::Instant::now();
        system.shutdown();
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            t.elapsed()
        );
        // Never started: the clock parks before the start, and still
        // stops at once.
        let system = MulticastSystem::spawn(&test_cfg(2));
        let t = std::time::Instant::now();
        system.shutdown();
        assert!(t.elapsed() < Duration::from_secs(1));
    }

    /// Sends `n` commands to `g0` one at a time and waits for each on
    /// worker 0's merge, failing after `limit` rather than hanging.
    fn deliver_one_by_one(
        system: &MulticastSystem,
        w0: &mut MergedStream,
        n: u32,
        limit: Duration,
    ) {
        let handle = system.handle();
        for i in 0..n {
            handle.multicast(
                &Destinations::one(GroupId::new(0)),
                Bytes::from(i.to_le_bytes().to_vec()),
            );
            let deadline = std::time::Instant::now() + limit;
            let d = loop {
                if let Some(d) = w0.try_next().expect("system alive") {
                    break d;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "command {i} was held back"
                );
                std::thread::sleep(Duration::from_micros(200));
            };
            assert_eq!(&d.payload[..], &i.to_le_bytes());
        }
    }

    /// A subscriber of `g1` that stops reading holds the next round back
    /// (its ring keeps two rounds), but a queued command on `g0` still
    /// fires once the stall bound passed: the reading merge gets every
    /// command.
    #[test]
    fn a_consumer_that_stops_reading_holds_queued_commands_only_briefly() {
        let system = MulticastSystem::spawn(&test_cfg(2));
        let _stalled = system.groups[1].subscribe();
        let mut w0 = system.worker_stream(WorkerId::new(0));
        system.start();
        deliver_one_by_one(&system, &mut w0, 20, Duration::from_secs(5));
        assert_eq!(quiesced_next_seq(&system), 21, "one round per command");
        system.shutdown();
    }

    /// The stall bound runs on the injected clock: on frozen virtual time
    /// a command is ordered at once while every consumer keeps up, a
    /// command held back by a consumer that stopped reading waits for
    /// virtual time, not host time, and advancing virtual time past the
    /// bound fires its round.
    #[test]
    fn round_clock_runs_on_the_injected_clock() {
        use psmr_common::runtime::{ClockHandle, VirtualClock};
        let vc = VirtualClock::manual();
        let rt = Runtime::with_clock(Arc::clone(&vc) as ClockHandle);
        let system = MulticastSystem::spawn_with_runtime(&test_cfg(2), rt);
        let _stalled = system.groups[1].subscribe();
        let mut w0 = system.worker_stream(WorkerId::new(0));
        system.start();
        // Rounds 1 and 2 fit in the stalled ring's slack.
        deliver_one_by_one(&system, &mut w0, 2, Duration::from_secs(5));
        system.handle().multicast(
            &Destinations::one(GroupId::new(0)),
            Bytes::from_static(b"held"),
        );
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(w0.try_next(), Ok(None), "host time fired a held round");
        assert_eq!(quiesced_next_seq(&system), 3);
        vc.advance(Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let d = loop {
            if let Some(d) = w0.try_next().expect("system alive") {
                break d;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "virtual time passed the stall bound, no round"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(&d.payload[..], b"held");
        vc.close();
        system.shutdown();
    }

    /// An idle merged deployment closes no round: no skip reaches a
    /// worker and no stream moves on.
    #[test]
    fn an_idle_merged_deployment_closes_no_round() {
        let system = MulticastSystem::spawn(&test_cfg(2));
        let mut stream = system.worker_stream(WorkerId::new(0));
        system.start();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(stream.try_next(), Ok(None));
        assert_eq!(stream.skipped_batches(), 0, "no skip was delivered");
        assert_eq!(quiesced_next_seq(&system), 1);
        system.shutdown();
    }

    #[test]
    fn singleton_command_reaches_only_its_worker() {
        let system = MulticastSystem::spawn(&test_cfg(2));
        let handle = system.handle();
        let mut w0 = system.worker_stream(WorkerId::new(0));
        let mut w1 = system.worker_stream(WorkerId::new(1));
        system.start();
        handle.multicast(
            &Destinations::one(GroupId::new(0)),
            Bytes::from_static(b"for-w0"),
        );
        let d = w0.next().expect("w0 delivers");
        assert_eq!(&d.payload[..], b"for-w0");
        assert_eq!(d.group, GroupId::new(0));
        // w1 must not see it: only skips flow on its streams. Drain briefly.
        std::thread::sleep(Duration::from_millis(10));
        if let Ok(Some(d)) = w1.try_next() {
            panic!("w1 unexpectedly delivered {d:?}");
        }
        system.shutdown();
    }

    #[test]
    fn multi_destination_command_reaches_every_worker() {
        let system = MulticastSystem::spawn(&test_cfg(3));
        let handle = system.handle();
        let mut streams: Vec<_> = (0..3)
            .map(|i| system.worker_stream(WorkerId::new(i)))
            .collect();
        system.start();
        handle.multicast(&Destinations::all(3), Bytes::from_static(b"everyone"));
        for s in &mut streams {
            let d = s.next().expect("delivered");
            assert_eq!(&d.payload[..], b"everyone");
            assert_eq!(d.group, GroupId::new(3), "routed via g_all");
        }
        system.shutdown();
    }

    #[test]
    fn replicas_of_the_same_worker_see_identical_sequences() {
        // Two subscriptions for worker 0 = worker t_0 of two replicas.
        let system = MulticastSystem::spawn(&test_cfg(2));
        let handle = system.handle();
        let mut replica_a = system.worker_stream(WorkerId::new(0));
        let mut replica_b = system.worker_stream(WorkerId::new(0));
        system.start();
        // Interleave singleton and all-group traffic.
        for i in 0..30u32 {
            let payload = Bytes::from(i.to_le_bytes().to_vec());
            if i % 3 == 0 {
                handle.multicast(&Destinations::all(2), payload);
            } else {
                handle.multicast(&Destinations::one(GroupId::new(0)), payload);
            }
        }
        let take = |s: &mut MergedStream, n: usize| -> Vec<(GroupId, u64, usize, u32)> {
            (0..n)
                .map(|_| {
                    let d = s.next().expect("delivered");
                    let v = u32::from_le_bytes(d.payload[..4].try_into().unwrap());
                    (d.group, d.batch_seq, d.offset, v)
                })
                .collect()
        };
        assert_eq!(take(&mut replica_a, 30), take(&mut replica_b, 30));
        system.shutdown();
    }

    #[test]
    fn same_group_commands_stay_fifo() {
        let system = MulticastSystem::spawn(&test_cfg(1));
        let handle = system.handle();
        let mut w0 = system.worker_stream(WorkerId::new(0));
        system.start();
        for i in 0..100u32 {
            handle.multicast(
                &Destinations::one(GroupId::new(0)),
                Bytes::from(i.to_le_bytes().to_vec()),
            );
        }
        let mut got = Vec::new();
        while got.len() < 100 {
            let d = w0.next().expect("delivered");
            got.push(u32::from_le_bytes(d.payload[..4].try_into().unwrap()));
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        system.shutdown();
    }

    #[test]
    fn single_layout_provides_total_order() {
        let system = MulticastSystem::spawn_single(&test_cfg(8));
        let handle = system.handle();
        let mut a = system.single_stream();
        let mut b = system.single_stream();
        system.start();
        for i in 0..50u32 {
            handle.multicast(
                &Destinations::one(GroupId::new(0)),
                Bytes::from(i.to_le_bytes().to_vec()),
            );
        }
        let take = |s: &mut MergedStream, n: usize| -> Vec<u32> {
            (0..n)
                .map(|_| {
                    let d = s.next().expect("delivered");
                    u32::from_le_bytes(d.payload[..4].try_into().unwrap())
                })
                .collect()
        };
        assert_eq!(take(&mut a, 50), take(&mut b, 50));
        system.shutdown();
    }

    /// On the single layout `g0` is also `g_all`: a serialized multicast
    /// lands on the one stream instead of a group that does not exist.
    #[test]
    fn single_layout_delivers_serial_multicasts() {
        let system = MulticastSystem::spawn_single(&test_cfg(4));
        let handle = system.handle();
        assert_eq!(handle.all_group(), GroupId::new(0));
        assert_eq!(system.group_count(), 1);
        let mut stream = system.single_stream();
        system.start();
        handle.multicast_serial(Bytes::from_static(b"serial"));
        let d = stream.next().expect("delivered");
        assert_eq!(&d.payload[..], b"serial");
        assert_eq!(d.group, GroupId::new(0));
        system.shutdown();
    }

    #[test]
    #[should_panic(expected = "outside MPL")]
    fn worker_stream_validates_worker_id() {
        let system = MulticastSystem::spawn(&test_cfg(2));
        let _ = system.worker_stream(WorkerId::new(5));
    }

    #[test]
    #[should_panic(expected = "invalid SystemConfig")]
    fn zeroed_durability_knob_is_rejected_at_spawn() {
        let mut cfg = test_cfg(1);
        cfg.wal_batch(0);
        let _ = MulticastSystem::spawn(&cfg);
    }

    /// Pipelined group commit at the multicast layer: the durability
    /// view reports per-group watermarks that catch up to everything
    /// delivered, and a held sync followed by a power-fail shutdown
    /// loses exactly the unsynced suffix — the durable prefix replays
    /// identically in the next incarnation.
    #[test]
    fn pipelined_deployment_tracks_watermarks_and_survives_power_failure() {
        let dir = std::env::temp_dir().join(format!("psmr-mcast-pipe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = test_cfg(2);
        cfg.wal_dir(Some(dir.clone())).wal_pipeline(true);

        let system = MulticastSystem::spawn(&cfg);
        let view = system.durability().expect("pipelined deployment");
        let handle = system.handle();
        let mut w0 = system.worker_stream(WorkerId::new(0));
        system.start();
        for i in 0..10u32 {
            handle.multicast(
                &Destinations::one(GroupId::new(0)),
                Bytes::from(i.to_le_bytes().to_vec()),
            );
        }
        let mut last_seq = 0;
        for _ in 0..10 {
            let d = w0.next().expect("delivered");
            last_seq = d.batch_seq;
        }
        // The sync thread catches the watermarks up to what was delivered
        // — on the shared stream too: replaying g0's batch `s` takes the
        // shared stream's batches below `s` first, and those skip batches
        // are only synced lazily.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let merged = [GroupId::new(0), cfg.all_group()];
        while merged.iter().any(|g| view.durable_seq(*g) < last_seq) {
            assert!(
                std::time::Instant::now() < deadline,
                "watermark never caught up"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Freeze the fsyncs, push more traffic, and lose power. One
        // command at a time, so each rides in a round of its own: a burst
        // could share one round and leave fewer records to discard.
        system.hold_wal_sync(true);
        for i in 100..105u32 {
            handle.multicast(
                &Destinations::one(GroupId::new(0)),
                Bytes::from(i.to_le_bytes().to_vec()),
            );
            let _ = w0.next().expect("delivered before the crash");
        }
        let dropped = system.shutdown_power_fail();
        assert!(dropped >= 5, "held suffix discarded ({dropped})");

        // The next incarnation replays only the durable prefix.
        cfg.wal_pipeline(false);
        let system = MulticastSystem::spawn(&cfg);
        let mut w0 = system
            .replica_streams_from_start()
            .expect("never trimmed")
            .remove(0);
        let mut got = Vec::new();
        while got.len() < 10 {
            let d = w0.next().expect("replayed");
            got.push(u32::from_le_bytes(d.payload[..4].try_into().unwrap()));
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        system.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The durable-log contract at the multicast layer: a deployment
    /// respawned over the WAL directory of a dead incarnation replays
    /// the identical merged command sequence from the beginning — the
    /// property every cold-started worker relies on.
    #[test]
    fn wal_backed_deployment_replays_identically_after_respawn() {
        let dir = std::env::temp_dir().join(format!("psmr-mcast-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = test_cfg(2);
        cfg.wal_dir(Some(dir.clone()));

        let take = |s: &mut MergedStream, n: usize| -> Vec<(GroupId, u64, usize, u32)> {
            (0..n)
                .map(|_| {
                    let d = s.next().expect("delivered");
                    let v = u32::from_le_bytes(d.payload[..4].try_into().unwrap());
                    (d.group, d.batch_seq, d.offset, v)
                })
                .collect()
        };

        // First incarnation: mixed singleton and serialized traffic.
        let system = MulticastSystem::spawn(&cfg);
        let handle = system.handle();
        let mut w0 = system.worker_stream(WorkerId::new(0));
        system.start();
        for i in 0..20u32 {
            let payload = Bytes::from(i.to_le_bytes().to_vec());
            if i % 4 == 0 {
                handle.multicast(&Destinations::all(2), payload);
            } else {
                handle.multicast(&Destinations::one(GroupId::new(0)), payload);
            }
        }
        let before = take(&mut w0, 20);
        system.shutdown();

        // Second incarnation over the same directory: the whole stream
        // set replays from the durable logs, provenance included.
        let system = MulticastSystem::spawn(&cfg);
        let mut w0 = system
            .replica_streams_from_start()
            .expect("logs never trimmed")
            .remove(0);
        let after = take(&mut w0, 20);
        assert_eq!(before, after, "replayed merge is byte-identical");
        system.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
