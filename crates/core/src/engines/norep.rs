//! The non-replicated scheduler/worker baseline (`no-rep`, §VI-B).
//!
//! A single multithreaded server directly connected to the clients: no
//! ordering protocol, no replicas. A scheduler thread receives requests
//! from a channel (arrival order is the total order) and dispatches them to
//! worker threads under the same deterministic policy as sP-SMR. Comparing
//! no-rep with sP-SMR isolates the cost of atomic multicast; comparing it
//! with P-SMR shows the scheduler bottleneck without any replication cost.
//!
//! The checkpoint subsystem covers this baseline too —
//! [`NoRepEngine::spawn_recoverable`] intercepts
//! [`psmr_recovery::CHECKPOINT`] requests, drains the worker stage and
//! snapshots the service — but with no ordered log and no peer replicas
//! there is nothing to replay: a crashed no-rep server loses the tail
//! past its last checkpoint, which is precisely the availability gap
//! replication closes. With `SystemConfig::snapshot_dir` set the server
//! persists those checkpoints durably and **cold-starts from its own
//! disk**: a fresh `spawn_recoverable` over the same directory restores
//! the newest valid snapshot before serving — the no-rep half of the
//! "fresh process recovers from its own disk" story (minus the log
//! replay and peer catch-up only replication can offer).

use super::holdback::ResponseGate;
use super::recover::{auto_checkpointer, CheckpointHook};
use super::scheduler::{ExecStage, EXEC_RING};
use super::{ChannelSink, Engine};
use crate::client::ClientProxy;
use crate::conflict::CommandMap;
use crate::service::{RecoverableService, ResponseRouter, Service, SharedRouter};
use crossbeam::channel::bounded;
use psmr_common::envelope::{Request, Response};
use psmr_common::ids::{ClientId, GroupId};
use psmr_common::SystemConfig;
use psmr_multicast::Delivered;
use psmr_recovery::{AutoCheckpointer, CheckpointStore, CHECKPOINT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running no-rep deployment (always exactly one server).
pub struct NoRepEngine {
    router: SharedRouter,
    sink: Arc<ChannelSink>,
    thread: Option<JoinHandle<()>>,
    store: Option<Arc<CheckpointStore>>,
    checkpointer: Option<AutoCheckpointer>,
    next_client: AtomicU64,
}

impl NoRepEngine {
    /// Spawns the server with `cfg.mpl` workers plus a scheduler.
    pub fn spawn<S: Service>(cfg: &SystemConfig, map: CommandMap, factory: impl Fn() -> S) -> Self {
        Self::spawn_inner(cfg, map, Arc::new(factory()), None, 0)
    }

    /// Like [`NoRepEngine::spawn`] with checkpoint support: CHECKPOINT
    /// requests snapshot the drained service into the returned
    /// [`CheckpointStore`] (see [`NoRepEngine::checkpoint_store`]).
    ///
    /// With `cfg.snapshot_dir` set, checkpoints also persist to
    /// `<snapshot_dir>/r0` and a fresh spawn over the same directory
    /// **cold-starts from the newest valid snapshot** before serving.
    ///
    /// # Panics
    ///
    /// Panics when the configured snapshot directory cannot be created
    /// or a found snapshot does not decode into the service — a server
    /// asked to be durable must not come up silently empty.
    pub fn spawn_recoverable<S: RecoverableService>(
        cfg: &SystemConfig,
        map: CommandMap,
        factory: impl Fn() -> S,
    ) -> Self {
        let service: Arc<dyn RecoverableService> = Arc::new(factory());
        let store = Arc::new(CheckpointStore::new());
        let durable = cfg.snapshot_dir.as_ref().map(|dir| {
            Arc::new(
                psmr_recovery::DurableStore::open(dir.join("r0"))
                    .expect("create snapshot directory"),
            )
        });
        // Cold-start: a restarted process finds its own newest snapshot
        // on disk and resumes from it (everything past that checkpoint is
        // lost — the availability gap replication closes).
        let mut seed = 0;
        // The arrival counter stands in for a stream position when cuts
        // are tagged; resume it past the recovered cut so the next
        // checkpoint still reads as newer than the recovered one.
        let mut arrival_seed = 0;
        if let Some(loaded) = durable.as_ref().and_then(|d| d.load_latest()) {
            service
                .restore(&loaded.snapshot)
                .expect("disk snapshot passed crc but not the service codec");
            seed = loaded.id;
            arrival_seed = loaded.cut.seq;
            store.install(loaded.cut, loaded.id, loaded.snapshot);
        }
        let hook = CheckpointHook::new(&service, Arc::clone(&store), durable, None, seed);
        let mut engine = Self::spawn_inner(
            cfg,
            map,
            service as Arc<dyn Service>,
            Some(hook),
            arrival_seed,
        );
        engine.store = Some(store);
        // Honor the config contract shared by every recoverable engine:
        // with `checkpoint_interval` set, checkpoints happen on their own.
        engine.checkpointer = cfg.checkpoint_interval.map(|interval| {
            auto_checkpointer(
                Arc::clone(&engine.sink) as _,
                interval,
                Arc::new(psmr_common::runtime::RealClock),
            )
        });
        engine
    }

    fn spawn_inner(
        cfg: &SystemConfig,
        map: CommandMap,
        service: Arc<dyn Service>,
        hook: Option<CheckpointHook>,
        arrival_seed: u64,
    ) -> Self {
        let router: SharedRouter = Arc::new(ResponseRouter::new());
        // Mirror the multicast submit queue's bound so client backpressure
        // is comparable across engines.
        let (tx, rx) = bounded::<Request>(16 * 1024);
        // No ordered log, no durability gate: responses pass straight
        // through (the stage's bounded rings still bound memory).
        let stage = ExecStage::spawn(
            cfg.mpl,
            service,
            map,
            ResponseGate::passthrough(Arc::clone(&router)),
            EXEC_RING,
            "norep",
        );
        let sched_router = Arc::clone(&router);
        let thread = std::thread::Builder::new()
            .name("norep-sched".into())
            .spawn(move || {
                let mut stage = stage;
                // Arrival order is the total order; the counter stands in
                // for a stream position when tagging checkpoint cuts
                // (seeded past a cold-start's recovered cut).
                let mut arrival = arrival_seed;
                while let Ok(req) = rx.recv() {
                    arrival += 1;
                    if req.command == CHECKPOINT {
                        stage.drain();
                        let resp = match &hook {
                            Some(hook) => hook.execute(&Delivered {
                                group: GroupId::new(0),
                                batch_seq: arrival,
                                offset: 0,
                                payload: bytes::Bytes::new(),
                            }),
                            None => Vec::new(),
                        };
                        sched_router.respond(req.client, Response::new(req.request, resp));
                        continue;
                    }
                    stage.schedule(req, GroupId::new(0), arrival);
                }
                stage.shutdown();
            })
            .expect("spawn no-rep scheduler");
        Self {
            router,
            sink: Arc::new(ChannelSink::new(tx)),
            thread: Some(thread),
            store: None,
            checkpointer: None,
            next_client: AtomicU64::new(0),
        }
    }

    /// The checkpoint store of a recoverable deployment.
    pub fn checkpoint_store(&self) -> Option<Arc<CheckpointStore>> {
        self.store.clone()
    }
}

impl Engine for NoRepEngine {
    fn client(&self) -> ClientProxy {
        let id = ClientId::new(self.next_client.fetch_add(1, Ordering::Relaxed));
        ClientProxy::new(id, Arc::clone(&self.sink) as _, Arc::clone(&self.router))
    }

    fn label(&self) -> &'static str {
        "no-rep"
    }

    fn shutdown(mut self) {
        if let Some(driver) = self.checkpointer.take() {
            driver.stop();
        }
        // Disconnect the input channel; the scheduler drains and exits.
        self.sink.close();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
