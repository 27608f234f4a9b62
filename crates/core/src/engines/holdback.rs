//! Response holdback for pipelined group commit.
//!
//! With `SystemConfig::wal_pipeline` on, a decided batch is executed
//! while its covering `fsync` is still in flight — so a response sent
//! the moment execution finishes could acknowledge a command a power
//! failure then erases. The [`ResponseGate`] closes that hole at the
//! *observability* boundary instead of the execution boundary: workers
//! hand it every response tagged with the command's stream provenance
//! `(group, batch seq)`, and the gate forwards it to the real
//! [`ResponseRouter`](crate::service::ResponseRouter) only once the
//! group's durability watermark covers that sequence number. Executed
//! state that is not yet durable is never observable, which is exactly
//! the invariant whole-deployment cold start needs (a crash between
//! fan-out and fsync loses only *unacknowledged* commands).
//!
//! Workers never block here: a response whose batch is still in the
//! open group-commit window is queued. The WAL sync thread forwards it
//! right after the watermark moves (the on-bump observer of the
//! deployment's [`DurabilityView`]); workers also drain on their own
//! `respond_at` calls, and a release thread drains every 10 ms as a
//! safety net. Non-pipelined deployments use the passthrough
//! constructor, which forwards immediately and spawns nothing.

use crate::service::SharedRouter;
use parking_lot::Mutex;
use psmr_common::envelope::Response;
use psmr_common::ids::{ClientId, GroupId};
use psmr_common::metrics::{counters, global};
use psmr_common::runtime::ClockHandle;
use psmr_multicast::DurabilityView;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A response waiting for its batch's covering fsync.
struct Held {
    group: GroupId,
    seq: u64,
    client: ClientId,
    response: Response,
}

/// The gated half: pending responses plus the release thread's controls.
struct GateState {
    view: DurabilityView,
    pending: Mutex<Vec<Held>>,
    stop: AtomicBool,
}

/// Routes responses to clients, delaying each until the durability
/// watermark of its originating group covers its batch. See the
/// [module docs](self).
pub(crate) struct ResponseGate {
    router: SharedRouter,
    state: Option<Arc<GateState>>,
    release: Mutex<Option<JoinHandle<()>>>,
}

impl ResponseGate {
    /// A gate that forwards immediately — for deployments without
    /// pipelined group commit (responses there are already safe to
    /// release at execution time under the configured fault model).
    pub fn passthrough(router: SharedRouter) -> Arc<Self> {
        Arc::new(Self {
            router,
            state: None,
            release: Mutex::new(None),
        })
    }

    /// A gate bound to a pipelined deployment's durability view.
    ///
    /// Held responses are released by three cooperating paths, cheapest
    /// first: workers drain opportunistically on their own `respond_at`
    /// calls; the WAL sync thread drains inline right after each
    /// watermark advance (the on-bump observer — same scheduling quantum
    /// as the covering fsync); and a timer safety-net thread mops up
    /// anything parked during a quiet period.
    pub fn gated(router: SharedRouter, view: DurabilityView, clock: ClockHandle) -> Arc<Self> {
        let state = Arc::new(GateState {
            view,
            pending: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        {
            let router = Arc::clone(&router);
            let state = Arc::clone(&state);
            state
                .view
                .clone()
                .set_on_bump(Some(Arc::new(move || drain_released(&router, &state))));
        }
        let thread = {
            let router = Arc::clone(&router);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("response-release".into())
                .spawn(move || release_main(&router, &state, &clock))
                .expect("spawn response-release thread")
        };
        Arc::new(Self {
            router,
            state: Some(state),
            release: Mutex::new(Some(thread)),
        })
    }

    /// Convenience: gated when the deployment is pipelined, passthrough
    /// otherwise. The safety-net release timer runs on `clock`.
    pub fn for_view(
        router: SharedRouter,
        view: Option<DurabilityView>,
        clock: ClockHandle,
    ) -> Arc<Self> {
        match view {
            Some(view) => Self::gated(router, view, clock),
            None => Self::passthrough(router),
        }
    }

    /// Delivers `response` to `client` once the batch at `(group, seq)`
    /// is durable. Never blocks the calling worker: a not-yet-durable
    /// response is parked for later release.
    ///
    /// Every call also opportunistically drains whatever parked
    /// responses the watermarks now cover — on a busy deployment the
    /// executing workers release each other's holds with no extra
    /// thread wakeup, and the dedicated release thread only mops up
    /// when traffic goes quiet.
    pub fn respond_at(&self, group: GroupId, seq: u64, client: ClientId, mut response: Response) {
        // Tag the response with its stream provenance so the client proxy
        // can stamp the final lifecycle trace stage at first receipt.
        response.origin = Some((group.as_raw(), seq));
        match &self.state {
            None => {
                self.router.respond(client, response);
            }
            Some(state) => {
                // Fast path: the covering fsync already landed (the sync
                // thread usually wins the race against execution).
                if state.view.durable_seq(group) >= seq {
                    self.router.respond(client, response);
                } else {
                    global().counter(counters::RESPONSES_HELD).inc();
                    state.pending.lock().push(Held {
                        group,
                        seq,
                        client,
                        response,
                    });
                }
                drain_released(&self.router, state);
            }
        }
    }

    /// Stops and joins the release thread and unhooks the on-bump
    /// observer (pending responses are dropped — the engine is going
    /// down and its clients with it).
    pub fn stop(&self) {
        if let Some(state) = &self.state {
            state.stop.store(true, Ordering::Relaxed);
            // The hub holds the observer (and through it this gate's
            // state) strongly; clear it to break the cycle.
            state.view.set_on_bump(None);
        }
        if let Some(thread) = self.release.lock().take() {
            let _ = thread.join();
        }
    }
}

/// Forwards every parked response whose batch the watermarks now cover.
fn drain_released(router: &SharedRouter, state: &GateState) {
    let released: Vec<Held> = {
        let mut pending = state.pending.lock();
        if pending.is_empty() {
            return;
        }
        let mut released = Vec::new();
        let mut i = 0;
        while i < pending.len() {
            if state.view.durable_seq(pending[i].group) >= pending[i].seq {
                released.push(pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        released
    };
    if !released.is_empty() {
        global()
            .counter(counters::RESPONSES_RELEASED)
            .add(released.len() as u64);
        for held in released {
            router.respond(held.client, held.response);
        }
    }
}

/// The safety-net release loop: a plain timer drain. The prompt paths
/// (worker piggyback + the sync thread's on-bump drain) release almost
/// everything; this loop only catches a response parked in the race
/// window just *after* the bump that covered it, with no later traffic
/// to drain it. A timer (instead of parking on the hub) keeps this
/// thread from waking on every fsync.
fn release_main(router: &SharedRouter, state: &GateState, clock: &ClockHandle) {
    while !state.stop.load(Ordering::Relaxed) {
        clock.sleep(Duration::from_millis(10));
        drain_released(router, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ResponseRouter;
    use psmr_common::ids::RequestId;

    #[test]
    fn passthrough_forwards_immediately() {
        let router: SharedRouter = Arc::new(ResponseRouter::new());
        let rx = router.register(ClientId::new(1));
        let gate = ResponseGate::passthrough(Arc::clone(&router));
        gate.respond_at(
            GroupId::new(0),
            99,
            ClientId::new(1),
            Response::new(RequestId::new(7), vec![1]),
        );
        assert_eq!(rx.try_recv().unwrap().request, RequestId::new(7));
        gate.stop();
    }
}
