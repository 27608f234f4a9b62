//! Replication engines: P-SMR and the baselines it is evaluated against.
//!
//! | Engine | Delivery | Execution | Paper section |
//! |--------|----------|-----------|---------------|
//! | [`PsmrEngine`] | parallel (k merged streams) | parallel (k workers) | §IV |
//! | [`SpSmrEngine`] | sequential (1 stream) | parallel (scheduler + k workers) | §III, ref. 4 |
//! | [`SmrEngine`] | sequential | sequential | §III |
//! | [`NoRepEngine`] | none (direct channel) | parallel (scheduler + k workers) | §VI-B |
//!
//! (Table I of the paper.) The three replicated rows are one engine,
//! [`ReplicatedEngine`]: they share the ordering layer and one replica
//! lifecycle (spawn, checkpoint, crash, restart, cold start) and differ
//! only in the multicast layout and the executor each replica runs over
//! its streams — P-SMR's `k` workers on `k` merged streams, sP-SMR's
//! scheduler feeding `k` workers, SMR's single thread. The lock-based
//! `BDB` baseline has no ordering layer at all and lives with the
//! key-value store in `psmr-kvstore`; no-rep has none either and keeps
//! its own server loop.

pub(crate) mod holdback;
pub mod norep;
pub mod psmr;
pub(crate) mod recover;
pub mod replicated;
pub(crate) mod scheduler;
pub mod spsmr;
pub mod sync;

pub use norep::NoRepEngine;
pub use psmr::PsmrEngine;
pub use recover::{RecoveryReport, RecoverySource};
pub use replicated::{ReplicatedEngine, SmrEngine};
pub use spsmr::SpSmrEngine;

use crate::client::{ClientProxy, RequestSink};
use crate::conflict::{CommandClass, CommandMap};
use bytes::Bytes;
use crossbeam::channel::Sender;
use psmr_common::envelope::Request;
use psmr_multicast::MulticastHandle;

/// A running replicated (or baseline) deployment that clients can connect
/// to.
pub trait Engine {
    /// Connects a new client and returns its proxy.
    fn client(&self) -> ClientProxy;

    /// Short technique label used by the evaluation output (`P-SMR`,
    /// `sP-SMR`, `SMR`, `no-rep`).
    fn label(&self) -> &'static str;

    /// Stops all threads of the deployment and joins them.
    fn shutdown(self);
}

/// Client sink of the multicast-backed engines that route by C-G
/// (Algorithm 1 lines 1–3).
pub(crate) struct CgSink {
    pub handle: MulticastHandle,
    pub map: CommandMap,
    pub mpl: usize,
}

impl RequestSink for CgSink {
    fn submit(&self, request: &Request) {
        let payload = Bytes::from(request.encode());
        // Globally dependent commands always travel on the shared group —
        // "one [group] for serialized requests" (§VI-C) — even at MPL 1,
        // where the destination set is technically a singleton. This keeps
        // the serialized path (and its cost) identical across MPLs.
        if matches!(self.map.class(request.command), CommandClass::Global) {
            self.handle.multicast_serial(payload);
        } else {
            let dests = self
                .map
                .destinations(request.command, &request.payload, self.mpl);
            self.handle.multicast(&dests, payload);
        }
    }
}

/// Client sink of the single-stream engines (SMR, sP-SMR): every command
/// goes through the one totally ordered group, which is also `g_all`.
pub(crate) struct TotalOrderSink {
    pub handle: MulticastHandle,
}

impl RequestSink for TotalOrderSink {
    fn submit(&self, request: &Request) {
        self.handle.multicast_serial(Bytes::from(request.encode()));
    }
}

/// Client sink of the non-replicated baseline: requests go straight into
/// the server's input channel. `close` disconnects the channel even while
/// clients still hold sink handles.
pub(crate) struct ChannelSink {
    tx: parking_lot::RwLock<Option<Sender<Request>>>,
}

impl ChannelSink {
    pub fn new(tx: Sender<Request>) -> Self {
        Self {
            tx: parking_lot::RwLock::new(Some(tx)),
        }
    }

    /// Drops the sender: the server's receive loop sees a disconnect and
    /// drains; later submissions are discarded.
    pub fn close(&self) {
        self.tx.write().take();
    }
}

impl RequestSink for ChannelSink {
    fn submit(&self, request: &Request) {
        use psmr_common::metrics::{counters, global};
        match self.tx.read().as_ref() {
            Some(tx) => {
                if tx.send(request.clone()).is_err() {
                    // Receiver gone: the server wound down mid-submit.
                    global().counter(counters::REQUESTS_DROPPED).inc();
                }
            }
            // Closed sink: the request vanishes, as with a dead socket —
            // but observably so, for recovery tests and operators.
            None => global().counter(counters::REQUESTS_DROPPED).inc(),
        }
    }
}
