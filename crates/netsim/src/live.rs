//! Threaded channel network with fault injection.
//!
//! [`LiveNet`] connects real OS threads through unbounded `crossbeam`
//! channels, with per-link delay and loss, link cuts and crash-stop
//! injectable. The end-to-end replication runs use the direct (fault-free)
//! path, whose cost is a single channel hop — our stand-in for the paper's
//! gigabit cluster links; the fault path is used by tests that crash
//! acceptors or delay streams. [`LiveNet::admit`] exposes the fault filter
//! on its own, for peers that share a thread and talk by direct call.

use crate::sim::NodeId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use psmr_common::runtime::{Runtime, SendVerdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A per-link fault: messages on the link are delayed and/or dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Fixed extra delay applied to every message on the link.
    pub delay: Duration,
    /// Probability that a message on the link is dropped.
    pub loss: f64,
}

impl LinkFault {
    /// A fault that only delays.
    pub fn delay(delay: Duration) -> Self {
        Self { delay, loss: 0.0 }
    }

    /// A fault that only drops, with the given probability.
    pub fn loss(loss: f64) -> Self {
        Self {
            delay: Duration::ZERO,
            loss,
        }
    }
}

/// Egress hook for destinations with no local inbox: `(from, to, &msg)`,
/// returns whether the message was handed to a remote substrate.
pub type Gateway<M> = Arc<dyn Fn(NodeId, NodeId, &M) -> bool + Send + Sync>;

/// Slot holding the optional gateway (newtype so `Shared` keeps its
/// derived `Debug` despite the non-`Debug` closure inside).
struct GatewaySlot<M>(RwLock<Option<Gateway<M>>>);

impl<M> std::fmt::Debug for GatewaySlot<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let installed = self.0.read().is_some();
        f.debug_tuple("GatewaySlot").field(&installed).finish()
    }
}

#[derive(Debug)]
struct Shared<M> {
    inboxes: RwLock<HashMap<NodeId, Sender<(NodeId, M)>>>,
    faults: RwLock<HashMap<(NodeId, NodeId), LinkFault>>,
    /// Directed links with a message budget left before they go dead:
    /// `sever_after` installs a count, every delivery decrements it, and a
    /// link at zero drops everything (models a sender dying mid-stream).
    cuts: RwLock<HashMap<(NodeId, NodeId), u64>>,
    crashed: RwLock<HashMap<NodeId, ()>>,
    /// Where sends to nodes without a local inbox go (multi-process
    /// deployments bridge them onto TCP); `None` = drop, the historical
    /// single-process behavior.
    gateway: GatewaySlot<M>,
    shutdown: AtomicBool,
}

/// A live, threaded message network.
///
/// Clone handles freely: all clones share the same registry.
///
/// # Example
///
/// ```
/// use psmr_netsim::live::LiveNet;
/// use psmr_netsim::sim::NodeId;
///
/// let net: LiveNet<String> = LiveNet::new();
/// let a = NodeId::new(0);
/// let b = NodeId::new(1);
/// let _a_inbox = net.register(a);
/// let b_inbox = net.register(b);
/// net.send(a, b, "hello".to_string());
/// let (from, msg) = b_inbox.recv().unwrap();
/// assert_eq!(from, a);
/// assert_eq!(msg, "hello");
/// ```
#[derive(Debug)]
pub struct LiveNet<M> {
    shared: Arc<Shared<M>>,
    runtime: Runtime,
    rng_seed: u64,
}

impl<M> Clone for LiveNet<M> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            runtime: self.runtime.clone(),
            rng_seed: self.rng_seed,
        }
    }
}

impl<M: Send + 'static> LiveNet<M> {
    /// Creates an empty network on the production runtime (real clock,
    /// FIFO scheduling).
    pub fn new() -> Self {
        Self::with_runtime(Runtime::real())
    }

    /// Creates an empty network whose sends consult `runtime`'s
    /// scheduler and whose fault delays sleep on its clock. Everything
    /// spawned over this net (Paxos groups, transfer servers) inherits
    /// the runtime via [`LiveNet::runtime`].
    pub fn with_runtime(runtime: Runtime) -> Self {
        Self {
            shared: Arc::new(Shared {
                inboxes: RwLock::new(HashMap::new()),
                faults: RwLock::new(HashMap::new()),
                cuts: RwLock::new(HashMap::new()),
                crashed: RwLock::new(HashMap::new()),
                gateway: GatewaySlot(RwLock::new(None)),
                shutdown: AtomicBool::new(false),
            }),
            runtime,
            rng_seed: 0xD15EA5E,
        }
    }

    /// The injected runtime this net (and everything running over it)
    /// steps on.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Registers a node and returns its inbox.
    ///
    /// Re-registering a node replaces its inbox (the old receiver
    /// disconnects), which models a process restart.
    pub fn register(&self, node: NodeId) -> Receiver<(NodeId, M)> {
        let (tx, rx) = unbounded();
        self.shared.inboxes.write().insert(node, tx);
        rx
    }

    /// Runs one message on the directed link `from → to` through every
    /// fault filter of the net: shutdown, crash-stop of either end, a
    /// [`LiveNet::sever_after`] cut (a pass spends one unit of its
    /// budget), the injected scheduler's verdict, and the link's
    /// [`LinkFault`] loss. Returns `None` when the message is lost, else
    /// the delay the link's fault imposes (zero without one).
    ///
    /// [`LiveNet::send`] applies this to every message it carries; a
    /// caller that hands a message to a co-located peer by direct call
    /// applies it itself, so that peer stays under the same fault model
    /// as one behind an inbox.
    pub fn admit(&self, from: NodeId, to: NodeId) -> Option<Duration> {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return None;
        }
        {
            let crashed = self.shared.crashed.read();
            if crashed.contains_key(&from) || crashed.contains_key(&to) {
                return None;
            }
        }
        // Fast path: the cuts map is empty in every non-fault-injection
        // run, and the message path is hot (every Paxos hop) — only take
        // the exclusive lock when a cut is actually installed.
        if !self.shared.cuts.read().is_empty() {
            let mut cuts = self.shared.cuts.write();
            if let Some(remaining) = cuts.get_mut(&(from, to)) {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
            }
        }
        // The injected scheduler sees every message that survived the
        // fault filters above; a simulation scheduler may drop or delay
        // it here to perturb the interleaving.
        if self.runtime.sched.on_send(from.as_raw(), to.as_raw()) == SendVerdict::Drop {
            return None;
        }
        let Some(fault) = self.shared.faults.read().get(&(from, to)).copied() else {
            return Some(Duration::ZERO);
        };
        if fault.loss > 0.0 {
            // Cheap thread-local-free decision; determinism is not
            // needed on the live path.
            let mut rng =
                StdRng::seed_from_u64(self.rng_seed ^ (from.as_raw() << 32) ^ to.as_raw());
            if rng.gen_bool(fault.loss) {
                return None;
            }
        }
        Some(fault.delay)
    }

    /// Sends a message; returns `false` if it was dropped (unknown or
    /// crashed destination, crashed sender, fault-injected loss, or
    /// shutdown — see [`LiveNet::admit`]). A link delay sleeps the
    /// sending thread.
    pub fn send(&self, from: NodeId, to: NodeId, message: M) -> bool {
        let Some(delay) = self.admit(from, to) else {
            return false;
        };
        if !delay.is_zero() {
            self.runtime.clock.sleep(delay);
        }
        if let Some(tx) = self.shared.inboxes.read().get(&to) {
            return tx.send((from, message)).is_ok();
        }
        // No local inbox: hand the message to the gateway (a TCP bridge
        // in multi-process deployments) if one is installed.
        match self.shared.gateway.0.read().as_ref() {
            Some(gateway) => gateway(from, to, &message),
            None => false,
        }
    }

    /// Installs the egress gateway consulted for destinations with no
    /// local inbox. Local delivery always wins; the gateway only ever
    /// sees traffic for nodes this process does not host.
    pub fn set_gateway(&self, gateway: Gateway<M>) {
        *self.shared.gateway.0.write() = Some(gateway);
    }

    /// Delivers a message to a **locally registered** node, bypassing
    /// the gateway — the injection point a TCP bridge's reader-thread
    /// handler uses (it never blocks: inboxes are unbounded; and it never
    /// re-consults the gateway, so bridged traffic cannot
    /// loop back out). Returns `false` when the destination has no local
    /// inbox or the net is shut down.
    pub fn deliver(&self, from: NodeId, to: NodeId, message: M) -> bool {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        match self.shared.inboxes.read().get(&to) {
            Some(tx) => tx.send((from, message)).is_ok(),
            None => false,
        }
    }

    /// Installs a fault on the directed link `from → to`.
    pub fn inject(&self, from: NodeId, to: NodeId, fault: LinkFault) {
        self.shared.faults.write().insert((from, to), fault);
    }

    /// Removes any fault on the directed link, including a pending or
    /// tripped [`LiveNet::sever_after`] cut.
    pub fn heal(&self, from: NodeId, to: NodeId) {
        self.shared.faults.write().remove(&(from, to));
        self.shared.cuts.write().remove(&(from, to));
    }

    /// Severs the directed link `from → to` after `budget` more messages:
    /// the next `budget` sends deliver, everything after is dropped. With
    /// `budget` 0 the link is dead immediately. Used by recovery tests to
    /// crash a state-transfer peer *mid-stream*, deterministically.
    pub fn sever_after(&self, from: NodeId, to: NodeId, budget: u64) {
        self.shared.cuts.write().insert((from, to), budget);
    }

    /// Crashes a node: its inbox is removed and all traffic from/to it is
    /// dropped from now on (crash-stop).
    pub fn crash(&self, node: NodeId) {
        self.shared.crashed.write().insert(node, ());
        self.shared.inboxes.write().remove(&node);
    }

    /// Returns whether the node is crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.shared.crashed.read().contains_key(&node)
    }

    /// Crash-stops **every currently registered node** at once — the
    /// whole-deployment power failure. Every inbox disconnects and all
    /// traffic is dropped until nodes are individually
    /// [`LiveNet::restart`]ed (or, for a cold start, a fresh network is
    /// built by the new incarnation). Nodes registered *after* this call
    /// are unaffected.
    pub fn crash_all(&self) {
        let mut inboxes = self.shared.inboxes.write();
        let mut crashed = self.shared.crashed.write();
        for (&node, _) in inboxes.iter() {
            crashed.insert(node, ());
        }
        inboxes.clear();
    }

    /// Clears a node's crash-stop status so a **new incarnation** of the
    /// process can [`LiveNet::register`] under the same id. The restarted
    /// node has a fresh (empty) inbox; nothing sent while it was down is
    /// recovered — exactly a process restart.
    pub fn restart(&self, node: NodeId) {
        self.shared.crashed.write().remove(&node);
    }

    /// Shuts the network down: every subsequent send is dropped and inbox
    /// receivers disconnect, unblocking any thread parked on `recv()`.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.inboxes.write().clear();
    }
}

impl<M: Send + 'static> Default for LiveNet<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn point_to_point_delivery() {
        let net: LiveNet<u32> = LiveNet::new();
        let rx = net.register(n(1));
        assert!(net.send(n(0), n(1), 7));
        assert_eq!(rx.recv().unwrap(), (n(0), 7));
    }

    #[test]
    fn send_to_unregistered_node_is_dropped() {
        let net: LiveNet<u32> = LiveNet::new();
        assert!(!net.send(n(0), n(9), 1));
    }

    #[test]
    fn crash_disconnects_inbox_and_blocks_traffic() {
        let net: LiveNet<u32> = LiveNet::new();
        let rx = net.register(n(1));
        net.crash(n(1));
        assert!(!net.send(n(0), n(1), 1));
        assert!(rx.recv().is_err(), "inbox sender dropped on crash");
        assert!(net.is_crashed(n(1)));
        // A crashed node cannot send either.
        let _rx2 = net.register(n(2));
        assert!(!net.send(n(1), n(2), 1));
    }

    #[test]
    fn sever_after_delivers_a_budget_then_goes_dead() {
        let net: LiveNet<u32> = LiveNet::new();
        let rx = net.register(n(1));
        net.sever_after(n(0), n(1), 2);
        assert!(net.send(n(0), n(1), 1));
        assert!(net.send(n(0), n(1), 2));
        assert!(!net.send(n(0), n(1), 3), "budget exhausted");
        assert!(!net.send(n(0), n(1), 4), "stays dead");
        // Other links are unaffected.
        let rx2 = net.register(n(2));
        assert!(net.send(n(0), n(2), 9));
        assert_eq!(rx.try_recv().unwrap().1, 1);
        assert_eq!(rx.try_recv().unwrap().1, 2);
        assert!(rx.try_recv().is_err());
        assert_eq!(rx2.try_recv().unwrap().1, 9);
        // heal() clears the cut.
        net.heal(n(0), n(1));
        assert!(net.send(n(0), n(1), 5));
    }

    #[test]
    fn restart_clears_crash_stop_for_a_new_incarnation() {
        let net: LiveNet<u32> = LiveNet::new();
        let _old = net.register(n(1));
        net.crash(n(1));
        assert!(!net.send(n(0), n(1), 1));
        net.restart(n(1));
        assert!(!net.is_crashed(n(1)));
        // Still unreachable until the new incarnation registers…
        assert!(!net.send(n(0), n(1), 2));
        let fresh = net.register(n(1));
        assert!(net.send(n(0), n(1), 3));
        // …and the fresh inbox holds only post-restart traffic.
        assert_eq!(fresh.try_recv().unwrap().1, 3);
        assert!(fresh.try_recv().is_err());
    }

    #[test]
    fn crash_all_takes_down_every_registered_node() {
        let net: LiveNet<u32> = LiveNet::new();
        let rx1 = net.register(n(1));
        let rx2 = net.register(n(2));
        net.crash_all();
        assert!(net.is_crashed(n(1)) && net.is_crashed(n(2)));
        assert!(!net.send(n(1), n(2), 7), "crashed nodes cannot talk");
        assert!(rx1.recv().is_err() && rx2.recv().is_err());
        // A node restarted after the blackout registers a fresh inbox.
        net.restart(n(1));
        let fresh = net.register(n(1));
        net.restart(n(2));
        let _ = net.register(n(2));
        assert!(net.send(n(2), n(1), 9));
        assert_eq!(fresh.recv().unwrap().1, 9);
        // Nodes registered after the blackout are unaffected by it.
        let rx3 = net.register(n(3));
        assert!(net.send(n(1), n(3), 1));
        assert_eq!(rx3.recv().unwrap().1, 1);
    }

    #[test]
    fn total_loss_fault_drops_everything() {
        let net: LiveNet<u32> = LiveNet::new();
        let _rx = net.register(n(1));
        net.inject(n(0), n(1), LinkFault::loss(1.0));
        assert!(!net.send(n(0), n(1), 1));
        net.heal(n(0), n(1));
        assert!(net.send(n(0), n(1), 2));
    }

    #[test]
    fn delay_fault_delays_but_delivers() {
        let net: LiveNet<u32> = LiveNet::new();
        let rx = net.register(n(1));
        net.inject(n(0), n(1), LinkFault::delay(Duration::from_millis(20)));
        let started = std::time::Instant::now();
        assert!(net.send(n(0), n(1), 5));
        assert_eq!(rx.recv().unwrap().1, 5);
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    /// `admit` is the whole filter `send` applies, usable without an
    /// inbox: a peer reached by direct call sees the same faults.
    #[test]
    fn admit_applies_every_fault_without_an_inbox() {
        let net: LiveNet<u32> = LiveNet::new();
        assert_eq!(net.admit(n(0), n(1)), Some(Duration::ZERO));
        net.inject(n(0), n(1), LinkFault::delay(Duration::from_millis(7)));
        assert_eq!(net.admit(n(0), n(1)), Some(Duration::from_millis(7)));
        net.inject(n(0), n(1), LinkFault::loss(1.0));
        assert_eq!(net.admit(n(0), n(1)), None);
        net.heal(n(0), n(1));
        net.sever_after(n(0), n(1), 1);
        assert!(
            net.admit(n(0), n(1)).is_some(),
            "the cut's budget passes one"
        );
        assert_eq!(net.admit(n(0), n(1)), None, "then the link is dead");
        assert!(net.admit(n(1), n(0)).is_some(), "cuts are directed");
        net.crash(n(2));
        assert_eq!(net.admit(n(0), n(2)), None);
        assert_eq!(net.admit(n(2), n(0)), None);
        net.restart(n(2));
        assert!(net.admit(n(2), n(0)).is_some());
        net.shutdown();
        assert_eq!(net.admit(n(1), n(0)), None);
    }

    #[test]
    fn shutdown_unblocks_receivers() {
        let net: LiveNet<u32> = LiveNet::new();
        let rx = net.register(n(1));
        let net2 = net.clone();
        let waiter = thread::spawn(move || rx.recv().is_err());
        thread::sleep(Duration::from_millis(10));
        net2.shutdown();
        assert!(waiter.join().unwrap(), "recv unblocked with disconnect");
        assert!(!net.send(n(0), n(1), 1));
    }

    #[test]
    fn gateway_sees_only_unhosted_destinations() {
        let net: LiveNet<u32> = LiveNet::new();
        let local = net.register(n(1));
        let seen = Arc::new(RwLock::new(Vec::new()));
        let log = Arc::clone(&seen);
        net.set_gateway(Arc::new(move |from, to, msg: &u32| {
            log.write().push((from, to, *msg));
            true
        }));
        // Local inbox wins: the gateway never sees this send.
        assert!(net.send(n(0), n(1), 7));
        assert_eq!(local.recv().unwrap().1, 7);
        // Unhosted destination: routed through the gateway.
        assert!(net.send(n(0), n(9), 8));
        assert_eq!(*seen.read(), vec![(n(0), n(9), 8)]);
        // deliver() injects locally and never consults the gateway.
        assert!(net.deliver(n(9), n(1), 5));
        assert_eq!(local.recv().unwrap(), (n(9), 5));
        assert!(!net.deliver(n(9), n(42), 5), "no local inbox");
        assert_eq!(seen.read().len(), 1);
    }

    #[test]
    fn clones_share_the_registry() {
        let net: LiveNet<u32> = LiveNet::new();
        let clone = net.clone();
        let rx = clone.register(n(3));
        assert!(net.send(n(0), n(3), 9));
        assert_eq!(rx.recv().unwrap().1, 9);
    }

    #[test]
    fn many_senders_one_receiver() {
        let net: LiveNet<u64> = LiveNet::new();
        let rx = net.register(n(0));
        let mut handles = Vec::new();
        for t in 1..=8u64 {
            let net = net.clone();
            handles.push(thread::spawn(move || {
                for i in 0..100u64 {
                    assert!(net.send(n(t), n(0), t * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = 0;
        while rx.try_recv().is_ok() {
            got += 1;
        }
        assert_eq!(got, 800);
    }
}
