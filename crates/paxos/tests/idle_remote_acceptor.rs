//! An idle remote acceptor sleeps: its thread blocks on its inbox with no
//! timer, and its shutdown disconnects that inbox instead of waiting for
//! a timeout.
//!
//! Its own test binary: it reads this process's one `racceptor-*` thread
//! from `/proc/self/task`, so no other test may run remote acceptors
//! alongside.

use psmr_netsim::live::LiveNet;
use psmr_paxos::runtime::{acceptor_node, coordinator_node, RemoteAcceptor};
use psmr_paxos::{Ballot, NetMsg, PaxosMsg};
use std::time::{Duration, Instant};

/// Voluntary context switches of this process's `racceptor-*` thread,
/// from `/proc/self/task/<tid>/status`.
fn acceptor_switches() -> u64 {
    let task = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|t| t.ok())
        .find(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|c| c.trim().starts_with("racceptor-"))
        })
        .expect("one racceptor thread");
    let status = std::fs::read_to_string(task.path().join("status")).expect("task status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("voluntary_ctxt_switches")
}

#[test]
fn an_idle_remote_acceptor_sleeps_and_stops_at_once() {
    let net: LiveNet<NetMsg> = LiveNet::new();
    let coordinator = net.register(coordinator_node(0));
    let acceptor = RemoteAcceptor::spawn(0, 1, net.clone());
    // One vote first: the thread is up and back on its inbox.
    assert!(net.send(
        coordinator_node(0),
        acceptor_node(0, 1),
        PaxosMsg::Prepare {
            ballot: Ballot::new(1, 0),
            from_instance: 0,
        },
    ));
    let (_, reply) = coordinator
        .recv_timeout(Duration::from_secs(5))
        .expect("the acceptor votes");
    assert!(matches!(reply, PaxosMsg::Promise { .. }), "{reply:?}");

    let before = acceptor_switches();
    std::thread::sleep(Duration::from_millis(500));
    let switches = acceptor_switches() - before;
    assert!(
        switches < 3,
        "an idle acceptor woke {switches} times in 500 ms"
    );

    let started = Instant::now();
    acceptor.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    assert!(
        !net.send(
            coordinator_node(0),
            acceptor_node(0, 1),
            PaxosMsg::Prepare {
                ballot: Ballot::new(2, 0),
                from_instance: 0,
            },
        ),
        "a stopped acceptor is unreachable"
    );
}
