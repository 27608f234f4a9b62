//! Runtime fault injection: groups must keep delivering under degraded
//! acceptor links and after acceptor crashes (f = 1 of 3, §II's failure
//! model), and the stream must stay gap-free throughout.

use bytes::Bytes;
use psmr_common::runtime::Runtime;
use psmr_common::SystemConfig;
use psmr_netsim::live::{LinkFault, LiveNet};
use psmr_paxos::runtime::{acceptor_node, coordinator_node, LockstepGroups, WalMode};
use psmr_paxos::NetMsg;
use std::time::Duration;

/// One group on `net`, every acceptor inline on the ordering thread.
fn spawn_on(net: &LiveNet<NetMsg>) -> LockstepGroups {
    LockstepGroups::spawn_hosted(&test_cfg(), net.clone(), WalMode::None, &[0, 1, 2])
}

fn test_cfg() -> SystemConfig {
    SystemConfig::new(1)
}

fn drain_exactly(
    sub: &crossbeam::channel::Receiver<std::sync::Arc<psmr_paxos::DecidedBatch>>,
    want: usize,
) -> Vec<u32> {
    let mut got = Vec::new();
    let mut expect_seq = 1u64;
    while got.len() < want {
        let batch = sub
            .recv_timeout(Duration::from_secs(10))
            .expect("group keeps delivering under faults");
        assert_eq!(batch.seq, expect_seq, "stream must stay gap-free");
        expect_seq += 1;
        got.extend(
            batch
                .commands
                .iter()
                .map(|c| u32::from_le_bytes(c[..4].try_into().expect("payload"))),
        );
    }
    got
}

#[test]
fn delivers_with_one_lossy_acceptor_link() {
    let net = LiveNet::new();
    let groups = spawn_on(&net);
    let group = &groups.handles()[0];
    let sub = group.subscribe();
    group.start();
    // Coordinator→acceptor-0 link drops everything: quorum {1, 2} remains.
    net.inject(
        coordinator_node(0),
        acceptor_node(0, 0),
        LinkFault::loss(1.0),
    );
    for i in 0..100u32 {
        group.submit(Bytes::from(i.to_le_bytes().to_vec()));
    }
    let got = drain_exactly(&sub, 100);
    assert_eq!(got, (0..100).collect::<Vec<_>>());
    groups.shutdown();
}

#[test]
fn delivers_with_a_slow_acceptor() {
    let net = LiveNet::new();
    let groups = spawn_on(&net);
    let group = &groups.handles()[0];
    let sub = group.subscribe();
    group.start();
    // One acceptor's replies are delayed far beyond a decide; the other
    // two still form a timely quorum.
    net.inject(
        acceptor_node(0, 1),
        coordinator_node(0),
        LinkFault::delay(Duration::from_millis(20)),
    );
    for i in 0..50u32 {
        group.submit(Bytes::from(i.to_le_bytes().to_vec()));
    }
    let got = drain_exactly(&sub, 50);
    assert_eq!(got, (0..50).collect::<Vec<_>>());
    groups.shutdown();
}

#[test]
fn crash_then_heavy_traffic_keeps_fifo_order() {
    let net = LiveNet::new();
    let groups = spawn_on(&net);
    let group = &groups.handles()[0];
    let sub = group.subscribe();
    group.start();
    for i in 0..200u32 {
        group.submit(Bytes::from(i.to_le_bytes().to_vec()));
        if i == 50 {
            net.crash(acceptor_node(0, 2));
        }
    }
    let got = drain_exactly(&sub, 200);
    assert_eq!(got, (0..200).collect::<Vec<_>>());
    groups.shutdown();
}

#[test]
fn round_paced_group_survives_acceptor_crash() {
    let groups = LockstepGroups::spawn(&test_cfg(), &Runtime::real(), vec![WalMode::None; 2]);
    let group = &groups.handles()[0];
    let sub = group.subscribe();
    for g in groups.handles() {
        g.start();
    }
    group.net().crash(acceptor_node(0, 0));
    for i in 0..30u32 {
        group.submit(Bytes::from(i.to_le_bytes().to_vec()));
    }
    let got = drain_exactly(&sub, 30);
    assert_eq!(got, (0..30).collect::<Vec<_>>());
    groups.shutdown();
}

#[test]
fn two_crashed_acceptors_block_progress_until_heal() {
    // With 2 of 3 acceptors unreachable no quorum exists; traffic must NOT
    // be delivered (safety over liveness). We verify no delivery within a
    // grace period, then heal one link and watch the backlog flush.
    let net = LiveNet::new();
    let groups = spawn_on(&net);
    let group = &groups.handles()[0];
    let sub = group.subscribe();
    group.start();
    net.inject(
        coordinator_node(0),
        acceptor_node(0, 0),
        LinkFault::loss(1.0),
    );
    net.inject(
        coordinator_node(0),
        acceptor_node(0, 1),
        LinkFault::loss(1.0),
    );
    for i in 0..10u32 {
        group.submit(Bytes::from(i.to_le_bytes().to_vec()));
    }
    assert!(
        sub.recv_timeout(Duration::from_millis(200)).is_err(),
        "no quorum, no delivery"
    );
    net.heal(coordinator_node(0), acceptor_node(0, 0));
    // New traffic re-proposes; the coordinator retries its open batch only
    // when new submissions arrive, so nudge it.
    for i in 10..20u32 {
        group.submit(Bytes::from(i.to_le_bytes().to_vec()));
    }
    let got = drain_exactly(&sub, 20);
    assert_eq!(got, (0..20).collect::<Vec<_>>());
    groups.shutdown();
}

#[test]
fn slow_colocated_acceptor_is_outvoted_not_waited_on() {
    // Acceptor 1 runs on the coordinator's thread; its replies take 200 ms.
    // The other two form the quorum, so round trips stay fast: a delayed
    // vote waits on the coordinator's due list, never in a sleep on the
    // coordinator thread (which would cost 20 x 200 ms here).
    let net = LiveNet::new();
    let groups = spawn_on(&net);
    let group = &groups.handles()[0];
    let sub = group.subscribe();
    group.start();
    net.inject(
        acceptor_node(0, 1),
        coordinator_node(0),
        LinkFault::delay(Duration::from_millis(200)),
    );
    let started = std::time::Instant::now();
    for i in 0..20u32 {
        group.submit(Bytes::from(i.to_le_bytes().to_vec()));
        let batch = sub
            .recv_timeout(Duration::from_secs(10))
            .expect("the quorum without the slow acceptor decides");
        assert_eq!(batch.seq, u64::from(i) + 1, "stream must stay gap-free");
        assert_eq!(
            &batch.commands[..],
            &[Bytes::from(i.to_le_bytes().to_vec())]
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(1500),
        "20 round trips took {elapsed:?}: the slow acceptor was waited on"
    );
    groups.shutdown();
}
