//! A round that cannot close must park the ordering thread, not spin it.
//!
//! Its own test binary: the census reads this process's one
//! `order-rounds` thread from `/proc/self/task`, so no other test may run
//! lockstep groups alongside.

use bytes::Bytes;
use crossbeam::channel::Receiver;
use psmr_common::runtime::Runtime;
use psmr_common::SystemConfig;
use psmr_netsim::live::LinkFault;
use psmr_paxos::runtime::{acceptor_node, coordinator_node, LockstepGroups, WalMode};
use psmr_paxos::DecidedBatch;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// CPU time (user + system) of this process's `order-rounds` thread,
/// from `/proc/self/task/<tid>/stat`, at the kernel's 100 Hz tick.
fn ordering_cpu() -> Duration {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let task = tasks
        .filter_map(|t| t.ok())
        .find(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim() == "order-rounds")
        })
        .expect("one order-rounds thread");
    let stat = std::fs::read_to_string(task.path().join("stat")).expect("task stat");
    // Fields after the parenthesised name start at field 3 (`state`);
    // utime and stime are fields 14 and 15.
    let fields: Vec<u64> = stat[stat.rfind(')').expect("comm") + 2..]
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Duration::from_millis((fields[10] + fields[11]) * 10)
}

fn drain(sub: &Receiver<Arc<DecidedBatch>>, into: &mut Vec<u32>) {
    while let Ok(batch) = sub.try_recv() {
        into.extend(
            batch
                .commands
                .iter()
                .map(|c| u32::from_le_bytes(c[..4].try_into().expect("payload"))),
        );
    }
}

fn next_seqs(groups: &LockstepGroups) -> Vec<u64> {
    groups.handles().iter().map(|g| g.next_seq()).collect()
}

#[test]
fn a_round_without_quorum_parks_the_ordering_thread() {
    let mut cfg = SystemConfig::new(2);
    cfg.skip_interval(Duration::from_millis(1));
    let groups = LockstepGroups::spawn(&cfg, &Runtime::real(), vec![WalMode::None; 3]);
    let subs: Vec<_> = groups.handles().iter().map(|g| g.subscribe()).collect();
    for g in groups.handles() {
        g.start();
    }
    let (healthy, cut) = (&groups.handles()[0], &groups.handles()[1]);
    // Cut two of group 1's three acceptor links: its next round can never
    // reach a quorum, so no group may move past it.
    for a in 0..2 {
        cut.net().inject(
            coordinator_node(1),
            acceptor_node(1, a),
            LinkFault::loss(1.0),
        );
    }
    std::thread::sleep(Duration::from_millis(50));
    let mut got: Vec<Vec<u32>> = vec![Vec::new(); 3];
    for (sub, got) in subs.iter().zip(&mut got) {
        drain(sub, got);
    }
    let stuck = next_seqs(&groups);
    for i in 0..20u32 {
        healthy.submit(Bytes::from(i.to_le_bytes().to_vec()));
        cut.submit(Bytes::from(i.to_le_bytes().to_vec()));
    }
    let cpu_before = ordering_cpu();
    let window = Instant::now();
    assert!(
        subs[1].recv_timeout(Duration::from_millis(500)).is_err(),
        "the cut group delivered without a quorum"
    );
    let cpu = ordering_cpu() - cpu_before;
    assert!(window.elapsed() >= Duration::from_millis(500));
    assert_eq!(
        next_seqs(&groups),
        stuck,
        "a group moved past the stuck round"
    );
    assert!(
        stuck.iter().max() <= Some(&(stuck[1] + 1)),
        "groups left lockstep: {stuck:?}"
    );
    assert!(
        cpu < Duration::from_millis(50),
        "the ordering thread burned {cpu:?} in 500 ms on a round it cannot close"
    );

    for a in 0..2 {
        cut.net().heal(coordinator_node(1), acceptor_node(1, a));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while got[0].len() < 20 || got[1].len() < 20 {
        assert!(Instant::now() < deadline, "no progress after heal: {got:?}");
        for (sub, got) in subs.iter().zip(&mut got) {
            drain(sub, got);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(got[0], (0..20).collect::<Vec<_>>());
    assert_eq!(got[1], (0..20).collect::<Vec<_>>());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        for (sub, got) in subs.iter().zip(&mut got) {
            drain(sub, got);
        }
        let seqs = next_seqs(&groups);
        if seqs.iter().all(|s| *s == seqs[0]) && seqs[0] > stuck[1] + 1 {
            break;
        }
        assert!(Instant::now() < deadline, "groups left lockstep: {seqs:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    groups.shutdown();
}
