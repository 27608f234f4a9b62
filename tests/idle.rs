//! An idle P-SMR deployment does nothing: with no client traffic the
//! ordering thread closes no round, the replica workers and the
//! state-transfer servers stay parked, and a crash or a shutdown still
//! returns at once — nothing polls a stop flag.
//!
//! Its own test binary: it reads every thread of this process from
//! `/proc/self/task`, so no other test may run a deployment alongside.

use psmr_suite::common::cpu::ThreadCensus;
use psmr_suite::common::ids::{GroupId, ReplicaId};
use psmr_suite::common::SystemConfig;
use psmr_suite::core::engines::{Engine, PsmrEngine};
use psmr_suite::kvstore::{fine_dependency_spec, KvOp, KvResult, KvService};
use psmr_suite::sim::check::{kv, KEYS};
use std::time::{Duration, Instant};

const MPL: usize = 3;

#[test]
fn an_idle_deployment_closes_no_round_and_parks_every_thread() {
    let mut cfg = SystemConfig::new(MPL);
    cfg.replicas(2).checkpoint_interval(None);
    let mut engine = PsmrEngine::spawn_recoverable(&cfg, fine_dependency_spec().into_map(), || {
        KvService::with_keys(KEYS)
    });
    let mut client = engine.client();
    assert_eq!(
        kv(&mut client, KvOp::Update { key: 1, value: 7 }),
        KvResult::Ok
    );
    // Let the slower replica take the command too.
    std::thread::sleep(Duration::from_millis(50));

    // Nothing is trimmed without checkpoints, so each group's retained
    // log is its whole stream: it grows by one per round closed.
    let groups = |engine: &PsmrEngine| -> Vec<usize> {
        (0..=MPL)
            .map(|g| engine.retained_len(GroupId::new(g)))
            .collect()
    };
    let rounds = groups(&engine);
    let before = ThreadCensus::take().expect("procfs");
    std::thread::sleep(Duration::from_millis(500));
    let after = ThreadCensus::take().expect("procfs");
    assert_eq!(groups(&engine), rounds, "an idle deployment closed a round");
    // Per role, summed over its threads: the ordering thread, the
    // 2 × MPL workers and one transfer server per replica.
    let roles = after.since(&before);
    for (role, threads) in [
        ("order-rounds", 1),
        ("psmr-r*-t*", 2 * MPL),
        ("xfer-serve-*", 2),
    ] {
        let cost = roles
            .iter()
            .find(|r| r.role == role)
            .unwrap_or_else(|| panic!("no {role} thread: {roles:?}"));
        assert_eq!(cost.threads, threads, "{role}");
        let woke = cost.cost.voluntary_switches;
        assert!(woke < 3, "idle {role} woke {woke} times in 500 ms");
    }

    let started = Instant::now();
    engine.crash_replica(ReplicaId::new(1)).expect("crash");
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "idle crash took {took:?}"
    );

    drop(client);
    let started = Instant::now();
    engine.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
}
