//! Workspace-level integration tests: the paper's two services running on
//! the full stack (client proxy → C-G → Paxos-backed multicast →
//! deterministic merge → worker threads → service), checked for agreement
//! across engines and linearizability of concurrent histories.

use psmr_suite::common::SystemConfig;
use psmr_suite::core::engines::{Engine, NoRepEngine, PsmrEngine, SmrEngine, SpSmrEngine};
use psmr_suite::kvstore::{fine_dependency_spec, KvOp, KvResult, LockedKvEngine};
use psmr_suite::sim::check::{assert_linearizable, client_session, kv, KEYS};
use std::sync::Arc;
use std::time::Instant;

fn cfg(mpl: usize) -> SystemConfig {
    let mut cfg = SystemConfig::new(mpl);
    cfg.replicas(2);
    cfg
}

/// The reserved CHECKPOINT command is `Global` under both services'
/// C-Dep, though neither declares it, so the P-SMR client sink sends it
/// on `g_all`, whose destination set is all groups: the whole replica
/// quiesces at the checkpoint's cut.
#[test]
fn checkpoint_is_global_under_every_service_c_dep() {
    use psmr_suite::core::CommandClass;
    use psmr_suite::recovery::CHECKPOINT;
    for map in [
        fine_dependency_spec().into_map(),
        psmr_suite::netfs::dependency_spec().into_map(),
    ] {
        assert_eq!(map.class(CHECKPOINT), CommandClass::Global);
        for mpl in [1, 2, 4] {
            let dests = map.destinations(CHECKPOINT, &[], mpl);
            assert_eq!(dests.groups().len(), mpl, "all groups at mpl {mpl}");
        }
    }
}

/// The same deterministic script must yield identical responses on every
/// engine (they implement the same sequential service).
#[test]
fn all_engines_agree_on_a_sequential_script() {
    let script: Vec<KvOp> = (0..200u64)
        .map(|i| match i % 5 {
            0 => KvOp::Insert {
                key: 1000 + i,
                value: i,
            },
            1 => KvOp::Read { key: i % 50 },
            2 => KvOp::Update {
                key: i % 50,
                value: i * 7,
            },
            3 => KvOp::Read { key: 1000 + i - 3 },
            _ => KvOp::Delete { key: 1000 + i - 4 },
        })
        .collect();

    let run = |mut client: psmr_suite::core::ClientProxy| -> Vec<KvResult> {
        script.iter().map(|op| kv(&mut client, *op)).collect()
    };

    let map = fine_dependency_spec().into_map();
    let factory = || psmr_suite::kvstore::KvService::with_keys(50);

    let smr = SmrEngine::spawn(&cfg(1), factory);
    let expected = run(smr.client());
    smr.shutdown();

    let psmr = PsmrEngine::spawn(&cfg(4), map.clone(), factory);
    assert_eq!(run(psmr.client()), expected, "P-SMR diverged from SMR");
    psmr.shutdown();

    let spsmr = SpSmrEngine::spawn(&cfg(4), map.clone(), factory);
    assert_eq!(run(spsmr.client()), expected, "sP-SMR diverged from SMR");
    spsmr.shutdown();

    let norep = NoRepEngine::spawn(&cfg(4), map, factory);
    assert_eq!(run(norep.client()), expected, "no-rep diverged from SMR");
    norep.shutdown();

    let bdb = LockedKvEngine::spawn(4, 50);
    assert_eq!(run(bdb.client()), expected, "BDB diverged from SMR");
    bdb.shutdown();
}

/// Concurrent multi-client store traffic over P-SMR is linearizable
/// per key (the §IV-E claim, checked with the Wing&Gong searcher).
#[test]
fn psmr_kvstore_history_is_linearizable() {
    let engine = Arc::new(PsmrEngine::spawn(
        &cfg(4),
        fine_dependency_spec().into_map(),
        || psmr_suite::kvstore::KvService::with_keys(KEYS),
    ));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..5u64 {
        let client = engine.client();
        handles.push(std::thread::spawn(move || {
            client_session(client, c, 40, t0)
        }));
    }
    let mut records = Vec::new();
    for h in handles {
        records.extend(h.join().unwrap());
    }
    assert_linearizable(records);
    match Arc::try_unwrap(engine) {
        Ok(engine) => engine.shutdown(),
        Err(_) => panic!("clients still hold the engine"),
    }
}

/// Deadlock-freedom (§IV-E): a burst of interleaved global and keyed
/// commands from many clients completes without wedging.
#[test]
fn psmr_dependent_burst_makes_progress() {
    let engine = Arc::new(PsmrEngine::spawn(
        &cfg(6),
        fine_dependency_spec().into_map(),
        || psmr_suite::kvstore::KvService::with_keys(100),
    ));
    let mut handles = Vec::new();
    for c in 0..6u64 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut client = engine.client();
            for i in 0..60u64 {
                match i % 3 {
                    0 => {
                        kv(
                            &mut client,
                            KvOp::Insert {
                                key: 10_000 + c * 100 + i,
                                value: i,
                            },
                        );
                    }
                    1 => {
                        kv(
                            &mut client,
                            KvOp::Delete {
                                key: 10_000 + c * 100 + i - 1,
                            },
                        );
                    }
                    _ => {
                        kv(
                            &mut client,
                            KvOp::Update {
                                key: i % 100,
                                value: i,
                            },
                        );
                    }
                }
            }
        }));
    }
    // A watchdog bounds the test: if Algorithm 1 deadlocked, joins would
    // hang and the harness timeout would fire; finishing is the assertion.
    for h in handles {
        h.join().unwrap();
    }
    match Arc::try_unwrap(engine) {
        Ok(engine) => engine.shutdown(),
        Err(_) => panic!("clients still hold the engine"),
    }
}

/// The store stays consistent across a mix of every command type issued
/// through different clients: final reads agree with a serial model run.
#[test]
fn psmr_final_state_matches_observed_acks() {
    let engine = PsmrEngine::spawn(&cfg(3), fine_dependency_spec().into_map(), || {
        psmr_suite::kvstore::KvService::with_keys(0)
    });
    let mut client = engine.client();
    // Inserts either succeed or report Err (already present) — never both
    // succeed for the same key across two clients.
    let mut client2 = engine.client();
    let mut acked = 0;
    for k in 0..50u64 {
        let a = kv(&mut client, KvOp::Insert { key: k, value: 1 });
        let b = kv(&mut client2, KvOp::Insert { key: k, value: 2 });
        match (a, b) {
            (KvResult::Ok, KvResult::Err) | (KvResult::Err, KvResult::Ok) => acked += 1,
            other => panic!("key {k}: double-accepted insert {other:?}"),
        }
    }
    assert_eq!(acked, 50);
    // Every key present exactly once; value is whichever insert won.
    for k in 0..50u64 {
        match kv(&mut client, KvOp::Read { key: k }) {
            KvResult::Value(v) => assert!(v == 1 || v == 2, "key {k} has value {v}"),
            other => panic!("key {k}: {other:?}"),
        }
    }
    drop((client, client2));
    engine.shutdown();
}
