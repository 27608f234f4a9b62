//! Crash/recovery integration tests for the checkpoint subsystem
//! (`psmr-recovery`): a replica crashed under a live kvstore workload
//! rejoins from `(latest checkpoint, retained log suffix)` and converges
//! to byte-identical service state, while the client-observed history
//! stays linearizable; engines keep committing when one acceptor of a
//! Paxos group crash-stops; checkpoints keep the ordered logs trimmed;
//! restarts recover **disk-first with peer fallback** (own durable
//! snapshot, then chunked state transfer from a live peer) and survive a
//! peer crashing mid-transfer.

use psmr_suite::common::ids::{GroupId, ReplicaId};
use psmr_suite::common::metrics::{counters, global};
use psmr_suite::common::SystemConfig;
use psmr_suite::core::engines::{
    Engine, NoRepEngine, PsmrEngine, RecoverySource, ReplicatedEngine, SmrEngine, SpSmrEngine,
};
use psmr_suite::core::ClientProxy;
use psmr_suite::kvstore::{fine_dependency_spec, KvOp, KvResult, KvService};
use psmr_suite::recovery::{RecoveryError, TransferError};
use psmr_suite::sim::check::{
    assert_linearizable, await_checkpoint, client_session, kv, unique_dir, KEYS,
};
use std::time::{Duration, Instant};

fn cfg(mpl: usize) -> SystemConfig {
    let mut cfg = SystemConfig::new(mpl);
    cfg.replicas(2)
        .checkpoint_interval(Some(Duration::from_millis(20)));
    cfg
}

/// Polls until both replicas' deterministic snapshots are byte-identical
/// (the shared helper keyed by raw replica index).
fn await_convergence(
    service_of: impl Fn(
        ReplicaId,
    )
        -> Option<std::sync::Arc<dyn psmr_suite::core::service::RecoverableService>>,
) {
    psmr_suite::sim::check::await_convergence(|r| service_of(ReplicaId::new(r)));
}

/// The acceptance scenario for P-SMR: crash replica 1 while 4 clients
/// hammer the store, restart it from the latest coordinated checkpoint,
/// and verify (a) the surviving replica kept the history linearizable
/// throughout, and (b) the restarted replica replays the retained log
/// suffix into byte-identical state.
#[test]
fn psmr_replica_crashes_and_rejoins_from_checkpoint() {
    let restarts_before = global().value(counters::REPLICA_RESTARTS);
    let mut engine =
        PsmrEngine::spawn_recoverable(&cfg(4), fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        });
    let store = engine.checkpoint_store().expect("recoverable deployment");
    let t0 = Instant::now();
    let handles: Vec<_> = (0..4u64)
        .map(|c| {
            let client = engine.client();
            std::thread::spawn(move || client_session(client, c, 40, t0))
        })
        .collect();

    await_checkpoint(&store);
    engine.crash_replica(ReplicaId::new(1)).expect("crash");
    assert!(engine.is_crashed(ReplicaId::new(1)));
    // The deployment keeps serving on the surviving replica while one
    // replica is down; give the workload time to make progress into the
    // retained log suffix the restart must replay.
    std::thread::sleep(Duration::from_millis(50));
    let report = engine.restart_replica(ReplicaId::new(1)).expect("restart");
    assert!(!engine.is_crashed(ReplicaId::new(1)));
    // No snapshot directory: the checkpoints replica 1 missed while down
    // reach it by state transfer from the one live peer.
    assert_eq!(report.source, RecoverySource::Peer(0), "{report:?}");
    assert!(report.checkpoint_id >= 1);

    let mut records = Vec::new();
    for h in handles {
        records.extend(h.join().unwrap());
    }
    assert_linearizable(records);
    await_convergence(|r| engine.replica_service(r));
    assert!(store.latest_id() >= 1);
    assert!(global().value(counters::REPLICA_RESTARTS) > restarts_before);
    engine.shutdown();
}

/// The same crash/restart scenario on classical SMR, whose single
/// executor makes every point between two commands a consistent cut.
#[test]
fn smr_replica_crashes_and_rejoins_from_checkpoint() {
    let mut engine = SmrEngine::spawn_recoverable(&cfg(1), || KvService::with_keys(KEYS));
    let store = engine.checkpoint_store().expect("recoverable deployment");
    let t0 = Instant::now();
    let handles: Vec<_> = (0..3u64)
        .map(|c| {
            let client = engine.client();
            std::thread::spawn(move || client_session(client, c, 40, t0))
        })
        .collect();

    await_checkpoint(&store);
    engine.crash_replica(ReplicaId::new(1)).expect("crash");
    std::thread::sleep(Duration::from_millis(50));
    engine.restart_replica(ReplicaId::new(1)).expect("restart");

    let mut records = Vec::new();
    for h in handles {
        records.extend(h.join().unwrap());
    }
    assert_linearizable(records);
    await_convergence(|r| engine.replica_service(r));
    engine.shutdown();
}

/// sP-SMR (the CBASE-style scheduler baseline) supports the same
/// crash/restart cycle through the shared subsystem.
#[test]
fn spsmr_replica_crashes_and_rejoins_from_checkpoint() {
    let mut engine =
        SpSmrEngine::spawn_recoverable(&cfg(3), fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        });
    let store = engine.checkpoint_store().expect("recoverable deployment");
    let t0 = Instant::now();
    let handles: Vec<_> = (0..3u64)
        .map(|c| {
            let client = engine.client();
            std::thread::spawn(move || client_session(client, c, 40, t0))
        })
        .collect();

    await_checkpoint(&store);
    engine.crash_replica(ReplicaId::new(1)).expect("crash");
    std::thread::sleep(Duration::from_millis(50));
    engine.restart_replica(ReplicaId::new(1)).expect("restart");

    let mut records = Vec::new();
    for h in handles {
        records.extend(h.join().unwrap());
    }
    assert_linearizable(records);
    await_convergence(|r| engine.replica_service(r));
    engine.shutdown();
}

/// Engine-level Paxos fault tolerance: with 3 acceptors per group, every
/// ordered engine keeps committing after one acceptor of its ordering
/// group crash-stops mid-run (previously only `paxos/tests/faults.rs`
/// exercised this, below the engine layer).
#[test]
fn engines_keep_committing_with_one_acceptor_down() {
    let map = fine_dependency_spec().into_map();
    let factory = || KvService::with_keys(KEYS);

    let run_half = |client: &mut ClientProxy, base: u64| {
        for i in 0..20u64 {
            let key = (base + i) % KEYS;
            assert_eq!(
                kv(
                    client,
                    KvOp::Update {
                        key,
                        value: base + i
                    }
                ),
                KvResult::Ok,
                "update {i} after base {base}"
            );
        }
    };

    // P-SMR: crash an acceptor of a worker group and one of g_all.
    let config = cfg(3);
    let engine = PsmrEngine::spawn(&config, map.clone(), factory);
    let mut client = engine.client();
    run_half(&mut client, 0);
    engine.crash_acceptor(GroupId::new(0), 2);
    engine.crash_acceptor(config.all_group(), 2);
    run_half(&mut client, 100);
    drop(client);
    engine.shutdown();

    // SMR: single ordering group.
    let engine = SmrEngine::spawn(&cfg(1), factory);
    let mut client = engine.client();
    run_half(&mut client, 0);
    engine.crash_acceptor(GroupId::new(0), 2);
    run_half(&mut client, 100);
    drop(client);
    engine.shutdown();

    // sP-SMR: single ordering group feeding the scheduler.
    let engine = SpSmrEngine::spawn(&cfg(3), map, factory);
    let mut client = engine.client();
    run_half(&mut client, 0);
    engine.crash_acceptor(GroupId::new(0), 2);
    run_half(&mut client, 100);
    drop(client);
    engine.shutdown();
}

/// Checkpoints bound memory: the ordered-delivery logs retained for
/// catch-up are trimmed down to the latest checkpoint's cut.
#[test]
fn checkpoints_trim_retained_ordered_logs() {
    let taken_before = global().value(counters::CHECKPOINTS_TAKEN);
    let mut config = cfg(2);
    config.replicas(1).checkpoint_interval(None); // explicit checkpoints only
    let engine = PsmrEngine::spawn_recoverable(&config, fine_dependency_spec().into_map(), || {
        KvService::with_keys(KEYS)
    });
    let mut client = engine.client();
    // Sequential closed-loop traffic: every command lands in its own batch,
    // so the per-group logs grow with the run.
    for i in 0..120u64 {
        assert_eq!(
            kv(
                &mut client,
                KvOp::Update {
                    key: i % KEYS,
                    value: i
                }
            ),
            KvResult::Ok
        );
    }
    let groups: Vec<GroupId> = (0..2)
        .map(GroupId::new)
        .chain([config.all_group()])
        .collect();
    let retained_before: usize = groups.iter().map(|g| engine.retained_len(*g)).sum();
    assert!(
        retained_before >= 100,
        "logs grew with the workload: {retained_before}"
    );

    let resp = client.execute(psmr_suite::recovery::CHECKPOINT, Vec::new());
    let id = u64::from_le_bytes(resp[..8].try_into().expect("checkpoint id"));
    assert!(id >= 1, "checkpoint response carries its id");
    let retained_after: usize = groups.iter().map(|g| engine.retained_len(*g)).sum();
    assert!(
        retained_after < retained_before / 2,
        "trim reclaimed the covered prefix ({retained_before} -> {retained_after})"
    );
    assert!(global().value(counters::CHECKPOINTS_TAKEN) > taken_before);
    drop(client);
    engine.shutdown();
}

/// Crashing a replica of an *idle* deployment returns promptly: no
/// batch arrives to wake its parked workers, so the crash itself must
/// wake them (it stops their merged streams) — no poll timer does.
#[test]
fn crash_replica_returns_promptly_on_an_idle_deployment() {
    let mut config = cfg(4);
    config.checkpoint_interval(None);
    let mut engine =
        PsmrEngine::spawn_recoverable(&config, fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        });
    std::thread::sleep(Duration::from_millis(30)); // let the workers park
    let started = Instant::now();
    engine.crash_replica(ReplicaId::new(1)).expect("crash");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "idle crash took {:?}",
        started.elapsed()
    );
    engine.shutdown();
}

/// The no-rep baseline honors `checkpoint_interval` like every other
/// recoverable engine: checkpoints happen without any client submitting
/// CHECKPOINT commands.
#[test]
fn norep_auto_checkpoints_at_the_configured_interval() {
    let mut config = SystemConfig::new(2);
    config
        .replicas(1)
        .checkpoint_interval(Some(Duration::from_millis(10)));
    let engine = NoRepEngine::spawn_recoverable(&config, fine_dependency_spec().into_map(), || {
        KvService::with_keys(KEYS)
    });
    let store = engine.checkpoint_store().expect("recoverable deployment");
    await_checkpoint(&store);
    assert!(store.latest_id() >= 1);
    engine.shutdown();
}

/// The recovery API refuses nonsensical transitions with typed errors,
/// on every replicated technique.
#[test]
fn recovery_api_contract_errors() {
    let mut config = cfg(2);
    config.checkpoint_interval(None);
    let map = || fine_dependency_spec().into_map();
    let factory = || KvService::with_keys(KEYS);
    assert_contract_errors(PsmrEngine::spawn_recoverable(&config, map(), factory));
    assert_contract_errors(SmrEngine::spawn_recoverable(&config, factory));
    assert_contract_errors(SpSmrEngine::spawn_recoverable(&config, map(), factory));

    // Non-recoverable deployments refuse restart outright.
    assert_restart_not_recoverable(PsmrEngine::spawn(&cfg(2), map(), factory));
    assert_restart_not_recoverable(SmrEngine::spawn(&cfg(2), factory));
    assert_restart_not_recoverable(SpSmrEngine::spawn(&cfg(2), map(), factory));
}

fn assert_contract_errors<T>(mut engine: ReplicatedEngine<T>) {
    assert_eq!(
        engine.crash_replica(ReplicaId::new(7)),
        Err(RecoveryError::UnknownReplica { replica: 7 })
    );
    assert_eq!(
        engine.restart_replica(ReplicaId::new(0)),
        Err(RecoveryError::NotCrashed)
    );
    engine.crash_replica(ReplicaId::new(1)).expect("crash");
    // No checkpoint was ever taken: the live peer answers the fetch with
    // NotFound, there is no disk snapshot, and the replica cannot come
    // back — typed as a failed transfer across every attempted peer.
    assert_eq!(
        engine.restart_replica(ReplicaId::new(1)),
        Err(RecoveryError::Transfer(TransferError::AllPeersFailed {
            attempted: 1
        }))
    );
    engine.shutdown();
}

fn assert_restart_not_recoverable<T>(mut plain: ReplicatedEngine<T>) {
    plain
        .crash_replica(ReplicaId::new(1))
        .expect("crash works without recovery");
    assert_eq!(
        plain.restart_replica(ReplicaId::new(1)),
        Err(RecoveryError::NotRecoverable)
    );
    plain.shutdown();
}

/// The acceptance scenario for durable recovery, modeling a replica
/// killed and restarted as a fresh process: its in-memory state is gone,
/// its disk survives. Phase A restarts while the retained logs still
/// cover the replica's own disk snapshot — recovery is local
/// (`RecoverySource::Disk`) plus log replay. Phase B crashes it again
/// and checkpoints past it, trimming the logs its disk snapshot needs —
/// recovery falls back to chunked peer state transfer
/// (`RecoverySource::Peer`) plus log replay. Clients hammer the store
/// throughout; the observed history must stay linearizable and the
/// restarted replica must converge to byte-identical state.
#[test]
fn psmr_fresh_process_recovers_from_disk_then_catches_up_from_peers() {
    let dir = unique_dir("psmr-durable");
    let mut config = cfg(4);
    config
        .checkpoint_interval(None) // explicit checkpoints: the test controls the trims
        .snapshot_dir(Some(dir.clone()))
        .transfer_chunk_bytes(32)
        .transfer_timeout(Duration::from_millis(150));
    let mut engine =
        PsmrEngine::spawn_recoverable(&config, fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        });
    let t0 = Instant::now();
    let handles: Vec<_> = (0..3u64)
        .map(|c| {
            let client = engine.client();
            std::thread::spawn(move || client_session(client, c, 60, t0))
        })
        .collect();

    let mut admin = engine.client();
    let checkpoint = |admin: &mut ClientProxy| {
        let resp = admin.execute(psmr_suite::recovery::CHECKPOINT, Vec::new());
        u64::from_le_bytes(resp[..8].try_into().expect("checkpoint id"))
    };
    // Phase A: checkpoint, wait until replica 1 has persisted it to its
    // own disk (each replica executes the command and persists locally),
    // crash, restart. The logs still cover the disk cut: recovery is
    // local.
    let id = checkpoint(&mut admin);
    assert!(id >= 1);
    let r1_dir = dir.join("r1");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let persisted = std::fs::read_dir(&r1_dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .any(|e| e.path().extension().is_some_and(|x| x == "psmr"))
            })
            .unwrap_or(false);
        if persisted {
            break;
        }
        assert!(Instant::now() < deadline, "replica 1 never persisted");
        std::thread::sleep(Duration::from_millis(5));
    }
    engine.crash_replica(ReplicaId::new(1)).expect("crash");
    std::thread::sleep(Duration::from_millis(30)); // grow the replayable suffix
    let report = engine.restart_replica(ReplicaId::new(1)).expect("restart");
    assert_eq!(
        report.source,
        RecoverySource::Disk,
        "logs still cover the disk cut: recovery must be local ({report:?})"
    );
    assert!(report.disk_checkpoint.is_some());

    // Phase B: crash again, checkpoint on the survivor (trimming the
    // logs past what replica 1's disk covers), restart. Recovery must
    // fetch the fresher checkpoint from the live peer.
    engine.crash_replica(ReplicaId::new(1)).expect("crash");
    let id = checkpoint(&mut admin);
    assert!(id >= 2);
    let report = engine.restart_replica(ReplicaId::new(1)).expect("restart");
    assert_eq!(
        report.source,
        RecoverySource::Peer(0),
        "disk cut was trimmed: recovery must transfer from the peer ({report:?})"
    );
    assert!(global().value(counters::TRANSFERS_COMPLETED) >= 1);
    assert!(global().value(counters::SNAPSHOTS_LOADED) >= 1);

    let mut records = Vec::new();
    for h in handles {
        records.extend(h.join().unwrap());
    }
    assert_linearizable(records);
    await_convergence(|r| engine.replica_service(r));
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mid-transfer peer crash: the first serving peer dies after the offer
/// and one chunk; the fetcher times out and completes the transfer from
/// the fallback peer.
#[test]
fn psmr_restart_survives_a_peer_crashing_mid_transfer() {
    let mut config = cfg(2);
    config
        .replicas(3)
        .checkpoint_interval(None)
        .transfer_chunk_bytes(32) // KEYS*16+8 bytes => several chunks
        .transfer_timeout(Duration::from_millis(120));
    let mut engine =
        PsmrEngine::spawn_recoverable(&config, fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        });
    let mut client = engine.client();
    for i in 0..30u64 {
        assert_eq!(
            kv(
                &mut client,
                KvOp::Update {
                    key: i % KEYS,
                    value: i
                }
            ),
            KvResult::Ok
        );
    }
    let resp = client.execute(psmr_suite::recovery::CHECKPOINT, Vec::new());
    assert!(u64::from_le_bytes(resp[..8].try_into().unwrap()) >= 1);

    engine.crash_replica(ReplicaId::new(2)).expect("crash");
    // Peer 0 (tried first) will die after offer + one chunk.
    engine.sever_transfer_link(ReplicaId::new(0), ReplicaId::new(2), 2);
    let fallbacks_before = global().value(counters::TRANSFER_FALLBACKS);
    let report = engine.restart_replica(ReplicaId::new(2)).expect("restart");
    assert_eq!(
        report.source,
        RecoverySource::Peer(1),
        "transfer must complete on the fallback peer ({report:?})"
    );
    assert_eq!(report.transfer_fallbacks, 1);
    assert!(global().value(counters::TRANSFER_FALLBACKS) > fallbacks_before);

    // The restarted replica serves and converges.
    await_convergence(|r| engine.replica_service(r));
    drop(client);
    engine.shutdown();
}

/// The no-rep baseline's durable half: a server killed and re-spawned
/// over the same snapshot directory cold-starts from its own newest
/// valid snapshot. State checkpointed before the kill survives; the
/// un-checkpointed tail is lost — exactly the availability gap
/// replication closes.
#[test]
fn norep_cold_starts_from_its_own_disk_snapshot() {
    let dir = unique_dir("norep-cold");
    let mut config = SystemConfig::new(2);
    config.replicas(1).snapshot_dir(Some(dir.clone()));

    // First incarnation: write, checkpoint, write more, die.
    let engine = NoRepEngine::spawn_recoverable(&config, fine_dependency_spec().into_map(), || {
        KvService::with_keys(KEYS)
    });
    let mut client = engine.client();
    assert_eq!(
        kv(&mut client, KvOp::Update { key: 1, value: 11 }),
        KvResult::Ok
    );
    let resp = client.execute(psmr_suite::recovery::CHECKPOINT, Vec::new());
    let id = u64::from_le_bytes(resp[..8].try_into().unwrap());
    assert_eq!(id, 1);
    assert_eq!(
        kv(&mut client, KvOp::Update { key: 2, value: 22 }),
        KvResult::Ok,
        "written after the checkpoint: will be lost"
    );
    drop(client);
    engine.shutdown();

    // Second incarnation over the same directory.
    let engine = NoRepEngine::spawn_recoverable(&config, fine_dependency_spec().into_map(), || {
        KvService::with_keys(KEYS)
    });
    let store = engine.checkpoint_store().expect("recoverable");
    assert_eq!(store.latest_id(), 1, "cold-started from checkpoint 1");
    let mut client = engine.client();
    assert_eq!(
        kv(&mut client, KvOp::Read { key: 1 }),
        KvResult::Value(11),
        "checkpointed write survived the process death"
    );
    assert_eq!(
        kv(&mut client, KvOp::Read { key: 2 }),
        KvResult::Value(2),
        "un-checkpointed tail rolled back to the pre-load value"
    );
    // Checkpoint numbering continues across incarnations.
    let resp = client.execute(psmr_suite::recovery::CHECKPOINT, Vec::new());
    assert_eq!(u64::from_le_bytes(resp[..8].try_into().unwrap()), 2);
    drop(client);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for response provenance under the retransmit/restart race:
/// a request submitted right before a replica crash is retransmitted
/// while the replica is down and the replica then restarts, so the same
/// logical command is re-ordered and re-executed — up to four responses
/// head for the proxy. The dedup must release exactly one, and that
/// first release must carry `Response::origin` through to the
/// `Released` trace stamp (finalizing the sampled lifecycle); losing
/// the origin on any response path silently breaks end-to-end latency
/// attribution.
#[test]
fn retransmitted_request_racing_a_restart_keeps_provenance_and_dedup() {
    let trace = psmr_suite::common::trace::global();
    let mut engine =
        PsmrEngine::spawn_recoverable(&cfg(2), fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        });
    let store = engine.checkpoint_store().expect("recoverable deployment");
    let mut client = engine.client();
    // One settled command proves the pipeline is up before sampling
    // starts, so the traced() delta below belongs to the raced request.
    assert_eq!(
        kv(&mut client, KvOp::Update { key: 0, value: 1 }),
        KvResult::Ok
    );
    await_checkpoint(&store);

    let sample_before = trace.sample();
    trace.set_sample(1);
    let traced_before = trace.traced();

    // The race: submit, crash replica 1 (which may or may not have
    // executed the command yet), retransmit into the degraded
    // deployment, then bring the replica back.
    let op = KvOp::Update {
        key: 1,
        value: 4242,
    };
    let id = client.submit(op.command(), op.encode());
    engine.crash_replica(ReplicaId::new(1)).expect("crash");
    assert_eq!(client.retransmit_outstanding(), 1);
    std::thread::sleep(Duration::from_millis(50));
    engine.restart_replica(ReplicaId::new(1)).expect("restart");

    // Exactly one logical response is released …
    let (got, payload) = client.recv_response();
    assert_eq!(got, id);
    assert_eq!(KvResult::decode(&payload), KvResult::Ok);
    assert_eq!(client.outstanding(), 0);
    // … and the duplicates (second replica, retransmitted incarnation)
    // are discarded even after ample time to arrive.
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        client.try_recv_response().is_none(),
        "dedup released a duplicate response"
    );

    // The released response carried its (group, seq) origin into the
    // trace: a sampled lifecycle finalized at Released.
    assert!(
        trace.traced() > traced_before,
        "no lifecycle finalized at Released — Response::origin was lost"
    );

    trace.set_sample(sample_before);
    drop(client);
    engine.shutdown();
}

/// `ChannelSink`-style silent drops and client retransmissions are
/// observable through the metrics registry, so recovery tests (and
/// operators) can tell "lost" from "slow".
#[test]
fn dropped_and_retransmitted_requests_are_observable() {
    let mut config = SystemConfig::new(2);
    config.replicas(1);
    let engine = NoRepEngine::spawn(&config, fine_dependency_spec().into_map(), || {
        KvService::with_keys(KEYS)
    });
    let mut client = engine.client();
    assert_eq!(kv(&mut client, KvOp::Read { key: 1 }), KvResult::Value(1));
    engine.shutdown();

    // The server is gone; submissions vanish into the closed sink — but
    // observably so.
    let dropped_before = global().value(counters::REQUESTS_DROPPED);
    let retrans_before = global().value(counters::REQUESTS_RETRANSMITTED);
    let op = KvOp::Read { key: 2 };
    client.submit(op.command(), op.encode());
    assert!(global().value(counters::REQUESTS_DROPPED) > dropped_before);
    // The client-side failover path re-submits everything outstanding and
    // counts what it re-sent.
    assert_eq!(client.retransmit_outstanding(), 1);
    assert!(global().value(counters::REQUESTS_RETRANSMITTED) > retrans_before);
    assert!(global().value(counters::REQUESTS_DROPPED) >= dropped_before + 2);
}
