//! Whole-deployment crash → cold start: the scenario PR 2 left open.
//!
//! Every replica of a loaded deployment is killed at once — no live
//! peer survives to serve a state transfer — and the deployment is
//! cold-started from disk alone: each group's durable write-ahead log
//! (`psmr-wal`) replays the ordered suffix behind the newest durable
//! snapshot, the streams *continue* their pre-crash sequence numbering,
//! and the restarted replicas re-execute everything the dead deployment
//! ever ordered. The client-observed history across both incarnations
//! must stay linearizable — under the *process-crash* fault model these
//! tests exercise (threads die, the OS and its page cache survive),
//! **no acknowledged write is lost**, which is what the in-memory
//! ordered logs of the earlier PRs could not promise. Against power
//! loss the guarantee weakens by the open group-commit window (up to
//! `wal_batch - 1` appends since the last fsync); `wal_batch = 1`
//! closes that window.

use psmr_suite::common::ids::ReplicaId;
use psmr_suite::common::metrics::{counters, global};
use psmr_suite::common::SystemConfig;
use psmr_suite::core::engines::{
    Engine, PsmrEngine, RecoveryReport, RecoverySource, ReplicatedEngine, SmrEngine, SpSmrEngine,
};
use psmr_suite::kvstore::{fine_dependency_spec, KvOp, KvResult, KvService};
use psmr_suite::recovery::RecoveryError;
use psmr_suite::sim::check::{assert_linearizable, client_session, kv, KEYS};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fresh per-test directories for the WAL and the snapshots.
fn unique_dirs(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("psmr-cold-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    (base.join("wal"), base.join("snap"))
}

fn cleanup(tag: &str) {
    let base = std::env::temp_dir().join(format!("psmr-cold-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
}

fn cfg(mpl: usize, tag: &str) -> SystemConfig {
    let (wal, snap) = unique_dirs(tag);
    let mut cfg = SystemConfig::new(mpl);
    cfg.replicas(2)
        .checkpoint_interval(Some(Duration::from_millis(20)))
        .wal_dir(Some(wal))
        .snapshot_dir(Some(snap));
    cfg
}

/// Blocks until every replica's snapshot directory holds at least one
/// published checkpoint file — the precondition for an all-Disk cold
/// start.
fn await_persisted(snap_dir: &std::path::Path, replicas: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let all = (0..replicas).all(|r| {
            std::fs::read_dir(snap_dir.join(format!("r{r}")))
                .map(|entries| {
                    entries
                        .filter_map(|e| e.ok())
                        .any(|e| e.path().extension().is_some_and(|x| x == "psmr"))
                })
                .unwrap_or(false)
        });
        if all {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "checkpoints never reached every replica's disk"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
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

/// The acceptance scenario: kill every replica of a loaded P-SMR
/// deployment, cold-start all of them from disk with **no surviving
/// peer**, converge, keep serving, and pass the linearizability check
/// across both incarnations.
#[test]
fn psmr_whole_deployment_cold_starts_from_disk_under_load() {
    let config = cfg(4, "psmr");
    let snap_dir = config.snapshot_dir.clone().expect("configured");
    let cold_starts_before = global().value(counters::COLD_STARTS);
    let t0 = Instant::now();

    // Incarnation 1: load the deployment, let checkpoints reach both
    // disks, and keep traffic flowing right up to the blackout.
    let mut engine =
        PsmrEngine::spawn_recoverable(&config, fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        });
    let handles: Vec<_> = (0..3u64)
        .map(|c| {
            let client = engine.client();
            std::thread::spawn(move || client_session(client, c, 40, t0))
        })
        .collect();
    let mut records = Vec::new();
    for h in handles {
        records.extend(h.join().unwrap());
    }
    await_persisted(&snap_dir, 2);
    // In-flight fire-and-forget traffic at the moment of the blackout
    // (to an untracked key, so the checker only sees acknowledged ops).
    let mut doomed = engine.client();
    for i in 0..20u64 {
        doomed.submit(
            KvOp::Update {
                key: KEYS + 1,
                value: i,
            }
            .command(),
            KvOp::Update {
                key: KEYS + 1,
                value: i,
            }
            .encode(),
        );
    }
    engine.crash_all_replicas();
    assert!(engine.is_crashed(ReplicaId::new(0)) && engine.is_crashed(ReplicaId::new(1)));
    engine.shutdown();

    // Incarnation 2: cold start from disk. No peer exists; every replica
    // must come back from its own snapshot plus the WAL suffix.
    let replays_before = global().value(counters::WAL_REPLAY_RECORDS);
    let (engine, reports) =
        PsmrEngine::cold_start(&config, fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        })
        .expect("cold start");
    assert_eq!(reports.len(), 2);
    for report in &reports {
        assert_eq!(
            report.source,
            RecoverySource::Disk,
            "both replicas persisted a checkpoint pre-crash ({report:?})"
        );
        assert!(report.checkpoint_id >= 1);
    }
    assert!(global().value(counters::COLD_STARTS) > cold_starts_before);
    assert!(
        global().value(counters::WAL_REPLAY_RECORDS) > replays_before,
        "the ordered suffix came back from the WAL"
    );

    await_convergence(|r| engine.replica_service(r));

    // The cold-started deployment keeps serving; the combined history
    // (acknowledged ops of both incarnations) is linearizable — no
    // acknowledged write was lost in the blackout.
    let handles: Vec<_> = (0..3u64)
        .map(|c| {
            let client = engine.client();
            std::thread::spawn(move || client_session(client, 10 + c, 40, t0))
        })
        .collect();
    for h in handles {
        records.extend(h.join().unwrap());
    }
    assert_linearizable(records);
    await_convergence(|r| engine.replica_service(r));
    engine.shutdown();
    cleanup("psmr");
}

/// The full blackout scenario with **pipelined group commit**
/// (`wal_pipeline`): fan-out overlaps the fsyncs, responses gate on the
/// durability watermark, and the acknowledged history across both
/// incarnations stays linearizable — under power-failure semantics this
/// mode is *stronger* than inline group commit (acknowledged ⇒
/// fsynced), so the cold-start guarantees of PR 3 carry over unchanged.
#[test]
fn psmr_cold_starts_linearizably_with_pipelined_group_commit() {
    let mut config = cfg(3, "pipe");
    config.wal_pipeline(true);
    let snap_dir = config.snapshot_dir.clone().expect("configured");
    let t0 = Instant::now();

    let mut engine =
        PsmrEngine::spawn_recoverable(&config, fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        });
    let handles: Vec<_> = (0..3u64)
        .map(|c| {
            let client = engine.client();
            std::thread::spawn(move || client_session(client, c, 30, t0))
        })
        .collect();
    let mut records = Vec::new();
    for h in handles {
        records.extend(h.join().unwrap());
    }
    await_persisted(&snap_dir, 2);
    engine.crash_all_replicas();
    engine.shutdown();

    // Cold start over the same directories: pipelining changes when
    // fsyncs land, never what replay recovers for acknowledged commands.
    let (engine, reports) =
        PsmrEngine::cold_start(&config, fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        })
        .expect("cold start");
    assert_eq!(reports.len(), 2);
    await_convergence(|r| engine.replica_service(r));
    let handles: Vec<_> = (0..3u64)
        .map(|c| {
            let client = engine.client();
            std::thread::spawn(move || client_session(client, 10 + c, 30, t0))
        })
        .collect();
    for h in handles {
        records.extend(h.join().unwrap());
    }
    assert_linearizable(records);
    engine.shutdown();
    cleanup("pipe");
}

/// Crash **between fan-out and fsync**: with every sync thread held (the
/// covering fsyncs "in flight forever"), submitted writes execute and
/// replicate but their responses are never released — so when the power
/// failure then erases the un-fsynced suffix, only *unacknowledged*
/// writes are lost and the cold-started state plus acknowledged history
/// stays linearizable.
#[test]
fn pipelined_crash_before_fsync_never_released_the_lost_suffix() {
    let mut config = cfg(2, "heldfsync");
    config.wal_pipeline(true);
    config.checkpoint_interval(None); // WAL-only: the log IS the state
    let mut engine =
        PsmrEngine::spawn_recoverable(&config, fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        });

    // Phase 1: acknowledged traffic (fsyncs flowing normally).
    let mut client = engine.client();
    for key in 0..KEYS {
        assert_eq!(
            kv(
                &mut client,
                KvOp::Update {
                    key,
                    value: 5000 + key
                }
            ),
            KvResult::Ok
        );
    }

    // Phase 2: freeze the fsyncs, then submit writes that will execute
    // but can never durably land. Their responses must be withheld.
    // (The short sleep lets a sync pass already in flight finish, so no
    // phase-2 append can slip under a pre-hold fsync.)
    engine.hold_wal_sync(true);
    std::thread::sleep(Duration::from_millis(50));
    let held_ids: Vec<_> = (0..KEYS)
        .map(|key| {
            let op = KvOp::Update {
                key,
                value: 9000 + key,
            };
            client.submit(op.command(), op.encode())
        })
        .collect();
    // Give the deployment ample time to order and execute them.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        client.try_recv_response().is_none(),
        "a response was released for a write whose covering fsync never landed"
    );
    assert_eq!(client.outstanding(), held_ids.len());
    drop(client);

    // Phase 3: crash everything and lose power — the un-fsynced suffix
    // (and only it) is gone.
    engine.crash_all_replicas();
    let dropped = engine.shutdown_power_fail();
    assert!(
        dropped > 0,
        "the held suffix should have been open (un-fsynced) at the crash"
    );

    // Phase 4: cold start. The acknowledged phase-1 values survive; the
    // never-acknowledged phase-2 values are allowed to be lost — and
    // with the suffix discarded they must be.
    let (engine, _reports) =
        PsmrEngine::cold_start(&config, fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        })
        .expect("cold start after power failure");
    await_convergence(|r| engine.replica_service(r));
    let mut client = engine.client();
    for key in 0..KEYS {
        assert_eq!(
            kv(&mut client, KvOp::Read { key }),
            KvResult::Value(5000 + key),
            "key {key}: acknowledged write survives, unacknowledged suffix is gone"
        );
    }
    drop(client);
    engine.shutdown();
    cleanup("heldfsync");
}

/// Cold start **before any checkpoint was ever taken**: the durable
/// ordered logs alone rebuild the whole deployment from scratch
/// (`RecoverySource::WalOnly`). A second blackout after the deployment's
/// only checkpoint then restores every replica from that one on-disk
/// snapshot plus the WAL suffix behind it.
#[test]
fn psmr_cold_starts_from_the_wal_alone_without_any_checkpoint() {
    let map = || fine_dependency_spec().into_map();
    cold_starts_from_the_wal_alone(
        2,
        "walonly",
        |config| PsmrEngine::spawn_recoverable(config, map(), || KvService::with_keys(KEYS)),
        |config| PsmrEngine::cold_start(config, map(), || KvService::with_keys(KEYS)),
    );
}

/// The WAL-only scenario on the single totally ordered stream of SMR.
#[test]
fn smr_cold_starts_from_the_wal_alone_without_any_checkpoint() {
    cold_starts_from_the_wal_alone(
        1,
        "walonly-smr",
        |config| SmrEngine::spawn_recoverable(config, || KvService::with_keys(KEYS)),
        |config| SmrEngine::cold_start(config, || KvService::with_keys(KEYS)),
    );
}

/// The WAL-only scenario through sP-SMR's scheduler.
#[test]
fn spsmr_cold_starts_from_the_wal_alone_without_any_checkpoint() {
    let map = || fine_dependency_spec().into_map();
    cold_starts_from_the_wal_alone(
        3,
        "walonly-spsmr",
        |config| SpSmrEngine::spawn_recoverable(config, map(), || KvService::with_keys(KEYS)),
        |config| SpSmrEngine::cold_start(config, map(), || KvService::with_keys(KEYS)),
    );
}

type ColdStarted<T> = Result<(ReplicatedEngine<T>, Vec<RecoveryReport>), RecoveryError>;

fn cold_starts_from_the_wal_alone<T>(
    mpl: usize,
    tag: &str,
    spawn: impl Fn(&SystemConfig) -> ReplicatedEngine<T>,
    cold_start: impl Fn(&SystemConfig) -> ColdStarted<T>,
) {
    let mut config = cfg(mpl, tag);
    config.checkpoint_interval(None); // nothing ever snapshots or trims
    let mut engine = spawn(&config);
    let mut client = engine.client();
    for i in 0..30u64 {
        assert_eq!(
            kv(
                &mut client,
                KvOp::Update {
                    key: i % KEYS,
                    value: 1000 + i
                }
            ),
            KvResult::Ok
        );
    }
    drop(client);
    engine.crash_all_replicas();
    engine.shutdown();

    let (mut engine, reports) = cold_start(&config).expect("cold start from the logs alone");
    assert!(reports
        .iter()
        .all(|r| r.source == RecoverySource::WalOnly && r.checkpoint_id == 0));
    await_convergence(|r| engine.replica_service(r));
    let mut client = engine.client();
    for key in 0..KEYS {
        let last = (0..30u64).filter(|i| i % KEYS == key).max().unwrap();
        assert_eq!(
            kv(&mut client, KvOp::Read { key }),
            KvResult::Value(1000 + last),
            "key {key} rebuilt purely from the replayed log"
        );
    }
    let resp = client.execute(psmr_suite::recovery::CHECKPOINT, Vec::new());
    let ckpt_id = u64::from_le_bytes(resp[..8].try_into().unwrap());
    // Writes past the checkpoint live only in the WAL at the blackout.
    for key in 0..KEYS {
        assert_eq!(
            kv(
                &mut client,
                KvOp::Update {
                    key,
                    value: 2000 + key
                }
            ),
            KvResult::Ok
        );
    }
    await_persisted(config.snapshot_dir.as_ref().unwrap(), 2);
    drop(client);
    engine.crash_all_replicas();
    engine.shutdown();

    let (engine, reports) = cold_start(&config).expect("cold start from the only checkpoint");
    assert!(reports
        .iter()
        .all(|r| r.source == RecoverySource::Disk && r.checkpoint_id == ckpt_id));
    await_convergence(|r| engine.replica_service(r));
    let mut client = engine.client();
    for key in 0..KEYS {
        assert_eq!(
            kv(&mut client, KvOp::Read { key }),
            KvResult::Value(2000 + key)
        );
    }
    drop(client);
    engine.shutdown();
    cleanup(tag);
}

/// The same blackout on classical SMR: single stream, same durability
/// contract, and checkpoint numbering continues across incarnations.
#[test]
fn smr_whole_deployment_cold_starts_from_disk() {
    let mut config = cfg(1, "smr");
    config.checkpoint_interval(None); // the test drives checkpoints
    let mut engine = SmrEngine::spawn_recoverable(&config, || KvService::with_keys(KEYS));
    let mut client = engine.client();
    for i in 0..20u64 {
        assert_eq!(
            kv(
                &mut client,
                KvOp::Update {
                    key: i % KEYS,
                    value: 500 + i
                }
            ),
            KvResult::Ok
        );
    }
    let resp = client.execute(psmr_suite::recovery::CHECKPOINT, Vec::new());
    let ckpt_id = u64::from_le_bytes(resp[..8].try_into().unwrap());
    assert!(ckpt_id >= 1);
    // Writes past the checkpoint live only in the WAL at the blackout.
    assert_eq!(
        kv(&mut client, KvOp::Update { key: 0, value: 999 }),
        KvResult::Ok
    );
    await_persisted(config.snapshot_dir.as_ref().unwrap(), 2);
    drop(client);
    engine.crash_all_replicas();
    engine.shutdown();

    let (engine, reports) =
        SmrEngine::cold_start(&config, || KvService::with_keys(KEYS)).expect("cold start");
    assert!(reports.iter().any(|r| r.source == RecoverySource::Disk));
    await_convergence(|r| engine.replica_service(r));
    let mut client = engine.client();
    assert_eq!(
        kv(&mut client, KvOp::Read { key: 0 }),
        KvResult::Value(999),
        "the un-checkpointed tail survived in the WAL"
    );
    // Checkpoint numbering continues where the dead incarnation left it.
    let resp = client.execute(psmr_suite::recovery::CHECKPOINT, Vec::new());
    assert!(u64::from_le_bytes(resp[..8].try_into().unwrap()) > ckpt_id);
    drop(client);
    engine.shutdown();
    cleanup("smr");
}

/// And on sP-SMR, whose scheduler re-dispatches the replayed suffix.
#[test]
fn spsmr_whole_deployment_cold_starts_from_disk() {
    let config = cfg(3, "spsmr");
    let mut engine =
        SpSmrEngine::spawn_recoverable(&config, fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        });
    let mut client = engine.client();
    for i in 0..30u64 {
        assert_eq!(
            kv(
                &mut client,
                KvOp::Update {
                    key: i % KEYS,
                    value: 700 + i
                }
            ),
            KvResult::Ok
        );
    }
    await_persisted(config.snapshot_dir.as_ref().unwrap(), 2);
    drop(client);
    engine.crash_all_replicas();
    engine.shutdown();

    let (engine, reports) =
        SpSmrEngine::cold_start(&config, fine_dependency_spec().into_map(), || {
            KvService::with_keys(KEYS)
        })
        .expect("cold start");
    assert_eq!(reports.len(), 2);
    await_convergence(|r| engine.replica_service(r));
    let mut client = engine.client();
    for key in 0..KEYS {
        let last = (0..30u64).filter(|i| i % KEYS == key).max().unwrap();
        assert_eq!(
            kv(&mut client, KvOp::Read { key }),
            KvResult::Value(700 + last)
        );
    }
    drop(client);
    engine.shutdown();
    cleanup("spsmr");
}
