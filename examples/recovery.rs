//! Crash a replica mid-workload and watch it rejoin from a coordinated
//! checkpoint — the `psmr-recovery` subsystem end to end: durable
//! on-disk snapshots, peer state transfer, and log replay.
//!
//! ```text
//! cargo run --release --example recovery
//! ```

use psmr_suite::common::ids::ReplicaId;
use psmr_suite::common::metrics::{counters, global};
use psmr_suite::common::SystemConfig;
use psmr_suite::core::engines::{Engine, PsmrEngine};
use psmr_suite::kvstore::{fine_dependency_spec, KvOp, KvResult, KvService};
use psmr_suite::recovery::{Snapshot, CHECKPOINT};
use std::time::{Duration, Instant};

fn main() {
    let snap_dir = std::env::temp_dir().join(format!("psmr-recovery-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    let mut cfg = SystemConfig::new(4);
    cfg.replicas(2).snapshot_dir(Some(snap_dir.clone()));
    let mut engine = PsmrEngine::spawn_recoverable(&cfg, fine_dependency_spec().into_map(), || {
        KvService::with_keys(64)
    });
    let store = engine.checkpoint_store().expect("recoverable deployment");
    let mut client = engine.client();

    // Phase 1: live traffic, then a coordinated checkpoint.
    for i in 0..200u64 {
        let op = KvOp::Update {
            key: i % 64,
            value: i,
        };
        assert_eq!(
            KvResult::decode(&client.execute(op.command(), op.encode())),
            KvResult::Ok
        );
    }
    let retained: usize = (0..5)
        .map(|g| engine.retained_len(psmr_suite::common::ids::GroupId::new(g)))
        .sum();
    let resp = client.execute(CHECKPOINT, Vec::new());
    let id = u64::from_le_bytes(resp[..8].try_into().expect("checkpoint id"));
    let trimmed: usize = (0..5)
        .map(|g| engine.retained_len(psmr_suite::common::ids::GroupId::new(g)))
        .sum();
    println!(
        "checkpoint #{id} installed at cut {}",
        store.latest().unwrap().cut
    );
    println!("ordered logs trimmed: {retained} -> {trimmed} retained batches");

    // Phase 2: crash replica s1, keep serving, then bring it back.
    engine.crash_replica(ReplicaId::new(1)).expect("crash");
    println!("replica s1 crashed; deployment keeps serving on s0");
    for i in 200..400u64 {
        let op = KvOp::Update {
            key: i % 64,
            value: i,
        };
        assert_eq!(
            KvResult::decode(&client.execute(op.command(), op.encode())),
            KvResult::Ok
        );
    }
    let report = engine.restart_replica(ReplicaId::new(1)).expect("restart");
    println!(
        "replica s1 restarted from (checkpoint #{}, log suffix): \
         recovered via {:?} at cut {}, disk had {:?}",
        report.checkpoint_id, report.source, report.cut, report.disk_checkpoint
    );

    // Phase 3: the rejoined replica converges to byte-identical state.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s0 = engine
            .replica_service(ReplicaId::new(0))
            .unwrap()
            .snapshot();
        let s1 = engine
            .replica_service(ReplicaId::new(1))
            .unwrap()
            .snapshot();
        if s0 == s1 {
            println!(
                "replicas converged: {} bytes of identical service state",
                s0.len()
            );
            break;
        }
        assert!(Instant::now() < deadline, "no convergence");
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "metrics: checkpoints_taken={} replica_restarts={}",
        global().value(counters::CHECKPOINTS_TAKEN),
        global().value(counters::REPLICA_RESTARTS),
    );
    drop(client);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&snap_dir);
}
