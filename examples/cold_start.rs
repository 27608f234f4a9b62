//! Kill **every** replica of a loaded deployment, then cold-start the
//! whole thing from disk — the `psmr-wal` durable ordered log end to
//! end: group-commit appends on the ordered path, a blackout with no
//! surviving peer, and a restart that replays `(newest snapshot, WAL
//! suffix)` so no acknowledged write is lost (process-crash fault
//! model; power loss can take the unsynced group-commit tail).
//!
//! ```text
//! cargo run --release --example cold_start
//! ```

use psmr_suite::common::ids::ReplicaId;
use psmr_suite::common::metrics::{counters, global};
use psmr_suite::common::SystemConfig;
use psmr_suite::core::engines::{Engine, PsmrEngine};
use psmr_suite::kvstore::{fine_dependency_spec, KvOp, KvResult, KvService};
use psmr_suite::recovery::{Snapshot, CHECKPOINT};
use std::time::{Duration, Instant};

const KEYS: u64 = 64;

fn main() {
    let base = std::env::temp_dir().join(format!("psmr-cold-start-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut cfg = SystemConfig::new(4);
    cfg.replicas(2)
        .wal_dir(Some(base.join("wal")))
        .snapshot_dir(Some(base.join("snap")));
    cfg.validate().expect("durability knobs are sane");

    // ---- Incarnation 1: live traffic, one checkpoint, more traffic.
    let mut engine = PsmrEngine::spawn_recoverable(&cfg, fine_dependency_spec().into_map(), || {
        KvService::with_keys(KEYS)
    });
    let mut client = engine.client();
    for i in 0..200u64 {
        let op = KvOp::Update {
            key: i % KEYS,
            value: i,
        };
        assert_eq!(
            KvResult::decode(&client.execute(op.command(), op.encode())),
            KvResult::Ok
        );
    }
    let resp = client.execute(CHECKPOINT, Vec::new());
    let ckpt = u64::from_le_bytes(resp[..8].try_into().expect("checkpoint id"));
    println!("checkpoint #{ckpt} installed and persisted durably");
    // Everything after this point lives only in the write-ahead logs at
    // the moment of the blackout.
    for i in 200..300u64 {
        let op = KvOp::Update {
            key: i % KEYS,
            value: i,
        };
        assert_eq!(
            KvResult::decode(&client.execute(op.command(), op.encode())),
            KvResult::Ok
        );
    }
    drop(client);

    println!(
        "blackout: crashing both replicas at once ({} WAL appends so far, {} fsyncs — group commit)",
        global().value(counters::WAL_APPENDS),
        global().value(counters::WAL_FSYNCS),
    );
    engine.crash_all_replicas();
    engine.shutdown();

    // ---- Incarnation 2: nothing alive, disks only.
    let started = Instant::now();
    let (engine, reports) = PsmrEngine::cold_start(&cfg, fine_dependency_spec().into_map(), || {
        KvService::with_keys(KEYS)
    })
    .expect("cold start from disk");
    for (replica, report) in reports.iter().enumerate() {
        println!(
            "replica s{replica} cold-started via {:?} from checkpoint #{} at cut {}",
            report.source, report.checkpoint_id, report.cut
        );
    }
    println!(
        "{} records replayed from the WALs in {:?}",
        global().value(counters::WAL_REPLAY_RECORDS),
        started.elapsed(),
    );

    // Both replicas converge on byte-identical state…
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let s0 = engine
            .replica_service(ReplicaId::new(0))
            .map(|s| s.snapshot());
        let s1 = engine
            .replica_service(ReplicaId::new(1))
            .map(|s| s.snapshot());
        if s0.is_some() && s0 == s1 {
            break;
        }
        assert!(Instant::now() < deadline, "replicas did not converge");
        std::thread::sleep(Duration::from_millis(5));
    }
    // …and every acknowledged write survived, including the suffix that
    // was never checkpointed.
    let mut client = engine.client();
    for key in 0..KEYS {
        let last = (0..300u64)
            .filter(|i| i % KEYS == key)
            .max()
            .expect("covered");
        let got = KvResult::decode(
            &client.execute(KvOp::Read { key }.command(), KvOp::Read { key }.encode()),
        );
        assert_eq!(got, KvResult::Value(last), "key {key}");
    }
    println!("converged: all 300 acknowledged writes survived the whole-deployment crash");
    drop(client);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}
