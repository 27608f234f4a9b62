//! Cross-engine integration tests: every engine must produce the same
//! observable behaviour on the same workload, replicas must converge, and
//! recorded histories must be linearizable.

use parking_lot::RwLock;
use psmr_common::ids::CommandId;
use psmr_common::SystemConfig;
use psmr_core::conflict::{CommandClass, DependencySpec};
use psmr_core::engines::{Engine, NoRepEngine, PsmrEngine, SmrEngine, SpSmrEngine};
use psmr_core::linear::{check_register, OpRecord, RegisterOp, Verdict};
use psmr_core::service::Service;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const READ: CommandId = CommandId::new(0);
const WRITE: CommandId = CommandId::new(1);
const SNAPSHOT: CommandId = CommandId::new(2);

/// A keyed register map: reads/writes per key, plus a global snapshot
/// command (sums all values) that C-Dep marks Global.
struct RegisterMap {
    slots: RwLock<HashMap<u64, u64>>,
    executed: AtomicU64,
}

impl RegisterMap {
    fn new() -> Self {
        Self {
            slots: RwLock::new(HashMap::new()),
            executed: AtomicU64::new(0),
        }
    }
}

impl Service for RegisterMap {
    fn execute(&self, cmd: CommandId, payload: &[u8]) -> Vec<u8> {
        self.executed.fetch_add(1, Ordering::Relaxed);
        let key = u64::from_le_bytes(payload[..8].try_into().unwrap());
        match cmd {
            READ => match self.slots.read().get(&key) {
                Some(v) => {
                    let mut out = vec![1u8];
                    out.extend_from_slice(&v.to_le_bytes());
                    out
                }
                None => vec![0u8],
            },
            WRITE => {
                let value = u64::from_le_bytes(payload[8..16].try_into().unwrap());
                self.slots.write().insert(key, value);
                vec![1u8]
            }
            SNAPSHOT => {
                let sum: u64 = self.slots.read().values().sum();
                sum.to_le_bytes().to_vec()
            }
            other => panic!("unknown command {other}"),
        }
    }
}

fn spec() -> DependencySpec {
    let mut spec = DependencySpec::new();
    spec.declare(READ, CommandClass::Keyed { writes: false })
        .declare(WRITE, CommandClass::Keyed { writes: true })
        .declare(SNAPSHOT, CommandClass::Global)
        .key_extractor(|p| u64::from_le_bytes(p[..8].try_into().unwrap()));
    spec
}

fn cfg(mpl: usize) -> SystemConfig {
    let mut cfg = SystemConfig::new(mpl);
    cfg.replicas(2)
        .batch_delay(Duration::from_micros(100))
        .skip_interval(Duration::from_micros(500));
    cfg
}

fn key_payload(k: u64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

fn write_payload(k: u64, v: u64) -> Vec<u8> {
    let mut p = k.to_le_bytes().to_vec();
    p.extend_from_slice(&v.to_le_bytes());
    p
}

fn parse_read(resp: &[u8]) -> Option<u64> {
    match resp[0] {
        0 => None,
        _ => Some(u64::from_le_bytes(resp[1..9].try_into().unwrap())),
    }
}

/// Runs a deterministic single-client workload and checks read-your-writes
/// plus snapshot consistency.
fn exercise_engine(engine: &dyn Engine) {
    let mut client = engine.client();
    // Writes on several keys (different workers in P-SMR).
    for k in 0..16u64 {
        let resp = client.execute(WRITE, write_payload(k, k * 100));
        assert_eq!(&resp[..], &[1u8], "{}: write ack", engine.label());
    }
    // Read-your-writes through the same client.
    for k in 0..16u64 {
        let resp = client.execute(READ, key_payload(k));
        assert_eq!(
            parse_read(&resp),
            Some(k * 100),
            "{}: read key {k}",
            engine.label()
        );
    }
    // A global snapshot sees every completed write.
    let resp = client.execute(SNAPSHOT, key_payload(0));
    let sum = u64::from_le_bytes(resp[..8].try_into().unwrap());
    assert_eq!(
        sum,
        (0..16).map(|k| k * 100).sum::<u64>(),
        "{}",
        engine.label()
    );
    // Overwrites are visible.
    client.execute(WRITE, write_payload(3, 7));
    let resp = client.execute(READ, key_payload(3));
    assert_eq!(parse_read(&resp), Some(7), "{}", engine.label());
}

#[test]
fn psmr_basic_session() {
    let engine = PsmrEngine::spawn(&cfg(4), spec().into_map(), RegisterMap::new);
    exercise_engine(&engine);
    engine.shutdown();
}

#[test]
fn smr_basic_session() {
    let engine = SmrEngine::spawn(&cfg(1), RegisterMap::new);
    exercise_engine(&engine);
    engine.shutdown();
}

#[test]
fn spsmr_basic_session() {
    let engine = SpSmrEngine::spawn(&cfg(4), spec().into_map(), RegisterMap::new);
    exercise_engine(&engine);
    engine.shutdown();
}

#[test]
fn norep_basic_session() {
    let engine = NoRepEngine::spawn(&cfg(4), spec().into_map(), RegisterMap::new);
    exercise_engine(&engine);
    engine.shutdown();
}

/// Hammers P-SMR with concurrent clients mixing keyed and global commands,
/// then checks the recorded per-key histories are linearizable.
#[test]
fn psmr_concurrent_history_is_linearizable() {
    let engine = Arc::new(PsmrEngine::spawn(
        &cfg(4),
        spec().into_map(),
        RegisterMap::new,
    ));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..6u64 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut client = engine.client();
            let mut records: Vec<(u64, OpRecord)> = Vec::new();
            for i in 0..40u64 {
                let key = (c + i) % 4; // heavy per-key contention
                let invoked = t0.elapsed().as_nanos() as u64;
                let op = if (c + i) % 3 == 0 {
                    let value = c * 1000 + i;
                    client.execute(WRITE, write_payload(key, value));
                    RegisterOp::Write { value }
                } else {
                    let resp = client.execute(READ, key_payload(key));
                    RegisterOp::Read {
                        value: parse_read(&resp),
                    }
                };
                let returned = t0.elapsed().as_nanos() as u64;
                records.push((
                    key,
                    OpRecord {
                        invoked,
                        returned,
                        op,
                    },
                ));
            }
            records
        }));
    }
    let mut by_key: HashMap<u64, Vec<OpRecord>> = HashMap::new();
    for h in handles {
        for (key, record) in h.join().unwrap() {
            by_key.entry(key).or_default().push(record);
        }
    }
    for (key, history) in by_key {
        // The checker caps at 63 ops; split long per-key histories into
        // time-ordered chunks, checking each chunk against a wildcard start
        // is unsound — instead verify the whole history fits.
        assert!(history.len() <= 60, "test sized to fit the checker");
        assert_eq!(
            check_register(&history, None),
            Verdict::Linearizable,
            "key {key} history not linearizable"
        );
    }
    match Arc::try_unwrap(engine) {
        Ok(engine) => engine.shutdown(),
        Err(_) => panic!("clients still hold the engine"),
    }
}

/// Replica convergence: with 2 replicas, both must execute the same number
/// of commands and end in the same state. We detect divergence through the
/// snapshot command, which every replica computes independently — the
/// client proxy keeps the first response, so we issue it repeatedly from
/// fresh clients to sample both replicas.
#[test]
fn psmr_replicas_converge_under_contention() {
    let engine = Arc::new(PsmrEngine::spawn(
        &cfg(3),
        spec().into_map(),
        RegisterMap::new,
    ));
    let mut handles = Vec::new();
    for c in 0..4u64 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut client = engine.client();
            for i in 0..50u64 {
                let key = i % 7;
                client.execute(WRITE, write_payload(key, c * 10_000 + i));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // All writes done. Snapshots from any replica must now agree (the sum
    // is deterministic once the same writes are applied in the same per-key
    // order).
    let mut client = engine.client();
    let s1 = client.execute(SNAPSHOT, key_payload(0));
    let s2 = client.execute(SNAPSHOT, key_payload(0));
    assert_eq!(s1, s2, "replica snapshots disagree");
    match Arc::try_unwrap(engine) {
        Ok(engine) => engine.shutdown(),
        Err(_) => panic!("clients still hold the engine"),
    }
}

/// Dependent commands must never execute concurrently (the §IV-E safety
/// argument). The service asserts exclusivity internally.
#[test]
fn psmr_global_commands_execute_in_isolation() {
    struct ExclusiveProbe {
        in_global: AtomicU64,
        slots: RwLock<HashMap<u64, u64>>,
    }
    impl Service for ExclusiveProbe {
        fn execute(&self, cmd: CommandId, payload: &[u8]) -> Vec<u8> {
            let key = u64::from_le_bytes(payload[..8].try_into().unwrap());
            match cmd {
                SNAPSHOT => {
                    assert_eq!(
                        self.in_global.fetch_add(1, Ordering::SeqCst),
                        0,
                        "global command overlapped another global command"
                    );
                    std::thread::sleep(Duration::from_micros(200));
                    self.in_global.fetch_sub(1, Ordering::SeqCst);
                    vec![0]
                }
                WRITE => {
                    assert_eq!(
                        self.in_global.load(Ordering::SeqCst),
                        0,
                        "keyed write overlapped a global command"
                    );
                    let v = u64::from_le_bytes(payload[8..16].try_into().unwrap());
                    self.slots.write().insert(key, v);
                    vec![1]
                }
                _ => vec![0],
            }
        }
    }
    let engine = Arc::new(PsmrEngine::spawn(&cfg(4), spec().into_map(), || {
        ExclusiveProbe {
            in_global: AtomicU64::new(0),
            slots: RwLock::new(HashMap::new()),
        }
    }));
    let mut handles = Vec::new();
    for c in 0..4u64 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut client = engine.client();
            for i in 0..30u64 {
                if i % 5 == 4 {
                    client.execute(SNAPSHOT, key_payload(0));
                } else {
                    client.execute(WRITE, write_payload((c * 31 + i) % 16, i));
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    match Arc::try_unwrap(engine) {
        Ok(engine) => engine.shutdown(),
        Err(_) => panic!("clients still hold the engine"),
    }
}

/// Each command runs exactly once on every replica: a `g_all` command is
/// met by all four workers of a replica and executed by one of them, never
/// by none and never by two.
#[test]
fn psmr_global_commands_execute_once_per_replica() {
    struct Counted {
        inner: RegisterMap,
        executed: Arc<AtomicU64>,
    }
    impl Service for Counted {
        fn execute(&self, cmd: CommandId, payload: &[u8]) -> Vec<u8> {
            self.executed.fetch_add(1, Ordering::SeqCst);
            self.inner.execute(cmd, payload)
        }
    }
    let counters = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let engine = {
        let counters = Arc::clone(&counters);
        Arc::new(PsmrEngine::spawn(&cfg(4), spec().into_map(), move || {
            let executed = Arc::new(AtomicU64::new(0));
            counters.lock().push(Arc::clone(&executed));
            Counted {
                inner: RegisterMap::new(),
                executed,
            }
        }))
    };
    const CLIENTS: u64 = 3;
    const PER_CLIENT: u64 = 60;
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut client = engine.client();
            for i in 0..PER_CLIENT {
                if i % 3 == 2 {
                    client.execute(SNAPSHOT, key_payload(0));
                } else {
                    client.execute(WRITE, write_payload((c * 17 + i) % 8, i));
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // A client returns on the first response, so the other replica may
    // still be catching up: wait for it, then give a double execution the
    // chance to show.
    let submitted = CLIENTS * PER_CLIENT;
    let counters: Vec<Arc<AtomicU64>> = counters.lock().clone();
    assert_eq!(counters.len(), 2, "one service per replica");
    let deadline = Instant::now() + Duration::from_secs(10);
    while counters
        .iter()
        .any(|c| c.load(Ordering::SeqCst) < submitted)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));
    for (replica, c) in counters.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::SeqCst),
            submitted,
            "replica {replica} executions vs submitted commands"
        );
    }
    match Arc::try_unwrap(engine) {
        Ok(engine) => engine.shutdown(),
        Err(_) => panic!("clients still hold the engine"),
    }
}

/// The windowed client interface sustains many outstanding commands, as the
/// paper's closed-loop clients do (window of 50).
#[test]
fn windowed_clients_complete_all_requests() {
    let engine = PsmrEngine::spawn(&cfg(4), spec().into_map(), RegisterMap::new);
    let mut client = engine.client();
    let mut completed = 0u64;
    let total = 500u64;
    let window = 50;
    let mut issued = 0u64;
    while completed < total {
        while issued < total && client.outstanding() < window {
            client.submit(WRITE, write_payload(issued % 32, issued));
            issued += 1;
        }
        let _ = client.recv_response();
        completed += 1;
    }
    assert_eq!(client.outstanding(), 0);
    drop(client);
    engine.shutdown();
}

/// MPL=1 P-SMR degenerates gracefully (everything serializes through the
/// one worker and g_all).
#[test]
fn psmr_mpl_one_still_correct() {
    let engine = PsmrEngine::spawn(&cfg(1), spec().into_map(), RegisterMap::new);
    exercise_engine(&engine);
    engine.shutdown();
}
