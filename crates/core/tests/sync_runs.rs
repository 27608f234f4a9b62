//! P-SMR's synchronous mode meets once per decided run of `g_all`
//! commands, and each command of the run still executes alone, exactly
//! once per replica, on a quiesced replica.
//!
//! Both tests read the process-wide `rendezvous{replica=R}` counters, so
//! they live in their own binary and take turns.

use psmr_common::ids::{CommandId, ReplicaId};
use psmr_common::metrics::{counters, global};
use psmr_common::runtime::{RealClock, Runtime, SchedulePoint, Scheduler};
use psmr_common::SystemConfig;
use psmr_core::client::ClientProxy;
use psmr_core::conflict::{CommandClass, DependencySpec};
use psmr_core::engines::{Engine, PsmrEngine};
use psmr_core::service::Service;
use psmr_recovery::{decode_kv_pairs, encode_kv_pairs, RestoreError, Snapshot, CHECKPOINT};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A keyed write, routed to one worker's group.
const PUT: CommandId = CommandId::new(1);
/// A write that C-Dep marks `Global`: it travels on `g_all`.
const GLOBAL_PUT: CommandId = CommandId::new(2);

const WORKERS: usize = 4;
const DEADLINE: Duration = Duration::from_secs(10);

static SERIAL: Mutex<()> = Mutex::new(());

/// A register map that records how its commands overlapped.
#[derive(Debug, Default)]
struct Probe {
    slots: Mutex<BTreeMap<u64, u64>>,
    /// Service time of each `GLOBAL_PUT`.
    work: Duration,
    executed: AtomicU64,
    in_global: AtomicBool,
    /// Set when two `GLOBAL_PUT`s ran at once.
    globals_overlapped: AtomicBool,
    times: Mutex<Times>,
}

#[derive(Debug, Default)]
struct Times {
    /// When the first `GLOBAL_PUT` started.
    first_global: Option<Instant>,
    /// When the last `GLOBAL_PUT` so far ended.
    last_global: Option<Instant>,
    /// When each `PUT` started.
    puts: Vec<Instant>,
}

impl Probe {
    /// Whether a command ran beside a `GLOBAL_PUT`: two of them at once,
    /// or a `PUT` between the first and the last of them (they all run
    /// in one run).
    fn overlapped(&self) -> bool {
        let times = self.times.lock().unwrap();
        let (Some(first), Some(last)) = (times.first_global, times.last_global) else {
            return false;
        };
        self.globals_overlapped.load(Ordering::SeqCst)
            || times.puts.iter().any(|t| (first..last).contains(t))
    }
}

impl Service for Probe {
    fn execute(&self, cmd: CommandId, payload: &[u8]) -> Vec<u8> {
        self.executed.fetch_add(1, Ordering::SeqCst);
        let global = cmd == GLOBAL_PUT;
        let started = Instant::now();
        if global {
            if self.in_global.swap(true, Ordering::SeqCst) {
                self.globals_overlapped.store(true, Ordering::SeqCst);
            }
            self.times
                .lock()
                .unwrap()
                .first_global
                .get_or_insert(started);
            std::thread::sleep(self.work);
        } else {
            self.times.lock().unwrap().puts.push(started);
        }
        let key = u64::from_le_bytes(payload[..8].try_into().unwrap());
        let value = u64::from_le_bytes(payload[8..16].try_into().unwrap());
        self.slots.lock().unwrap().insert(key, value);
        if global {
            self.in_global.store(false, Ordering::SeqCst);
            self.times.lock().unwrap().last_global = Some(Instant::now());
        }
        vec![1]
    }
}

impl Snapshot for Probe {
    fn snapshot(&self) -> Vec<u8> {
        let slots = self.slots.lock().unwrap();
        encode_kv_pairs(&slots.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>())
    }

    fn restore(&self, snapshot: &[u8]) -> Result<(), RestoreError> {
        *self.slots.lock().unwrap() = decode_kv_pairs(snapshot)?.into_iter().collect();
        Ok(())
    }
}

fn spec() -> DependencySpec {
    let mut spec = DependencySpec::new();
    spec.declare(PUT, CommandClass::Keyed { writes: true })
        .declare(GLOBAL_PUT, CommandClass::Global)
        .key_extractor(|p| u64::from_le_bytes(p[..8].try_into().unwrap()));
    spec
}

fn cfg(skip_interval: Duration) -> SystemConfig {
    let mut cfg = SystemConfig::new(WORKERS);
    cfg.replicas(2)
        .batch_delay(Duration::from_micros(100))
        .skip_interval(skip_interval);
    cfg
}

fn put(key: u64, value: u64) -> Vec<u8> {
    let mut p = key.to_le_bytes().to_vec();
    p.extend_from_slice(&value.to_le_bytes());
    p
}

/// Holds every thread that reaches a delivery schedule point until
/// opened (bounded), so the commands submitted meanwhile are decided
/// together as one batch. Until a command is decided, only the ordering
/// thread crosses such a point, at the fan-out of a round.
#[derive(Debug, Default)]
struct Gate {
    open: AtomicBool,
    held: AtomicBool,
}

impl Scheduler for Gate {
    fn reach(&self, point: SchedulePoint) {
        if !matches!(point, SchedulePoint::Delivered { .. }) {
            return;
        }
        let deadline = Instant::now() + DEADLINE;
        while !self.open.load(Ordering::SeqCst) && Instant::now() < deadline {
            self.held.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

impl Gate {
    fn runtime(self: &Arc<Self>) -> Runtime {
        Runtime::new(Arc::new(RealClock), Arc::clone(self) as Arc<dyn Scheduler>)
    }

    /// Waits until the ordering thread is held: a command submitted from
    /// now on queues for the next round.
    fn await_held(&self) {
        await_true("the ordering thread reaches the gate", || {
            self.held.load(Ordering::SeqCst)
        });
    }
}

fn await_true(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + DEADLINE;
    while !done() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Collects `n` responses, failing after [`DEADLINE`] rather than hanging.
fn drain(client: &mut ClientProxy, n: u64) {
    let mut got = 0;
    await_true("every response", || {
        while client.try_recv_response().is_some() {
            got += 1;
        }
        got == n
    });
}

/// Each replica's `rendezvous` count.
fn meetings() -> [u64; 2] {
    [0, 1].map(|r| global().value(&format!("{}{{replica={r}}}", counters::RENDEZVOUS)))
}

/// One decided `g_all` batch of `RUN` commands is one run: each replica's
/// workers meet once for it, its executor runs every command exactly once
/// and alone, and keyed commands decided while it runs wait for its end.
#[test]
fn a_g_all_batch_costs_one_rendezvous_per_replica() {
    const RUN: u64 = 24;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let gate = Arc::new(Gate::default());
    let probes = Arc::new(Mutex::new(Vec::new()));
    let engine = {
        let probes = Arc::clone(&probes);
        let factory = move || {
            let probe = Arc::new(Probe {
                work: Duration::from_millis(1),
                ..Probe::default()
            });
            probes.lock().unwrap().push(Arc::clone(&probe));
            probe
        };
        // No idle round fires during the test, so the round that carries
        // the keyed writes below fires as soon as they are queued.
        let cfg = cfg(Duration::from_secs(5));
        PsmrEngine::spawn_with_runtime(&cfg, spec().into_map(), factory, gate.runtime())
    };
    let probes: Vec<Arc<Probe>> = probes.lock().unwrap().clone();
    assert_eq!(probes.len(), 2, "one service per replica");
    let before = meetings();
    let mut client = engine.client();
    // The first round fires for this write, and the gate holds it.
    client.submit(PUT, put(u64::MAX, 0));
    gate.await_held();
    for i in 0..RUN {
        client.submit(GLOBAL_PUT, put(i, i));
    }
    gate.open.store(true, Ordering::SeqCst);
    // Once the run is executing, one keyed write per worker: decided in a
    // later round, none of them may run before the run ends.
    await_true("the run starts", || {
        probes[0].executed.load(Ordering::SeqCst) > 1
    });
    for w in 0..WORKERS as u64 {
        client.submit(PUT, put(RUN + w, w));
    }
    let total = 1 + RUN + WORKERS as u64;
    drain(&mut client, total);
    await_true("every replica executes everything", || {
        probes
            .iter()
            .all(|p| p.executed.load(Ordering::SeqCst) >= total)
    });
    std::thread::sleep(Duration::from_millis(50));
    for (replica, probe) in probes.iter().enumerate() {
        assert_eq!(
            probe.executed.load(Ordering::SeqCst),
            total,
            "replica {replica}: every command once"
        );
        assert!(
            !probe.overlapped(),
            "replica {replica}: a command ran beside a g_all command"
        );
    }
    let after = meetings();
    assert_eq!(
        [after[0] - before[0], after[1] - before[1]],
        [1, 1],
        "one rendezvous per replica for the whole run"
    );
    drop(client);
    engine.shutdown();
}

/// A `CHECKPOINT` in the middle of a run snapshots exactly the commands
/// before it, and a replica restarted from that cut replays the rest of
/// the run and converges.
#[test]
fn a_checkpoint_inside_a_run_cuts_it_exactly() {
    const BEFORE: u64 = 10;
    const AFTER: u64 = 10;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let gate = Arc::new(Gate::default());
    let mut engine = PsmrEngine::spawn_recoverable_with_runtime(
        &cfg(Duration::from_micros(500)),
        spec().into_map(),
        Probe::default,
        gate.runtime(),
    );
    let store = engine.checkpoint_store().expect("recoverable deployment");
    let mut client = engine.client();
    gate.await_held();
    for i in 0..BEFORE {
        client.submit(GLOBAL_PUT, put(i, i + 1));
    }
    client.submit(CHECKPOINT, Vec::new());
    for i in BEFORE..BEFORE + AFTER {
        client.submit(GLOBAL_PUT, put(i, i + 1));
    }
    gate.open.store(true, Ordering::SeqCst);
    drain(&mut client, BEFORE + 1 + AFTER);
    await_true("a checkpoint installs", || store.latest().is_some());

    let checkpoint = store.latest().unwrap();
    assert_eq!(checkpoint.cut.offset, BEFORE as usize, "{checkpoint:?}");
    let fresh = Probe::default();
    for i in 0..BEFORE {
        fresh.execute(GLOBAL_PUT, &put(i, i + 1));
    }
    assert_eq!(
        checkpoint.snapshot,
        fresh.snapshot(),
        "the snapshot holds exactly the commands before the cut"
    );

    engine.crash_replica(ReplicaId::new(1)).expect("crash");
    let report = engine.restart_replica(ReplicaId::new(1)).expect("restart");
    assert_eq!(report.checkpoint_id, checkpoint.id, "{report:?}");
    for i in BEFORE..BEFORE + AFTER {
        fresh.execute(GLOBAL_PUT, &put(i, i + 1));
    }
    let expected = fresh.snapshot();
    await_true("the restarted replica converges", || {
        (0..2).all(|r| {
            engine
                .replica_service(ReplicaId::new(r))
                .is_some_and(|s| s.snapshot() == expected)
        })
    });
    drop(client);
    engine.shutdown();
}
