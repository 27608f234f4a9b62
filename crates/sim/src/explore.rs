//! Seeded interleaving search over whole kvstore deployments.
//!
//! [`run_schedule`] spawns a real P-SMR deployment with a seeded
//! [`SimScheduler`] injected through the engine's `*_with_runtime`
//! spawn paths, drives a closed-loop workload while applying the
//! plan's fault injections, and checks the outcome:
//!
//! * every profile — the client-observed history is linearizable per
//!   key (the paper's §IV-E claim, checked with the Wing&Gong
//!   searcher);
//! * [`FaultProfile::PowerFail`] — additionally, acknowledged ⇒
//!   fsynced: after the un-fsynced WAL suffix is discarded and the
//!   deployment cold-starts from disk, every key's final value covers
//!   the largest value whose write was acknowledged.
//!
//! [`explore`] sweeps a seed range across the profiles and stops at
//! the first failing schedule, reporting the seed and its plan — the
//! failing run is reproduced by calling `run_schedule` with that seed
//! again (the plan, and with it every injected perturbation, is a
//! pure function of the seed).

use crate::check::{check_linearizable, client_session, kv, unique_dir, KEYS};
use crate::sched::{PlannedFault, SchedulePlan, SimScheduler};
use psmr_common::ids::ReplicaId;
use psmr_common::runtime::{RealClock, Runtime};
use psmr_common::SystemConfig;
use psmr_core::conflict::{CommandClass, DependencySpec};
use psmr_core::engines::{Engine, PsmrEngine};
use psmr_core::linear::OpRecord;
use psmr_kvstore::ops::key_of_payload;
use psmr_kvstore::{KvOp, KvResult, KvService, DELETE, INSERT, READ, UPDATE};
use psmr_recovery::Snapshot;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fault envelope a schedule explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// No injected faults — only seeded delays at the stack's schedule
    /// points, skewing delivery, fsync and send interleavings.
    DeliveryChaos,
    /// Crash replica 1 mid-workload, restart it from a coordinated
    /// checkpoint plus the retained log suffix, and require the
    /// restarted replica to converge byte-identically.
    CrashRestart,
    /// Freeze the WAL sync threads mid-workload (holding acks behind
    /// the durability watermark), lose power with the group-commit
    /// window open, cold-start from disk, and audit every acknowledged
    /// write against the recovered state.
    PowerFail,
}

impl FaultProfile {
    /// All profiles, in exploration order.
    pub fn all() -> [FaultProfile; 3] {
        [
            FaultProfile::DeliveryChaos,
            FaultProfile::CrashRestart,
            FaultProfile::PowerFail,
        ]
    }
}

/// Workload shape and harness switches for one schedule.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Worker threads (and per-worker groups) per replica.
    pub mpl: usize,
    /// Concurrent closed-loop clients.
    pub clients: u64,
    /// Commands each client issues.
    pub ops_per_client: u64,
    /// Replace the kvstore's C-Dep with a deliberately broken one that
    /// routes reads of key `k` to the group of key `k + 1` — dependent
    /// read/update pairs no longer share a group, the exact §IV-C
    /// violation the harness exists to catch. The CI canary proves the
    /// search finds it.
    pub inject_ordering_bug: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            mpl: 3,
            clients: 3,
            ops_per_client: 20,
            inject_ordering_bug: false,
        }
    }
}

/// The result of one schedule.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// The identifying seed.
    pub seed: u64,
    /// The profile explored.
    pub profile: FaultProfile,
    /// The seed-derived event log (see [`SchedulePlan::events`]).
    pub events: Vec<String>,
    /// `Ok` when every checked invariant held.
    pub result: Result<(), String>,
}

/// The first failing schedule of an exploration sweep.
#[derive(Debug)]
pub struct Failure {
    /// Replay seed: `run_schedule(seed, profile, opts)` reproduces the
    /// plan exactly.
    pub seed: u64,
    /// The profile the seed failed under.
    pub profile: FaultProfile,
    /// The failing schedule's plan events.
    pub events: Vec<String>,
    /// What was violated.
    pub reason: String,
}

/// Summary of an exploration sweep.
#[derive(Debug)]
pub struct ExploreReport {
    /// Schedules completed (including the failing one, if any).
    pub schedules_run: usize,
    /// The first failure, or `None` when every schedule passed.
    pub failure: Option<Failure>,
}

/// Reads the schedule budget from `PSMR_SIM_BUDGET`, falling back to
/// `default` — CI scales the search up without touching the code.
pub fn budget_from_env(default: usize) -> usize {
    std::env::var("PSMR_SIM_BUDGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The C-Dep under test: the paper's fine-grained spec, or (for the
/// canary) a broken twin whose key extractor misroutes reads by one
/// key. Reads marshal only the 8-byte key while updates append a
/// value, so payload length distinguishes them inside the shared
/// extractor; `Global` commands never consult it.
fn sim_dependency_spec(inject_ordering_bug: bool) -> DependencySpec {
    let mut spec = DependencySpec::new();
    spec.declare(READ, CommandClass::Keyed { writes: false })
        .declare(UPDATE, CommandClass::Keyed { writes: true })
        .declare(INSERT, CommandClass::Global)
        .declare(DELETE, CommandClass::Global);
    if inject_ordering_bug {
        spec.key_extractor(|payload| {
            let key = key_of_payload(payload);
            if payload.len() <= 8 {
                key.wrapping_add(1)
            } else {
                key
            }
        });
    } else {
        spec.key_extractor(key_of_payload);
    }
    spec
}

fn base_cfg(mpl: usize) -> SystemConfig {
    let mut cfg = SystemConfig::new(mpl);
    cfg.replicas(2);
    cfg
}

fn runtime_for(plan: &SchedulePlan) -> Runtime {
    Runtime::new(Arc::new(RealClock), Arc::new(SimScheduler::from_plan(plan)))
}

/// Joins the client sessions, folding a panicked session into an
/// error (a session only panics when an acknowledged operation failed).
fn join_sessions(
    handles: Vec<std::thread::JoinHandle<Vec<(u64, OpRecord)>>>,
) -> Result<Vec<(u64, OpRecord)>, String> {
    let mut records = Vec::new();
    for h in handles {
        match h.join() {
            Ok(r) => records.extend(r),
            Err(_) => return Err("a client session panicked (operation failed)".into()),
        }
    }
    Ok(records)
}

/// Polls until replicas 0 and 1 converge to byte-identical snapshots,
/// reporting divergence as a finding instead of panicking.
fn converged(engine: &PsmrEngine) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let s0 = engine
            .replica_service(ReplicaId::new(0))
            .map(|s| s.snapshot());
        let s1 = engine
            .replica_service(ReplicaId::new(1))
            .map(|s| s.snapshot());
        if s0.is_some() && s0 == s1 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err("replicas did not converge to identical state".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Runs one seeded schedule under `profile` and checks its invariants.
pub fn run_schedule(seed: u64, profile: FaultProfile, opts: SimOptions) -> ScheduleOutcome {
    let plan = SchedulePlan::generate(seed, profile);
    let result = match profile {
        FaultProfile::DeliveryChaos => run_delivery_chaos(&plan, opts),
        FaultProfile::CrashRestart => run_crash_restart(&plan, opts),
        FaultProfile::PowerFail => run_power_fail(&plan, opts),
    };
    ScheduleOutcome {
        seed,
        profile,
        events: plan.events,
        result,
    }
}

fn run_delivery_chaos(plan: &SchedulePlan, opts: SimOptions) -> Result<(), String> {
    let cfg = base_cfg(opts.mpl);
    let engine = PsmrEngine::spawn_with_runtime(
        &cfg,
        sim_dependency_spec(opts.inject_ordering_bug).into_map(),
        || KvService::with_keys(KEYS),
        runtime_for(plan),
    );
    let t0 = Instant::now();
    let handles: Vec<_> = (0..opts.clients)
        .map(|c| {
            let client = engine.client();
            std::thread::spawn(move || client_session(client, c, opts.ops_per_client, t0))
        })
        .collect();
    let records = join_sessions(handles);
    engine.shutdown();
    check_linearizable(&records?)
}

fn run_crash_restart(plan: &SchedulePlan, opts: SimOptions) -> Result<(), String> {
    let mut cfg = base_cfg(opts.mpl);
    cfg.checkpoint_interval(Some(Duration::from_millis(15)));
    let mut engine = PsmrEngine::spawn_recoverable_with_runtime(
        &cfg,
        sim_dependency_spec(opts.inject_ordering_bug).into_map(),
        || KvService::with_keys(KEYS),
        runtime_for(plan),
    );
    let store = engine.checkpoint_store().expect("recoverable deployment");
    crate::check::await_checkpoint(&store);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..opts.clients)
        .map(|c| {
            let client = engine.client();
            std::thread::spawn(move || client_session(client, c, opts.ops_per_client, t0))
        })
        .collect();
    let mut restarted = false;
    for fault in &plan.faults {
        let PlannedFault::CrashRestart {
            crash_after_ms,
            down_ms,
        } = *fault
        else {
            continue;
        };
        std::thread::sleep(Duration::from_millis(crash_after_ms));
        engine
            .crash_replica(ReplicaId::new(1))
            .map_err(|e| format!("crash injection failed: {e:?}"))?;
        std::thread::sleep(Duration::from_millis(down_ms));
        // A restart can race a concurrent checkpoint trimming its cut;
        // retry briefly, and when every attempt loses the race leave
        // the replica down — the surviving replica's history is still
        // checked below.
        for _ in 0..10 {
            if engine.restart_replica(ReplicaId::new(1)).is_ok() {
                restarted = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let records = join_sessions(handles);
    let mut result = check_linearizable(&records?);
    if result.is_ok() && restarted {
        result = converged(&engine);
    }
    engine.shutdown();
    result
}

fn run_power_fail(plan: &SchedulePlan, opts: SimOptions) -> Result<(), String> {
    let dir = unique_dir(&format!("pf-{}", plan.seed));
    let preload = opts.clients * 4;
    let mut cfg = base_cfg(opts.mpl);
    cfg.checkpoint_interval(None)
        .wal_dir(Some(dir.join("wal")))
        .snapshot_dir(Some(dir.join("snap")))
        .wal_pipeline(true);
    let mut engine = PsmrEngine::spawn_recoverable_with_runtime(
        &cfg,
        sim_dependency_spec(opts.inject_ordering_bug).into_map(),
        move || KvService::with_keys(preload),
        runtime_for(plan),
    );

    // Acknowledged phase: each client owns 4 keys and writes monotone
    // values, so "final value ≥ the largest acknowledged value" is the
    // per-key durability audit. The planned hold freezes the fsyncs
    // mid-phase — acks stall behind the durability watermark and
    // resume on release; anything acked before the blackout must
    // survive it.
    let handles: Vec<_> = (0..opts.clients)
        .map(|c| {
            let mut client = engine.client();
            std::thread::spawn(move || {
                let mut acked: Vec<(u64, u64)> = Vec::new();
                for i in 0..opts.ops_per_client {
                    let key = c * 4 + (i % 4);
                    let value = i + 1;
                    if kv(&mut client, KvOp::Update { key, value }) == KvResult::Ok {
                        acked.push((key, value));
                    }
                }
                acked
            })
        })
        .collect();
    for fault in &plan.faults {
        let PlannedFault::HoldWalSync { after_ms, hold_ms } = *fault else {
            continue;
        };
        std::thread::sleep(Duration::from_millis(after_ms));
        engine.hold_wal_sync(true);
        std::thread::sleep(Duration::from_millis(hold_ms));
        engine.hold_wal_sync(false);
    }
    let mut acked_max: HashMap<u64, u64> = HashMap::new();
    for h in handles {
        let acked = h
            .join()
            .map_err(|_| "a power-fail client panicked".to_string())?;
        for (key, value) in acked {
            let max = acked_max.entry(key).or_insert(0);
            *max = (*max).max(value);
        }
    }

    // Doomed phase: freeze the fsyncs for good and submit writes that
    // execute but can never be acknowledged — the open group-commit
    // window the power failure then erases. (The settle sleep lets an
    // in-flight sync pass finish so no doomed append slips under a
    // pre-hold fsync.)
    let mut doomed = engine.client();
    engine.hold_wal_sync(true);
    std::thread::sleep(Duration::from_millis(50));
    for key in 0..preload {
        let op = KvOp::Update {
            key,
            value: 1_000_000 + key,
        };
        doomed.submit(op.command(), op.encode());
    }
    std::thread::sleep(Duration::from_millis(100));
    if doomed.try_recv_response().is_some() {
        engine.crash_all_replicas();
        engine.shutdown_power_fail();
        let _ = std::fs::remove_dir_all(&dir);
        return Err("a response was released for a write whose covering fsync never landed".into());
    }
    drop(doomed);
    engine.crash_all_replicas();
    engine.shutdown_power_fail();

    // Cold start from what survived; every acknowledged write must be
    // in the recovered state.
    let (engine, _reports) = match PsmrEngine::cold_start_with_runtime(
        &cfg,
        sim_dependency_spec(opts.inject_ordering_bug).into_map(),
        move || KvService::with_keys(preload),
        runtime_for(plan),
    ) {
        Ok(up) => up,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(format!("cold start after power failure failed: {e:?}"));
        }
    };
    let mut result = converged(&engine);
    if result.is_ok() {
        let mut client = engine.client();
        for (key, max_acked) in &acked_max {
            match kv(&mut client, KvOp::Read { key: *key }) {
                KvResult::Value(v) if v >= *max_acked => {}
                other => {
                    result = Err(format!(
                        "key {key}: acknowledged value {max_acked} lost across the power \
                         failure (recovered {other:?})"
                    ));
                    break;
                }
            }
        }
        drop(client);
    }
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Sweeps `budget` schedules starting at `base_seed`, cycling through
/// `profiles`, and stops at the first failure. The failing seed and
/// its plan are printed to stderr in a replayable form.
pub fn explore(
    budget: usize,
    base_seed: u64,
    profiles: &[FaultProfile],
    opts: SimOptions,
) -> ExploreReport {
    assert!(!profiles.is_empty(), "explore needs at least one profile");
    let mut schedules_run = 0;
    let mut seed = base_seed;
    while schedules_run < budget {
        for &profile in profiles {
            if schedules_run >= budget {
                break;
            }
            let outcome = run_schedule(seed, profile, opts);
            schedules_run += 1;
            if let Err(reason) = outcome.result {
                eprintln!(
                    "schedule exploration FAILED after {schedules_run} schedules\n\
                     seed={seed} profile={profile:?}\n\
                     reason: {reason}\n\
                     replay: psmr_sim::run_schedule({seed}, FaultProfile::{profile:?}, opts)\n\
                     plan:\n  {}",
                    outcome.events.join("\n  ")
                );
                return ExploreReport {
                    schedules_run,
                    failure: Some(Failure {
                        seed,
                        profile,
                        events: outcome.events,
                        reason,
                    }),
                };
            }
        }
        seed = seed.wrapping_add(1);
    }
    ExploreReport {
        schedules_run,
        failure: None,
    }
}
