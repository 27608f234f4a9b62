//! Per-role thread census of the in-process P-SMR deployment that the
//! benchmark's `kv_indep` and `kv_dep` workloads run: two replicas of two
//! workers, two closed-loop client threads, 10 µs of service work per
//! command. For a window of 1 and of 50 outstanding commands per client
//! it prints, per thread role, CPU µs, voluntary switches (parks) and
//! run-queue wait µs per command, plus how many commands each decided
//! `g_all` batch carried and how many rendezvous a replica's workers met
//! at per batch. Its `idle` point first runs the same deployment for 1 s
//! with no client and prints, per role, CPU ms and voluntary switches
//! per second: what the deployment costs while nothing happens.
//!
//! ```text
//! cargo run --release -p psmr-bench --bin census [-- --quick] [--secs F] [--keys N]
//! ```
//!
//! It asserts nothing: wake costs on a shared host are too noisy for a
//! bound. On a host without `/proc/self/task` the role rows are left out.

use psmr_bench::engines::EXEC_WORK;
use psmr_bench::BenchArgs;
use psmr_common::cpu::ThreadCensus;
use psmr_common::metrics::{counters, global};
use psmr_common::runtime::{RealClock, Runtime, SchedulePoint, Scheduler};
use psmr_common::SystemConfig;
use psmr_core::engines::{Engine, PsmrEngine};
use psmr_kvstore::{fine_dependency_spec, KvService};
use psmr_workload::{KeyDist, KvMix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const REPLICAS: usize = 2;
const WORKERS: usize = 2;
const CLIENTS: u64 = 2;
/// How long the `idle` point watches a deployment with no client.
const IDLE: Duration = Duration::from_secs(1);

thread_local! {
    /// Whether this thread is a replica worker (`psmr-r<R>-t<i>`).
    static WORKER: bool = std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("psmr-r"));
    /// The last `g_all` batch this thread took a command of.
    static LAST_SEQ: Cell<u64> = const { Cell::new(0) };
}

/// Counts, at the per-command delivery point, the `g_all` commands and
/// batches the workers take. Every worker of every replica takes every
/// `g_all` batch, so each count is `REPLICAS × WORKERS` times the
/// deployment's.
#[derive(Debug, Default)]
struct GallCounter {
    commands: AtomicU64,
    batches: AtomicU64,
}

impl Scheduler for GallCounter {
    fn reach(&self, point: SchedulePoint) {
        let SchedulePoint::Delivered { group, seq } = point else {
            return;
        };
        if group != WORKERS as u64 || !WORKER.with(|w| *w) {
            return;
        }
        self.commands.fetch_add(1, Ordering::Relaxed);
        if LAST_SEQ.with(|last| last.replace(seq)) != seq {
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counter values at one instant.
struct Mark {
    census: Option<ThreadCensus>,
    done: u64,
    commands: u64,
    batches: u64,
    rendezvous: u64,
    at: Instant,
}

fn mark(done: &AtomicU64, gall: &GallCounter) -> Mark {
    Mark {
        census: ThreadCensus::take(),
        done: done.load(Ordering::Relaxed),
        commands: gall.commands.load(Ordering::Relaxed),
        batches: gall.batches.load(Ordering::Relaxed),
        rendezvous: global().value(counters::RENDEZVOUS),
        at: Instant::now(),
    }
}

/// Drives one deployment closed-loop with `window` commands outstanding
/// per client and prints the census of the measured interval.
fn run(name: &str, mix: KvMix, window: usize, args: &BenchArgs) {
    let gall = Arc::new(GallCounter::default());
    let mut cfg = SystemConfig::new(WORKERS);
    cfg.replicas(REPLICAS);
    let keys = args.keys;
    let engine = PsmrEngine::spawn_with_runtime(
        &cfg,
        fine_dependency_spec().into_map(),
        move || KvService::with_keys_and_work(keys, EXEC_WORK),
        Runtime::new(Arc::new(RealClock), Arc::clone(&gall) as Arc<dyn Scheduler>),
    );
    let done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let (start, end) = std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let mut client = engine.client();
            let dist = KeyDist::uniform(keys);
            let (done, stop) = (&done, &stop);
            std::thread::Builder::new()
                .name(format!("client-{c}"))
                .spawn_scoped(scope, move || {
                    let mut rng = StdRng::seed_from_u64(0xCE05 + c);
                    while !stop.load(Ordering::Relaxed) {
                        while client.outstanding() < window {
                            let op = mix.sample(&dist, &mut rng);
                            client.submit(op.command(), op.encode());
                        }
                        client.recv_response();
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    while client.outstanding() > 0 {
                        client.recv_response();
                    }
                })
                .expect("spawn a client thread");
        }
        std::thread::sleep(args.warmup_duration());
        let start = mark(&done, &gall);
        std::thread::sleep(args.duration());
        let end = mark(&done, &gall);
        stop.store(true, Ordering::Relaxed);
        (start, end)
    });
    engine.shutdown();
    report(name, window, &start, &end);
}

fn report(name: &str, window: usize, start: &Mark, end: &Mark) {
    let cmds = end.done.saturating_sub(start.done).max(1) as f64;
    let secs = end.at.duration_since(start.at).as_secs_f64();
    println!(
        "{name} window {window}: {:.1} kcmd/s ({cmds} commands in {secs:.1} s)",
        cmds / secs / 1e3
    );
    // Per replica: each of its workers took every batch once.
    let batches = (end.batches - start.batches) as f64 / (REPLICAS * WORKERS) as f64;
    if batches > 0.0 {
        let commands = (end.commands - start.commands) as f64 / (REPLICAS * WORKERS) as f64;
        let rendezvous = (end.rendezvous - start.rendezvous) as f64 / REPLICAS as f64;
        println!(
            "  g_all: {batches:.0} batches, {:.1} commands per batch, {:.2} rendezvous per batch per replica",
            commands / batches,
            rendezvous / batches
        );
    }
    let (Some(before), Some(after)) = (&start.census, &end.census) else {
        println!("  (no /proc/self/task: no per-role census)");
        return;
    };
    println!(
        "  {:<16} {:>7} {:>12} {:>13} {:>15}",
        "role", "threads", "cpu us/cmd", "switches/cmd", "runq-wait us/cmd"
    );
    let mut total = (0.0, 0.0, 0.0);
    for role in after.since(before) {
        let cpu = role.cost.cpu_ns as f64 / 1e3 / cmds;
        let switches = role.cost.voluntary_switches as f64 / cmds;
        let wait = role.cost.wait_ns as f64 / 1e3 / cmds;
        total = (total.0 + cpu, total.1 + switches, total.2 + wait);
        println!(
            "  {:<16} {:>7} {cpu:>12.2} {switches:>13.3} {wait:>15.2}",
            role.role, role.threads
        );
    }
    println!(
        "  {:<16} {:>7} {:>12.2} {:>13.3} {:>15.2}",
        "total", "", total.0, total.1, total.2
    );
}

/// Prints per role what the deployment costs over [`IDLE`] with no
/// client connected.
fn idle(args: &BenchArgs) {
    let mut cfg = SystemConfig::new(WORKERS);
    cfg.replicas(REPLICAS);
    let keys = args.keys;
    let engine = PsmrEngine::spawn(&cfg, fine_dependency_spec().into_map(), move || {
        KvService::with_keys_and_work(keys, EXEC_WORK)
    });
    let before = ThreadCensus::take();
    std::thread::sleep(IDLE);
    let after = ThreadCensus::take();
    engine.shutdown();
    println!("idle: no client for {:.1} s", IDLE.as_secs_f64());
    let (Some(before), Some(after)) = (before, after) else {
        println!("  (no /proc/self/task: no per-role census)");
        return;
    };
    println!(
        "  {:<16} {:>7} {:>10} {:>14}",
        "role", "threads", "cpu ms/s", "switches/s"
    );
    let secs = IDLE.as_secs_f64();
    let mut total = (0.0, 0.0);
    for role in after.since(&before) {
        let cpu = role.cost.cpu_ns as f64 / 1e6 / secs;
        let switches = role.cost.voluntary_switches as f64 / secs;
        total = (total.0 + cpu, total.1 + switches);
        println!(
            "  {:<16} {:>7} {cpu:>10.2} {switches:>14.1}",
            role.role, role.threads
        );
    }
    println!(
        "  {:<16} {:>7} {:>10.2} {:>14.1}",
        "total", "", total.0, total.1
    );
}

fn main() {
    let args = BenchArgs::from_env();
    idle(&args);
    for (name, mix) in [
        ("kv_indep", KvMix::read_only()),
        ("kv_dep", KvMix::mixed(50.0)),
    ] {
        for window in [1, 50] {
            run(name, mix, window, &args);
        }
    }
}
