//! The in-process workloads (`kv_indep`, `kv_dep`, `kv_durable`): a
//! `PsmrEngine` with two replicas of two workers, driven by two
//! closed-loop `ClientProxy` threads — one outstanding command each in
//! the lat phase, a window of 50 each (the paper's §VI-B) in the sat
//! phase.

use crate::cluster::thread_cpu_seconds;
use crate::guard;
use crate::ops::{self, Model, OpGen, REPLY_LIMIT_NS};
use crate::run::{ClientLog, Phases, RunData, Span, SPAN_EVERY};
use crate::spec;
use crate::traced;
use psmr_common::ids::RequestId;
use psmr_common::SystemConfig;
use psmr_core::client::ClientProxy;
use psmr_core::engines::{Engine, PsmrEngine};
use psmr_kvstore::{fine_dependency_spec, KvOp, KvService};
use psmr_workload::KvMix;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Generator threads: never more than the host's two cores.
pub const CLIENTS: u64 = 2;
/// Outstanding commands per client at saturation (§VI-B).
pub const SAT_WINDOW: usize = 50;
/// Set-ups per end-to-end run. One takes under 20 ms, a third of it
/// waiting for a 1 ms tick, so three of them spread by 30 %; nine do not.
pub const SETUPS: usize = 9;
/// Synthetic execution cost per command — the figure harness's
/// calibration, which keeps execution visible next to ordering.
const WORK: Duration = Duration::from_micros(10);
/// Every `TRACE_SAMPLE`-th batch is traced in the traced run.
const TRACE_SAMPLE: u64 = 32;

struct Workload {
    mix: KvMix,
    durable: bool,
}

fn workload(name: &str) -> Option<Workload> {
    let (mix, durable) = match name {
        spec::KV_INDEP => (KvMix::read_only(), false),
        spec::KV_DEP => (KvMix::mixed(50.0), false),
        spec::KV_DURABLE => (KvMix::update_read(), true),
        _ => return None,
    };
    Some(Workload { mix, durable })
}

pub fn is_inproc(name: &str) -> bool {
    workload(name).is_some()
}

struct Deployment {
    engine: PsmrEngine,
    clients: Vec<ClientProxy>,
    wal_dir: Option<PathBuf>,
}

impl Deployment {
    /// Spawn, preload and the first ordered reply on every client: what
    /// `setup_s` times.
    fn start(w: &Workload, traced: bool) -> Self {
        let mut cfg = SystemConfig::new(2);
        cfg.replicas(2)
            .trace_sample(if traced { TRACE_SAMPLE } else { 0 });
        let wal_dir = w
            .durable
            .then(|| guard::scratch_dir("wal").expect("create a WAL directory"));
        // No WAL knob but the directory: whatever durable mode is the
        // default is what `kv_durable` measures.
        cfg.wal_dir(wal_dir.clone());
        let engine = PsmrEngine::spawn(&cfg, fine_dependency_spec().into_map(), || {
            KvService::with_keys_and_work(ops::KEYS, WORK)
        });
        let mut clients: Vec<ClientProxy> = (0..CLIENTS).map(|_| engine.client()).collect();
        for client in &mut clients {
            let probe = KvOp::Read { key: 0 };
            client.execute(probe.command(), probe.encode());
        }
        Self {
            engine,
            clients,
            wal_dir,
        }
    }

    fn stop(self) {
        // Clients first: an engine joins its threads only once no proxy
        // can submit any more.
        drop(self.clients);
        self.engine.shutdown();
        if let Some(dir) = self.wal_dir {
            guard::remove_scratch(&dir);
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warmup,
    Lat,
    Sat,
}

struct Driver<'a> {
    client: &'a mut ClientProxy,
    gen: OpGen,
    model: Model,
    log: ClientLog,
    epoch: Instant,
    traced: bool,
    sent: u64,
}

impl Driver<'_> {
    /// Keeps `window` commands outstanding for `length`, then drains.
    fn phase(&mut self, kind: Kind, window: usize, length: Duration) {
        let start = Instant::now();
        let deadline = start + length;
        let mut pending: HashMap<RequestId, (Instant, KvOp, Option<Span>)> = HashMap::new();
        loop {
            let open = Instant::now() < deadline;
            if !open && pending.is_empty() {
                return;
            }
            while open && pending.len() < window {
                let op = self.gen.next_op();
                let payload = op.encode();
                let due = Instant::now();
                let id = self.client.submit(op.command(), payload);
                self.sent += 1;
                let span = (self.traced && self.sent.is_multiple_of(SPAN_EVERY)).then(|| {
                    let due_ns = due.duration_since(self.epoch).as_nanos() as u64;
                    let sent_ns = self.epoch.elapsed().as_nanos() as u64;
                    Span {
                        id: self.sent,
                        due_ns,
                        sent_ns,
                        received_ns: 0,
                        children: vec![("core.submit", due_ns, sent_ns)],
                    }
                });
                pending.insert(id, (due, op, span));
            }
            let (id, reply) = self.client.recv_response();
            let now = Instant::now();
            let Some((due, op, span)) = pending.remove(&id) else {
                continue;
            };
            let latency = now.duration_since(due).as_nanos() as u64;
            self.log.attempted += 1;
            if !self.model.observe(&op, &reply) || latency > REPLY_LIMIT_NS {
                self.log.failed += 1;
            }
            match kind {
                Kind::Warmup => {}
                Kind::Lat => self.log.lat_ns.push((latency, op.is_structural())),
                Kind::Sat => {
                    self.log.sat_ns.push(latency);
                    self.log
                        .sat_done_ns
                        .push(now.duration_since(start).as_nanos() as u64);
                }
            }
            if let Some(mut span) = span {
                span.received_ns = now.duration_since(self.epoch).as_nanos() as u64;
                self.log.spans.push(span);
            }
        }
    }

    /// After quiescing: every written key must read as its last
    /// acknowledged value.
    fn read_back(&mut self) {
        for (key, expected) in ops::readback_plan(&self.model, &mut self.gen, ops::READBACK) {
            let op = KvOp::Read { key };
            let reply = self.client.execute(op.command(), op.encode());
            self.log.attempted += 1;
            if ops::decode_reply(&reply) != Some(expected) {
                self.log.failed += 1;
            }
        }
    }
}

/// What driving one deployment through its phases produced.
struct Driven {
    log: ClientLog,
    generator_cpu_s: f64,
    side: Option<traced::InprocSide>,
}

/// Warm-up, lat phase, sat phase and read-back on one deployment.
fn drive(
    deployment: &mut Deployment,
    w: &Workload,
    seed: u64,
    phases: Phases,
    traced: bool,
    epoch: Instant,
) -> Driven {
    let secs = Duration::from_secs_f64;
    // Clients and this thread meet before and after every phase, so the
    // trace and counters are read while nothing is in flight.
    let barrier = Barrier::new(CLIENTS as usize + 1);
    let mut driven = Driven {
        log: ClientLog::default(),
        generator_cpu_s: 0.0,
        side: None,
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = deployment
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                let gen = OpGen::new(w.mix, seed, c as u64, CLIENTS);
                scope.spawn(move || {
                    let cpu_before = thread_cpu_seconds();
                    let mut driver = Driver {
                        client,
                        gen,
                        model: Model::default(),
                        log: ClientLog::default(),
                        epoch,
                        traced,
                        sent: 0,
                    };
                    driver.phase(Kind::Warmup, SAT_WINDOW, secs(phases.warmup_s));
                    barrier.wait();
                    barrier.wait();
                    driver.phase(Kind::Lat, 1, secs(phases.lat_s));
                    barrier.wait();
                    barrier.wait();
                    driver.phase(Kind::Sat, SAT_WINDOW, secs(phases.sat_s));
                    barrier.wait();
                    driver.read_back();
                    let cpu_s = match (cpu_before, thread_cpu_seconds()) {
                        (Some(before), Some(after)) => after - before,
                        _ => 0.0,
                    };
                    (driver.log, cpu_s)
                })
            })
            .collect();
        barrier.wait(); // warm-up drained
        let mut capture = traced.then(traced::InprocCapture::begin);
        barrier.wait(); // lat begins
        barrier.wait(); // lat drained
        if let Some(capture) = &mut capture {
            capture.end_of_lat();
        }
        barrier.wait(); // sat begins
        barrier.wait(); // sat drained
        driven.side = capture.map(traced::InprocCapture::end_of_sat);
        for handle in handles {
            let (log, cpu_s) = handle.join().expect("client thread");
            driven.log.merge(log);
            driven.generator_cpu_s += cpu_s;
        }
    });
    driven
}

/// Runs one in-process workload: `phases.setups` timed set-ups (the last
/// one is kept), warm-up, lat phase, sat phase, read-back.
pub fn run(name: &str, seed: u64, phases: Phases, traced: bool) -> RunData {
    let w = workload(name).expect("an in-process workload");
    let mut data = RunData::new(phases);
    let mut deployment = None;
    for _ in 0..phases.setups.max(1) {
        if let Some(previous) = deployment.take() {
            Deployment::stop(previous);
        }
        let t0 = Instant::now();
        deployment = Some(Deployment::start(&w, traced));
        data.setups_s.push(t0.elapsed().as_secs_f64());
    }
    let mut deployment = deployment.expect("at least one set-up");
    let epoch = Instant::now();
    let driven = drive(&mut deployment, &w, seed, phases, traced, epoch);
    // The engine shares this process, so the generator's own cost is the
    // CPU of its client threads, not the process's.
    data.loadgen_cpu_pct = driven.generator_cpu_s / epoch.elapsed().as_secs_f64() * 100.0;
    data.log = driven.log;
    if let Some(side) = driven.side {
        let commands = (data.log.lat_ns.len() + data.log.sat_ns.len()) as f64;
        data.layer = side.layer(data.lat_mean_ns(), commands);
    }
    deployment.stop();
    data
}
