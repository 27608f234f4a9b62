//! The `tcp3_follower` workload: three `psmr-node` processes on
//! loopback, one pipelined client connection to follower node 1, 80 %
//! reads and 20 % updates. No delay is injected between the nodes, so
//! latency is processor time plus loopback.
//!
//! Lat phase: open loop at 5 000 commands/s, latency from each request's
//! due time. Sat phase: closed loop, window 64, same connection.
//!
//! The traced run adds, from outside the nodes: the split of the socket
//! path (wire / ordering / mesh), per-node CPU, follower lag, a rate
//! ladder, a checkpoint-stall run and a fault epilogue.

use crate::cluster::{self, Boot, Cluster, NodeFlags, FOLLOWER, LOAD_CLIENT, NODES};
use crate::ops::{self, Model, OpGen};
use crate::run::{ClientLog, Phases, RunData};
use crate::stats;
use crate::tcpload::{Conn, Pace, Record};
use crate::traced::{self, Layer, TraceRows};
use psmr_common::cpu::CpuSampler;
use psmr_kvstore::{KvOp, KvResult};
use psmr_node::wipe_data_dir;
use psmr_workload::KvMix;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Open-loop rate of the lat phase, commands per second.
pub const LAT_RATE: f64 = 5_000.0;
/// Boots per end-to-end run; each costs about 0.6 s with its teardown.
pub const SETUPS: usize = 3;
/// Closed-loop window of the sat phase.
pub const SAT_WINDOW: usize = 64;
/// Nodes trace every `TRACE_SAMPLE`-th batch in the traced run.
pub const TRACE_SAMPLE: u64 = 32;
/// Open-loop rate during the fault epilogue.
pub const FAULT_RATE: f64 = 2_000.0;
/// The rate ladder's steps, commands per second.
pub const LADDER_RATES: [f64; 4] = [2_500.0, 5_000.0, 10_000.0, 20_000.0];
/// A ladder step passes with due-time p99 at or under this.
pub const LADDER_P99_LIMIT_MS: f64 = 10.0;

fn mix() -> KvMix {
    KvMix::new(0.8, 0.2, 0.0, 0.0)
}

fn flags(traced: bool) -> NodeFlags {
    NodeFlags {
        trace_sample: if traced { TRACE_SAMPLE } else { 0 },
        // Periodic checkpoints stall the stream for tens of ms and made
        // the open-loop p99 wander; their cost is `recovery.ckpt_p99_ms`.
        checkpoint_ms: 0,
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Counters summed over the nodes, read from each `metrics.json`.
fn scrape_counters(cluster: &Cluster) -> BTreeMap<String, f64> {
    let mut sum = BTreeMap::new();
    for id in 0..NODES {
        let payload = cluster.admin(id, "metrics.json").unwrap_or_default();
        for (name, value) in traced::parse_counters(&payload) {
            *sum.entry(name).or_insert(0.0) += value;
        }
    }
    sum
}

fn scrape_trace(cluster: &Cluster) -> TraceRows {
    // The follower's report spans the whole chain: it adopts the
    // orderer's stamps from the relayed batch.
    TraceRows::parse_admin(&cluster.admin(FOLLOWER, "trace").unwrap_or_default())
}

/// Runs the workload: `phases.setups` timed boots (the last cluster is
/// kept), warm-up, lat phase, sat phase, checks. A traced run adds the
/// diagnostics that need their own load (split, ladder, and a second,
/// checkpointing cluster for the checkpoint tail and the fault epilogue).
pub fn run(node_bin: &Path, seed: u64, phases: Phases, traced: bool) -> RunData {
    let mut data = RunData::new(phases);
    let mut cluster = None;
    for _ in 0..phases.setups.max(1) {
        if let Some(previous) = cluster.take() {
            Cluster::stop(previous);
        }
        let t0 = Instant::now();
        cluster = Some(Cluster::boot(node_bin, flags(traced), Boot::Ordered));
        data.setups_s.push(t0.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one set-up");

    let cpu = CpuSampler::start();
    let epoch = Instant::now();
    let mut run = ClusterRun {
        conn: Conn::connect(cluster.client_addr(FOLLOWER), LOAD_CLIENT, epoch, traced)
            .expect("connect to the follower"),
        gen: OpGen::new(mix(), seed, 0, 1),
        model: Model::default(),
        log: ClientLog::default(),
    };
    data.layer = run.measure(&cluster, phases, traced);
    let plan = ops::readback_plan(&run.model, &mut run.gen, ops::READBACK);
    run.read_back(&plan);
    let (attempted, failed) = cluster.check_agreement(&plan);
    run.log.attempted += attempted;
    run.log.failed += failed;
    if failed > 0 {
        data.notes
            .push(format!("{failed} of {attempted} local reads disagreed"));
    }
    if traced {
        data.layer.extend(socket_path_split(&cluster));
        data.layer.extend(run.rate_ladder(phases));
    }
    data.log = run.log;
    drop(run.conn);
    cluster.stop();
    if traced {
        let (attempted, failed) =
            checkpointing_cluster(node_bin, seed, phases, &mut data.layer, &mut data.notes);
        data.log.attempted += attempted;
        data.log.failed += failed;
    }
    data.loadgen_cpu_pct = cpu.sample_pct().unwrap_or(0.0);
    data
}

/// The generator's side of one cluster: its connection, command stream,
/// model of the keys it wrote, and what it recorded.
struct ClusterRun {
    conn: Conn,
    gen: OpGen,
    model: Model,
    log: ClientLog,
}

impl ClusterRun {
    fn drive(&mut self, pace: Pace, length: Duration, record: Record) {
        let gen = &mut self.gen;
        self.conn.drive(
            &mut || Some((gen.next_op(), None)),
            &mut self.model,
            pace,
            length,
            record,
            &mut self.log,
        );
    }

    /// Warm-up, lat phase, sat phase. On a traced run, returns what the
    /// nodes' trace and counters and `/proc` say about the two phases.
    fn measure(&mut self, cluster: &Cluster, phases: Phases, traced: bool) -> Layer {
        let mut layer = Layer::new();
        let closed = Pace::Closed { window: SAT_WINDOW };
        self.drive(closed, secs(phases.warmup_s), Record::Nothing);

        let counters_before = traced.then(|| scrape_counters(cluster));
        let trace_before = traced.then(|| scrape_trace(cluster));
        self.drive(
            Pace::Open { rate: LAT_RATE },
            secs(phases.lat_s),
            Record::Lat,
        );
        if let Some(before) = trace_before {
            let lat: Vec<f64> = self.log.lat_ns.iter().map(|(ns, _)| *ns as f64).collect();
            layer.extend(
                scrape_trace(cluster)
                    .since(&before)
                    .layer(stats::mean(&lat)),
            );
        }

        let cpu_before: Vec<Option<f64>> = (0..NODES)
            .map(|id| cluster.pid(id).and_then(cluster::cpu_seconds))
            .collect();
        let sat_done = AtomicBool::new(false);
        let lag = std::thread::scope(|scope| {
            // Once a second, how far the followers' executed position
            // trails the orderer's. One admin query per node per second:
            // not load.
            let sampler = traced.then(|| {
                scope.spawn(|| {
                    let mut worst = 0u64;
                    while !sat_done.load(Ordering::Relaxed) {
                        let seq = |id| cluster.executed_seq(id);
                        if let (Some(n0), Some(n1), Some(n2)) = (seq(0), seq(1), seq(2)) {
                            worst = worst.max(n0.saturating_sub(n1.min(n2)));
                        }
                        std::thread::sleep(Duration::from_secs(1));
                    }
                    worst
                })
            });
            self.drive(closed, secs(phases.sat_s), Record::Sat);
            sat_done.store(true, Ordering::Relaxed);
            sampler.map(|s| s.join().expect("lag sampler"))
        });
        if !traced {
            return layer;
        }
        let sat_commands = self.log.sat_ns.len() as f64;
        if sat_commands > 0.0 {
            for (id, before) in cpu_before.iter().enumerate() {
                let after = cluster.pid(id).and_then(cluster::cpu_seconds);
                if let (Some(before), Some(after)) = (before, after) {
                    layer.insert(
                        format!("node.cpu_ms_per_kcmd.n{id}"),
                        (after - before) * 1e3 / (sat_commands / 1e3),
                    );
                }
            }
        }
        if let Some(lag) = lag {
            layer.insert("node.follower_lag_seq".to_string(), lag as f64);
        }
        if let Some(before) = counters_before {
            let after = scrape_counters(cluster);
            let commands = (self.log.lat_ns.len() + self.log.sat_ns.len()) as f64;
            // A counter appears in the payload once first incremented:
            // one that is in neither scrape does not exist (metric left
            // out); one only in the later scrape started from zero.
            let delta = |name: &str| {
                let after = after.get(name)?;
                Some(after - before.get(name).copied().unwrap_or(0.0))
            };
            layer.extend(traced::counter_layer(&delta, commands));
        }
        layer
    }

    /// Quiesced: every updated key must read as its last acknowledged
    /// value through the ordered path.
    fn read_back(&mut self, plan: &[(u64, KvResult)]) {
        let mut planned = plan
            .iter()
            .map(|(key, expected)| (KvOp::Read { key: *key }, Some(*expected)));
        self.conn.drive(
            &mut || planned.next(),
            &mut self.model,
            Pace::Closed { window: SAT_WINDOW },
            Duration::from_secs(30),
            Record::Nothing,
            &mut self.log,
        );
    }

    /// Highest of a few fixed rates the cluster serves with due-time p99
    /// within [`LADDER_P99_LIMIT_MS`] and no backlog left growing.
    fn rate_ladder(&mut self, phases: Phases) -> Layer {
        let step = secs((phases.sat_s * 0.3).max(1.0));
        let mut best = 0.0;
        for rate in LADDER_RATES {
            let before = std::mem::take(&mut self.log);
            self.drive(Pace::Open { rate }, step, Record::Lat);
            let step_log = std::mem::replace(&mut self.log, before);
            let mut lat: Vec<f64> = step_log.lat_ns.iter().map(|(ns, _)| *ns as f64).collect();
            // A backlog that grows shows as latency rising through the
            // step: compare its last fifth with its first. `lat_ns` is in
            // completion order, which is send order on one connection.
            let fifth = (lat.len() / 5).max(1).min(lat.len());
            let first = stats::mean(&lat[..fifth]);
            let last = stats::mean(&lat[lat.len() - fifth..]);
            let growing = last > 2.0 * first && last > LADDER_P99_LIMIT_MS * 1e6;
            stats::sort(&mut lat);
            let p99_ms = stats::percentile(&lat, 99.0) / 1e6;
            let passed = step_log.failed == 0 && p99_ms <= LADDER_P99_LIMIT_MS && !growing;
            self.log.attempted += step_log.attempted;
            self.log.failed += step_log.failed;
            if !passed {
                break;
            }
            best = rate / 1e3;
        }
        Layer::from([("node.rate_ladder_max_kcps".to_string(), best)])
    }
}

/// The socket path split from outside, with blocking one-at-a-time
/// clients: a local read on node 1 (wire + listener + execute, no
/// ordering), an ordered read through the orderer, an ordered read
/// through the follower. The three shares sum to the follower's median
/// by construction.
fn socket_path_split(cluster: &Cluster) -> Layer {
    const ROUNDS: usize = 3;
    const PER_ROUND: usize = 300;
    let limit = Duration::from_secs(2);
    let mut wire_client = cluster.probe_client(FOLLOWER, 0);
    let mut orderer_client = cluster.probe_client(0, 1);
    let mut follower_client = cluster.probe_client(FOLLOWER, 1);
    let (mut wire, mut orderer, mut follower) = (Vec::new(), Vec::new(), Vec::new());
    // Rounds interleave the three paths so drift hits them alike.
    for round in 0..ROUNDS {
        for i in 0..PER_ROUND {
            let op = KvOp::Read {
                key: ((round * PER_ROUND + i) as u64 * 7_919) % ops::KEYS,
            };
            let t = Instant::now();
            if wire_client
                .execute_stale(op.command(), &op.encode(), limit)
                .is_ok()
            {
                wire.push(t.elapsed().as_nanos() as f64);
            }
            let t = Instant::now();
            if orderer_client
                .execute(op.command(), op.encode(), limit)
                .is_ok()
            {
                orderer.push(t.elapsed().as_nanos() as f64);
            }
            let t = Instant::now();
            if follower_client
                .execute(op.command(), op.encode(), limit)
                .is_ok()
            {
                follower.push(t.elapsed().as_nanos() as f64);
            }
        }
    }
    let mut out = Layer::new();
    if wire.is_empty() || orderer.is_empty() || follower.is_empty() {
        return out;
    }
    let (wire, orderer, follower) = (
        stats::median(&wire) / 1e6,
        stats::median(&orderer) / 1e6,
        stats::median(&follower) / 1e6,
    );
    out.insert("node.wire_p50_ms".into(), wire);
    out.insert("node.orderer_p50_ms".into(), orderer);
    out.insert("node.follower_p50_ms".into(), follower);
    out.insert("node.ordering_share_ms".into(), orderer - wire);
    out.insert("node.mesh_share_ms".into(), follower - orderer);
    out
}

/// A second cluster, started all at once and checkpointing every
/// second: how long a simultaneous boot takes to serve, what the
/// periodic checkpoint does to the open-loop tail, and the fault
/// epilogue. Returns how many operations it attempted and how many failed.
///
/// The epilogue needs the periodic checkpoints. The orderer retains
/// 4096 batches; a wiped node fetches the newest checkpoint and then
/// subscribes from its position, so a checkpoint older than the
/// retention window can never be caught up from — with
/// `--checkpoint-ms 0` and a single forced checkpoint the restarted node
/// looped between "state-transfer ok" and "stream trimmed" for good.
fn checkpointing_cluster(
    node_bin: &Path,
    seed: u64,
    phases: Phases,
    layer: &mut Layer,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let t0 = Instant::now();
    let mut cluster = Cluster::boot(
        node_bin,
        NodeFlags {
            trace_sample: 0,
            checkpoint_ms: 1_000,
        },
        Boot::Simultaneous,
    );
    layer.insert("node.boot_ready_s".into(), t0.elapsed().as_secs_f64());
    let mut run = ClusterRun {
        conn: Conn::connect(
            cluster.client_addr(FOLLOWER),
            LOAD_CLIENT + 100,
            Instant::now(),
            false,
        )
        .expect("connect to the follower"),
        gen: OpGen::new(mix(), seed ^ 0xC4EC, 0, 1),
        model: Model::default(),
        log: ClientLog::default(),
    };
    run.drive(
        Pace::Open { rate: LAT_RATE },
        secs((phases.sat_s * 0.6).max(3.0)),
        Record::Lat,
    );
    let mut lat: Vec<f64> = run.log.lat_ns.iter().map(|(ns, _)| *ns as f64).collect();
    stats::sort(&mut lat);
    if !lat.is_empty() {
        layer.insert(
            "recovery.ckpt_p99_ms".into(),
            stats::percentile(&lat, 99.0) / 1e6,
        );
    }

    fault_epilogue(&mut cluster, &mut run, layer);
    let plan = ops::readback_plan(&run.model, &mut run.gen, ops::READBACK);
    run.read_back(&plan);
    let (attempted, failed) = cluster.check_agreement(&plan);
    if failed > 0 {
        notes.push(format!(
            "after the rejoin {failed} of {attempted} local reads disagreed"
        ));
    }
    drop(run.conn);
    cluster.stop();
    // Only the checks travel on: this cluster's latencies must not mix
    // into the workload's own samples.
    (run.log.attempted + attempted, run.log.failed + failed)
}

/// Under open-loop load on node 1: SIGKILL node 2, wipe its data
/// directory, restart it. The node-1 client should not notice (a
/// majority stays up); the restarted node must come back through state
/// transfer.
fn fault_epilogue(cluster: &mut Cluster, run: &mut ClusterRun, layer: &mut Layer) {
    const VICTIM: usize = 2;
    let before = (run.log.attempted, run.log.failed);
    let mut rejoin_s = 0.0;
    std::thread::scope(|scope| {
        let load = scope.spawn(|| {
            run.drive(
                Pace::Open { rate: FAULT_RATE },
                Duration::from_secs(4),
                Record::Nothing,
            );
        });
        std::thread::sleep(Duration::from_millis(500));
        cluster.kill_node(VICTIM);
        wipe_data_dir(&cluster.config.nodes[VICTIM].data_dir);
        std::thread::sleep(Duration::from_millis(200));
        let restarted = Instant::now();
        cluster.spawn_node(VICTIM);
        cluster.await_serving(VICTIM);
        rejoin_s = restarted.elapsed().as_secs_f64();
        load.join().expect("outage load");
    });
    let (attempted, failed) = (run.log.attempted - before.0, run.log.failed - before.1);
    layer.insert("recovery.rejoin_s".into(), rejoin_s);
    layer.insert(
        "recovery.outage_failed_frac".into(),
        failed as f64 / attempted.max(1) as f64,
    );
}
