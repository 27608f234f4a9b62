//! Socket-level battery: a real 3-process deployment on loopback TCP.
//!
//! Boots three `psmr-node` OS processes from a generated cluster
//! config, drives closed-loop kvstore client sessions against every
//! node, SIGKILLs a follower mid-load, restarts it with a **wiped data
//! directory** (forcing rejoin via TCP state transfer), and checks the
//! combined per-key history — spanning both incarnations — for
//! linearizability with the same checker the in-process tests use.
//!
//! Mid-run, the battery also exercises the observability plane: every
//! node's admin endpoint is scraped for peer-labeled mesh counters and
//! a status snapshot, the followers' cross-process trace chains are
//! checked against the measured client end-to-end latency, and the
//! restarted follower's flight-recorder JSONL must show its
//! state-transfer catch-up.
//!
//! The `chaos_`-prefixed tests are the **fault battery**: they drive
//! the same closed-loop workload while the admin `chaos` verb injects
//! one-way partitions, frame corruption, and jittered delay into the
//! live mesh — plus an orderer SIGKILL + restart under failover clients
//! — asserting the injected faults leave their full counter trail and
//! that every history spanning a fault epoch stays linearizable.
//!
//! Node logs land in `$TMPDIR/psmr-smoke-logs/` so CI can attach them
//! as artifacts when the test fails.

use psmr_core::linear::{OpRecord, RegisterOp};
use psmr_kvstore::{KvOp, KvResult};
use psmr_net::{ClusterConfig, NodeSpec};
use psmr_node::{admin, connect_with_retry, force_checkpoint, ops, NodeClient};
use psmr_sim::check::{check_linearizable, KEYS};
use std::fs::File;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kills every spawned node on drop, so a panicking test never leaks
/// processes.
struct Deployment {
    children: Vec<Option<Child>>,
    cluster: ClusterConfig,
    logs: PathBuf,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Deployment {
    fn spawn_node(&mut self, id: usize, log_name: &str) {
        self.spawn_node_with(id, log_name, &[]);
    }

    fn spawn_node_with(&mut self, id: usize, log_name: &str, extra: &[&str]) {
        let log = File::create(self.logs.join(log_name)).expect("create node log");
        let err = log.try_clone().expect("clone log handle");
        let config = self.logs.join("cluster.toml");
        let child = Command::new(env!("CARGO_BIN_EXE_psmr-node"))
            .args(["--config", config.to_str().unwrap()])
            .args(["--id", &id.to_string()])
            .args(["--keys", &KEYS.to_string()])
            .args(["--checkpoint-ms", "200"])
            .args(["--trace-sample", "1"])
            .args(extra)
            .stdout(Stdio::from(log))
            .stderr(Stdio::from(err))
            .spawn()
            .expect("spawn psmr-node");
        self.children[id] = Some(child);
    }

    fn kill_node(&mut self, id: usize) {
        if let Some(mut child) = self.children[id].take() {
            child.kill().expect("SIGKILL node");
            child.wait().expect("reap node");
        }
    }

    fn client_addr(&self, id: usize) -> &str {
        &self.cluster.nodes[id].client_addr
    }

    fn admin_addr(&self, id: usize) -> &str {
        &self.cluster.nodes[id].admin_addr
    }
}

/// Serializes the deployment tests: two 3-process clusters fighting for
/// the same cores skew the latency measurements the trace-attribution
/// check depends on.
fn deployment_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn free_ports(n: usize) -> Vec<u16> {
    // Hold all listeners at once so the ports are pairwise distinct.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a free port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

fn deployment(tag: &str) -> Deployment {
    let logs = std::env::temp_dir()
        .join("psmr-smoke-logs")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&logs);
    std::fs::create_dir_all(&logs).expect("create log dir");
    let ports = free_ports(9);
    let nodes = (0..3)
        .map(|i| NodeSpec {
            addr: format!("127.0.0.1:{}", ports[i]),
            client_addr: format!("127.0.0.1:{}", ports[3 + i]),
            admin_addr: format!("127.0.0.1:{}", ports[6 + i]),
            data_dir: logs.join(format!("data-n{i}")),
        })
        .collect();
    let cluster = ClusterConfig { nodes };
    std::fs::write(logs.join("cluster.toml"), cluster.to_toml()).expect("write cluster config");
    Deployment {
        children: vec![None, None, None],
        cluster,
        logs,
    }
}

/// Blocks until the node answers a read through the ordered stream —
/// which implies its whole pipeline (mesh, relay/subscription, catch-up
/// including any state transfer, executor, client plane) is live.
fn await_serving(addr: &str, probe_client: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(mut conn) = connect_with_retry(addr, probe_client, Duration::from_secs(5)) {
            let op = KvOp::Read { key: 0 };
            if let Ok(result) = conn.execute(op.command(), op.encode(), Duration::from_secs(5)) {
                if matches!(KvResult::decode(&result), KvResult::Value(_)) {
                    return;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "node at {addr} never came up serving"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// One closed-loop session over the TCP client plane — the same op mix,
/// value numbering, and record shape as `psmr_sim::check::client_session`,
/// so the shared checker applies unchanged.
fn session(addr: String, c: u64, ops: u64, t0: Instant) -> Vec<(u64, OpRecord)> {
    let conn = connect_with_retry(&addr, 1000 + c, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("session {c}: connect {addr}: {e}"));
    session_conn(conn, c, ops, t0)
}

/// The session loop over an already-built client — so chaos tests can
/// run the same workload through a failover set or a shortened
/// per-try timeout.
fn session_conn(conn: NodeClient, c: u64, ops: u64, t0: Instant) -> Vec<(u64, OpRecord)> {
    session_while(conn, c, t0, |done| done < ops)
}

/// The session loop, issuing the next op for as long as `more(ops
/// completed so far)` holds — so a fault test can hold a session at a
/// chosen op until its fault is in place, however fast healthy ops are.
fn session_while(
    mut conn: NodeClient,
    c: u64,
    t0: Instant,
    mut more: impl FnMut(u64) -> bool,
) -> Vec<(u64, OpRecord)> {
    let mut records = Vec::new();
    let kv = |conn: &mut NodeClient, op: KvOp| {
        let result = conn
            .execute(op.command(), op.encode(), Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("session {c}: {op:?} failed: {e}"));
        KvResult::decode(&result)
    };
    let mut i = 0;
    while more(i) {
        let key = (c * 3 + i) % KEYS;
        let invoked = t0.elapsed().as_nanos() as u64;
        let op = if (i + c).is_multiple_of(3) {
            let value = c * 1_000_000 + i;
            assert_eq!(kv(&mut conn, KvOp::Update { key, value }), KvResult::Ok);
            RegisterOp::Write { value }
        } else {
            match kv(&mut conn, KvOp::Read { key }) {
                KvResult::Value(v) => RegisterOp::Read { value: Some(v) },
                other => panic!("session {c}: read returned {other:?}"),
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
        i += 1;
    }
    records
}

fn run_sessions(plan: Vec<(String, u64)>, ops: u64, t0: Instant) -> Vec<(u64, OpRecord)> {
    let handles: Vec<_> = plan
        .into_iter()
        .map(|(addr, c)| std::thread::spawn(move || session(addr, c, ops, t0)))
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("session thread"))
        .collect()
}

/// One admin command against a live node, with a hard failure when the
/// endpoint stays unreachable or silent — mid-run observability must
/// work. Brief retries absorb the instant between a node answering
/// clients and binding its admin listener.
fn scrape(addr: &str, command: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match admin::query(addr, command, Duration::from_secs(5)) {
            Ok(payload) => return payload,
            Err(e) if Instant::now() >= deadline => {
                panic!("admin scrape {command} at {addr}: {e}")
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// First integer after `key` (admin payloads render fields as `key=N`
/// or `key N`).
fn int_after(text: &str, key: &str) -> u64 {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("`{key}` missing from admin payload:\n{text}"))
        + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("`{key}` not followed by an integer:\n{text}"))
}

/// Non-panicking variant of [`int_after`] for counters that may not
/// exist yet (a counter is only rendered once first incremented).
fn try_int_after(text: &str, key: &str) -> Option<u64> {
    let at = text.find(key)? + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// One `chaos ...` admin verb against a live node, asserting it was
/// accepted.
fn chaos(admin_addr: &str, args: &str) {
    let reply = scrape(admin_addr, &format!("chaos {args}"));
    assert!(
        reply.starts_with("ok"),
        "chaos {args} at {admin_addr} rejected: {reply}"
    );
}

/// Polls a node's `status` until its health verdict matches `want`.
fn await_health(admin_addr: &str, want: &str) {
    let needle = format!("health {want}");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = scrape(admin_addr, "status");
        if status.contains(&needle) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "node at {admin_addr} never reported `{needle}`:\n{status}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Mean client-side end-to-end latency over a batch of session records.
fn mean_e2e_ns(records: &[(u64, OpRecord)]) -> u64 {
    let sum: u64 = records.iter().map(|(_, r)| r.returned - r.invoked).sum();
    sum / records.len().max(1) as u64
}

/// The `interval <name> ...` payload line of an admin `trace` response.
fn interval_line<'a>(trace: &'a str, name: &str) -> &'a str {
    trace
        .lines()
        .find(|l| l.starts_with(&format!("interval {name} ")))
        .unwrap_or_else(|| panic!("interval {name} missing from trace payload:\n{trace}"))
}

/// Mean chain latency of exactly the lifecycles folded *between* two
/// cumulative trace scrapes: per interval, (total_after − total_before)
/// / (count_after − count_before), summed over the telescoping chain.
/// Windowing keeps cheap idle-era sequences (boot probes, idle
/// checkpoints) from diluting the mean the loaded phase is checked
/// against.
fn windowed_chain_ns(before: &str, after: &str) -> u64 {
    use psmr_common::trace::{CHAIN_INTERVALS, INTERVAL_NAMES};
    let mut sum = 0u64;
    for name in &INTERVAL_NAMES[..CHAIN_INTERVALS] {
        let totals = |trace| {
            let line = interval_line(trace, name);
            let count = int_after(line, "count=");
            (count, count * int_after(line, "mean_ns="))
        };
        let (c0, s0) = totals(before);
        let (c1, s1) = totals(after);
        assert!(c1 > c0, "no new `{name}` samples between scrapes:\n{after}");
        sum += s1.saturating_sub(s0) / (c1 - c0);
    }
    sum
}

/// One trace-attribution measurement round: snapshot the followers'
/// cumulative trace reports, drive one closed-loop session per node,
/// and require the chains each follower folded *inside* that window
/// (prefix adopted off the wire + local execution stamps) to attribute
/// >= 90% of the orderer session's measured client end-to-end latency.
///
/// The orderer session is the latency reference because its ops have no
/// relay-forward leg in front of the chain's `Submitted` anchor; the
/// follower sessions keep all three client planes and the relay path
/// under load during the window. Completed ops are appended to
/// `records` even when the round falls short — they are real history
/// for the linearizability check.
fn attribution_round(
    deploy: &Deployment,
    round: u64,
    t0: Instant,
    records: &mut Vec<(u64, OpRecord)>,
) -> Result<(), String> {
    let trace_before: Vec<String> = (1..3)
        .map(|id| scrape(deploy.admin_addr(id), "trace"))
        .collect();

    let sessions: Vec<Vec<(u64, OpRecord)>> = (0..3)
        .map(|c| {
            let addr = deploy.client_addr(c as usize).to_string();
            let client = 30 + round * 3 + c;
            std::thread::spawn(move || session(addr, client, 16, t0))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("attribution session"))
        .collect();
    let measured_ns = mean_e2e_ns(&sessions[0]);

    let mut result = Ok(());
    for (i, id) in (1..3).enumerate() {
        let before = &trace_before[i];
        let folded_before = int_after(before, "traced ");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut last_folded = 0;
        let after = loop {
            let after = scrape(deploy.admin_addr(id), "trace");
            let folded = int_after(&after, "traced ");
            // Closed-loop sessions have <= 3 ops in flight, so the
            // round's 48 ops span at least 16 batches: a handful of new
            // folds proves the follower kept chaining under load. Wait
            // for the count to settle so the tail batches (in flight
            // when the sessions returned) are inside the window too.
            if folded >= folded_before + 8 && folded == last_folded {
                break after;
            }
            last_folded = folded;
            assert!(
                Instant::now() < deadline,
                "follower {id} folded no new chains under load:\n{after}"
            );
            std::thread::sleep(Duration::from_millis(100));
        };
        let chain_ns = windowed_chain_ns(before, &after);
        let attributed = chain_ns as f64 / measured_ns as f64 * 100.0;
        println!(
            "follower {id}: windowed chain {chain_ns}ns attributes {attributed:.1}% \
             of the measured {measured_ns}ns mean end-to-end"
        );
        if result.is_ok() && attributed < 90.0 {
            result = Err(format!(
                "follower {id} chain attributes {attributed:.1}% of the measured \
                 {measured_ns}ns mean end-to-end (windowed chain {chain_ns}ns):\n{after}"
            ));
        }
    }
    for s in sessions {
        records.extend(s);
    }
    result
}

#[test]
fn three_process_deployment_survives_sigkill_and_rejoins_via_state_transfer() {
    let _serial = deployment_lock();
    let mut deploy = deployment("smoke");
    for id in 0..3 {
        deploy.spawn_node(id, &format!("n{id}.log"));
    }
    for id in 0..3 {
        await_serving(deploy.client_addr(id), 900 + id as u64);
    }

    let t0 = Instant::now();
    let mut records = Vec::new();

    // Phase 1 doubles as the trace-attribution measurement. Bounded
    // retries absorb transient scheduler bursts — on a shared box a
    // single descheduled executor tick inflates one round's tails by
    // milliseconds — without weakening the >= 90% bar a quiet round
    // must meet. Every round's ops feed the linearizability history
    // either way.
    let mut attribution = Err(String::from("no attribution round ran"));
    for round in 0..3 {
        attribution = attribution_round(&deploy, round, t0, &mut records);
        match &attribution {
            Ok(()) => break,
            Err(shortfall) => println!("attribution round {round} fell short: {shortfall}"),
        }
    }
    if let Err(shortfall) = attribution {
        panic!("cross-process trace attribution failed in 3 rounds: {shortfall}");
    }

    // Mid-run observability: every node's admin endpoint answers with
    // peer-labeled mesh counters and a coherent status while load ran.
    for id in 0..3 {
        let metrics = scrape(deploy.admin_addr(id), "metrics");
        assert!(metrics.contains("# counters"), "node {id}: {metrics}");
        assert!(
            metrics.contains("{peer="),
            "node {id} has no peer-labeled mesh counters:\n{metrics}"
        );
        let status = scrape(deploy.admin_addr(id), "status");
        assert!(status.contains(&format!("node {id}")), "{status}");
        assert!(status.contains("durable_seq="), "{status}");
        let role = if id == 0 {
            "role orderer"
        } else {
            "role follower"
        };
        assert!(status.contains(role), "node {id}: {status}");
    }

    // The merged operator view reaches every node too.
    let table = ops::run_ops(&deploy.cluster, Duration::from_secs(5)).expect("ops scrape");
    assert!(
        table.contains("orderer") && table.contains("follower") && !table.contains("unreachable"),
        "ops table incomplete:\n{table}"
    );

    // Force a checkpoint through the client plane: once acked, node 0
    // has snapshotted and trimmed its stream, so the wiped follower's
    // rejoin below *must* go through TCP state transfer.
    let mut admin =
        connect_with_retry(deploy.client_addr(0), 999, Duration::from_secs(10)).expect("admin");
    let ckpt = force_checkpoint(&mut admin, Duration::from_secs(30)).expect("checkpoint acked");
    assert!(ckpt >= 1, "checkpoint driver produced id {ckpt}");

    // Phase 2: load on the surviving nodes, and SIGKILL node 2 mid-load.
    let phase2: Vec<_> = (0..2)
        .map(|n| {
            let addr = deploy.client_addr(n).to_string();
            let c = 10 + n as u64;
            std::thread::spawn(move || session(addr, c, 24, t0))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    deploy.kill_node(2);
    for h in phase2 {
        records.extend(h.join().expect("phase-2 session"));
    }

    // Restart node 2 with a wiped data directory: its only way back is
    // a checkpoint fetched from a live peer over TCP.
    let n2_data = deploy.cluster.nodes[2].data_dir.clone();
    std::fs::remove_dir_all(&n2_data).expect("wipe node 2 data dir");
    deploy.spawn_node(2, "n2-restart.log");
    await_serving(deploy.client_addr(2), 950);

    // Phase 3: all three nodes again, including the rejoined one.
    records.extend(run_sessions(
        (0..3)
            .map(|c| (deploy.client_addr(c as usize).to_string(), 20 + c))
            .collect(),
        16,
        t0,
    ));

    // The restarted incarnation really took the transfer path.
    let restart_log =
        std::fs::read_to_string(deploy.logs.join("n2-restart.log")).expect("read restart log");
    assert!(
        restart_log.contains("state-transfer ok"),
        "rejoined node did not report a completed state transfer; logs in {}",
        deploy.logs.display()
    );

    // The flight recorder of the restarted incarnation captured the
    // rejoin: the state-transfer event as structured JSONL, and mesh
    // connect activity in its metrics snapshots.
    let flight = std::fs::read_to_string(n2_data.join("flight.jsonl")).expect("read n2 flight");
    assert!(
        flight.contains("state-transfer ok"),
        "flight recorder missed the state transfer:\n{flight}"
    );
    for line in flight.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"ts_ms\":"),
            "malformed flight-recorder line: {line}"
        );
    }
    // Search the whole file, not the newest line: the snapshotter may
    // be mid-append, leaving a torn final line. And poll briefly — a
    // fast rejoin can reach this read before the recorder has
    // snapshotted the mesh dialer's first connect.
    let n2_metrics_path = n2_data.join("node2_metrics.jsonl");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let body = std::fs::read_to_string(&n2_metrics_path).unwrap_or_default();
        if body.contains("\"net_connects") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "restarted follower's metrics JSONL shows no mesh connects:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // And the surviving orderer counted a reconnect to the node's new
    // incarnation on its peer-labeled dialer counters.
    let n0_metrics = scrape(deploy.admin_addr(0), "metrics");
    assert!(
        int_after(&n0_metrics, "net_reconnects{peer=2} ") >= 1,
        "orderer never re-dialed the restarted follower:\n{n0_metrics}"
    );

    if let Err(violation) = check_linearizable(&records) {
        panic!(
            "cross-incarnation history is not linearizable: {violation}\nnode logs kept in {}",
            deploy.logs.display()
        );
    }

    // Keep the log dir only on failure paths above; a green run cleans
    // up — unless CI asked to keep the flight recorders for upload.
    let logs = deploy.logs.clone();
    drop(deploy);
    if std::env::var_os("PSMR_KEEP_LOGS").is_none() {
        let _ = std::fs::remove_dir_all(logs);
    }
}

/// The boot-time catch-up path: a follower that starts *after* the
/// orderer has already checkpointed and trimmed must also rebuild via
/// transfer — and a client session against it still linearizes.
#[test]
fn late_follower_bootstraps_through_state_transfer() {
    let _serial = deployment_lock();
    let mut deploy = deployment("late");
    deploy.spawn_node(0, "n0.log");
    deploy.spawn_node(1, "n1.log");
    await_serving(deploy.client_addr(0), 900);
    await_serving(deploy.client_addr(1), 901);

    let t0 = Instant::now();
    let mut records = run_sessions(
        vec![
            (deploy.client_addr(0).to_string(), 0),
            (deploy.client_addr(1).to_string(), 1),
        ],
        12,
        t0,
    );
    let mut admin =
        connect_with_retry(deploy.client_addr(0), 999, Duration::from_secs(10)).expect("admin");
    force_checkpoint(&mut admin, Duration::from_secs(30)).expect("checkpoint acked");

    deploy.spawn_node(2, "n2.log");
    await_serving(deploy.client_addr(2), 950);
    records.extend(run_sessions(
        vec![(deploy.client_addr(2).to_string(), 20)],
        12,
        t0,
    ));

    if let Err(violation) = check_linearizable(&records) {
        panic!(
            "late-follower history is not linearizable: {violation}\nnode logs kept in {}",
            deploy.logs.display()
        );
    }
    let logs = deploy.logs.clone();
    drop(deploy);
    if std::env::var_os("PSMR_KEEP_LOGS").is_none() {
        let _ = std::fs::remove_dir_all(logs);
    }
}

/// Chaos battery, part 1 — a one-way partition: the orderer's egress to
/// follower 1 is withheld at the mesh (the reverse direction still
/// flows). The healthy majority keeps ordering, the cut-off follower
/// reports `degraded` (and the ops table shows it), stale reads against
/// it still answer locally with an honest staleness tag, and healing
/// the link flushes the withheld backlog in order — the combined
/// history spanning the whole fault epoch stays linearizable.
#[test]
fn chaos_one_way_partition_degrades_follower_then_heals() {
    let _serial = deployment_lock();
    let mut deploy = deployment("chaos-part");
    for id in 0..3 {
        deploy.spawn_node_with(id, &format!("n{id}.log"), &["--degraded-after-ms", "1000"]);
    }
    for id in 0..3 {
        await_serving(deploy.client_addr(id), 900 + id as u64);
    }
    let t0 = Instant::now();
    let mut records = run_sessions(
        (0..3)
            .map(|c| (deploy.client_addr(c as usize).to_string(), c))
            .collect(),
        8,
        t0,
    );

    chaos(deploy.admin_addr(0), "set 1 partition=out");
    let live = scrape(deploy.admin_addr(0), "chaos get");
    assert!(
        live.contains("peer 1") && live.contains("partition=out"),
        "chaos get does not reflect the set policy:\n{live}"
    );

    await_health(deploy.admin_addr(1), "degraded");
    assert!(
        scrape(deploy.admin_addr(0), "status").contains("health ok"),
        "the orderer must never report degraded"
    );
    assert!(
        scrape(deploy.admin_addr(2), "status").contains("health ok"),
        "the unpartitioned follower degraded too"
    );
    let m0 = scrape(deploy.admin_addr(0), "metrics");
    assert!(
        int_after(&m0, "chaos_frames_partitioned{peer=1} ") >= 1,
        "withheld frames invisible in the injecting node's counters:\n{m0}"
    );
    let table = ops::run_ops(&deploy.cluster, Duration::from_secs(5)).expect("ops scrape");
    assert!(
        table.contains("degraded"),
        "ops table hides the degraded follower:\n{table}"
    );

    // Ordering continues on the healthy majority while the link is cut.
    records.extend(run_sessions(
        vec![
            (deploy.client_addr(0).to_string(), 10),
            (deploy.client_addr(2).to_string(), 12),
        ],
        8,
        t0,
    ));

    // The partitioned follower still answers stale reads from its local
    // store, tagged with how far behind it has fallen.
    let mut stale_conn = NodeClient::connect(deploy.client_addr(1), 777).expect("stale conn");
    let op = KvOp::Read { key: 0 };
    let (stale, body) = stale_conn
        .execute_stale(op.command(), &op.encode(), Duration::from_secs(10))
        .expect("stale read against a degraded follower");
    assert!(
        stale >= Duration::from_millis(1000),
        "staleness tag {stale:?} is under the degradation bound the node already tripped"
    );
    assert!(
        matches!(KvResult::decode(&body), KvResult::Value(_)),
        "stale read returned a non-value"
    );
    let m1 = scrape(deploy.admin_addr(1), "metrics");
    assert!(
        int_after(&m1, "stale_reads_served ") >= 1,
        "stale read not counted:\n{m1}"
    );

    // Heal: the withheld backlog flushes in order and health recovers.
    chaos(deploy.admin_addr(0), "clear");
    assert!(
        scrape(deploy.admin_addr(0), "chaos get").contains("chaos none"),
        "clear left policy behind"
    );
    await_health(deploy.admin_addr(1), "ok");
    records.extend(run_sessions(
        vec![(deploy.client_addr(1).to_string(), 20)],
        8,
        t0,
    ));

    if let Err(violation) = check_linearizable(&records) {
        panic!(
            "partition-epoch history is not linearizable: {violation}\nnode logs kept in {}",
            deploy.logs.display()
        );
    }
    let logs = deploy.logs.clone();
    drop(deploy);
    if std::env::var_os("PSMR_KEEP_LOGS").is_none() {
        let _ = std::fs::remove_dir_all(logs);
    }
}

/// Chaos battery, part 2 — frame corruption on the orderer→follower
/// link: a flipped byte must poison the receiver's decoder (never
/// surface a wrong frame), tear the connection down, and heal by
/// replaying the *uncorrupted* resend buffer on reconnect. All of it is
/// observable: `chaos_frames_corrupted` on the injector,
/// `net_decode_poisoned` on the victim, `net_frames_resent` and
/// `net_reconnects` on the healed link — and the history stays
/// linearizable across every torn connection.
#[test]
fn chaos_frame_corruption_recovers_by_replay() {
    let _serial = deployment_lock();
    let mut deploy = deployment("chaos-corrupt");
    for id in 0..3 {
        deploy.spawn_node(id, &format!("n{id}.log"));
    }
    for id in 0..3 {
        await_serving(deploy.client_addr(id), 900 + id as u64);
    }
    let t0 = Instant::now();

    chaos(deploy.admin_addr(0), "set 1 corrupt=5");
    let mut records = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut round = 0u64;
    loop {
        // Drive load through the corrupted relay path; each round's ops
        // are real history for the final check.
        records.extend(run_sessions(
            vec![(deploy.client_addr(1).to_string(), 30 + round)],
            8,
            t0,
        ));
        round += 1;
        let m0 = scrape(deploy.admin_addr(0), "metrics");
        let m1 = scrape(deploy.admin_addr(1), "metrics");
        let corrupted = try_int_after(&m0, "chaos_frames_corrupted{peer=1} ").unwrap_or(0);
        let poisoned = try_int_after(&m1, "net_decode_poisoned{peer=0} ").unwrap_or(0);
        let resent = try_int_after(&m0, "net_frames_resent{peer=1} ").unwrap_or(0);
        let reconnects = try_int_after(&m0, "net_reconnects{peer=1} ").unwrap_or(0);
        if corrupted >= 1 && poisoned >= 1 && resent >= 1 && reconnects >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "corruption epoch never left its full counter trail: corrupted={corrupted} \
             poisoned={poisoned} resent={resent} reconnects={reconnects}"
        );
    }
    chaos(deploy.admin_addr(0), "clear");

    records.extend(run_sessions(
        (0..3)
            .map(|c| (deploy.client_addr(c as usize).to_string(), 50 + c))
            .collect(),
        8,
        t0,
    ));
    if let Err(violation) = check_linearizable(&records) {
        panic!(
            "corruption-epoch history is not linearizable: {violation}\nnode logs kept in {}",
            deploy.logs.display()
        );
    }
    let logs = deploy.logs.clone();
    drop(deploy);
    if std::env::var_os("PSMR_KEEP_LOGS").is_none() {
        let _ = std::fs::remove_dir_all(logs);
    }
}

/// Chaos battery, part 3 — jittered delay on the relay link slows every
/// response past a deliberately short client try-timeout: the client
/// must retransmit under the *same* request id, and server-side dedup
/// must absorb the re-ordered duplicates so nothing executes twice —
/// closed-loop load stays linearizable even though every op was sent
/// more than once.
#[test]
fn chaos_delay_forces_retransmits_that_dedup_absorbs() {
    use psmr_common::metrics::{counters, global};
    let _serial = deployment_lock();
    let mut deploy = deployment("chaos-delay");
    for id in 0..3 {
        // Every ordered command costs *two* delayed frames on the slow
        // link (phase2a to the remote acceptor + the relay batch), so
        // the background checkpoint cadence must stay well under the
        // link's serialized capacity or the queue never drains.
        deploy.spawn_node_with(id, &format!("n{id}.log"), &["--checkpoint-ms", "2000"]);
    }
    for id in 0..3 {
        await_serving(deploy.client_addr(id), 900 + id as u64);
    }
    let t0 = Instant::now();

    chaos(deploy.admin_addr(0), "set 1 delay_ms=120 jitter_ms=80");
    let deduped_before = try_int_after(
        &scrape(deploy.admin_addr(0), "metrics"),
        "requests_deduped ",
    )
    .unwrap_or(0);
    let retransmits_before = global().value(counters::REQUESTS_RETRANSMITTED);

    // Every op through follower 1 now takes >= 120ms (the relay leg is
    // delayed), so a 100ms first-try timeout guarantees at least one
    // retransmission per op; the client's doubling try window keeps the
    // duplicates bounded.
    let mut conn = NodeClient::connect(deploy.client_addr(1), 1300).expect("delay client");
    conn.set_try_timeout(Duration::from_millis(100));
    let mut records = session_conn(conn, 40, 8, t0);

    assert!(
        global().value(counters::REQUESTS_RETRANSMITTED) > retransmits_before,
        "the short try-timeout never retransmitted"
    );
    let m0 = scrape(deploy.admin_addr(0), "metrics");
    assert!(
        int_after(&m0, "chaos_frames_delayed{peer=1} ") >= 1,
        "delays invisible in the injector's counters:\n{m0}"
    );
    assert!(
        try_int_after(&m0, "requests_deduped ").unwrap_or(0) > deduped_before,
        "re-ordered duplicates were not absorbed by dedup:\n{m0}"
    );

    chaos(deploy.admin_addr(0), "clear");
    records.extend(run_sessions(
        (0..3)
            .map(|c| (deploy.client_addr(c as usize).to_string(), 50 + c))
            .collect(),
        8,
        t0,
    ));
    if let Err(violation) = check_linearizable(&records) {
        panic!(
            "delay-epoch history is not linearizable: {violation}\nnode logs kept in {}",
            deploy.logs.display()
        );
    }
    let logs = deploy.logs.clone();
    drop(deploy);
    if std::env::var_os("PSMR_KEEP_LOGS").is_none() {
        let _ = std::fs::remove_dir_all(logs);
    }
}

/// Chaos battery, part 4 — the orderer is SIGKILLed and restarted (data
/// dir intact) while failover clients are mid-session. Every in-flight
/// request must complete without manual intervention: clients reconnect
/// and rotate through their failover set, retransmit under unchanged
/// request ids, the follower meshes replay queued submissions to the
/// restarted orderer, and dedup keeps re-ordered duplicates from
/// executing twice — proven by the cross-epoch linearizability check.
#[test]
fn chaos_orderer_restart_mid_session_heals_clients() {
    use psmr_common::metrics::{counters, global};
    let _serial = deployment_lock();
    let mut deploy = deployment("chaos-restart");
    for id in 0..3 {
        deploy.spawn_node(id, &format!("n{id}.log"));
    }
    for id in 0..3 {
        await_serving(deploy.client_addr(id), 900 + id as u64);
    }
    let t0 = Instant::now();
    let reconnects_before = global().value(counters::CLIENT_RECONNECTS);

    // Three failover clients, each starting at a different node so one
    // is always talking to the orderer when it dies. Healthy ops can
    // take well under a millisecond, so no fixed delay is sure to land
    // the kill mid-session: each session holds after its first HOLD_AT
    // ops, the orderer dies, and the sessions are released into the
    // outage with their remaining ops all still to run.
    const HOLD_AT: u64 = 20;
    let held = Arc::new(AtomicU64::new(0));
    let released = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..3usize)
        .map(|c| {
            let addrs: Vec<String> = (0..3)
                .map(|i| deploy.client_addr((c + i) % 3).to_string())
                .collect();
            let (held, released) = (Arc::clone(&held), Arc::clone(&released));
            std::thread::spawn(move || {
                let mut conn = NodeClient::connect_multi(addrs, 1400 + c as u64);
                conn.set_try_timeout(Duration::from_millis(300));
                session_while(conn, 60 + c as u64, t0, |done| {
                    if done == HOLD_AT {
                        held.fetch_add(1, Ordering::AcqRel);
                        while !released.load(Ordering::Acquire) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    done < 120
                })
            })
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(60);
    while held.load(Ordering::Acquire) < 3 {
        assert!(
            Instant::now() < deadline,
            "only {} of 3 sessions reached op {HOLD_AT}",
            held.load(Ordering::Acquire)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    deploy.kill_node(0);
    released.store(true, Ordering::Release);
    std::thread::sleep(Duration::from_millis(500));
    deploy.spawn_node(0, "n0-restart.log");

    let mut records = Vec::new();
    for h in handles {
        records.extend(h.join().expect("session across the orderer restart"));
    }
    assert!(
        global().value(counters::CLIENT_RECONNECTS) > reconnects_before,
        "no client self-healed across the restart"
    );

    for id in 0..3 {
        await_serving(deploy.client_addr(id), 960 + id as u64);
    }
    records.extend(run_sessions(
        (0..3)
            .map(|c| (deploy.client_addr(c as usize).to_string(), 70 + c))
            .collect(),
        8,
        t0,
    ));
    if let Err(violation) = check_linearizable(&records) {
        panic!(
            "restart-epoch history is not linearizable: {violation}\nnode logs kept in {}",
            deploy.logs.display()
        );
    }
    let logs = deploy.logs.clone();
    drop(deploy);
    if std::env::var_os("PSMR_KEEP_LOGS").is_none() {
        let _ = std::fs::remove_dir_all(logs);
    }
}

/// Sanity on the artifact the launcher writes: the generated config
/// round-trips through the parser the binaries load with.
#[test]
fn generated_cluster_config_round_trips() {
    let deploy = deployment("toml");
    let loaded =
        ClusterConfig::load(deploy.logs.join("cluster.toml")).expect("load generated config");
    assert_eq!(loaded, deploy.cluster);
    let _ = std::fs::remove_dir_all(&deploy.logs);
}
