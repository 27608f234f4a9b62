//! Three `psmr-node` OS processes on loopback, booted from a generated
//! cluster config, and the admin-endpoint scraping the traced run uses.

use crate::guard::{self, ChildId};
use crate::ops;
use psmr_kvstore::{KvOp, KvResult};
use psmr_net::{ClusterConfig, NodeSpec};
use psmr_node::{admin, connect_with_retry, NodeClient};
use std::fs::File;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub const NODES: usize = 3;
/// The follower the load generator connects to.
pub const FOLLOWER: usize = 1;
/// Client ids: the pipelined generator, then one per probing client.
pub const LOAD_CLIENT: u64 = 7_000;
const PROBE_CLIENT: u64 = 7_100;

/// How the three processes are started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boot {
    /// Followers first, the orderer 300 ms later. Starting all three at
    /// once is bimodal (0.05 s or 2 s to ready: a follower's first dial
    /// can land before the orderer listens and then waits out a backoff).
    Ordered,
    /// All three at once — only for the `node.boot_ready_s` diagnostic.
    Simultaneous,
}

#[derive(Debug, Clone, Copy)]
pub struct NodeFlags {
    pub trace_sample: u64,
    pub checkpoint_ms: u64,
}

pub struct Cluster {
    pub config: ClusterConfig,
    pub dir: PathBuf,
    node_bin: PathBuf,
    flags: NodeFlags,
    children: Vec<Option<ChildId>>,
}

/// Ports from listeners that were bound and then released. All are held
/// at once so they are pairwise distinct.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a free port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local address").port())
        .collect()
}

impl Cluster {
    /// Writes the config and starts the nodes; returns once node
    /// [`FOLLOWER`] and the orderer both answer an ordered read.
    pub fn boot(node_bin: &std::path::Path, flags: NodeFlags, boot: Boot) -> Self {
        let dir = guard::scratch_dir("cluster").expect("create a cluster directory");
        let ports = free_ports(3 * NODES);
        let nodes = (0..NODES)
            .map(|i| NodeSpec {
                addr: format!("127.0.0.1:{}", ports[i]),
                client_addr: format!("127.0.0.1:{}", ports[NODES + i]),
                admin_addr: format!("127.0.0.1:{}", ports[2 * NODES + i]),
                data_dir: dir.join(format!("data-n{i}")),
            })
            .collect();
        let config = ClusterConfig { nodes };
        std::fs::write(dir.join("cluster.toml"), config.to_toml()).expect("write cluster.toml");
        let mut cluster = Self {
            config,
            dir,
            node_bin: node_bin.to_path_buf(),
            flags,
            children: (0..NODES).map(|_| None).collect(),
        };
        for id in 1..NODES {
            cluster.spawn_node(id);
        }
        if boot == Boot::Ordered {
            std::thread::sleep(Duration::from_millis(300));
        }
        cluster.spawn_node(0);
        for id in [FOLLOWER, 0, 2] {
            cluster.await_serving(id);
        }
        cluster
    }

    pub fn spawn_node(&mut self, id: usize) {
        let log = File::options()
            .create(true)
            .append(true)
            .open(self.dir.join(format!("node{id}.log")))
            .expect("open a node log");
        let err = log.try_clone().expect("clone the log handle");
        let child = guard::spawn(
            Command::new(&self.node_bin)
                .arg("--config")
                .arg(self.dir.join("cluster.toml"))
                .args(["--id", &id.to_string()])
                .args(["--keys", &ops::KEYS.to_string()])
                .args(["--checkpoint-ms", &self.flags.checkpoint_ms.to_string()])
                .args(["--trace-sample", &self.flags.trace_sample.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::from(log))
                .stderr(Stdio::from(err)),
        )
        .unwrap_or_else(|e| panic!("spawn {}: {e}", self.node_bin.display()));
        self.children[id] = Some(child);
    }

    /// SIGKILLs node `id` and waits for it to end.
    pub fn kill_node(&mut self, id: usize) {
        if let Some(child) = self.children[id].take() {
            guard::kill(&child);
        }
    }

    pub fn pid(&self, id: usize) -> Option<u32> {
        self.children[id].as_ref().map(|c| c.pid)
    }

    pub fn client_addr(&self, id: usize) -> &str {
        &self.config.nodes[id].client_addr
    }

    /// A blocking one-at-a-time client of node `id`.
    pub fn probe_client(&self, id: usize, slot: u64) -> NodeClient {
        connect_with_retry(
            self.client_addr(id),
            PROBE_CLIENT + slot * NODES as u64 + id as u64,
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("connect to node {id}: {e}"))
    }

    /// Blocks until node `id` answers a read through the ordered stream,
    /// which needs its mesh links, subscription, executor and client
    /// plane all up.
    pub fn await_serving(&self, id: usize) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let op = KvOp::Read { key: 0 };
        loop {
            let reply = connect_with_retry(
                self.client_addr(id),
                PROBE_CLIENT + 90 + id as u64,
                Duration::from_secs(2),
            )
            .and_then(|mut conn| conn.execute(op.command(), op.encode(), Duration::from_secs(2)));
            if let Ok(reply) = reply {
                if matches!(ops::decode_reply(&reply), Some(KvResult::Value(_))) {
                    return;
                }
            }
            if Instant::now() >= deadline {
                // The directory is removed on exit: quote the log's tail.
                let log = std::fs::read_to_string(self.dir.join(format!("node{id}.log")))
                    .unwrap_or_default();
                let tail: Vec<&str> = log.lines().rev().take(15).collect();
                panic!(
                    "node {id} never served; its log ends:\n{}",
                    tail.into_iter().rev().collect::<Vec<_>>().join("\n")
                );
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// One admin command's payload, or `None` when the node does not
    /// answer in time.
    pub fn admin(&self, id: usize, command: &str) -> Option<String> {
        let addr = &self.config.nodes[id].admin_addr;
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match admin::query(addr, command, Duration::from_secs(2)) {
                Ok(payload) => return Some(payload),
                Err(_) if Instant::now() >= deadline => return None,
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// `executed_seq` of node `id`, from its `status`.
    pub fn executed_seq(&self, id: usize) -> Option<u64> {
        self.admin(id, "status")
            .and_then(|s| int_after(&s, "executed_seq="))
    }

    /// Waits until every node has executed the same stream position.
    pub fn await_convergence(&self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            let seqs: Vec<Option<u64>> = (0..NODES).map(|id| self.executed_seq(id)).collect();
            if seqs[0].is_some() && seqs.iter().all(|s| *s == seqs[0]) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Reads `plan`'s keys from every node's local store; each must give
    /// the expected reply (so all three agree and no acknowledged write
    /// is lost). Returns `(attempted, failed)`.
    pub fn check_agreement(&self, plan: &[(u64, KvResult)]) -> (u64, u64) {
        let converged = self.await_convergence(Duration::from_secs(5));
        let (mut attempted, mut failed) = (0, 0);
        for id in 0..NODES {
            let mut conn = self.probe_client(id, 2);
            for (key, expected) in plan {
                let op = KvOp::Read { key: *key };
                attempted += 1;
                let reply = conn
                    .execute_stale(op.command(), &op.encode(), Duration::from_secs(2))
                    .ok()
                    .and_then(|(_, bytes)| ops::decode_reply(&bytes));
                if !converged || reply != Some(*expected) {
                    failed += 1;
                }
            }
        }
        (attempted, failed)
    }

    /// Kills the nodes and removes their directories.
    pub fn stop(mut self) {
        for id in 0..NODES {
            self.kill_node(id);
        }
        guard::remove_scratch(&self.dir);
    }
}

/// The integer right after `key` in an admin payload (`key=N` or
/// `key N`); `None` when the row or the number is missing.
pub fn int_after(text: &str, key: &str) -> Option<u64> {
    let at = text.find(key)? + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// utime + stime of process `pid` in seconds, from `/proc/<pid>/stat`.
/// Clock ticks are 100 per second on Linux (`psmr_common::cpu` makes
/// the same assumption).
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    stat_cpu_seconds(&format!("/proc/{pid}/stat"))
}

/// The same for the calling thread alone.
pub fn thread_cpu_seconds() -> Option<f64> {
    stat_cpu_seconds("/proc/thread-self/stat")
}

fn stat_cpu_seconds(path: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(path).ok()?;
    // `comm` may hold spaces and parentheses: resume after the last `)`.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_ports_are_distinct() {
        let mut ports = free_ports(9);
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 9);
    }

    #[test]
    fn int_after_tolerates_missing_rows() {
        let status = "node 1\nrole follower\ngroup 0 durable_seq=0 executed_seq=4211\n";
        assert_eq!(int_after(status, "executed_seq="), Some(4211));
        assert_eq!(int_after(status, "next_seq="), None);
        assert_eq!(int_after("executed_seq=\n", "executed_seq="), None);
    }

    #[test]
    fn cpu_seconds_reads_this_process() {
        assert!(cpu_seconds(std::process::id()).is_some());
        assert!(thread_cpu_seconds().is_some());
        assert_eq!(cpu_seconds(u32::MAX), None);
    }
}
