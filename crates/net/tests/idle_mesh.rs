//! An idle TCP mesh sleeps: a connected dialer blocks on its wake
//! channel with no timer, the accept loop blocks in `accept`, and
//! `shutdown` wakes both instead of waiting for a poll to come round.
//!
//! Its own test binary: it reads every thread of this process from
//! `/proc/self/task`, so no other test may run meshes alongside.

use psmr_common::cpu::ThreadCensus;
use psmr_net::{ClusterConfig, NodeSpec, TcpMesh};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Reserves a loopback port by binding and immediately releasing it.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind :0");
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    addr
}

#[test]
fn an_idle_mesh_sleeps_and_stops_at_once() {
    let node = |addr: String| NodeSpec {
        addr,
        client_addr: "127.0.0.1:0".to_string(),
        admin_addr: String::new(),
        data_dir: std::env::temp_dir().join("psmr-net-idle-test"),
    };
    let cluster = ClusterConfig {
        nodes: vec![node(free_addr()), node(free_addr())],
    };
    let a = TcpMesh::spawn(0, &cluster).expect("mesh 0");
    let b = TcpMesh::spawn(1, &cluster).expect("mesh 1");
    let rx_b = b.subscribe(3);
    let rx_a = a.subscribe(3);
    // One frame each way: both dialers are connected and back on their
    // wake channels, both accept loops have taken their one connection.
    assert!(a.send(1, 3, 0, 1, b"ping"));
    let ping = rx_b.recv_timeout(Duration::from_secs(10)).expect("ping");
    assert_eq!(ping.body, b"ping");
    assert!(b.send(0, 3, 1, 0, b"pong"));
    let pong = rx_a.recv_timeout(Duration::from_secs(10)).expect("pong");
    assert_eq!(pong.body, b"pong");
    std::thread::sleep(Duration::from_millis(50));

    let before = ThreadCensus::take().expect("procfs");
    std::thread::sleep(Duration::from_millis(500));
    let after = ThreadCensus::take().expect("procfs");
    // Per role, summed over both meshes' threads (so each thread made
    // fewer switches than the sum).
    let roles = after.since(&before);
    for role in ["mesh-*-dial-*", "mesh-*-accept"] {
        let cost = roles
            .iter()
            .find(|r| r.role == role)
            .unwrap_or_else(|| panic!("no {role} thread: {roles:?}"));
        assert_eq!(cost.threads, 2, "{role}");
        let woke = cost.cost.voluntary_switches;
        assert!(woke < 3, "idle {role} woke {woke} times in 500 ms");
    }

    for mesh in [a, b] {
        let started = Instant::now();
        mesh.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    }
}
