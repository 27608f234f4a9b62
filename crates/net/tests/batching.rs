//! The TCP mesh's batched hot path:
//!
//! * concurrent senders to one peer: every frame arrives exactly once,
//!   in per-sender order, carried by fewer `write_all`s than frames
//!   (`net_writes` < `net_frames_sent`);
//! * more than the resend buffer's capacity queued while the peer is
//!   down: eviction moves the buffer front past the dialer's cursor,
//!   and the reconnect replays a gap-free run from the front;
//! * a burst under `corrupt` + `dup` + `drop` chaos: every frame the
//!   dice did not consume delivers exactly once, by replay;
//! * a paxos round trip bridged over two meshes decides with ingress
//!   running on the reader threads — no `bridge-chan*` thread exists.
//!
//! The tests read process-global counters, so they run one at a time.

use bytes::Bytes;
use parking_lot::Mutex;
use psmr_common::metrics::{counters, global};
use psmr_common::SystemConfig;
use psmr_net::codec::{decode_paxos, encode_paxos};
use psmr_net::frame::{encode_frame, FrameDecoder};
use psmr_net::{bridge, ClusterConfig, LinkChaos, NodeSpec, TcpMesh};
use psmr_netsim::{LiveNet, NodeId};
use psmr_paxos::runtime::{coordinator_node, PaxosGroup, RemoteAcceptor, WalMode};
use psmr_paxos::NetMsg;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(30);

/// Serializes the tests: their counter deltas must not mix.
static SERIAL: Mutex<()> = Mutex::new(());

fn peer_counter(name: &str, peer: u64) -> u64 {
    global().value(&format!("{name}{{peer={peer}}}"))
}

/// Reserves a loopback port by binding and immediately releasing it.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind :0");
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    addr
}

fn two_nodes(addr0: String, addr1: String) -> ClusterConfig {
    let node = |addr: String| NodeSpec {
        addr,
        client_addr: "127.0.0.1:0".to_string(),
        admin_addr: String::new(),
        data_dir: std::env::temp_dir().join("psmr-net-test"),
    };
    ClusterConfig {
        nodes: vec![node(addr0), node(addr1)],
    }
}

/// Two meshes (nodes 0 and 1) with a warmed-up 0 → 1 link on `chan`.
fn linked_pair(
    chan: u8,
) -> (
    TcpMesh,
    TcpMesh,
    crossbeam::channel::Receiver<psmr_net::Inbound>,
) {
    let config = two_nodes(free_addr(), free_addr());
    let a = TcpMesh::spawn(0, &config).expect("spawn mesh 0");
    let b = TcpMesh::spawn(1, &config).expect("spawn mesh 1");
    let rx = b.subscribe(chan);
    // The first frame waits out the dial and the handshake.
    assert!(a.send(1, chan, 0, 1, b"warm-up"));
    let first = rx.recv_timeout(DEADLINE).expect("warm-up frame");
    assert_eq!(first.body, b"warm-up");
    (a, b, rx)
}

#[test]
fn concurrent_senders_arrive_once_in_order_with_fewer_writes_than_frames() {
    let _serial = SERIAL.lock();
    const PER_SENDER: u32 = 10_000;
    // Unsent frames per sender; both together stay under the resend
    // buffer's capacity, so nothing is evicted.
    const WINDOW: u64 = 1_024;
    let (a, b, rx) = linked_pair(5);
    let writes_before = peer_counter(counters::NET_WRITES, 1);
    let sent_before = peer_counter(counters::NET_FRAMES_SENT, 1);
    let dropped_before = peer_counter(counters::NET_FRAMES_DROPPED, 1);
    let received = [AtomicU64::new(0), AtomicU64::new(0)];
    let mut seen: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    std::thread::scope(|scope| {
        for sender in 0..2u8 {
            let (a, received) = (&a, &received);
            scope.spawn(move || {
                for i in 0..PER_SENDER {
                    while u64::from(i) - received[sender as usize].load(Ordering::Acquire) >= WINDOW
                    {
                        std::thread::yield_now();
                    }
                    let mut body = vec![sender];
                    body.extend_from_slice(&i.to_le_bytes());
                    assert!(a.send(1, 5, 0, 1, &body));
                }
            });
        }
        let start = Instant::now();
        while seen[0].len() + seen[1].len() < 2 * PER_SENDER as usize {
            assert!(
                start.elapsed() < DEADLINE,
                "stalled at {} + {}",
                seen[0].len(),
                seen[1].len()
            );
            if let Ok(msg) = rx.recv_timeout(Duration::from_millis(50)) {
                let sender = msg.body[0] as usize;
                seen[sender].push(u32::from_le_bytes(msg.body[1..5].try_into().unwrap()));
                received[sender].fetch_add(1, Ordering::Release);
            }
        }
    });
    for (sender, got) in seen.iter().enumerate() {
        assert!(
            got.iter().copied().eq(0..PER_SENDER),
            "sender {sender}: frames lost, duplicated or reordered"
        );
    }
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "a frame delivered twice"
    );
    let writes = peer_counter(counters::NET_WRITES, 1) - writes_before;
    let sent = peer_counter(counters::NET_FRAMES_SENT, 1) - sent_before;
    assert_eq!(
        sent,
        2 * u64::from(PER_SENDER),
        "every frame counts as sent once"
    );
    assert!(
        writes > 0 && writes < sent,
        "{writes} writes for {sent} frames"
    );
    assert_eq!(
        peer_counter(counters::NET_FRAMES_DROPPED, 1),
        dropped_before
    );
    a.shutdown();
    b.shutdown();
}

/// Reads data frames off a fake peer connection until one with seq
/// `last` arrived; returns their seqs.
fn read_seqs_through(stream: &mut TcpStream, last: u64) -> Vec<u64> {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("set timeout");
    let mut decoder = FrameDecoder::new();
    let mut seqs = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    let start = Instant::now();
    while seqs.last() != Some(&last) {
        assert!(
            start.elapsed() < DEADLINE,
            "replay stalled at {:?}",
            seqs.last()
        );
        match stream.read(&mut buf) {
            Ok(0) => panic!("mesh closed the link"),
            Ok(n) => {
                decoder.push(&buf[..n]);
                while let Some(payload) = decoder.next().expect("clean frame stream") {
                    if payload[0] == 0 {
                        seqs.push(u64::from_le_bytes(payload[1..9].try_into().unwrap()));
                    }
                }
            }
            Err(_) => {}
        }
    }
    seqs
}

fn raw_ack(incarnation: u64) -> Vec<u8> {
    let mut payload = vec![2u8];
    payload.extend_from_slice(&incarnation.to_le_bytes());
    encode_frame(&payload)
}

#[test]
fn overflow_while_down_replays_a_gap_free_run_from_the_buffer_front() {
    let _serial = SERIAL.lock();
    let addr1 = free_addr();
    let listener = TcpListener::bind(&addr1).expect("bind fake peer");
    let mesh = TcpMesh::spawn(0, &two_nodes(free_addr(), addr1.clone())).expect("spawn mesh");
    let mut queued = 0u64;
    for _ in 0..3 {
        assert!(mesh.send(1, 2, 0, 1, b"x"));
        queued += 1;
    }
    let (mut conn, _) = listener.accept().expect("accept");
    conn.write_all(&raw_ack(70)).expect("ack hello");
    assert_eq!(read_seqs_through(&mut conn, 3), [1, 2, 3]);

    // The peer goes down. TCP surfaces that only on a later write, so
    // keep offering frames until the dialer notices.
    drop(conn);
    drop(listener);
    let start = Instant::now();
    while mesh.peer_status()[0].connected {
        assert!(
            start.elapsed() < DEADLINE,
            "dialer never noticed the dead peer"
        );
        assert!(mesh.send(1, 2, 0, 1, b"probe"));
        queued += 1;
        std::thread::sleep(Duration::from_millis(5));
    }

    // Queue well past the resend buffer's capacity: eviction pushes the
    // buffer front past every seq the dialer ever wrote.
    let dropped_before = peer_counter(counters::NET_FRAMES_DROPPED, 1);
    let burst = 6_000u64;
    for _ in 0..burst {
        assert!(mesh.send(1, 2, 0, 1, b"queued while down"));
    }
    queued += burst;
    let depth = mesh.peer_status()[0].resend_depth as u64;
    assert!(
        depth < burst,
        "the resend buffer is bounded (depth {depth})"
    );
    let front = queued - depth + 1;
    assert!(
        peer_counter(counters::NET_FRAMES_DROPPED, 1) - dropped_before >= burst - depth,
        "evicted unsent frames count as loss"
    );

    // The peer returns (same incarnation): the replay starts at the
    // front and runs without a gap to the newest frame.
    let listener = TcpListener::bind(&addr1).expect("rebind fake peer");
    let (mut conn, _) = listener.accept().expect("accept after restart");
    conn.write_all(&raw_ack(70)).expect("ack again");
    let seqs = read_seqs_through(&mut conn, queued);
    assert!(
        seqs.iter().copied().eq(front..=queued),
        "replay must be front..={queued} (front {front}), got {} frames from {:?}",
        seqs.len(),
        seqs.first()
    );
    mesh.shutdown();
}

#[test]
fn chaos_burst_delivers_every_surviving_frame_exactly_once_by_replay() {
    let _serial = SERIAL.lock();
    const BURST: u32 = 2_000;
    let (a, b, rx) = linked_pair(7);
    let counter = |name| peer_counter(name, 1);
    let corrupted_before = counter(counters::CHAOS_FRAMES_CORRUPTED);
    let duplicated_before = counter(counters::CHAOS_FRAMES_DUPLICATED);
    let dropped_before = counter(counters::CHAOS_FRAMES_DROPPED);
    let resent_before = counter(counters::NET_FRAMES_RESENT);
    let dups_before = peer_counter(counters::NET_FRAMES_DUP_DROPPED, 0);
    a.chaos().reseed(0x5eed);
    a.chaos().set(
        1,
        LinkChaos::parse_args(&["corrupt=2", "dup=10", "drop=5"]).expect("chaos args"),
    );
    for i in 0..BURST {
        assert!(a.send(1, 7, 0, 1, &i.to_le_bytes()));
    }
    // The dice roll when the dialer walks a frame, so the faults stay on
    // until the whole burst went through. A torn-down link is only
    // noticed on a later write: keep ticking until a tick (queued
    // behind the whole burst) arrives.
    let mut got = Vec::new();
    let mut tick = BURST;
    let start = Instant::now();
    'drain: loop {
        assert!(
            start.elapsed() < DEADLINE,
            "burst never drained: {} frames",
            got.len()
        );
        assert!(a.send(1, 7, 0, 1, &tick.to_le_bytes()));
        tick += 1;
        while let Ok(msg) = rx.recv_timeout(Duration::from_millis(20)) {
            let v = u32::from_le_bytes(msg.body[..4].try_into().unwrap());
            if v >= BURST {
                break 'drain;
            }
            got.push(v);
        }
    }
    a.chaos().clear();
    assert!(
        got.windows(2).all(|w| w[0] < w[1]),
        "a frame delivered twice or out of order"
    );
    let dropped = counter(counters::CHAOS_FRAMES_DROPPED) - dropped_before;
    assert!(
        got.len() as u64 + dropped >= u64::from(BURST),
        "{} delivered + {dropped} dropped < {BURST}",
        got.len()
    );
    assert!(counter(counters::CHAOS_FRAMES_CORRUPTED) > corrupted_before);
    assert!(counter(counters::CHAOS_FRAMES_DUPLICATED) > duplicated_before);
    assert!(dropped > 0, "the drop dice never hit");
    assert!(
        counter(counters::NET_FRAMES_RESENT) > resent_before,
        "corruption recovers by replay"
    );
    assert!(
        peer_counter(counters::NET_FRAMES_DUP_DROPPED, 0) > dups_before,
        "duplicates are absorbed by the receiver's seq filter"
    );
    a.shutdown();
    b.shutdown();
}

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

#[test]
fn bridged_paxos_round_trip_decides_without_bridge_threads() {
    let _serial = SERIAL.lock();
    let config = two_nodes(free_addr(), free_addr());
    let meshes: Vec<TcpMesh> = (0..2)
        .map(|me| TcpMesh::spawn(me, &config).expect("spawn mesh"))
        .collect();
    // Coordinator and acceptor 0 on node 0, acceptor 1 on node 1: with
    // two acceptors every decision needs the Accept/Accepted hop over
    // the meshes.
    let nets: Vec<LiveNet<NetMsg>> = (0..2).map(|_| LiveNet::new()).collect();
    for (net, mesh) in nets.iter().zip(&meshes) {
        bridge::splice(
            net,
            mesh,
            0,
            Arc::new(|node: NodeId| match node.as_raw() {
                raw if node == coordinator_node(0) || raw == 1 => Some(0),
                2 => Some(1),
                _ => None,
            }),
            Arc::new(encode_paxos),
            Arc::new(decode_paxos),
        );
    }
    let mut cfg = SystemConfig::new(1);
    cfg.acceptors(2);
    let group = PaxosGroup::spawn_hosted(0, &cfg, nets[0].clone(), WalMode::None, &[0]);
    let acceptor = RemoteAcceptor::spawn(0, 1, nets[1].clone());
    let decided = group.subscribe();
    group.start();
    group.submit(Bytes::from_static(b"bridged"));
    let start = Instant::now();
    loop {
        let batch = decided
            .recv_timeout(DEADLINE.saturating_sub(start.elapsed()))
            .expect("the bridged round trip decides");
        if batch.commands.iter().any(|c| c.as_ref() == b"bridged") {
            break;
        }
    }
    let names = thread_names();
    assert!(
        names.iter().any(|n| n.starts_with("mesh-")),
        "the /proc scan sees the mesh threads: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("bridge-chan")),
        "bridge ingress runs on the reader threads: {names:?}"
    );
    group.shutdown();
    acceptor.shutdown();
    for mesh in &meshes {
        mesh.shutdown();
    }
}
