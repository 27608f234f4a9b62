//! `net`: two `TcpMesh` endpoints in this process, over loopback.
//! `mesh_rtt_us` is a ping-pong, `mesh_stream_kfps` a one-way stream
//! (sender held to a window, because a mesh link drops frames once 4096
//! are queued unsent).

use super::{median_of_batches, sample_request};
use crate::traced::Layer;
use psmr_net::{ClusterConfig, NodeSpec, TcpMesh};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const CHANNEL: u8 = 9;
const PINGS: u32 = 50;
const STREAM_FRAMES: u64 = 5_000;
const STREAM_WINDOW: u64 = 1_024;

pub fn run(out: &mut Layer) {
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a free port"))
        .collect();
    let nodes = listeners
        .iter()
        .map(|l| NodeSpec {
            addr: l.local_addr().expect("local address").to_string(),
            client_addr: String::new(),
            admin_addr: String::new(),
            data_dir: std::path::PathBuf::new(),
        })
        .collect();
    drop(listeners);
    let config = ClusterConfig { nodes };
    let (Ok(a), Ok(b)) = (TcpMesh::spawn(0, &config), TcpMesh::spawn(1, &config)) else {
        return; // port taken in between: the metrics are left out
    };
    let a_rx = a.subscribe(CHANNEL);
    let b_rx = b.subscribe(CHANNEL);
    let body = sample_request(1).encode();
    let received = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Peer: echoes bodies that start with 1, counts the rest.
        let echo = scope.spawn(|| {
            while let Ok(msg) = b_rx.recv() {
                match msg.body.first() {
                    Some(1) => {
                        b.send(0, CHANNEL, 1, 0, &msg.body);
                    }
                    Some(0) => {
                        received.fetch_add(1, Ordering::Release);
                    }
                    _ => return,
                }
            }
        });
        let mut ping = body.clone();
        ping[0] = 1;
        // First exchange waits out the dial and handshake.
        a.send(1, CHANNEL, 0, 1, &ping);
        let _ = a_rx.recv();
        let rtt_ns = median_of_batches(|| {
            let t = Instant::now();
            for _ in 0..PINGS {
                a.send(1, CHANNEL, 0, 1, &ping);
                let _ = a_rx.recv();
            }
            t.elapsed().as_nanos() as f64 / f64::from(PINGS)
        });
        out.insert("net.mesh_rtt_us".into(), rtt_ns / 1e3);

        let mut one_way = body.clone();
        one_way[0] = 0;
        let mut sent = 0u64;
        let kfps = median_of_batches(|| {
            let t = Instant::now();
            let target = sent + STREAM_FRAMES;
            while sent < target {
                if sent - received.load(Ordering::Acquire) < STREAM_WINDOW {
                    a.send(1, CHANNEL, 0, 1, &one_way);
                    sent += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            while received.load(Ordering::Acquire) < target {
                std::thread::yield_now();
            }
            STREAM_FRAMES as f64 / t.elapsed().as_secs_f64() / 1e3
        });
        out.insert("net.mesh_stream_kfps".into(), kfps);
        a.send(1, CHANNEL, 0, 1, &[2]);
        echo.join().expect("echo thread");
    });
    a.shutdown();
    b.shutdown();
}
