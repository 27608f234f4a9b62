//! `crossbeam` (the workspace's shim): what one channel hand-off
//! between threads costs, and how long a `select!` with a `default`
//! arm — the shape of both paxos coordinator loops — takes to notice a
//! message. The shim's `select!` polls with a 50 µs sleep.

use super::median_of_batches;
use crate::stats;
use crate::traced::Layer;
use crossbeam::channel::{select, unbounded};
use std::time::{Duration, Instant};

const ROUND_TRIPS: u32 = 2_000;
const WAKES: u32 = 300;

pub fn run(out: &mut Layer) {
    let (to_peer, peer_rx) = unbounded::<u32>();
    let (to_me, my_rx) = unbounded::<u32>();
    let peer = std::thread::spawn(move || {
        while let Ok(v) = peer_rx.recv() {
            if to_me.send(v).is_err() {
                return;
            }
        }
    });
    let per_hop = median_of_batches(|| {
        let t = Instant::now();
        for i in 0..ROUND_TRIPS {
            to_peer.send(i).expect("peer alive");
            my_rx.recv().expect("peer alive");
        }
        t.elapsed().as_nanos() as f64 / f64::from(2 * ROUND_TRIPS)
    });
    drop(to_peer);
    peer.join().expect("ping-pong peer");
    out.insert("crossbeam.handoff_ns".into(), per_hop);

    let (tx, rx) = unbounded::<Instant>();
    let waiter = std::thread::spawn(move || {
        let mut wakes = Vec::new();
        loop {
            select! {
                recv(rx) -> sent => {
                    match sent {
                        Ok(sent) => wakes.push(sent.elapsed().as_nanos() as f64),
                        Err(_) => return wakes,
                    }
                }
                default(Duration::from_millis(5)) => {}
            }
        }
    });
    for i in 0..WAKES {
        // Step through the poll period so sends land at every phase of it.
        std::thread::sleep(Duration::from_micros(200 + u64::from(i % 50)));
        tx.send(Instant::now()).expect("waiter alive");
    }
    drop(tx);
    let wakes = waiter.join().expect("select waiter");
    out.insert(
        "crossbeam.select_wake_us".into(),
        stats::median(&wakes) / 1e3,
    );
}
