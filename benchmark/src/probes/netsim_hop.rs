//! `netsim`: `LiveNet::send` to a registered receiver, the hop every
//! in-process paxos message takes.

use super::{median_of_batches, ns_per_call};
use crate::traced::Layer;
use psmr_netsim::{LiveNet, NodeId};
use std::hint::black_box;

pub fn run(out: &mut Layer) {
    let net: LiveNet<u64> = LiveNet::new();
    let (from, to) = (NodeId::new(1), NodeId::new(2));
    let _from_rx = net.register(from);
    let rx = net.register(to);
    let value = median_of_batches(|| {
        ns_per_call(5_000, |i| {
            net.send(from, to, u64::from(i));
            black_box(rx.recv().expect("delivered"));
        })
    });
    net.shutdown();
    out.insert("netsim.hop_ns".into(), value);
}
