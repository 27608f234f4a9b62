//! The probe pass: each module times calls into one layer's public
//! functions and reports the median of at least twenty batches. One
//! module per layer, so a later benchmark change can retire one without
//! touching the rest. The functions called here are listed in
//! `benchmark/README.md` as the API surface the benchmark depends on.

mod common_codec;
mod core_route;
mod crossbeam_chan;
mod kvstore_exec;
mod multicast_merge;
mod net_frame;
mod net_mesh;
mod netsim_hop;
mod paxos_decide;
mod recovery_snapshot;
mod wal_log;

use crate::stats;
use crate::traced::Layer;
use std::time::Instant;

/// Batches per probe.
const BATCHES: usize = 21;

/// Median over [`BATCHES`] batches of `batch()`, which returns one
/// batch's value (typically nanoseconds per operation).
fn median_of_batches(mut batch: impl FnMut() -> f64) -> f64 {
    let values: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    stats::median(&values)
}

/// Nanoseconds per call of `op`, over `iters` back-to-back calls.
fn ns_per_call(iters: u32, mut op: impl FnMut(u32)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// A marshalled command the size the workloads send (an update:
/// 24-byte envelope header + 16-byte payload).
fn sample_request(i: u64) -> psmr_common::envelope::Request {
    use psmr_common::ids::{ClientId, RequestId};
    let op = psmr_kvstore::KvOp::Update {
        key: i % crate::ops::KEYS,
        value: i,
    };
    psmr_common::envelope::Request::new(
        ClientId::new(1),
        RequestId::new(i),
        op.command(),
        op.encode(),
    )
}

/// Runs every probe.
pub fn run_all() -> Layer {
    let mut out = Layer::new();
    common_codec::run(&mut out);
    net_frame::run(&mut out);
    net_mesh::run(&mut out);
    crossbeam_chan::run(&mut out);
    netsim_hop::run(&mut out);
    paxos_decide::run(&mut out);
    multicast_merge::run(&mut out);
    core_route::run(&mut out);
    kvstore_exec::run(&mut out);
    wal_log::run(&mut out);
    recovery_snapshot::run(&mut out);
    out
}
