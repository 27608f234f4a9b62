//! `core`: `CommandMap::destinations` — C-G, evaluated once per command
//! on the client side.

use super::{median_of_batches, ns_per_call};
use crate::traced::Layer;
use psmr_kvstore::{fine_dependency_spec, KvOp};
use std::hint::black_box;

pub fn run(out: &mut Layer) {
    let map = fine_dependency_spec().into_map();
    let value = median_of_batches(|| {
        ns_per_call(10_000, |i| {
            let op = KvOp::Read { key: u64::from(i) };
            black_box(map.destinations(op.command(), black_box(&op.encode()), 2));
        })
    });
    out.insert("core.route_ns".into(), value);
}
