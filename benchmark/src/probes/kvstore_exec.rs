//! `kvstore`: `KvService::execute` per command kind, without the
//! synthetic work the workloads add, against the preloaded tree.

use super::{median_of_batches, ns_per_call};
use crate::ops::KEYS;
use crate::traced::Layer;
use psmr_core::service::Service;
use psmr_kvstore::{KvOp, KvService};
use std::hint::black_box;

const ITERS: u32 = 5_000;

pub fn run(out: &mut Layer) {
    let service = KvService::with_keys(KEYS);
    // A multiplicative walk over the key space: no two neighbours share
    // a leaf, as with the workloads' uniform keys.
    let key = |i: u32| (u64::from(i) * 7_919) % KEYS;
    let mut exec = |name: &str, op_of: &mut dyn FnMut(u32) -> KvOp| {
        let value = median_of_batches(|| {
            ns_per_call(ITERS, |i| {
                let op = op_of(i);
                black_box(service.execute(op.command(), black_box(&op.encode())));
            })
        });
        out.insert(name.to_string(), value);
    };
    exec("kvstore.exec_read_ns", &mut |i| KvOp::Read { key: key(i) });
    exec("kvstore.exec_update_ns", &mut |i| KvOp::Update {
        key: key(i),
        value: u64::from(i),
    });
    let mut fresh = KEYS;
    exec("kvstore.exec_insert_ns", &mut |_| {
        fresh += 1;
        KvOp::Insert {
            key: fresh,
            value: fresh,
        }
    });
}
