//! `recovery`: `KvService::snapshot` of the preloaded store — the work
//! every checkpoint does while the stream waits.

use super::median_of_batches;
use crate::ops::KEYS;
use crate::traced::Layer;
use psmr_kvstore::KvService;
use psmr_recovery::Snapshot;
use std::hint::black_box;
use std::time::Instant;

pub fn run(out: &mut Layer) {
    let service = KvService::with_keys(KEYS);
    let ns = median_of_batches(|| {
        let t = Instant::now();
        black_box(service.snapshot());
        t.elapsed().as_nanos() as f64
    });
    out.insert("recovery.snapshot_ms".into(), ns / 1e6);
}
