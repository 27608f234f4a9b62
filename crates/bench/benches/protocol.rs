//! Protocol-level benchmarks and ablations of the design choices called
//! out in `DESIGN.md`: batch size, C-Dep granularity, the scheduler
//! dispatch path vs direct per-worker delivery, and the synchronous-mode
//! rendezvous.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use psmr_common::ids::{GroupId, WorkerId};
use psmr_common::SystemConfig;
use psmr_core::conflict::CommandMap;
use psmr_core::engines::sync::Rendezvous;
use psmr_kvstore::{coarse_dependency_spec, fine_dependency_spec, KvOp};
use psmr_multicast::{Destinations, MulticastSystem};
use std::sync::Arc;
use std::time::Duration;

fn quick_cfg(mpl: usize) -> SystemConfig {
    SystemConfig::new(mpl)
}

/// Ordered delivery through one Paxos-backed group, end to end.
fn bench_multicast_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("multicast");
    group.bench_function("ordered_delivery", |b| {
        let system = MulticastSystem::spawn(&quick_cfg(1));
        let handle = system.handle();
        let mut stream = system.worker_stream(WorkerId::new(0));
        system.start();
        let payload = Bytes::from_static(&[0u8; 32]);
        b.iter(|| {
            handle.multicast(&Destinations::one(GroupId::new(0)), payload.clone());
            std::hint::black_box(stream.next().expect("delivered"));
        });
        system.shutdown();
    });
    group.finish();
}

/// Ablation: batch size cap (the paper uses 8 KB).
fn bench_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("multicast_batching");
    for batch_bytes in [1usize << 10, 8 << 10, 64 << 10] {
        group.throughput(Throughput::Elements(1000));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}KB", batch_bytes >> 10)),
            &batch_bytes,
            |b, &batch_bytes| {
                let mut cfg = quick_cfg(1);
                cfg.batch_bytes(batch_bytes);
                let system = MulticastSystem::spawn(&cfg);
                let handle = system.handle();
                let mut stream = system.worker_stream(WorkerId::new(0));
                system.start();
                let payload = Bytes::from_static(&[0u8; 32]);
                b.iter(|| {
                    for _ in 0..1000 {
                        handle.multicast(&Destinations::one(GroupId::new(0)), payload.clone());
                    }
                    for _ in 0..1000 {
                        std::hint::black_box(stream.next().expect("delivered"));
                    }
                });
                system.shutdown();
            },
        );
    }
    group.finish();
}

/// Ablation: C-Dep granularity — computing destinations with the fine
/// (keyed) vs coarse (free/global) C-G function.
fn bench_cdep_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("cdep_granularity");
    let fine: CommandMap = fine_dependency_spec().into_map();
    let coarse: CommandMap = coarse_dependency_spec().into_map();
    let read = KvOp::Read { key: 123456 }.encode();
    group.bench_function("fine_read_destinations", |b| {
        b.iter(|| std::hint::black_box(fine.destinations(psmr_kvstore::READ, &read, 8)));
    });
    group.bench_function("coarse_read_destinations", |b| {
        b.iter(|| std::hint::black_box(coarse.destinations(psmr_kvstore::READ, &read, 8)));
    });
    let update = KvOp::Update {
        key: 123456,
        value: 1,
    }
    .encode();
    group.bench_function("fine_update_destinations", |b| {
        b.iter(|| std::hint::black_box(fine.destinations(psmr_kvstore::UPDATE, &update, 8)));
    });
    group.finish();
}

/// Ablation: the synchronous-mode rendezvous (Algorithm 1 lines 14–26)
/// for 2, 4 and 8 participants.
fn bench_sync_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync_mode");
    for k in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            // Executor is worker 0; workers 1..k loop arriving and waiting
            // for the release, driven by the benched executor iteration.
            let rendezvous = Arc::new(Rendezvous::new(k));
            let helpers: Vec<_> = (1..k)
                .map(|_| {
                    let rendezvous = Arc::clone(&rendezvous);
                    std::thread::spawn(move || while rendezvous.arrive() {})
                })
                .collect();
            b.iter(|| {
                assert!(rendezvous.wait_all());
                rendezvous.release();
            });
            rendezvous.shutdown();
            for h in helpers {
                let _ = h.join();
            }
        });
    }
    group.finish();
}

/// Delivery-path ablation: commands fanned through a scheduler-style
/// single stream vs merged per-worker streams (the architectural
/// difference between sP-SMR and P-SMR).
fn bench_delivery_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("delivery_path");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("single_stream_1000", |b| {
        let system = MulticastSystem::spawn_single(&quick_cfg(4));
        let handle = system.handle();
        let mut stream = system.single_stream();
        system.start();
        let payload = Bytes::from_static(&[0u8; 32]);
        b.iter(|| {
            for _ in 0..1000 {
                handle.multicast(&Destinations::one(GroupId::new(0)), payload.clone());
            }
            for _ in 0..1000 {
                std::hint::black_box(stream.next().expect("delivered"));
            }
        });
        system.shutdown();
    });
    group.bench_function("four_worker_streams_1000", |b| {
        let system = MulticastSystem::spawn(&quick_cfg(4));
        let handle = system.handle();
        let mut streams: Vec<_> = (0..4)
            .map(|i| system.worker_stream(WorkerId::new(i)))
            .collect();
        system.start();
        let payload = Bytes::from_static(&[0u8; 32]);
        b.iter(|| {
            for i in 0..1000usize {
                handle.multicast(&Destinations::one(GroupId::new(i % 4)), payload.clone());
            }
            for (i, stream) in streams.iter_mut().enumerate() {
                for _ in 0..(1000 / 4) {
                    std::hint::black_box(stream.next().expect("delivered"));
                }
                let _ = i;
            }
        });
        system.shutdown();
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500)).sample_size(20);
    targets = bench_multicast_round_trip, bench_batching, bench_cdep_granularity, bench_sync_mode, bench_delivery_path
}
criterion_main!(benches);
