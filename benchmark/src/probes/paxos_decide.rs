//! `paxos`, through `MulticastSystem::spawn_single` (one group, three
//! in-process acceptors): one command from submit to delivery, then
//! 50 000 commands pipelined — decisions per second and how many
//! commands the coordinator packs into a batch.

use super::{median_of_batches, sample_request};
use crate::traced::Layer;
use bytes::Bytes;
use psmr_common::ids::GroupId;
use psmr_common::SystemConfig;
use psmr_multicast::{Destinations, MulticastSystem};
use std::time::Instant;

const SINGLES: u32 = 20;
const PIPELINED: u64 = 50_000;

pub fn run(out: &mut Layer) {
    let mut cfg = SystemConfig::new(1);
    cfg.trace_sample(0);
    let system = MulticastSystem::spawn_single(&cfg);
    let mut stream = system.single_stream();
    let handle = system.handle();
    system.start();
    let group = Destinations::one(GroupId::new(0));
    let payload = Bytes::from(sample_request(1).encode());

    let decide_ns = median_of_batches(|| {
        let t = Instant::now();
        for _ in 0..SINGLES {
            handle.multicast(&group, payload.clone());
            stream.next().expect("delivered");
        }
        t.elapsed().as_nanos() as f64 / f64::from(SINGLES)
    });
    out.insert("paxos.decide_us".into(), decide_ns / 1e3);

    // Submitting and delivering overlap, as they do under load.
    let t = Instant::now();
    let batches = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut batches = 0u64;
            let mut last_batch = 0;
            for _ in 0..PIPELINED {
                let delivered = stream.next().expect("delivered");
                if delivered.batch_seq != last_batch {
                    last_batch = delivered.batch_seq;
                    batches += 1;
                }
            }
            batches
        });
        for _ in 0..PIPELINED {
            handle.multicast(&group, payload.clone());
        }
        consumer.join().expect("consumer thread")
    });
    let elapsed = t.elapsed().as_secs_f64();
    out.insert("paxos.decide_kcps".into(), PIPELINED as f64 / elapsed / 1e3);
    out.insert(
        "paxos.cmds_per_batch".into(),
        PIPELINED as f64 / batches.max(1) as f64,
    );
    drop(stream);
    system.shutdown();
}
