//! `multicast`: the skip-pacing floor. A command multicast to one group
//! while `g_all` is idle can only be handed out once the merge has seen
//! `g_all`'s (empty) batch of the same round, which the shared ticker
//! emits every `skip_interval` (1 ms). This wait is most of the
//! in-process workloads' `lat_p50_ms`.

use super::sample_request;
use crate::stats;
use crate::traced::Layer;
use bytes::Bytes;
use psmr_common::ids::{GroupId, WorkerId};
use psmr_common::SystemConfig;
use psmr_multicast::{Destinations, MulticastSystem};
use std::time::{Duration, Instant};

const COMMANDS: u32 = 200;

pub fn run(out: &mut Layer) {
    let mut cfg = SystemConfig::new(2);
    cfg.trace_sample(0);
    let system = MulticastSystem::spawn(&cfg);
    let mut stream = system.worker_stream(WorkerId::new(0));
    let handle = system.handle();
    system.start();
    let group = Destinations::one(GroupId::new(0));
    let payload = Bytes::from(sample_request(1).encode());
    let mut waits = Vec::new();
    for i in 0..COMMANDS {
        // Step through the tick period so commands arrive at every
        // phase of it, as a closed-loop client's do.
        std::thread::sleep(Duration::from_micros(100 + 37 * u64::from(i % 27)));
        let t = Instant::now();
        handle.multicast(&group, payload.clone());
        stream.next().expect("delivered");
        waits.push(t.elapsed().as_nanos() as f64);
    }
    out.insert(
        "multicast.merge_idle_wait_us".into(),
        stats::median(&waits) / 1e3,
    );
    drop(stream);
    system.shutdown();
}
