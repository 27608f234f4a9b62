//! Thread census of a P-SMR deployment: one ordering thread for all
//! `mpl + 1` groups, and none left after the shutdown.
//!
//! Its own test binary, so no other test's threads are in the process.

use bytes::Bytes;
use psmr_common::ids::{GroupId, WorkerId};
use psmr_common::SystemConfig;
use psmr_multicast::{Destinations, MulticastSystem};

/// Names of this process's threads, from `/proc/self/task/*/comm`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .map(|name| name.trim().to_string())
                .collect()
        })
        .unwrap_or_default()
}

fn ordering_threads() -> Vec<String> {
    thread_names()
        .into_iter()
        .filter(|n| n == "order-rounds" || n.starts_with("coord-g") || n == "mcast-ticker")
        .collect()
}

#[test]
fn one_ordering_thread_runs_every_group() {
    let system = MulticastSystem::spawn(&SystemConfig::new(3));
    let handle = system.handle();
    let mut w2 = system.worker_stream(WorkerId::new(2));
    system.start();
    handle.multicast(
        &Destinations::one(GroupId::new(2)),
        Bytes::from_static(b"x"),
    );
    assert_eq!(&w2.next().expect("delivered").payload[..], b"x");
    assert_eq!(
        ordering_threads(),
        vec!["order-rounds".to_string()],
        "four groups, one ordering thread: {:?}",
        thread_names()
    );
    drop(w2);
    system.shutdown();
    assert_eq!(ordering_threads(), Vec::<String>::new());
}
