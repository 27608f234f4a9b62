//! Thread census of a deployment: one ordering thread for all `mpl + 1`
//! P-SMR groups, one for the single layout's stream, and none left after
//! the shutdown.
//!
//! Its own test binary, so no other test's threads are in the process.
//! The tests run one at a time: each counts every ordering thread of
//! the process.

use bytes::Bytes;
use psmr_common::ids::{GroupId, WorkerId};
use psmr_common::SystemConfig;
use psmr_multicast::{Destinations, MulticastSystem};
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

/// The single layout is ordered by the same loop, and its one stream,
/// read by no merge, emits no skip rounds: idle, it stays where it is.
#[test]
fn the_single_stream_runs_on_one_ordering_thread_and_skips_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let system = MulticastSystem::spawn_single(&SystemConfig::new(1));
    let handle = system.handle();
    let mut stream = system.single_stream();
    system.start();
    handle.multicast(
        &Destinations::one(GroupId::new(0)),
        Bytes::from_static(b"x"),
    );
    assert_eq!(&stream.next().expect("delivered").payload[..], b"x");
    assert_eq!(
        ordering_threads(),
        vec!["order-rounds".to_string()],
        "one group, one ordering thread: {:?}",
        thread_names()
    );
    let idle_seq = system.next_seq(GroupId::new(0));
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(
        system.next_seq(GroupId::new(0)),
        idle_seq,
        "an idle single stream decides nothing"
    );
    drop(stream);
    system.shutdown();
    assert_eq!(ordering_threads(), Vec::<String>::new());
}
