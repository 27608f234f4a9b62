//! End-to-end NetFS over every replication engine.

use psmr_common::SystemConfig;
use psmr_core::engines::{Engine, PsmrEngine, SmrEngine, SpSmrEngine};
use psmr_netfs::client::NetFsClient;
use psmr_netfs::{dependency_spec, NetFsService};

fn cfg(mpl: usize) -> SystemConfig {
    let mut cfg = SystemConfig::new(mpl);
    cfg.replicas(2);
    cfg
}

fn exercise(mut fs: NetFsClient, label: &str) {
    fs.mkdir("/home")
        .unwrap_or_else(|e| panic!("{label}: mkdir {e}"));
    fs.mkdir("/home/user").unwrap();
    fs.create("/home/user/notes.txt").unwrap();
    fs.write("/home/user/notes.txt", 0, b"first line\n")
        .unwrap();
    fs.write("/home/user/notes.txt", 11, b"second line\n")
        .unwrap();
    let data = fs.read("/home/user/notes.txt", 0, 1024).unwrap();
    assert_eq!(data, b"first line\nsecond line\n", "{label}");
    let stat = fs.lstat("/home/user/notes.txt").unwrap();
    assert_eq!(stat.size, 23, "{label}");
    assert_eq!(
        fs.readdir("/home/user").unwrap(),
        vec!["notes.txt"],
        "{label}"
    );
    let fd = fs.open("/home/user/notes.txt").unwrap();
    fs.release(fd).unwrap();
    fs.unlink("/home/user/notes.txt").unwrap();
    assert_eq!(fs.access("/home/user/notes.txt"), Err(2), "{label}: ENOENT");
    fs.rmdir("/home/user").unwrap();
    fs.rmdir("/home").unwrap();
}

#[test]
fn netfs_over_psmr() {
    let engine = PsmrEngine::spawn(&cfg(4), dependency_spec().into_map(), NetFsService::new);
    exercise(NetFsClient::new(engine.client()), "P-SMR");
    engine.shutdown();
}

#[test]
fn netfs_over_smr() {
    let engine = SmrEngine::spawn(&cfg(1), NetFsService::new);
    exercise(NetFsClient::new(engine.client()), "SMR");
    engine.shutdown();
}

#[test]
fn netfs_over_spsmr() {
    let engine = SpSmrEngine::spawn(&cfg(4), dependency_spec().into_map(), NetFsService::new);
    exercise(NetFsClient::new(engine.client()), "sP-SMR");
    engine.shutdown();
}

#[test]
fn netfs_concurrent_clients_on_disjoint_files() {
    let engine = std::sync::Arc::new(PsmrEngine::spawn(
        &cfg(4),
        dependency_spec().into_map(),
        || NetFsService::with_tree(4, 16, 64),
    ));
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let engine = std::sync::Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut fs = NetFsClient::new(engine.client());
            let path = format!("/d{}/f{}", t % 4, t % 16);
            for i in 0..30u64 {
                fs.write(&path, 0, &i.to_le_bytes()).unwrap();
                let back = fs.read(&path, 0, 8).unwrap();
                // Another client may write the same file between our write
                // and read; the value must be some client's write though.
                assert_eq!(back.len(), 8);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    match std::sync::Arc::try_unwrap(engine) {
        Ok(engine) => engine.shutdown(),
        Err(_) => panic!("clients still hold the engine"),
    }
}

#[test]
fn netfs_fd_table_is_consistent_across_structural_ops() {
    let engine = PsmrEngine::spawn(&cfg(3), dependency_spec().into_map(), NetFsService::new);
    let mut fs = NetFsClient::new(engine.client());
    fs.create("/a").unwrap();
    fs.create("/b").unwrap();
    let fda = fs.open("/a").unwrap();
    let fdb = fs.open("/b").unwrap();
    assert_ne!(fda, fdb, "fds are distinct");
    let dd = fs.opendir("/").unwrap();
    assert_eq!(fs.readdir("/").unwrap(), vec!["a", "b"]);
    fs.releasedir(dd).unwrap();
    fs.release(fda).unwrap();
    fs.release(fdb).unwrap();
    // Double release fails deterministically on every replica.
    assert_eq!(fs.release(fda), Err(9));
    engine.shutdown();
}
