//! Nothing the benchmark starts or creates outlives it: child processes
//! and scratch directories are registered here, and released on normal
//! exit, on a panic in any thread, and when the watchdog fires.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

static CHILDREN: Mutex<Vec<(u64, Child)>> = Mutex::new(Vec::new());
static SCRATCH: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Where results and scratch directories go: inside the checkout (the
/// driver allows no writes outside it) and already ignored by git.
pub const OUT_DIR: &str = "target/benchmark";

fn lock<T>(m: &'static Mutex<T>) -> std::sync::MutexGuard<'static, T> {
    // A panicking thread may hold these; the data (handles and paths)
    // is valid at every step, and cleanup must still run.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A registered child process.
#[derive(Debug)]
pub struct ChildId {
    id: u64,
    pub pid: u32,
}

/// Spawns `command` and registers the child for cleanup.
pub fn spawn(command: &mut Command) -> std::io::Result<ChildId> {
    let child = command.spawn()?;
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let pid = child.id();
    lock(&CHILDREN).push((id, child));
    Ok(ChildId { id, pid })
}

/// SIGKILLs one child and waits until it has ended.
pub fn kill(child: &ChildId) {
    let taken = {
        let mut children = lock(&CHILDREN);
        children
            .iter()
            .position(|(id, _)| *id == child.id)
            .map(|at| children.swap_remove(at).1)
    };
    if let Some(mut child) = taken {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Creates a fresh scratch directory under [`OUT_DIR`], registered for
/// removal.
pub fn scratch_dir(tag: &str) -> std::io::Result<PathBuf> {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::current_dir()?
        .join(OUT_DIR)
        .join("tmp")
        .join(format!("{tag}-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    lock(&SCRATCH).push(dir.clone());
    Ok(dir)
}

/// Removes one scratch directory now.
pub fn remove_scratch(dir: &Path) {
    lock(&SCRATCH).retain(|d| d != dir);
    let _ = std::fs::remove_dir_all(dir);
}

/// Kills every registered child, waits for each, and removes every
/// scratch directory. Idempotent.
pub fn release_all() {
    let children: Vec<(u64, Child)> = std::mem::take(&mut *lock(&CHILDREN));
    for (_, mut child) in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let dirs: Vec<PathBuf> = std::mem::take(&mut *lock(&SCRATCH));
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Installs the panic hook and starts the watchdog. A panic in any
/// thread, or a run longer than `limit` (the driver allows 180 s),
/// releases everything and exits non-zero without a result line.
pub fn install(limit: Duration) {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        release_all();
        std::process::exit(101);
    }));
    std::thread::Builder::new()
        .name("watchdog".into())
        .spawn(move || {
            std::thread::sleep(limit);
            eprintln!("psmr-benchmark: still running after {limit:?}; giving up");
            release_all();
            std::process::exit(3);
        })
        .expect("spawn watchdog");
}
