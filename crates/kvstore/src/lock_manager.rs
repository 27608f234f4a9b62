//! A centralized page-lock manager, Berkeley-DB style.
//!
//! Berkeley DB synchronizes its B-tree through a *lock manager*: every
//! access acquires a page lock from a central lock table before touching
//! the tree, and the table itself is a shared structure protected by
//! region mutexes — a well-known scalability bottleneck of lock-based
//! stores, and part of why the paper measures BDB far below the other
//! single-server baselines (§VII-C: "BDB has the lowest throughput due to
//! high overhead with locking, reflected in the CPU usage").
//!
//! [`LockManager`] reproduces that architecture: keys map to pages
//! (`key / PAGE_SPAN`), pages are locked in shared or exclusive mode, all
//! bookkeeping lives in one central table behind a mutex, and waiters park
//! on a condvar. [`LockedKvEngine`](crate::LockedKvEngine) acquires a page
//! lock around every command when constructed in lock-manager mode.
//!
//! # Example
//!
//! ```
//! use psmr_kvstore::lock_manager::{LockManager, LockMode};
//!
//! let mgr = LockManager::new();
//! let read = mgr.acquire(10, LockMode::Shared);
//! let read2 = mgr.acquire(10, LockMode::Shared); // readers coexist
//! drop(read);
//! drop(read2);
//! let write = mgr.acquire(10, LockMode::Exclusive);
//! drop(write);
//! ```

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;

/// Keys per page: key `k` lives on page `k / PAGE_SPAN`. 64 entries per
/// page mirrors our B+-tree node fanout.
pub const PAGE_SPAN: u64 = 64;

/// Requested access mode for a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Multiple readers may hold the page together.
    Shared,
    /// A single writer excludes everyone.
    Exclusive,
}

#[derive(Debug, Default)]
struct PageState {
    /// Number of shared holders.
    readers: u32,
    /// Whether an exclusive holder exists.
    writer: bool,
    /// Writers queued; used to block new readers so writers are not
    /// starved (BDB's lock table does the same).
    waiting_writers: u32,
}

#[derive(Debug, Default)]
struct Table {
    pages: HashMap<u64, PageState>,
    /// Cumulative acquisitions (diagnostics).
    acquired: u64,
    /// Acquisitions that had to wait at least once.
    contended: u64,
}

/// The central lock table. All state sits behind **one** mutex, as in
/// BDB's lock region: every acquire and release serializes through it,
/// which is precisely the scalability behaviour the baseline models.
#[derive(Debug, Default)]
pub struct LockManager {
    table: Mutex<Table>,
    wakeup: Condvar,
}

impl LockManager {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The page a key belongs to.
    pub fn page_of(key: u64) -> u64 {
        key / PAGE_SPAN
    }

    /// Blocks until the page can be locked in `mode`, then returns a guard
    /// that releases on drop.
    pub fn acquire(&self, page: u64, mode: LockMode) -> PageGuard<'_> {
        let mut table = self.table.lock();
        let mut waited = false;
        loop {
            let state = table.pages.entry(page).or_default();
            let granted = match mode {
                // New readers also yield to queued writers (no starvation).
                LockMode::Shared => !state.writer && state.waiting_writers == 0,
                LockMode::Exclusive => !state.writer && state.readers == 0,
            };
            if granted {
                match mode {
                    LockMode::Shared => state.readers += 1,
                    LockMode::Exclusive => state.writer = true,
                }
                table.acquired += 1;
                if waited {
                    table.contended += 1;
                }
                return PageGuard {
                    manager: self,
                    page,
                    mode,
                };
            }
            if mode == LockMode::Exclusive && !waited {
                state.waiting_writers += 1;
            } else if mode == LockMode::Exclusive {
                // Already queued.
            }
            waited = true;
            self.wakeup.wait(&mut table);
            if mode == LockMode::Exclusive {
                // We were counted as waiting; re-evaluate with the count
                // still held so shared requests keep yielding.
                let state = table.pages.entry(page).or_default();
                let granted = !state.writer && state.readers == 0;
                if granted {
                    state.waiting_writers -= 1;
                    state.writer = true;
                    table.acquired += 1;
                    table.contended += 1;
                    return PageGuard {
                        manager: self,
                        page,
                        mode,
                    };
                }
            }
        }
    }

    /// Convenience: locks the page of `key`.
    pub fn acquire_key(&self, key: u64, mode: LockMode) -> PageGuard<'_> {
        self.acquire(Self::page_of(key), mode)
    }

    /// Total acquisitions so far.
    pub fn acquired(&self) -> u64 {
        self.table.lock().acquired
    }

    /// Acquisitions that had to wait (lock contention).
    pub fn contended(&self) -> u64 {
        self.table.lock().contended
    }

    fn release(&self, page: u64, mode: LockMode) {
        let mut table = self.table.lock();
        let remove = {
            let state = table.pages.get_mut(&page).expect("released page is locked");
            match mode {
                LockMode::Shared => {
                    state.readers -= 1;
                }
                LockMode::Exclusive => {
                    state.writer = false;
                }
            }
            state.readers == 0 && !state.writer && state.waiting_writers == 0
        };
        if remove {
            table.pages.remove(&page);
        }
        drop(table);
        self.wakeup.notify_all();
    }
}

/// RAII guard for a held page lock; releases on drop.
#[derive(Debug)]
pub struct PageGuard<'a> {
    manager: &'a LockManager,
    page: u64,
    mode: LockMode,
}

impl PageGuard<'_> {
    /// The locked page.
    pub fn page(&self) -> u64 {
        self.page
    }

    /// The granted mode.
    pub fn mode(&self) -> LockMode {
        self.mode
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.manager.release(self.page, self.mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn keys_map_to_pages() {
        assert_eq!(LockManager::page_of(0), 0);
        assert_eq!(LockManager::page_of(63), 0);
        assert_eq!(LockManager::page_of(64), 1);
    }

    #[test]
    fn readers_share_a_page() {
        let mgr = LockManager::new();
        let a = mgr.acquire(1, LockMode::Shared);
        let b = mgr.acquire(1, LockMode::Shared);
        assert_eq!(mgr.acquired(), 2);
        drop((a, b));
    }

    #[test]
    fn distinct_pages_do_not_interact() {
        let mgr = LockManager::new();
        let a = mgr.acquire(1, LockMode::Exclusive);
        let b = mgr.acquire(2, LockMode::Exclusive);
        drop((a, b));
        assert_eq!(mgr.contended(), 0);
    }

    #[test]
    fn writer_excludes_readers_and_writers() {
        let mgr = Arc::new(LockManager::new());
        let guard = mgr.acquire(5, LockMode::Exclusive);
        let concurrent = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for mode in [LockMode::Shared, LockMode::Exclusive] {
            let mgr = Arc::clone(&mgr);
            let concurrent = Arc::clone(&concurrent);
            handles.push(thread::spawn(move || {
                let _g = mgr.acquire(5, mode);
                concurrent.fetch_add(1, Ordering::SeqCst);
            }));
        }
        thread::sleep(Duration::from_millis(30));
        assert_eq!(concurrent.load(Ordering::SeqCst), 0, "held exclusively");
        drop(guard);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(concurrent.load(Ordering::SeqCst), 2);
        assert!(mgr.contended() >= 1);
    }

    #[test]
    fn queued_writer_blocks_new_readers() {
        let mgr = Arc::new(LockManager::new());
        let reader = mgr.acquire(7, LockMode::Shared);
        // Writer queues behind the reader.
        let writer = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || {
                let _g = mgr.acquire(7, LockMode::Exclusive);
            })
        };
        thread::sleep(Duration::from_millis(20));
        // A new reader must now wait too (writer priority), so the write
        // eventually completes even under a stream of readers.
        let late_reader = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || {
                let _g = mgr.acquire(7, LockMode::Shared);
            })
        };
        thread::sleep(Duration::from_millis(20));
        drop(reader);
        writer.join().unwrap();
        late_reader.join().unwrap();
    }

    #[test]
    fn mutual_exclusion_under_hammering() {
        let mgr = Arc::new(LockManager::new());
        // One occupancy counter per page (keys 0..128 span two pages): an
        // exclusive key lock holds its whole page, so no two threads may
        // be inside the same page at once — but the two pages may be held
        // at the same time.
        let in_section: Arc<[AtomicU32; 2]> = Arc::new([AtomicU32::new(0), AtomicU32::new(0)]);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let mgr = Arc::clone(&mgr);
            let in_section = Arc::clone(&in_section);
            handles.push(thread::spawn(move || {
                for i in 0..500u64 {
                    let key = i % 128;
                    let _g = mgr.acquire_key(key, LockMode::Exclusive);
                    let page = &in_section[LockManager::page_of(key) as usize];
                    let now = page.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(now, 0, "exclusive section violated");
                    page.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mgr.acquired(), 8 * 500);
    }

    #[test]
    fn readers_and_writers_interleave_correctly() {
        let mgr = Arc::new(LockManager::new());
        let value = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for t in 0..4 {
            let mgr = Arc::clone(&mgr);
            let value = Arc::clone(&value);
            handles.push(thread::spawn(move || {
                for i in 0..300u32 {
                    if (t + i) % 3 == 0 {
                        let _g = mgr.acquire(0, LockMode::Exclusive);
                        let v = value.load(Ordering::SeqCst);
                        value.store(v + 1, Ordering::SeqCst);
                    } else {
                        let _g = mgr.acquire(0, LockMode::Shared);
                        let _ = value.load(Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every increment happened under exclusion: the counter equals the
        // exact number of writer sections.
        let writes: u32 = (0..4)
            .map(|t| (0..300u32).filter(|i| (t + i) % 3 == 0).count() as u32)
            .sum();
        assert_eq!(value.load(Ordering::SeqCst), writes);
    }
}
