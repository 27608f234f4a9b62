//! The replica-wide rendezvous of P-SMR's synchronous mode.
//!
//! Algorithm 1, lines 14–26: the workers in a dependent command's
//! destination set γ synchronize — every non-executor sends signal *(a)*
//! to the elected executor and waits; the executor collects all signals,
//! executes, responds, and sends signal *(b)* so the others resume.
//!
//! Every dependent command here travels on `g_all`, whose γ is all `k`
//! workers (`CgSink::submit`), and a decided `g_all` batch is one
//! contiguous run in every worker's stream, so each such run is one
//! meeting of the whole replica with worker 0 as executor: it executes
//! the run's commands one after another while the others wait. One
//! [`Rendezvous`] per replica carries it: [`Rendezvous::arrive`] is
//! signal (a) plus the wait for (b), [`Rendezvous::wait_all`] is the
//! executor's collection of the (a)s and [`Rendezvous::release`] sends
//! (b) to everyone at once.
//!
//! Arrivals are counted per *generation*: `release` starts the next one.
//! A worker released from run `n` may reach run `n + 1` before the
//! executor waits again; its arrival then counts once, for `n + 1`. A
//! worker cannot arrive twice in one generation, because `arrive` blocks
//! until the generation it arrived in is released.

use parking_lot::{Condvar, Mutex};

#[derive(Debug, Default)]
struct State {
    /// Arrivals counted for the current generation.
    arrived: usize,
    /// Number of releases so far.
    generation: u64,
    /// Whether the executor is parked in [`Rendezvous::wait_all`]: the
    /// last arrival wakes it only then.
    executor_parked: bool,
    /// Peers parked in [`Rendezvous::arrive`]: the release wakes them only
    /// when there are some.
    parked_peers: usize,
    /// Set by [`Rendezvous::shutdown`]; every wait returns `false`.
    shutdown: bool,
}

/// The meeting point of one replica's `k` workers for runs of `g_all`
/// commands.
#[derive(Debug)]
pub struct Rendezvous {
    /// Workers other than the executor: the arrivals each generation needs.
    peers: usize,
    state: Mutex<State>,
    /// The executor waits here for the last arrival.
    all_arrived: Condvar,
    /// Arrived peers wait here for the release.
    released: Condvar,
}

impl Rendezvous {
    /// A rendezvous of `k` workers: one executor and `k - 1` peers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "a rendezvous needs its executor");
        Self {
            peers: k - 1,
            state: Mutex::new(State::default()),
            all_arrived: Condvar::new(),
            released: Condvar::new(),
        }
    }

    /// A peer reached the current `g_all` run (signal (a)); blocks
    /// until the executor releases it (signal (b)).
    ///
    /// Returns `false` if the rendezvous shut down first.
    pub fn arrive(&self) -> bool {
        let mut state = self.state.lock();
        if state.shutdown {
            return false;
        }
        state.arrived += 1;
        let generation = state.generation;
        let wake = state.arrived == self.peers && state.executor_parked;
        // The lock is given up between the arrival and the wait, so an
        // executor that finishes in that gap costs this peer no park.
        drop(state);
        if wake {
            self.all_arrived.notify_one();
        }
        let mut state = self.state.lock();
        while state.generation == generation && !state.shutdown {
            state.parked_peers += 1;
            self.released.wait(&mut state);
            state.parked_peers -= 1;
        }
        state.generation != generation
    }

    /// The executor blocks until all `k - 1` peers have arrived at the
    /// current run (lines 18–19).
    ///
    /// Returns `false` if the rendezvous shut down first.
    pub fn wait_all(&self) -> bool {
        let mut state = self.state.lock();
        while state.arrived < self.peers && !state.shutdown {
            state.executor_parked = true;
            self.all_arrived.wait(&mut state);
            state.executor_parked = false;
        }
        !state.shutdown
    }

    /// The executor finished the current run: releases every peer and
    /// opens the next generation. Call it only after
    /// [`Rendezvous::wait_all`] returned `true`.
    pub fn release(&self) {
        let mut state = self.state.lock();
        debug_assert_eq!(state.arrived, self.peers, "release before all arrived");
        state.arrived = 0;
        state.generation += 1;
        let wake = state.parked_peers > 0;
        // Woken after the unlock, a peer does not wait a second time, on
        // the lock.
        drop(state);
        if wake {
            self.released.notify_all();
        }
    }

    /// Wakes every waiter, executor and peers, and makes every later wait
    /// return `false` at once (replica crash or shutdown).
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.all_arrived.notify_all();
        self.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// Blocks until `rv` counts `n` arrivals in the current generation.
    fn await_arrivals(rv: &Rendezvous, n: usize) {
        let mut state = rv.state.lock();
        while state.arrived < n {
            drop(state);
            thread::sleep(Duration::from_millis(1));
            state = rv.state.lock();
        }
    }

    #[test]
    fn signal_and_wait_round_trip() {
        let rv = Arc::new(Rendezvous::new(2));
        let peer = {
            let rv = Arc::clone(&rv);
            thread::spawn(move || rv.arrive())
        };
        assert!(rv.wait_all());
        rv.release();
        assert!(peer.join().unwrap(), "the release resumes the peer");
    }

    #[test]
    fn wait_ready_from_all_collects_the_set() {
        let rv = Arc::new(Rendezvous::new(4));
        let mut peers = Vec::new();
        // Two of three peers arrive: the executor must keep waiting.
        for _ in 0..2 {
            let rv = Arc::clone(&rv);
            peers.push(thread::spawn(move || rv.arrive()));
        }
        await_arrivals(&rv, 2);
        let executor = {
            let rv = Arc::clone(&rv);
            thread::spawn(move || {
                let ok = rv.wait_all();
                rv.release();
                ok
            })
        };
        thread::sleep(Duration::from_millis(20));
        assert!(!executor.is_finished(), "executor ran before the last peer");
        let rv2 = Arc::clone(&rv);
        peers.push(thread::spawn(move || rv2.arrive()));
        assert!(executor.join().unwrap());
        for p in peers {
            assert!(p.join().unwrap());
        }
    }

    #[test]
    fn shutdown_signal_unblocks_waiters_despite_live_clones() {
        // k = 3: one peer arrives and parks for its release, and the
        // executor parks for the peer that never comes. Shutdown wakes
        // both, although clones of the rendezvous stay alive.
        let rv = Arc::new(Rendezvous::new(3));
        let peer = {
            let rv = Arc::clone(&rv);
            thread::spawn(move || rv.arrive())
        };
        await_arrivals(&rv, 1);
        let executor = {
            let rv = Arc::clone(&rv);
            thread::spawn(move || rv.wait_all())
        };
        thread::sleep(Duration::from_millis(10));
        rv.shutdown();
        assert!(!peer.join().unwrap(), "arrive returns false on shutdown");
        assert!(
            !executor.join().unwrap(),
            "wait_all returns false on shutdown"
        );
        assert!(!rv.arrive(), "later arrivals return at once");
        assert!(!rv.wait_all(), "later waits return at once");
    }

    #[test]
    fn out_of_order_signals_are_buffered_not_lost() {
        // A peer released from run n reaches run n + 1 before the
        // executor waits again: its signal (a) is kept in the arrival
        // count and counts once, for n + 1.
        let rv = Arc::new(Rendezvous::new(3));
        let peers: Vec<_> = (0..2)
            .map(|_| {
                let rv = Arc::clone(&rv);
                thread::spawn(move || rv.arrive())
            })
            .collect();
        assert!(rv.wait_all());
        rv.release(); // run n done
        for p in peers {
            assert!(p.join().unwrap());
        }
        // The fast peer arrives for n + 1 while the executor is elsewhere.
        let fast = {
            let rv = Arc::clone(&rv);
            thread::spawn(move || rv.arrive())
        };
        await_arrivals(&rv, 1);
        assert_eq!(rv.state.lock().arrived, 1, "counted once, for n + 1");
        // The executor must still wait for the second peer of n + 1.
        let executor = {
            let rv = Arc::clone(&rv);
            thread::spawn(move || {
                let ok = rv.wait_all();
                rv.release();
                ok
            })
        };
        thread::sleep(Duration::from_millis(20));
        assert!(!executor.is_finished(), "one early arrival is not two");
        let slow = {
            let rv = Arc::clone(&rv);
            thread::spawn(move || rv.arrive())
        };
        assert!(executor.join().unwrap());
        assert!(fast.join().unwrap());
        assert!(slow.join().unwrap());
        let state = rv.state.lock();
        assert_eq!((state.arrived, state.generation), (0, 2));
    }

    #[test]
    fn full_synchronous_mode_handshake() {
        // Algorithm 1's synchronous mode with 3 workers and executor t_0,
        // repeated for 100 commands. Each peer checks that the executor
        // ran every command before releasing it, and the executor that
        // both peers were parked at the command when it ran.
        const COMMANDS: u64 = 100;
        let rv = Arc::new(Rendezvous::new(3));
        let executed = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..3 {
            let rv = Arc::clone(&rv);
            let executed = Arc::clone(&executed);
            handles.push(thread::spawn(move || {
                for cmd in 0..COMMANDS {
                    if i == 0 {
                        assert!(rv.wait_all());
                        assert_eq!(rv.state.lock().arrived, 2);
                        executed.fetch_add(1, Ordering::SeqCst); // "execute"
                        rv.release();
                    } else {
                        assert!(rv.arrive());
                        assert_eq!(executed.load(Ordering::SeqCst), cmd + 1);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            executed.load(Ordering::SeqCst),
            COMMANDS,
            "exactly one execution per command"
        );
    }
}
