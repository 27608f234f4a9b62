//! An mpmc channel with the `crossbeam-channel` API surface the
//! workspace uses: `bounded`/`unbounded` constructors, clonable senders
//! *and* receivers, blocking/timeout/non-blocking receives, disconnect
//! semantics (a receive on a channel with no senders drains the queue
//! and then errors; a send with no receivers errors), and the waker
//! registry behind the blocking [`select!`].
//!
//! Wake-ups are paid only when someone waits: a send notifies the
//! receive condvar only while a thread is parked in `recv`, a receive
//! notifies the send condvar only while a sender is parked on a full
//! bounded channel (never, on an unbounded one), and `select!` wakers
//! are signalled only while registered.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub use crate::select;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    cap: Option<usize>,
    /// Threads parked in `recv`/`recv_timeout`.
    parked_receivers: usize,
    /// Threads parked in `send` on a full bounded channel.
    parked_senders: usize,
    /// Wakers of the `select!` calls currently parked on this channel.
    selectors: Vec<Arc<SelectWaker>>,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when the queue gains an item or the last sender leaves.
    recv_ready: Condvar,
    /// Signalled when the queue loses an item or the last receiver leaves.
    send_ready: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `value` and wakes whoever waits to receive it.
    fn push(&self, mut state: MutexGuard<'_, State<T>>, value: T) {
        state.queue.push_back(value);
        self.wake_receivers(state, false);
    }

    /// Signals every `select!` waker registered when the message landed,
    /// then wakes one — or, on disconnect, every — thread parked in
    /// `recv`, both after the lock is released: a woken thread's first
    /// step takes this lock, and finding it still held would park it
    /// again.
    fn wake_receivers(&self, state: MutexGuard<'_, State<T>>, all: bool) {
        let selectors = (!state.selectors.is_empty()).then(|| state.selectors.clone());
        let parked = state.parked_receivers > 0;
        drop(state);
        // A waker signalled after its selection returned is dropped
        // unread, so signalling outside the lock loses nothing.
        for waker in selectors.iter().flatten() {
            waker.signal();
        }
        if parked {
            if all {
                self.recv_ready.notify_all();
            } else {
                self.recv_ready.notify_one();
            }
        }
    }

    /// Pops the oldest message and, when a sender is parked on the full
    /// queue, hands it the freed slot.
    fn pop(&self, mut state: MutexGuard<'_, State<T>>) -> Option<T> {
        let value = state.queue.pop_front()?;
        let parked = state.parked_senders > 0;
        drop(state);
        if parked {
            self.send_ready.notify_one();
        }
        Some(value)
    }
}

fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            cap,
            parked_receivers: 0,
            parked_senders: 0,
            selectors: Vec::new(),
        }),
        recv_ready: Condvar::new(),
        send_ready: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

/// Creates a channel with unbounded capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    new_channel(None)
}

/// Creates a channel holding at most `cap` queued messages.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    new_channel(Some(cap.max(1)))
}

/// The sending half; clonable.
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half; clonable (multi-consumer).
pub struct Receiver<T>(Arc<Shared<T>>);

impl<T> Sender<T> {
    /// Sends a message, blocking while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// Returns the message back if every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.0.lock();
        loop {
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            match state.cap {
                Some(cap) if state.queue.len() >= cap => {
                    state.parked_senders += 1;
                    state = self
                        .0
                        .send_ready
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner());
                    state.parked_senders -= 1;
                }
                _ => break,
            }
        }
        self.0.push(state, value);
        Ok(())
    }

    /// Non-blocking send: fails instead of waiting on a full bounded
    /// channel.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when a bounded channel is at capacity,
    /// [`TrySendError::Disconnected`] when every receiver is gone; both
    /// hand the message back.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let state = self.0.lock();
        if state.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if let Some(cap) = state.cap {
            if state.queue.len() >= cap {
                return Err(TrySendError::Full(value));
            }
        }
        self.0.push(state, value);
        Ok(())
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether both halves refer to the same channel.
    pub fn same_channel(&self, other: &Sender<T>) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one is available.
    ///
    /// # Errors
    ///
    /// Errors once the queue is empty and every sender has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.0.lock();
        loop {
            if !state.queue.is_empty() {
                return Ok(self.0.pop(state).expect("queue is non-empty"));
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state.parked_receivers += 1;
            state = self
                .0
                .recv_ready
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
            state.parked_receivers -= 1;
        }
    }

    /// Receives with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.0.lock();
        loop {
            if !state.queue.is_empty() {
                return Ok(self.0.pop(state).expect("queue is non-empty"));
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            state.parked_receivers += 1;
            state = self
                .0
                .recv_ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            state.parked_receivers -= 1;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.try_select() {
            Some(Ok(v)) => Ok(v),
            Some(Err(RecvError)) => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// One `select!` poll of this arm: a message, `Err` once the channel
    /// is empty and disconnected (the arm fires), `None` when empty.
    #[doc(hidden)]
    pub fn try_select(&self) -> Option<Result<T, RecvError>> {
        let state = self.0.lock();
        if !state.queue.is_empty() {
            return self.0.pop(state).map(Ok);
        }
        (state.senders == 0).then_some(Err(RecvError))
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `select!` wakers currently registered on this channel.
    #[cfg(test)]
    fn registered_wakers(&self) -> usize {
        self.0.lock().selectors.len()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.senders -= 1;
        if state.senders == 0 {
            // Disconnect: every waiting receiver must observe it.
            self.0.wake_receivers(state, true);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.receivers -= 1;
        if state.receivers == 0 && state.parked_senders > 0 {
            drop(state);
            self.0.send_ready.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

// ------------------------------------------------------------ select!

/// The waker one parked `select!` call registers on each of its
/// receivers: a flag plus a condvar, set by any send to (or disconnect
/// of) a registered channel.
#[doc(hidden)]
#[derive(Default)]
pub struct SelectWaker {
    signalled: Mutex<bool>,
    cv: Condvar,
}

impl SelectWaker {
    fn signal(&self) {
        *self.signalled.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_one();
    }

    /// Parks until signalled (consuming the signal; `true`) or until
    /// `deadline`, if any, passes (`false`).
    fn wait(&self, deadline: Option<Instant>) -> bool {
        let mut signalled = self.signalled.lock().unwrap_or_else(|e| e.into_inner());
        while !*signalled {
            let Some(deadline) = deadline else {
                signalled = self.cv.wait(signalled).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            signalled = self
                .cv
                .wait_timeout(signalled, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        *signalled = false;
        true
    }
}

/// A receiver as one arm of a `select!`: it can carry the waker of a
/// parked selection. Object-safe, so the arms of different message
/// types fit in one slice.
#[doc(hidden)]
pub trait SelectArm {
    /// Adds `waker` to the channel's registry.
    fn register(&self, waker: &Arc<SelectWaker>);
    /// Removes `waker` from the channel's registry.
    fn unregister(&self, waker: &Arc<SelectWaker>);
}

impl<T> SelectArm for Receiver<T> {
    fn register(&self, waker: &Arc<SelectWaker>) {
        self.0.lock().selectors.push(Arc::clone(waker));
    }

    fn unregister(&self, waker: &Arc<SelectWaker>) {
        self.0.lock().selectors.retain(|w| !Arc::ptr_eq(w, waker));
    }
}

/// The parking state of one `select!` call. Nothing is registered (and
/// nothing allocated) until the first poll finds every arm empty; the
/// registration is dropped again before an arm body runs, and on drop.
#[doc(hidden)]
pub struct Selection<'a> {
    arms: &'a [&'a dyn SelectArm],
    timeout: Duration,
    /// The registered waker and the instant the `default` arm is due
    /// (`None`: a timeout too long to represent, i.e. never).
    waker: Option<(Arc<SelectWaker>, Option<Instant>)>,
}

impl<'a> Selection<'a> {
    /// A selection over `arms` whose `default` arm fires after `timeout`.
    pub fn new(arms: &'a [&'a dyn SelectArm], timeout: Duration) -> Self {
        Self {
            arms,
            timeout,
            waker: None,
        }
    }

    /// Called each time every arm polled empty. The first call registers
    /// the waker on every arm and returns `true` without parking, so the
    /// caller polls again before it sleeps — a message sent between the
    /// first poll and the registration is found by that poll, never
    /// slept through. Later calls park until a registered channel
    /// signals (`true`: poll again) or the timeout passes (`false`: run
    /// the default arm).
    pub fn park(&mut self) -> bool {
        match &self.waker {
            Some((waker, deadline)) => waker.wait(*deadline),
            None => {
                if self.timeout.is_zero() {
                    return false;
                }
                let waker = Arc::new(SelectWaker::default());
                for arm in self.arms {
                    arm.register(&waker);
                }
                self.waker = Some((waker, Instant::now().checked_add(self.timeout)));
                true
            }
        }
    }

    /// Unregisters the waker from every arm (idempotent).
    pub fn disarm(&mut self) {
        if let Some((waker, _)) = self.waker.take() {
            for arm in self.arms {
                arm.unregister(&waker);
            }
        }
    }
}

impl Drop for Selection<'_> {
    fn drop(&mut self) {
        self.disarm();
    }
}

/// Error of [`Sender::send`]: every receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error of [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The bounded channel is at capacity; the message is handed back.
    Full(T),
    /// Every receiver is gone; the message is handed back.
    Disconnected(T),
}

/// Error of [`Receiver::recv`]: channel empty with no senders left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error of [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now.
    Empty,
    /// Channel empty and every sender dropped.
    Disconnected,
}

/// Error of [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline elapsed with nothing queued.
    Timeout,
    /// Channel empty and every sender dropped.
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_drains_then_errors() {
        let (tx, rx) = unbounded();
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn bounded_blocks_until_space() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(tx.len(), 1);
        assert!(tx.same_channel(&tx.clone()));
        let (other, _keep) = bounded::<i32>(1);
        assert!(!tx.same_channel(&other));
        drop(rx);
        assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected(3)));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn select_macro_picks_ready_arm() {
        let (tx, rx) = unbounded();
        let (_tx2, rx2) = unbounded::<u8>();
        tx.send(5u8).unwrap();
        let mut got = None;
        crate::select! {
            recv(rx) -> v => { got = v.ok(); }
            // rx2 never fires; if it somehow did, the assert below catches
            // the clobbered value (a diverging arm would warn in the macro
            // expansion).
            recv(rx2) -> _v => { got = None; }
            default(Duration::from_millis(5)) => {}
        }
        assert_eq!(got, Some(5));
    }

    #[test]
    fn select_macro_hits_default_on_timeout() {
        let (_tx, rx) = unbounded::<u8>();
        let mut fell_through = false;
        crate::select! {
            // rx never fires; if it did, fell_through stays false and the
            // assert below reports it.
            recv(rx) -> _v => {}
            default(Duration::from_millis(2)) => { fell_through = true; }
        }
        assert!(fell_through, "nothing was sent, default must fire");
    }

    #[test]
    fn select_with_an_endless_default_waits_for_a_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let (stop_tx, stop) = unbounded::<()>();
        let waiter = std::thread::spawn(move || {
            let mut stopped = false;
            crate::select! {
                recv(rx) -> _v => {}
                recv(stop) -> _s => { stopped = true; }
                default(Duration::MAX) => {}
            }
            stopped
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "an endless default timed out");
        drop(stop_tx);
        assert!(waiter.join().unwrap(), "the stop arm fired");
        drop(tx);
    }

    /// Two senders race 200 000 messages across three arms into one
    /// selecting receiver. Each sender waits for its previous message to
    /// be consumed before sending the next, so the receiver keeps running
    /// dry and parking, and almost every send races a park: a single
    /// lost wakeup costs the whole 10 s default.
    #[test]
    fn select_loses_no_wakeup_under_racing_senders() {
        use std::sync::atomic::{AtomicU32, Ordering};
        const PER_SENDER: u32 = 100_000;
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| unbounded::<usize>()).unzip();
        let consumed: Arc<[AtomicU32; 2]> = Arc::new([AtomicU32::new(0), AtomicU32::new(0)]);
        let started = Instant::now();
        let senders: Vec<_> = (0..2)
            .map(|s| {
                let txs = txs.clone();
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || {
                    for i in 0..PER_SENDER {
                        txs[(i as usize + s) % 3].send(s).unwrap();
                        while consumed[s].load(Ordering::Acquire) <= i {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut timeouts = 0u32;
        let take = |s: usize| consumed[s].fetch_add(1, Ordering::Release);
        let received = || {
            consumed
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .sum::<u32>()
        };
        while received() < 2 * PER_SENDER {
            crate::select! {
                recv(rxs[0]) -> v => { take(v.unwrap()); }
                recv(rxs[1]) -> v => { take(v.unwrap()); }
                recv(rxs[2]) -> v => { take(v.unwrap()); }
                default(Duration::from_secs(10)) => { timeouts += 1; }
            }
        }
        for s in senders {
            s.join().unwrap();
        }
        assert_eq!(timeouts, 0, "a parked select! missed a send");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "took {:?}: wakeups were lost or late",
            started.elapsed()
        );
        assert!(rxs.iter().all(|rx| rx.registered_wakers() == 0));
    }

    #[test]
    fn select_fires_the_disconnected_arm_promptly() {
        let (tx, rx) = unbounded::<u8>();
        let (_keep, idle) = unbounded::<u8>();
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            drop(tx);
        });
        let started = Instant::now();
        let mut fired = None;
        crate::select! {
            recv(idle) -> _v => {}
            recv(rx) -> v => { fired = Some(v); }
            default(Duration::from_secs(10)) => {}
        }
        dropper.join().unwrap();
        assert_eq!(fired, Some(Err(RecvError)));
        assert!(started.elapsed() < Duration::from_secs(2));
        assert_eq!(rx.registered_wakers() + idle.registered_wakers(), 0);
    }

    #[test]
    fn select_on_cloned_receivers_delivers_each_message_once() {
        const N: u32 = 20_000;
        let (tx, rx) = unbounded::<u32>();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let (mut open, mut starved) = (true, false);
                    while open && !starved {
                        crate::select! {
                            recv(rx) -> v => {
                                match v {
                                    Ok(v) => got.push(v),
                                    Err(RecvError) => open = false,
                                }
                            }
                            default(Duration::from_secs(10)) => { starved = true; }
                        }
                    }
                    assert!(!starved, "consumer parked through a send");
                    got
                })
            })
            .collect();
        drop(rx);
        for i in 0..N {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn select_unregisters_its_waker_on_every_return_path() {
        let (tx_a, rx_a) = unbounded::<u8>();
        let (tx_b, rx_b) = unbounded::<u8>();
        let registered = || rx_a.registered_wakers() + rx_b.registered_wakers();
        let select_once = || {
            let mut out = None;
            crate::select! {
                recv(rx_a) -> v => { out = Some(v); }
                recv(rx_b) -> v => { out = Some(v); }
                default(Duration::from_millis(20)) => {}
            }
            out
        };
        // Timeout: parked, nothing came.
        assert_eq!(select_once(), None);
        assert_eq!(registered(), 0);
        // Message that arrives while parked.
        let late = {
            let tx_b = tx_b.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                tx_b.send(7).unwrap();
            })
        };
        let mut got = None;
        crate::select! {
            recv(rx_a) -> v => { got = Some(v); }
            recv(rx_b) -> v => { got = Some(v); }
            default(Duration::from_secs(10)) => {}
        }
        late.join().unwrap();
        assert_eq!(got, Some(Ok(7)));
        assert_eq!(registered(), 0);
        // Message already queued: nothing is ever registered.
        tx_a.send(1).unwrap();
        assert_eq!(select_once(), Some(Ok(1)));
        assert_eq!(registered(), 0);
        // Disconnect.
        drop(tx_a);
        assert_eq!(select_once(), Some(Err(RecvError)));
        assert_eq!(registered(), 0);
    }

    #[test]
    fn select_consuming_releases_a_blocked_bounded_sender() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).unwrap();
        let (done_tx, done_rx) = unbounded();
        let blocked = std::thread::spawn(move || {
            tx.send(2).unwrap(); // parks: the channel is full
            done_tx.send(()).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            done_rx.try_recv(),
            Err(TryRecvError::Empty),
            "sender parked"
        );
        let mut got = Vec::new();
        for _ in 0..2 {
            crate::select! {
                recv(rx) -> v => { got.push(v.unwrap()); }
                default(Duration::from_secs(10)) => {}
            }
        }
        assert_eq!(got, vec![1, 2]);
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(2)), Ok(()));
        blocked.join().unwrap();
    }
}
