//! Deterministic merge of multiple ordered batch streams.
//!
//! Each Paxos group produces a stream of batches with contiguous sequence
//! numbers starting at 1 (skip batches included). A [`MergedStream`] over
//! streams `S_1 < S_2 < … < S_m` (sorted by group id) delivers commands in
//! *rounds*: round `r` consists of every command of batch `r` of `S_1`,
//! then batch `r` of `S_2`, and so on. Because batch contents and sequence
//! numbers are agreed through consensus, **every subscriber of the same
//! stream set observes exactly the same interleaving** — the property that
//! keeps the worker threads `t_i` of different replicas consistent.
//!
//! This is the deterministic merge of Multi-Ring Paxos (reference 9 of the paper),
//! with the skip mechanism supplied by the deployment's one ordering
//! thread ([`psmr_paxos::runtime::LockstepGroups`]): every fire closes one
//! round on every group, so the merge never waits on a stream that has
//! fallen behind. Fires are demand-driven — the next round fires once the
//! previous one is decided everywhere, every merge took the one before it
//! (see [`MergedStream::with_progress`]) and a command is queued — and an idle
//! deployment closes one skip round per `skip_interval`, so a command
//! waits for one round to be decided, not for a timer.

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use psmr_common::ids::GroupId;
use psmr_common::runtime::{
    recv_timeout_via, ClockHandle, FifoScheduler, RealClock, SchedulePoint, Scheduler,
};
use psmr_paxos::runtime::DecidedBatch;
use psmr_recovery::StreamCut;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// A command handed out by the merge, tagged with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// The group whose stream carried the command.
    pub group: GroupId,
    /// Sequence number of the batch within the group's stream.
    pub batch_seq: u64,
    /// Position of the command inside its batch.
    pub offset: usize,
    /// The opaque command payload.
    pub payload: Bytes,
}

/// Deterministically merges one or more group streams into a single ordered
/// command sequence. See the [module docs](self) for the merge rule.
#[derive(Debug)]
pub struct MergedStream {
    /// Streams sorted by group id; the round-robin order.
    streams: Vec<(GroupId, Receiver<Arc<DecidedBatch>>)>,
    /// Index of the stream whose batch is consumed next.
    cursor: usize,
    /// Sequence number expected from the stream at `cursor`.
    round: u64,
    /// Commands of the current batch not yet handed out.
    ready: VecDeque<Delivered>,
    delivered: u64,
    skipped_batches: u64,
    /// When resuming from a checkpoint cut: commands of batch
    /// `(group, seq)` at offsets `<= offset` were already executed before
    /// the cut and must not be redelivered.
    resume_skip: Option<StreamCut>,
    /// Timebase of [`MergedStream::next_timeout`] deadlines — the
    /// deployment's injected clock, so a virtual-time test controls when
    /// worker polls expire.
    clock: ClockHandle,
    /// Schedule-point hook crossed for every command handed to this
    /// subscriber. Unlike the group-side fan-out point (which delays
    /// every replica equally), this one is **per subscriber**: an
    /// injected scheduler can skew one replica's worker against
    /// another's, which is where ordering bugs hide.
    sched: Arc<dyn Scheduler>,
    /// Doorbell of the deployment's ordering thread, rung each time this
    /// merge took a whole round (see [`MergedStream::with_progress`]).
    progress: Option<Sender<()>>,
}

impl MergedStream {
    /// Builds a merge over the given `(group, subscription)` pairs.
    ///
    /// The pairs are sorted by group id internally so that all subscribers
    /// of the same set of groups use the identical round-robin order.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or contains duplicate group ids.
    pub fn new(mut streams: Vec<(GroupId, Receiver<Arc<DecidedBatch>>)>) -> Self {
        assert!(
            !streams.is_empty(),
            "a merged stream needs at least one input"
        );
        streams.sort_by_key(|(g, _)| *g);
        for pair in streams.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "duplicate group in merge set");
        }
        Self {
            streams,
            cursor: 0,
            round: 1,
            ready: VecDeque::new(),
            delivered: 0,
            skipped_batches: 0,
            resume_skip: None,
            clock: Arc::new(RealClock),
            sched: Arc::new(FifoScheduler),
            progress: None,
        }
    }

    /// Replaces the timebase of [`MergedStream::next_timeout`] deadlines
    /// (the spawn paths pass the deployment's injected clock through
    /// here).
    pub fn with_clock(mut self, clock: ClockHandle) -> Self {
        self.clock = clock;
        self
    }

    /// Installs the scheduler whose [`SchedulePoint::Delivered`] hook is
    /// crossed before each command is handed to this subscriber (the
    /// spawn paths pass the deployment's injected scheduler through
    /// here; production keeps the no-op FIFO scheduler).
    pub fn with_sched(mut self, sched: Arc<dyn Scheduler>) -> Self {
        self.sched = sched;
        self
    }

    /// Rings `doorbell` (a `bounded(1)` channel; rings merge) each time
    /// this merge took a round's batch out of every one of its delivery
    /// rings. An ordering thread that holds the next round while
    /// consumers are behind parks on it; a batch taken mid-round cannot
    /// release that round, so it does not ring.
    pub fn with_progress(mut self, doorbell: Sender<()>) -> Self {
        self.progress = Some(doorbell);
        self
    }

    /// Builds a merge that **resumes** right after the command at `cut`
    /// (a checkpoint's position in the serialized stream).
    ///
    /// The caller must have created the subscriptions at the matching
    /// sequence numbers: the cut's own stream (and any stream sorting
    /// after it) from `cut.seq`, every stream sorting before it from
    /// `cut.seq + 1` — exactly what the deterministic merge had consumed
    /// when the cut command was delivered. Commands of the cut batch at
    /// offsets `<= cut.offset` are suppressed (they executed before the
    /// snapshot was taken).
    ///
    /// # Panics
    ///
    /// Panics on an empty or duplicate-group stream set, or when the cut
    /// group is not part of the set.
    pub fn resume(
        mut streams: Vec<(GroupId, Receiver<Arc<DecidedBatch>>)>,
        cut: StreamCut,
    ) -> Self {
        assert!(
            !streams.is_empty(),
            "a merged stream needs at least one input"
        );
        streams.sort_by_key(|(g, _)| *g);
        for pair in streams.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "duplicate group in merge set");
        }
        let cursor = streams
            .iter()
            .position(|(g, _)| *g == cut.group)
            .expect("cut group must be part of the merge set");
        Self {
            streams,
            cursor,
            round: cut.seq,
            ready: VecDeque::new(),
            delivered: 0,
            skipped_batches: 0,
            resume_skip: Some(cut),
            clock: Arc::new(RealClock),
            sched: Arc::new(FifoScheduler),
            progress: None,
        }
    }

    /// Crosses the per-subscriber delivery schedule point and hands the
    /// command out.
    fn hand_out(&mut self, cmd: Delivered) -> Delivered {
        self.delivered += 1;
        self.sched.reach(SchedulePoint::Delivered {
            group: cmd.group.as_raw() as u64,
            seq: cmd.batch_seq,
        });
        cmd
    }

    /// Queues the commands of `batch` (arriving from stream `group`),
    /// honouring a pending resume cut, and advances the round-robin.
    fn admit(&mut self, group: GroupId, batch: &DecidedBatch) {
        if batch.is_skip() {
            self.skipped_batches += 1;
        }
        let min_offset = match self.resume_skip {
            Some(cut) if cut.group == group && cut.seq == batch.seq => {
                self.resume_skip = None;
                cut.offset + 1
            }
            _ => 0,
        };
        for (offset, payload) in batch.commands.iter().enumerate().skip(min_offset) {
            self.ready.push_back(Delivered {
                group,
                batch_seq: batch.seq,
                offset,
                payload: payload.clone(),
            });
        }
        self.cursor += 1;
        if self.cursor == self.streams.len() {
            self.cursor = 0;
            self.round += 1;
            if let Some(doorbell) = &self.progress {
                let _ = doorbell.try_send(());
            }
        }
    }

    /// The groups this merge consumes, in round-robin order.
    pub fn groups(&self) -> Vec<GroupId> {
        self.streams.iter().map(|(g, _)| *g).collect()
    }

    /// Total commands delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Total skip (empty) batches consumed so far.
    pub fn skipped_batches(&self) -> u64 {
        self.skipped_batches
    }

    /// Hands out the commands of the current batch not yet handed out, in
    /// order, each crossing the [`SchedulePoint::Delivered`] point as the
    /// iterator reaches it. Never blocks: a batch is queued whole, so
    /// after a command of a decided batch this is the rest of that batch
    /// — for a `g_all` batch the same contiguous run in every
    /// subscriber's stream.
    pub fn rest_of_batch(&mut self) -> impl Iterator<Item = Delivered> + '_ {
        std::iter::from_fn(move || {
            let cmd = self.ready.pop_front()?;
            Some(self.hand_out(cmd))
        })
    }

    /// Blocks until the next command is available.
    ///
    /// Returns `None` when any input stream disconnects (system shutdown).
    // Deliberately not `Iterator`: iteration would hide the blocking
    // semantics, and the engines use `next_timeout` anyway.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Delivered> {
        loop {
            if let Some(cmd) = self.ready.pop_front() {
                return Some(self.hand_out(cmd));
            }
            let (group, rx) = &self.streams[self.cursor];
            let batch = rx.recv().ok()?;
            debug_assert_eq!(
                batch.seq, self.round,
                "stream {group} delivered batch out of order"
            );
            let group = *group;
            self.admit(group, &batch);
        }
    }

    /// Like [`MergedStream::next`] but gives up after `timeout` with
    /// `Ok(None)` — the polling variant replica workers use so a crash
    /// flag can interrupt an idle stream.
    ///
    /// The timeout bounds the **total** wait, not the per-batch wait: on a
    /// round-paced deployment idle skip batches keep arriving even with
    /// zero traffic, and a per-receive timeout would never fire — leaving
    /// crashed workers blocked here indefinitely.
    pub fn next_timeout(&mut self, timeout: Duration) -> Result<Option<Delivered>, Disconnected> {
        let deadline = self.clock.now() + timeout;
        loop {
            if let Some(cmd) = self.ready.pop_front() {
                return Ok(Some(self.hand_out(cmd)));
            }
            let remaining = deadline.saturating_duration_since(self.clock.now());
            if remaining.is_zero() {
                return Ok(None);
            }
            let (group, rx) = &self.streams[self.cursor];
            match recv_timeout_via(&*self.clock, rx, remaining) {
                Ok(batch) => {
                    debug_assert_eq!(
                        batch.seq, self.round,
                        "stream {group} delivered batch out of order"
                    );
                    let group = *group;
                    self.admit(group, &batch);
                }
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(Disconnected),
            }
        }
    }

    /// Non-blocking variant of [`MergedStream::next`]: returns `Ok(None)`
    /// when no command is currently deliverable, and `Err(())` on
    /// disconnect.
    pub fn try_next(&mut self) -> Result<Option<Delivered>, Disconnected> {
        loop {
            if let Some(cmd) = self.ready.pop_front() {
                return Ok(Some(self.hand_out(cmd)));
            }
            let (group, rx) = &self.streams[self.cursor];
            match rx.try_recv() {
                Ok(batch) => {
                    debug_assert_eq!(
                        batch.seq, self.round,
                        "stream {group} delivered batch out of order"
                    );
                    let group = *group;
                    self.admit(group, &batch);
                }
                Err(crossbeam::channel::TryRecvError::Empty) => return Ok(None),
                Err(crossbeam::channel::TryRecvError::Disconnected) => return Err(Disconnected),
            }
        }
    }
}

/// Error returned by [`MergedStream::try_next`] when an input stream's
/// group has shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "merged stream input disconnected")
    }
}

impl std::error::Error for Disconnected {}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn batch(seq: u64, cmds: &[&str]) -> Arc<DecidedBatch> {
        Arc::new(DecidedBatch {
            seq,
            commands: Arc::new(
                cmds.iter()
                    .map(|c| Bytes::copy_from_slice(c.as_bytes()))
                    .collect(),
            ),
        })
    }

    fn payloads(stream: &mut MergedStream, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let d = stream.next().expect("command available");
                String::from_utf8(d.payload.to_vec()).expect("utf8")
            })
            .collect()
    }

    #[test]
    fn single_stream_passes_through_in_order() {
        let (tx, rx) = unbounded();
        let mut m = MergedStream::new(vec![(GroupId::new(0), rx)]);
        tx.send(batch(1, &["a", "b"])).unwrap();
        tx.send(batch(2, &["c"])).unwrap();
        assert_eq!(payloads(&mut m, 3), vec!["a", "b", "c"]);
        assert_eq!(m.delivered_count(), 3);
    }

    #[test]
    fn two_streams_interleave_round_robin() {
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let mut m = MergedStream::new(vec![(GroupId::new(0), rx0), (GroupId::new(1), rx1)]);
        tx0.send(batch(1, &["a1"])).unwrap();
        tx1.send(batch(1, &["b1"])).unwrap();
        tx0.send(batch(2, &["a2"])).unwrap();
        tx1.send(batch(2, &["b2"])).unwrap();
        assert_eq!(payloads(&mut m, 4), vec!["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn merge_order_is_independent_of_construction_order() {
        let make = |flip: bool| {
            let (tx0, rx0) = unbounded();
            let (tx1, rx1) = unbounded();
            let inputs = if flip {
                vec![(GroupId::new(1), rx1), (GroupId::new(0), rx0)]
            } else {
                vec![(GroupId::new(0), rx0), (GroupId::new(1), rx1)]
            };
            let mut m = MergedStream::new(inputs);
            tx0.send(batch(1, &["x"])).unwrap();
            tx1.send(batch(1, &["y"])).unwrap();
            payloads(&mut m, 2)
        };
        assert_eq!(make(false), make(true), "sorted by group id either way");
    }

    #[test]
    fn skip_batches_advance_the_round_without_delivering() {
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let mut m = MergedStream::new(vec![(GroupId::new(0), rx0), (GroupId::new(1), rx1)]);
        // Stream 1 is idle: only skips.
        tx0.send(batch(1, &["a1"])).unwrap();
        tx1.send(batch(1, &[])).unwrap();
        tx0.send(batch(2, &["a2"])).unwrap();
        tx1.send(batch(2, &[])).unwrap();
        assert_eq!(payloads(&mut m, 2), vec!["a1", "a2"]);
        // The round-2 skip of stream 1 is consumed on the next poll.
        assert_eq!(m.try_next(), Ok(None));
        assert_eq!(m.skipped_batches(), 2);
    }

    #[test]
    fn merge_blocks_on_lagging_stream() {
        // Without stream 1's batch for the round, its commands must not be
        // overtaken by stream 0's next round.
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let mut m = MergedStream::new(vec![(GroupId::new(0), rx0), (GroupId::new(1), rx1)]);
        tx0.send(batch(1, &["a1"])).unwrap();
        tx0.send(batch(2, &["a2"])).unwrap();
        assert_eq!(payloads(&mut m, 1), vec!["a1"]);
        assert_eq!(m.try_next(), Ok(None), "round 1 of stream 1 missing");
        tx1.send(batch(1, &["b1"])).unwrap();
        assert_eq!(payloads(&mut m, 2), vec!["b1", "a2"]);
    }

    #[test]
    fn rest_of_batch_is_the_run_after_the_handed_out_command() {
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let mut m = MergedStream::new(vec![(GroupId::new(0), rx0), (GroupId::new(1), rx1)]);
        tx0.send(batch(1, &["a1"])).unwrap();
        tx1.send(batch(1, &["b1", "b2", "b3"])).unwrap();
        tx0.send(batch(2, &["a2"])).unwrap();
        assert_eq!(payloads(&mut m, 1), vec!["a1"]);
        assert_eq!(m.rest_of_batch().count(), 0, "a1 ends its batch");
        let first = m.next().unwrap();
        assert_eq!((first.group, first.offset), (GroupId::new(1), 0));
        let rest: Vec<(u64, usize)> = m.rest_of_batch().map(|d| (d.batch_seq, d.offset)).collect();
        assert_eq!(rest, vec![(1, 1), (1, 2)], "never crosses into round 2");
        assert_eq!(m.delivered_count(), 4, "every command is handed out");
        assert_eq!(payloads(&mut m, 1), vec!["a2"]);
    }

    #[test]
    fn try_next_reports_disconnect() {
        let (tx, rx) = unbounded();
        let mut m = MergedStream::new(vec![(GroupId::new(0), rx)]);
        drop(tx);
        assert_eq!(m.try_next(), Err(Disconnected));
        assert!(Disconnected.to_string().contains("disconnected"));
    }

    #[test]
    fn next_returns_none_on_disconnect() {
        let (tx, rx) = unbounded();
        let mut m = MergedStream::new(vec![(GroupId::new(0), rx)]);
        tx.send(batch(1, &["last"])).unwrap();
        drop(tx);
        assert_eq!(payloads(&mut m, 1), vec!["last"]);
        assert!(m.next().is_none());
    }

    #[test]
    fn provenance_fields_are_filled() {
        let (tx, rx) = unbounded();
        let mut m = MergedStream::new(vec![(GroupId::new(7), rx)]);
        tx.send(batch(1, &["a", "b"])).unwrap();
        let d0 = m.next().unwrap();
        let d1 = m.next().unwrap();
        assert_eq!((d0.group, d0.batch_seq, d0.offset), (GroupId::new(7), 1, 0));
        assert_eq!((d1.group, d1.batch_seq, d1.offset), (GroupId::new(7), 1, 1));
    }

    #[test]
    fn resume_skips_through_the_cut_and_keeps_round_robin() {
        // Original stream layout: g0 (per-worker) and g2 (serialized).
        // The checkpoint sat at g2 batch 2, offset 1: everything up to and
        // including it already executed. The resumed merge must deliver
        // g2 batch 2 offset 2, then g0 batch 3, g2 batch 3, ...
        let (tx0, rx0) = unbounded();
        let (tx2, rx2) = unbounded();
        let cut = psmr_recovery::StreamCut {
            group: GroupId::new(2),
            seq: 2,
            offset: 1,
        };
        let mut m = MergedStream::resume(vec![(GroupId::new(0), rx0), (GroupId::new(2), rx2)], cut);
        // The caller replays g2 from seq 2 and g0 from seq 3.
        tx2.send(batch(2, &["ckpt-1", "CKPT", "after-ckpt"]))
            .unwrap();
        tx0.send(batch(3, &["a3"])).unwrap();
        tx2.send(batch(3, &["b3"])).unwrap();
        assert_eq!(payloads(&mut m, 3), vec!["after-ckpt", "a3", "b3"]);
        let d = m.try_next();
        assert_eq!(d, Ok(None));
    }

    #[test]
    fn resume_offsets_stay_original() {
        let (tx, rx) = unbounded();
        let cut = psmr_recovery::StreamCut {
            group: GroupId::new(0),
            seq: 5,
            offset: 0,
        };
        let mut m = MergedStream::resume(vec![(GroupId::new(0), rx)], cut);
        tx.send(batch(5, &["skipped", "x", "y"])).unwrap();
        let d = m.next().unwrap();
        assert_eq!((d.batch_seq, d.offset), (5, 1), "offsets keep provenance");
        let d = m.next().unwrap();
        assert_eq!((d.batch_seq, d.offset), (5, 2));
    }

    #[test]
    fn next_timeout_times_out_and_delivers() {
        let (tx, rx) = unbounded();
        let mut m = MergedStream::new(vec![(GroupId::new(0), rx)]);
        assert_eq!(
            m.next_timeout(std::time::Duration::from_millis(5)),
            Ok(None)
        );
        tx.send(batch(1, &["a"])).unwrap();
        let d = m
            .next_timeout(std::time::Duration::from_secs(1))
            .unwrap()
            .expect("delivered");
        assert_eq!(&d.payload[..], b"a");
        drop(tx);
        assert_eq!(
            m.next_timeout(std::time::Duration::from_millis(5)),
            Err(Disconnected)
        );
    }

    #[test]
    #[should_panic(expected = "cut group must be part")]
    fn resume_requires_the_cut_group() {
        let (_tx, rx) = unbounded();
        let cut = psmr_recovery::StreamCut {
            group: GroupId::new(9),
            seq: 1,
            offset: 0,
        };
        let _ = MergedStream::resume(vec![(GroupId::new(0), rx)], cut);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_merge_set_rejected() {
        let _ = MergedStream::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "duplicate group")]
    fn duplicate_groups_rejected() {
        let (_tx0, rx0) = unbounded();
        let (_tx1, rx1) = unbounded();
        let _ = MergedStream::new(vec![(GroupId::new(0), rx0), (GroupId::new(0), rx1)]);
    }
}
