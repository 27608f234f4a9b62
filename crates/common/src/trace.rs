//! Sampled command-lifecycle tracing.
//!
//! The pipelined hot path crosses many threads — coordinator batching,
//! consensus, WAL append, fan-out, execution, fsync, response release —
//! and an end-to-end latency histogram alone cannot localize a regression
//! to a stage. This module stamps a **sampled** subset of decided batches
//! (1-in-N, [`TraceRecorder::set_sample`], the `trace_sample` config knob,
//! chosen by a hash of the batch sequence so the sample never falls in
//! step with a periodic cost such as the fsync of every `wal_batch`-th
//! append) at each well-defined [`Stage`] and folds completed lifecycles into
//! per-stage latency [`Histogram`]s, so one [`TraceReport`] answers
//! "where does the time go?".
//!
//! Stamping is wait-free: a fixed open-addressed table of atomic slots,
//! claimed on the first stamp ([`Stage::Submitted`]) and finalized on the
//! last ([`Stage::Released`]). When the table is contended a trace is
//! dropped (counted, never waited out), and an unclaimed trace makes every
//! later stamp a no-op — tracing never blocks the hot path.
//!
//! The first [`CHAIN_INTERVALS`] intervals telescope: submitted → ordered
//! → WAL-appended → delivered → execute-start → executed → released. Only
//! lifecycles carrying **every** chain stamp are folded in, so the chain
//! means sum exactly to the traced `end_to_end` mean — no unattributed
//! time. `appended_to_durable` (pipelined WAL only) and
//! `delivered_to_synced` (P-SMR's synchronous mode only) overlap the
//! chain and are reported separately.

//!
//! In multi-process deployments the chain **spans processes**: the
//! ordering side exports the ages of its `Submitted`/`Ordered`/
//! `WalAppended` stamps as a [`ChainPrefix`] (carried inside the relay
//! envelope), and the executing side re-anchors them onto its own clock
//! with [`TraceRecorder::adopt_prefix`] before stamping
//! `Delivered`/`ExecStart`/`Executed`/`Released` locally — so a
//! follower's report attributes the full end-to-end path, network hop
//! included (transit lands in `appended_to_delivered`).

use crate::metrics::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Lifecycle stages a sampled batch is stamped at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The first command of the batch entered its group's submit queue.
    Submitted = 0,
    /// The batch was decided by consensus and entered delivery.
    Ordered = 1,
    /// The batch was appended to its group's WAL (deployments without a
    /// WAL stamp this immediately after ordering, so the chain closes).
    WalAppended = 2,
    /// A replica worker received the batch from its delivery stream.
    Delivered = 3,
    /// Execution of the batch's first command began.
    ExecStart = 4,
    /// Execution of the batch's first command finished.
    Executed = 5,
    /// A covering `fsync` made the batch durable (pipelined WAL only).
    FsyncDurable = 6,
    /// The first response for the batch was accepted by the issuing
    /// client's proxy — the lifecycle ends where the client observes it.
    Released = 7,
    /// The executor of a `g_all` run finished waiting for every worker of
    /// its replica (P-SMR's synchronous mode only): `Delivered` →
    /// `Synced` is the barrier wait inside `delivered_to_exec`.
    Synced = 8,
}

const N_STAGES: usize = 9;

/// Names of the aggregated intervals, in [`TraceReport`] order. The first
/// [`CHAIN_INTERVALS`] telescope from `Submitted` to `Released`.
pub const INTERVAL_NAMES: [&str; 9] = [
    "submit_to_ordered",
    "ordered_to_appended",
    "appended_to_delivered",
    "delivered_to_exec",
    "exec",
    "executed_to_released",
    "appended_to_durable",
    "delivered_to_synced",
    "end_to_end",
];

/// How many of [`INTERVAL_NAMES`] form the telescoping chain whose means
/// sum to the `end_to_end` mean.
pub const CHAIN_INTERVALS: usize = 6;

/// The chain stamps in lifecycle order; adjacent pairs bound the first
/// [`CHAIN_INTERVALS`] intervals.
const CHAIN: [Stage; 7] = [
    Stage::Submitted,
    Stage::Ordered,
    Stage::WalAppended,
    Stage::Delivered,
    Stage::ExecStart,
    Stage::Executed,
    Stage::Released,
];

const SLOTS: usize = 1024;
const PROBES: usize = 8;
/// Slot-key sentinel held while one thread folds a finished lifecycle;
/// late stamps see neither `0` nor their key and become no-ops.
const FINALIZING: u64 = u64::MAX;
const SEQ_MASK: u64 = (1 << 48) - 1;

#[derive(Debug)]
struct Slot {
    key: AtomicU64,
    stamps: [AtomicU64; N_STAGES],
}

impl Slot {
    fn new() -> Self {
        Self {
            key: AtomicU64::new(0),
            stamps: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A wait-free recorder of sampled batch lifecycles.
///
/// Instrumented components stamp the process-wide [`global`] recorder;
/// tests and harnesses may hold their own instance.
#[derive(Debug)]
pub struct TraceRecorder {
    epoch: Instant,
    sample: AtomicU64,
    slots: Vec<Slot>,
    intervals: [Histogram; INTERVAL_NAMES.len()],
    traced: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRecorder {
    /// Creates a recorder with sampling **off** (`sample == 0`). The
    /// multicast substrate enables it at spawn from the deployment's
    /// `trace_sample` knob.
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(SLOTS);
        slots.resize_with(SLOTS, Slot::new);
        Self {
            epoch: Instant::now(),
            sample: AtomicU64::new(0),
            slots,
            intervals: std::array::from_fn(|_| Histogram::new()),
            traced: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Sets the sampling rate: one batch sequence in N per group is
    /// traced (see [`TraceRecorder::sampled`]); `0` disables tracing
    /// entirely.
    pub fn set_sample(&self, n: u64) {
        self.sample.store(n, Ordering::Relaxed);
    }

    /// The current sampling rate (`0` = off).
    pub fn sample(&self) -> u64 {
        self.sample.load(Ordering::Relaxed)
    }

    /// Whether batch sequence `seq` is in the sample: one in N, chosen
    /// by a mixed hash of `seq` rather than `seq % N`, so the sample does
    /// not alias with costs that recur every k-th batch. The choice is a
    /// pure function of `seq`, so every process samples the same batches
    /// and cross-process chains meet.
    pub fn sampled(&self, seq: u64) -> bool {
        let n = self.sample.load(Ordering::Relaxed);
        n != 0 && mix(seq).is_multiple_of(n)
    }

    fn key(group: usize, seq: u64) -> u64 {
        ((group as u64 + 1) << 48) | (seq & SEQ_MASK)
    }

    fn index(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize % SLOTS
    }

    /// Nanoseconds since the recorder's epoch, offset by one so `0`
    /// always means "not stamped".
    fn stamp_ns(&self, at: Instant) -> u64 {
        let ns = at.saturating_duration_since(self.epoch).as_nanos();
        ns.min(u128::from(u64::MAX - 1)) as u64 + 1
    }

    /// Stamps `stage` for batch `(group, seq)` at the current instant.
    /// A no-op unless `seq` is sampled and (for stages after
    /// [`Stage::Submitted`]) the lifecycle was successfully claimed.
    pub fn stamp(&self, group: usize, seq: u64, stage: Stage) {
        self.stamp_at(group, seq, stage, Instant::now());
    }

    /// Like [`TraceRecorder::stamp`] with an explicit timestamp — used
    /// where the event time precedes the stamping point (a coordinator
    /// stamps `Submitted` with the instant the batch *opened*).
    pub fn stamp_at(&self, group: usize, seq: u64, stage: Stage, at: Instant) {
        if !self.sampled(seq) {
            return;
        }
        let key = Self::key(group, seq);
        let slot = if stage == Stage::Submitted {
            self.claim(key)
        } else {
            self.lookup(key)
        };
        if let Some(slot) = slot {
            self.stamp_slot(slot, key, stage, self.stamp_ns(at));
        }
    }

    /// Writes stage time `t` into `slot`, found for lifecycle `key`.
    fn stamp_slot(&self, slot: &Slot, key: u64, stage: Stage, t: u64) {
        // First stamp wins: a batch carries many commands and the first
        // one through each stage defines the batch's stage time.
        let stamp = &slot.stamps[stage as usize];
        if stamp
            .compare_exchange(0, t, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        // A late stamper (the second replica's worker) can find the slot
        // just before its lifecycle is finalized and write after the
        // clear. Its stamp would then open the slot's *next* lifecycle
        // with a time from this one, and that chain would stop summing:
        // take it back once the key has moved on.
        if slot.key.load(Ordering::Acquire) != key {
            let _ = stamp.compare_exchange(t, 0, Ordering::AcqRel, Ordering::Relaxed);
            return;
        }
        if stage == Stage::Released {
            self.finalize(slot, key);
        }
    }

    /// Stamps [`Stage::FsyncDurable`] for every sampled sequence in
    /// `(after, upto]` — the range one covering `fsync` just made
    /// durable. Called by the WAL sync thread before it publishes the
    /// new watermark, so the stamp always precedes the release.
    pub fn stamp_durable_range(&self, group: usize, after: u64, upto: u64) {
        if self.sample() == 0 || upto == u64::MAX {
            return;
        }
        let now = Instant::now();
        for seq in after.saturating_add(1)..=upto {
            self.stamp_at(group, seq, Stage::FsyncDurable, now);
        }
    }

    fn claim(&self, key: u64) -> Option<&Slot> {
        let h = Self::index(key);
        for i in 0..PROBES {
            let slot = &self.slots[(h + i) % SLOTS];
            match slot
                .key
                .compare_exchange(0, key, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return Some(slot),
                Err(cur) if cur == key => return Some(slot),
                Err(_) => continue,
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn lookup(&self, key: u64) -> Option<&Slot> {
        let h = Self::index(key);
        for i in 0..PROBES {
            let slot = &self.slots[(h + i) % SLOTS];
            if slot.key.load(Ordering::Acquire) == key {
                return Some(slot);
            }
        }
        None
    }

    /// Folds a finished lifecycle into the interval histograms and frees
    /// its slot. Exactly one thread gets past the `FINALIZING` swap.
    fn finalize(&self, slot: &Slot, key: u64) {
        if slot
            .key
            .compare_exchange(key, FINALIZING, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let mut st = [0u64; N_STAGES];
        for (i, s) in slot.stamps.iter().enumerate() {
            st[i] = s.load(Ordering::Acquire);
        }
        // Only complete chains are folded in: every chain interval then
        // aggregates the same lifecycles, so their means telescope to
        // exactly the end_to_end mean.
        if CHAIN.iter().all(|s| st[*s as usize] != 0) {
            for (i, pair) in CHAIN.windows(2).enumerate() {
                let d = st[pair[1] as usize].saturating_sub(st[pair[0] as usize]);
                self.intervals[i].record(Duration::from_nanos(d));
            }
            let e2e = st[Stage::Released as usize].saturating_sub(st[Stage::Submitted as usize]);
            self.intervals[8].record(Duration::from_nanos(e2e));
            self.traced.fetch_add(1, Ordering::Relaxed);
        }
        // The off-chain intervals: each needs only its own two stamps.
        for (i, from, to) in [
            (6, Stage::WalAppended, Stage::FsyncDurable),
            (7, Stage::Delivered, Stage::Synced),
        ] {
            let (from, to) = (st[from as usize], st[to as usize]);
            if from != 0 && to != 0 {
                self.intervals[i].record(Duration::from_nanos(to.saturating_sub(from)));
            }
        }
        // Release pairs with a late stamper's compare-exchange: one that
        // reads a cleared stamp also sees the key off `key`.
        for s in slot.stamps.iter() {
            s.store(0, Ordering::Release);
        }
        slot.key.store(0, Ordering::Release);
    }

    /// Reads the origin-side prefix of lifecycle `(group, seq)` as ages
    /// relative to `now`, for propagation to another process. Returns
    /// `None` unless the sequence is sampled, its slot is live, and all
    /// three prefix stamps (`Submitted`, `Ordered`, `WalAppended`) are
    /// present — a prefix is only exported once it is complete.
    pub fn chain_prefix(&self, group: usize, seq: u64, now: Instant) -> Option<ChainPrefix> {
        if !self.sampled(seq) {
            return None;
        }
        let slot = self.lookup(Self::key(group, seq))?;
        let submitted = slot.stamps[Stage::Submitted as usize].load(Ordering::Acquire);
        let ordered = slot.stamps[Stage::Ordered as usize].load(Ordering::Acquire);
        let appended = slot.stamps[Stage::WalAppended as usize].load(Ordering::Acquire);
        if submitted == 0 || ordered == 0 || appended == 0 {
            return None;
        }
        Some(ChainPrefix {
            submitted_age_ns: self.stamp_ns(now).saturating_sub(submitted),
            submit_to_ordered_ns: ordered.saturating_sub(submitted),
            ordered_to_appended_ns: appended.saturating_sub(ordered),
        })
    }

    /// Re-anchors a [`ChainPrefix`] received from another process onto
    /// this recorder's clock: `Submitted` lands `submitted_age_ns`
    /// before `now` (the local receive instant), `Ordered` and
    /// `WalAppended` at their recorded offsets after it. Subsequent
    /// local `Delivered`/`ExecStart`/`Executed`/`Released` stamps then
    /// complete the chain, with the wire transit attributed to
    /// `appended_to_delivered`.
    pub fn adopt_prefix(&self, group: usize, seq: u64, prefix: &ChainPrefix, now: Instant) {
        let submitted = now
            .checked_sub(Duration::from_nanos(prefix.submitted_age_ns))
            .unwrap_or(now);
        let ordered = submitted + Duration::from_nanos(prefix.submit_to_ordered_ns);
        let appended = ordered + Duration::from_nanos(prefix.ordered_to_appended_ns);
        self.stamp_at(group, seq, Stage::Submitted, submitted);
        self.stamp_at(group, seq, Stage::Ordered, ordered);
        self.stamp_at(group, seq, Stage::WalAppended, appended);
    }

    /// Lifecycles folded into the chain intervals so far.
    pub fn traced(&self) -> u64 {
        self.traced.load(Ordering::Relaxed)
    }

    /// Sampled lifecycles dropped because the slot table was contended.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshots the aggregated per-stage statistics.
    pub fn report(&self) -> TraceReport {
        let intervals = INTERVAL_NAMES
            .iter()
            .zip(self.intervals.iter())
            .map(|(name, h)| IntervalStats {
                name,
                count: h.count(),
                mean: h.mean(),
                p50: h.percentile(50.0),
                p99: h.percentile(99.0),
                max: h.max(),
            })
            .collect();
        TraceReport {
            intervals,
            traced: self.traced(),
            dropped: self.dropped(),
        }
    }

    /// Clears every aggregate and every in-flight slot. Call between
    /// measured runs (with the pipeline quiesced) so a run's report only
    /// reflects its own lifecycles.
    pub fn reset(&self) {
        for h in &self.intervals {
            h.clear();
        }
        self.traced.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        for slot in &self.slots {
            for s in &slot.stamps {
                s.store(0, Ordering::Relaxed);
            }
            slot.key.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// The origin-side stamps of a lifecycle, expressed relative to the
/// moment the prefix was read ([`TraceRecorder::chain_prefix`]) so it
/// survives the hop between processes whose monotonic clocks share no
/// epoch. All three values are nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainPrefix {
    /// How long before the read instant `Submitted` was stamped.
    pub submitted_age_ns: u64,
    /// `Submitted` → `Ordered`.
    pub submit_to_ordered_ns: u64,
    /// `Ordered` → `WalAppended`.
    pub ordered_to_appended_ns: u64,
}

/// Aggregated statistics of one traced interval.
#[derive(Debug, Clone)]
pub struct IntervalStats {
    /// Interval name (see [`INTERVAL_NAMES`]).
    pub name: &'static str,
    /// Lifecycles folded into this interval.
    pub count: u64,
    /// Arithmetic mean (exact, not bucketed).
    pub mean: Duration,
    /// Median (log-bucketed, ~3% relative error).
    pub p50: Duration,
    /// 99th percentile (log-bucketed).
    pub p99: Duration,
    /// Largest observed value.
    pub max: Duration,
}

/// A snapshot of every aggregated interval plus the trace bookkeeping.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// One entry per [`INTERVAL_NAMES`] name, in that order.
    pub intervals: Vec<IntervalStats>,
    /// Complete lifecycles folded into the chain intervals.
    pub traced: u64,
    /// Sampled lifecycles dropped to slot-table contention.
    pub dropped: u64,
}

impl TraceReport {
    /// The statistics of interval `name`, if present.
    pub fn stat(&self, name: &str) -> Option<&IntervalStats> {
        self.intervals.iter().find(|s| s.name == name)
    }

    /// Sum of the chain-interval means — the traced end-to-end mean
    /// reconstructed stage by stage.
    pub fn chain_sum(&self) -> Duration {
        self.intervals
            .iter()
            .take(CHAIN_INTERVALS)
            .map(|s| s.mean)
            .sum()
    }

    /// Percentage of `measured_e2e` (e.g. a client-side mean latency)
    /// the chain accounts for. Returns `0.0` when `measured_e2e` is
    /// zero or nothing was traced.
    pub fn attributed_pct(&self, measured_e2e: Duration) -> f64 {
        if measured_e2e.is_zero() || self.traced == 0 {
            return 0.0;
        }
        self.chain_sum().as_secs_f64() / measured_e2e.as_secs_f64() * 100.0
    }
}

/// The splitmix64 finalizer: spreads consecutive sequence numbers over
/// the whole `u64` range, so `mix(seq) % n` picks one in `n` with no
/// period of its own.
fn mix(seq: u64) -> u64 {
    let mut z = seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The process-wide recorder every instrumented stage stamps into.
pub fn global() -> &'static TraceRecorder {
    static GLOBAL: OnceLock<TraceRecorder> = OnceLock::new();
    GLOBAL.get_or_init(TraceRecorder::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_chain(rec: &TraceRecorder, group: usize, seq: u64, t0: Instant) {
        let step = Duration::from_millis(1);
        for (i, stage) in CHAIN.iter().enumerate() {
            rec.stamp_at(group, seq, *stage, t0 + step * i as u32);
        }
    }

    #[test]
    fn disabled_recorder_ignores_stamps() {
        let rec = TraceRecorder::new();
        assert_eq!(rec.sample(), 0);
        full_chain(&rec, 0, 0, Instant::now());
        let report = rec.report();
        assert_eq!(report.traced, 0);
        assert!(report.intervals.iter().all(|s| s.count == 0));
    }

    /// Sampled sequences in `1..=upto`.
    fn sampled_seqs(rec: &TraceRecorder, upto: u64) -> Vec<u64> {
        (1..=upto).filter(|s| rec.sampled(*s)).collect()
    }

    #[test]
    fn sampling_selects_one_in_n_by_seq_hash() {
        let rec = TraceRecorder::new();
        rec.set_sample(4);
        let picked = sampled_seqs(&rec, 40_000).len();
        assert!(
            (9_000..11_000).contains(&picked),
            "{picked} of 40000 at 1/4"
        );
        // A pure function of the sequence: every process agrees.
        let again = TraceRecorder::new();
        again.set_sample(4);
        assert_eq!(sampled_seqs(&rec, 1_000), sampled_seqs(&again, 1_000));
        rec.set_sample(1);
        assert!((0..100).all(|s| rec.sampled(s)));
        rec.set_sample(0);
        assert!(!(0..100).any(|s| rec.sampled(s)));
    }

    /// With `trace_sample` 32 a multiple of `wal_batch` 16, a `seq % n`
    /// sample would pick only fsync batches. Under a cost that recurs
    /// every 16th sequence, the sample's mean must stay within 10 % of the
    /// population mean.
    #[test]
    fn sampled_mean_tracks_the_population_under_a_periodic_cost() {
        let cost = |seq: u64| {
            if seq.is_multiple_of(16) {
                1_000.0
            } else {
                10.0
            }
        };
        let population = (15.0 * 10.0 + 1_000.0) / 16.0;
        let rec = TraceRecorder::new();
        for n in [16, 32, 64] {
            rec.set_sample(n);
            let picked = sampled_seqs(&rec, 1_000_000);
            let mean = picked.iter().map(|s| cost(*s)).sum::<f64>() / picked.len() as f64;
            assert!(
                (mean - population).abs() < 0.1 * population,
                "1/{n}: sampled mean {mean:.1} vs population {population:.1}"
            );
        }
    }

    #[test]
    fn complete_chain_telescopes_exactly() {
        let rec = TraceRecorder::new();
        rec.set_sample(1);
        let t0 = Instant::now();
        full_chain(&rec, 2, 7, t0);
        let report = rec.report();
        assert_eq!(report.traced, 1);
        for stat in report.intervals.iter().take(CHAIN_INTERVALS) {
            assert_eq!(stat.count, 1, "{} must have one sample", stat.name);
        }
        let e2e = report.stat("end_to_end").expect("e2e").mean;
        // Means are exact (total/count), so the telescoped sum matches
        // end-to-end to the nanosecond.
        assert_eq!(report.chain_sum(), e2e);
        assert!((report.attributed_pct(e2e) - 100.0).abs() < 1e-9);
        // Finalize freed the slot: the aggregates survive, the slot is
        // reusable for the same key.
        full_chain(&rec, 2, 7, t0);
        assert_eq!(rec.report().traced, 2);
    }

    #[test]
    fn incomplete_chain_is_not_folded() {
        let rec = TraceRecorder::new();
        rec.set_sample(1);
        let t0 = Instant::now();
        rec.stamp_at(0, 3, Stage::Submitted, t0);
        rec.stamp_at(0, 3, Stage::Ordered, t0 + Duration::from_millis(1));
        // No WalAppended/Delivered/Exec* stamps: released closes the
        // lifecycle but nothing is attributed.
        rec.stamp_at(0, 3, Stage::Released, t0 + Duration::from_millis(2));
        let report = rec.report();
        assert_eq!(report.traced, 0);
        assert_eq!(report.stat("end_to_end").expect("e2e").count, 0);
    }

    #[test]
    fn first_stamp_wins_within_a_batch() {
        let rec = TraceRecorder::new();
        rec.set_sample(1);
        let t0 = Instant::now();
        rec.stamp_at(1, 0, Stage::Submitted, t0);
        // A second command of the same batch re-stamps later: ignored.
        rec.stamp_at(1, 0, Stage::Submitted, t0 + Duration::from_millis(50));
        for (i, stage) in CHAIN.iter().enumerate().skip(1) {
            rec.stamp_at(1, 0, *stage, t0 + Duration::from_millis(i as u64));
        }
        let e2e = rec.report().stat("end_to_end").expect("e2e").mean;
        assert!(
            e2e >= Duration::from_millis(5),
            "e2e measured from the first Submitted stamp, got {e2e:?}"
        );
    }

    #[test]
    fn durable_range_stamps_only_sampled_sequences() {
        let rec = TraceRecorder::new();
        rec.set_sample(4);
        let t0 = Instant::now();
        // Open lifecycles for every seq up to 40 with an appended stamp;
        // only the sampled ones claim a slot.
        for seq in 1..=40u64 {
            rec.stamp_at(0, seq, Stage::Submitted, t0);
            rec.stamp_at(0, seq, Stage::WalAppended, t0 + Duration::from_millis(1));
        }
        // One fsync covers (5, 30]: each sampled seq inside is stamped.
        rec.stamp_durable_range(0, 5, 30);
        for seq in 1..=40u64 {
            rec.stamp(0, seq, Stage::Released);
        }
        let covered = sampled_seqs(&rec, 40)
            .into_iter()
            .filter(|s| (6..=30).contains(s))
            .count() as u64;
        assert!(covered > 0, "the range holds a sampled seq");
        let report = rec.report();
        assert_eq!(
            report.stat("appended_to_durable").expect("a2d").count,
            covered
        );
        // Chain incomplete (no Delivered/Exec stamps): not traced.
        assert_eq!(report.traced, 0);
    }

    #[test]
    fn synced_splits_the_barrier_wait_off_the_chain() {
        let rec = TraceRecorder::new();
        rec.set_sample(1);
        let t0 = Instant::now();
        let step = Duration::from_millis(1);
        for (i, stage) in CHAIN.iter().enumerate() {
            rec.stamp_at(3, 4, *stage, t0 + step * i as u32);
        }
        // Untouched: a lifecycle without a Synced stamp (a g_i batch).
        assert_eq!(rec.report().stat("delivered_to_synced").unwrap().count, 0);
        // Delivered is CHAIN[3]; the executor synced 300 µs later, before
        // the Released stamp closes the lifecycle.
        for (i, stage) in CHAIN[..CHAIN.len() - 1].iter().enumerate() {
            rec.stamp_at(3, 5, *stage, t0 + step * i as u32);
        }
        rec.stamp_at(3, 5, Stage::Synced, t0 + step * 3 + step * 3 / 10);
        rec.stamp_at(3, 5, Stage::Released, t0 + step * 6);
        let report = rec.report();
        let synced = report.stat("delivered_to_synced").expect("interval");
        assert_eq!(synced.count, 1);
        assert_eq!(synced.mean, Duration::from_micros(300));
        assert_eq!(report.traced, 2, "the chain is unchanged");
        assert_eq!(report.chain_sum(), report.stat("end_to_end").unwrap().mean);
    }

    #[test]
    fn a_stamp_landing_after_finalize_does_not_leak_into_the_next_lifecycle() {
        let rec = TraceRecorder::new();
        rec.set_sample(1);
        let t0 = Instant::now();
        for stage in &CHAIN[..CHAIN.len() - 1] {
            rec.stamp_at(0, 9, *stage, t0);
        }
        // The second replica's worker found the slot, then stalled while
        // the client's Released stamp finalized and cleared it.
        let key = TraceRecorder::key(0, 9);
        let stale = rec.lookup(key).expect("live slot");
        rec.stamp_at(0, 9, Stage::Released, t0 + Duration::from_millis(1));
        assert_eq!(rec.report().traced, 1);
        rec.stamp_slot(stale, key, Stage::Executed, rec.stamp_ns(t0));
        assert!(
            stale.stamps.iter().all(|s| s.load(Ordering::Relaxed) == 0),
            "the late stamp was taken back"
        );
    }

    #[test]
    fn contended_table_drops_instead_of_blocking() {
        let rec = TraceRecorder::new();
        rec.set_sample(1);
        // Claim more lifecycles than the table holds without releasing.
        for seq in 0..(SLOTS as u64 + 64) {
            rec.stamp(0, seq, Stage::Submitted);
        }
        assert!(rec.dropped() > 0, "overflow must drop, not wedge");
    }

    #[test]
    fn reset_clears_aggregates_and_slots() {
        let rec = TraceRecorder::new();
        rec.set_sample(1);
        full_chain(&rec, 0, 0, Instant::now());
        rec.stamp(0, 1, Stage::Submitted); // left in flight
        assert_eq!(rec.report().traced, 1);
        rec.reset();
        let report = rec.report();
        assert_eq!(report.traced, 0);
        assert!(report.intervals.iter().all(|s| s.count == 0));
        // The in-flight slot was wiped: a fresh lifecycle works.
        full_chain(&rec, 0, 1, Instant::now());
        assert_eq!(rec.report().traced, 1);
    }

    #[test]
    fn chain_prefix_round_trips_across_recorders() {
        // The ordering-side recorder stamps the prefix...
        let origin = TraceRecorder::new();
        origin.set_sample(1);
        let t0 = Instant::now();
        origin.stamp_at(0, 5, Stage::Submitted, t0);
        origin.stamp_at(0, 5, Stage::Ordered, t0 + Duration::from_millis(2));
        origin.stamp_at(0, 5, Stage::WalAppended, t0 + Duration::from_millis(3));
        let read_at = t0 + Duration::from_millis(10);
        let prefix = origin.chain_prefix(0, 5, read_at).expect("complete prefix");
        assert_eq!(prefix.submit_to_ordered_ns, 2_000_000);
        assert_eq!(prefix.ordered_to_appended_ns, 1_000_000);
        assert_eq!(prefix.submitted_age_ns, 10_000_000);

        // ...a second recorder (another process) adopts it and finishes
        // the chain locally: the cross-process chain folds completely.
        let remote = TraceRecorder::new();
        remote.set_sample(1);
        // Anchor the receive instant well after the remote recorder's
        // epoch: in a real process the recorder is created at startup,
        // long before any prefix is adopted.
        let rx = Instant::now() + Duration::from_millis(50);
        remote.adopt_prefix(0, 5, &prefix, rx);
        remote.stamp_at(0, 5, Stage::Delivered, rx);
        remote.stamp_at(0, 5, Stage::ExecStart, rx + Duration::from_millis(1));
        remote.stamp_at(0, 5, Stage::Executed, rx + Duration::from_millis(2));
        remote.stamp_at(0, 5, Stage::Released, rx + Duration::from_millis(3));
        let report = remote.report();
        assert_eq!(report.traced, 1, "adopted chain folds on the remote side");
        let e2e = report.stat("end_to_end").expect("e2e").mean;
        assert_eq!(report.chain_sum(), e2e);
        // Transit (the 10ms age minus the 3ms spent ordering) lands in
        // appended_to_delivered.
        let transit = report.stat("appended_to_delivered").expect("a2d").mean;
        assert_eq!(transit, Duration::from_millis(7));
    }

    #[test]
    fn incomplete_or_unsampled_prefixes_are_not_exported() {
        let rec = TraceRecorder::new();
        rec.set_sample(2);
        let t0 = Instant::now();
        let seq = sampled_seqs(&rec, 100)[0];
        let unsampled = (1..100).find(|s| !rec.sampled(*s)).expect("1 in 2");
        for s in [seq, unsampled] {
            rec.stamp_at(0, s, Stage::Submitted, t0);
            rec.stamp_at(0, s, Stage::Ordered, t0);
        }
        // WalAppended missing: no prefix yet.
        assert_eq!(rec.chain_prefix(0, seq, t0), None);
        rec.stamp_at(0, seq, Stage::WalAppended, t0);
        rec.stamp_at(0, unsampled, Stage::WalAppended, t0);
        assert!(rec.chain_prefix(0, seq, t0).is_some());
        // Unsampled sequence: never exported.
        assert_eq!(rec.chain_prefix(0, unsampled, t0), None);
        // Unknown sequence: no slot.
        let unknown = sampled_seqs(&rec, 1_000)
            .into_iter()
            .find(|s| *s > 100)
            .expect("a later sampled seq");
        assert_eq!(rec.chain_prefix(0, unknown, t0), None);
    }

    #[test]
    fn global_recorder_is_shared() {
        let a = global();
        let b = global();
        assert!(std::ptr::eq(a, b));
    }
}
