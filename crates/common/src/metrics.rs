//! Measurement utilities for the evaluation harness.
//!
//! The paper reports, per experiment: throughput in Kilo commands per second
//! (Kcps), CPU utilization, average latency and latency CDFs. This module
//! provides the corresponding instruments:
//!
//! * [`Histogram`] — a log-bucketed latency histogram (HDR-style) with
//!   percentile and CDF extraction,
//! * [`ThroughputMeter`] — counts completed commands over a wall-clock
//!   window,
//! * [`RunSummary`] — the per-technique row printed by each figure binary.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Number of linear sub-buckets per power-of-two bucket. 32 sub-buckets give
/// a worst-case relative error of ~3%, ample for latency CDFs.
const SUB_BUCKETS: usize = 32;
/// Number of power-of-two buckets: covers 1 ns .. ~2^40 ns (~18 minutes).
const POW_BUCKETS: usize = 40;

/// A lock-free, log-bucketed histogram of durations in nanoseconds.
///
/// Recording is wait-free (`fetch_add` on an atomic counter), so worker
/// threads can record latencies on the hot path without coordinating.
///
/// # Example
///
/// ```
/// use psmr_common::metrics::Histogram;
/// use std::time::Duration;
///
/// let h = Histogram::new();
/// h.record(Duration::from_micros(100));
/// h.record(Duration::from_micros(200));
/// assert_eq!(h.count(), 2);
/// assert!(h.mean() >= Duration::from_micros(100));
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(POW_BUCKETS * SUB_BUCKETS);
        buckets.resize_with(POW_BUCKETS * SUB_BUCKETS, || AtomicU64::new(0));
        Self {
            buckets,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn bucket_index(ns: u64) -> usize {
        let ns = ns.max(1);
        let pow = 63 - ns.leading_zeros() as usize; // floor(log2(ns))
        let pow = pow.min(POW_BUCKETS - 1);
        let base = 1u64 << pow;
        // Position within [2^pow, 2^(pow+1)) scaled to SUB_BUCKETS slots.
        let offset = ((ns - base) * SUB_BUCKETS as u64 / base) as usize;
        pow * SUB_BUCKETS + offset.min(SUB_BUCKETS - 1)
    }

    /// Representative (midpoint) value of a bucket, in nanoseconds.
    ///
    /// The midpoint halves the worst-case bias of reporting a bucket
    /// *bound*: percentiles land at most half a sub-bucket off in either
    /// direction instead of up to a full sub-bucket high.
    fn bucket_value(index: usize) -> u64 {
        let pow = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        let base = 1u64 << pow;
        // Midpoint of [base·(1 + sub/SUB), base·(1 + (sub+1)/SUB)).
        base + base * (2 * sub + 1) / (2 * SUB_BUCKETS as u64)
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of the recorded samples.
    ///
    /// Returns zero when the histogram is empty.
    pub fn mean(&self) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.total_ns.load(Ordering::Relaxed) / count)
    }

    /// Maximum recorded sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns.load(Ordering::Relaxed))
    }

    /// Value at the given percentile (`0.0..=100.0`).
    ///
    /// Returns zero when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is not within `0.0..=100.0`.
    pub fn percentile(&self, pct: f64) -> Duration {
        assert!(
            (0.0..=100.0).contains(&pct),
            "percentile must be in 0..=100"
        );
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        let rank = ((pct / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Duration::from_nanos(Self::bucket_value(i));
            }
        }
        self.max()
    }

    /// Extracts the latency CDF as `(latency, cumulative_fraction)` points,
    /// one per non-empty bucket — the data behind the CDF plots of
    /// Figures 3 and 4.
    pub fn cdf(&self) -> Vec<(Duration, f64)> {
        let count = self.count();
        if count == 0 {
            return Vec::new();
        }
        let mut points = Vec::new();
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c > 0 {
                seen += c;
                points.push((
                    Duration::from_nanos(Self::bucket_value(i)),
                    seen as f64 / count as f64,
                ));
            }
        }
        points
    }

    /// Clears every bucket and aggregate back to the empty state.
    ///
    /// Not atomic with respect to concurrent recording — call between
    /// runs, when the recording threads are quiesced.
    pub fn clear(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }

    /// Merges another histogram's counts into this one.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let c = theirs.load(Ordering::Relaxed);
            if c > 0 {
                mine.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.total_ns
            .fetch_add(other.total_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Counts completed operations and converts them into a rate.
///
/// # Example
///
/// ```
/// use psmr_common::metrics::ThroughputMeter;
///
/// let meter = ThroughputMeter::start();
/// meter.add(1000);
/// let kcps = meter.kcps();
/// assert!(kcps >= 0.0);
/// ```
#[derive(Debug)]
pub struct ThroughputMeter {
    started: Instant,
    completed: AtomicU64,
}

impl ThroughputMeter {
    /// Starts a meter at the current instant.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
            completed: AtomicU64::new(0),
        }
    }

    /// Adds `n` completed operations.
    pub fn add(&self, n: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
    }

    /// Total completed operations so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Elapsed wall-clock time since the meter started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed() as f64 / secs
        }
    }

    /// Throughput in Kilo commands per second — the paper's unit.
    pub fn kcps(&self) -> f64 {
        self.ops_per_sec() / 1000.0
    }
}

/// Hot-path pressure observed during one measured run: backpressure
/// stalls, held responses and high-water queue depths, snapshotted as
/// deltas of the global registry by the workload drivers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Delivery stalls on full subscriber queues during the run.
    pub delivery_backpressure_stalls: u64,
    /// Scheduler stalls on full execution-worker rings during the run.
    pub exec_backpressure_stalls: u64,
    /// Responses held back for durability during the run.
    pub responses_held: u64,
    /// Deepest subscriber delivery queue observed (batches).
    pub delivery_queue_max: u64,
    /// Largest open pipelined group-commit window observed (records
    /// appended but not yet fsynced).
    pub wal_inflight_max: u64,
}

impl PipelineStats {
    /// Reads the run's pressure out of a delta snapshot (see
    /// [`MetricsRegistry::snapshot_deltas`]): stall/hold counters arrive
    /// as deltas over the run's baseline, gauge maxes as the run's own
    /// peaks (the baseline cleared the high-water marks).
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        Self {
            delivery_backpressure_stalls: snap.counter(counters::DELIVERY_BACKPRESSURE_STALLS),
            exec_backpressure_stalls: snap.counter(counters::EXEC_BACKPRESSURE_STALLS),
            responses_held: snap.counter(counters::RESPONSES_HELD),
            delivery_queue_max: snap.gauge_max(gauges::DELIVERY_QUEUE_DEPTH),
            wal_inflight_max: snap.gauge_max(gauges::WAL_INFLIGHT),
        }
    }
}

/// One technique's row in a figure: the numbers the paper plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Technique label (`SMR`, `sP-SMR`, `P-SMR`, `no-rep`, `BDB`).
    pub technique: String,
    /// Throughput in Kilo commands per second.
    pub kcps: f64,
    /// Average latency in milliseconds.
    pub avg_latency_ms: f64,
    /// Median latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Process CPU utilization in percent of one core (100% = one core).
    pub cpu_pct: f64,
    /// Latency CDF points `(ms, fraction)`.
    pub cdf: Vec<(f64, f64)>,
    /// Backpressure/holdback pressure observed during the run.
    pub pipeline: PipelineStats,
}

impl RunSummary {
    /// Builds a summary from a histogram and meter.
    pub fn from_parts(
        technique: impl Into<String>,
        hist: &Histogram,
        meter: &ThroughputMeter,
        cpu_pct: f64,
    ) -> Self {
        Self {
            technique: technique.into(),
            kcps: meter.kcps(),
            avg_latency_ms: hist.mean().as_secs_f64() * 1e3,
            p50_latency_ms: hist.percentile(50.0).as_secs_f64() * 1e3,
            p99_latency_ms: hist.percentile(99.0).as_secs_f64() * 1e3,
            cpu_pct,
            cdf: hist
                .cdf()
                .into_iter()
                .map(|(d, f)| (d.as_secs_f64() * 1e3, f))
                .collect(),
            pipeline: PipelineStats::default(),
        }
    }
}

/// A shared series of `(x, y)` points with labels, for the line plots
/// (Figures 5–7). Thread-safe so multiple experiment runs can append.
#[derive(Debug, Default)]
pub struct Series {
    points: Mutex<Vec<(f64, f64)>>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point.
    pub fn push(&self, x: f64, y: f64) {
        self.points.lock().push((x, y));
    }

    /// Returns the collected points sorted by `x`.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let mut pts = self.points.lock().clone();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite x values"));
        pts
    }
}

/// A monotonically increasing event counter (wait-free `fetch_add`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, in-flight records) with a
/// high-water mark. Recording is wait-free, so hot-path components can
/// report depths without coordinating.
#[derive(Debug, Default)]
pub struct Gauge {
    current: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the current level, updating the high-water mark.
    pub fn set(&self, level: u64) {
        self.current.store(level, Ordering::Relaxed);
        self.max.fetch_max(level, Ordering::Relaxed);
    }

    /// The most recently recorded level.
    pub fn get(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Highest level ever recorded (since the last
    /// [`Gauge::reset_max`]).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Clears the high-water mark (the current level stays). Measurement
    /// harnesses call this at the start of a run so [`Gauge::max`]
    /// reports the run's own peak, not the process's.
    pub fn reset_max(&self) {
        self.max
            .store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Well-known counter names (see [`MetricsRegistry`]).
pub mod counters {
    /// Requests silently discarded by a sink whose server side is gone
    /// (`ChannelSink`-style drops) or by a shut-down multicast group.
    pub const REQUESTS_DROPPED: &str = "requests_dropped";
    /// Requests a client proxy re-submitted after suspecting loss.
    pub const REQUESTS_RETRANSMITTED: &str = "requests_retransmitted";
    /// Coordinated checkpoints installed.
    pub const CHECKPOINTS_TAKEN: &str = "checkpoints_taken";
    /// Replicas restarted from a `(checkpoint, log suffix)` pair.
    pub const REPLICA_RESTARTS: &str = "replica_restarts";
    /// State-transfer fetch requests a serving peer answered with an
    /// offer (chunks follow).
    pub const TRANSFERS_SERVED: &str = "transfers_served";
    /// State transfers a fetching replica completed with a verified
    /// digest.
    pub const TRANSFERS_COMPLETED: &str = "transfers_completed";
    /// Snapshot chunks sent by serving peers.
    pub const TRANSFER_CHUNKS_SENT: &str = "transfer_chunks_sent";
    /// Times a fetching replica gave up on a peer (timeout, digest
    /// mismatch, mid-transfer crash) and moved to the next one.
    pub const TRANSFER_FALLBACKS: &str = "transfer_fallbacks";
    /// Checkpoints persisted to a replica's durable store.
    pub const SNAPSHOTS_PERSISTED: &str = "snapshots_persisted";
    /// Checkpoints loaded back from a durable store at recovery.
    pub const SNAPSHOTS_LOADED: &str = "snapshots_loaded";
    /// Durable snapshot files rejected at load (bad magic, truncation,
    /// crc mismatch) — corrupt files are skipped, not fatal.
    pub const SNAPSHOT_LOAD_FAILURES: &str = "snapshot_load_failures";
    /// Decided batches appended to a write-ahead log.
    pub const WAL_APPENDS: &str = "wal_appends";
    /// `fsync` calls the write-ahead logs issued (one per group-commit
    /// window, so `wal_appends / wal_fsyncs` approximates the achieved
    /// commit batch size).
    pub const WAL_FSYNCS: &str = "wal_fsyncs";
    /// WAL appends that failed with an I/O error (the ordered stream
    /// keeps running; durability of the failed record is lost).
    pub const WAL_APPEND_FAILURES: &str = "wal_append_failures";
    /// Pipelined group-commit `fsync`s that failed with an I/O error:
    /// the appends landed, the covering sync did not, and the group's
    /// durability watermark is abandoned (everything held releases).
    pub const WAL_SYNC_FAILURES: &str = "wal_sync_failures";
    /// Records recovered by WAL replay (cold start or reopening a log).
    pub const WAL_REPLAY_RECORDS: &str = "wal_replay_records";
    /// Torn tails dropped by WAL replay: a truncated or corrupt final
    /// record whose prefix still replays cleanly.
    pub const WAL_TORN_TAILS: &str = "wal_torn_tails";
    /// WAL segment files created (the first segment plus every rotation).
    pub const WAL_SEGMENTS_CREATED: &str = "wal_segments_created";
    /// WAL segment files reclaimed by trim-below-unlink.
    pub const WAL_SEGMENTS_TRIMMED: &str = "wal_segments_trimmed";
    /// Whole-deployment cold starts completed (every replica restarted
    /// from disk with no live peer).
    pub const COLD_STARTS: &str = "cold_starts";
    /// Times a group's delivery blocked on a full subscriber queue (a
    /// slow worker throttling ordering — the bounded-ring backpressure
    /// working as designed).
    pub const DELIVERY_BACKPRESSURE_STALLS: &str = "delivery_backpressure_stalls";
    /// Times a scheduler blocked on a full execution-worker ring.
    pub const EXEC_BACKPRESSURE_STALLS: &str = "exec_backpressure_stalls";
    /// Client responses held back because their batch's covering `fsync`
    /// had not yet landed (pipelined group commit only).
    pub const RESPONSES_HELD: &str = "responses_held";
    /// Held-back responses released once the durability watermark caught
    /// up.
    pub const RESPONSES_RELEASED: &str = "responses_released";
    /// Commands executed by replica workers. Workers record through
    /// per-worker labeled views (`commands_executed{replica=R,worker=W}`)
    /// that roll up here.
    pub const COMMANDS_EXECUTED: &str = "commands_executed";
    /// Synchronous-mode meetings of a P-SMR replica's workers, one per
    /// decided run of `g_all` commands (`rendezvous{replica=R}`).
    pub const RENDEZVOUS: &str = "rendezvous";
    /// TCP peer links re-established after a drop (successful re-dials
    /// past the first connection; the initial connect does not count).
    pub const NET_RECONNECTS: &str = "net_reconnects";
    /// Frames written again after a reconnect replayed the link's
    /// bounded resend buffer.
    pub const NET_FRAMES_RESENT: &str = "net_frames_resent";
    /// Inbound frames discarded as duplicates (sequence number at or
    /// below the last one seen from that peer — resend-buffer replay).
    pub const NET_FRAMES_DUP_DROPPED: &str = "net_frames_dup_dropped";
    /// Frames evicted unsent from a full per-peer resend buffer (the
    /// transport is best-effort, like the simulated substrate).
    pub const NET_FRAMES_DROPPED: &str = "net_frames_dropped";
    /// Frames successfully written to a TCP peer link.
    pub const NET_FRAMES_SENT: &str = "net_frames_sent";
    /// `write_all` calls a dialer made on a TCP peer link. Each carries
    /// every frame queued past the link's cursor (up to a byte cap), so
    /// `net_frames_sent / net_writes` is the mean coalescing factor.
    pub const NET_WRITES: &str = "net_writes";
    /// TCP peer links established, counting the first connection *and*
    /// every re-dial (unlike `net_reconnects`, which counts only the
    /// latter) — a freshly restarted process shows its links coming up
    /// here.
    pub const NET_CONNECTS: &str = "net_connects";
    /// Payload bytes written to TCP peer links (frame bodies, not
    /// counting the envelope header or replayed duplicates).
    pub const NET_BYTES_SENT: &str = "net_bytes_sent";
    /// Data frames accepted from TCP peer links (after duplicate
    /// suppression).
    pub const NET_FRAMES_RECEIVED: &str = "net_frames_received";
    /// Payload bytes accepted from TCP peer links.
    pub const NET_BYTES_RECEIVED: &str = "net_bytes_received";
    /// Backoff sleeps a dialer served after a failed dial or handshake.
    pub const NET_BACKOFF_SLEEPS: &str = "net_backoff_sleeps";
    /// Inbound connections torn down because the frame stream poisoned
    /// (crc mismatch, oversized frame) or a payload violated the mesh
    /// protocol — the peer's dialer reconnects and replays.
    pub const NET_DECODE_POISONED: &str = "net_decode_poisoned";
    /// Outbound frames the chaos policy swallowed (drop probability) —
    /// per peer (`chaos_frames_dropped{peer=P}`), like every `chaos_*`
    /// counter below.
    pub const CHAOS_FRAMES_DROPPED: &str = "chaos_frames_dropped";
    /// Outbound frames the chaos policy held back by a fixed+jittered
    /// delay before writing.
    pub const CHAOS_FRAMES_DELAYED: &str = "chaos_frames_delayed";
    /// Outbound frames the chaos policy wrote twice (the receiver's dup
    /// filter must absorb the copy).
    pub const CHAOS_FRAMES_DUPLICATED: &str = "chaos_frames_duplicated";
    /// Outbound frames the chaos policy bit-flipped before writing (the
    /// receiver's decoder poisons and the connection is torn down).
    pub const CHAOS_FRAMES_CORRUPTED: &str = "chaos_frames_corrupted";
    /// Frames refused by a chaos partition: outbound writes withheld
    /// (`partition=out`) or inbound data frames discarded before
    /// dispatch (`partition=in`).
    pub const CHAOS_FRAMES_PARTITIONED: &str = "chaos_frames_partitioned";
    /// Sleeps the chaos bandwidth throttle inserted ahead of writes.
    pub const CHAOS_THROTTLE_SLEEPS: &str = "chaos_throttle_sleeps";
    /// Times a self-healing wire client re-established its node
    /// connection after a socket error or response silence.
    pub const CLIENT_RECONNECTS: &str = "client_reconnects";
    /// Times a self-healing wire client rotated to a different
    /// configured node address while reconnecting.
    pub const CLIENT_FAILOVERS: &str = "client_failovers";
    /// Ordered command copies a node executor suppressed because the
    /// `(client, request)` id had already executed — the retransmission
    /// path answering from the cached response instead of re-applying.
    pub const REQUESTS_DEDUPED: &str = "requests_deduped";
    /// Reads a node answered from its local store without ordering,
    /// tagged with their staleness (degraded-mode opt-in service).
    pub const STALE_READS_SERVED: &str = "stale_reads_served";
}

/// Well-known histogram names (see [`MetricsRegistry::histogram`]).
pub mod histograms {
    /// Observed latency of WAL commit `fsync`s. Recorded per group
    /// (`wal_fsync_ns{group=G}`) with a global rollup — the input a
    /// future adaptive sync-pace controller needs.
    pub const WAL_FSYNC_NS: &str = "wal_fsync_ns";
    /// HELLO → ack round-trip of the mesh handshake, recorded per peer
    /// (`net_handshake_ns{peer=P}`) by the dialing side.
    pub const NET_HANDSHAKE_NS: &str = "net_handshake_ns";
}

/// Well-known gauge names (see [`MetricsRegistry::gauge`]).
pub mod gauges {
    /// Depth of the deepest subscriber delivery queue observed at send
    /// time (batches waiting for a worker).
    pub const DELIVERY_QUEUE_DEPTH: &str = "delivery_queue_depth";
    /// Records appended to a pipelined WAL but not yet covered by an
    /// `fsync` (the open group-commit window of the sync thread).
    pub const WAL_INFLIGHT: &str = "wal_inflight";
}

/// A point-in-time (or delta, see [`MetricsRegistry::snapshot_deltas`])
/// view of a registry: counters *and* gauges, both sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, count)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, current, max)` per gauge.
    pub gauges: Vec<(String, u64, u64)>,
}

impl MetricsSnapshot {
    /// Value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// High-water mark of gauge `name` (0 if absent).
    pub fn gauge_max(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0, |(_, _, m)| *m)
    }
}

/// Counter values at the start of a measured run, captured by
/// [`MetricsRegistry::baseline`] so [`MetricsRegistry::snapshot_deltas`]
/// can report only what the run itself did.
#[derive(Debug, Clone, Default)]
pub struct MetricsBaseline {
    counters: HashMap<String, u64>,
}

/// A process-wide registry of named [`Counter`]s, [`Gauge`]s and
/// [`Histogram`]s.
///
/// Components that would otherwise fail *silently* (request sinks whose
/// server has gone away, retransmitting client proxies, the recovery
/// machinery) record events here so tests and operators can observe
/// them. Instruments are created on first use and never removed.
///
/// Beyond the flat global names, [`MetricsRegistry::scoped`] opens a
/// **labeled view** (`wal_fsyncs{group=3}`, `commands_executed{worker=1}`)
/// whose instruments write through to the plain global name, so per-group
/// and per-worker detail always rolls up to the familiar totals.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating if needed) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock();
        match counters.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::new());
                counters.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Returns (creating if needed) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut gauges = self.gauges.lock();
        match gauges.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::new());
                gauges.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// Returns (creating if needed) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock();
        match histograms.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                histograms.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Opens a labeled view of this registry: instruments resolved
    /// through the returned scope record into both `name{key=value}` and
    /// the plain `name` rollup. Chain [`MetricsScope::and`] for compound
    /// labels. Resolve scoped instruments **once** (at spawn) — the
    /// label formatting happens here, not on the hot path.
    pub fn scoped(&self, key: &str, value: impl fmt::Display) -> MetricsScope<'_> {
        MetricsScope {
            registry: self,
            label: format!("{key}={value}"),
        }
    }

    /// Convenience: current value of `name` (0 if never touched).
    pub fn value(&self, name: &str) -> u64 {
        self.counter(name).get()
    }

    /// Convenience: high-water mark of gauge `name` (0 if never set).
    pub fn gauge_max(&self, name: &str) -> u64 {
        self.gauge(name).max()
    }

    /// Every registered histogram as `(name, histogram)`, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        let mut out: Vec<(String, Arc<Histogram>)> = self
            .histograms
            .lock()
            .iter()
            .map(|(name, h)| (name.clone(), Arc::clone(h)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Snapshot of every counter and gauge, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, u64, u64)> = self
            .gauges
            .lock()
            .iter()
            .map(|(name, g)| (name.clone(), g.get(), g.max()))
            .collect();
        gauges.sort();
        MetricsSnapshot { counters, gauges }
    }

    /// Marks the start of a measured run: records every counter's
    /// current value and clears every gauge's high-water mark, so a
    /// later [`MetricsRegistry::snapshot_deltas`] reports only the run's
    /// own events and peaks.
    pub fn baseline(&self) -> MetricsBaseline {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        for gauge in self.gauges.lock().values() {
            gauge.reset_max();
        }
        MetricsBaseline { counters }
    }

    /// Snapshot relative to `base`: counter values minus their baseline
    /// (counters born after the baseline report their full value),
    /// gauges as `(name, current, max-since-baseline)`.
    pub fn snapshot_deltas(&self, base: &MetricsBaseline) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        for (name, value) in &mut snap.counters {
            *value -= base.counters.get(name.as_str()).copied().unwrap_or(0);
        }
        snap
    }
}

/// A labeled view of a [`MetricsRegistry`] (see
/// [`MetricsRegistry::scoped`]).
#[derive(Debug, Clone)]
pub struct MetricsScope<'a> {
    registry: &'a MetricsRegistry,
    label: String,
}

impl MetricsScope<'_> {
    /// Extends the label with another `key=value` dimension:
    /// `registry.scoped("replica", 0).and("worker", 3)` labels
    /// instruments `{replica=0,worker=3}`.
    pub fn and(mut self, key: &str, value: impl fmt::Display) -> Self {
        use fmt::Write as _;
        let _ = write!(self.label, ",{key}={value}");
        self
    }

    /// The scope's rendered label, e.g. `group=3` or `replica=0,worker=3`.
    pub fn label(&self) -> &str {
        &self.label
    }

    fn labeled(&self, name: &str) -> String {
        format!("{name}{{{}}}", self.label)
    }

    /// Write-through counter pair: `name{label}` plus the `name` rollup.
    pub fn counter(&self, name: &str) -> ScopedCounter {
        ScopedCounter {
            labeled: self.registry.counter(&self.labeled(name)),
            rollup: self.registry.counter(name),
        }
    }

    /// Write-through gauge pair: `name{label}` plus the `name` rollup.
    pub fn gauge(&self, name: &str) -> ScopedGauge {
        ScopedGauge {
            labeled: self.registry.gauge(&self.labeled(name)),
            rollup: self.registry.gauge(name),
        }
    }

    /// Write-through histogram pair: `name{label}` plus the `name`
    /// rollup.
    pub fn histogram(&self, name: &str) -> ScopedHistogram {
        ScopedHistogram {
            labeled: self.registry.histogram(&self.labeled(name)),
            rollup: self.registry.histogram(name),
        }
    }
}

/// A counter recording into a labeled name and its global rollup.
#[derive(Debug, Clone)]
pub struct ScopedCounter {
    labeled: Arc<Counter>,
    rollup: Arc<Counter>,
}

impl ScopedCounter {
    /// Adds one event to the labeled counter and the rollup.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` events to the labeled counter and the rollup.
    pub fn add(&self, n: u64) {
        self.labeled.add(n);
        self.rollup.add(n);
    }

    /// The labeled (per-scope) count.
    pub fn get(&self) -> u64 {
        self.labeled.get()
    }
}

/// A gauge recording into a labeled name and its global rollup.
#[derive(Debug, Clone)]
pub struct ScopedGauge {
    labeled: Arc<Gauge>,
    rollup: Arc<Gauge>,
}

impl ScopedGauge {
    /// Records `level` on the labeled gauge and the rollup.
    pub fn set(&self, level: u64) {
        self.labeled.set(level);
        self.rollup.set(level);
    }

    /// The labeled (per-scope) current level.
    pub fn get(&self) -> u64 {
        self.labeled.get()
    }

    /// The labeled (per-scope) high-water mark.
    pub fn max(&self) -> u64 {
        self.labeled.max()
    }
}

/// A histogram recording into a labeled name and its global rollup.
#[derive(Debug, Clone)]
pub struct ScopedHistogram {
    labeled: Arc<Histogram>,
    rollup: Arc<Histogram>,
}

impl ScopedHistogram {
    /// Records one sample into the labeled histogram and the rollup.
    pub fn record(&self, latency: Duration) {
        self.labeled.record(latency);
        self.rollup.record(latency);
    }

    /// The labeled (per-scope) sample count.
    pub fn count(&self) -> u64 {
        self.labeled.count()
    }

    /// The labeled (per-scope) histogram.
    pub fn labeled(&self) -> &Histogram {
        &self.labeled
    }
}

/// The process-wide registry instrumented components report into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.percentile(50.0), Duration::ZERO);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn percentiles_bracket_recorded_values() {
        let h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        // Bucket midpoints bound the error at half a sub-bucket (~1.6%)
        // either side of the true percentile, not a full bucket high.
        let p50 = h.percentile(50.0);
        assert!(p50 >= Duration::from_micros(485), "p50 = {p50:?}");
        assert!(p50 <= Duration::from_micros(520), "p50 = {p50:?}");
        let p99 = h.percentile(99.0);
        assert!(p99 >= Duration::from_micros(975), "p99 = {p99:?}");
        assert!(p99 <= Duration::from_micros(1010), "p99 = {p99:?}");
    }

    #[test]
    fn mean_and_max_are_exact() {
        let h = Histogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(300));
        assert_eq!(h.mean(), Duration::from_micros(200));
        assert_eq!(h.max(), Duration::from_micros(300));
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let h = Histogram::new();
        for us in [10u64, 20, 20, 40, 80, 160] {
            h.record(Duration::from_micros(us));
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut prev = 0.0;
        for &(_, frac) in &cdf {
            assert!(frac >= prev);
            prev = frac;
        }
        assert!((cdf.last().expect("non-empty").1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(20));
        b.record(Duration::from_micros(30));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Duration::from_micros(30));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_panics() {
        Histogram::new().percentile(101.0);
    }

    #[test]
    fn meter_counts_and_rates() {
        let m = ThroughputMeter::start();
        m.add(500);
        m.add(500);
        assert_eq!(m.completed(), 1000);
        std::thread::sleep(Duration::from_millis(5));
        assert!(m.ops_per_sec() > 0.0);
        assert!(m.kcps() <= m.ops_per_sec());
    }

    #[test]
    fn summary_converts_units() {
        let h = Histogram::new();
        h.record(Duration::from_millis(2));
        let m = ThroughputMeter::start();
        m.add(10);
        let s = RunSummary::from_parts("SMR", &h, &m, 99.0);
        assert_eq!(s.technique, "SMR");
        assert!(s.avg_latency_ms >= 2.0);
        assert_eq!(s.cpu_pct, 99.0);
        assert_eq!(s.cdf.len(), 1);
    }

    #[test]
    fn counters_register_and_accumulate() {
        let registry = MetricsRegistry::new();
        assert_eq!(registry.value("never_touched"), 0);
        let dropped = registry.counter(counters::REQUESTS_DROPPED);
        dropped.inc();
        dropped.add(2);
        assert_eq!(registry.value(counters::REQUESTS_DROPPED), 3);
        // Same name resolves to the same counter.
        registry.counter(counters::REQUESTS_DROPPED).inc();
        assert_eq!(dropped.get(), 4);
        let snap = registry.snapshot();
        assert!(snap
            .counters
            .contains(&(counters::REQUESTS_DROPPED.to_string(), 4)));
        assert_eq!(snap.counter(counters::REQUESTS_DROPPED), 4);
    }

    #[test]
    fn gauges_track_level_and_high_water_mark() {
        let registry = MetricsRegistry::new();
        let depth = registry.gauge(gauges::DELIVERY_QUEUE_DEPTH);
        assert_eq!(depth.get(), 0);
        depth.set(7);
        depth.set(3);
        assert_eq!(depth.get(), 3, "gauge reports the latest level");
        assert_eq!(depth.max(), 7, "high-water mark sticks");
        assert_eq!(registry.gauge_max(gauges::DELIVERY_QUEUE_DEPTH), 7);
        // Same name resolves to the same gauge.
        registry.gauge(gauges::DELIVERY_QUEUE_DEPTH).set(9);
        assert_eq!(depth.max(), 9);
    }

    #[test]
    fn summary_reports_percentiles() {
        let h = Histogram::new();
        for us in 1..=100u64 {
            h.record(Duration::from_micros(us * 10));
        }
        let m = ThroughputMeter::start();
        m.add(100);
        let s = RunSummary::from_parts("P-SMR", &h, &m, 0.0);
        assert!(s.p50_latency_ms > 0.0);
        assert!(
            s.p50_latency_ms <= s.p99_latency_ms,
            "p50 {} > p99 {}",
            s.p50_latency_ms,
            s.p99_latency_ms
        );
        assert_eq!(s.pipeline, PipelineStats::default());
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("metrics_test_global_probe");
        let before = c.get();
        global().counter("metrics_test_global_probe").inc();
        assert_eq!(c.get(), before + 1);
    }

    #[test]
    fn series_sorts_points() {
        let s = Series::new();
        s.push(4.0, 1.0);
        s.push(1.0, 2.0);
        s.push(2.0, 3.0);
        let pts = s.points();
        assert_eq!(pts, vec![(1.0, 2.0), (2.0, 3.0), (4.0, 1.0)]);
    }

    #[test]
    fn bucket_round_trip_error_is_bounded() {
        for ns in [1u64, 5, 100, 1_000, 12_345, 1_000_000, 123_456_789] {
            let idx = Histogram::bucket_index(ns);
            let rep = Histogram::bucket_value(idx);
            let err = (rep as f64 - ns as f64).abs() / ns as f64;
            assert!(err < 0.10, "ns={ns} rep={rep} err={err}");
        }
    }

    #[test]
    fn clear_empties_a_histogram() {
        let h = Histogram::new();
        h.record(Duration::from_micros(10));
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
        assert!(h.cdf().is_empty());
        h.record(Duration::from_micros(20));
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_includes_gauge_rows() {
        let registry = MetricsRegistry::new();
        let depth = registry.gauge(gauges::DELIVERY_QUEUE_DEPTH);
        depth.set(9);
        depth.set(2);
        let snap = registry.snapshot();
        assert!(snap
            .gauges
            .contains(&(gauges::DELIVERY_QUEUE_DEPTH.to_string(), 2, 9)));
        assert_eq!(snap.gauge_max(gauges::DELIVERY_QUEUE_DEPTH), 9);
        assert_eq!(snap.gauge_max("never_set"), 0);
    }

    #[test]
    fn baseline_and_deltas_isolate_a_run() {
        let registry = MetricsRegistry::new();
        let stalls = registry.counter(counters::DELIVERY_BACKPRESSURE_STALLS);
        let depth = registry.gauge(gauges::DELIVERY_QUEUE_DEPTH);
        stalls.add(10);
        depth.set(50);
        depth.set(0);

        let base = registry.baseline();
        stalls.add(3);
        depth.set(7);
        // A counter born after the baseline reports its full value.
        registry.counter(counters::RESPONSES_HELD).add(2);

        let snap = registry.snapshot_deltas(&base);
        assert_eq!(snap.counter(counters::DELIVERY_BACKPRESSURE_STALLS), 3);
        assert_eq!(snap.counter(counters::RESPONSES_HELD), 2);
        assert_eq!(
            snap.gauge_max(gauges::DELIVERY_QUEUE_DEPTH),
            7,
            "baseline cleared the pre-run high-water mark of 50"
        );
    }

    #[test]
    fn pipeline_stats_read_from_a_delta_snapshot() {
        let registry = MetricsRegistry::new();
        let base = registry.baseline();
        registry
            .counter(counters::DELIVERY_BACKPRESSURE_STALLS)
            .add(4);
        registry.counter(counters::RESPONSES_HELD).add(6);
        registry.gauge(gauges::WAL_INFLIGHT).set(11);
        let stats = PipelineStats::from_snapshot(&registry.snapshot_deltas(&base));
        assert_eq!(stats.delivery_backpressure_stalls, 4);
        assert_eq!(stats.responses_held, 6);
        assert_eq!(stats.wal_inflight_max, 11);
        assert_eq!(stats.exec_backpressure_stalls, 0);
    }

    #[test]
    fn scoped_instruments_write_through_to_the_rollup() {
        let registry = MetricsRegistry::new();
        let scope = registry.scoped("group", 3);
        assert_eq!(scope.label(), "group=3");

        let scoped = scope.counter(counters::WAL_FSYNCS);
        scoped.add(5);
        assert_eq!(scoped.get(), 5);
        assert_eq!(registry.value("wal_fsyncs{group=3}"), 5);
        assert_eq!(registry.value(counters::WAL_FSYNCS), 5, "rollup sees it");
        // A sibling scope shares the rollup but not the labeled counter.
        registry
            .scoped("group", 4)
            .counter(counters::WAL_FSYNCS)
            .inc();
        assert_eq!(registry.value(counters::WAL_FSYNCS), 6);
        assert_eq!(scoped.get(), 5);

        let gauge = scope.gauge(gauges::WAL_INFLIGHT);
        gauge.set(8);
        assert_eq!(gauge.get(), 8);
        assert_eq!(gauge.max(), 8);
        assert_eq!(registry.gauge_max("wal_inflight{group=3}"), 8);
        assert_eq!(registry.gauge_max(gauges::WAL_INFLIGHT), 8);

        let hist = scope.histogram(histograms::WAL_FSYNC_NS);
        hist.record(Duration::from_micros(120));
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.labeled().count(), 1);
        assert_eq!(registry.histogram(histograms::WAL_FSYNC_NS).count(), 1);
        let names: Vec<String> = registry.histograms().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["wal_fsync_ns", "wal_fsync_ns{group=3}"]);
    }

    #[test]
    fn compound_labels_chain() {
        let registry = MetricsRegistry::new();
        let scope = registry.scoped("replica", 0).and("worker", 3);
        assert_eq!(scope.label(), "replica=0,worker=3");
        scope.counter(counters::COMMANDS_EXECUTED).inc();
        assert_eq!(registry.value("commands_executed{replica=0,worker=3}"), 1);
        assert_eq!(registry.value(counters::COMMANDS_EXECUTED), 1);
    }
}
