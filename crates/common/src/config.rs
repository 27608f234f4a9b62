//! System configuration.
//!
//! Mirrors the deployment knobs of the paper's prototype (§VI): the
//! multiprogramming level (MPL, number of worker threads per replica), the
//! number of replicas (the paper uses `n = f + 1 = 2`), the number of Paxos
//! acceptors per instance (3, tolerating one acceptor failure), and the
//! 8 KB batch cap of the multicast library.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// A durability/recovery knob set to a value that cannot work.
///
/// Returned by [`SystemConfig::validate`]; deployments check their
/// configuration up front instead of clamping bad values silently or
/// panicking deep inside the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `transfer_chunk_bytes` is zero: a state transfer could never make
    /// progress (every chunk would carry no bytes).
    ZeroTransferChunk,
    /// `log_retention` is zero: no decided batch would ever be retained,
    /// so no replica could catch up past its own crash.
    ZeroRetention,
    /// `wal_batch` is zero: the group-commit window would never admit an
    /// append, wedging the ordered log.
    ZeroWalBatch,
    /// `batch_bytes` is zero: no command would ever fit in a batch.
    ZeroBatchBytes,
    /// `delivery_queue` is zero: no decided batch could ever be handed to
    /// a subscriber, wedging delivery at the first round.
    ZeroDeliveryQueue,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroTransferChunk => {
                write!(f, "transfer_chunk_bytes must be at least 1")
            }
            ConfigError::ZeroRetention => write!(f, "log_retention must be at least 1 batch"),
            ConfigError::ZeroWalBatch => write!(f, "wal_batch must be at least 1 append"),
            ConfigError::ZeroBatchBytes => write!(f, "batch_bytes must be at least 1"),
            ConfigError::ZeroDeliveryQueue => {
                write!(f, "delivery_queue must be at least 1 batch")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a replicated deployment.
///
/// Construct with [`SystemConfig::new`] and refine with the builder-style
/// setters; all setters return `&mut Self` so both one-liner and staged
/// configuration read naturally ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
///
/// # Example
///
/// ```
/// use psmr_common::SystemConfig;
///
/// let mut cfg = SystemConfig::new(8);
/// cfg.replicas(2).acceptors(3);
/// assert_eq!(cfg.mpl, 8);
/// assert_eq!(cfg.group_count(), 9); // g_1..g_8 plus g_all
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Multiprogramming level: number of worker threads per replica, and
    /// therefore the number of per-worker multicast groups `g_1..g_k`.
    pub mpl: usize,
    /// Number of server replicas. The paper deploys `n = f + 1 = 2`.
    pub n_replicas: usize,
    /// Acceptors per Paxos instance (3 in the paper; tolerates one crash).
    pub n_acceptors: usize,
    /// Maximum marshalled size of a consensus batch (8 KB in the paper).
    /// Nothing lingers to fill a batch: when the ordering thread proposes,
    /// it takes everything queued, split into instances of at most this
    /// size, so batches grow with load.
    pub batch_bytes: usize,
    /// Decided batches each group retains for replica catch-up, beyond
    /// what checkpoints have made reclaimable. Checkpoints trim the logs
    /// down to their cut; this cap additionally bounds memory when no
    /// checkpoints are taken. `usize::MAX` disables the cap.
    pub log_retention: usize,
    /// When set, recoverable engines multicast a `CHECKPOINT` control
    /// command on the serialized group at this interval, keeping the
    /// ordered logs trimmed and recovery points fresh.
    pub checkpoint_interval: Option<Duration>,
    /// When set, every replica of a recoverable deployment persists its
    /// checkpoints to `<snapshot_dir>/r<replica>` (atomic rename,
    /// crc-checked load), and a restarting replica recovers from its own
    /// disk before falling back to peer state transfer. `None` keeps
    /// checkpoints in memory only.
    pub snapshot_dir: Option<PathBuf>,
    /// Chunk size of peer-to-peer state transfer: a served snapshot is
    /// streamed as `ceil(len / transfer_chunk_bytes)` messages so a peer
    /// crash mid-transfer is detectable per chunk rather than per
    /// snapshot.
    pub transfer_chunk_bytes: usize,
    /// How long a fetching replica waits for each state-transfer message
    /// (the offer and every chunk) before declaring the serving peer dead
    /// and falling back to the next one.
    pub transfer_timeout: Duration,
    /// When set, every multicast group appends its decided batches to a
    /// durable write-ahead log under `<wal_dir>/g<group>` — the ordered
    /// suffix a whole-deployment cold start replays after restoring the
    /// newest snapshots. `None` keeps the ordered logs in memory only
    /// (a deployment where every replica crashes is then unrecoverable).
    pub wal_dir: Option<PathBuf>,
    /// Group-commit window of the write-ahead log: one `fsync` is issued
    /// every `wal_batch` appended records, amortizing the sync cost over
    /// the batch. `1` syncs every append (safest, slowest). Ignored when
    /// `wal_pipeline` is on (the sync thread group-commits adaptively).
    pub wal_batch: usize,
    /// Pipelined group commit: decided batches are appended to the WAL
    /// and fanned out to subscribers **immediately**, while the covering
    /// `fsync` runs on one sync thread **shared by every group of the
    /// deployment** (each paced pass group-commits all logs with open
    /// command windows). Execution overlaps durability; client
    /// responses are held back until the per-group durability watermark
    /// covers the command's batch, so an executed-but-not-yet-durable
    /// command is never observable. Off by default (inline appends,
    /// `wal_batch`-windowed fsync). Only meaningful with `wal_dir` set.
    pub wal_pipeline: bool,
    /// Capacity, in decided batches, of each subscriber's delivery queue
    /// (the ring between a group's delivery and a replica worker). When a
    /// slow worker fills its ring the ordering thread blocks, throttling
    /// ordering instead of growing memory without bound
    /// (`delivery_backpressure_stalls` counts those stalls).
    pub delivery_queue: usize,
    /// Command-lifecycle trace sampling: one batch sequence in N per
    /// group (chosen by a hash of the sequence) is stamped through the
    /// pipeline stages (submitted → ordered → appended → delivered →
    /// executed → released) and aggregated into per-stage latency
    /// histograms. `0` disables tracing. The default (32) is cheap enough
    /// to leave on (see the bench's trace-overhead sanity check).
    pub trace_sample: u64,
}

impl SystemConfig {
    /// Creates a configuration with the paper's defaults and the given
    /// multiprogramming level.
    ///
    /// # Panics
    ///
    /// Panics if `mpl` is zero: a replica needs at least one worker.
    pub fn new(mpl: usize) -> Self {
        assert!(mpl > 0, "multiprogramming level must be at least 1");
        Self {
            mpl,
            n_replicas: 2,
            n_acceptors: 3,
            batch_bytes: 8 * 1024,
            log_retention: 4096,
            checkpoint_interval: None,
            snapshot_dir: None,
            transfer_chunk_bytes: 4096,
            transfer_timeout: Duration::from_millis(250),
            wal_dir: None,
            wal_batch: 16,
            wal_pipeline: false,
            delivery_queue: 1024,
            trace_sample: 32,
        }
    }

    /// Checks the durability/recovery knobs for values that cannot work,
    /// returning the first violation as a typed [`ConfigError`].
    ///
    /// Engines and the multicast substrate validate at spawn, so a
    /// zeroed knob fails fast at construction instead of being silently
    /// clamped or panicking deep inside the stack.
    ///
    /// # Errors
    ///
    /// See the [`ConfigError`] variants for each rejected knob.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.transfer_chunk_bytes == 0 {
            return Err(ConfigError::ZeroTransferChunk);
        }
        if self.log_retention == 0 {
            return Err(ConfigError::ZeroRetention);
        }
        if self.wal_batch == 0 {
            return Err(ConfigError::ZeroWalBatch);
        }
        if self.batch_bytes == 0 {
            return Err(ConfigError::ZeroBatchBytes);
        }
        if self.delivery_queue == 0 {
            return Err(ConfigError::ZeroDeliveryQueue);
        }
        Ok(())
    }

    /// Sets the number of replicas.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn replicas(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "need at least one replica");
        self.n_replicas = n;
        self
    }

    /// Sets the number of acceptors per Paxos instance.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn acceptors(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "need at least one acceptor");
        self.n_acceptors = n;
        self
    }

    /// Sets the batch size cap in bytes (zero is rejected by
    /// [`SystemConfig::validate`]).
    pub fn batch_bytes(&mut self, bytes: usize) -> &mut Self {
        self.batch_bytes = bytes;
        self
    }

    /// Sets the per-group retained-log cap in decided batches (zero is
    /// rejected by [`SystemConfig::validate`]).
    pub fn log_retention(&mut self, batches: usize) -> &mut Self {
        self.log_retention = batches;
        self
    }

    /// Sets (or clears) the automatic checkpoint interval.
    pub fn checkpoint_interval(&mut self, interval: Option<Duration>) -> &mut Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets (or clears) the directory durable snapshots are persisted
    /// under. Each replica uses the `r<replica>` subdirectory.
    pub fn snapshot_dir(&mut self, dir: Option<PathBuf>) -> &mut Self {
        self.snapshot_dir = dir;
        self
    }

    /// Sets the state-transfer chunk size in bytes (zero is rejected by
    /// [`SystemConfig::validate`]).
    pub fn transfer_chunk_bytes(&mut self, bytes: usize) -> &mut Self {
        self.transfer_chunk_bytes = bytes;
        self
    }

    /// Sets the per-message state-transfer timeout.
    pub fn transfer_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.transfer_timeout = timeout;
        self
    }

    /// Sets (or clears) the directory the per-group write-ahead logs
    /// live under. Each multicast group uses the `g<group>` subdirectory.
    pub fn wal_dir(&mut self, dir: Option<PathBuf>) -> &mut Self {
        self.wal_dir = dir;
        self
    }

    /// Sets the WAL group-commit window in appends per `fsync` (zero is
    /// rejected by [`SystemConfig::validate`]).
    pub fn wal_batch(&mut self, appends: usize) -> &mut Self {
        self.wal_batch = appends;
        self
    }

    /// Enables (or disables) pipelined group commit: fan-out proceeds
    /// while the covering `fsync` runs on the WAL sync thread, and client
    /// responses are gated on the durability watermark instead.
    pub fn wal_pipeline(&mut self, on: bool) -> &mut Self {
        self.wal_pipeline = on;
        self
    }

    /// Sets the per-subscriber delivery-queue capacity in decided batches
    /// (zero is rejected by [`SystemConfig::validate`]).
    pub fn delivery_queue(&mut self, batches: usize) -> &mut Self {
        self.delivery_queue = batches;
        self
    }

    /// Sets the lifecycle-trace sampling rate: one batch sequence in N
    /// per group is traced through the pipeline stages. `0` is a valid
    /// off-switch (unlike the capacity knobs, tracing is optional).
    pub fn trace_sample(&mut self, every_nth: u64) -> &mut Self {
        self.trace_sample = every_nth;
        self
    }

    /// Number of multicast groups the deployment uses: one per worker plus
    /// the shared `g_all` group every worker subscribes to (§VI-A).
    pub fn group_count(&self) -> usize {
        self.mpl + 1
    }

    /// The index of the shared group `g_all` to which every worker thread
    /// of every replica belongs.
    pub fn all_group(&self) -> crate::ids::GroupId {
        crate::ids::GroupId::new(self.mpl)
    }

    /// Acceptor crash failures each Paxos instance tolerates (majority
    /// quorums): `⌊(a - 1) / 2⌋`.
    pub fn acceptor_fault_tolerance(&self) -> usize {
        (self.n_acceptors - 1) / 2
    }
}

impl Default for SystemConfig {
    /// A single-worker configuration, equivalent to classical SMR.
    fn default() -> Self {
        Self::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let cfg = SystemConfig::new(8);
        assert_eq!(cfg.n_replicas, 2);
        assert_eq!(cfg.n_acceptors, 3);
        assert_eq!(cfg.batch_bytes, 8 * 1024);
    }

    #[test]
    #[should_panic(expected = "multiprogramming level")]
    fn zero_mpl_is_rejected() {
        let _ = SystemConfig::new(0);
    }

    #[test]
    fn group_count_includes_g_all() {
        let cfg = SystemConfig::new(4);
        assert_eq!(cfg.group_count(), 5);
        assert_eq!(cfg.all_group().as_raw(), 4);
    }

    #[test]
    fn builder_setters_chain() {
        let mut cfg = SystemConfig::new(2);
        cfg.replicas(3).acceptors(5).batch_bytes(1024);
        assert_eq!(cfg.n_replicas, 3);
        assert_eq!(cfg.n_acceptors, 5);
        assert_eq!(cfg.acceptor_fault_tolerance(), 2);
        assert_eq!(cfg.batch_bytes, 1024);
    }

    #[test]
    fn three_acceptors_tolerate_one_failure() {
        assert_eq!(SystemConfig::new(1).acceptor_fault_tolerance(), 1);
    }

    #[test]
    fn default_is_sequential_smr_shape() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.mpl, 1);
        assert_eq!(cfg.group_count(), 2);
    }

    #[test]
    fn recovery_knobs_have_safe_defaults_and_chain() {
        let mut cfg = SystemConfig::new(2);
        assert_eq!(cfg.log_retention, 4096);
        assert_eq!(cfg.checkpoint_interval, None);
        cfg.log_retention(16)
            .checkpoint_interval(Some(Duration::from_millis(50)));
        assert_eq!(cfg.log_retention, 16);
        assert_eq!(cfg.checkpoint_interval, Some(Duration::from_millis(50)));
        cfg.log_retention(0);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroRetention),
            "zero retention is rejected, not clamped"
        );
    }

    #[test]
    fn transfer_and_durability_knobs_have_safe_defaults_and_chain() {
        let mut cfg = SystemConfig::new(2);
        assert_eq!(cfg.snapshot_dir, None);
        assert_eq!(cfg.transfer_chunk_bytes, 4096);
        assert_eq!(cfg.transfer_timeout, Duration::from_millis(250));
        cfg.snapshot_dir(Some(PathBuf::from("/tmp/psmr")))
            .transfer_chunk_bytes(0)
            .transfer_timeout(Duration::from_millis(50));
        assert_eq!(cfg.snapshot_dir.as_deref(), Some("/tmp/psmr".as_ref()));
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroTransferChunk),
            "zero chunk size is rejected, not clamped"
        );
        assert_eq!(cfg.transfer_timeout, Duration::from_millis(50));
    }

    #[test]
    fn wal_knobs_have_safe_defaults_and_chain() {
        let mut cfg = SystemConfig::new(2);
        assert_eq!(cfg.wal_dir, None);
        assert_eq!(cfg.wal_batch, 16);
        cfg.wal_dir(Some(PathBuf::from("/tmp/psmr-wal")))
            .wal_batch(4);
        assert_eq!(cfg.wal_dir.as_deref(), Some("/tmp/psmr-wal".as_ref()));
        assert_eq!(cfg.wal_batch, 4);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_each_zeroed_knob_with_a_typed_error() {
        let check = |mutate: fn(&mut SystemConfig), expected: ConfigError| {
            let mut cfg = SystemConfig::new(2);
            assert_eq!(cfg.validate(), Ok(()), "defaults are valid");
            mutate(&mut cfg);
            let err = cfg.validate().expect_err("zeroed knob must be rejected");
            assert_eq!(err, expected);
            assert!(!err.to_string().is_empty());
        };
        check(
            |c| {
                c.transfer_chunk_bytes(0);
            },
            ConfigError::ZeroTransferChunk,
        );
        check(
            |c| {
                c.log_retention(0);
            },
            ConfigError::ZeroRetention,
        );
        check(
            |c| {
                c.wal_batch(0);
            },
            ConfigError::ZeroWalBatch,
        );
        check(
            |c| {
                c.batch_bytes(0);
            },
            ConfigError::ZeroBatchBytes,
        );
        check(
            |c| {
                c.delivery_queue(0);
            },
            ConfigError::ZeroDeliveryQueue,
        );
    }

    #[test]
    fn pipeline_knobs_have_safe_defaults_and_chain() {
        let mut cfg = SystemConfig::new(2);
        assert!(!cfg.wal_pipeline);
        assert_eq!(cfg.delivery_queue, 1024);
        cfg.wal_pipeline(true).delivery_queue(8);
        assert!(cfg.wal_pipeline);
        assert_eq!(cfg.delivery_queue, 8);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn trace_sampling_defaults_on_and_zero_is_a_valid_off_switch() {
        let mut cfg = SystemConfig::new(2);
        assert_eq!(
            cfg.trace_sample, 32,
            "tracing is cheap enough to default on"
        );
        cfg.trace_sample(0);
        assert_eq!(cfg.trace_sample, 0);
        assert_eq!(
            cfg.validate(),
            Ok(()),
            "0 disables tracing; it is not a zeroed-capacity error"
        );
        cfg.trace_sample(128);
        assert_eq!(cfg.trace_sample, 128);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = SystemConfig::new(6);
        let json = serde_json_like(&cfg);
        assert!(json.contains("mpl"));
    }

    // serde_json is not an allowed dependency; a Debug-format smoke check is
    // enough to ensure the derives compile and fields are visible.
    fn serde_json_like(cfg: &SystemConfig) -> String {
        format!("{cfg:?}")
    }
}
