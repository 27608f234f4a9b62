//! # psmr-recovery — coordinated checkpointing and replica recovery
//!
//! The paper (§V of conf_icdcs_MarandiBP14) points out that parallel
//! SMR complicates checkpointing: with `k` workers delivering from `k`
//! different multicast streams, no single thread observes a total order
//! to cut the state at. P-SMR's answer — reused here — is to coordinate
//! the checkpoint **through the serialized group `g_all`**: a
//! [`CHECKPOINT`] control command is multicast like any globally
//! dependent command, so every worker of every replica quiesces at the
//! same consistent cut (the synchronous-mode barrier of Algorithm 1),
//! and the elected executor snapshots the service state alone.
//!
//! This crate hosts the engine-agnostic pieces of that machinery:
//!
//! * [`Snapshot`] — what a recoverable service implements on top of
//!   `Service` (serialize the full state, restore from it),
//! * [`StreamCut`] — the position of a checkpoint command inside the
//!   ordered stream that carried it; together with the deterministic
//!   merge rule this identifies the consistent cut for *every* worker,
//! * [`Checkpoint`] / [`CheckpointStore`] — the durable artifact and the
//!   deployment-wide store replicas recover from,
//! * [`AutoCheckpointer`] — a periodic driver submitting [`CHECKPOINT`]
//!   commands at the configured interval.
//!
//! Two further modules make recovery deployment-shaped instead of an
//! in-process fiction:
//!
//! * [`durable`] — [`DurableStore`]: checkpoints persisted to disk with
//!   atomic rename and crc-checked load, so a fully-restarted process
//!   recovers from its own directory,
//! * [`transfer`] — [`StateTransferServer`] / [`fetch_latest`]: a
//!   restarting replica pulls the latest checkpoint from a live peer in
//!   digest-verified chunks, falling back to the next peer when one
//!   crashes mid-transfer.
//!
//! The engine-side halves (quiescing workers, replaying the
//! `(snapshot, log suffix)` pair into a restarted replica) live in
//! `psmr-core`; the ordered-log retention they rely on lives in
//! `psmr-paxos`.

#![warn(missing_docs)]

pub mod durable;
pub mod transfer;

pub use durable::DurableStore;
pub use transfer::{
    fetch_latest, fetch_latest_via, FetchedState, StateTransferServer, TransferError, TransferMsg,
    TransferNet,
};

use parking_lot::Mutex;
use psmr_common::ids::{CommandId, GroupId};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The reserved control command that triggers a coordinated checkpoint.
///
/// Classified `Global` under every C-Dep (`psmr-core`'s
/// `CommandMap::class`): it travels on the serialized group and
/// synchronizes all workers, which is exactly the quiescence
/// checkpointing needs. Services must not declare their own command with
/// this id. The value is fixed: WAL records and snapshot files already on
/// disk carry it.
pub const CHECKPOINT: CommandId = CommandId::new(u32::MAX - 1);

/// Snapshot/restore extension of the `Service` abstraction.
///
/// Both methods take `&self`: services already use interior mutability
/// (their `execute` is `&self`), and `restore` is only invoked while the
/// replica's workers are not running. Snapshots must be **deterministic
/// encodings** — every replica snapshotting at the same cut must produce
/// byte-identical output, which also gives tests a cheap convergence
/// check.
pub trait Snapshot: Send + Sync {
    /// Serializes the complete service state.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the service state with a previously taken snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] if the bytes do not decode.
    fn restore(&self, snapshot: &[u8]) -> Result<(), RestoreError>;
}

impl<T: Snapshot + ?Sized> Snapshot for Arc<T> {
    fn snapshot(&self) -> Vec<u8> {
        (**self).snapshot()
    }

    fn restore(&self, snapshot: &[u8]) -> Result<(), RestoreError> {
        (**self).restore(snapshot)
    }
}

/// A malformed snapshot payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError {
    /// What failed to decode.
    pub what: String,
}

impl RestoreError {
    /// Builds an error naming the malformed structure.
    pub fn new(what: impl Into<String>) -> Self {
        RestoreError { what: what.into() }
    }
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed snapshot: {}", self.what)
    }
}

impl std::error::Error for RestoreError {}

/// Encodes `u64 → u64` store state into the shared snapshot layout: entry
/// count followed by the pairs, which callers supply in ascending key
/// order so every replica emits identical bytes.
///
/// This is the one codec both B+-trees and the key-value service use —
/// their snapshots restore into each other.
pub fn encode_kv_pairs(pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + pairs.len() * 16);
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (key, value) in pairs {
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

/// Decodes the layout produced by [`encode_kv_pairs`].
///
/// # Errors
///
/// Returns [`RestoreError`] on a truncated header or a length mismatch.
pub fn decode_kv_pairs(snapshot: &[u8]) -> Result<Vec<(u64, u64)>, RestoreError> {
    let count = u64::from_le_bytes(
        snapshot
            .get(0..8)
            .ok_or_else(|| RestoreError::new("kv snapshot header"))?
            .try_into()
            .expect("8-byte slice"),
    ) as usize;
    // Checked arithmetic: a corrupt header can claim usize::MAX entries,
    // and this path's contract is Err, never an overflow panic.
    let expected = count.checked_mul(16).and_then(|n| n.checked_add(8));
    if expected != Some(snapshot.len()) {
        return Err(RestoreError::new("kv snapshot length"));
    }
    let mut pairs = Vec::with_capacity(count);
    for i in 0..count {
        let at = 8 + i * 16;
        let key = u64::from_le_bytes(snapshot[at..at + 8].try_into().expect("8 bytes"));
        let value = u64::from_le_bytes(snapshot[at + 8..at + 16].try_into().expect("8 bytes"));
        pairs.push((key, value));
    }
    Ok(pairs)
}

/// The position of a delivered command inside the ordered stream that
/// carried it: `(group, batch sequence number, offset in batch)`.
///
/// For a [`CHECKPOINT`] delivered on the serialized group this pins the
/// consistent cut of **every** stream of the deployment, because the
/// deterministic merge interleaves batches round-by-round: when worker
/// `t_i` delivers `g_all` batch `seq` at `offset`, it has consumed its
/// per-worker stream `g_i` exactly through batch `seq`. A restarted
/// worker therefore resumes `g_i` at `seq + 1` and the cut's own group
/// at `seq`, skipping `offset + 1` commands of that first batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCut {
    /// The group whose stream carried the checkpoint command.
    pub group: GroupId,
    /// Sequence number of the batch containing the command.
    pub seq: u64,
    /// Offset of the command within its batch.
    pub offset: usize,
}

impl StreamCut {
    /// Orders cuts by stream position (later batches/offsets are newer).
    pub fn is_newer_than(&self, other: &StreamCut) -> bool {
        (self.seq, self.offset) > (other.seq, other.offset)
    }
}

impl fmt::Display for StreamCut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}+{}", self.group, self.seq, self.offset)
    }
}

/// One coordinated checkpoint: a service snapshot tagged with the cut it
/// was taken at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotonically increasing checkpoint number (assigned on install).
    pub id: u64,
    /// Where in the serialized stream the checkpoint command sat.
    pub cut: StreamCut,
    /// The deterministic service-state encoding.
    pub snapshot: Vec<u8>,
}

/// Deployment-wide checkpoint repository.
///
/// Every replica executes the same [`CHECKPOINT`] commands at the same
/// cuts and produces identical snapshots, so one shared store per
/// deployment suffices: installs at an already-covered cut deduplicate,
/// and a replica that was down across several checkpoints still finds
/// the newest one here — the stand-in for fetching state from a live
/// peer during recovery.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    latest: Mutex<Option<Checkpoint>>,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a checkpoint taken at `cut`, carrying the id the
    /// installing replica derived for it. Returns whether this call
    /// actually installed it — replicas race to install the same
    /// checkpoint, the first one wins, and the rest deduplicate.
    ///
    /// Ids are **not** assigned here: every replica counts the
    /// `CHECKPOINT` commands it executes (seeded at restart with the
    /// recovery checkpoint's id), so all replicas derive the same id for
    /// the same command deterministically — a lagging replica answers an
    /// old request with the same id the fast replicas already did, no
    /// matter how far behind it is.
    pub fn install(&self, cut: StreamCut, id: u64, snapshot: Vec<u8>) -> bool {
        let mut latest = self.latest.lock();
        match &*latest {
            Some(existing) if !cut.is_newer_than(&existing.cut) => false,
            _ => {
                *latest = Some(Checkpoint { id, cut, snapshot });
                true
            }
        }
    }

    /// The most recent checkpoint, if any was ever taken.
    pub fn latest(&self) -> Option<Checkpoint> {
        self.latest.lock().clone()
    }

    /// Number of the most recent checkpoint (0 when none).
    pub fn latest_id(&self) -> u64 {
        self.latest.lock().as_ref().map_or(0, |c| c.id)
    }
}

/// Errors surfaced by replica recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryError {
    /// No checkpoint exists to restart from.
    NoCheckpoint,
    /// The replica is not in a state that allows the operation (e.g.
    /// restarting a replica that was never crashed).
    NotCrashed,
    /// The referenced replica id is out of range.
    UnknownReplica {
        /// The out-of-range replica index.
        replica: usize,
    },
    /// The engine was spawned without recovery support.
    NotRecoverable,
    /// The ordered log no longer covers the checkpoint's cut (retention
    /// trimmed past it before the replica came back).
    LogTrimmed {
        /// The group whose log is short.
        group: GroupId,
        /// The first sequence number the recovery needed.
        needed: u64,
    },
    /// The recovery checkpoint's cut was trimmed out from under the
    /// restart (a concurrent checkpoint raced it) and no fresher
    /// recovery point could be obtained — the restart must be retried
    /// against a fresher source rather than looping on the stale cut.
    CutTrimmed {
        /// The cut whose log suffix disappeared mid-restart.
        cut: StreamCut,
    },
    /// Peer state transfer failed and no local snapshot could stand in.
    Transfer(transfer::TransferError),
    /// The snapshot bytes failed to decode.
    Restore(RestoreError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NoCheckpoint => write!(f, "no checkpoint to restart from"),
            RecoveryError::NotCrashed => write!(f, "replica is not crashed"),
            RecoveryError::UnknownReplica { replica } => {
                write!(f, "replica s{replica} is not part of this deployment")
            }
            RecoveryError::NotRecoverable => {
                write!(f, "engine was spawned without recovery support")
            }
            RecoveryError::LogTrimmed { group, needed } => {
                write!(f, "log of {group} trimmed past needed seq {needed}")
            }
            RecoveryError::CutTrimmed { cut } => {
                write!(f, "recovery cut {cut} was trimmed mid-restart; retry")
            }
            RecoveryError::Transfer(e) => write!(f, "{e}"),
            RecoveryError::Restore(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<RestoreError> for RecoveryError {
    fn from(e: RestoreError) -> Self {
        RecoveryError::Restore(e)
    }
}

impl From<transfer::TransferError> for RecoveryError {
    fn from(e: transfer::TransferError) -> Self {
        RecoveryError::Transfer(e)
    }
}

/// Periodically fires a checkpoint trigger (typically a closure that
/// multicasts a [`CHECKPOINT`] command) until stopped.
#[derive(Debug)]
pub struct AutoCheckpointer {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AutoCheckpointer {
    /// Spawns the driver; `trigger` runs once per `interval`.
    pub fn spawn(interval: Duration, trigger: impl FnMut() + Send + 'static) -> Self {
        Self::spawn_with_clock(interval, Arc::new(psmr_common::runtime::RealClock), trigger)
    }

    /// [`AutoCheckpointer::spawn`] with the interval measured on an
    /// injected clock — under a virtual clock the driver fires when the
    /// test advances time, not when the host does.
    pub fn spawn_with_clock(
        interval: Duration,
        clock: psmr_common::runtime::ClockHandle,
        mut trigger: impl FnMut() + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("auto-checkpoint".into())
            .spawn(move || {
                // Sleep in small slices so stop() returns promptly even
                // with long intervals.
                let slice = interval
                    .min(Duration::from_millis(20))
                    .max(Duration::from_micros(100));
                let mut elapsed = Duration::ZERO;
                while !stop_flag.load(Ordering::Relaxed) {
                    clock.sleep(slice);
                    elapsed += slice;
                    if elapsed >= interval {
                        elapsed = Duration::ZERO;
                        trigger();
                    }
                }
            })
            .expect("spawn auto-checkpointer");
        Self {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the driver and joins its thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AutoCheckpointer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn cut(seq: u64, offset: usize) -> StreamCut {
        StreamCut {
            group: GroupId::new(2),
            seq,
            offset,
        }
    }

    #[test]
    fn store_installs_monotonically() {
        let store = CheckpointStore::new();
        assert_eq!(store.latest_id(), 0);
        assert!(store.latest().is_none());
        assert!(store.install(cut(3, 0), 1, vec![1]));
        // Same cut from the second replica: deduplicated.
        assert!(!store.install(cut(3, 0), 1, vec![1]));
        // Older cut never rolls back.
        assert!(!store.install(cut(2, 5), 9, vec![9]));
        assert_eq!(store.latest().expect("installed").snapshot, vec![1]);
        // Newer cut advances.
        assert!(store.install(cut(3, 1), 2, vec![2]));
        assert_eq!(store.latest_id(), 2);
    }

    #[test]
    fn cut_ordering_is_seq_then_offset() {
        assert!(cut(2, 0).is_newer_than(&cut(1, 9)));
        assert!(cut(1, 3).is_newer_than(&cut(1, 2)));
        assert!(!cut(1, 2).is_newer_than(&cut(1, 2)));
        assert_eq!(cut(1, 2).to_string(), "g2@1+2");
    }

    #[test]
    fn checkpoint_command_id_is_stable() {
        assert_eq!(CHECKPOINT.as_raw(), u32::MAX - 1);
    }

    #[test]
    fn auto_checkpointer_fires_and_stops() {
        let fired = Arc::new(AtomicU64::new(0));
        let probe = Arc::clone(&fired);
        let driver = AutoCheckpointer::spawn(Duration::from_millis(5), move || {
            probe.fetch_add(1, Ordering::Relaxed);
        });
        std::thread::sleep(Duration::from_millis(60));
        driver.stop();
        let count = fired.load(Ordering::Relaxed);
        assert!(count >= 2, "fired {count} times");
    }

    #[test]
    fn kv_codec_round_trips_and_rejects_corruption() {
        let pairs = vec![(1u64, 10u64), (2, 20), (9, 90)];
        let bytes = encode_kv_pairs(&pairs);
        assert_eq!(decode_kv_pairs(&bytes).expect("round trip"), pairs);
        assert_eq!(decode_kv_pairs(&encode_kv_pairs(&[])).unwrap(), vec![]);
        assert!(decode_kv_pairs(&[1, 2, 3]).is_err(), "truncated header");
        assert!(
            decode_kv_pairs(&bytes[..bytes.len() - 1]).is_err(),
            "truncated body"
        );
        // A corrupt header claiming usize::MAX entries must yield Err,
        // not an arithmetic-overflow panic.
        assert!(decode_kv_pairs(&[0xff; 8]).is_err(), "absurd count");
    }

    #[test]
    fn recovery_errors_display() {
        assert!(RecoveryError::NoCheckpoint
            .to_string()
            .contains("no checkpoint"));
        let e = RecoveryError::LogTrimmed {
            group: GroupId::new(1),
            needed: 7,
        };
        assert!(e.to_string().contains("g1"));
        let e: RecoveryError = RestoreError::new("kv pair count").into();
        assert!(e.to_string().contains("kv pair count"));
        let e = RecoveryError::CutTrimmed { cut: cut(4, 1) };
        assert!(e.to_string().contains("trimmed mid-restart"));
        let e: RecoveryError = transfer::TransferError::NoPeers.into();
        assert!(e.to_string().contains("no live peer"));
    }
}
