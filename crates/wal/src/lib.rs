//! # psmr-wal — durable write-ahead log for the ordered delivery streams
//!
//! The recovery story of the paper (§V) rebuilds a replica from a
//! checkpoint plus the ordered-command suffix — which only works while
//! that suffix exists somewhere. This crate makes it durable: every
//! multicast group appends its decided batches to a [`Wal`], a
//! **segmented append-only log** on disk, so a deployment where *every*
//! replica crashes can still cold-start from
//! `(newest snapshot, WAL suffix)` with no live peer to fetch from.
//!
//! Design, in one screen:
//!
//! * **Records** are crc-framed: `len | crc32(body) | body`, where the
//!   body carries the batch's sequence number and its commands. A flipped
//!   bit or a torn write is detected by the frame, never trusted.
//! * **Group commit**: every append is `write`n immediately, but `fsync`
//!   is issued once per [`WalOptions::batch`] appends — one sync
//!   amortized over the window, the classic group-commit trade
//!   (`wal_appends / wal_fsyncs` in the metrics registry shows the
//!   achieved batch size). The durability window is the usual one:
//!   a *process* crash loses nothing (written records survive in the
//!   OS page cache), while a *power* failure can lose up to the open
//!   window — the appends since the last `fsync`. Set `batch` to 1 to
//!   close that window at fsync-per-append cost (`wal_overhead` in
//!   `psmr-bench` prices both).
//! * **Segments**: the log rotates to a fresh `seg-<firstseq>.wal` file
//!   once the active one exceeds [`WalOptions::segment_bytes`].
//!   [`Wal::trim_below`] reclaims space by **unlinking whole segments**
//!   that a checkpoint has made unreachable — no rewrite, no compaction.
//! * **Replay tolerates a torn tail**: a crash mid-append leaves a
//!   truncated final record; [`Wal::replay`] returns the clean prefix
//!   and drops the tail (counted under `wal_torn_tails`), and
//!   [`Wal::open`] truncates the file back to the valid prefix so new
//!   appends never interleave with garbage.
//!
//! The sequence numbers stored in the log are the decided-batch numbers
//! of `psmr-paxos`: contiguous from 1 within each group's stream, skips
//! included. A reopened log therefore tells the group exactly where its
//! stream left off ([`Wal::next_seq`]), letting a cold-started group
//! *continue* the old numbering — which is what keeps every
//! checkpoint's stream cut comparable across process incarnations.
//!
//! # Example
//!
//! ```
//! use bytes::Bytes;
//! use psmr_wal::{Wal, WalOptions};
//!
//! let dir = std::env::temp_dir().join("psmr-wal-doctest");
//! let _ = std::fs::remove_dir_all(&dir);
//! let wal = Wal::open(&dir, WalOptions::default()).unwrap();
//! wal.append(1, &[Bytes::from_static(b"cmd-a")]).unwrap();
//! wal.append(2, &[]).unwrap(); // a skip
//! wal.sync().unwrap();
//! drop(wal);
//!
//! // A fresh process replays the ordered suffix.
//! let wal = Wal::open(&dir, WalOptions::default()).unwrap();
//! let records = wal.replay().unwrap();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[0].seq, 1);
//! assert_eq!(&records[0].commands[0][..], b"cmd-a");
//! assert_eq!(wal.next_seq(), 3, "the stream continues where it left off");
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

use bytes::Bytes;
use parking_lot::Mutex;
use psmr_common::crc::crc32;
use psmr_common::metrics::{counters, global, ScopedHistogram};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Callback invoked immediately before every commit `fsync`
/// ([`Wal::set_sync_hook`]). Boxed behind an `Arc` so the syncing
/// thread can call it without holding the hook lock.
pub type SyncHook = Arc<dyn Fn() + Send + Sync>;

/// Segment-file magic: identifies a P-SMR write-ahead-log segment.
const MAGIC: &[u8; 8] = b"PSMRWAL1";
/// On-disk layout version.
const VERSION: u32 = 1;
/// Segment header length: magic + version + first record seq.
const HEADER_LEN: usize = 8 + 4 + 8;
/// Record frame prefix length: body length + body crc.
const FRAME_LEN: usize = 4 + 4;
/// Upper bound accepted for one record body; anything larger is treated
/// as frame corruption rather than attempted as an allocation.
const MAX_BODY: usize = 256 * 1024 * 1024;

/// Tuning knobs of a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the active one exceeds this size.
    pub segment_bytes: usize,
    /// Group-commit window: one `fsync` per this many appends.
    pub batch: usize,
}

impl Default for WalOptions {
    /// 4 MiB segments, 16 appends per fsync — the [`psmr_common::SystemConfig`]
    /// defaults.
    fn default() -> Self {
        Self {
            segment_bytes: 4 * 1024 * 1024,
            batch: 16,
        }
    }
}

/// One decided batch as recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The batch's 1-based position in its group's stream.
    pub seq: u64,
    /// The ordered commands of the batch (empty for a skip round).
    pub commands: Vec<Bytes>,
}

/// One on-disk segment: its covering range starts at `first_seq`; the
/// range ends where the next segment begins (or at the log's tail).
#[derive(Debug, Clone)]
struct Segment {
    first_seq: u64,
    path: PathBuf,
}

#[derive(Debug)]
struct Inner {
    /// Segments sorted by `first_seq`; the last one is the active tail.
    segments: Vec<Segment>,
    /// Append handle of the active segment (`None` until first append).
    active: Option<fs::File>,
    /// Bytes written to the active segment so far (header included).
    active_bytes: u64,
    /// Sequence number the next appended record must carry.
    next_seq: u64,
    /// Appends since the last fsync (the open group-commit window).
    unsynced: usize,
    /// Sequence number the record *after the last fsynced one* would
    /// carry — the durability watermark pipelined group commit publishes.
    synced_next_seq: u64,
    /// Bytes of the active segment covered by the last fsync (what
    /// [`Wal::discard_unsynced`] truncates back to).
    synced_bytes: u64,
    /// Lifetime appends through this handle (per-log view of the global
    /// `wal_appends` counter).
    appends: u64,
    /// Lifetime group-commit fsyncs through this handle (segment-seal
    /// syncs on rotation are not counted — they are not commit syncs).
    fsyncs: u64,
}

/// A segmented append-only write-ahead log. See the [module docs](self).
///
/// All methods take `&self`; the log is internally locked so the
/// ordering thread can append while other threads trim or inspect it.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    inner: Mutex<Inner>,
    /// Where commit-`fsync` latencies are recorded once a deployment
    /// attaches its per-group histogram ([`Wal::observe_fsync`]).
    /// Separate from `opts`, which stays `Copy`.
    fsync_observer: Mutex<Option<ScopedHistogram>>,
    /// Invoked immediately before every commit `fsync` — the schedule
    /// point a deterministic-simulation harness hooks to observe (or
    /// perturb around) durability boundaries ([`Wal::set_sync_hook`]).
    sync_hook: Mutex<Option<SyncHook>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("opts", &self.opts)
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens (creating if needed) the log rooted at `dir`.
    ///
    /// Scans the existing segments, determines where the stream left off
    /// and **heals a torn tail**: if the newest segment ends in a
    /// truncated or corrupt record, the file is truncated back to its
    /// valid prefix (counted under `wal_torn_tails`) so new appends
    /// start on a clean frame boundary.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be created
    /// or the tail segment cannot be read or truncated.
    pub fn open(dir: impl Into<PathBuf>, opts: WalOptions) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segments = segment_files(&dir);
        let (next_seq, active, active_bytes) = match segments.last() {
            None => (1, None, 0),
            Some(tail) => {
                let bytes = read_file(&tail.path)?;
                let parsed = parse_segment(&bytes, tail.first_seq);
                if parsed.torn {
                    global().counter(counters::WAL_TORN_TAILS).inc();
                }
                let mut file = fs::OpenOptions::new().append(true).open(&tail.path)?;
                if parsed.valid_len < HEADER_LEN {
                    // Even the header is unreadable: rewrite it so new
                    // appends land in a well-formed (if empty) segment.
                    file.set_len(0)?;
                    file.write_all(&segment_header(tail.first_seq))?;
                    (parsed.next_seq, Some(file), HEADER_LEN as u64)
                } else {
                    if (parsed.valid_len as u64) < bytes.len() as u64 {
                        file.set_len(parsed.valid_len as u64)?;
                    }
                    (parsed.next_seq, Some(file), parsed.valid_len as u64)
                }
            }
        };
        Ok(Self {
            dir,
            opts,
            inner: Mutex::new(Inner {
                segments,
                active,
                // What is on disk at open *is* the durable baseline: a
                // reopen starts with nothing in the unsynced window.
                synced_next_seq: next_seq,
                synced_bytes: active_bytes,
                active_bytes,
                next_seq,
                unsynced: 0,
                appends: 0,
                fsyncs: 0,
            }),
            fsync_observer: Mutex::new(None),
            sync_hook: Mutex::new(None),
        })
    }

    /// Attaches the histogram every **commit** `fsync`'s latency is
    /// recorded into (segment-seal syncs on rotation are not commit
    /// syncs and are not recorded). Deployments attach a per-group
    /// scoped histogram (`wal_fsync_ns{group=G}`) at spawn — the
    /// observed-sync-cost input an adaptive sync pace needs.
    pub fn observe_fsync(&self, histogram: ScopedHistogram) {
        *self.fsync_observer.lock() = Some(histogram);
    }

    /// Installs (or clears) the callback invoked immediately before
    /// every commit `fsync` — both the windowed sync inside
    /// [`Wal::append`] and explicit [`Wal::sync`] calls. A schedule
    /// exploration harness uses this as its durability yield point;
    /// production deployments leave it unset.
    pub fn set_sync_hook(&self, hook: Option<SyncHook>) {
        *self.sync_hook.lock() = hook;
    }

    /// Fires the installed sync hook, if any, without holding the hook
    /// lock across the call.
    fn fire_sync_hook(&self) {
        let hook = self.sync_hook.lock().clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Records one commit-fsync latency into the attached observer, if
    /// any.
    fn record_fsync(&self, started: Instant) {
        if let Some(observer) = self.fsync_observer.lock().as_ref() {
            observer.record(started.elapsed());
        }
    }

    /// The directory the log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number the next appended record must carry — one past
    /// the last durable record, or the reopened stream's resume point.
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// First sequence number still covered by the log (equals
    /// [`Wal::next_seq`] when the log is empty).
    pub fn first_seq(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .segments
            .first()
            .map_or(inner.next_seq, |s| s.first_seq)
    }

    /// Number of on-disk segment files.
    pub fn segment_count(&self) -> usize {
        self.inner.lock().segments.len()
    }

    /// Appends one decided batch. The record is written to the active
    /// segment immediately; the `fsync` lands when the group-commit
    /// window ([`WalOptions::batch`]) fills, amortizing the sync cost.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] when `seq` is not the
    /// log's [`Wal::next_seq`] — the ordered stream must stay contiguous
    /// — or when the record body would exceed the frame size replay
    /// accepts (writing it would durably acknowledge a record the
    /// reader must classify as corruption); or the underlying error of
    /// a failed write/rotate/sync.
    pub fn append(&self, seq: u64, commands: &[Bytes]) -> io::Result<()> {
        let body_len = 8 + 8 + commands.iter().map(|c| 4 + c.len()).sum::<usize>();
        if body_len > MAX_BODY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("record body of {body_len} bytes exceeds the {MAX_BODY}-byte frame cap"),
            ));
        }
        let mut inner = self.inner.lock();
        if seq != inner.next_seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "append seq {seq} breaks contiguity (next is {})",
                    inner.next_seq
                ),
            ));
        }
        // Rotate (or create the first segment) before the record goes in,
        // so a segment's covering range always starts at its first record.
        let rotate = match &inner.active {
            None => true,
            Some(_) => inner.active_bytes >= self.opts.segment_bytes as u64,
        };
        if rotate {
            if let Some(old) = inner.active.take() {
                // A closed segment is sealed durable before the log moves
                // on; replay never finds a torn record behind the tail.
                old.sync_all()?;
                inner.unsynced = 0;
                inner.synced_next_seq = inner.next_seq;
            }
            let path = self.dir.join(format!("seg-{seq:020}.wal"));
            let mut file = fs::OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)?;
            file.write_all(&segment_header(seq))?;
            // The new directory entry must reach disk too: fsyncing the
            // file alone leaves the segment itself able to vanish in a
            // power failure, losing far more than the group-commit
            // window.
            sync_dir(&self.dir)?;
            inner.segments.push(Segment {
                first_seq: seq,
                path,
            });
            inner.active = Some(file);
            inner.active_bytes = HEADER_LEN as u64;
            // The fresh header survives a discard: truncating back to it
            // leaves a valid, empty segment.
            inner.synced_bytes = HEADER_LEN as u64;
            global().counter(counters::WAL_SEGMENTS_CREATED).inc();
        }
        let frame = encode_record(seq, commands);
        let file = inner.active.as_mut().expect("active segment exists");
        file.write_all(&frame)?;
        inner.active_bytes += frame.len() as u64;
        inner.next_seq = seq + 1;
        inner.unsynced += 1;
        inner.appends += 1;
        global().counter(counters::WAL_APPENDS).inc();
        if inner.unsynced >= self.opts.batch {
            self.fire_sync_hook();
            let sync_started = Instant::now();
            inner.active.as_ref().expect("active").sync_all()?;
            self.record_fsync(sync_started);
            inner.unsynced = 0;
            inner.synced_next_seq = inner.next_seq;
            inner.synced_bytes = inner.active_bytes;
            inner.fsyncs += 1;
            global().counter(counters::WAL_FSYNCS).inc();
        }
        Ok(())
    }

    /// Lifetime appends through this handle.
    pub fn append_count(&self) -> u64 {
        self.inner.lock().appends
    }

    /// Lifetime group-commit `fsync`s through this handle.
    pub fn fsync_count(&self) -> u64 {
        self.inner.lock().fsyncs
    }

    /// Forces the open group-commit window to disk (no-op when every
    /// appended record is already synced).
    ///
    /// The `fsync` itself runs **outside the log's lock**: appends keep
    /// flowing while the sync is in flight, which is what lets a
    /// pipelined sync thread group-commit without stalling the ordering
    /// thread. The durability markers are published afterwards and only
    /// ever move forward, so a rotation racing the sync cannot regress
    /// them.
    ///
    /// # Errors
    ///
    /// Returns the underlying `fsync` error.
    pub fn sync(&self) -> io::Result<()> {
        // Snapshot the open window under the lock; fsync outside it.
        let (file, covered_seq, covered_bytes, covered_segment) = {
            let inner = self.inner.lock();
            if inner.unsynced == 0 {
                return Ok(());
            }
            let file = inner
                .active
                .as_ref()
                .expect("unsynced implies active")
                .try_clone()?;
            (
                file,
                inner.next_seq,
                inner.active_bytes,
                inner.segments.len(),
            )
        };
        self.fire_sync_hook();
        let sync_started = Instant::now();
        file.sync_all()?;
        self.record_fsync(sync_started);
        let mut inner = self.inner.lock();
        if covered_seq > inner.synced_next_seq {
            inner.synced_next_seq = covered_seq;
            // A rotation may have swapped the active segment while the
            // fsync ran; its seal already published the old segment, and
            // the new segment's byte marker must not be overwritten with
            // the old file's length.
            if inner.segments.len() == covered_segment {
                inner.synced_bytes = covered_bytes;
            }
            inner.fsyncs += 1;
            global().counter(counters::WAL_FSYNCS).inc();
        }
        // Records appended while the fsync ran stay in the open window.
        inner.unsynced = (inner.next_seq - inner.synced_next_seq) as usize;
        Ok(())
    }

    /// Sequence number the record after the **last fsynced** one would
    /// carry — the per-log durability watermark. Records with
    /// `seq < durable_next_seq()` survive a power failure; the window
    /// `durable_next_seq()..next_seq()` is written but not yet covered
    /// by an `fsync`.
    pub fn durable_next_seq(&self) -> u64 {
        self.inner.lock().synced_next_seq
    }

    /// **Power-failure fault injection**: drops the open group-commit
    /// window by truncating the active segment back to its last fsynced
    /// length, exactly what a power cut would do to the unsynced tail.
    /// Returns how many appended records were discarded. Crash-recovery
    /// tests use this to turn an in-process "crash" (where the page
    /// cache, and thus every written byte, survives) into the power-loss
    /// model the durability watermark defends against.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the active segment cannot be
    /// truncated.
    pub fn discard_unsynced(&self) -> io::Result<u64> {
        let mut inner = self.inner.lock();
        let discarded = inner.next_seq - inner.synced_next_seq;
        if discarded == 0 {
            return Ok(0);
        }
        let synced_bytes = inner.synced_bytes;
        inner
            .active
            .as_ref()
            .expect("unsynced records imply an active segment")
            .set_len(synced_bytes)?;
        inner.active_bytes = synced_bytes;
        inner.next_seq = inner.synced_next_seq;
        inner.unsynced = 0;
        Ok(discarded)
    }

    /// Reclaims segments whose **every** record has `seq < below` by
    /// unlinking them — called once a checkpoint covers that prefix.
    /// The tail segment is never removed (it carries the stream's resume
    /// point), so trimming is at segment granularity: a recovery may
    /// replay a little more than it strictly needs, never less. Returns
    /// how many segment files were removed.
    ///
    /// # Errors
    ///
    /// Returns the first deletion error; earlier deletions stick.
    pub fn trim_below(&self, below: u64) -> io::Result<usize> {
        let mut inner = self.inner.lock();
        let mut removed = 0;
        // segments[0] is fully below the cut iff the next segment starts
        // at or before it — its range ends where segments[1] begins.
        while inner.segments.len() >= 2 && inner.segments[1].first_seq <= below {
            let victim = inner.segments.remove(0);
            fs::remove_file(&victim.path)?;
            removed += 1;
            global().counter(counters::WAL_SEGMENTS_TRIMMED).inc();
        }
        if removed > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// Replays every durable record, oldest first — the ordered suffix a
    /// cold start feeds back into the retained logs. A torn tail
    /// (truncated or corrupt final record) is dropped and the clean
    /// prefix returned; corruption *before* the tail also stops the
    /// replay there, since everything after an unreadable frame is
    /// unreachable.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when a segment file cannot be read.
    pub fn replay(&self) -> io::Result<Vec<WalRecord>> {
        let segments: Vec<Segment> = self.inner.lock().segments.clone();
        let mut records = Vec::new();
        for (i, segment) in segments.iter().enumerate() {
            let bytes = read_file(&segment.path)?;
            let parsed = parse_segment(&bytes, segment.first_seq);
            records.extend(parsed.records);
            if parsed.torn {
                global().counter(counters::WAL_TORN_TAILS).inc();
                break;
            }
            // Cross-segment contiguity: a gap means the next segment's
            // records are unreachable from this stream position.
            if let Some(next) = segments.get(i + 1) {
                if next.first_seq != parsed.next_seq {
                    break;
                }
            }
        }
        global()
            .counter(counters::WAL_REPLAY_RECORDS)
            .add(records.len() as u64);
        Ok(records)
    }
}

/// Serializes a segment header: magic, layout version, first record seq.
fn segment_header(first_seq: u64) -> Vec<u8> {
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&first_seq.to_le_bytes());
    header
}

/// Serializes one record frame: `len | crc32(body) | body` with
/// `body = seq | command count | (len | bytes)*`.
fn encode_record(seq: u64, commands: &[Bytes]) -> Vec<u8> {
    let body_len = 8 + 8 + commands.iter().map(|c| 4 + c.len()).sum::<usize>();
    let mut out = Vec::with_capacity(FRAME_LEN + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]); // crc placeholder
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(commands.len() as u64).to_le_bytes());
    for c in commands {
        out.extend_from_slice(&(c.len() as u32).to_le_bytes());
        out.extend_from_slice(c);
    }
    let crc = crc32(&out[FRAME_LEN..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// What a segment scan recovered.
struct ParsedSegment {
    records: Vec<WalRecord>,
    /// Bytes of the file that form valid frames (header included).
    valid_len: usize,
    /// Sequence number the record after the valid prefix would carry.
    next_seq: u64,
    /// Whether trailing bytes past the valid prefix were dropped.
    torn: bool,
}

/// Scans one segment's bytes, stopping at the first invalid frame.
/// Command payloads are zero-copy [`Bytes::slice`]s of the segment
/// buffer — replay hands the stream back without re-allocating each
/// command.
fn parse_segment(bytes: &Bytes, first_seq: u64) -> ParsedSegment {
    let mut records = Vec::new();
    let mut expect_seq = first_seq;
    let header_ok = bytes.len() >= HEADER_LEN
        && &bytes[..8] == MAGIC
        && u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) == VERSION
        && u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes")) == first_seq;
    if !header_ok {
        return ParsedSegment {
            records,
            valid_len: 0,
            next_seq: first_seq,
            torn: !bytes.is_empty(),
        };
    }
    let mut at = HEADER_LEN;
    while let Some(frame) = bytes.get(at..at + FRAME_LEN) {
        let body_len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        if body_len > MAX_BODY {
            break;
        }
        if bytes.len() < at + FRAME_LEN + body_len {
            break;
        }
        let body = bytes.slice(at + FRAME_LEN..at + FRAME_LEN + body_len);
        if crc32(&body) != crc {
            break;
        }
        let Some(record) = decode_body(&body) else {
            break;
        };
        if record.seq != expect_seq {
            break;
        }
        expect_seq += 1;
        at += FRAME_LEN + body_len;
        records.push(record);
    }
    ParsedSegment {
        records,
        valid_len: at,
        next_seq: expect_seq,
        torn: at < bytes.len(),
    }
}

/// Decodes a crc-verified record body. `None` on a malformed layout
/// (possible despite the crc only if the writer was buggy). Command
/// payloads are slices sharing the segment buffer — no per-command copy.
fn decode_body(body: &Bytes) -> Option<WalRecord> {
    let seq = u64::from_le_bytes(body.get(..8)?.try_into().ok()?);
    let count = u64::from_le_bytes(body.get(8..16)?.try_into().ok()?);
    let count = usize::try_from(count).ok()?;
    let mut commands = Vec::with_capacity(count.min(4096));
    let mut at = 16;
    for _ in 0..count {
        let len = u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        body.get(at..at + len)?;
        commands.push(body.slice(at..at + len));
        at += len;
    }
    if at != body.len() {
        return None;
    }
    Some(WalRecord { seq, commands })
}

/// The segment files of `dir`, sorted by first sequence number.
fn segment_files(dir: &Path) -> Vec<Segment> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut segments: Vec<Segment> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let first_seq: u64 = name
                .strip_prefix("seg-")?
                .strip_suffix(".wal")?
                .parse()
                .ok()?;
            Some(Segment { first_seq, path })
        })
        .collect();
    segments.sort_by_key(|s| s.first_seq);
    segments
}

/// Persists a directory's entry table (after segment create/unlink):
/// `sync_all` on a file does not cover the directory inode that names
/// it, and a segment that vanishes in a power failure would lose every
/// fsynced record inside it.
fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Reads a whole file into one shared buffer (segments are bounded by
/// rotation); replayed command payloads slice it without copying.
fn read_file(path: &Path) -> io::Result<Bytes> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    Ok(Bytes::from(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "psmr-wal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn opts(segment_bytes: usize, batch: usize) -> WalOptions {
        WalOptions {
            segment_bytes,
            batch,
        }
    }

    fn cmd(tag: u8, len: usize) -> Bytes {
        Bytes::from(vec![tag; len])
    }

    #[test]
    fn attached_observer_sees_commit_fsyncs_only() {
        use psmr_common::metrics::{histograms, MetricsRegistry};
        let dir = unique_dir("observe");
        let registry = MetricsRegistry::new();
        let wal = Wal::open(&dir, opts(1 << 20, 2)).expect("open");
        wal.observe_fsync(
            registry
                .scoped("group", 0)
                .histogram(histograms::WAL_FSYNC_NS),
        );
        wal.append(1, &[cmd(1, 16)]).expect("append");
        assert_eq!(
            registry.histogram(histograms::WAL_FSYNC_NS).count(),
            0,
            "window open, no commit sync yet"
        );
        wal.append(2, &[cmd(2, 16)]).expect("append closes window");
        assert_eq!(registry.histogram("wal_fsync_ns{group=0}").count(), 1);
        wal.append(3, &[cmd(3, 16)]).expect("append");
        wal.sync().expect("explicit sync");
        assert_eq!(
            registry.histogram(histograms::WAL_FSYNC_NS).count(),
            2,
            "the out-of-lock sync() path records too"
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = unique_dir("roundtrip");
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.next_seq(), 1);
        wal.append(1, &[cmd(1, 4), cmd(2, 0)]).unwrap();
        wal.append(2, &[]).unwrap(); // a skip round
        wal.append(3, &[cmd(3, 9)]).unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].commands, vec![cmd(1, 4), cmd(2, 0)]);
        assert!(records[1].commands.is_empty());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_the_stream() {
        let dir = unique_dir("reopen");
        {
            let wal = Wal::open(&dir, WalOptions::default()).unwrap();
            for seq in 1..=5 {
                wal.append(seq, &[cmd(seq as u8, 8)]).unwrap();
            }
            wal.sync().unwrap();
        }
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.next_seq(), 6, "resume point survives reopen");
        assert_eq!(wal.first_seq(), 1);
        wal.append(6, &[cmd(6, 8)]).unwrap();
        assert_eq!(wal.replay().unwrap().len(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_must_stay_contiguous() {
        let dir = unique_dir("contiguous");
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(1, &[]).unwrap();
        let err = wal.append(5, &[]).expect_err("gap rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = wal.append(1, &[]).expect_err("duplicate rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        wal.append(2, &[]).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A record too large for replay's frame cap must be rejected by
    /// the writer — durably acknowledging a record the reader would
    /// classify as corruption loses it (and everything behind it).
    #[test]
    fn oversized_record_is_rejected_at_append_not_at_replay() {
        let dir = unique_dir("oversized");
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        // Bytes clones share one buffer: a >256 MiB body costs 1 MiB.
        let chunk = Bytes::from(vec![7u8; 1024 * 1024]);
        let commands: Vec<Bytes> = (0..257).map(|_| chunk.clone()).collect();
        let err = wal.append(1, &commands).expect_err("over the frame cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // The log is untouched: seq 1 is still free for a sane record.
        wal.append(1, &[chunk]).unwrap();
        assert_eq!(wal.replay().unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_creates_segments_and_trim_unlinks_them() {
        let dir = unique_dir("rotate");
        // ~100-byte records against a 256-byte threshold: a few records
        // per segment.
        let wal = Wal::open(&dir, opts(256, 1)).unwrap();
        for seq in 1..=20 {
            wal.append(seq, &[cmd(seq as u8, 100)]).unwrap();
        }
        let segments = wal.segment_count();
        assert!(
            segments >= 4,
            "rotation split the log ({segments} segments)"
        );
        assert_eq!(wal.replay().unwrap().len(), 20, "rotation loses nothing");

        // Trim below 11: every segment fully below seq 11 is unlinked.
        let removed = wal.trim_below(11).unwrap();
        assert!(removed >= 1, "trim reclaimed segments");
        assert_eq!(wal.segment_count(), segments - removed);
        assert!(
            wal.first_seq() <= 11,
            "covered prefix still reaches the cut"
        );
        let replayed = wal.replay().unwrap();
        assert_eq!(replayed.last().unwrap().seq, 20);
        assert!(replayed.first().unwrap().seq <= 11);
        // The files are really gone.
        assert_eq!(segment_files(&dir).len(), wal.segment_count());

        // The tail segment is never removed, however deep the trim.
        wal.trim_below(u64::MAX).unwrap();
        assert_eq!(wal.segment_count(), 1);
        assert_eq!(wal.next_seq(), 21);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The durability watermark: `durable_next_seq` trails `next_seq` by
    /// the open group-commit window and catches up on every fsync, and
    /// `discard_unsynced` drops exactly that window — the power-failure
    /// half of crash testing.
    #[test]
    fn durable_watermark_tracks_fsyncs_and_discard_drops_the_window() {
        let dir = unique_dir("watermark");
        let wal = Wal::open(&dir, opts(usize::MAX, usize::MAX)).unwrap();
        assert_eq!(wal.durable_next_seq(), 1);
        for seq in 1..=5 {
            wal.append(seq, &[cmd(seq as u8, 16)]).unwrap();
        }
        assert_eq!(wal.next_seq(), 6);
        assert_eq!(wal.durable_next_seq(), 1, "nothing fsynced yet");
        wal.sync().unwrap();
        assert_eq!(wal.durable_next_seq(), 6, "sync advances the watermark");
        // Append past the watermark, then lose power.
        for seq in 6..=8 {
            wal.append(seq, &[cmd(seq as u8, 16)]).unwrap();
        }
        assert_eq!(wal.discard_unsynced().unwrap(), 3);
        assert_eq!(wal.next_seq(), 6, "stream resumes at the watermark");
        assert_eq!(wal.replay().unwrap().len(), 5, "durable prefix intact");
        // The healed log keeps appending cleanly from the watermark.
        wal.append(6, &[cmd(9, 16)]).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.replay().unwrap().len(), 6);
        assert_eq!(wal.discard_unsynced().unwrap(), 0, "nothing open");
        // A reopened log treats everything on disk as durable.
        drop(wal);
        let wal = Wal::open(&dir, opts(usize::MAX, usize::MAX)).unwrap();
        assert_eq!(wal.durable_next_seq(), wal.next_seq());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Discard across a rotation boundary: sealed segments are durable,
    /// only the active segment's unsynced records vanish.
    #[test]
    fn discard_unsynced_preserves_sealed_segments() {
        let dir = unique_dir("watermark-rotate");
        // Tiny segments force a rotation; no automatic commit fsyncs.
        let wal = Wal::open(&dir, opts(128, usize::MAX)).unwrap();
        for seq in 1..=6 {
            wal.append(seq, &[cmd(seq as u8, 100)]).unwrap();
        }
        assert!(wal.segment_count() >= 2, "rotation happened");
        let discarded = wal.discard_unsynced().unwrap();
        assert!(discarded >= 1);
        let replayed = wal.replay().unwrap();
        assert_eq!(replayed.len() as u64, 6 - discarded);
        assert_eq!(wal.next_seq(), 7 - discarded);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_amortizes_fsyncs() {
        let dir = unique_dir("groupcommit");
        let wal = Wal::open(&dir, opts(usize::MAX, 8)).unwrap();
        for seq in 1..=16 {
            wal.append(seq, &[cmd(1, 16)]).unwrap();
        }
        assert_eq!(wal.append_count(), 16);
        assert_eq!(wal.fsync_count(), 2, "16 appends at batch 8 = 2 fsyncs");
        // A partial window syncs on demand, and only then.
        wal.append(17, &[]).unwrap();
        wal.sync().unwrap();
        wal.sync().unwrap(); // idempotent: nothing left unsynced
        assert_eq!(wal.fsync_count(), 3);
        // A tighter window costs proportionally more syncs.
        let dir2 = unique_dir("groupcommit-tight");
        let tight = Wal::open(&dir2, opts(usize::MAX, 1)).unwrap();
        for seq in 1..=16 {
            tight.append(seq, &[cmd(1, 16)]).unwrap();
        }
        assert_eq!(tight.fsync_count(), 16, "batch 1 syncs every append");
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    /// The torn-tail contract: a record truncated mid-write (the crash
    /// window of group commit) is dropped; the prefix replays cleanly;
    /// reopening heals the file so the stream continues on a frame
    /// boundary.
    #[test]
    fn torn_tail_is_dropped_and_the_prefix_replays() {
        let dir = unique_dir("torn");
        {
            let wal = Wal::open(&dir, WalOptions::default()).unwrap();
            for seq in 1..=4 {
                wal.append(seq, &[cmd(seq as u8, 32)]).unwrap();
            }
            wal.sync().unwrap();
        }
        // Tear the tail: chop half of the final record off.
        let seg = &segment_files(&dir)[0].path;
        let bytes = fs::read(seg).unwrap();
        fs::write(seg, &bytes[..bytes.len() - 20]).unwrap();

        let torn_before = global().value(counters::WAL_TORN_TAILS);
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert!(global().value(counters::WAL_TORN_TAILS) > torn_before);
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 3, "truncated last record dropped");
        assert_eq!(records.last().unwrap().seq, 3);
        assert_eq!(wal.next_seq(), 4, "stream resumes at the dropped record");
        // The healed log accepts the re-decided record and replays whole.
        wal.append(4, &[cmd(9, 32)]).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.replay().unwrap().len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_stops_replay_at_the_corruption() {
        let dir = unique_dir("bitflip");
        {
            let wal = Wal::open(&dir, WalOptions::default()).unwrap();
            for seq in 1..=4 {
                wal.append(seq, &[cmd(seq as u8, 32)]).unwrap();
            }
            wal.sync().unwrap();
        }
        // Flip one bit inside the third record's body.
        let seg = &segment_files(&dir)[0].path;
        let mut bytes = fs::read(seg).unwrap();
        let frame = FRAME_LEN + 8 + 8 + 4 + 32;
        let at = HEADER_LEN + 2 * frame + FRAME_LEN + 5;
        bytes[at] ^= 0x10;
        fs::write(seg, &bytes).unwrap();

        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 2, "replay stops at the corrupt frame");
        assert_eq!(wal.next_seq(), 3, "appends resume behind the valid prefix");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_garbage_segments_are_not_trusted() {
        let dir = unique_dir("garbage");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("seg-00000000000000000001.wal"), b"not a wal").unwrap();
        fs::write(dir.join("unrelated.txt"), b"ignored").unwrap();
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.replay().unwrap(), Vec::new());
        assert_eq!(wal.next_seq(), 1, "garbage contributes nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absurd_frame_length_is_corruption_not_an_allocation() {
        let dir = unique_dir("absurd");
        {
            let wal = Wal::open(&dir, WalOptions::default()).unwrap();
            wal.append(1, &[cmd(1, 8)]).unwrap();
            wal.sync().unwrap();
        }
        let seg = &segment_files(&dir)[0].path;
        let mut bytes = fs::read(seg).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 12]);
        fs::write(seg, &bytes).unwrap();
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.replay().unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
