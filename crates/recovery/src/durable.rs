//! Durable (on-disk) snapshots.
//!
//! A [`DurableStore`] persists each coordinated checkpoint — snapshot
//! bytes plus its [`StreamCut`] manifest — as one self-describing file.
//! Writes go to a temporary file first and are published with an
//! **atomic rename**, so a crash mid-write never leaves a half-visible
//! checkpoint: the store either still serves the previous file or
//! already serves the complete new one. Loads verify a CRC-32 over the
//! snapshot body and skip (never trust) corrupt files.
//!
//! This is the "recover from your own disk" half of the recovery story:
//! a fully-restarted replica process restores from the newest valid file
//! in its own directory, then catches up from live peers (see
//! [`crate::transfer`]) when the cluster has checkpointed past it.
//!
//! The v2 header still carries an epoch and a length-prefixed table
//! ahead of the body, from a retired extension that changed the C-G
//! online. They are written as 0 and empty, so files stay
//! byte-compatible, and are discarded on load; v1 files (no table field)
//! load too.

use crate::{Checkpoint, StreamCut};
use psmr_common::ids::GroupId;
use psmr_common::metrics::{counters, global};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a durable P-SMR snapshot.
const MAGIC: &[u8; 8] = b"PSMRSNAP";
/// On-disk layout version written by [`DurableStore::persist`].
const VERSION: u32 = 2;
/// The pre-table layout; still decoded so existing snapshot files stay
/// loadable.
const VERSION_V1: u32 = 1;
/// Fixed v2 header length: magic + version + id + cut (group, seq,
/// offset) + epoch + table length + body length + crc over table ++ body.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 4;
/// Fixed v1 header length: as v2, without the table length field.
const HEADER_LEN_V1: usize = 8 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 4;

/// CRC-32 of the snapshot body — the shared [`psmr_common::crc::crc32`],
/// the same checksum the WAL record frames use.
pub use psmr_common::crc::crc32;

/// One replica's on-disk checkpoint repository.
///
/// # Example
///
/// ```
/// use psmr_common::ids::GroupId;
/// use psmr_recovery::{Checkpoint, DurableStore, StreamCut};
///
/// let dir = std::env::temp_dir().join("psmr-durable-doctest");
/// let _ = std::fs::remove_dir_all(&dir);
/// let store = DurableStore::open(&dir).unwrap();
/// assert!(store.load_latest().is_none());
/// let ckpt = Checkpoint {
///     id: 1,
///     cut: StreamCut { group: GroupId::new(2), seq: 9, offset: 0 },
///     snapshot: vec![1, 2, 3],
/// };
/// store.persist(&ckpt).unwrap();
/// assert_eq!(store.load_latest(), Some(ckpt));
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
}

impl DurableStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory the store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persists one checkpoint: writes `ckpt-<id>.psmr.tmp`, fsyncs, then
    /// atomically renames it into place. Returns the published path.
    ///
    /// # Errors
    ///
    /// Returns the underlying error of the failed write/rename; a failed
    /// persist leaves no partial file visible to [`DurableStore::load_latest`].
    pub fn persist(&self, checkpoint: &Checkpoint) -> io::Result<PathBuf> {
        let name = format!("ckpt-{:020}.psmr", checkpoint.id);
        let tmp = self.dir.join(format!("{name}.tmp"));
        let published = self.dir.join(name);
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&encode(checkpoint))?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &published)?;
        global().counter(counters::SNAPSHOTS_PERSISTED).inc();
        Ok(published)
    }

    /// Loads the newest valid checkpoint: scans every `*.psmr` file,
    /// decodes and crc-verifies each, and returns the one with the
    /// newest [`StreamCut`]. Corrupt or truncated files are skipped (and
    /// counted under `snapshot_load_failures`), never trusted — a
    /// damaged newest file therefore **falls back to the next-older
    /// valid checkpoint** instead of erroring the restart.
    pub fn load_latest(&self) -> Option<Checkpoint> {
        let newest = self.load_all().into_iter().next();
        if newest.is_some() {
            global().counter(counters::SNAPSHOTS_LOADED).inc();
        }
        newest
    }

    /// Loads **every** valid checkpoint, newest cut first — the
    /// candidate list a cold start walks when the newest snapshot's log
    /// suffix turns out unusable. Corrupt files are skipped exactly as
    /// in [`DurableStore::load_latest`].
    pub fn load_all(&self) -> Vec<Checkpoint> {
        let mut valid = Vec::new();
        for path in self.snapshot_files() {
            match read_file(&path) {
                Some(loaded) => valid.push(loaded),
                None => {
                    global().counter(counters::SNAPSHOT_LOAD_FAILURES).inc();
                }
            }
        }
        valid.sort_by_key(|c| std::cmp::Reverse((c.cut.seq, c.cut.offset, c.id)));
        valid
    }

    /// Deletes all but the `keep` newest snapshot files (by checkpoint id,
    /// which grows with the cut). Returns how many files were removed.
    ///
    /// # Errors
    ///
    /// Returns the first deletion error; earlier deletions stick.
    pub fn retain_newest(&self, keep: usize) -> io::Result<usize> {
        let mut files = self.snapshot_files();
        files.sort();
        let excess = files.len().saturating_sub(keep);
        for path in &files[..excess] {
            fs::remove_file(path)?;
        }
        Ok(excess)
    }

    /// Paths of every published (non-temporary) snapshot file.
    fn snapshot_files(&self) -> Vec<PathBuf> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "psmr"))
            .collect()
    }
}

/// Serializes a checkpoint into the v2 on-disk layout, epoch 0 and an
/// empty table (see module docs).
fn encode(checkpoint: &Checkpoint) -> Vec<u8> {
    let body = &checkpoint.snapshot;
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&checkpoint.id.to_le_bytes());
    out.extend_from_slice(&(checkpoint.cut.group.as_raw() as u64).to_le_bytes());
    out.extend_from_slice(&checkpoint.cut.seq.to_le_bytes());
    out.extend_from_slice(&(checkpoint.cut.offset as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // epoch
    out.extend_from_slice(&0u64.to_le_bytes()); // table length
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    // The crc covers table ++ body; the table is empty.
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Parses and verifies the on-disk layout — v2, or v1 (no table field).
/// The epoch and the (crc-covered) table are discarded. `None` on any
/// mismatch.
fn decode(bytes: &[u8]) -> Option<Checkpoint> {
    if bytes.len() < HEADER_LEN_V1 || &bytes[..8] != MAGIC {
        return None;
    }
    let u32_at = |at: usize| -> u32 { u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) };
    let u64_at = |at: usize| -> u64 { u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) };
    let version = u32_at(8);
    let id = u64_at(12);
    let cut = StreamCut {
        group: GroupId::new(usize::try_from(u64_at(20)).ok()?),
        seq: u64_at(28),
        offset: usize::try_from(u64_at(36)).ok()?,
    };
    // u64_at(44) is the epoch.
    let (table_len, body_len, crc, payload) = match version {
        VERSION => {
            if bytes.len() < HEADER_LEN {
                return None;
            }
            let table_len = usize::try_from(u64_at(52)).ok()?;
            let body_len = usize::try_from(u64_at(60)).ok()?;
            (table_len, body_len, u32_at(68), bytes.get(HEADER_LEN..)?)
        }
        VERSION_V1 => {
            let body_len = usize::try_from(u64_at(52)).ok()?;
            (0, body_len, u32_at(60), bytes.get(HEADER_LEN_V1..)?)
        }
        _ => return None,
    };
    if payload.len() != table_len + body_len || crc32(payload) != crc {
        return None;
    }
    Some(Checkpoint {
        id,
        cut,
        snapshot: payload[table_len..].to_vec(),
    })
}

/// Reads and decodes one snapshot file; `None` on any I/O or format error.
fn read_file(path: &Path) -> Option<Checkpoint> {
    let mut bytes = Vec::new();
    fs::File::open(path).ok()?.read_to_end(&mut bytes).ok()?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "psmr-durable-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ckpt(id: u64, seq: u64, snapshot: Vec<u8>) -> Checkpoint {
        Checkpoint {
            id,
            cut: StreamCut {
                group: GroupId::new(4),
                seq,
                offset: 1,
            },
            snapshot,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A snapshot file built byte by byte in the v2 layout: magic,
    /// version, id, cut (group 4, `seq`, offset 1), `epoch`, table
    /// length, body length, crc over table ++ body, table, body.
    fn v2_fixture(id: u64, seq: u64, epoch: u64, table: &[u8], body: &[u8]) -> Vec<u8> {
        let mut v2 = Vec::new();
        v2.extend_from_slice(b"PSMRSNAP");
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&id.to_le_bytes());
        v2.extend_from_slice(&4u64.to_le_bytes());
        v2.extend_from_slice(&seq.to_le_bytes());
        v2.extend_from_slice(&1u64.to_le_bytes());
        v2.extend_from_slice(&epoch.to_le_bytes());
        v2.extend_from_slice(&(table.len() as u64).to_le_bytes());
        v2.extend_from_slice(&(body.len() as u64).to_le_bytes());
        let crc_input: Vec<u8> = table.iter().chain(body).copied().collect();
        v2.extend_from_slice(&crc32(&crc_input).to_le_bytes());
        v2.extend_from_slice(table);
        v2.extend_from_slice(body);
        v2
    }

    /// Persisted files round-trip, and their bytes are the v2 layout
    /// with the epoch field 0 and an empty table, so older builds still
    /// read them.
    #[test]
    fn persist_then_load_round_trips_with_epoch() {
        let dir = unique_dir("roundtrip");
        let store = DurableStore::open(&dir).unwrap();
        assert!(store.load_latest().is_none(), "empty store");
        store.persist(&ckpt(1, 5, vec![1, 2, 3])).unwrap();
        let path = store.persist(&ckpt(2, 9, vec![4, 5])).unwrap();
        assert_eq!(store.load_latest(), Some(ckpt(2, 9, vec![4, 5])));
        assert_eq!(fs::read(&path).unwrap(), v2_fixture(2, 9, 0, &[], &[4, 5]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_files_are_skipped_not_trusted() {
        let dir = unique_dir("corrupt");
        let store = DurableStore::open(&dir).unwrap();
        let good = ckpt(1, 5, vec![9; 64]);
        store.persist(&good).unwrap();
        // A newer-looking file with a flipped body byte: crc must reject it.
        let mut bytes = encode(&ckpt(2, 9, vec![7; 64]));
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(dir.join("ckpt-00000000000000000002.psmr"), bytes).unwrap();
        // Garbage that is not even a header.
        fs::write(dir.join("ckpt-garbage.psmr"), b"not a snapshot").unwrap();
        let failures_before = global().value(counters::SNAPSHOT_LOAD_FAILURES);
        let latest = store.load_latest().expect("the good file survives");
        assert_eq!(latest, good);
        assert!(global().value(counters::SNAPSHOT_LOAD_FAILURES) >= failures_before + 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The corruption-fallback contract: when the *newest* persisted
    /// checkpoint is truncated on disk, a restart falls back to the
    /// next-older valid file instead of erroring (or trusting garbage).
    #[test]
    fn truncated_newest_falls_back_to_the_older_checkpoint() {
        let dir = unique_dir("truncated-newest");
        let store = DurableStore::open(&dir).unwrap();
        let older = ckpt(1, 5, vec![1; 128]);
        store.persist(&older).unwrap();
        let newest_path = store.persist(&ckpt(2, 9, vec![2; 128])).unwrap();
        // Tear the newest file as a crashed write would.
        let bytes = fs::read(&newest_path).unwrap();
        fs::write(&newest_path, &bytes[..bytes.len() / 2]).unwrap();

        let loaded = store.load_latest().expect("older checkpoint survives");
        assert_eq!(loaded, older);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Same fallback for a bit flip anywhere in the newest file's body.
    #[test]
    fn bit_flipped_newest_falls_back_to_the_older_checkpoint() {
        let dir = unique_dir("bitflip-newest");
        let store = DurableStore::open(&dir).unwrap();
        let older = ckpt(1, 5, vec![1; 64]);
        store.persist(&older).unwrap();
        let newest_path = store.persist(&ckpt(2, 9, vec![2; 64])).unwrap();
        let mut bytes = fs::read(&newest_path).unwrap();
        let mid = HEADER_LEN + 32;
        bytes[mid] ^= 0x01;
        fs::write(&newest_path, &bytes).unwrap();

        let loaded = store.load_latest().expect("older checkpoint survives");
        assert_eq!(loaded, older);
        // load_all exposes the full candidate list, newest valid first.
        let all = store.load_all();
        assert_eq!(all.len(), 1, "the corrupt file is not a candidate");
        assert_eq!(all[0].id, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_all_orders_candidates_newest_cut_first() {
        let dir = unique_dir("load-all");
        let store = DurableStore::open(&dir).unwrap();
        for (id, seq) in [(2u64, 20u64), (1, 10), (3, 30)] {
            store.persist(&ckpt(id, seq, vec![id as u8])).unwrap();
        }
        let ids: Vec<u64> = store.load_all().iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![3, 2, 1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stray_tmp_file_is_invisible() {
        let dir = unique_dir("tmp");
        let store = DurableStore::open(&dir).unwrap();
        // A crash between write and rename leaves only the .tmp behind.
        fs::write(
            dir.join("ckpt-00000000000000000001.psmr.tmp"),
            encode(&ckpt(1, 5, vec![1])),
        )
        .unwrap();
        assert!(store.load_latest().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retain_newest_prunes_old_files() {
        let dir = unique_dir("retain");
        let store = DurableStore::open(&dir).unwrap();
        for id in 1..=5 {
            store.persist(&ckpt(id, id * 10, vec![id as u8])).unwrap();
        }
        assert_eq!(store.retain_newest(2).unwrap(), 3);
        let latest = store.load_latest().expect("newest kept");
        assert_eq!(latest.id, 5);
        assert_eq!(store.retain_newest(2).unwrap(), 0, "idempotent");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A v2 file written by an older build with a non-zero epoch and a
    /// table round-trips through the store: the body loads, and the
    /// table stays under the crc, so a flipped table byte rejects the
    /// whole file.
    #[test]
    fn table_round_trips_and_is_crc_protected() {
        let dir = unique_dir("table");
        let store = DurableStore::open(&dir).unwrap();
        let table = vec![0xAB; 37];
        let path = dir.join("ckpt-00000000000000000001.psmr");
        let mut bytes = v2_fixture(1, 5, 4, &table, &[1, 2, 3]);
        fs::write(&path, &bytes).unwrap();
        let loaded = store.load_latest().expect("persisted");
        assert_eq!(loaded, ckpt(1, 5, vec![1, 2, 3]));
        // Flip one table byte: the whole file must be rejected, not
        // loaded past a damaged header region.
        bytes[HEADER_LEN + 10] ^= 0x04;
        fs::write(&path, bytes).unwrap();
        assert!(store.load_latest().is_none(), "corrupt table rejected");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Files written by the pre-table v1 layout still load; the epoch
    /// field is discarded as it is for v2 files.
    #[test]
    fn v1_files_decode_with_an_empty_table() {
        let body = vec![6u8; 16];
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&VERSION_V1.to_le_bytes());
        v1.extend_from_slice(&3u64.to_le_bytes()); // id
        v1.extend_from_slice(&4u64.to_le_bytes()); // cut.group
        v1.extend_from_slice(&9u64.to_le_bytes()); // cut.seq
        v1.extend_from_slice(&1u64.to_le_bytes()); // cut.offset
        v1.extend_from_slice(&5u64.to_le_bytes()); // epoch
        v1.extend_from_slice(&(body.len() as u64).to_le_bytes());
        v1.extend_from_slice(&crc32(&body).to_le_bytes());
        v1.extend_from_slice(&body);
        assert_eq!(
            decode(&v1),
            Some(ckpt(3, 9, body)),
            "v1 layout stays loadable"
        );
    }

    #[test]
    fn truncated_header_and_wrong_version_are_rejected() {
        assert_eq!(decode(b"PSMRSNAP"), None);
        let mut bytes = encode(&ckpt(1, 1, vec![1]));
        bytes[8] = 99; // version
        assert_eq!(decode(&bytes), None);
        let ok = encode(&ckpt(1, 1, vec![1]));
        assert_eq!(decode(&ok[..ok.len() - 1]), None, "truncated body");
    }
}
