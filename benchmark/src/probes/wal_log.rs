//! `wal`: `Wal::append` of a four-command batch, `Wal::sync` after
//! sixteen appends (the default group-commit window), and the bytes on
//! disk per command.

use super::{sample_request, BATCHES};
use crate::guard;
use crate::stats;
use crate::traced::Layer;
use bytes::Bytes;
use psmr_wal::{Wal, WalOptions};
use std::time::Instant;

const APPENDS_PER_SYNC: u64 = 16;
const COMMANDS_PER_APPEND: u64 = 4;

pub fn run(out: &mut Layer) {
    let Ok(dir) = guard::scratch_dir("wal-probe") else {
        return;
    };
    // The probe syncs by hand, so the log's own window is out of reach.
    let opts = WalOptions {
        batch: usize::MAX,
        ..WalOptions::default()
    };
    if let Ok(wal) = Wal::open(&dir, opts) {
        let commands: Vec<Bytes> = (0..COMMANDS_PER_APPEND)
            .map(|i| Bytes::from(sample_request(i).encode()))
            .collect();
        let (mut appends, mut syncs) = (Vec::new(), Vec::new());
        let mut seq = wal.next_seq();
        let mut ok = true;
        for _ in 0..BATCHES {
            let t = Instant::now();
            for _ in 0..APPENDS_PER_SYNC {
                ok &= wal.append(seq, &commands).is_ok();
                seq += 1;
            }
            appends.push(t.elapsed().as_nanos() as f64 / APPENDS_PER_SYNC as f64);
            let t = Instant::now();
            ok &= wal.sync().is_ok();
            syncs.push(t.elapsed().as_nanos() as f64);
        }
        let on_disk: u64 = std::fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| entry.metadata().ok())
            .map(|meta| meta.len())
            .sum();
        if ok {
            let commands = BATCHES as u64 * APPENDS_PER_SYNC * COMMANDS_PER_APPEND;
            out.insert("wal.append_ns".into(), stats::median(&appends));
            out.insert("wal.fsync_us".into(), stats::median(&syncs) / 1e3);
            out.insert("wal.bytes_per_cmd".into(), on_disk as f64 / commands as f64);
        }
    }
    guard::remove_scratch(&dir);
}
