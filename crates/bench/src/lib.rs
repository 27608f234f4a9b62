//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `fig*` binary (see `src/bin/`) builds the deployments of one
//! evaluation experiment (§VII), drives them with the paper's workload,
//! and prints the same rows/series the paper plots — throughput in Kcps,
//! CPU %, average latency and latency CDFs — plus the relative factors the
//! paper annotates (e.g. "3.15 X"). Output is also written to
//! `target/experiments/`.
//!
//! | Binary | Paper result |
//! |--------|--------------|
//! | `table1` | Table I — degrees of parallelism |
//! | `fig3` | independent commands (read-only KV) |
//! | `fig4` | dependent commands (insert/delete KV) |
//! | `fig5` | scalability vs worker threads |
//! | `fig6` | mixed workloads (breakeven point) |
//! | `fig7` | skewed workloads (uniform vs Zipf) |
//! | `fig8` | NetFS reads and writes |
//! | `ckpt_load` | extension: checkpoint-under-load dip + recovery time |
//! | `wal_overhead` | extension: durable-log cost (inline vs pipelined group commit) |
//! | `pipeline` | extension: pipelined delivery path, batch size × pipeline on/off |
//! | `stage_breakdown` | extension: per-stage lifecycle latency across the WAL modes |
//! | `census` | extension: CPU, parks and run-queue wait per command by thread role |
//! | `run_all` | everything above, writing `EXPERIMENTS.md` data |
//! | `validate_bench` | checks every `BENCH_*.json` against `bench_schema.txt` |
//!
//! All binaries accept `--quick` (shorter runs for CI), `--keys N`,
//! `--clients N` and `--secs F`. Absolute numbers depend on the host; the
//! *shape* — who wins, by what factor, where crossovers sit — is what
//! reproduces the paper (see `EXPERIMENTS.md`).

pub mod args;
pub mod driver;
pub mod engines;
pub mod experiments;
pub mod report;
pub mod validate;

pub use args::BenchArgs;
pub use driver::{drive_kv, drive_netfs, DriveOpts, NetFsWorkload};
pub use engines::{build_kv, KvDeployment, Technique};
pub use report::Report;
