//! Shared building blocks for the P-SMR reproduction.
//!
//! This crate hosts the vocabulary types used by every other crate in the
//! workspace:
//!
//! * [`ids`] — strongly typed identifiers for clients, replicas, multicast
//!   groups, worker threads and requests,
//! * [`envelope`] — the wire-level request/response representation exchanged
//!   between client proxies and server proxies,
//! * [`config`] — the knobs of the replicated system (multiprogramming
//!   level, batching, acceptor counts, …),
//! * [`metrics`] — latency histograms, CDFs, throughput meters and the
//!   labeled counter/gauge/histogram registry used by the evaluation
//!   harness and the instrumented hot path,
//! * [`trace`] — sampled command-lifecycle tracing: per-stage latency of
//!   decided batches through order → append → deliver → execute → release,
//! * [`export`] — metrics exposition (one-shot text dump, periodic JSONL
//!   snapshotter),
//! * [`runtime`] — the injected clock/scheduler pair every
//!   nondeterministic decision in the protocol stack flows through
//!   (real time + FIFO in production, virtual time + seeded
//!   interleaving control under the `psmr-sim` exploration harness),
//! * [`crc`] — the CRC-32 both durability layers (snapshot files, WAL
//!   record frames) guard their bytes with,
//! * [`cpu`] — Linux `/proc`-based CPU-utilization sampling, reproducing the
//!   CPU% bars of Figures 3 and 4 of the paper.
//!
//! # Example
//!
//! ```
//! use psmr_common::ids::{GroupId, WorkerId};
//!
//! let worker = WorkerId::new(3);
//! // In P-SMR the i-th worker of every replica subscribes to group g_i.
//! let group = GroupId::new(worker.as_raw());
//! assert_eq!((worker.to_string(), group.to_string()), ("t3".into(), "g3".into()));
//! ```

pub mod config;
pub mod cpu;
pub mod crc;
pub mod envelope;
pub mod error;
pub mod export;
pub mod ids;
pub mod metrics;
pub mod runtime;
pub mod trace;

pub use config::{ConfigError, SystemConfig};
pub use envelope::{Request, Response};
pub use error::CommonError;
pub use ids::{ClientId, CommandId, GroupId, ReplicaId, RequestId, WorkerId};
pub use runtime::{Clock, ClockHandle, Runtime, Scheduler};
