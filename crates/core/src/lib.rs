//! # psmr-core — Parallel State-Machine Replication
//!
//! The paper's contribution (§IV) and the baselines it is evaluated
//! against. The three replicated techniques are one engine,
//! [`engines::ReplicatedEngine`]: one ordering layer and one replica
//! lifecycle (spawn, checkpoint, crash, restart, cold start), with three
//! executors — the way a replica consumes the ordered stream:
//!
//! * [`engines::PsmrEngine`] — **P-SMR**: parallel delivery *and* parallel
//!   execution. Each replica runs `k` worker threads; worker `t_i`
//!   subscribes to multicast groups `g_i` and `g_all` and alternates
//!   between *parallel mode* (singleton destination sets) and *synchronous
//!   mode* (`g_all` commands, which all `k` workers meet at one rendezvous
//!   while worker `t_0` executes them), as in Algorithm 1.
//! * [`engines::SpSmrEngine`] — semi-parallel SMR (sP-SMR, the model of
//!   CBASE, reference 4 of the paper): a single totally ordered stream, a
//!   scheduler thread that dispatches independent commands to worker
//!   threads and serializes dependent ones.
//! * [`engines::SmrEngine`] — classical SMR: sequential delivery, one
//!   executor thread per replica.
//!
//! Outside that lifecycle, [`engines::NoRepEngine`] is a non-replicated
//! scheduler/worker server (the `no-rep` baseline) with no ordering layer.
//!
//! Supporting machinery:
//!
//! * [`service::Service`] — what a replicated service implements,
//! * [`conflict`] — C-Dep (command dependencies) and the derived C-G
//!   (command-to-groups) function,
//! * [`client::ClientProxy`] — the client-side proxy of the commodified
//!   architecture (Figure 1 of the paper), with both blocking calls and the
//!   windowed asynchronous interface the evaluation's closed-loop clients
//!   use,
//! * [`linear`] — an offline linearizability checker used by the test
//!   suite.
//!
//! # Quickstart
//!
//! ```
//! use psmr_core::conflict::{CommandClass, DependencySpec};
//! use psmr_core::engines::{Engine, PsmrEngine};
//! use psmr_core::service::Service;
//! use psmr_common::{ids::CommandId, SystemConfig};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // A tiny service: one atomic counter, `add` commands are global.
//! #[derive(Default)]
//! struct Counter(AtomicU64);
//! const ADD: CommandId = CommandId::new(0);
//!
//! impl Service for Counter {
//!     fn execute(&self, _cmd: CommandId, payload: &[u8]) -> Vec<u8> {
//!         let d = u64::from_le_bytes(payload.try_into().unwrap());
//!         let new = self.0.fetch_add(d, Ordering::SeqCst) + d;
//!         new.to_le_bytes().to_vec()
//!     }
//! }
//!
//! let mut spec = DependencySpec::new();
//! spec.declare(ADD, CommandClass::Global);
//!
//! let mut cfg = SystemConfig::new(2);
//! cfg.replicas(2);
//! let engine = PsmrEngine::spawn(&cfg, spec.into_map(), Counter::default);
//! let mut client = engine.client();
//! let r1 = client.execute(ADD, 5u64.to_le_bytes().to_vec());
//! let r2 = client.execute(ADD, 2u64.to_le_bytes().to_vec());
//! assert_eq!(u64::from_le_bytes(r1[..].try_into().unwrap()), 5);
//! assert_eq!(u64::from_le_bytes(r2[..].try_into().unwrap()), 7);
//! engine.shutdown();
//! ```

pub mod client;
pub mod conflict;
pub mod engines;
pub mod linear;
pub mod service;

pub use client::ClientProxy;
pub use conflict::{CommandClass, CommandMap, DependencySpec};
pub use engines::{Engine, NoRepEngine, PsmrEngine, SmrEngine, SpSmrEngine};
pub use service::Service;
