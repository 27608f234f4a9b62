//! Paxos consensus: the ordering substrate of the multicast library.
//!
//! The paper's multicast library "uses one Paxos instance per stream, and
//! each stream can have a different set of acceptor nodes" (§III, §VI-A).
//! This crate implements that substrate in two layers:
//!
//! * **Pure protocol state machines** — [`acceptor::Acceptor`],
//!   [`proposer::Proposer`] and [`learner::Learner`] are side-effect-free
//!   (message in → messages out). They implement full single-decree Paxos
//!   with ballots over an unbounded sequence of instances, and are exercised
//!   against adversarial schedules on the deterministic simulator from
//!   `psmr-netsim` (safety: at most one value is ever chosen per instance).
//! * **A threaded runtime** — [`runtime::LockstepGroups`] orders every
//!   group of a deployment on one `order-rounds` thread, each with `n`
//!   acceptors (3 in the paper, tolerating one crash): the ones sharing
//!   its process vote inline on that thread, the others
//!   ([`runtime::RemoteAcceptor`]s) are reached through a
//!   [`psmr_netsim::live::LiveNet`]. It batches submitted commands up to
//!   8 KB (§VI-A) and delivers decided batches to subscribers in order.
//!   Several groups, the streams `psmr-multicast` merges for P-SMR, close
//!   one round on every group per fire so they advance in lockstep; a
//!   single group, the stream of SMR, sP-SMR and `psmr-node`, pipelines
//!   its instances and delivers each as a batch of its own.
//!
//! # Example: deciding a value through the threaded runtime
//!
//! ```
//! use psmr_common::runtime::Runtime;
//! use psmr_common::SystemConfig;
//! use psmr_paxos::runtime::{LockstepGroups, WalMode};
//!
//! let cfg = SystemConfig::new(1);
//! let groups = LockstepGroups::spawn(&cfg, &Runtime::real(), vec![WalMode::None]);
//! let group = &groups.handles()[0];
//! let sub = group.subscribe();
//! group.start();
//! group.submit(bytes::Bytes::from_static(b"command"));
//! let batch = sub.recv().unwrap();
//! assert_eq!(batch.seq, 1);
//! assert_eq!(&batch.commands[0][..], b"command");
//! groups.shutdown();
//! ```

pub mod acceptor;
pub mod ballot;
pub mod learner;
pub mod msg;
pub mod proposer;
pub mod runtime;

pub use ballot::Ballot;
pub use msg::{Instance, PaxosMsg};
pub use runtime::{Batch, DecidedBatch, GroupHandle, LockstepGroups, NetMsg, SubscribeError};
