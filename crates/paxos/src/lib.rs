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
//! * **A threaded runtime** — [`runtime::PaxosGroup`] runs one coordinator
//!   thread per group with `n` acceptors (3 in the paper, tolerating one
//!   crash): the ones sharing its process vote inline on that thread, the
//!   others are reached through a [`psmr_netsim::live::LiveNet`]. It
//!   batches submitted commands up to 8 KB (§VI-A), pipelines instances,
//!   and delivers decided batches to subscribers in instance order: the
//!   single stream of SMR and sP-SMR. [`runtime::LockstepGroups`] runs
//!   the groups of a P-SMR deployment, every acceptor inline, on one
//!   `order-rounds` thread that closes one round on every group per fire,
//!   so the streams `psmr-multicast` merges advance in lockstep.
//!
//! # Example: deciding a value through the threaded runtime
//!
//! ```
//! use psmr_common::SystemConfig;
//! use psmr_paxos::runtime::PaxosGroup;
//!
//! let cfg = SystemConfig::new(1);
//! let group = PaxosGroup::spawn(0, &cfg);
//! let sub = group.subscribe();
//! group.start();
//! group.submit(bytes::Bytes::from_static(b"command"));
//! let batch = sub.recv().unwrap();
//! assert_eq!(batch.seq, 1);
//! assert_eq!(&batch.commands[0][..], b"command");
//! group.shutdown();
//! ```

pub mod acceptor;
pub mod ballot;
pub mod learner;
pub mod msg;
pub mod proposer;
pub mod runtime;

pub use ballot::Ballot;
pub use msg::{Instance, PaxosMsg};
pub use runtime::{
    Batch, DecidedBatch, GroupHandle, LockstepGroups, NetMsg, PaxosGroup, SubscribeError,
};
