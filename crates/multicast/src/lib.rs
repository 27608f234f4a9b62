//! Atomic multicast built from parallel Paxos groups.
//!
//! This crate implements the multicast library of the paper's §VI-A:
//!
//! * the abstraction of **groups** is provided by composing multiple
//!   parallel instances of Paxos — one Paxos stream per multicast group,
//!   all of a deployment's groups ordered by one
//!   [`psmr_paxos::LockstepGroups`] thread;
//! * a message is **addressed to a single group only**; commands whose
//!   destination set `γ` contains several groups are routed through the
//!   shared group `g_all` to which every worker thread of every replica
//!   belongs;
//! * each worker thread delivers from multiple streams (its own `g_i` plus
//!   `g_all`) and uses a **deterministic merge** to ensure ordered delivery,
//!   as in Multi-Ring Paxos. The groups close one round each per fire,
//!   and idle streams emit *skip* batches so the merge keeps advancing.
//!   The single stream of SMR and sP-SMR ([`MulticastSystem::spawn_single`])
//!   is read by no merge, so it runs no rounds and no skips.
//!
//! The deterministic merge guarantees the property Algorithm 1 of the paper
//! relies on: two commands are ordered consistently across replicas if they
//! are multicast to the same group or if their destination sets intersect.
//!
//! # Example
//!
//! ```
//! use psmr_common::{ids::WorkerId, SystemConfig};
//! use psmr_multicast::{Destinations, MulticastSystem};
//!
//! let cfg = SystemConfig::new(2);
//! let system = MulticastSystem::spawn(&cfg);
//! let handle = system.handle();
//! let mut stream = system.worker_stream(WorkerId::new(0));
//! system.start();
//!
//! handle.multicast(&Destinations::one(0.into()), bytes::Bytes::from_static(b"cmd"));
//! let delivered = stream.next().unwrap();
//! assert_eq!(&delivered.payload[..], b"cmd");
//! system.shutdown();
//! ```

pub mod merge;
pub mod system;

pub use merge::{Delivered, MergedStream};
pub use system::{Destinations, DurabilityView, MulticastHandle, MulticastSystem};
