//! # psmr-net — the real TCP network substrate
//!
//! Everything in this workspace runs, by default, over the in-process
//! [`psmr_netsim::LiveNet`] channel network — the right substrate for
//! deterministic tests and `psmr-sim`. This crate adds the second
//! substrate the paper's evaluation assumes: **real sockets between
//! real OS processes**, selected by cluster config rather than code.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — length-prefixed, crc-framed envelopes over a byte
//!   stream (torn tails yield a clean prefix; corrupt frames poison).
//! * [`chaos`] — per-link fault injection (drop, delay, duplicate,
//!   corrupt, partition, throttle) behind a runtime-swappable policy
//!   handle, threaded into the mesh's writer/reader paths.
//! * [`cluster`] — the `NodeId` → `SocketAddr` routing table, parsed
//!   from a small TOML subset.
//! * [`tcp`] — the per-process mesh: per-peer outbound queues drained
//!   by one coalesced write per dialer wake, reconnect with backoff,
//!   replay-on-reconnect with receiver-side duplicate suppression,
//!   channel multiplexing to queue or reader-thread consumers.
//! * [`codec`] — wire codecs for the paxos and state-transfer messages.
//! * [`bridge`] — splices a `LiveNet` onto a mesh channel (egress as a
//!   gateway, ingress as a reader-thread handler), so the protocol code
//!   runs unmodified over either substrate.
//!
//! The `psmr-node` / `psmr-client` binaries (crate `psmr-node`) put
//! these together into an N-process deployment.

pub mod bridge;
pub mod chaos;
pub mod cluster;
pub mod codec;
pub mod frame;
pub mod tcp;

pub use bridge::OwnerFn;
pub use chaos::{ChaosHandle, ChaosPolicy, LinkChaos};
pub use cluster::{ClusterConfig, ClusterError, NodeSpec};
pub use frame::{encode_frame, FrameDecoder, FrameError, MAX_FRAME};
pub use tcp::{Inbound, PeerStatus, TcpMesh};
