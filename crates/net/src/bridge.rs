//! Bridges an in-process [`LiveNet`] onto a [`TcpMesh`] channel.
//!
//! The protocols (paxos groups, state-transfer servers) are written
//! against `LiveNet` and stay unmodified in multi-process deployments.
//! [`splice`] joins the two substrates per message type:
//!
//! * **Egress** — a `LiveNet` gateway, so a send to a node this process
//!   does not host is encoded and queued on the mesh toward the owning
//!   process (`owner` maps `NodeId` → process).
//! * **Ingress** — a mesh reader-thread handler
//!   ([`TcpMesh::subscribe_handler`]) decodes each body and injects it
//!   with [`LiveNet::deliver`]. That never blocks (inboxes are
//!   unbounded) and never re-consults the gateway, so bridged traffic
//!   cannot loop back out, and no thread of its own sits between the
//!   socket and the protocol's inbox.
//!
//! Codec and ownership are closures, so one bridge serves paxos
//! messages, transfer messages, and anything a deployment adds later.
//! The splice lasts until [`TcpMesh::shutdown`].

use crate::tcp::TcpMesh;
use psmr_netsim::{LiveNet, NodeId};
use std::sync::Arc;

/// Maps a protocol-level node id to the process hosting it (`None` =
/// nobody; the send is dropped like any `LiveNet` send to an
/// unregistered node).
pub type OwnerFn = Arc<dyn Fn(NodeId) -> Option<usize> + Send + Sync>;

/// Serializes a protocol message for the mesh (see [`crate::codec`]).
pub type EncodeFn<M> = Arc<dyn Fn(&M) -> Vec<u8> + Send + Sync>;

/// Parses a mesh body back into a protocol message; `None` drops the
/// frame (malformed bodies are treated as loss, like any UDP-ish net).
pub type DecodeFn<M> = Arc<dyn Fn(&[u8]) -> Option<M> + Send + Sync>;

/// Splices `net` onto mesh channel `chan`.
///
/// `owner` routes egress traffic; `encode`/`decode` are the message
/// type's wire codec (see [`crate::codec`]).
pub fn splice<M: Send + 'static>(
    net: &LiveNet<M>,
    mesh: &TcpMesh,
    chan: u8,
    owner: OwnerFn,
    encode: EncodeFn<M>,
    decode: DecodeFn<M>,
) {
    let egress_mesh = mesh.clone();
    net.set_gateway(Arc::new(
        move |from: NodeId, to: NodeId, msg: &M| match owner(to) {
            Some(peer) => egress_mesh.send(peer, chan, from.as_raw(), to.as_raw(), &encode(msg)),
            None => false,
        },
    ));
    let ingress = net.clone();
    mesh.subscribe_handler(chan, move |from, to, body| {
        if let Some(msg) = decode(body) {
            ingress.deliver(NodeId::new(from), NodeId::new(to), msg);
        }
    });
}
