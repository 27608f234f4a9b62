//! Wire formats owned by the deployment layer: the decided-batch
//! relay/submit plane (mesh channel 2) and the client ↔ node protocol.
//!
//! Both planes reuse the `psmr-net` frame envelope
//! ([`psmr_net::frame`]); this module only defines what goes *inside*
//! the frames. Everything is little-endian fixed-width integers with
//! `u32` length prefixes, like [`psmr_net::codec`].

use bytes::Bytes;
use psmr_common::envelope::Request;
use psmr_common::ids::{ClientId, CommandId, RequestId};
use psmr_common::metrics::{counters, global};
use psmr_common::trace::ChainPrefix;
use psmr_net::chaos::Rng;
use psmr_net::frame::{encode_frame, seal_frame, FrameDecoder, HEADER_LEN};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The command id reserved for stale reads: the node answers from its
/// **local** store without ordering the command, tagging the response
/// with how stale the replica might be. The payload wraps the real
/// (read-only) command — see [`encode_stale_read`].
pub const STALE_READ: CommandId = CommandId::new(u32::MAX - 2);

/// The relay/submit plane: how a non-orderer node receives the decided
/// stream and forwards client submissions to the orderer (node 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayMsg {
    /// Follower → orderer: stream me decided batches from `from_seq`.
    /// Idempotent; re-sent on gaps and after silence.
    Subscribe {
        /// First sequence number the follower still needs.
        from_seq: u64,
    },
    /// Orderer → follower: one decided batch of ordered commands.
    Batch {
        /// Stream sequence number (contiguous from 1).
        seq: u64,
        /// The orderer's trace-chain prefix for this batch (its
        /// `Submitted` instant on the wall clock, then the intervals to
        /// its `Ordered` and `WalAppended` stamps), present when the
        /// sequence is sampled and the prefix is complete. The follower
        /// turns the instant back into an age at the receive and
        /// re-anchors the prefix with `TraceRecorder::adopt_prefix`, so
        /// its own report spans the full cross-process chain, the relay
        /// hop included.
        trace: Option<ChainPrefix>,
        /// The batch's commands (encoded [`Request`]s).
        commands: Vec<Bytes>,
    },
    /// Orderer → follower: the retained log no longer reaches back to
    /// the requested seq — state-transfer first, then re-subscribe.
    Trimmed {
        /// Oldest sequence number still retained.
        first_retained: u64,
    },
    /// Orderer → follower: the requested seq has not been decided yet.
    Future {
        /// Sequence number the next decided batch will carry.
        next_seq: u64,
    },
    /// Follower → orderer: order these client commands, in this order
    /// (encoded [`Request`]s, submitted verbatim) — every request one
    /// client-socket read decoded.
    Submit {
        /// The marshalled requests.
        commands: Vec<Bytes>,
    },
}

impl RelayMsg {
    /// Encodes the message as a channel-2 frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            RelayMsg::Subscribe { from_seq } => {
                out.push(0);
                out.extend_from_slice(&from_seq.to_le_bytes());
            }
            RelayMsg::Batch {
                seq,
                trace,
                commands,
            } => return encode_batch(*seq, trace.as_ref(), commands),
            RelayMsg::Trimmed { first_retained } => {
                out.push(2);
                out.extend_from_slice(&first_retained.to_le_bytes());
            }
            RelayMsg::Future { next_seq } => {
                out.push(3);
                out.extend_from_slice(&next_seq.to_le_bytes());
            }
            RelayMsg::Submit { commands } => {
                out.push(4);
                put_commands(&mut out, commands);
            }
        }
        out
    }

    /// Decodes a channel-2 frame body; `None` on anything malformed.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let tag = *bytes.first()?;
        let rest = &bytes[1..];
        let u64_at = |at: usize| -> Option<u64> {
            Some(u64::from_le_bytes(rest.get(at..at + 8)?.try_into().ok()?))
        };
        let msg = match tag {
            0 => RelayMsg::Subscribe {
                from_seq: u64_at(0)?,
            },
            1 => {
                let seq = u64_at(0)?;
                let trace = match *rest.get(8)? {
                    0 => None,
                    1 => Some(ChainPrefix {
                        submitted_age_ns: u64_at(9)?,
                        submit_to_ordered_ns: u64_at(17)?,
                        ordered_to_appended_ns: u64_at(25)?,
                    }),
                    _ => return None,
                };
                let at = if trace.is_some() { 33 } else { 9 };
                return Some(RelayMsg::Batch {
                    seq,
                    trace,
                    commands: take_commands(rest.get(at..)?)?,
                });
            }
            2 => RelayMsg::Trimmed {
                first_retained: u64_at(0)?,
            },
            3 => RelayMsg::Future {
                next_seq: u64_at(0)?,
            },
            4 => {
                return Some(RelayMsg::Submit {
                    commands: take_commands(rest)?,
                });
            }
            _ => return None,
        };
        // Fixed-width variants must consume the body exactly.
        if rest.len() != 8 {
            return None;
        }
        Some(msg)
    }
}

/// Encodes a [`RelayMsg::Batch`] body from borrowed parts, so the
/// orderer can encode a decided batch without first cloning its command
/// list into a message.
pub(crate) fn encode_batch(seq: u64, trace: Option<&ChainPrefix>, commands: &[Bytes]) -> Vec<u8> {
    let bytes: usize = commands.iter().map(|c| 4 + c.len()).sum();
    let mut out = Vec::with_capacity(1 + 8 + 25 + 4 + bytes);
    out.push(1);
    out.extend_from_slice(&seq.to_le_bytes());
    match trace {
        Some(prefix) => {
            out.push(1);
            out.extend_from_slice(&prefix.submitted_age_ns.to_le_bytes());
            out.extend_from_slice(&prefix.submit_to_ordered_ns.to_le_bytes());
            out.extend_from_slice(&prefix.ordered_to_appended_ns.to_le_bytes());
        }
        None => out.push(0),
    }
    put_commands(&mut out, commands);
    out
}

/// Appends `count u32 | (len u32 | bytes)*`.
fn put_commands(out: &mut Vec<u8>, commands: &[Bytes]) {
    out.extend_from_slice(&(commands.len() as u32).to_le_bytes());
    for command in commands {
        out.extend_from_slice(&(command.len() as u32).to_le_bytes());
        out.extend_from_slice(command);
    }
}

/// Decodes what [`put_commands`] wrote; `None` unless `bytes` holds
/// exactly that.
fn take_commands(bytes: &[u8]) -> Option<Vec<Bytes>> {
    let count = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?) as usize;
    let mut at = 4;
    let mut commands = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let len = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        commands.push(Bytes::copy_from_slice(bytes.get(at..at + len)?));
        at += len;
    }
    (at == bytes.len()).then_some(commands)
}

/// Appends one whole client-plane response frame — what
/// `encode_frame(&encode_response(request, payload))` returns — to `out`,
/// so a node can gather a batch's replies to one connection in one
/// buffer.
pub(crate) fn push_response_frame(out: &mut Vec<u8>, request: RequestId, payload: &[u8]) {
    let at = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    out.extend_from_slice(&request.as_raw().to_le_bytes());
    out.extend_from_slice(payload);
    seal_frame(&mut out[at..]);
}

/// Encodes one client-plane response frame body: `request u64 | payload`.
pub fn encode_response(request: RequestId, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&request.as_raw().to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes a client-plane response frame body.
pub fn decode_response(bytes: &[u8]) -> Option<(RequestId, Vec<u8>)> {
    let request = u64::from_le_bytes(bytes.get(0..8)?.try_into().ok()?);
    Some((RequestId::new(request), bytes[8..].to_vec()))
}

/// Encodes a [`STALE_READ`] request payload: the wrapped read-only
/// command (`command u32 | payload`).
pub fn encode_stale_read(command: CommandId, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&command.as_raw().to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes a [`STALE_READ`] request payload.
pub fn decode_stale_read(bytes: &[u8]) -> Option<(CommandId, &[u8])> {
    let command = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?);
    Some((CommandId::new(command), &bytes[4..]))
}

/// Encodes a [`STALE_READ`] response payload: tag `0` + the staleness
/// bound in milliseconds + the local result, or tag `1` + a reason when
/// the node refused (non-read command, no local view).
pub fn encode_stale_response(outcome: &Result<(u64, Vec<u8>), String>) -> Vec<u8> {
    match outcome {
        Ok((stale_ms, result)) => {
            let mut out = Vec::with_capacity(9 + result.len());
            out.push(0);
            out.extend_from_slice(&stale_ms.to_le_bytes());
            out.extend_from_slice(result);
            out
        }
        Err(reason) => {
            let mut out = Vec::with_capacity(1 + reason.len());
            out.push(1);
            out.extend_from_slice(reason.as_bytes());
            out
        }
    }
}

/// Decodes a [`STALE_READ`] response payload; `None` on malformed bytes.
pub fn decode_stale_response(bytes: &[u8]) -> Option<Result<(u64, Vec<u8>), String>> {
    match *bytes.first()? {
        0 => {
            let stale_ms = u64::from_le_bytes(bytes.get(1..9)?.try_into().ok()?);
            Some(Ok((stale_ms, bytes[9..].to_vec())))
        }
        1 => Some(Err(String::from_utf8_lossy(&bytes[1..]).into_owned())),
        _ => None,
    }
}

/// How long the first send waits for its response before
/// retransmitting; the window doubles per retransmission (capped by
/// [`TRY_TIMEOUT_MAX`]) so a slow-but-alive deployment sees a bounded
/// number of duplicates instead of a fixed-cadence retransmit storm
/// that adds load exactly when the system has none to spare.
const DEFAULT_TRY_TIMEOUT: Duration = Duration::from_millis(500);
/// Per-try windows stop doubling here.
const TRY_TIMEOUT_MAX: Duration = Duration::from_secs(4);
/// First re-dial delay after a failed connect; doubles (jittered) to
/// [`DIAL_BACKOFF_MAX`].
const DIAL_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Re-dial delays stop doubling here.
const DIAL_BACKOFF_MAX: Duration = Duration::from_millis(500);

/// A self-healing blocking client of the deployment's client listeners.
///
/// Requests travel as framed [`Request`] envelopes; a node responds
/// with a framed `request id | result` body once the command has been
/// ordered and executed locally. One outstanding request at a time (the
/// closed-loop shape every test client uses).
///
/// **Self-healing:** on a socket error, a poisoned response stream, or
/// a per-try deadline expiry, [`execute`](Self::execute) reconnects
/// (with jittered backoff, rotating through every configured address)
/// and **retransmits the in-flight request under the same
/// `(client, request)` id** — the nodes' server-side dedup answers
/// duplicates from its response cache, so a command is never executed
/// twice no matter how many copies the retries pushed into the ordered
/// stream. Request ids are seeded from the wall clock and only ever
/// increase, so a restarted client process reusing its client id cannot
/// collide with its own pre-crash ids. `execute` fails only when the
/// overall `deadline` passes with no node reachable and responsive.
#[derive(Debug)]
pub struct NodeClient {
    /// Failover set, in preference order; `current` indexes it.
    addrs: Vec<String>,
    current: usize,
    conn: Option<(TcpStream, FrameDecoder)>,
    ever_connected: bool,
    client: ClientId,
    next_request: u64,
    try_timeout: Duration,
    rng: Rng,
}

/// Wall-clock microseconds: the monotonic base new request ids start
/// from, so a client incarnation never reuses a predecessor's ids.
fn request_base() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| d.as_micros() as u64)
}

impl NodeClient {
    /// Connects to a node's `client_addr`. `client` must be unique
    /// across every live client of the deployment.
    ///
    /// # Errors
    ///
    /// Any socket error from the initial connect (later errors heal
    /// inside [`execute`](Self::execute) instead).
    pub fn connect(addr: &str, client: u64) -> std::io::Result<Self> {
        let mut this = Self::connect_multi(vec![addr.to_string()], client);
        this.conn = Some(Self::dial(addr)?);
        this.ever_connected = true;
        Ok(this)
    }

    /// A client over a failover set: addresses are tried in order,
    /// rotating on connect failure, starting at `addrs[0]`. No
    /// connection is attempted until the first request needs one.
    ///
    /// # Panics
    ///
    /// When `addrs` is empty.
    pub fn connect_multi(addrs: Vec<String>, client: u64) -> Self {
        assert!(!addrs.is_empty(), "a client needs at least one address");
        let base = request_base();
        Self {
            addrs,
            current: 0,
            conn: None,
            ever_connected: false,
            client: ClientId::new(client),
            next_request: base,
            rng: Rng::seeded(base ^ client),
            try_timeout: DEFAULT_TRY_TIMEOUT,
        }
    }

    /// Reconfigures how long the *first* transmission waits for its
    /// response before the client retransmits (default 500ms); each
    /// further retransmission doubles the window. The overall `deadline`
    /// of [`execute`](Self::execute) still bounds the whole call.
    pub fn set_try_timeout(&mut self, try_timeout: Duration) {
        self.try_timeout = try_timeout.max(Duration::from_millis(1));
    }

    /// The failover set this client rotates through.
    pub fn addresses(&self) -> &[String] {
        &self.addrs
    }

    fn dial(addr: &str) -> std::io::Result<(TcpStream, FrameDecoder)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok((stream, FrameDecoder::new()))
    }

    /// Executes one command and blocks for its result, reconnecting and
    /// retransmitting as needed until `deadline`.
    ///
    /// # Errors
    ///
    /// `TimedOut` when the deadline passes without a response — the
    /// message names every address attempted.
    pub fn execute(
        &mut self,
        command: CommandId,
        payload: Vec<u8>,
        deadline: Duration,
    ) -> std::io::Result<Vec<u8>> {
        let request = RequestId::new(self.next_request);
        self.next_request += 1;
        let req = Request::new(self.client, request, command, payload);
        self.transact(request, &encode_frame(&req.encode()), deadline)
    }

    /// Executes a read-only command against the target node's **local**
    /// store via [`STALE_READ`] — no ordering round-trip, served even
    /// by a degraded node. Returns the node's staleness bound (how long
    /// ago it last heard from the orderer) alongside the result.
    ///
    /// # Errors
    ///
    /// `TimedOut` past `deadline`, or `InvalidData` when the node
    /// refused (e.g. the wrapped command is not read-only).
    pub fn execute_stale(
        &mut self,
        command: CommandId,
        payload: &[u8],
        deadline: Duration,
    ) -> std::io::Result<(Duration, Vec<u8>)> {
        let body = self.execute(STALE_READ, encode_stale_read(command, payload), deadline)?;
        match decode_stale_response(&body) {
            Some(Ok((stale_ms, result))) => Ok((Duration::from_millis(stale_ms), result)),
            Some(Err(reason)) => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("stale read refused: {reason}"),
            )),
            None => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "malformed stale-read response",
            )),
        }
    }

    /// The send → await → (reconnect, retransmit) loop shared by every
    /// request shape.
    fn transact(
        &mut self,
        request: RequestId,
        frame: &[u8],
        deadline: Duration,
    ) -> std::io::Result<Vec<u8>> {
        let give_up = Instant::now() + deadline;
        let mut sends = 0u64;
        let mut backoff = DIAL_BACKOFF_MIN;
        let mut try_window = self.try_timeout;
        let mut buf = [0u8; 16 * 1024];
        loop {
            if Instant::now() >= give_up {
                return Err(self.deadline_error(deadline));
            }
            // Establish (or re-establish) a connection, rotating through
            // the failover set on refusal.
            if self.conn.is_none() {
                match Self::dial(&self.addrs[self.current]) {
                    Ok(conn) => {
                        self.conn = Some(conn);
                        if self.ever_connected {
                            global().counter(counters::CLIENT_RECONNECTS).inc();
                        }
                        self.ever_connected = true;
                        backoff = DIAL_BACKOFF_MIN;
                    }
                    Err(_) => {
                        if self.addrs.len() > 1 {
                            self.current = (self.current + 1) % self.addrs.len();
                            global().counter(counters::CLIENT_FAILOVERS).inc();
                        }
                        let remaining = give_up.saturating_duration_since(Instant::now());
                        std::thread::sleep(self.rng.jittered(backoff).min(remaining));
                        backoff = (backoff * 2).min(DIAL_BACKOFF_MAX);
                        continue;
                    }
                }
            }
            let (stream, decoder) = self.conn.as_mut().expect("connection established above");
            // (Re)transmit under the unchanged request id: server-side
            // dedup keeps duplicate copies from executing twice.
            if stream.write_all(frame).is_err() {
                self.conn = None;
                continue;
            }
            if sends > 0 {
                global().counter(counters::REQUESTS_RETRANSMITTED).inc();
            }
            sends += 1;
            // Await the response until the per-try deadline; then fall
            // through to retransmit (same connection if it held) with a
            // doubled window, so retries decongest instead of piling on.
            let try_up = (Instant::now() + try_window).min(give_up);
            try_window = (try_window * 2).min(TRY_TIMEOUT_MAX);
            let mut broken = false;
            'read: while !broken {
                loop {
                    match decoder.next() {
                        Ok(Some(body)) => {
                            if let Some((for_request, result)) = decode_response(&body) {
                                if for_request == request {
                                    return Ok(result);
                                }
                                // A response to an older (timed-out)
                                // request: ignore and keep reading.
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            broken = true;
                            continue 'read;
                        }
                    }
                }
                if Instant::now() >= try_up {
                    break;
                }
                match stream.read(&mut buf) {
                    Ok(0) => broken = true,
                    Ok(n) => decoder.push(&buf[..n]),
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock
                            || e.kind() == ErrorKind::TimedOut
                            || e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => broken = true,
                }
            }
            if broken {
                self.conn = None;
            }
        }
    }

    fn deadline_error(&self, deadline: Duration) -> std::io::Error {
        std::io::Error::new(
            ErrorKind::TimedOut,
            format!(
                "no response within {:?} (tried {})",
                deadline,
                self.addrs.join(", ")
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_messages_round_trip() {
        let cases = vec![
            RelayMsg::Subscribe { from_seq: 17 },
            RelayMsg::Batch {
                seq: 3,
                trace: None,
                commands: vec![Bytes::from_static(b"abc"), Bytes::new()],
            },
            RelayMsg::Batch {
                seq: 9,
                trace: None,
                commands: Vec::new(),
            },
            RelayMsg::Trimmed { first_retained: 44 },
            RelayMsg::Future { next_seq: 45 },
            RelayMsg::Submit {
                commands: Vec::new(),
            },
            RelayMsg::Submit {
                commands: vec![Bytes::from_static(&[1, 2, 3])],
            },
            RelayMsg::Submit {
                commands: vec![
                    Bytes::from_static(b"first"),
                    Bytes::new(),
                    Bytes::from_static(b"third"),
                ],
            },
        ];
        for msg in cases {
            assert_eq!(
                RelayMsg::decode(&msg.encode()),
                Some(msg.clone()),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn malformed_relay_bodies_decode_to_none() {
        assert_eq!(RelayMsg::decode(&[]), None);
        assert_eq!(RelayMsg::decode(&[9]), None);
        let mut truncated = RelayMsg::Subscribe { from_seq: 1 }.encode();
        truncated.pop();
        assert_eq!(RelayMsg::decode(&truncated), None);
        let mut padded = RelayMsg::Trimmed { first_retained: 2 }.encode();
        padded.push(0);
        assert_eq!(RelayMsg::decode(&padded), None);
        let mut torn_batch = RelayMsg::Batch {
            seq: 1,
            trace: None,
            commands: vec![Bytes::from_static(b"xy")],
        }
        .encode();
        torn_batch.truncate(torn_batch.len() - 1);
        assert_eq!(RelayMsg::decode(&torn_batch), None);
        // An unknown traced-flag byte is malformed, not an empty batch.
        let mut bad_flag = RelayMsg::Batch {
            seq: 1,
            trace: None,
            commands: Vec::new(),
        }
        .encode();
        bad_flag[9] = 7;
        assert_eq!(RelayMsg::decode(&bad_flag), None);
        // A command count larger than the body holds, and trailing bytes
        // past the last command, are malformed for both command lists.
        for msg in [
            RelayMsg::Submit {
                commands: vec![Bytes::from_static(b"ab"), Bytes::from_static(b"c")],
            },
            RelayMsg::Batch {
                seq: 4,
                trace: None,
                commands: vec![Bytes::from_static(b"ab"), Bytes::from_static(b"c")],
            },
        ] {
            let body = msg.encode();
            let count_at = body.len() - (4 + 2) - (4 + 1) - 4;
            let mut overcount = body.clone();
            overcount[count_at..count_at + 4].copy_from_slice(&3u32.to_le_bytes());
            assert_eq!(RelayMsg::decode(&overcount), None, "{msg:?}");
            let mut trailing = body.clone();
            trailing.push(0);
            assert_eq!(RelayMsg::decode(&trailing), None, "{msg:?}");
            assert_eq!(RelayMsg::decode(&body), Some(msg));
        }
    }

    #[test]
    fn batch_bodies_encode_like_the_message() {
        let commands = vec![Bytes::from_static(b"x"), Bytes::from_static(b"yz")];
        let prefix = ChainPrefix {
            submitted_age_ns: 5,
            submit_to_ordered_ns: 6,
            ordered_to_appended_ns: 7,
        };
        for trace in [None, Some(prefix)] {
            let msg = RelayMsg::Batch {
                seq: 12,
                trace,
                commands: commands.clone(),
            };
            assert_eq!(encode_batch(12, trace.as_ref(), &commands), msg.encode());
        }
    }

    #[test]
    fn batch_envelope_carries_and_restores_the_origin_stamp() {
        // The cross-process trace propagation rides in the relay batch:
        // the orderer's prefix ages must survive the wire byte-exact.
        let prefix = ChainPrefix {
            submitted_age_ns: 1_234_567,
            submit_to_ordered_ns: 42_000,
            ordered_to_appended_ns: 9_999,
        };
        let msg = RelayMsg::Batch {
            seq: 88,
            trace: Some(prefix),
            commands: vec![Bytes::from_static(b"cmd"), Bytes::from_static(b"")],
        };
        let decoded = RelayMsg::decode(&msg.encode()).expect("decode");
        let RelayMsg::Batch {
            seq,
            trace,
            commands,
        } = decoded
        else {
            panic!("wrong variant");
        };
        assert_eq!(seq, 88);
        assert_eq!(trace, Some(prefix));
        assert_eq!(commands.len(), 2);
        // A truncated stamp is malformed, not silently un-traced.
        let mut torn = msg.encode();
        torn.truncate(1 + 8 + 1 + 16); // tag | seq | flag | 2 of 3 ages
        assert_eq!(RelayMsg::decode(&torn), None);
    }

    #[test]
    fn stale_read_payloads_round_trip() {
        let body = encode_stale_read(CommandId::new(0), b"key");
        assert_eq!(
            decode_stale_read(&body),
            Some((CommandId::new(0), b"key".as_slice()))
        );
        assert_eq!(decode_stale_read(&[1, 2]), None);

        let ok: Result<(u64, Vec<u8>), String> = Ok((250, b"value".to_vec()));
        assert_eq!(decode_stale_response(&encode_stale_response(&ok)), Some(ok));
        let err: Result<(u64, Vec<u8>), String> = Err("not a read".into());
        assert_eq!(
            decode_stale_response(&encode_stale_response(&err)),
            Some(err)
        );
        assert_eq!(decode_stale_response(&[7]), None);
        assert_eq!(decode_stale_response(&[0, 1]), None);
    }

    #[test]
    fn request_ids_are_monotonic_across_client_incarnations() {
        // Two clients born in sequence with the same client id must not
        // overlap id ranges: ids seed from the wall clock and only grow.
        let a = NodeClient::connect_multi(vec!["127.0.0.1:1".into()], 7);
        std::thread::sleep(Duration::from_millis(2));
        let b = NodeClient::connect_multi(vec!["127.0.0.1:1".into()], 7);
        assert!(b.next_request > a.next_request);
        assert_eq!(a.addresses(), ["127.0.0.1:1".to_string()]);
    }

    #[test]
    fn unreachable_target_times_out_with_attempted_addresses() {
        let mut client =
            NodeClient::connect_multi(vec!["127.0.0.1:9".into(), "127.0.0.1:10".into()], 3);
        client.set_try_timeout(Duration::from_millis(20));
        let err = client
            .execute(CommandId::new(0), Vec::new(), Duration::from_millis(120))
            .expect_err("nothing listens on discard ports");
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        let msg = err.to_string();
        assert!(
            msg.contains("127.0.0.1:9") && msg.contains("127.0.0.1:10"),
            "error must list every attempted address: {msg}"
        );
    }

    #[test]
    fn responses_round_trip() {
        let body = encode_response(RequestId::new(7), b"result");
        assert_eq!(
            decode_response(&body),
            Some((RequestId::new(7), b"result".to_vec()))
        );
        assert_eq!(decode_response(&[1, 2]), None);
        let mut frames = b"kept".to_vec();
        push_response_frame(&mut frames, RequestId::new(7), b"result");
        push_response_frame(&mut frames, RequestId::new(8), b"");
        let mut expect = b"kept".to_vec();
        expect.extend(encode_frame(&body));
        expect.extend(encode_frame(&encode_response(RequestId::new(8), b"")));
        assert_eq!(frames, expect);
    }
}
