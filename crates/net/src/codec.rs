//! Wire codecs for the protocol messages that cross process boundaries:
//! the paxos messages ([`psmr_paxos::NetMsg`]) and the state-transfer
//! protocol ([`psmr_recovery::TransferMsg`]).
//!
//! In-process these messages move as cloned Rust values through
//! `LiveNet` channels; between processes they become tagged byte bodies
//! inside [`crate::frame`] envelopes. The encoding is deliberately dumb:
//! little-endian fixed-width integers, `u32` length prefixes, one tag
//! byte per enum variant — no derive machinery, no versioning beyond
//! the frame crc (both ends of a deployment run the same build).
//!
//! Decoders return `Option`: `None` means "not a message this version
//! understands", and the caller drops the body the way `LiveNet` drops
//! sends to unregistered nodes.

use bytes::Bytes;
use psmr_common::ids::GroupId;
use psmr_paxos::runtime::Batch;
use psmr_paxos::{Ballot, NetMsg};
use psmr_recovery::{StreamCut, TransferMsg};
use std::sync::Arc;

/// Little-endian cursor over a decode buffer.
struct Rd<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let v = u32::from_le_bytes(self.bytes.get(self.at..self.at + 4)?.try_into().unwrap());
        self.at += 4;
        Some(v)
    }

    fn u64(&mut self) -> Option<u64> {
        let v = u64::from_le_bytes(self.bytes.get(self.at..self.at + 8)?.try_into().unwrap());
        self.at += 8;
        Some(v)
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let v = self.bytes.get(self.at..self.at + len)?;
        self.at += len;
        Some(v)
    }

    fn bytes_u32(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn put_bytes_u32(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_ballot(out: &mut Vec<u8>, b: Ballot) {
    out.extend_from_slice(&b.round.to_le_bytes());
    out.extend_from_slice(&b.proposer.to_le_bytes());
}

fn rd_ballot(rd: &mut Rd<'_>) -> Option<Ballot> {
    Some(Ballot::new(rd.u64()?, rd.u64()?))
}

fn put_batch(out: &mut Vec<u8>, batch: &Batch) {
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for command in batch.iter() {
        put_bytes_u32(out, command);
    }
}

fn rd_batch(rd: &mut Rd<'_>) -> Option<Batch> {
    let count = rd.u32()? as usize;
    let mut commands = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        commands.push(Bytes::from(rd.bytes_u32()?.to_vec()));
    }
    Some(Arc::new(commands))
}

/// Encodes one paxos message for the wire.
pub fn encode_paxos(msg: &NetMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        NetMsg::Prepare {
            ballot,
            from_instance,
        } => {
            out.push(0);
            put_ballot(&mut out, *ballot);
            out.extend_from_slice(&from_instance.to_le_bytes());
        }
        NetMsg::Promise { ballot, accepted } => {
            out.push(1);
            put_ballot(&mut out, *ballot);
            out.extend_from_slice(&(accepted.len() as u32).to_le_bytes());
            for (instance, ballot, value) in accepted {
                out.extend_from_slice(&instance.to_le_bytes());
                put_ballot(&mut out, *ballot);
                put_batch(&mut out, value);
            }
        }
        NetMsg::Nack { rejected, promised } => {
            out.push(2);
            put_ballot(&mut out, *rejected);
            put_ballot(&mut out, *promised);
        }
        NetMsg::Accept {
            ballot,
            instance,
            value,
        } => {
            out.push(3);
            put_ballot(&mut out, *ballot);
            out.extend_from_slice(&instance.to_le_bytes());
            put_batch(&mut out, value);
        }
        NetMsg::Accepted { ballot, instance } => {
            out.push(4);
            put_ballot(&mut out, *ballot);
            out.extend_from_slice(&instance.to_le_bytes());
        }
        NetMsg::Decide { instance, value } => {
            out.push(5);
            out.extend_from_slice(&instance.to_le_bytes());
            put_batch(&mut out, value);
        }
    }
    out
}

/// Decodes one paxos message; `None` on any malformed body.
pub fn decode_paxos(bytes: &[u8]) -> Option<NetMsg> {
    let mut rd = Rd::new(bytes);
    let msg = match rd.u8()? {
        0 => NetMsg::Prepare {
            ballot: rd_ballot(&mut rd)?,
            from_instance: rd.u64()?,
        },
        1 => {
            let ballot = rd_ballot(&mut rd)?;
            let count = rd.u32()? as usize;
            let mut accepted = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                accepted.push((rd.u64()?, rd_ballot(&mut rd)?, rd_batch(&mut rd)?));
            }
            NetMsg::Promise { ballot, accepted }
        }
        2 => NetMsg::Nack {
            rejected: rd_ballot(&mut rd)?,
            promised: rd_ballot(&mut rd)?,
        },
        3 => NetMsg::Accept {
            ballot: rd_ballot(&mut rd)?,
            instance: rd.u64()?,
            value: rd_batch(&mut rd)?,
        },
        4 => NetMsg::Accepted {
            ballot: rd_ballot(&mut rd)?,
            instance: rd.u64()?,
        },
        5 => NetMsg::Decide {
            instance: rd.u64()?,
            value: rd_batch(&mut rd)?,
        },
        _ => return None,
    };
    rd.done().then_some(msg)
}

fn put_cut(out: &mut Vec<u8>, cut: &StreamCut) {
    out.extend_from_slice(&(cut.group.as_raw() as u64).to_le_bytes());
    out.extend_from_slice(&cut.seq.to_le_bytes());
    out.extend_from_slice(&(cut.offset as u64).to_le_bytes());
}

fn rd_cut(rd: &mut Rd<'_>) -> Option<StreamCut> {
    Some(StreamCut {
        group: GroupId::new(usize::try_from(rd.u64()?).ok()?),
        seq: rd.u64()?,
        offset: usize::try_from(rd.u64()?).ok()?,
    })
}

/// Encodes one state-transfer message for the wire.
pub fn encode_transfer(msg: &TransferMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        TransferMsg::Fetch => out.push(0),
        TransferMsg::Offer {
            id,
            cut,
            len,
            chunks,
            digest,
        } => {
            out.push(2);
            out.extend_from_slice(&id.to_le_bytes());
            put_cut(&mut out, cut);
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&chunks.to_le_bytes());
            out.extend_from_slice(&digest.to_le_bytes());
        }
        TransferMsg::Chunk { index, bytes } => {
            out.push(3);
            out.extend_from_slice(&index.to_le_bytes());
            put_bytes_u32(&mut out, bytes);
        }
        TransferMsg::NotFound => out.push(4),
    }
    out
}

/// Decodes one state-transfer message; `None` on any malformed body.
pub fn decode_transfer(bytes: &[u8]) -> Option<TransferMsg> {
    let mut rd = Rd::new(bytes);
    let msg = match rd.u8()? {
        0 => TransferMsg::Fetch,
        2 => TransferMsg::Offer {
            id: rd.u64()?,
            cut: rd_cut(&mut rd)?,
            len: rd.u64()?,
            chunks: rd.u32()?,
            digest: rd.u64()?,
        },
        3 => TransferMsg::Chunk {
            index: rd.u32()?,
            bytes: rd.bytes_u32()?.to_vec(),
        },
        4 => TransferMsg::NotFound,
        _ => return None,
    };
    rd.done().then_some(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(items: &[&[u8]]) -> Batch {
        Arc::new(items.iter().map(|b| Bytes::from(b.to_vec())).collect())
    }

    #[test]
    fn paxos_messages_round_trip() {
        let cases: Vec<NetMsg> = vec![
            NetMsg::Prepare {
                ballot: Ballot::new(3, 100),
                from_instance: 17,
            },
            NetMsg::Promise {
                ballot: Ballot::new(3, 100),
                accepted: vec![
                    (5, Ballot::new(2, 100), batch(&[b"abc", b""])),
                    (6, Ballot::new(1, 0), batch(&[])),
                ],
            },
            NetMsg::Nack {
                rejected: Ballot::new(1, 1),
                promised: Ballot::new(9, 2),
            },
            NetMsg::Accept {
                ballot: Ballot::new(4, 100),
                instance: 8,
                value: batch(&[b"cmd1", b"cmd2"]),
            },
            NetMsg::Accepted {
                ballot: Ballot::new(4, 100),
                instance: 8,
            },
            NetMsg::Decide {
                instance: 8,
                value: batch(&[b"cmd1"]),
            },
        ];
        for msg in cases {
            let wire = encode_paxos(&msg);
            assert_eq!(decode_paxos(&wire), Some(msg.clone()), "{msg:?}");
        }
    }

    #[test]
    fn transfer_messages_round_trip() {
        let cases = vec![
            TransferMsg::Fetch,
            TransferMsg::Offer {
                id: 4,
                cut: StreamCut {
                    group: GroupId::new(2),
                    seq: 19,
                    offset: 3,
                },
                len: 999,
                chunks: 4,
                digest: 0xDEAD_BEEF,
            },
            TransferMsg::Chunk {
                index: 2,
                bytes: vec![9; 37],
            },
            TransferMsg::NotFound,
        ];
        for msg in cases {
            let wire = encode_transfer(&msg);
            let back = decode_transfer(&wire).expect("decode");
            // TransferMsg has no PartialEq; compare via Debug.
            assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        }
    }

    #[test]
    fn malformed_bodies_decode_to_none() {
        assert!(decode_paxos(&[]).is_none());
        assert!(decode_paxos(&[99]).is_none());
        assert!(decode_transfer(&[42]).is_none());
        let mut truncated = encode_paxos(&NetMsg::Accepted {
            ballot: Ballot::new(1, 2),
            instance: 3,
        });
        truncated.pop();
        assert!(decode_paxos(&truncated).is_none());
        // Trailing garbage is rejected too.
        let mut padded = encode_transfer(&TransferMsg::Fetch);
        padded.push(0);
        assert!(decode_transfer(&padded).is_none());
    }
}
