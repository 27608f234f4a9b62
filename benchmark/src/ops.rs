//! Seeded command generation and the output checks every run applies.
//!
//! The program under test only ever sees commands generated here from
//! `--seed`. Writers own disjoint keys (`key % clients == client`), so a
//! client knows the last acknowledged value of every key it wrote and
//! can read it back after the run.

use psmr_kvstore::{KvOp, KvResult};
use psmr_workload::{KeyDist, KvMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Keys `0..KEYS` are preloaded (value = key) in every replica.
pub const KEYS: u64 = 100_000;
/// Keys each client reads back after quiescing.
pub const READBACK: usize = 1_000;
/// A reply later than this counts as failed.
pub const REPLY_LIMIT_NS: u64 = 2_000_000_000;

/// The command stream of one client.
pub struct OpGen {
    mix: KvMix,
    dist: KeyDist,
    rng: StdRng,
    client: u64,
    clients: u64,
}

impl OpGen {
    /// `client` of `clients` drawing from `mix` over the preloaded keys.
    /// The same `(seed, client)` always yields the same commands.
    pub fn new(mix: KvMix, seed: u64, client: u64, clients: u64) -> Self {
        assert!(
            KEYS.is_multiple_of(clients),
            "ownership needs an even split"
        );
        Self {
            mix,
            dist: KeyDist::uniform(KEYS),
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ client),
            client,
            clients,
        }
    }

    /// Moves `key` onto this client's residue class. `KEYS` is a
    /// multiple of `clients`, so owned keys stay inside their range
    /// (preloaded keys below `KEYS`, inserted keys above).
    fn owned(&self, key: u64) -> u64 {
        key - key % self.clients + self.client
    }

    pub fn next_op(&mut self) -> KvOp {
        match self.mix.sample(&self.dist, &mut self.rng) {
            read @ KvOp::Read { .. } => read,
            KvOp::Update { key, value } => KvOp::Update {
                key: self.owned(key),
                value,
            },
            KvOp::Insert { key, value } => KvOp::Insert {
                key: self.owned(key),
                value,
            },
            KvOp::Delete { key } => KvOp::Delete {
                key: self.owned(key),
            },
        }
    }

    /// A uniformly drawn preloaded key (for read-back on workloads that
    /// never write).
    pub fn any_key(&mut self) -> u64 {
        self.rng.gen_range(0..KEYS)
    }
}

/// Decodes a reply without trusting it: `KvResult::decode` panics on
/// malformed bytes, and a malformed reply must count as a failure.
pub fn decode_reply(bytes: &[u8]) -> Option<KvResult> {
    match bytes {
        [0] => Some(KvResult::Ok),
        [1] => Some(KvResult::Err),
        [2, value @ ..] => Some(KvResult::Value(u64::from_le_bytes(value.try_into().ok()?))),
        _ => None,
    }
}

/// Whether `reply` is a variant the store can give for `op`:
/// `Read` → `Value | Err`, everything else → `Ok | Err`.
pub fn reply_is_valid(op: &KvOp, reply: KvResult) -> bool {
    match op {
        KvOp::Read { .. } => matches!(reply, KvResult::Value(_) | KvResult::Err),
        _ => matches!(reply, KvResult::Ok | KvResult::Err),
    }
}

/// What one client knows about the keys it owns: the state its last
/// acknowledged write left each in (`None` = deleted).
#[derive(Default)]
pub struct Model {
    last: HashMap<u64, Option<u64>>,
}

impl Model {
    /// Checks one reply and folds an acknowledged write into the model.
    /// Returns whether the reply passes.
    pub fn observe(&mut self, op: &KvOp, reply: &[u8]) -> bool {
        let Some(reply) = decode_reply(reply) else {
            return false;
        };
        if !reply_is_valid(op, reply) {
            return false;
        }
        // A refused write (`Err`: key missing, or already present for an
        // insert) changed nothing. Replies for one key arrive in
        // execution order, so applying at acknowledgement is exact.
        if reply == KvResult::Ok {
            match *op {
                KvOp::Update { key, value } | KvOp::Insert { key, value } => {
                    self.last.insert(key, Some(value));
                }
                KvOp::Delete { key } => {
                    self.last.insert(key, None);
                }
                KvOp::Read { .. } => {}
            }
        }
        true
    }

    /// Up to `limit` written keys with the reply a read of each must
    /// give, in key order so the selection repeats.
    pub fn expectations(&self, limit: usize) -> Vec<(u64, KvResult)> {
        let mut keys: Vec<(u64, Option<u64>)> = self.last.iter().map(|(k, v)| (*k, *v)).collect();
        keys.sort_unstable_by_key(|(k, _)| *k);
        keys.truncate(limit);
        keys.into_iter()
            .map(|(key, state)| (key, state.map_or(KvResult::Err, KvResult::Value)))
            .collect()
    }
}

/// Read-back expectations for a client: its written keys, or — on a
/// workload without writes — preloaded keys, which must still read as
/// their own key.
pub fn readback_plan(model: &Model, gen: &mut OpGen, limit: usize) -> Vec<(u64, KvResult)> {
    let plan = model.expectations(limit);
    if !plan.is_empty() {
        return plan;
    }
    (0..limit)
        .map(|_| {
            let key = gen.any_key();
            (key, KvResult::Value(key))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_commands_and_writers_own_their_keys() {
        let draw = |seed, client| {
            let mut gen = OpGen::new(KvMix::mixed(50.0), seed, client, 2);
            (0..500).map(|_| gen.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        for client in 0..2 {
            for op in draw(3, client) {
                if !matches!(op, KvOp::Read { .. }) {
                    assert_eq!(op.key() % 2, client, "{op:?}");
                }
                if let KvOp::Insert { key, .. } = op {
                    assert!(key >= KEYS);
                }
            }
        }
    }

    /// The acceptance criterion: a tampered reply fails the check.
    #[test]
    fn tampered_replies_fail_the_output_check() {
        let mut model = Model::default();
        let read = KvOp::Read { key: 4 };
        let update = KvOp::Update { key: 4, value: 9 };
        assert!(model.observe(&read, &KvResult::Value(4).encode()));
        assert!(model.observe(&update, &KvResult::Ok.encode()));
        // Wrong variant for the op.
        assert!(!model.observe(&read, &KvResult::Ok.encode()));
        assert!(!model.observe(&update, &KvResult::Value(9).encode()));
        // Malformed bytes: unknown tag, truncated value, empty, trailing.
        for bad in [&[7u8][..], &[2, 1, 2, 3], &[], &[0, 0]] {
            assert!(!model.observe(&read, bad), "{bad:?}");
        }
        // The read-back expects the acknowledged value, so a replica
        // that lost the write (still 4) or invented one is caught.
        assert_eq!(model.expectations(10), vec![(4, KvResult::Value(9))]);
    }

    #[test]
    fn model_follows_acknowledged_writes_only() {
        let mut model = Model::default();
        let key = KEYS + 2;
        assert!(model.observe(&KvOp::Insert { key, value: 1 }, &[0]));
        // A refused re-insert leaves the first value in place.
        assert!(model.observe(&KvOp::Insert { key, value: 2 }, &[1]));
        assert_eq!(model.expectations(10), vec![(key, KvResult::Value(1))]);
        assert!(model.observe(&KvOp::Delete { key }, &[0]));
        assert_eq!(model.expectations(10), vec![(key, KvResult::Err)]);
    }
}
