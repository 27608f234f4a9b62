//! The acceptor state machine.

use crate::ballot::Ballot;
use crate::msg::{Instance, PaxosMsg};
use std::collections::BTreeMap;

/// A Paxos acceptor over an unbounded sequence of instances.
///
/// The acceptor is a pure state machine: [`Acceptor::handle`] consumes a
/// message and returns the reply to send back to its origin (if any). All
/// instances share a single promised ballot, as in multi-Paxos where one
/// phase 1 covers the whole instance suffix.
///
/// # Example
///
/// ```
/// use psmr_paxos::acceptor::Acceptor;
/// use psmr_paxos::{Ballot, PaxosMsg};
///
/// let mut acc: Acceptor<u32> = Acceptor::new();
/// let reply = acc.handle(PaxosMsg::Prepare { ballot: Ballot::new(1, 0), from_instance: 0 });
/// assert!(matches!(reply, Some(PaxosMsg::Promise { .. })));
/// ```
#[derive(Debug, Clone)]
pub struct Acceptor<V> {
    promised: Ballot,
    accepted: BTreeMap<Instance, (Ballot, V)>,
}

impl<V: Clone> Acceptor<V> {
    /// Creates an acceptor that has promised nothing.
    pub fn new() -> Self {
        Self {
            promised: Ballot::ZERO,
            accepted: BTreeMap::new(),
        }
    }

    /// Highest ballot promised so far.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// The value accepted at `instance`, if any.
    pub fn accepted_at(&self, instance: Instance) -> Option<&(Ballot, V)> {
        self.accepted.get(&instance)
    }

    /// Number of instances with an accepted value.
    pub fn accepted_count(&self) -> usize {
        self.accepted.len()
    }

    /// Drops every accepted value below `instance`.
    ///
    /// Only safe once no proposer can ever prepare below `instance`
    /// again — for an acceptor that lives and dies with its group's one
    /// coordinator, once that coordinator has learned every instance
    /// below it (its phase 1 only ever asks from its next delivery).
    pub fn forget_below(&mut self, instance: Instance) {
        while self
            .accepted
            .first_key_value()
            .is_some_and(|(&i, _)| i < instance)
        {
            self.accepted.pop_first();
        }
    }

    /// Processes a proposer message, returning the acceptor's reply.
    ///
    /// `Prepare` yields `Promise` or `Nack`; `Accept` yields `Accepted` or
    /// `Nack`; other messages are ignored (`None`).
    pub fn handle(&mut self, msg: PaxosMsg<V>) -> Option<PaxosMsg<V>> {
        match msg {
            PaxosMsg::Prepare {
                ballot,
                from_instance,
            } => {
                // `>=` (not `>`) makes re-prepares of the promised ballot
                // idempotent: with network reordering a proposer's Prepare
                // may arrive after one of its own Accepts already bumped the
                // promise to the same ballot, and nacking it would trigger a
                // needless leadership restart. Equal ballots belong to the
                // same proposer (ballots embed the proposer id), so this is
                // safe.
                if ballot >= self.promised {
                    self.promised = ballot;
                    let accepted = self
                        .accepted
                        .range(from_instance..)
                        .map(|(&i, (b, v))| (i, *b, v.clone()))
                        .collect();
                    Some(PaxosMsg::Promise { ballot, accepted })
                } else {
                    Some(PaxosMsg::Nack {
                        rejected: ballot,
                        promised: self.promised,
                    })
                }
            }
            PaxosMsg::Accept {
                ballot,
                instance,
                value,
            } => {
                if ballot >= self.promised {
                    self.promised = ballot;
                    self.accepted.insert(instance, (ballot, value));
                    Some(PaxosMsg::Accepted { ballot, instance })
                } else {
                    Some(PaxosMsg::Nack {
                        rejected: ballot,
                        promised: self.promised,
                    })
                }
            }
            // Promise/Accepted/Nack/Decide are proposer- or learner-bound.
            _ => None,
        }
    }
}

impl<V: Clone> Default for Acceptor<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepare(round: u64) -> PaxosMsg<u32> {
        PaxosMsg::Prepare {
            ballot: Ballot::new(round, 0),
            from_instance: 0,
        }
    }

    fn accept(round: u64, instance: Instance, value: u32) -> PaxosMsg<u32> {
        PaxosMsg::Accept {
            ballot: Ballot::new(round, 0),
            instance,
            value,
        }
    }

    #[test]
    fn promises_higher_ballots_only() {
        let mut acc: Acceptor<u32> = Acceptor::new();
        assert!(matches!(
            acc.handle(prepare(2)),
            Some(PaxosMsg::Promise { .. })
        ));
        // Same ballot again: idempotent re-promise.
        assert!(matches!(
            acc.handle(prepare(2)),
            Some(PaxosMsg::Promise { .. })
        ));
        assert!(matches!(
            acc.handle(prepare(1)),
            Some(PaxosMsg::Nack { .. })
        ));
        assert!(matches!(
            acc.handle(prepare(3)),
            Some(PaxosMsg::Promise { .. })
        ));
        assert_eq!(acc.promised(), Ballot::new(3, 0));
    }

    #[test]
    fn accepts_at_or_above_promise() {
        let mut acc: Acceptor<u32> = Acceptor::new();
        acc.handle(prepare(5));
        // Equal ballot accepted.
        assert!(matches!(
            acc.handle(accept(5, 0, 10)),
            Some(PaxosMsg::Accepted { .. })
        ));
        // Stale ballot rejected, reveals promised ballot.
        match acc.handle(accept(4, 1, 11)) {
            Some(PaxosMsg::Nack { rejected, promised }) => {
                assert_eq!(rejected, Ballot::new(4, 0));
                assert_eq!(promised, Ballot::new(5, 0));
            }
            other => panic!("expected nack, got {other:?}"),
        }
        assert_eq!(acc.accepted_at(0), Some(&(Ballot::new(5, 0), 10)));
        assert_eq!(acc.accepted_at(1), None);
    }

    #[test]
    fn accept_with_higher_ballot_bumps_promise() {
        let mut acc: Acceptor<u32> = Acceptor::new();
        assert!(matches!(
            acc.handle(accept(7, 0, 1)),
            Some(PaxosMsg::Accepted { .. })
        ));
        assert_eq!(acc.promised(), Ballot::new(7, 0));
        // A (reordered) Prepare of the same ballot is re-promised, and the
        // promise reports the accepted value so no information is lost.
        match acc.handle(prepare(7)) {
            Some(PaxosMsg::Promise { accepted, .. }) => {
                assert_eq!(accepted, vec![(0, Ballot::new(7, 0), 1)]);
            }
            other => panic!("expected idempotent promise, got {other:?}"),
        }
        assert!(matches!(
            acc.handle(prepare(6)),
            Some(PaxosMsg::Nack { .. })
        ));
    }

    #[test]
    fn promise_reports_previously_accepted_suffix() {
        let mut acc: Acceptor<u32> = Acceptor::new();
        acc.handle(accept(1, 3, 30));
        acc.handle(accept(1, 7, 70));
        match acc.handle(PaxosMsg::Prepare {
            ballot: Ballot::new(2, 1),
            from_instance: 5,
        }) {
            Some(PaxosMsg::Promise { accepted, .. }) => {
                assert_eq!(accepted, vec![(7, Ballot::new(1, 0), 70)]);
            }
            other => panic!("expected promise, got {other:?}"),
        }
    }

    #[test]
    fn re_accept_overwrites_with_newer_ballot() {
        let mut acc: Acceptor<u32> = Acceptor::new();
        acc.handle(accept(1, 0, 10));
        acc.handle(accept(2, 0, 20));
        assert_eq!(acc.accepted_at(0), Some(&(Ballot::new(2, 0), 20)));
        assert_eq!(acc.accepted_count(), 1);
    }

    #[test]
    fn forget_below_drops_only_the_decided_prefix() {
        let mut acc: Acceptor<u32> = Acceptor::new();
        for i in 0..5 {
            acc.handle(accept(1, i, i as u32));
        }
        acc.forget_below(3);
        assert_eq!(acc.accepted_count(), 2);
        assert_eq!(acc.accepted_at(2), None);
        assert_eq!(acc.accepted_at(3), Some(&(Ballot::new(1, 0), 3)));
        assert_eq!(acc.promised(), Ballot::new(1, 0), "the promise stays");
    }

    #[test]
    fn ignores_peer_replies() {
        let mut acc: Acceptor<u32> = Acceptor::new();
        assert!(acc
            .handle(PaxosMsg::Decide {
                instance: 0,
                value: 1
            })
            .is_none());
        assert!(acc
            .handle(PaxosMsg::Accepted {
                ballot: Ballot::ZERO,
                instance: 0
            })
            .is_none());
    }
}
