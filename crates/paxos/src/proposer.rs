//! The proposer (coordinator) state machine.

use crate::ballot::Ballot;
use crate::msg::{Instance, PaxosMsg};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Which phase the proposer is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not yet started phase 1.
    Idle,
    /// Waiting for a quorum of promises.
    Preparing,
    /// Phase 1 complete: values may be proposed directly (phase 2).
    Leading,
}

#[derive(Debug, Clone)]
struct Inflight<V> {
    ballot: Ballot,
    value: V,
    accepted_by: HashSet<u64>,
    decided: bool,
}

/// A multi-instance Paxos proposer, acting as coordinator and distinguished
/// learner for its group.
///
/// Pure state machine: inputs are [`Proposer::start`], [`Proposer::submit`]
/// and [`Proposer::handle`]; outputs are messages to broadcast to all
/// acceptors plus an ordered queue of decisions ([`Proposer::take_decided`]).
///
/// # Example
///
/// ```
/// use psmr_paxos::proposer::Proposer;
/// use psmr_paxos::PaxosMsg;
///
/// let mut prop: Proposer<u32> = Proposer::new(0, 3);
/// let prepare = prop.start();
/// assert!(matches!(prepare, PaxosMsg::Prepare { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct Proposer<V> {
    id: u64,
    n_acceptors: usize,
    ballot: Ballot,
    phase: Phase,
    promised_by: HashSet<u64>,
    /// Values reported accepted by promisers: instance → highest-ballot value.
    recovered: BTreeMap<Instance, (Ballot, V)>,
    pending: VecDeque<V>,
    next_instance: Instance,
    inflight: BTreeMap<Instance, Inflight<V>>,
    /// Decisions not yet handed to the caller, flushed in instance order.
    decided: BTreeMap<Instance, V>,
    next_delivery: Instance,
}

impl<V: Clone> Proposer<V> {
    /// Creates a proposer with the given node id and acceptor count.
    ///
    /// # Panics
    ///
    /// Panics if `n_acceptors` is zero.
    pub fn new(id: u64, n_acceptors: usize) -> Self {
        assert!(n_acceptors > 0, "need at least one acceptor");
        Self {
            id,
            n_acceptors,
            ballot: Ballot::ZERO,
            phase: Phase::Idle,
            promised_by: HashSet::new(),
            recovered: BTreeMap::new(),
            pending: VecDeque::new(),
            next_instance: 0,
            inflight: BTreeMap::new(),
            decided: BTreeMap::new(),
            next_delivery: 0,
        }
    }

    fn quorum(&self) -> usize {
        self.n_acceptors / 2 + 1
    }

    /// Returns whether phase 1 has completed.
    pub fn is_leading(&self) -> bool {
        self.phase == Phase::Leading
    }

    /// The proposer's current ballot.
    pub fn ballot(&self) -> Ballot {
        self.ballot
    }

    /// Starts (or restarts) phase 1 with a fresh, larger ballot. Returns the
    /// `Prepare` to broadcast to all acceptors.
    pub fn start(&mut self) -> PaxosMsg<V> {
        self.ballot = self.ballot.next_for(self.id);
        self.phase = Phase::Preparing;
        self.promised_by.clear();
        self.recovered.clear();
        PaxosMsg::Prepare {
            ballot: self.ballot,
            from_instance: self.next_delivery,
        }
    }

    /// Queues a value for consensus. If the proposer is leading, the value
    /// is assigned the next instance and the `Accept` to broadcast is
    /// returned; otherwise it stays queued until leadership is established.
    pub fn submit(&mut self, value: V) -> Vec<PaxosMsg<V>> {
        self.pending.push_back(value);
        if self.phase == Phase::Leading {
            self.flush_pending()
        } else {
            Vec::new()
        }
    }

    /// Number of instances proposed but not yet decided.
    pub fn inflight_len(&self) -> usize {
        self.inflight.values().filter(|f| !f.decided).count()
    }

    fn flush_pending(&mut self) -> Vec<PaxosMsg<V>> {
        let mut out = Vec::new();
        while let Some(value) = self.pending.pop_front() {
            let instance = self.next_instance;
            self.next_instance += 1;
            self.inflight.insert(
                instance,
                Inflight {
                    ballot: self.ballot,
                    value: value.clone(),
                    accepted_by: HashSet::new(),
                    decided: false,
                },
            );
            out.push(PaxosMsg::Accept {
                ballot: self.ballot,
                instance,
                value,
            });
        }
        out
    }

    /// Processes an acceptor reply. `from` identifies the acceptor. Returns
    /// messages to broadcast (possibly empty).
    pub fn handle(&mut self, from: u64, msg: PaxosMsg<V>) -> Vec<PaxosMsg<V>> {
        match msg {
            PaxosMsg::Promise { ballot, accepted } if ballot == self.ballot => {
                if self.phase != Phase::Preparing {
                    return Vec::new();
                }
                self.promised_by.insert(from);
                for (instance, b, v) in accepted {
                    match self.recovered.get(&instance) {
                        Some((prev, _)) if *prev >= b => {}
                        _ => {
                            self.recovered.insert(instance, (b, v));
                        }
                    }
                }
                if self.promised_by.len() >= self.quorum() {
                    self.become_leader()
                } else {
                    Vec::new()
                }
            }
            PaxosMsg::Accepted { ballot, instance } => {
                let quorum = self.quorum();
                let Some(flight) = self.inflight.get_mut(&instance) else {
                    return Vec::new();
                };
                if flight.ballot != ballot || flight.decided {
                    return Vec::new();
                }
                flight.accepted_by.insert(from);
                if flight.accepted_by.len() >= quorum {
                    flight.decided = true;
                    let value = flight.value.clone();
                    self.decided.insert(instance, value.clone());
                    return vec![PaxosMsg::Decide { instance, value }];
                }
                Vec::new()
            }
            PaxosMsg::Nack { rejected, promised }
                if rejected == self.ballot && promised > self.ballot =>
            {
                // Another proposer got in: restart phase 1 above it.
                self.ballot = Ballot::new(promised.round, 0);
                // Requeue undecided in-flight values ahead of pending ones.
                let mut requeue: Vec<V> = Vec::new();
                for (_, flight) in std::mem::take(&mut self.inflight) {
                    if flight.decided {
                        continue;
                    }
                    requeue.push(flight.value);
                }
                for v in requeue.into_iter().rev() {
                    self.pending.push_front(v);
                }
                self.next_instance = self.next_delivery;
                vec![self.start()]
            }
            _ => Vec::new(),
        }
    }

    fn become_leader(&mut self) -> Vec<PaxosMsg<V>> {
        self.phase = Phase::Leading;
        let mut out = Vec::new();
        // Re-propose recovered values first: safety requires the leader to
        // propose the highest-ballot accepted value for any instance a
        // quorum member reported.
        for (instance, (_, value)) in std::mem::take(&mut self.recovered) {
            self.next_instance = self.next_instance.max(instance + 1);
            self.inflight.insert(
                instance,
                Inflight {
                    ballot: self.ballot,
                    value: value.clone(),
                    accepted_by: HashSet::new(),
                    decided: false,
                },
            );
            out.push(PaxosMsg::Accept {
                ballot: self.ballot,
                instance,
                value,
            });
        }
        out.extend(self.flush_pending());
        out
    }

    /// The `Accept` of every instance proposed under the current ballot
    /// and not yet decided, to send again when votes may have been lost
    /// (an acceptor that already accepted one accepts it again).
    pub fn undecided_accepts(&self) -> Vec<PaxosMsg<V>> {
        if self.phase != Phase::Leading {
            return Vec::new();
        }
        self.inflight
            .iter()
            .filter(|(_, flight)| !flight.decided)
            .map(|(&instance, flight)| PaxosMsg::Accept {
                ballot: flight.ballot,
                instance,
                value: flight.value.clone(),
            })
            .collect()
    }

    /// Drains decisions that are contiguous from the last delivery point,
    /// in instance order. This is the ordered stream a group feeds to its
    /// subscribers.
    pub fn take_decided(&mut self) -> Vec<(Instance, V)> {
        let mut out = Vec::new();
        while let Some(value) = self.decided.remove(&self.next_delivery) {
            out.push((self.next_delivery, value));
            self.inflight.remove(&self.next_delivery);
            self.next_delivery += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a proposer and three acceptors to completion synchronously.
    fn decide_all(values: Vec<u32>) -> Vec<(Instance, u32)> {
        use crate::acceptor::Acceptor;
        let mut prop: Proposer<u32> = Proposer::new(0, 3);
        let mut accs: Vec<Acceptor<u32>> = (0..3).map(|_| Acceptor::new()).collect();
        let mut to_acceptors = vec![prop.start()];
        for v in values {
            to_acceptors.extend(prop.submit(v));
        }
        let mut decided = Vec::new();
        while let Some(msg) = to_acceptors.pop() {
            for (i, acc) in accs.iter_mut().enumerate() {
                if let Some(reply) = acc.handle(msg.clone()) {
                    to_acceptors.extend(prop.handle(i as u64, reply));
                }
            }
            decided.extend(prop.take_decided());
        }
        decided.sort();
        decided
    }

    #[test]
    fn undecided_accepts_resend_exactly_the_open_instances() {
        let mut prop: Proposer<u32> = Proposer::new(0, 3);
        assert!(prop.undecided_accepts().is_empty(), "not leading yet");
        prop.start();
        let promise = PaxosMsg::Promise {
            ballot: prop.ballot(),
            accepted: vec![],
        };
        prop.handle(0, promise.clone());
        prop.handle(1, promise);
        prop.submit(10);
        prop.submit(20);
        let accepted = PaxosMsg::Accepted {
            ballot: prop.ballot(),
            instance: 0,
        };
        prop.handle(0, accepted.clone());
        prop.handle(1, accepted);
        let resend = prop.undecided_accepts();
        assert_eq!(
            resend,
            vec![PaxosMsg::Accept {
                ballot: prop.ballot(),
                instance: 1,
                value: 20
            }]
        );
    }

    #[test]
    fn needs_quorum_before_leading() {
        let mut prop: Proposer<u32> = Proposer::new(0, 3);
        let prepare = prop.start();
        assert!(!prop.is_leading());
        let promise = PaxosMsg::Promise {
            ballot: prop.ballot(),
            accepted: vec![],
        };
        prop.handle(0, promise.clone());
        assert!(!prop.is_leading(), "one promise is not a quorum of 3");
        prop.handle(1, promise);
        assert!(prop.is_leading());
        drop(prepare);
    }

    #[test]
    fn duplicate_promises_do_not_fake_a_quorum() {
        let mut prop: Proposer<u32> = Proposer::new(0, 3);
        prop.start();
        let promise = PaxosMsg::Promise {
            ballot: prop.ballot(),
            accepted: vec![],
        };
        prop.handle(0, promise.clone());
        prop.handle(0, promise);
        assert!(!prop.is_leading());
    }

    #[test]
    fn decides_submitted_values_in_order() {
        let decided = decide_all(vec![10, 20, 30]);
        assert_eq!(decided, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn values_submitted_before_leadership_are_flushed_after() {
        let mut prop: Proposer<u32> = Proposer::new(0, 3);
        assert!(prop.submit(99).is_empty(), "not leading yet");
        prop.start();
        let promise = PaxosMsg::Promise {
            ballot: prop.ballot(),
            accepted: vec![],
        };
        prop.handle(0, promise.clone());
        let out = prop.handle(1, promise);
        assert!(
            out.iter()
                .any(|m| matches!(m, PaxosMsg::Accept { value, .. } if *value == 99)),
            "queued value proposed on leadership: {out:?}"
        );
    }

    #[test]
    fn recovered_values_are_reproposed() {
        let mut prop: Proposer<u32> = Proposer::new(1, 3);
        prop.start();
        let b = prop.ballot();
        // Acceptor 0 reports it accepted 77 at instance 0 under an older ballot.
        prop.handle(
            0,
            PaxosMsg::Promise {
                ballot: b,
                accepted: vec![(0, Ballot::new(1, 0), 77)],
            },
        );
        let out = prop.handle(
            1,
            PaxosMsg::Promise {
                ballot: b,
                accepted: vec![],
            },
        );
        match &out[..] {
            [PaxosMsg::Accept {
                instance: 0,
                value: 77,
                ..
            }] => {}
            other => panic!("expected re-proposal of 77, got {other:?}"),
        }
    }

    #[test]
    fn highest_ballot_recovered_value_wins() {
        let mut prop: Proposer<u32> = Proposer::new(1, 3);
        prop.start();
        let b = prop.ballot();
        prop.handle(
            0,
            PaxosMsg::Promise {
                ballot: b,
                accepted: vec![(0, Ballot::new(1, 0), 7)],
            },
        );
        let out = prop.handle(
            1,
            PaxosMsg::Promise {
                ballot: b,
                accepted: vec![(0, Ballot::new(2, 0), 8)],
            },
        );
        assert!(
            out.iter().any(|m| matches!(
                m,
                PaxosMsg::Accept {
                    instance: 0,
                    value: 8,
                    ..
                }
            )),
            "value accepted under the higher ballot must win: {out:?}"
        );
    }

    #[test]
    fn quorum_of_accepted_emits_decide() {
        let mut prop: Proposer<u32> = Proposer::new(0, 3);
        prop.start();
        let promise = PaxosMsg::Promise {
            ballot: prop.ballot(),
            accepted: vec![],
        };
        prop.handle(0, promise.clone());
        prop.handle(1, promise);
        let accepts = prop.submit(5);
        let (ballot, instance) = match &accepts[..] {
            [PaxosMsg::Accept {
                ballot, instance, ..
            }] => (*ballot, *instance),
            other => panic!("expected one accept, got {other:?}"),
        };
        assert!(prop
            .handle(0, PaxosMsg::Accepted { ballot, instance })
            .is_empty());
        let out = prop.handle(1, PaxosMsg::Accepted { ballot, instance });
        assert!(matches!(
            &out[..],
            [PaxosMsg::Decide {
                instance: 0,
                value: 5
            }]
        ));
        assert_eq!(prop.take_decided(), vec![(0, 5)]);
        assert_eq!(prop.take_decided(), vec![], "decisions drained once");
    }

    #[test]
    fn decisions_are_delivered_in_contiguous_order() {
        let mut prop: Proposer<u32> = Proposer::new(0, 3);
        prop.start();
        let promise = PaxosMsg::Promise {
            ballot: prop.ballot(),
            accepted: vec![],
        };
        prop.handle(0, promise.clone());
        prop.handle(1, promise);
        let a0 = prop.submit(10);
        let a1 = prop.submit(11);
        let ext = |msgs: &[PaxosMsg<u32>]| match msgs {
            [PaxosMsg::Accept {
                ballot, instance, ..
            }] => (*ballot, *instance),
            other => panic!("expected accept, got {other:?}"),
        };
        let (b0, i0) = ext(&a0);
        let (b1, i1) = ext(&a1);
        // Decide instance 1 first: nothing deliverable yet.
        prop.handle(
            0,
            PaxosMsg::Accepted {
                ballot: b1,
                instance: i1,
            },
        );
        prop.handle(
            1,
            PaxosMsg::Accepted {
                ballot: b1,
                instance: i1,
            },
        );
        assert!(prop.take_decided().is_empty(), "gap at instance 0");
        prop.handle(
            0,
            PaxosMsg::Accepted {
                ballot: b0,
                instance: i0,
            },
        );
        prop.handle(
            1,
            PaxosMsg::Accepted {
                ballot: b0,
                instance: i0,
            },
        );
        assert_eq!(prop.take_decided(), vec![(0, 10), (1, 11)]);
    }

    #[test]
    fn nack_restarts_with_higher_ballot_and_requeues() {
        let mut prop: Proposer<u32> = Proposer::new(0, 3);
        prop.start();
        let promise = PaxosMsg::Promise {
            ballot: prop.ballot(),
            accepted: vec![],
        };
        prop.handle(0, promise.clone());
        prop.handle(1, promise);
        let accepts = prop.submit(42);
        let (ballot, _) = match &accepts[..] {
            [PaxosMsg::Accept {
                ballot, instance, ..
            }] => (*ballot, *instance),
            other => panic!("{other:?}"),
        };
        let out = prop.handle(
            2,
            PaxosMsg::Nack {
                rejected: ballot,
                promised: Ballot::new(9, 2),
            },
        );
        match &out[..] {
            [PaxosMsg::Prepare { ballot: newb, .. }] => {
                assert!(*newb > Ballot::new(9, 2));
            }
            other => panic!("expected restart prepare, got {other:?}"),
        }
        assert!(!prop.is_leading());
        // On re-acquiring leadership the value must be re-proposed.
        let promise = PaxosMsg::Promise {
            ballot: prop.ballot(),
            accepted: vec![],
        };
        prop.handle(0, promise.clone());
        let out = prop.handle(1, promise);
        assert!(
            out.iter()
                .any(|m| matches!(m, PaxosMsg::Accept { value: 42, .. })),
            "{out:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one acceptor")]
    fn zero_acceptors_rejected() {
        let _: Proposer<u32> = Proposer::new(0, 0);
    }
}
