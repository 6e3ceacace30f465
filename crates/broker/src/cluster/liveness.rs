//! Peer failure detection for one federation node.
//!
//! NaradaBrokering runs "a dynamic collection of brokers": links come
//! and go, and a node must notice a silent direct peer and route around
//! it rather than lose every frame whose path crosses it.
//! [`FailureDetector`] is sans-IO and clocked in gossip rounds. Once per
//! round the node's data plane reports which direct peers it heard from
//! since the last round — any record, `Ack` or gossip digest counts, and
//! every round sends each direct peer a digest, so an idle link still
//! beats — and the detector answers with the peers whose state changed:
//! a peer unheard for [`SUSPECT_AFTER`] rounds is suspected, once, and a
//! suspected peer heard again has rejoined, once. Because the clock is
//! the round count rather than the wall clock, the verdicts of an
//! in-process federation are a pure function of its operation sequence.

use crate::gossip::NodeId;

/// Gossip rounds of silence after which a direct peer is suspected.
pub const SUSPECT_AFTER: u64 = 3;

/// A change in one direct peer's liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Verdict {
    /// The peer fell silent: route around it.
    Suspected(NodeId),
    /// A suspected peer was heard again: route through it again.
    Rejoined(NodeId),
}

/// What the detector believes about one direct peer.
#[derive(Debug, Clone, Copy)]
enum Peer {
    /// Last heard in this round (or watched since it).
    Alive(u64),
    /// Silent for [`SUSPECT_AFTER`] rounds and not heard since.
    Suspected,
}

/// Round-clocked failure detector over a node's direct peers.
#[derive(Debug)]
pub(super) struct FailureDetector {
    round: u64,
    peers: Vec<(NodeId, Peer)>,
}

impl FailureDetector {
    /// Watches `peers`, each as if heard at round 0.
    pub(super) fn new(peers: impl IntoIterator<Item = NodeId>) -> Self {
        Self {
            round: 0,
            peers: peers.into_iter().map(|peer| (peer, Peer::Alive(0))).collect(),
        }
    }

    /// Advances the clock one round. `heard(peer)` says whether `peer`
    /// was heard since the previous round; it is asked once per peer, in
    /// the order the peers were given. Returns the round's transitions in
    /// that order.
    pub(super) fn round(&mut self, mut heard: impl FnMut(NodeId) -> bool) -> Vec<Verdict> {
        self.round += 1;
        let now = self.round;
        let mut verdicts = Vec::new();
        for (peer, state) in &mut self.peers {
            match (*state, heard(*peer)) {
                (Peer::Suspected, true) => {
                    *state = Peer::Alive(now);
                    verdicts.push(Verdict::Rejoined(*peer));
                }
                (Peer::Alive(_), true) => *state = Peer::Alive(now),
                (Peer::Alive(last), false) if now - last >= SUSPECT_AFTER => {
                    *state = Peer::Suspected;
                    verdicts.push(Verdict::Suspected(*peer));
                }
                _ => {}
            }
        }
        verdicts
    }

    /// Whether no direct peer is suspected.
    pub(super) fn suspects_none(&self) -> bool {
        self.peers.iter().all(|(_, state)| matches!(state, Peer::Alive(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `rounds` rounds in which exactly the peers in `heard` beat.
    fn rounds(fd: &mut FailureDetector, rounds: u64, heard: &[NodeId]) -> Vec<Verdict> {
        (0..rounds)
            .flat_map(|_| fd.round(|peer| heard.contains(&peer)))
            .collect()
    }

    #[test]
    fn a_peer_heard_every_round_stays_alive() {
        let mut fd = FailureDetector::new([1, 2]);
        assert!(rounds(&mut fd, 50, &[1, 2]).is_empty());
    }

    #[test]
    fn a_silent_peer_is_suspected_once_after_the_timeout() {
        let mut fd = FailureDetector::new([1, 2]);
        assert!(rounds(&mut fd, SUSPECT_AFTER - 1, &[2]).is_empty());
        assert_eq!(rounds(&mut fd, 1, &[2]), vec![Verdict::Suspected(1)]);
        assert!(rounds(&mut fd, 20, &[2]).is_empty(), "reported exactly once");
    }

    #[test]
    fn one_beat_inside_the_timeout_resets_it() {
        let mut fd = FailureDetector::new([1]);
        for _ in 0..10 {
            assert!(rounds(&mut fd, SUSPECT_AFTER - 1, &[]).is_empty());
            assert!(rounds(&mut fd, 1, &[1]).is_empty());
        }
    }

    /// Suspicions and rejoins of one peer strictly alternate, and a peer
    /// that comes back is suspected again on its second death.
    #[test]
    fn a_rejoined_peer_is_suspected_again_on_its_next_death() {
        let mut fd = FailureDetector::new([4]);
        let mut history = rounds(&mut fd, SUSPECT_AFTER, &[]);
        history.extend(rounds(&mut fd, 2, &[4]));
        history.extend(rounds(&mut fd, SUSPECT_AFTER + 5, &[]));
        history.extend(rounds(&mut fd, 1, &[4]));
        assert_eq!(
            history,
            [
                Verdict::Suspected(4),
                Verdict::Rejoined(4),
                Verdict::Suspected(4),
                Verdict::Rejoined(4)
            ]
        );
    }
}
