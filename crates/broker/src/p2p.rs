//! Peer-to-peer delivery mode.
//!
//! NaradaBrokering "can operate either in a client-server mode like JMS
//! or in a completely distributed JXTA-like peer-to-peer mode", and the
//! paper claims the combination allows "optimized
//! performance-functionality trade-offs". This module models the P2P
//! side: peers discover each other through a rendezvous directory and
//! exchange events directly, with no broker hop — cheaper end-to-end
//! latency for small groups, but the publisher pays the whole fan-out.
//! [`ModeCost`] quantifies the trade-off; the `ablation` bench sweeps it.

use std::collections::HashMap;

use std::sync::Arc;

use mmcs_util::id::ClientId;

use crate::event::Event;
use crate::topic::{SubscriptionTable, Topic, TopicFilter};

/// How a group's events are delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryMode {
    /// Via the broker network (JMS-like).
    ClientServer,
    /// Directly peer-to-peer (JXTA-like).
    PeerToPeer,
}

/// A rendezvous-coordinated peer group exchanging events directly.
///
/// # Examples
///
/// ```
/// use mmcs_broker::p2p::P2pGroup;
/// use mmcs_broker::topic::{Topic, TopicFilter};
/// use mmcs_util::id::ClientId;
/// use bytes::Bytes;
///
/// let mut group = P2pGroup::new();
/// let a = ClientId::from_raw(1);
/// let b = ClientId::from_raw(2);
/// group.join(a);
/// group.join(b);
/// group.subscribe(b, TopicFilter::parse("chat/#")?)?;
/// let deliveries = group.publish(a, Topic::parse("chat/room1")?, Bytes::from_static(b"hi"))?;
/// assert_eq!(deliveries.len(), 1);
/// assert_eq!(deliveries[0].0, b);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct P2pGroup {
    members: HashMap<ClientId, u64>,
    subs: SubscriptionTable<ClientId>,
}

/// Error from peer-group operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotAMemberError(pub ClientId);

impl std::fmt::Display for NotAMemberError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client {} is not a member of the peer group", self.0)
    }
}

impl std::error::Error for NotAMemberError {}

impl P2pGroup {
    /// Creates an empty peer group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a peer (idempotent).
    pub fn join(&mut self, peer: ClientId) {
        self.members.entry(peer).or_insert(0);
    }

    /// Removes a peer and all its subscriptions.
    pub fn leave(&mut self, peer: ClientId) {
        if self.members.remove(&peer).is_some() {
            self.subs.unsubscribe_all(&peer);
        }
    }

    /// Current membership size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Subscribes a member to a filter.
    ///
    /// # Errors
    ///
    /// Returns [`NotAMemberError`] if the peer never joined.
    pub fn subscribe(&mut self, peer: ClientId, filter: TopicFilter) -> Result<(), NotAMemberError> {
        if !self.members.contains_key(&peer) {
            return Err(NotAMemberError(peer));
        }
        self.subs.subscribe(&filter, peer);
        Ok(())
    }

    /// Publishes directly to every matching peer except the publisher;
    /// returns `(peer, event)` pairs the publisher must transmit itself.
    ///
    /// # Errors
    ///
    /// Returns [`NotAMemberError`] if the publisher never joined.
    pub fn publish(
        &mut self,
        from: ClientId,
        topic: Topic,
        payload: bytes::Bytes,
    ) -> Result<Vec<(ClientId, Arc<Event>)>, NotAMemberError> {
        let seq = self
            .members
            .get_mut(&from)
            .ok_or(NotAMemberError(from))?;
        let event = Event::new(topic, from, *seq, crate::event::EventClass::Data, payload)
            .into_shared();
        *seq += 1;
        Ok(self
            .subs
            .matches(&event.topic)
            .into_iter()
            .filter(|peer| *peer != from)
            .map(|peer| (peer, Arc::clone(&event)))
            .collect())
    }
}

/// Cost of delivering one event to `receivers` subscribers in each mode.
///
/// The units are abstract "transmissions"; the point is the shape: P2P
/// halves total hops but concentrates them all on the publisher, so it
/// wins for small groups and loses once the publisher's uplink saturates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeCost {
    /// Transmissions the publisher performs.
    pub publisher_sends: usize,
    /// Total hops across the system.
    pub total_hops: usize,
}

impl ModeCost {
    /// Computes the cost profile for a mode and group size.
    pub fn of(mode: DeliveryMode, receivers: usize) -> ModeCost {
        match mode {
            DeliveryMode::ClientServer => ModeCost {
                publisher_sends: 1,
                total_hops: 1 + receivers,
            },
            DeliveryMode::PeerToPeer => ModeCost {
                publisher_sends: receivers,
                total_hops: receivers,
            },
        }
    }

    /// The mode with the lower publisher load given the publisher can
    /// sustain at most `uplink_sends` transmissions per event.
    pub fn preferred_mode(receivers: usize, uplink_sends: usize) -> DeliveryMode {
        if receivers <= uplink_sends {
            DeliveryMode::PeerToPeer
        } else {
            DeliveryMode::ClientServer
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn client(n: u64) -> ClientId {
        ClientId::from_raw(n)
    }

    #[test]
    fn publish_reaches_matching_peers_not_self() {
        let mut group = P2pGroup::new();
        for i in 1..=3 {
            group.join(client(i));
        }
        group
            .subscribe(client(1), TopicFilter::parse("t/#").unwrap())
            .unwrap();
        group
            .subscribe(client(2), TopicFilter::parse("t/#").unwrap())
            .unwrap();
        let deliveries = group
            .publish(client(1), Topic::parse("t/x").unwrap(), Bytes::new())
            .unwrap();
        // Client 1 published, so only client 2 receives.
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, client(2));
    }

    #[test]
    fn leave_removes_subscriptions() {
        let mut group = P2pGroup::new();
        group.join(client(1));
        group.join(client(2));
        group
            .subscribe(client(2), TopicFilter::parse("t").unwrap())
            .unwrap();
        group.leave(client(2));
        let deliveries = group
            .publish(client(1), Topic::parse("t").unwrap(), Bytes::new())
            .unwrap();
        assert!(deliveries.is_empty());
        assert_eq!(group.len(), 1);
    }

    #[test]
    fn non_members_error() {
        let mut group = P2pGroup::new();
        assert_eq!(
            group.subscribe(client(9), TopicFilter::parse("t").unwrap()),
            Err(NotAMemberError(client(9)))
        );
        assert_eq!(
            group
                .publish(client(9), Topic::parse("t").unwrap(), Bytes::new())
                .unwrap_err(),
            NotAMemberError(client(9))
        );
    }

    #[test]
    fn sequence_numbers_advance_per_peer() {
        let mut group = P2pGroup::new();
        group.join(client(1));
        group.join(client(2));
        group
            .subscribe(client(2), TopicFilter::parse("t").unwrap())
            .unwrap();
        let first = group
            .publish(client(1), Topic::parse("t").unwrap(), Bytes::new())
            .unwrap();
        let second = group
            .publish(client(1), Topic::parse("t").unwrap(), Bytes::new())
            .unwrap();
        assert_eq!(first[0].1.seq, 0);
        assert_eq!(second[0].1.seq, 1);
    }

    #[test]
    fn mode_costs_cross_over() {
        // Small group: P2P does fewer total hops and is preferred.
        let p2p_small = ModeCost::of(DeliveryMode::PeerToPeer, 3);
        let cs_small = ModeCost::of(DeliveryMode::ClientServer, 3);
        assert!(p2p_small.total_hops < cs_small.total_hops);
        assert_eq!(ModeCost::preferred_mode(3, 8), DeliveryMode::PeerToPeer);
        // Big group: publisher cannot sustain the fan-out; client-server
        // keeps the publisher at one send.
        assert_eq!(
            ModeCost::preferred_mode(400, 8),
            DeliveryMode::ClientServer
        );
        assert_eq!(ModeCost::of(DeliveryMode::ClientServer, 400).publisher_sends, 1);
        assert_eq!(ModeCost::of(DeliveryMode::PeerToPeer, 400).publisher_sends, 400);
    }
}
