//! An in-memory broker network.
//!
//! [`BrokerNetwork`] wires several [`BrokerNode`]s together with zero-cost
//! synchronous links: every action a node emits is executed immediately
//! (forwards are fed to the peer node, adverts update the peer's interest
//! table, deliveries are collected for the caller). This is the
//! driver-less mode used by unit/property tests and by components that
//! need pub/sub semantics without a network model; the simulator driver
//! in [`crate::simdrv`] adds time and cost.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use mmcs_util::id::{BrokerId, ClientId, IdAllocator};

use crate::event::{Event, EventClass};
use crate::node::{Action, BrokerError, BrokerNode, Input, Origin};
use crate::profile::TransportProfile;
use crate::topic::{Topic, TopicFilter};

/// A delivery produced by [`BrokerNetwork::publish`].
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The receiving client.
    pub client: ClientId,
    /// The client's transport profile.
    pub profile: TransportProfile,
    /// The delivered event.
    pub event: Arc<Event>,
}

/// Error from network-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// Underlying broker rejected the input.
    Broker(BrokerError),
    /// Linking these brokers would create a cycle (broker networks are
    /// trees; see [`crate::node`] module docs).
    WouldCycle(BrokerId, BrokerId),
    /// Unknown broker id.
    UnknownBroker(BrokerId),
    /// Unknown client id.
    UnknownClient(ClientId),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Broker(e) => write!(f, "broker error: {e}"),
            NetworkError::WouldCycle(a, b) => {
                write!(f, "linking {a} and {b} would create a cycle")
            }
            NetworkError::UnknownBroker(b) => write!(f, "unknown broker {b}"),
            NetworkError::UnknownClient(c) => write!(f, "unknown client {c}"),
        }
    }
}

impl std::error::Error for NetworkError {}

impl From<BrokerError> for NetworkError {
    fn from(e: BrokerError) -> Self {
        NetworkError::Broker(e)
    }
}

/// Several brokers plus synchronous links. See the [module docs](self).
#[derive(Debug, Default)]
pub struct BrokerNetwork {
    nodes: HashMap<BrokerId, BrokerNode>,
    broker_ids: IdAllocator<BrokerId>,
    client_ids: IdAllocator<ClientId>,
    client_home: HashMap<ClientId, BrokerId>,
    client_seq: HashMap<ClientId, u64>,
    deliveries: Vec<Delivery>,
    /// Recycled action buffers, one per level of cascade depth reached so
    /// far; steady-state dispatch allocates nothing.
    spare: Vec<Vec<Action>>,
}

impl BrokerNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a broker node.
    pub fn add_broker(&mut self) -> BrokerId {
        let id = self.broker_ids.next();
        self.nodes.insert(id, BrokerNode::new(id));
        id
    }

    /// Number of brokers.
    pub fn broker_count(&self) -> usize {
        self.nodes.len()
    }

    /// Borrows a broker node (e.g. to read counters).
    pub fn broker(&self, id: BrokerId) -> Option<&BrokerNode> {
        self.nodes.get(&id)
    }

    /// Links two brokers.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::WouldCycle`] if the brokers are already
    /// connected through other links, and [`NetworkError::UnknownBroker`]
    /// for unknown ids.
    pub fn link(&mut self, a: BrokerId, b: BrokerId) -> Result<(), NetworkError> {
        if !self.nodes.contains_key(&a) {
            return Err(NetworkError::UnknownBroker(a));
        }
        if !self.nodes.contains_key(&b) {
            return Err(NetworkError::UnknownBroker(b));
        }
        if a == b || self.connected(a, b) {
            return Err(NetworkError::WouldCycle(a, b));
        }
        self.dispatch(a, Input::LinkUp { peer: b })?;
        self.dispatch(b, Input::LinkUp { peer: a })?;
        Ok(())
    }

    /// Tears down a link (both directions).
    ///
    /// # Errors
    ///
    /// Returns an error if either side has no such link.
    pub fn unlink(&mut self, a: BrokerId, b: BrokerId) -> Result<(), NetworkError> {
        self.dispatch(a, Input::LinkDown { peer: b })?;
        self.dispatch(b, Input::LinkDown { peer: a })?;
        Ok(())
    }

    /// Whether two brokers can reach each other over links.
    fn connected(&self, from: BrokerId, to: BrokerId) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![from];
        while let Some(current) = stack.pop() {
            if current == to {
                return true;
            }
            if let Some(node) = self.nodes.get(&current) {
                for peer in node.peers() {
                    if !seen.contains(&peer) {
                        seen.push(peer);
                        stack.push(peer);
                    }
                }
            }
        }
        false
    }

    /// Attaches a new client to a broker with the default (TCP) profile.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is unknown.
    pub fn attach_client(&mut self, broker: BrokerId) -> ClientId {
        self.attach_client_with(broker, TransportProfile::default())
    }

    /// Attaches a new client with an explicit transport profile.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is unknown.
    pub fn attach_client_with(&mut self, broker: BrokerId, profile: TransportProfile) -> ClientId {
        assert!(self.nodes.contains_key(&broker), "unknown broker {broker}");
        let client = self.client_ids.next();
        self.dispatch(broker, Input::AttachClient { client, profile })
            .expect("fresh client id cannot collide");
        self.client_home.insert(client, broker);
        client
    }

    /// Detaches a client, dropping its subscriptions everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownClient`] if the client is unknown.
    pub fn detach_client(&mut self, client: ClientId) -> Result<(), NetworkError> {
        let broker = self
            .client_home
            .remove(&client)
            .ok_or(NetworkError::UnknownClient(client))?;
        self.dispatch(broker, Input::DetachClient { client })?;
        Ok(())
    }

    /// Subscribes a client to a filter.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownClient`] if the client is unknown.
    pub fn subscribe(&mut self, client: ClientId, filter: TopicFilter) -> Result<(), NetworkError> {
        let broker = *self
            .client_home
            .get(&client)
            .ok_or(NetworkError::UnknownClient(client))?;
        self.dispatch(broker, Input::Subscribe { client, filter })?;
        Ok(())
    }

    /// Removes one subscription.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownClient`] if the client is unknown.
    pub fn unsubscribe(
        &mut self,
        client: ClientId,
        filter: TopicFilter,
    ) -> Result<(), NetworkError> {
        let broker = *self
            .client_home
            .get(&client)
            .ok_or(NetworkError::UnknownClient(client))?;
        self.dispatch(broker, Input::Unsubscribe { client, filter })?;
        Ok(())
    }

    /// Publishes a data event from a client; deliveries accumulate until
    /// [`BrokerNetwork::drain_deliveries`].
    ///
    /// # Panics
    ///
    /// Panics if `client` is unknown. Use [`BrokerNetwork::try_publish`]
    /// to handle that case as an error instead.
    pub fn publish(&mut self, client: ClientId, topic: Topic, payload: Bytes) {
        self.publish_class(client, topic, EventClass::Data, payload);
    }

    /// Publishes an event with an explicit class.
    ///
    /// # Panics
    ///
    /// Panics if `client` is unknown. Use
    /// [`BrokerNetwork::try_publish_class`] to handle that case as an
    /// error instead.
    pub fn publish_class(
        &mut self,
        client: ClientId,
        topic: Topic,
        class: EventClass,
        payload: Bytes,
    ) {
        self.try_publish_class(client, topic, class, payload)
            .expect("publish requires an attached client");
    }

    /// Publishes a data event from a client, reporting an unknown client
    /// as an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownClient`] if the client is not
    /// attached (never attached, or already detached).
    pub fn try_publish(
        &mut self,
        client: ClientId,
        topic: Topic,
        payload: Bytes,
    ) -> Result<(), NetworkError> {
        self.try_publish_class(client, topic, EventClass::Data, payload)
    }

    /// Publishes an event with an explicit class, reporting an unknown
    /// client as an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownClient`] if the client is not
    /// attached (never attached, or already detached).
    pub fn try_publish_class(
        &mut self,
        client: ClientId,
        topic: Topic,
        class: EventClass,
        payload: Bytes,
    ) -> Result<(), NetworkError> {
        let broker = *self
            .client_home
            .get(&client)
            .ok_or(NetworkError::UnknownClient(client))?;
        let seq = self.client_seq.entry(client).or_insert(0);
        let event = Event::new(topic, client, *seq, class, payload).into_shared();
        *seq += 1;
        self.dispatch(broker, Input::Publish {
            origin: Origin::Client(client),
            event,
        })
    }

    /// Takes all deliveries accumulated so far.
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Feeds one input to a node using a recycled action buffer, then
    /// executes whatever it emitted. The buffer is returned to the pool
    /// afterwards, so steady-state traffic allocates nothing here.
    fn dispatch(&mut self, broker: BrokerId, input: Input) -> Result<(), NetworkError> {
        let mut actions = self.spare.pop().unwrap_or_default();
        let outcome = match self.nodes.get_mut(&broker) {
            Some(node) => node.handle_into(input, &mut actions).map_err(NetworkError::from),
            None => Err(NetworkError::UnknownBroker(broker)),
        };
        if outcome.is_ok() {
            self.execute(broker, &mut actions);
        }
        actions.clear();
        self.spare.push(actions);
        outcome
    }

    /// Executes a node's actions synchronously, cascading forwards and
    /// adverts into peer nodes.
    fn execute(&mut self, from: BrokerId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Deliver {
                    client,
                    profile,
                    event,
                } => self.deliveries.push(Delivery {
                    client,
                    profile,
                    event,
                }),
                Action::Forward { peer, event } => {
                    self.dispatch(peer, Input::Publish {
                        origin: Origin::Broker(from),
                        event,
                    })
                    .expect("forward between linked brokers cannot fail");
                }
                Action::AdvertiseAdd { peer, filter } => {
                    self.dispatch(peer, Input::RemoteSubscribe { peer: from, filter })
                        .expect("advert between linked brokers cannot fail");
                }
                Action::AdvertiseRemove { peer, filter } => {
                    self.dispatch(peer, Input::RemoteUnsubscribe { peer: from, filter })
                        .expect("advert between linked brokers cannot fail");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::parse(s).unwrap()
    }

    #[test]
    fn single_broker_delivery() {
        let mut net = BrokerNetwork::new();
        let b = net.add_broker();
        let pub_client = net.attach_client(b);
        let sub_client = net.attach_client(b);
        net.subscribe(sub_client, filter("room/1/#")).unwrap();
        net.publish(pub_client, topic("room/1/chat"), Bytes::from_static(b"hi"));
        let deliveries = net.drain_deliveries();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].client, sub_client);
        assert_eq!(&deliveries[0].event.payload[..], b"hi");
    }

    #[test]
    fn delivery_crosses_multiple_hops() {
        // Chain: b1 - b2 - b3; subscriber on b3, publisher on b1.
        let mut net = BrokerNetwork::new();
        let b1 = net.add_broker();
        let b2 = net.add_broker();
        let b3 = net.add_broker();
        net.link(b1, b2).unwrap();
        net.link(b2, b3).unwrap();
        let publisher = net.attach_client(b1);
        let subscriber = net.attach_client(b3);
        net.subscribe(subscriber, filter("s/#")).unwrap();
        net.publish(publisher, topic("s/av"), Bytes::from_static(b"pkt"));
        let deliveries = net.drain_deliveries();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].client, subscriber);
        // The event flowed b1 -> b2 -> b3.
        assert_eq!(net.broker(b1).unwrap().counters().forwards, 1);
        assert_eq!(net.broker(b2).unwrap().counters().forwards, 1);
        assert_eq!(net.broker(b3).unwrap().counters().deliveries, 1);
    }

    #[test]
    fn exactly_once_delivery_with_many_subscribers() {
        let mut net = BrokerNetwork::new();
        let b1 = net.add_broker();
        let b2 = net.add_broker();
        let b3 = net.add_broker();
        net.link(b1, b2).unwrap();
        net.link(b1, b3).unwrap();
        let publisher = net.attach_client(b2);
        let mut subscribers = Vec::new();
        for broker in [b1, b2, b3] {
            for _ in 0..5 {
                let c = net.attach_client(broker);
                net.subscribe(c, filter("conf/9/video")).unwrap();
                subscribers.push(c);
            }
        }
        net.publish(publisher, topic("conf/9/video"), Bytes::from_static(b"v"));
        let mut delivered: Vec<ClientId> =
            net.drain_deliveries().into_iter().map(|d| d.client).collect();
        delivered.sort_unstable();
        let mut expected = subscribers.clone();
        expected.sort_unstable();
        assert_eq!(delivered, expected, "every subscriber exactly once");
    }

    #[test]
    fn cycle_links_are_rejected() {
        let mut net = BrokerNetwork::new();
        let b1 = net.add_broker();
        let b2 = net.add_broker();
        let b3 = net.add_broker();
        net.link(b1, b2).unwrap();
        net.link(b2, b3).unwrap();
        assert_eq!(
            net.link(b1, b3),
            Err(NetworkError::WouldCycle(b1, b3))
        );
        assert_eq!(net.link(b1, b1), Err(NetworkError::WouldCycle(b1, b1)));
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut net = BrokerNetwork::new();
        let b = net.add_broker();
        let p = net.attach_client(b);
        let s = net.attach_client(b);
        net.subscribe(s, filter("t")).unwrap();
        net.unsubscribe(s, filter("t")).unwrap();
        net.publish(p, topic("t"), Bytes::new());
        assert!(net.drain_deliveries().is_empty());
    }

    #[test]
    fn detach_client_stops_cross_broker_forwarding() {
        let mut net = BrokerNetwork::new();
        let b1 = net.add_broker();
        let b2 = net.add_broker();
        net.link(b1, b2).unwrap();
        let p = net.attach_client(b1);
        let s = net.attach_client(b2);
        net.subscribe(s, filter("x")).unwrap();
        net.detach_client(s).unwrap();
        net.publish(p, topic("x"), Bytes::new());
        assert!(net.drain_deliveries().is_empty());
        // The advert was withdrawn, so b1 should not even forward.
        assert_eq!(net.broker(b1).unwrap().counters().forwards, 0);
    }

    #[test]
    fn unlink_partitions_the_network() {
        let mut net = BrokerNetwork::new();
        let b1 = net.add_broker();
        let b2 = net.add_broker();
        net.link(b1, b2).unwrap();
        let p = net.attach_client(b1);
        let s = net.attach_client(b2);
        net.subscribe(s, filter("x")).unwrap();
        net.unlink(b1, b2).unwrap();
        net.publish(p, topic("x"), Bytes::new());
        assert!(net.drain_deliveries().is_empty());
        // Relinking restores delivery (interest re-advertised on LinkUp).
        net.link(b1, b2).unwrap();
        net.publish(p, topic("x"), Bytes::new());
        assert_eq!(net.drain_deliveries().len(), 1);
    }

    #[test]
    fn wildcard_subscription_spans_brokers() {
        let mut net = BrokerNetwork::new();
        let b1 = net.add_broker();
        let b2 = net.add_broker();
        net.link(b1, b2).unwrap();
        let p = net.attach_client(b1);
        let s = net.attach_client(b2);
        net.subscribe(s, filter("session/*/audio")).unwrap();
        net.publish(p, topic("session/42/audio"), Bytes::new());
        net.publish(p, topic("session/42/video"), Bytes::new());
        let deliveries = net.drain_deliveries();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].event.topic.to_string(), "session/42/audio");
    }

    #[test]
    fn unknown_ids_error() {
        let mut net = BrokerNetwork::new();
        let b = net.add_broker();
        assert!(matches!(
            net.link(b, BrokerId::from_raw(99)),
            Err(NetworkError::UnknownBroker(_))
        ));
        assert!(matches!(
            net.subscribe(ClientId::from_raw(99), filter("a")),
            Err(NetworkError::UnknownClient(_))
        ));
        assert!(matches!(
            net.detach_client(ClientId::from_raw(99)),
            Err(NetworkError::UnknownClient(_))
        ));
    }

    #[test]
    fn event_sequence_numbers_increment_per_client() {
        let mut net = BrokerNetwork::new();
        let b = net.add_broker();
        let p = net.attach_client(b);
        let s = net.attach_client(b);
        net.subscribe(s, filter("t")).unwrap();
        net.publish(p, topic("t"), Bytes::new());
        net.publish(p, topic("t"), Bytes::new());
        let deliveries = net.drain_deliveries();
        assert_eq!(deliveries[0].event.seq, 0);
        assert_eq!(deliveries[1].event.seq, 1);
    }
}
