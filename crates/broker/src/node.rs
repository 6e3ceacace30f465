//! The sans-IO broker state machine.
//!
//! [`BrokerNode`] owns one broker's entire state — attached clients,
//! local subscriptions, links to peer brokers, and the aggregated remote
//! interest table — and advances purely through
//! [`BrokerNode::handle`]: `(Input) -> Vec<Action>`. Two drivers own
//! transport and time: the simulator [`crate::simdrv`] and the threaded
//! [`crate::sharded`] runtime, with the [`crate::cluster`] federation
//! on top of it.
//!
//! ## Routing protocol
//!
//! One rule: an event crosses at most one broker link. A node is linked
//! straight to every peer it trades events with — the shard ring and
//! the simulator's meshes ([`crate::simtopo`]) are full meshes — so:
//!
//! * A node advertises only its own clients' interest. Every peer hears
//!   an advert when a filter's local subscriber count goes 0→1 or 1→0,
//!   and a peer whose link comes up hears every locally held filter.
//! * An event from a local client is delivered to the matching local
//!   clients and forwarded to every peer that advertised a match.
//! * An event from a peer is delivered to matching local clients only.
//!
//! On a full mesh this delivers every event exactly once to every
//! subscriber — a property `tests/broker_properties.rs` checks on random
//! meshes. Relaying over several hops is the federation's job: the
//! [`crate::cluster`] routes by its next-hop table.
//!
//! ## Routing fast path
//!
//! Publishing is the hot loop, so [`BrokerNode`] memoizes the resolved
//! delivery plan per concrete topic as a shared [`RoutePlan`]: the
//! deduplicated local `(client, profile)` pairs plus the matching remote
//! peers. A subscription change evicts exactly the plans whose topic
//! the changed filter matches, so a join in one session leaves every
//! other session's plans warm; a lost link, which is rare, clears the
//! cache. On a warm hit, [`BrokerNode::handle_into`] appends
//! actions into a caller-owned scratch buffer without allocating:
//! one hash lookup, one `Arc` clone per plan, one `Arc<Event>` clone per
//! destination. [`BrokerNode::publish_plan`] counts the publish the
//! same way and hands back the plan itself, for a driver that fans out
//! without actions.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mmcs_util::id::{BrokerId, ClientId};

use crate::event::Event;
use crate::metrics::BrokerMetrics;
use crate::profile::TransportProfile;
use crate::topic::{SubscriptionTable, Topic, TopicFilter};

/// Most cached route plans a broker keeps; a full cache is cleared.
/// Real deployments publish to a bounded set of session topics; the cap
/// only guards against unbounded one-shot topic churn.
pub(crate) const PLAN_CACHE_MAX: usize = 4096;

/// A resolved delivery plan for one concrete topic: where a publish to
/// that topic goes, with dedup and profile lookup already done.
///
/// Plans are immutable and shared (`Arc`), so the warm routing path
/// clones a pointer, not the lists.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePlan {
    /// Matching local subscribers with their transport profiles,
    /// sorted by client id and deduplicated.
    pub local: Vec<(ClientId, TransportProfile)>,
    /// Matching peer brokers, sorted and deduplicated. Only a client's
    /// event goes to them: an event from a peer has crossed its one link.
    pub remote: Vec<BrokerId>,
}

impl RoutePlan {
    /// Whether the plan delivers to no one.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty() && self.remote.is_empty()
    }
}

/// Where an input event entered this broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// Published by a locally attached client.
    Client(ClientId),
    /// Forwarded by a peer broker.
    Broker(BrokerId),
}

/// An input to the broker state machine.
#[derive(Debug, Clone)]
pub enum Input {
    /// A client opened a connection.
    AttachClient {
        /// The new client.
        client: ClientId,
        /// Its transport profile.
        profile: TransportProfile,
    },
    /// A client disconnected (gracefully or by failure); all its
    /// subscriptions are dropped.
    DetachClient {
        /// The departing client.
        client: ClientId,
    },
    /// A local client subscribes to a filter.
    Subscribe {
        /// The subscribing client.
        client: ClientId,
        /// The filter.
        filter: TopicFilter,
    },
    /// A local client drops one subscription.
    Unsubscribe {
        /// The unsubscribing client.
        client: ClientId,
        /// The filter.
        filter: TopicFilter,
    },
    /// An event entered the broker.
    Publish {
        /// Originating hop.
        origin: Origin,
        /// The event.
        event: Arc<Event>,
    },
    /// A link to a peer broker came up.
    LinkUp {
        /// The peer.
        peer: BrokerId,
    },
    /// A peer advertised interest in a filter.
    RemoteSubscribe {
        /// The advertising peer.
        peer: BrokerId,
        /// The filter.
        filter: TopicFilter,
    },
    /// A peer withdrew interest in a filter.
    RemoteUnsubscribe {
        /// The withdrawing peer.
        peer: BrokerId,
        /// The filter.
        filter: TopicFilter,
    },
}

/// An effect the driver must carry out.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Deliver an event to a locally attached client.
    Deliver {
        /// The destination client.
        client: ClientId,
        /// Its transport profile (drivers need it for overhead/cost).
        profile: TransportProfile,
        /// The event.
        event: Arc<Event>,
    },
    /// Forward an event to a peer broker.
    Forward {
        /// The next-hop broker.
        peer: BrokerId,
        /// The event.
        event: Arc<Event>,
    },
    /// Tell a peer this broker is interested in a filter.
    AdvertiseAdd {
        /// The peer to inform.
        peer: BrokerId,
        /// The filter.
        filter: TopicFilter,
    },
    /// Tell a peer this broker is no longer interested in a filter.
    AdvertiseRemove {
        /// The peer to inform.
        peer: BrokerId,
        /// The filter.
        filter: TopicFilter,
    },
}

/// Error returned for inputs that violate the broker's invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// Input referenced a client that is not attached.
    UnknownClient(ClientId),
    /// Attach for a client id that is already attached.
    DuplicateClient(ClientId),
    /// Input referenced a peer with no established link.
    UnknownPeer(BrokerId),
    /// LinkUp for a peer that is already linked.
    DuplicateLink(BrokerId),
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::UnknownClient(c) => write!(f, "unknown client {c}"),
            BrokerError::DuplicateClient(c) => write!(f, "client {c} already attached"),
            BrokerError::UnknownPeer(b) => write!(f, "no link to peer {b}"),
            BrokerError::DuplicateLink(b) => write!(f, "link to peer {b} already up"),
        }
    }
}

impl std::error::Error for BrokerError {}

/// Counters a broker keeps about its own activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerCounters {
    /// Events accepted from clients or peers.
    pub events_in: u64,
    /// Client deliveries emitted.
    pub deliveries: u64,
    /// Broker-to-broker forwards emitted.
    pub forwards: u64,
    /// Events that matched no subscriber anywhere.
    pub unroutable: u64,
}

/// One broker's pure state machine. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct BrokerNode {
    id: BrokerId,
    clients: HashMap<ClientId, TransportProfile>,
    client_filters: HashMap<ClientId, Vec<TopicFilter>>,
    local_subs: SubscriptionTable<ClientId>,
    remote_subs: SubscriptionTable<BrokerId>,
    peers: HashSet<BrokerId>,
    /// Local subscriber count per filter: what this node advertises.
    interest: HashMap<TopicFilter, usize>,
    counters: BrokerCounters,
    /// Memoized delivery plans keyed by concrete topic; a subscription
    /// change evicts the entries its filter matches, so every entry is
    /// current.
    plans: HashMap<Topic, Arc<RoutePlan>>,
    /// Optional telemetry instruments; `None` costs one branch per
    /// publish, `Some` costs a handful of relaxed atomic adds.
    metrics: Option<Arc<BrokerMetrics>>,
}

impl BrokerNode {
    /// Creates an empty broker with the given id.
    pub fn new(id: BrokerId) -> Self {
        Self {
            id,
            clients: HashMap::new(),
            client_filters: HashMap::new(),
            local_subs: SubscriptionTable::new(),
            remote_subs: SubscriptionTable::new(),
            peers: HashSet::new(),
            interest: HashMap::new(),
            counters: BrokerCounters::default(),
            plans: HashMap::new(),
            metrics: None,
        }
    }

    /// Installs telemetry instruments. Publishes, cache lookups, and
    /// fan-out widths are reported from then on; the warm publish path
    /// stays allocation-free (relaxed atomic increments only).
    pub fn set_metrics(&mut self, metrics: Arc<BrokerMetrics>) {
        self.metrics = Some(metrics);
        self.report_subscriptions();
    }

    /// The installed telemetry instruments, if any.
    pub fn metrics(&self) -> Option<&Arc<BrokerMetrics>> {
        self.metrics.as_ref()
    }

    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.id
    }

    /// Number of attached clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Activity counters.
    pub fn counters(&self) -> BrokerCounters {
        self.counters
    }

    /// Whether a client is attached.
    pub fn has_client(&self, client: ClientId) -> bool {
        self.clients.contains_key(&client)
    }

    /// Number of memoized route plans. Every one is current: a
    /// subscription change evicts the plans its filter matches.
    pub fn plan_cache_len(&self) -> usize {
        self.plans.len()
    }

    /// The delivery plan a publish to `topic` would use right now,
    /// memoizing it for subsequent publishes.
    pub fn plan_for(&mut self, topic: &Topic) -> Arc<RoutePlan> {
        if let Some(plan) = self.plans.get(topic) {
            if let Some(m) = &self.metrics {
                m.route_cache_hits.inc();
            }
            return Arc::clone(plan);
        }
        if let Some(m) = &self.metrics {
            m.route_cache_misses.inc();
        }
        // Cold path: resolve both tables, then memoize.
        let mut local_ids = Vec::new();
        self.local_subs.matches_into(topic, &mut local_ids);
        // Every subscribed client has a profile entry (subscribe checks
        // attachment); a missing one is a table desync, so drop that
        // client from the plan rather than panic mid-routing.
        let local = local_ids
            .into_iter()
            .filter_map(|client| {
                let profile = self.clients.get(&client).copied();
                debug_assert!(profile.is_some(), "subscriber {client} has no profile");
                profile.map(|p| (client, p))
            })
            .collect();
        let mut remote = Vec::new();
        self.remote_subs.matches_into(topic, &mut remote);
        let plan = Arc::new(RoutePlan { local, remote });
        if self.plans.len() >= PLAN_CACHE_MAX {
            // Start over rather than grow without bound.
            self.plans.clear();
        }
        self.plans.insert(topic.clone(), Arc::clone(&plan));
        plan
    }

    /// Evicts every memoized plan whose topic `filter` matches: exactly
    /// the plans a (un)subscription to `filter` can change. Costs one
    /// filter match per cached plan.
    fn invalidate(&mut self, filter: &TopicFilter) {
        self.plans.retain(|topic, _| !filter.matches(topic));
    }

    /// Advances the state machine by one input.
    ///
    /// Convenience wrapper over [`handle_into`](Self::handle_into) that
    /// allocates a fresh action buffer per call. Hot loops should hold a
    /// scratch `Vec<Action>` and call `handle_into` instead.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError`] if the input references unknown clients or
    /// peers, or re-attaches existing ones. State is unchanged on error.
    pub fn handle(&mut self, input: Input) -> Result<Vec<Action>, BrokerError> {
        let mut actions = Vec::new();
        self.handle_into(input, &mut actions)?;
        Ok(actions)
    }

    /// Advances the state machine by one input, **appending** resulting
    /// actions to `out`. Existing contents of `out` are untouched; on a
    /// warm route-cache hit no allocation happens beyond what `out`'s
    /// spare capacity already covers.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError`] if the input references unknown clients or
    /// peers, or re-attaches existing ones. State and `out` are unchanged
    /// on error.
    pub fn handle_into(&mut self, input: Input, out: &mut Vec<Action>) -> Result<(), BrokerError> {
        match input {
            Input::AttachClient { client, profile } => {
                if self.clients.contains_key(&client) {
                    return Err(BrokerError::DuplicateClient(client));
                }
                self.clients.insert(client, profile);
                Ok(())
            }
            Input::DetachClient { client } => {
                if self.clients.remove(&client).is_none() {
                    return Err(BrokerError::UnknownClient(client));
                }
                for filter in self.client_filters.remove(&client).unwrap_or_default() {
                    if self.local_subs.unsubscribe(&filter, &client) {
                        self.invalidate(&filter);
                    }
                    self.release_local_interest(&filter, out);
                }
                self.report_subscriptions();
                Ok(())
            }
            Input::Subscribe { client, filter } => {
                if !self.clients.contains_key(&client) {
                    return Err(BrokerError::UnknownClient(client));
                }
                if !self.local_subs.subscribe(&filter, client) {
                    return Ok(()); // duplicate
                }
                self.report_subscriptions();
                self.invalidate(&filter);
                self.client_filters
                    .entry(client)
                    .or_default()
                    .push(filter.clone());
                let count = self.interest.entry(filter.clone()).or_default();
                *count += 1;
                if *count == 1 {
                    self.advertise(&filter, true, out);
                }
                Ok(())
            }
            Input::Unsubscribe { client, filter } => {
                if !self.clients.contains_key(&client) {
                    return Err(BrokerError::UnknownClient(client));
                }
                if !self.local_subs.unsubscribe(&filter, &client) {
                    return Ok(());
                }
                self.report_subscriptions();
                self.invalidate(&filter);
                if let Some(filters) = self.client_filters.get_mut(&client) {
                    if let Some(pos) = filters.iter().position(|f| *f == filter) {
                        filters.remove(pos);
                    }
                }
                self.release_local_interest(&filter, out);
                Ok(())
            }
            Input::Publish { origin, event } => self.route(origin, event, out),
            Input::LinkUp { peer } => {
                if !self.peers.insert(peer) {
                    return Err(BrokerError::DuplicateLink(peer));
                }
                // Sorted so the advert order (and thus the send order)
                // does not depend on hash-map iteration order:
                // deterministic replay across process runs needs it.
                let mut filters: Vec<&TopicFilter> = self.interest.keys().collect();
                filters.sort_unstable();
                out.extend(filters.into_iter().map(|filter| Action::AdvertiseAdd {
                    peer,
                    filter: filter.clone(),
                }));
                Ok(())
            }
            Input::RemoteSubscribe { peer, filter } => {
                if !self.peers.contains(&peer) {
                    return Err(BrokerError::UnknownPeer(peer));
                }
                if self.remote_subs.subscribe(&filter, peer) {
                    self.invalidate(&filter);
                }
                Ok(())
            }
            Input::RemoteUnsubscribe { peer, filter } => {
                if !self.peers.contains(&peer) {
                    return Err(BrokerError::UnknownPeer(peer));
                }
                if self.remote_subs.unsubscribe(&filter, &peer) {
                    self.invalidate(&filter);
                }
                Ok(())
            }
        }
    }

    /// The publish hot path without the actions: validates `origin`,
    /// counts the publish — [`counters`](Self::counters) and, when
    /// installed, the [`BrokerMetrics`] publish instruments — and returns
    /// the plan it routes by. The event goes to every `plan.local`
    /// client, and a client's event also to every `plan.remote` peer; an
    /// event from a peer goes to no peer at all.
    /// [`handle_into`](Self::handle_into) is this plus one action per
    /// destination. A warm hit allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError`] if `origin` is not an attached client or
    /// a linked peer; nothing is counted then.
    pub fn publish_plan(
        &mut self,
        origin: Origin,
        topic: &Topic,
    ) -> Result<Arc<RoutePlan>, BrokerError> {
        match origin {
            Origin::Client(client) if !self.clients.contains_key(&client) => {
                return Err(BrokerError::UnknownClient(client));
            }
            Origin::Broker(peer) if !self.peers.contains(&peer) => {
                return Err(BrokerError::UnknownPeer(peer));
            }
            _ => {}
        }
        let plan = self.plan_for(topic);
        let deliveries = plan.local.len() as u64;
        let forwards = forward_peers(origin, &plan).len() as u64;
        let emitted = deliveries + forwards;
        self.counters.events_in += 1;
        self.counters.deliveries += deliveries;
        self.counters.forwards += forwards;
        if emitted == 0 {
            self.counters.unroutable += 1;
        }
        if let Some(m) = &self.metrics {
            m.events_in.inc();
            m.deliveries.add(deliveries);
            m.forwards.add(forwards);
            if emitted == 0 {
                m.unroutable.inc();
            }
            m.fanout.record(emitted);
        }
        Ok(plan)
    }

    /// [`publish_plan`](Self::publish_plan), then one action per
    /// destination.
    fn route(
        &mut self,
        origin: Origin,
        event: Arc<Event>,
        out: &mut Vec<Action>,
    ) -> Result<(), BrokerError> {
        let plan = self.publish_plan(origin, &event.topic)?;
        let peers = forward_peers(origin, &plan);
        out.reserve(plan.local.len() + peers.len());
        out.extend(plan.local.iter().map(|&(client, profile)| Action::Deliver {
            client,
            profile,
            event: Arc::clone(&event),
        }));
        out.extend(peers.iter().map(|&peer| Action::Forward {
            peer,
            event: Arc::clone(&event),
        }));
        Ok(())
    }

    /// Reports the local table's size to the `subscriptions` gauge.
    fn report_subscriptions(&self) {
        if let Some(metrics) = &self.metrics {
            metrics.subscriptions.set(self.local_subs.len() as i64);
        }
    }

    fn release_local_interest(&mut self, filter: &TopicFilter, out: &mut Vec<Action>) {
        if let Some(count) = self.interest.get_mut(filter) {
            *count -= 1;
            if *count == 0 {
                self.interest.remove(filter);
                self.advertise(filter, false, out);
            }
        }
    }

    /// Tells every peer, in id order so that replay does not depend on
    /// hash-map iteration order, that this node's clients took up
    /// (`add`) or dropped their interest in `filter`.
    fn advertise(&self, filter: &TopicFilter, add: bool, out: &mut Vec<Action>) {
        let mut peers: Vec<BrokerId> = self.peers.iter().copied().collect();
        peers.sort_unstable();
        out.extend(peers.into_iter().map(|peer| {
            let filter = filter.clone();
            if add {
                Action::AdvertiseAdd { peer, filter }
            } else {
                Action::AdvertiseRemove { peer, filter }
            }
        }));
    }
}

/// The peers of `plan` an event from `origin` is forwarded to: all of
/// them for a client's event, none for a peer's.
fn forward_peers(origin: Origin, plan: &RoutePlan) -> &[BrokerId] {
    match origin {
        Origin::Client(_) => &plan.remote,
        Origin::Broker(_) => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventClass;
    use crate::topic::Topic;
    use bytes::Bytes;

    fn client(n: u64) -> ClientId {
        ClientId::from_raw(n)
    }

    fn broker(n: u64) -> BrokerId {
        BrokerId::from_raw(n)
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::parse(s).unwrap()
    }

    fn event(topic: &str, source: u64) -> Arc<Event> {
        Event::new(
            Topic::parse(topic).unwrap(),
            client(source),
            0,
            EventClass::Data,
            Bytes::from_static(b"x"),
        )
        .into_shared()
    }

    fn node() -> BrokerNode {
        BrokerNode::new(broker(1))
    }

    #[test]
    fn attach_subscribe_publish_deliver() {
        let mut n = node();
        n.handle(Input::AttachClient {
            client: client(1),
            profile: TransportProfile::Udp,
        })
        .unwrap();
        n.handle(Input::AttachClient {
            client: client(2),
            profile: TransportProfile::Tcp,
        })
        .unwrap();
        n.handle(Input::Subscribe {
            client: client(2),
            filter: filter("s/1/#"),
        })
        .unwrap();
        let actions = n
            .handle(Input::Publish {
                origin: Origin::Client(client(1)),
                event: event("s/1/video", 1),
            })
            .unwrap();
        assert_eq!(actions.len(), 1);
        let Action::Deliver { client: c, profile, .. } = &actions[0] else {
            panic!("expected delivery");
        };
        assert_eq!(*c, client(2));
        assert_eq!(*profile, TransportProfile::Tcp);
        assert_eq!(n.counters().deliveries, 1);
    }

    #[test]
    fn publish_with_no_subscribers_is_unroutable() {
        let mut n = node();
        n.handle(Input::AttachClient {
            client: client(1),
            profile: TransportProfile::Udp,
        })
        .unwrap();
        let actions = n
            .handle(Input::Publish {
                origin: Origin::Client(client(1)),
                event: event("nobody/listens", 1),
            })
            .unwrap();
        assert!(actions.is_empty());
        assert_eq!(n.counters().unroutable, 1);
    }

    #[test]
    fn unknown_client_inputs_error() {
        let mut n = node();
        assert_eq!(
            n.handle(Input::Subscribe {
                client: client(9),
                filter: filter("a"),
            }),
            Err(BrokerError::UnknownClient(client(9)))
        );
        assert_eq!(
            n.handle(Input::DetachClient { client: client(9) }),
            Err(BrokerError::UnknownClient(client(9)))
        );
        assert_eq!(
            n.handle(Input::Publish {
                origin: Origin::Client(client(9)),
                event: event("a", 9),
            }),
            Err(BrokerError::UnknownClient(client(9)))
        );
    }

    #[test]
    fn duplicate_attach_errors() {
        let mut n = node();
        n.handle(Input::AttachClient {
            client: client(1),
            profile: TransportProfile::Udp,
        })
        .unwrap();
        assert_eq!(
            n.handle(Input::AttachClient {
                client: client(1),
                profile: TransportProfile::Udp,
            }),
            Err(BrokerError::DuplicateClient(client(1)))
        );
    }

    #[test]
    fn first_local_subscription_advertises_to_peers() {
        let mut n = node();
        n.handle(Input::LinkUp { peer: broker(2) }).unwrap();
        n.handle(Input::AttachClient {
            client: client(1),
            profile: TransportProfile::Udp,
        })
        .unwrap();
        let actions = n
            .handle(Input::Subscribe {
                client: client(1),
                filter: filter("a/#"),
            })
            .unwrap();
        assert!(matches!(
            &actions[..],
            [Action::AdvertiseAdd { peer, filter: f }]
                if *peer == broker(2) && *f == filter("a/#")
        ));
        // Second subscriber to the same filter: no new advert.
        n.handle(Input::AttachClient {
            client: client(2),
            profile: TransportProfile::Udp,
        })
        .unwrap();
        let actions = n
            .handle(Input::Subscribe {
                client: client(2),
                filter: filter("a/#"),
            })
            .unwrap();
        assert!(actions.is_empty());
    }

    #[test]
    fn last_unsubscribe_withdraws_advert() {
        let mut n = node();
        n.handle(Input::LinkUp { peer: broker(2) }).unwrap();
        n.handle(Input::AttachClient {
            client: client(1),
            profile: TransportProfile::Udp,
        })
        .unwrap();
        n.handle(Input::Subscribe {
            client: client(1),
            filter: filter("a"),
        })
        .unwrap();
        let actions = n
            .handle(Input::Unsubscribe {
                client: client(1),
                filter: filter("a"),
            })
            .unwrap();
        assert!(matches!(&actions[..], [Action::AdvertiseRemove { .. }]));
    }

    #[test]
    fn detach_withdraws_all_interest() {
        let mut n = node();
        n.handle(Input::LinkUp { peer: broker(2) }).unwrap();
        n.handle(Input::AttachClient {
            client: client(1),
            profile: TransportProfile::Udp,
        })
        .unwrap();
        n.handle(Input::Subscribe {
            client: client(1),
            filter: filter("a"),
        })
        .unwrap();
        n.handle(Input::Subscribe {
            client: client(1),
            filter: filter("b/#"),
        })
        .unwrap();
        let actions = n
            .handle(Input::DetachClient { client: client(1) })
            .unwrap();
        let removes = actions
            .iter()
            .filter(|a| matches!(a, Action::AdvertiseRemove { .. }))
            .count();
        assert_eq!(removes, 2);
        assert_eq!(n.client_count(), 0);
    }

    #[test]
    fn an_event_from_a_peer_is_delivered_locally_and_forwarded_nowhere() {
        let mut n = node();
        n.handle(Input::LinkUp { peer: broker(2) }).unwrap();
        n.handle(Input::LinkUp { peer: broker(3) }).unwrap();
        n.handle(Input::AttachClient {
            client: client(1),
            profile: TransportProfile::Udp,
        })
        .unwrap();
        n.handle(Input::Subscribe {
            client: client(1),
            filter: filter("t/#"),
        })
        .unwrap();
        for peer in [broker(2), broker(3)] {
            // Peer interest is never advertised on.
            let actions = n
                .handle(Input::RemoteSubscribe {
                    peer,
                    filter: filter("t/#"),
                })
                .unwrap();
            assert!(actions.is_empty());
        }
        let actions = n
            .handle(Input::Publish {
                origin: Origin::Broker(broker(2)),
                event: event("t/x", 1),
            })
            .unwrap();
        assert!(matches!(
            &actions[..],
            [Action::Deliver { client: c, .. }] if *c == client(1)
        ));
        assert_eq!(n.counters().forwards, 0);
    }

    #[test]
    fn link_up_after_subscriptions_advertises_existing_interest() {
        let mut n = node();
        n.handle(Input::AttachClient {
            client: client(1),
            profile: TransportProfile::Udp,
        })
        .unwrap();
        n.handle(Input::Subscribe {
            client: client(1),
            filter: filter("a"),
        })
        .unwrap();
        let actions = n.handle(Input::LinkUp { peer: broker(2) }).unwrap();
        assert_eq!(actions.len(), 1);
        assert!(matches!(&actions[0], Action::AdvertiseAdd { .. }));
    }

    #[test]
    fn duplicate_link_errors() {
        let mut n = node();
        n.handle(Input::LinkUp { peer: broker(2) }).unwrap();
        assert_eq!(
            n.handle(Input::LinkUp { peer: broker(2) }),
            Err(BrokerError::DuplicateLink(broker(2)))
        );
    }

    #[test]
    fn publisher_receives_own_event_only_if_subscribed() {
        let mut n = node();
        n.handle(Input::AttachClient {
            client: client(1),
            profile: TransportProfile::Udp,
        })
        .unwrap();
        let actions = n
            .handle(Input::Publish {
                origin: Origin::Client(client(1)),
                event: event("t", 1),
            })
            .unwrap();
        assert!(actions.is_empty());
        n.handle(Input::Subscribe {
            client: client(1),
            filter: filter("t"),
        })
        .unwrap();
        let actions = n
            .handle(Input::Publish {
                origin: Origin::Client(client(1)),
                event: event("t", 1),
            })
            .unwrap();
        assert_eq!(actions.len(), 1);
    }

    #[test]
    fn subscription_change_evicts_only_the_plans_its_filter_matches() {
        let mut n = node();
        for raw in 1..=3 {
            n.handle(Input::AttachClient {
                client: client(raw),
                profile: TransportProfile::Udp,
            })
            .unwrap();
        }
        n.handle(Input::Subscribe {
            client: client(1),
            filter: filter("#"),
        })
        .unwrap();
        let topics = ["conf7/audio", "conf7/video", "conf8/audio"].map(|t| Topic::parse(t).unwrap());
        let warm = |n: &mut BrokerNode| topics.each_ref().map(|t| n.plan_for(t));
        let before = warm(&mut n);
        assert_eq!(n.plan_cache_len(), 3);

        // A join in conf7 rebuilds conf7's plans and leaves conf8's alone.
        n.handle(Input::Subscribe {
            client: client(2),
            filter: filter("conf7/#"),
        })
        .unwrap();
        let joined = warm(&mut n);
        assert!(!Arc::ptr_eq(&before[0], &joined[0]));
        assert!(!Arc::ptr_eq(&before[1], &joined[1]));
        assert!(Arc::ptr_eq(&before[2], &joined[2]));
        assert!(joined[0].local.iter().any(|&(c, _)| c == client(2)));
        assert!(!joined[2].local.iter().any(|&(c, _)| c == client(2)));

        // Detaching the joiner rebuilds only conf7's plans again.
        n.handle(Input::DetachClient { client: client(2) }).unwrap();
        let left = warm(&mut n);
        assert!(!Arc::ptr_eq(&joined[0], &left[0]));
        assert!(!Arc::ptr_eq(&joined[1], &left[1]));
        assert!(Arc::ptr_eq(&joined[2], &left[2]));
        assert_eq!(*left[0], *before[0]);

        // A subscription to everything rebuilds every plan.
        n.handle(Input::Subscribe {
            client: client(3),
            filter: filter("#"),
        })
        .unwrap();
        let all = warm(&mut n);
        for (old, new) in left.iter().zip(&all) {
            assert!(!Arc::ptr_eq(old, new));
            assert!(new.local.iter().any(|&(c, _)| c == client(3)));
        }
        assert_eq!(n.plan_cache_len(), 3);
    }
}
