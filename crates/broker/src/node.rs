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
//! Broker networks are **trees** (NaradaBrokering's cluster hierarchy);
//! the node does not check this, its driver does: [`crate::simtopo`]
//! rejects a cyclic link graph unless it is a full mesh run one hop
//! deep ([`BrokerNode::set_local_adverts_only`]). Interest
//! propagation is therefore simple and loop-free:
//!
//! * Every filter has an interest record: local subscriber count plus the
//!   set of peers that advertised it.
//! * A broker advertises a filter to peer `p` exactly when some party
//!   *other than `p`* is interested (split horizon).
//! * A data event arriving from origin `o` is delivered to matching local
//!   clients and forwarded to matching peers except `o`.
//!
//! On a tree this delivers every event exactly once to every subscriber
//! — an invariant the property tests in `tests/` exercise.
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
    /// Matching peer brokers, sorted and deduplicated. Split horizon
    /// (skipping the origin peer) is applied at routing time, not here,
    /// so one plan serves every origin.
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

/// Aggregated interest in one filter.
#[derive(Debug, Clone, Default)]
struct Interest {
    local: usize,
    peers: HashSet<BrokerId>,
}

impl Interest {
    fn is_empty(&self) -> bool {
        self.local == 0 && self.peers.is_empty()
    }

    /// Whether any party other than `peer` is interested.
    fn interesting_to(&self, peer: BrokerId) -> bool {
        self.local > 0 || self.peers.iter().any(|p| *p != peer)
    }
}

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
    interest: HashMap<TopicFilter, Interest>,
    /// Filters currently advertised to each peer.
    advertised: HashMap<BrokerId, HashSet<TopicFilter>>,
    counters: BrokerCounters,
    /// Memoized delivery plans keyed by concrete topic; a subscription
    /// change evicts the entries its filter matches, so every entry is
    /// current.
    plans: HashMap<Topic, Arc<RoutePlan>>,
    /// Optional telemetry instruments; `None` costs one branch per
    /// publish, `Some` costs a handful of relaxed atomic adds.
    metrics: Option<Arc<BrokerMetrics>>,
    /// When set, only *local* subscriber interest is advertised to peers
    /// (remote interest is never re-propagated). See
    /// [`BrokerNode::set_local_adverts_only`].
    local_adverts_only: bool,
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
            advertised: HashMap::new(),
            counters: BrokerCounters::default(),
            plans: HashMap::new(),
            metrics: None,
            local_adverts_only: false,
        }
    }

    /// Restricts adverts to this node's *local* subscriber interest:
    /// remote interest is never re-advertised to other peers.
    ///
    /// The default (off) implements NaradaBrokering's tree routing, where
    /// interest must propagate hop by hop — correct only on acyclic peer
    /// graphs. Full-mesh topologies (the sharded runtime's one-hop
    /// forward ring, rebuilt in the simulator by [`crate::simtopo`])
    /// turn that propagation into an advert/forward loop; with this mode
    /// on, every node advertises straight to every peer and a data event
    /// is forwarded at most one hop, exactly the thread runtime's
    /// semantics.
    ///
    /// Set before links come up: the flag only affects adverts emitted
    /// after the call.
    pub fn set_local_adverts_only(&mut self, on: bool) {
        self.local_adverts_only = on;
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
                let entry = self.interest.entry(filter.clone()).or_default();
                entry.local += 1;
                if entry.local == 1 {
                    self.refresh_adverts_for(&filter, out);
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
                self.advertised.insert(peer, HashSet::new());
                // Advertise everything the rest of the world is
                // interested in to the new peer. Sorted so the advert
                // order (and thus driver send order) is independent of
                // hash-map iteration order — deterministic replay
                // across process runs depends on it.
                let mut filters: Vec<TopicFilter> = self.interest.keys().cloned().collect();
                filters.sort_unstable();
                for filter in filters {
                    self.refresh_advert_for_peer(peer, &filter, out);
                }
                Ok(())
            }
            Input::RemoteSubscribe { peer, filter } => {
                if !self.peers.contains(&peer) {
                    return Err(BrokerError::UnknownPeer(peer));
                }
                if self.remote_subs.subscribe(&filter, peer) {
                    self.invalidate(&filter);
                }
                let entry = self.interest.entry(filter.clone()).or_default();
                let newly = entry.peers.insert(peer);
                if newly {
                    self.refresh_adverts_for(&filter, out);
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
                if let Some(entry) = self.interest.get_mut(&filter) {
                    if entry.peers.remove(&peer) {
                        if entry.is_empty() {
                            self.interest.remove(&filter);
                        }
                        self.refresh_adverts_for(&filter, out);
                    }
                }
                Ok(())
            }
        }
    }

    /// The publish hot path without the actions: validates `origin`,
    /// counts the publish — [`counters`](Self::counters) and, when
    /// installed, the [`BrokerMetrics`] publish instruments — and returns
    /// the plan it routes by. The event goes to every `plan.local`
    /// client and to every `plan.remote` peer except the one it came
    /// from; an event that crossed a link goes to no peer at all under
    /// [`set_local_adverts_only`](Self::set_local_adverts_only).
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
        let forwards = self.forward_peers(origin, &plan).count() as u64;
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

    /// The peers of `plan` an event from `origin` is forwarded to.
    fn forward_peers<'a>(
        &self,
        origin: Origin,
        plan: &'a RoutePlan,
    ) -> impl Iterator<Item = BrokerId> + 'a {
        let from = match origin {
            Origin::Broker(peer) => Some(peer),
            Origin::Client(_) => None,
        };
        // One-hop mesh mode: an event that already crossed a link is
        // delivered locally and never re-forwarded — on a full mesh every
        // interested peer heard it from the origin broker directly, so a
        // second hop would duplicate (split horizon alone only protects
        // the link it came in on, not the rest of a cyclic mesh).
        let forward = !(self.local_adverts_only && from.is_some());
        plan.remote
            .iter()
            .copied()
            .filter(move |&peer| forward && Some(peer) != from)
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
        out.reserve(plan.local.len() + plan.remote.len());
        out.extend(plan.local.iter().map(|&(client, profile)| Action::Deliver {
            client,
            profile,
            event: Arc::clone(&event),
        }));
        out.extend(
            self.forward_peers(origin, &plan)
                .map(|peer| Action::Forward {
                    peer,
                    event: Arc::clone(&event),
                }),
        );
        Ok(())
    }

    /// Reports the local table's size to the `subscriptions` gauge.
    fn report_subscriptions(&self) {
        if let Some(metrics) = &self.metrics {
            metrics.subscriptions.set(self.local_subs.len() as i64);
        }
    }

    fn release_local_interest(&mut self, filter: &TopicFilter, actions: &mut Vec<Action>) {
        if let Some(entry) = self.interest.get_mut(filter) {
            entry.local = entry.local.saturating_sub(1);
            if entry.local == 0 {
                if entry.is_empty() {
                    self.interest.remove(filter);
                }
                self.refresh_adverts_for(filter, actions);
            }
        }
    }

    /// Re-derives whether each peer should see an advert for `filter` and
    /// emits the diff.
    fn refresh_adverts_for(&mut self, filter: &TopicFilter, actions: &mut Vec<Action>) {
        // Sorted for cross-run-deterministic advert emission.
        let mut peers: Vec<BrokerId> = self.peers.iter().copied().collect();
        peers.sort_unstable();
        for peer in peers {
            self.refresh_advert_for_peer(peer, filter, actions);
        }
    }

    fn refresh_advert_for_peer(
        &mut self,
        peer: BrokerId,
        filter: &TopicFilter,
        actions: &mut Vec<Action>,
    ) {
        let want = self.interest.get(filter).is_some_and(|i| {
            if self.local_adverts_only {
                // One-hop mesh mode: advertise only what *this* node's
                // clients subscribed to; peer interest never fans back out.
                i.local > 0
            } else {
                i.interesting_to(peer)
            }
        });
        let advertised = self.advertised.entry(peer).or_default();
        let have = advertised.contains(filter);
        if want && !have {
            advertised.insert(filter.clone());
            actions.push(Action::AdvertiseAdd {
                peer,
                filter: filter.clone(),
            });
        } else if !want && have {
            advertised.remove(filter);
            actions.push(Action::AdvertiseRemove {
                peer,
                filter: filter.clone(),
            });
        }
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
    fn split_horizon_does_not_echo_to_origin_peer() {
        let mut n = node();
        n.handle(Input::LinkUp { peer: broker(2) }).unwrap();
        n.handle(Input::LinkUp { peer: broker(3) }).unwrap();
        n.handle(Input::RemoteSubscribe {
            peer: broker(2),
            filter: filter("t/#"),
        })
        .unwrap();
        n.handle(Input::RemoteSubscribe {
            peer: broker(3),
            filter: filter("t/#"),
        })
        .unwrap();
        // Event arrives from broker 2: forward only to broker 3.
        let actions = n
            .handle(Input::Publish {
                origin: Origin::Broker(broker(2)),
                event: event("t/x", 1),
            })
            .unwrap();
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            &actions[0],
            Action::Forward { peer, .. } if *peer == broker(3)
        ));
    }

    #[test]
    fn remote_interest_propagates_to_other_peers_only() {
        let mut n = node();
        n.handle(Input::LinkUp { peer: broker(2) }).unwrap();
        n.handle(Input::LinkUp { peer: broker(3) }).unwrap();
        let actions = n
            .handle(Input::RemoteSubscribe {
                peer: broker(2),
                filter: filter("x"),
            })
            .unwrap();
        // Advertise to broker 3 but never back to broker 2.
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            &actions[0],
            Action::AdvertiseAdd { peer, .. } if *peer == broker(3)
        ));
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
