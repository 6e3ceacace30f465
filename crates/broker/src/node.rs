//! The sans-IO broker state machine.
//!
//! [`BrokerNode`] owns one broker's entire state — attached clients,
//! local subscriptions and the refcounted interest its peers hold in
//! it — and advances purely through [`BrokerNode::handle`]:
//! `(Input) -> Vec<Action>`. Only a publish emits actions. Two drivers
//! own transport and time: the simulator [`crate::simdrv`] and the
//! threaded [`crate::sharded`] runtime, with the [`crate::cluster`]
//! federation on top of it.
//!
//! ## Routing protocol
//!
//! A node never knows who its peers are, and never tells them anything;
//! its driver does both. One rule: an event crosses at most one broker
//! link.
//!
//! * A peer's interest arrives as [`Input::RemoteSubscribe`] /
//!   [`Input::RemoteUnsubscribe`], one per subscription of a client
//!   homed on that peer, counted per (peer, filter): the peer is routed
//!   to while its count is above zero. A driver that keeps peers sends
//!   each client subscription it accepts to every one of them.
//! * An event from a local client is delivered to the matching local
//!   clients and forwarded to every peer whose interest matches.
//! * An event from a peer is delivered to matching local clients only.
//!
//! On a full mesh — the shard ring and the simulator's meshes
//! ([`crate::simtopo`]) — this delivers every event exactly once to
//! every subscriber, a property `tests/broker_properties.rs` checks on
//! random meshes. Relaying over several hops is the federation's job:
//! the [`crate::cluster`] routes by its next-hop table.
//!
//! ## Routing fast path
//!
//! Publishing is the hot loop, so [`BrokerNode`] memoizes the resolved
//! delivery plan per concrete topic as a shared [`RoutePlan`]: the
//! deduplicated local `(client, profile)` pairs plus the matching remote
//! peers. A subscription change evicts exactly the plans whose topic
//! the changed filter matches, so a join in one session leaves every
//! other session's plans warm. On a warm hit,
//! [`BrokerNode::handle_into`] appends actions into a caller-owned
//! scratch buffer without allocating: one hash lookup, one `Arc` clone
//! per plan, one `Arc<Event>` clone per destination.
//! [`BrokerNode::publish_plan`] counts the publish the same way and
//! hands back the plan itself, for a driver that fans out without
//! actions.

use std::collections::HashMap;
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

    /// The peers an event from `origin` is forwarded to: every
    /// `remote` peer for a client's event, none for a peer's.
    pub fn forwards(&self, origin: Origin) -> &[BrokerId] {
        match origin {
            Origin::Client(_) => &self.remote,
            Origin::Broker(_) => &[],
        }
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
    /// A peer took up one more interest in a filter. Counted per
    /// (peer, filter): the peer is routed to until as many
    /// [`RemoteUnsubscribe`](Input::RemoteUnsubscribe)s arrive.
    RemoteSubscribe {
        /// The interested peer.
        peer: BrokerId,
        /// The filter.
        filter: TopicFilter,
    },
    /// A peer dropped one interest in a filter.
    RemoteUnsubscribe {
        /// The withdrawing peer.
        peer: BrokerId,
        /// The filter.
        filter: TopicFilter,
    },
}

/// An effect the driver must carry out: where a publish goes.
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
}

/// Error returned for inputs that violate the broker's invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// Input referenced a client that is not attached.
    UnknownClient(ClientId),
    /// Attach for a client id that is already attached.
    DuplicateClient(ClientId),
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::UnknownClient(c) => write!(f, "unknown client {c}"),
            BrokerError::DuplicateClient(c) => write!(f, "client {c} already attached"),
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
    /// Interest count per (peer, filter); `remote_subs` holds the
    /// pairs counted above zero.
    remote_refs: HashMap<(BrokerId, TopicFilter), usize>,
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
            remote_refs: HashMap::new(),
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
    /// Returns [`BrokerError`] if the input references an unknown client
    /// or re-attaches an existing one. State is unchanged on error.
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
    /// Returns [`BrokerError`] if the input references an unknown client
    /// or re-attaches an existing one. State and `out` are unchanged on
    /// error.
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
                self.client_filters.entry(client).or_default().push(filter);
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
                Ok(())
            }
            Input::Publish { origin, event } => self.route(origin, event, out),
            Input::RemoteSubscribe { peer, filter } => {
                let key = (peer, filter);
                if let Some(refs) = self.remote_refs.get_mut(&key) {
                    *refs += 1;
                } else {
                    self.remote_subs.subscribe(&key.1, peer);
                    self.invalidate(&key.1);
                    self.remote_refs.insert(key, 1);
                }
                Ok(())
            }
            Input::RemoteUnsubscribe { peer, filter } => {
                let key = (peer, filter);
                let Some(refs) = self.remote_refs.get_mut(&key) else {
                    return Ok(());
                };
                *refs -= 1;
                if *refs == 0 {
                    self.remote_refs.remove(&key);
                    self.remote_subs.unsubscribe(&key.1, &peer);
                    self.invalidate(&key.1);
                }
                Ok(())
            }
        }
    }

    /// The publish hot path without the actions: validates a client
    /// `origin`, counts the publish — [`counters`](Self::counters) and,
    /// when installed, the [`BrokerMetrics`] publish instruments — and
    /// returns the plan it routes by. The event goes to every
    /// `plan.local` client and to the peers of
    /// [`RoutePlan::forwards`]: every `plan.remote` peer for a client's
    /// event, none for a peer's.
    /// [`handle_into`](Self::handle_into) is this plus one action per
    /// destination. A warm hit allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError`] if `origin` is a client that is not
    /// attached; nothing is counted then.
    pub fn publish_plan(
        &mut self,
        origin: Origin,
        topic: &Topic,
    ) -> Result<Arc<RoutePlan>, BrokerError> {
        if let Origin::Client(client) = origin {
            if !self.clients.contains_key(&client) {
                return Err(BrokerError::UnknownClient(client));
            }
        }
        let plan = self.plan_for(topic);
        let deliveries = plan.local.len() as u64;
        let forwards = plan.forwards(origin).len() as u64;
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
        let peers = plan.forwards(origin);
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
    fn no_control_input_emits_an_action() {
        let mut n = node();
        let remote = Input::RemoteSubscribe {
            peer: broker(2),
            filter: filter("a/#"),
        };
        let unremote = Input::RemoteUnsubscribe {
            peer: broker(2),
            filter: filter("a/#"),
        };
        let inputs = [
            Input::AttachClient {
                client: client(1),
                profile: TransportProfile::Udp,
            },
            Input::Subscribe {
                client: client(1),
                filter: filter("a/#"),
            },
            Input::Subscribe {
                client: client(1),
                filter: filter("a/#"),
            },
            Input::Subscribe {
                client: client(1),
                filter: filter("b"),
            },
            Input::Unsubscribe {
                client: client(1),
                filter: filter("a/#"),
            },
            Input::DetachClient { client: client(1) },
            remote.clone(),
            remote,
            unremote.clone(),
            unremote,
        ];
        for input in inputs {
            let shown = format!("{input:?}");
            assert_eq!(n.handle(input), Ok(Vec::new()), "{shown}");
        }
        assert_eq!(n.client_count(), 0);
    }

    #[test]
    fn peer_interest_is_counted_per_peer_and_filter() {
        let mut n = node();
        let topic = Topic::parse("t/x").unwrap();
        let remote = |peer| Input::RemoteSubscribe {
            peer: broker(peer),
            filter: filter("t/#"),
        };
        let unremote = |peer| Input::RemoteUnsubscribe {
            peer: broker(peer),
            filter: filter("t/#"),
        };
        for _ in 0..2 {
            assert!(n.handle(remote(2)).unwrap().is_empty());
        }
        n.handle(remote(3)).unwrap();
        let both = n.plan_for(&topic);
        assert_eq!(both.remote, [broker(2), broker(3)]);

        // 2→1 leaves the peer in the plan, and the plan warm.
        assert!(n.handle(unremote(2)).unwrap().is_empty());
        assert!(Arc::ptr_eq(&both, &n.plan_for(&topic)));
        // 1→0 removes it; another peer's count is its own.
        n.handle(unremote(2)).unwrap();
        assert_eq!(n.plan_for(&topic).remote, [broker(3)]);
        // With no count left, a withdrawal changes nothing.
        let kept = n.plan_for(&topic);
        n.handle(unremote(2)).unwrap();
        assert!(Arc::ptr_eq(&kept, &n.plan_for(&topic)));
    }

    #[test]
    fn an_event_from_a_peer_is_delivered_locally_and_forwarded_nowhere() {
        let mut n = node();
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
            n.handle(Input::RemoteSubscribe {
                peer,
                filter: filter("t/#"),
            })
            .unwrap();
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
