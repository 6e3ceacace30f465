//! Property tests on the broker network's core invariant: on any full
//! mesh of brokers with any placement of subscribers, a published event
//! crosses at most one link and is delivered exactly once to every
//! matching subscriber and to no one else — plus invariants for the trie
//! and the interest protocol. The meshes are [`Cascade`]s of
//! [`BrokerNode`]s joined by synchronous links. Last, the `Topic`
//! contract the route plans and the federation's topic tables key on.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use mmcs::broker::event::{Event, EventClass};
use mmcs::broker::metrics::BrokerMetrics;
use mmcs::broker::node::{Action, BrokerCounters, BrokerError, BrokerNode, Input, Origin};
use mmcs::broker::topic::{SubscriptionTable, Topic, TopicFilter};
use mmcs::broker::wire;
use mmcs::telemetry::Registry;
use mmcs_util::id::{BrokerId, ClientId};

/// Strategy: a topic from a small alphabet, 1–4 segments deep.
fn topic_strategy() -> impl Strategy<Value = Topic> {
    prop::collection::vec(prop::sample::select(vec!["a", "b", "c"]), 1..=4)
        .prop_map(Topic::from_segments)
}

/// Strategy: a filter from the same alphabet with wildcards.
fn filter_strategy() -> impl Strategy<Value = TopicFilter> {
    (
        prop::collection::vec(prop::sample::select(vec!["a", "b", "c", "*"]), 1..=4),
        any::<bool>(),
    )
        .prop_map(|(mut segments, tail)| {
            if tail {
                segments.push("#");
            }
            TopicFilter::parse(&segments.join("/")).expect("valid filter")
        })
}

/// [`BrokerNode`]s joined by synchronous links, driven the way the
/// shard ring drives its nodes: every forward a node emits cascades into
/// its peer at once, and each client subscription taken up or dropped
/// reaches every node its home is linked to as one `RemoteSubscribe` /
/// `RemoteUnsubscribe` — unless the link is cut, which drops it. Broker
/// `i` has id `i + 1`; the test numbers its clients.
struct Cascade {
    nodes: Vec<BrokerNode>,
    /// Each node's linked peers, by index, in link order.
    peers: Vec<Vec<usize>>,
    home: HashMap<ClientId, usize>,
    /// Every client's filters, deduplicated as `ShardWorker` does.
    filters: HashMap<ClientId, Vec<TopicFilter>>,
    delivered: Vec<(ClientId, Arc<Event>)>,
    cut: Vec<(usize, usize)>,
}

impl Cascade {
    fn new(brokers: usize) -> Self {
        let nodes = (0..brokers).map(|i| BrokerNode::new(Self::id(i))).collect();
        Self {
            nodes,
            peers: vec![Vec::new(); brokers],
            home: HashMap::new(),
            filters: HashMap::new(),
            delivered: Vec::new(),
            cut: Vec::new(),
        }
    }

    fn id(index: usize) -> BrokerId { BrokerId::from_raw(index as u64 + 1) }

    fn linked(&self, a: usize, b: usize) -> bool {
        !self.cut.contains(&(a.min(b), a.max(b)))
    }

    fn feed(&mut self, at: usize, input: Input) -> Result<(), BrokerError> {
        let from = Self::id(at);
        for action in self.nodes[at].handle(input)? {
            match action {
                Action::Deliver { client, event, .. } => self.delivered.push((client, event)),
                Action::Forward { peer, event } => {
                    let to = peer.value() as usize - 1;
                    if self.linked(at, to) {
                        self.feed(to, Input::Publish { origin: Origin::Broker(from), event }).expect("a peer accepts what its neighbour forwards");
                    }
                }
            }
        }
        Ok(())
    }

    /// Tells every peer of `at` across an uncut link that one of its
    /// clients took up (`add`) or dropped `filter`.
    fn tell_peers(&mut self, at: usize, filter: &TopicFilter, add: bool) {
        let peer = Self::id(at);
        for to in self.peers[at].clone() {
            if self.linked(at, to) {
                let filter = filter.clone();
                let input = if add {
                    Input::RemoteSubscribe { peer, filter }
                } else {
                    Input::RemoteUnsubscribe { peer, filter }
                };
                self.feed(to, input).expect("peer interest is always accepted");
            }
        }
    }

    /// Links `a ↔ b` before either has a subscriber.
    fn link(&mut self, a: usize, b: usize) {
        self.peers[a].push(b);
        self.peers[b].push(a);
    }

    /// Cuts (or heals) the link `a ↔ b`: what crosses it is dropped.
    fn partition(&mut self, a: usize, b: usize, cut: bool) {
        self.cut.retain(|&link| link != (a.min(b), a.max(b)));
        if cut {
            self.cut.push((a.min(b), a.max(b)));
        }
    }

    fn attach(&mut self, at: usize, raw: u64) -> ClientId {
        let client = ClientId::from_raw(raw);
        self.home.insert(client, at);
        self.feed(at, Input::AttachClient { client, profile: Default::default() }).expect("fresh client");
        client
    }

    fn subscribe(&mut self, client: ClientId, filter: TopicFilter) {
        let held = self.filters.entry(client).or_default();
        if held.contains(&filter) {
            return;
        }
        held.push(filter.clone());
        let at = self.home[&client];
        self.feed(at, Input::Subscribe { client, filter: filter.clone() }).expect("attached client");
        self.tell_peers(at, &filter, true);
    }

    fn unsubscribe(&mut self, client: ClientId, filter: TopicFilter) {
        let Some(held) = self.filters.get_mut(&client) else {
            return;
        };
        let Some(pos) = held.iter().position(|f| *f == filter) else {
            return;
        };
        held.remove(pos);
        let at = self.home[&client];
        self.feed(at, Input::Unsubscribe { client, filter: filter.clone() }).expect("attached client");
        self.tell_peers(at, &filter, false);
    }

    fn detach(&mut self, client: ClientId) -> Result<(), BrokerError> {
        let at = self.home[&client];
        for filter in self.filters.remove(&client).unwrap_or_default() {
            self.tell_peers(at, &filter, false);
        }
        self.feed(at, Input::DetachClient { client })
    }

    /// Publishes from `client`; returns who received it, in routing order.
    fn publish(&mut self, client: ClientId, topic: &Topic, payload: &'static [u8]) -> Vec<(ClientId, Arc<Event>)> {
        let event = Event::new(topic.clone(), client, 0, EventClass::Data, Bytes::from_static(payload)).into_shared();
        self.feed(self.home[&client], Input::Publish { origin: Origin::Client(client), event }).expect("attached publisher");
        std::mem::take(&mut self.delivered)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once delivery on a random full mesh with random
    /// subscriptions, whichever client publishes.
    #[test]
    fn exactly_once_delivery_on_random_meshes(
        broker_count in 1usize..6,
        subscriptions in prop::collection::vec((0usize..8, filter_strategy()), 0..12),
        publishes in prop::collection::vec(topic_strategy(), 1..6),
    ) {
        let mut net = Cascade::new(broker_count);
        for a in 0..broker_count {
            for b in a + 1..broker_count {
                net.link(a, b);
            }
        }
        // 8 clients spread round-robin across brokers.
        let clients: Vec<ClientId> = (0..8)
            .map(|i| net.attach(i % broker_count, i as u64 + 1))
            .collect();
        let mut expected: Vec<(ClientId, TopicFilter)> = Vec::new();
        for (client_index, filter) in &subscriptions {
            let client = clients[*client_index];
            net.subscribe(client, filter.clone());
            expected.push((client, filter.clone()));
        }
        for topic in &publishes {
            let mut should: Vec<ClientId> = expected
                .iter()
                .filter(|(_, f)| f.matches(topic))
                .map(|(c, _)| *c)
                .collect();
            should.sort_unstable();
            should.dedup();
            for &publisher in &clients {
                let mut delivered: Vec<ClientId> =
                    net.publish(publisher, topic, b"x").into_iter().map(|(c, _)| c).collect();
                delivered.sort_unstable();
                prop_assert_eq!(&delivered, &should, "topic {} from {}", topic, publisher);
            }
        }
    }

    /// Trie matching agrees with direct filter matching for arbitrary
    /// filter sets.
    #[test]
    fn trie_agrees_with_oracle(
        filters in prop::collection::vec(filter_strategy(), 0..20),
        topics in prop::collection::vec(topic_strategy(), 1..10),
    ) {
        let mut table: SubscriptionTable<usize> = SubscriptionTable::new();
        for (id, filter) in filters.iter().enumerate() {
            table.subscribe(filter, id);
        }
        for topic in &topics {
            let mut actual = table.matches(topic);
            actual.sort_unstable();
            let mut expected: Vec<usize> = filters
                .iter()
                .enumerate()
                .filter(|(_, f)| f.matches(topic))
                .map(|(id, _)| id)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(actual, expected);
        }
    }

    /// subscribe then unsubscribe leaves the table exactly as before.
    #[test]
    fn unsubscribe_is_inverse_of_subscribe(
        base in prop::collection::vec(filter_strategy(), 0..8),
        extra in filter_strategy(),
        topics in prop::collection::vec(topic_strategy(), 1..8),
    ) {
        let mut table: SubscriptionTable<usize> = SubscriptionTable::new();
        for (id, filter) in base.iter().enumerate() {
            table.subscribe(filter, id);
        }
        let before: Vec<Vec<usize>> = topics.iter().map(|t| {
            let mut m = table.matches(t);
            m.sort_unstable();
            m
        }).collect();
        table.subscribe(&extra, 999);
        table.unsubscribe(&extra, &999);
        let after: Vec<Vec<usize>> = topics.iter().map(|t| {
            let mut m = table.matches(t);
            m.sort_unstable();
            m
        }).collect();
        prop_assert_eq!(before, after);
    }

    /// Detaching a client is equivalent to never having subscribed it.
    #[test]
    fn detach_equals_never_subscribed(
        filters in prop::collection::vec(filter_strategy(), 1..6),
        topic in topic_strategy(),
    ) {
        // World A: subscribe a victim client, then detach it.
        let mut a = Cascade::new(1);
        let publisher_a = a.attach(0, 1);
        let keeper_a = a.attach(0, 2);
        a.subscribe(keeper_a, TopicFilter::parse("#").unwrap());
        let victim = a.attach(0, 3);
        for filter in &filters {
            a.subscribe(victim, filter.clone());
        }
        a.detach(victim).unwrap();
        let deliveries_a = a.publish(publisher_a, &topic, b"");

        // World B: the victim never existed.
        let mut b = Cascade::new(1);
        let publisher_b = b.attach(0, 1);
        let keeper_b = b.attach(0, 2);
        b.subscribe(keeper_b, TopicFilter::parse("#").unwrap());
        let deliveries_b = b.publish(publisher_b, &topic, b"");

        prop_assert_eq!(deliveries_a.len(), deliveries_b.len());
    }
}

/// One step of the route-cache churn property below.
#[derive(Debug, Clone)]
enum ChurnOp {
    Subscribe(usize, TopicFilter),
    Unsubscribe(usize, TopicFilter),
    RemoteSubscribe(usize, TopicFilter),
    RemoteUnsubscribe(usize, TopicFilter),
    /// Drop the n-th live subscription (modulo their count), local ones
    /// first: random unsubscribes rarely name a live one.
    DropLive(usize),
    /// Detach a client, then attach the same id again.
    Detach(usize),
    Publish(Topic),
}

fn churn_op_strategy() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        3 => (0usize..6, filter_strategy()).prop_map(|(c, f)| ChurnOp::Subscribe(c, f)),
        2 => (0usize..6, filter_strategy()).prop_map(|(c, f)| ChurnOp::Unsubscribe(c, f)),
        2 => (0usize..2, filter_strategy()).prop_map(|(p, f)| ChurnOp::RemoteSubscribe(p, f)),
        1 => (0usize..2, filter_strategy()).prop_map(|(p, f)| ChurnOp::RemoteUnsubscribe(p, f)),
        2 => any::<usize>().prop_map(ChurnOp::DropLive),
        1 => (0usize..6).prop_map(ChurnOp::Detach),
        4 => topic_strategy().prop_map(ChurnOp::Publish),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The memoized route cache never changes what a publish delivers:
    /// under arbitrary interleavings of every input that evicts plans —
    /// (remote) subscribe and unsubscribe, detach — with
    /// publishes, the cached plan's delivery and forward sets equal a
    /// naive re-walk oracle over the tracked subscriptions.
    #[test]
    fn route_cache_agrees_with_oracle_under_churn(
        ops in prop::collection::vec(churn_op_strategy(), 1..50),
    ) {
        let mut node = BrokerNode::new(BrokerId::from_raw(1));
        let clients: Vec<ClientId> = (0..6).map(|i| ClientId::from_raw(i + 1)).collect();
        for &client in &clients {
            node.handle(Input::AttachClient { client, profile: Default::default() }).unwrap();
        }
        let peers: Vec<BrokerId> = (0..2).map(|i| BrokerId::from_raw(i + 10)).collect();
        // The oracle: flat lists of live subscriptions, re-walked from
        // scratch on every publish. A peer's list is a multiset: each
        // remote subscribe counts once more.
        let mut local_subs: Vec<(ClientId, TopicFilter)> = Vec::new();
        let mut remote_subs: Vec<(BrokerId, TopicFilter)> = Vec::new();
        let mut actions: Vec<Action> = Vec::new();
        let mut published: Vec<Topic> = Vec::new();
        let mut seq = 0u64;

        for op in ops {
            match op {
                ChurnOp::Subscribe(index, filter) => {
                    let client = clients[index];
                    node.handle(Input::Subscribe { client, filter: filter.clone() }).unwrap();
                    if !local_subs.contains(&(client, filter.clone())) {
                        local_subs.push((client, filter));
                    }
                }
                ChurnOp::Unsubscribe(index, filter) => {
                    let client = clients[index];
                    node.handle(Input::Unsubscribe { client, filter: filter.clone() }).unwrap();
                    local_subs.retain(|entry| *entry != (client, filter.clone()));
                }
                ChurnOp::RemoteSubscribe(index, filter) => {
                    let peer = peers[index];
                    node.handle(Input::RemoteSubscribe { peer, filter: filter.clone() }).unwrap();
                    remote_subs.push((peer, filter));
                }
                ChurnOp::RemoteUnsubscribe(index, filter) => {
                    let peer = peers[index];
                    node.handle(Input::RemoteUnsubscribe { peer, filter: filter.clone() }).unwrap();
                    if let Some(pos) = remote_subs.iter().position(|entry| *entry == (peer, filter.clone())) {
                        remote_subs.remove(pos);
                    }
                }
                ChurnOp::DropLive(_) if local_subs.is_empty() && remote_subs.is_empty() => {}
                ChurnOp::DropLive(pick) => {
                    let pick = pick % (local_subs.len() + remote_subs.len());
                    if let Some((client, filter)) = local_subs.get(pick).cloned() {
                        node.handle(Input::Unsubscribe { client, filter }).unwrap();
                        local_subs.remove(pick);
                    } else {
                        let (peer, filter) = remote_subs.remove(pick - local_subs.len());
                        node.handle(Input::RemoteUnsubscribe { peer, filter }).unwrap();
                    }
                }
                ChurnOp::Detach(index) => {
                    let client = clients[index];
                    node.handle(Input::DetachClient { client }).unwrap();
                    node.handle(Input::AttachClient { client, profile: Default::default() }).unwrap();
                    local_subs.retain(|(c, _)| *c != client);
                }
                ChurnOp::Publish(topic) => {
                    if !published.contains(&topic) {
                        published.push(topic);
                    }
                    // Every topic published so far has a cached plan, so
                    // re-publishing them all checks each plan the control
                    // ops since then evicted or kept.
                    for topic in &published {
                        let event = Event::new(
                            topic.clone(),
                            clients[0],
                            seq,
                            EventClass::Data,
                            Bytes::new(),
                        )
                        .into_shared();
                        seq += 1;
                        actions.clear();
                        node.handle_into(
                            Input::Publish {
                                origin: Origin::Client(clients[0]),
                                event: Arc::clone(&event),
                            },
                            &mut actions,
                        )
                        .unwrap();
                        let mut delivered: Vec<ClientId> = actions
                            .iter()
                            .filter_map(|a| match a {
                                Action::Deliver { client, .. } => Some(*client),
                                _ => None,
                            })
                            .collect();
                        delivered.sort_unstable();
                        let mut forwarded: Vec<BrokerId> = actions
                            .iter()
                            .filter_map(|a| match a {
                                Action::Forward { peer, .. } => Some(*peer),
                                _ => None,
                            })
                            .collect();
                        forwarded.sort_unstable();

                        let mut expected_clients: Vec<ClientId> = local_subs
                            .iter()
                            .filter(|(_, f)| f.matches(topic))
                            .map(|(c, _)| *c)
                            .collect();
                        expected_clients.sort_unstable();
                        expected_clients.dedup();
                        let mut expected_peers: Vec<BrokerId> = remote_subs
                            .iter()
                            .filter(|(_, f)| f.matches(topic))
                            .map(|(p, _)| *p)
                            .collect();
                        expected_peers.sort_unstable();
                        expected_peers.dedup();

                        prop_assert_eq!(delivered, expected_clients, "deliveries for {}", topic);
                        prop_assert_eq!(forwarded, expected_peers, "forwards for {}", topic);
                    }
                }
            }
        }
    }
}

/// One step of the counting-equivalence property below.
#[derive(Debug, Clone)]
enum CountOp {
    Attach(u64),
    Subscribe(u64, TopicFilter),
    RemoteSubscribe(u64, TopicFilter),
    /// From a client (`false`) or a peer broker (`true`), by index.
    Publish(bool, u64, Topic),
}

fn count_op_strategy() -> impl Strategy<Value = CountOp> {
    // Client indices run past the attached ones, so unknown publishers
    // and subscribers are exercised too.
    prop_oneof![
        2 => (1u64..6).prop_map(CountOp::Attach),
        3 => (1u64..6, filter_strategy()).prop_map(|(c, f)| CountOp::Subscribe(c, f)),
        2 => (10u64..13, filter_strategy()).prop_map(|(p, f)| CountOp::RemoteSubscribe(p, f)),
        5 => (any::<bool>(), 0u64..6, topic_strategy())
            .prop_map(|(from_peer, i, t)| CountOp::Publish(from_peer, if from_peer { 10 + i % 3 } else { i }, t)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `publish_plan` counts exactly what a `Publish` through
    /// `handle_into` counts, and its plan names the same targets: two
    /// identical nodes, one driven each way, agree on `counters()`, on
    /// every `BrokerMetrics` reading and on who is delivered to and
    /// forwarded to — for client origins, and for broker origins, whose
    /// events are forwarded nowhere. Both also match a tally of the
    /// actions.
    #[test]
    fn publish_plan_counts_what_handle_into_counts(
        ops in prop::collection::vec(count_op_strategy(), 1..60),
    ) {
        let registries = [Registry::new(), Registry::new()];
        let mut nodes = [BrokerNode::new(BrokerId::from_raw(1)), BrokerNode::new(BrokerId::from_raw(1))];
        for (node, registry) in nodes.iter_mut().zip(&registries) {
            node.set_metrics(BrokerMetrics::register(registry, "broker"));
        }
        let [by_actions, by_plan] = &mut nodes;
        let mut actions: Vec<Action> = Vec::new();
        let mut tally = BrokerCounters::default();
        for (seq, op) in ops.into_iter().enumerate() {
            let input = match op {
                CountOp::Attach(c) => Input::AttachClient { client: ClientId::from_raw(c), profile: Default::default() },
                CountOp::Subscribe(c, filter) => Input::Subscribe { client: ClientId::from_raw(c), filter },
                CountOp::RemoteSubscribe(p, filter) => Input::RemoteSubscribe { peer: BrokerId::from_raw(p), filter },
                CountOp::Publish(from_peer, index, topic) => {
                    let origin = if from_peer {
                        Origin::Broker(BrokerId::from_raw(index))
                    } else {
                        Origin::Client(ClientId::from_raw(index))
                    };
                    let event = Event::new(topic.clone(), ClientId::from_raw(index), seq as u64, EventClass::Data, Bytes::new()).into_shared();
                    actions.clear();
                    let routed = by_actions.handle_into(Input::Publish { origin, event }, &mut actions);
                    let planned = by_plan.publish_plan(origin, &topic);
                    let plan = match (routed, planned) {
                        (Ok(()), Ok(plan)) => plan,
                        (Err(a), Err(b)) => {
                            prop_assert_eq!(a, b);
                            continue;
                        }
                        (a, b) => {
                            prop_assert!(false, "handle_into {:?} but publish_plan {:?}", a, b.map(|_| ()));
                            continue;
                        }
                    };
                    let delivered: Vec<ClientId> = actions.iter().filter_map(|a| match a {
                        Action::Deliver { client, .. } => Some(*client),
                        _ => None,
                    }).collect();
                    let forwarded: Vec<BrokerId> = actions.iter().filter_map(|a| match a {
                        Action::Forward { peer, .. } => Some(*peer),
                        _ => None,
                    }).collect();
                    tally.events_in += 1;
                    tally.deliveries += delivered.len() as u64;
                    tally.forwards += forwarded.len() as u64;
                    tally.unroutable += u64::from(actions.is_empty());
                    let planned_local: Vec<ClientId> = plan.local.iter().map(|(c, _)| *c).collect();
                    // The forwarding rule, stated independently.
                    let planned_remote: Vec<BrokerId> = match origin {
                        Origin::Client(_) => plan.remote.clone(),
                        Origin::Broker(_) => Vec::new(),
                    };
                    prop_assert_eq!(delivered, planned_local, "deliveries for {}", &topic);
                    prop_assert_eq!(forwarded, planned_remote, "forwards for {}", &topic);
                    continue;
                }
            };
            let a = by_actions.handle(input.clone()).map(|_| ());
            let b = by_plan.handle(input).map(|_| ());
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(by_actions.counters(), tally);
        prop_assert_eq!(by_plan.counters(), tally);
        let metrics = by_plan.metrics().expect("installed");
        let readings = [metrics.events_in.get(), metrics.deliveries.get(), metrics.forwards.get(), metrics.unroutable.get()];
        prop_assert_eq!(readings, [tally.events_in, tally.deliveries, tally.forwards, tally.unroutable]);
        prop_assert_eq!(metrics.fanout.count(), tally.events_in);
        prop_assert_eq!(registries[0].render_prometheus(), registries[1].render_prometheus());
    }
}

/// A broker link flaps mid-conference: delivery stops during the
/// partition and resumes after healing.
#[test]
fn broker_partition_heals() {
    let mut net = Cascade::new(2);
    net.link(0, 1);
    let publisher = net.attach(0, 1);
    let subscriber = net.attach(1, 2);
    net.subscribe(subscriber, TopicFilter::parse("conf/#").unwrap());

    let topic = Topic::parse("conf/av").unwrap();
    assert_eq!(net.publish(publisher, &topic, b"1").len(), 1);

    net.partition(0, 1, true);
    assert!(net.publish(publisher, &topic, b"2").is_empty(), "partitioned");

    net.partition(0, 1, false);
    let after = net.publish(publisher, &topic, b"3");
    assert_eq!(after.len(), 1);
    assert_eq!(&after[0].1.payload[..], b"3");
}

/// Peer interest is counted per client subscription: a filter two
/// clients hold stays routed to until both have dropped it, by
/// unsubscribe or detach, and a duplicate subscribe counts nothing.
/// Then the publisher's broker forwards nothing.
#[test]
fn peer_interest_follows_every_client_subscription() {
    let mut net = Cascade::new(2);
    net.link(0, 1);
    let publisher = net.attach(0, 1);
    let first = net.attach(1, 2);
    let second = net.attach(1, 3);
    let conf = TopicFilter::parse("conf/#").unwrap();
    let audio = TopicFilter::parse("conf/audio").unwrap();
    net.subscribe(first, conf.clone());
    net.subscribe(first, conf.clone());
    net.subscribe(first, audio.clone());
    net.subscribe(second, conf.clone());
    let topic = Topic::parse("conf/audio").unwrap();
    let receivers = |net: &mut Cascade| {
        let got = net.publish(publisher, &topic, b"");
        let mut got: Vec<ClientId> = got.into_iter().map(|(c, _)| c).collect();
        got.sort_unstable();
        got
    };
    assert_eq!(receivers(&mut net), [first, second]);
    net.unsubscribe(first, conf);
    assert_eq!(receivers(&mut net), [first, second]);
    net.detach(second).unwrap();
    assert_eq!(receivers(&mut net), [first]);
    net.unsubscribe(first, audio);
    let forwards = net.nodes[0].counters().forwards;
    assert!(receivers(&mut net).is_empty());
    assert_eq!(net.nodes[0].counters().forwards, forwards, "no peer interest is left");
}

/// Detaching twice is an error, not corruption: the node still routes
/// for new clients afterwards.
#[test]
fn broker_detach_abuse() {
    let mut net = Cascade::new(1);
    let client = net.attach(0, 1);
    assert!(net.detach(client).is_ok());
    assert_eq!(net.detach(client), Err(BrokerError::UnknownClient(client)));
    let publisher = net.attach(0, 2);
    let subscriber = net.attach(0, 3);
    net.subscribe(subscriber, TopicFilter::parse("t").unwrap());
    assert_eq!(net.publish(publisher, &Topic::parse("t").unwrap(), b"").len(), 1);
}

/// Strategy: a well-formed topic path whose segments overlap in text
/// (`a/b` and `ab`, `a` and `a-b`), so unequal paths look alike.
fn topic_text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(vec!["a", "b", "ab", "a-b", "ä", "7"]), 1..=4)
        .prop_map(|segments| segments.join("/"))
}

/// Whether two topics share one segment allocation.
fn shares(a: &Topic, b: &Topic) -> bool {
    std::ptr::eq(a.segments(), b.segments())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A `Topic` is its text, parsed once: two parses are equal exactly
    /// when their texts are, equal topics hash equal under any keyed
    /// hasher, the order is the segment-wise order of the text's
    /// segments, `Display` gives the text back, and a clone — or a topic
    /// a decoder takes from a table of earlier parses — shares the
    /// original's allocation rather than copying it.
    #[test]
    fn a_topic_is_its_text_parsed_once(
        a in topic_text_strategy(),
        other in topic_text_strategy(),
        same in any::<bool>(),
    ) {
        let b = if same { a.clone() } else { other };
        let (ta, tb) = (Topic::parse(&a).expect("well-formed"), Topic::parse(&b).expect("well-formed"));
        prop_assert_eq!(ta == tb, a == b);
        if a == b {
            let hasher = RandomState::new();
            prop_assert_eq!(hasher.hash_one(&ta), hasher.hash_one(&tb));
            prop_assert!(!shares(&ta, &tb), "two parses are two allocations");
        }
        let segments = |text: &str| text.split('/').map(str::to_owned).collect::<Vec<_>>();
        prop_assert_eq!(ta.cmp(&tb), segments(&a).cmp(&segments(&b)));
        prop_assert_eq!(ta.to_string(), a.clone());

        let clone = ta.clone();
        prop_assert!(shares(&clone, &ta));
        prop_assert_eq!(&clone, &ta);
        let table = HashMap::from([(a.clone(), ta.clone())]);
        let event = Event::new(tb.clone(), ClientId::from_raw(1), 0, EventClass::Rtp, Bytes::new());
        let frame = wire::encode(&event).freeze();
        let hit = |text: &str| table.get(text).cloned().ok_or(());
        match wire::decode_shared_with(&frame, hit) {
            Ok(decoded) => {
                prop_assert!(a == b, "only the table's own text is a hit");
                prop_assert!(shares(&decoded.topic, &ta));
                prop_assert_eq!(decoded.topic, tb.clone());
            }
            Err(error) => {
                prop_assert!(a != b, "a hit decodes");
                prop_assert_eq!(error, wire::DecodeEventError::BadTopic);
            }
        }
    }
}
