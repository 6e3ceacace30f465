//! Property tests on the broker network's core invariant: on any tree of
//! brokers with any placement of subscribers, a published event is
//! delivered exactly once to every matching subscriber and to no one
//! else — plus invariants for the trie and the interest protocol.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use mmcs::broker::event::{Event, EventClass};
use mmcs::broker::metrics::BrokerMetrics;
use mmcs::broker::network::BrokerNetwork;
use mmcs::broker::node::{Action, BrokerCounters, BrokerNode, Input, Origin};
use mmcs::broker::topic::{SubscriptionTable, Topic, TopicFilter};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once delivery on a random tree with random subscriptions.
    #[test]
    fn exactly_once_delivery_on_random_trees(
        broker_count in 1usize..6,
        parents in prop::collection::vec(any::<u16>(), 5),
        subscriptions in prop::collection::vec((0usize..8, filter_strategy()), 0..12),
        publishes in prop::collection::vec(topic_strategy(), 1..6),
    ) {
        let mut net = BrokerNetwork::new();
        let brokers: Vec<_> = (0..broker_count).map(|_| net.add_broker()).collect();
        // Random tree: each broker i>0 links to a random earlier broker.
        for i in 1..broker_count {
            let parent = brokers[parents[i - 1] as usize % i];
            net.link(brokers[i], parent).expect("tree link");
        }
        // 8 clients spread round-robin across brokers.
        let clients: Vec<ClientId> = (0..8)
            .map(|i| net.attach_client(brokers[i % broker_count]))
            .collect();
        let mut expected: Vec<(ClientId, TopicFilter)> = Vec::new();
        for (client_index, filter) in &subscriptions {
            let client = clients[*client_index];
            net.subscribe(client, filter.clone()).expect("subscribe");
            expected.push((client, filter.clone()));
        }
        let publisher = clients[0];

        for topic in &publishes {
            net.publish(publisher, topic.clone(), Bytes::from_static(b"x"));
            let mut delivered: Vec<ClientId> =
                net.drain_deliveries().into_iter().map(|d| d.client).collect();
            delivered.sort_unstable();
            let mut should: Vec<ClientId> = expected
                .iter()
                .filter(|(_, f)| f.matches(topic))
                .map(|(c, _)| *c)
                .collect();
            should.sort_unstable();
            should.dedup();
            prop_assert_eq!(delivered, should, "topic {}", topic);
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
        let mut a = BrokerNetwork::new();
        let broker_a = a.add_broker();
        let publisher_a = a.attach_client(broker_a);
        let keeper_a = a.attach_client(broker_a);
        a.subscribe(keeper_a, TopicFilter::parse("#").unwrap()).unwrap();
        let victim = a.attach_client(broker_a);
        for filter in &filters {
            a.subscribe(victim, filter.clone()).unwrap();
        }
        a.detach_client(victim).unwrap();
        a.publish(publisher_a, topic.clone(), Bytes::new());
        let deliveries_a = a.drain_deliveries().len();

        // World B: the victim never existed.
        let mut b = BrokerNetwork::new();
        let broker_b = b.add_broker();
        let publisher_b = b.attach_client(broker_b);
        let keeper_b = b.attach_client(broker_b);
        b.subscribe(keeper_b, TopicFilter::parse("#").unwrap()).unwrap();
        b.publish(publisher_b, topic, Bytes::new());
        let deliveries_b = b.drain_deliveries().len();

        prop_assert_eq!(deliveries_a, deliveries_b);
    }
}

/// One step of the route-cache churn property below.
#[derive(Debug, Clone)]
enum ChurnOp {
    Subscribe(usize, TopicFilter),
    Unsubscribe(usize, TopicFilter),
    RemoteSubscribe(usize, TopicFilter),
    RemoteUnsubscribe(usize, TopicFilter),
    Publish(Topic),
}

fn churn_op_strategy() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        3 => (0usize..6, filter_strategy()).prop_map(|(c, f)| ChurnOp::Subscribe(c, f)),
        2 => (0usize..6, filter_strategy()).prop_map(|(c, f)| ChurnOp::Unsubscribe(c, f)),
        2 => (0usize..2, filter_strategy()).prop_map(|(p, f)| ChurnOp::RemoteSubscribe(p, f)),
        1 => (0usize..2, filter_strategy()).prop_map(|(p, f)| ChurnOp::RemoteUnsubscribe(p, f)),
        4 => topic_strategy().prop_map(ChurnOp::Publish),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The memoized route cache never changes what a publish delivers:
    /// under arbitrary subscribe/unsubscribe/publish interleavings
    /// (local and remote), the cached plan's delivery and forward sets
    /// equal a naive re-walk oracle over the tracked subscriptions.
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
        for &peer in &peers {
            node.handle(Input::LinkUp { peer }).unwrap();
        }
        // The oracle: flat lists of live subscriptions, re-walked from
        // scratch on every publish.
        let mut local_subs: Vec<(ClientId, TopicFilter)> = Vec::new();
        let mut remote_subs: Vec<(BrokerId, TopicFilter)> = Vec::new();
        let mut actions: Vec<Action> = Vec::new();
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
                    if !remote_subs.contains(&(peer, filter.clone())) {
                        remote_subs.push((peer, filter));
                    }
                }
                ChurnOp::RemoteUnsubscribe(index, filter) => {
                    let peer = peers[index];
                    node.handle(Input::RemoteUnsubscribe { peer, filter: filter.clone() }).unwrap();
                    remote_subs.retain(|entry| *entry != (peer, filter.clone()));
                }
                ChurnOp::Publish(topic) => {
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
                        .filter(|(_, f)| f.matches(&topic))
                        .map(|(c, _)| *c)
                        .collect();
                    expected_clients.sort_unstable();
                    expected_clients.dedup();
                    let mut expected_peers: Vec<BrokerId> = remote_subs
                        .iter()
                        .filter(|(_, f)| f.matches(&topic))
                        .map(|(p, _)| *p)
                        .collect();
                    expected_peers.sort_unstable();
                    expected_peers.dedup();

                    prop_assert_eq!(delivered, expected_clients, "deliveries for {}", &topic);
                    prop_assert_eq!(forwarded, expected_peers, "forwards for {}", &topic);
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
    Link(u64),
    RemoteSubscribe(u64, TopicFilter),
    /// From a client (`false`) or a peer broker (`true`), by index.
    Publish(bool, u64, Topic),
}

fn count_op_strategy() -> impl Strategy<Value = CountOp> {
    // Indices run past the attached/linked ones, so unknown origins and
    // subscribers are exercised too.
    prop_oneof![
        2 => (1u64..6).prop_map(CountOp::Attach),
        3 => (1u64..6, filter_strategy()).prop_map(|(c, f)| CountOp::Subscribe(c, f)),
        1 => (10u64..13).prop_map(CountOp::Link),
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
    /// forwarded to — for client origins, for broker origins (split
    /// horizon) and in one-hop mesh mode, where an event that crossed a
    /// link is forwarded nowhere. Both also match a tally of the actions.
    #[test]
    fn publish_plan_counts_what_handle_into_counts(
        mesh in any::<bool>(),
        ops in prop::collection::vec(count_op_strategy(), 1..60),
    ) {
        let registries = [Registry::new(), Registry::new()];
        let mut nodes = [BrokerNode::new(BrokerId::from_raw(1)), BrokerNode::new(BrokerId::from_raw(1))];
        for (node, registry) in nodes.iter_mut().zip(&registries) {
            node.set_local_adverts_only(mesh);
            node.set_metrics(BrokerMetrics::register(registry, "broker"));
        }
        let [by_actions, by_plan] = &mut nodes;
        let mut actions: Vec<Action> = Vec::new();
        let mut tally = BrokerCounters::default();
        for (seq, op) in ops.into_iter().enumerate() {
            let input = match op {
                CountOp::Attach(c) => Input::AttachClient { client: ClientId::from_raw(c), profile: Default::default() },
                CountOp::Subscribe(c, filter) => Input::Subscribe { client: ClientId::from_raw(c), filter },
                CountOp::Link(p) => Input::LinkUp { peer: BrokerId::from_raw(p) },
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
                        Origin::Broker(_) if mesh => Vec::new(),
                        Origin::Broker(from) => plan.remote.iter().copied().filter(|p| *p != from).collect(),
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

/// Deterministic (non-proptest) regression: a deep chain still delivers
/// exactly once end to end.
#[test]
fn five_hop_chain_delivers_once() {
    let mut net = BrokerNetwork::new();
    let brokers: Vec<_> = (0..5).map(|_| net.add_broker()).collect();
    for pair in brokers.windows(2) {
        net.link(pair[0], pair[1]).unwrap();
    }
    let publisher = net.attach_client(brokers[0]);
    let subscriber = net.attach_client(brokers[4]);
    net.subscribe(subscriber, TopicFilter::parse("deep/#").unwrap())
        .unwrap();
    net.publish(publisher, Topic::parse("deep/chain").unwrap(), Bytes::new());
    let deliveries = net.drain_deliveries();
    assert_eq!(deliveries.len(), 1);
    assert_eq!(deliveries[0].client, subscriber);
}
