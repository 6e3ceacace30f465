//! Oracle equivalence for the federation runtime.
//!
//! The single-loop broker state machine (`BrokerNode`, driven by
//! `mmcs_chaos::oracle::Oracle`) is the oracle: a
//! federation of N gossiping nodes must be observationally equivalent
//! to one broker. Any random sequence of subscribe / unsubscribe /
//! publish / client-zone-move operations run against a live [`Cluster`]
//! — at 1, 2 and 4 nodes, mesh and chain — must produce the
//! **identical sorted delivery multiset** the oracle produces when fed
//! the same sequence, with every event delivered exactly once and
//! per-(receiver, source, topic) sequences strictly increasing.
//!
//! Interest spreads by gossip, so the sequence is settled with
//! [`Cluster::quiesce`] after every op (the equivalence contract is
//! exact between settled epochs; the chaos harness covers the faulted
//! regime). The same property runs over loopback TCP, where `quiesce`
//! is a link-level flush exchange: that it holds there is the check
//! that the flush settles exactly what the in-process barrier settles.
//! A second property checks gossip convergence itself: after
//! any churn sequence, a bounded number of anti-entropy rounds makes
//! every node's view of every other node match that node's local truth.
//!
//! [`Cluster`]: mmcs::broker::cluster::Cluster

use bytes::Bytes;
use proptest::prelude::*;

use mmcs::broker::cluster::{Cluster, ClusterClient, LatencyMap};
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs_chaos::oracle::{Delivery, Oracle, Recorder};

const CLIENTS: usize = 4;

/// One step of a random run.
#[derive(Debug, Clone)]
enum Op {
    Subscribe(usize, TopicFilter),
    Unsubscribe(usize, TopicFilter),
    Publish(usize, Topic),
    Move(usize, usize),
}

fn topic_strategy() -> impl Strategy<Value = Topic> {
    prop::collection::vec(prop::sample::select(vec!["a", "b", "c", "d", "e"]), 1..=3)
        .prop_map(Topic::from_segments)
}

fn filter_strategy() -> impl Strategy<Value = TopicFilter> {
    (
        prop::collection::vec(prop::sample::select(vec!["a", "b", "c", "d", "e", "*"]), 1..=3),
        any::<bool>(),
    )
        .prop_map(|(mut segments, tail)| {
            if tail {
                segments.push("#");
            }
            TopicFilter::parse(&segments.join("/")).expect("valid filter")
        })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..CLIENTS, filter_strategy()).prop_map(|(c, f)| Op::Subscribe(c, f)),
        2 => (0usize..CLIENTS, filter_strategy()).prop_map(|(c, f)| Op::Unsubscribe(c, f)),
        5 => (0usize..CLIENTS, topic_strategy()).prop_map(|(c, t)| Op::Publish(c, t)),
        1 => (0usize..CLIENTS, 0usize..8).prop_map(|(c, z)| Op::Move(c, z)),
    ]
}

/// Runs the sequence against the single-loop [`Oracle`]. Zone moves are
/// invisible to it: a move must not lose subscriptions or pending
/// deliveries.
fn oracle_run(ops: &[Op]) -> Vec<Delivery> {
    let mut oracle = Oracle::new(CLIENTS);
    for op in ops {
        match op {
            Op::Subscribe(index, filter) => oracle.add_filter(*index, filter.clone()),
            Op::Unsubscribe(index, filter) => oracle.drop_filter(*index, filter.clone()),
            Op::Move(..) => {}
            Op::Publish(index, topic) => {
                oracle.publish_next(*index, topic.clone());
            }
        }
    }
    oracle.take_deliveries()
}

/// Runs the sequence against a live federation and returns the sorted
/// delivery multiset, asserting per-(receiver, source, topic) sequence
/// monotonicity in arrival order. Clients start spread across zones so
/// most publishes cross node boundaries.
fn cluster_run(ops: &[Op], latency: LatencyMap) -> Vec<Delivery> {
    run_on(ops, Cluster::spawn(latency))
}

fn run_on(ops: &[Op], cluster: Cluster) -> Vec<Delivery> {
    let nodes = cluster.node_count();
    let zones = 2 * nodes;
    // Interest spreads by anti-entropy: every control op must gossip to
    // convergence before the next publish sees its effect. On a chain
    // the far end is node_count-1 pushes away, so converge() gets a
    // bound past that.
    let settle = nodes + 2;
    let clients: Vec<ClusterClient> = (0..CLIENTS).map(|i| cluster.attach(i % zones)).collect();
    cluster.quiesce();
    for op in ops {
        match op {
            Op::Subscribe(index, filter) => {
                clients[*index].subscribe(filter.clone());
                assert!(cluster.converge(settle), "gossip stuck after subscribe");
            }
            Op::Unsubscribe(index, filter) => {
                clients[*index].unsubscribe(filter);
                assert!(cluster.converge(settle), "gossip stuck after unsubscribe");
            }
            Op::Move(index, zone) => {
                cluster.quiesce();
                clients[*index].move_to_zone(zone % zones);
                assert!(cluster.converge(settle), "gossip stuck after move");
            }
            Op::Publish(index, topic) => {
                clients[*index].publish(topic.clone(), Bytes::new());
                // Settle so the delivery set is exact between epochs: a
                // later unsubscribe must not race the in-flight frame.
                cluster.quiesce();
            }
        }
    }
    cluster.quiesce();
    let mut recorder = Recorder::default();
    let mut deliveries: Vec<Delivery> = Vec::new();
    for client in &clients {
        let mut batch = Vec::new();
        client.drain_into(&mut batch);
        deliveries.extend(batch.iter().map(|event| recorder.arrival(client.id(), event)));
    }
    assert_eq!(recorder.order_violations, 0, "per-topic order violated");
    deliveries.sort_unstable();
    deliveries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The federation delivers exactly what the single-loop oracle
    /// delivers — at 1, 2 and 4 nodes over a full mesh.
    #[test]
    fn cluster_matches_oracle(ops in prop::collection::vec(op_strategy(), 1..24)) {
        let expected = oracle_run(&ops);
        for nodes in [1usize, 2, 4] {
            let actual = cluster_run(&ops, LatencyMap::full_mesh(nodes, 2));
            prop_assert_eq!(&actual, &expected, "{} mesh nodes diverged", nodes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same property on a 4-node chain, where cross-cluster events
    /// relay through intermediate nodes (real multi-hop forwarding).
    #[test]
    fn chain_cluster_matches_oracle(ops in prop::collection::vec(op_strategy(), 1..20)) {
        let expected = oracle_run(&ops);
        let actual = cluster_run(&ops, LatencyMap::chain(4, 2));
        prop_assert_eq!(&actual, &expected, "4-node chain diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same property over loopback TCP sockets — a mesh, and the chain
    /// whose relays carry a publish over up to three sockets.
    #[test]
    fn tcp_cluster_matches_oracle(ops in prop::collection::vec(op_strategy(), 1..20)) {
        let expected = oracle_run(&ops);
        for latency in [LatencyMap::full_mesh(3, 2), LatencyMap::chain(4, 2)] {
            let nodes = latency.node_count();
            let actual = run_on(&ops, Cluster::builder(latency).tcp().spawn());
            prop_assert_eq!(&actual, &expected, "{} nodes over TCP diverged", nodes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Gossip convergence: after any churn sequence (applied without
    /// per-op settling), a bounded number of anti-entropy rounds makes
    /// every node's view of every peer match that peer's local truth.
    #[test]
    fn gossip_converges_after_churn(
        ops in prop::collection::vec(op_strategy(), 1..24),
        nodes in prop::sample::select(vec![2usize, 3, 4]),
    ) {
        let zones = 2 * nodes;
        let cluster = Cluster::spawn(LatencyMap::full_mesh(nodes, 2));
        let clients: Vec<ClusterClient> =
            (0..CLIENTS).map(|i| cluster.attach(i % zones)).collect();
        for op in &ops {
            match op {
                Op::Subscribe(index, filter) => clients[*index].subscribe(filter.clone()),
                Op::Unsubscribe(index, filter) => clients[*index].unsubscribe(filter),
                Op::Publish(index, topic) => {
                    clients[*index].publish(topic.clone(), Bytes::new())
                }
                Op::Move(index, zone) => {
                    // Moves still need settled queues to relocate.
                    cluster.quiesce();
                    clients[*index].move_to_zone(zone % zones);
                }
            }
        }
        cluster.quiesce();
        prop_assert!(
            cluster.converge(nodes + 2),
            "{} nodes failed to converge after churn",
            nodes
        );
    }
}

/// Deterministic regression: overlapping wildcard and literal filters
/// across clients homed at different gateways, with a zone move
/// mid-stream. Also the soak entry point: `MMCS_CLUSTER_SOAK=1` scales
/// the publish stream up for the CI soak job.
#[test]
fn mixed_filters_and_moves_match_oracle() {
    let f = |s: &str| TopicFilter::parse(s).expect("filter");
    let t = |s: &str| Topic::parse(s).expect("topic");
    let rounds: usize = match std::env::var("MMCS_CLUSTER_SOAK") {
        Ok(v) if v == "1" => 40,
        _ => 2,
    };
    let mut ops = vec![
        Op::Subscribe(0, f("#")),
        Op::Subscribe(1, f("a/#")),
        Op::Subscribe(2, f("*/x")),
        Op::Subscribe(0, f("a/x")),
    ];
    for round in 0..rounds {
        ops.push(Op::Publish(3, t("a/x")));
        ops.push(Op::Publish(3, t("b/x")));
        ops.push(Op::Publish(3, t("a/y")));
        ops.push(Op::Move(1, round % 8));
        ops.push(Op::Publish(3, t("a/x")));
        ops.push(Op::Publish(2, t("c/z")));
    }
    ops.push(Op::Unsubscribe(0, f("#")));
    ops.push(Op::Publish(3, t("c/z")));
    let expected = oracle_run(&ops);
    for nodes in [1usize, 2, 4] {
        assert_eq!(
            cluster_run(&ops, LatencyMap::full_mesh(nodes, 2)),
            expected,
            "{nodes} mesh nodes diverged"
        );
    }
    assert_eq!(
        cluster_run(&ops, LatencyMap::chain(4, 2)),
        expected,
        "4-node chain diverged"
    );
}
