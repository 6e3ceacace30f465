//! Oracle equivalence for the sharded broker runtime.
//!
//! The single-loop broker state machine (`BrokerNode`, driven by
//! `mmcs_chaos::oracle::Oracle`) is the oracle:
//! any random sequence of subscribe / unsubscribe / publish / detach
//! operations run against a `ShardedBroker` — at 1, 2, and 4 shards —
//! must produce the **identical sorted delivery multiset** the oracle
//! produces when fed the same sequence.
//!
//! Control operations on the sharded runtime are eventually consistent
//! across shards, so the sequence is settled with
//! [`ShardedBroker::quiesce`] after each control op (the equivalence
//! contract is exact *between control epochs*); publishes stream
//! freely. A backpressure variant re-runs the property with a soft
//! shard-queue capacity of 2 and mid-sequence worker stalls, so
//! publishes spin on full queues without changing what gets delivered.

use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use mmcs::broker::sharded::{ShardedBroker, ShardedClient};
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs_chaos::oracle::{Delivery, Oracle, Recorder};

const CLIENTS: usize = 4;

/// One step of a random run.
#[derive(Debug, Clone)]
enum Op {
    Subscribe(usize, TopicFilter),
    Unsubscribe(usize, TopicFilter),
    Publish(usize, Topic),
    Detach(usize),
}

/// Topics over a small alphabet: collisions exercise overlap dedup,
/// distinct heads spread publishes across shards.
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
        1 => (0usize..CLIENTS).prop_map(Op::Detach),
    ]
}

/// Runs the sequence against the single-loop [`Oracle`], returning the
/// sorted delivery multiset. Ops that the node rejects (e.g. a publish
/// from a detached client) are skipped — the sharded workers skip them
/// too — and still use up the client's sequence number, as
/// `ShardedClient`'s counter does.
fn oracle_run(ops: &[Op]) -> Vec<Delivery> {
    let mut oracle = Oracle::new(CLIENTS);
    for op in ops {
        match op {
            Op::Subscribe(index, filter) => oracle.add_filter(*index, filter.clone()),
            Op::Unsubscribe(index, filter) => oracle.drop_filter(*index, filter.clone()),
            Op::Detach(index) => oracle.detach_client(*index),
            Op::Publish(index, topic) => {
                oracle.publish_next(*index, topic.clone());
            }
        }
    }
    oracle.take_deliveries()
}

/// Runs the sequence against a real `ShardedBroker`, quiescing after
/// every control op, and returns the sorted delivery multiset. Also
/// asserts per-(receiver, source, topic) sequence monotonicity in
/// arrival order — the per-topic ordering guarantee.
fn sharded_run(ops: &[Op], shards: usize, capacity: usize, stalls: bool) -> Vec<Delivery> {
    let broker = ShardedBroker::builder(shards).capacity(capacity).spawn();
    let clients: Vec<ShardedClient> = (0..CLIENTS).map(|_| broker.attach()).collect();
    broker.quiesce();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Subscribe(index, filter) => {
                clients[*index].subscribe(filter.clone());
                broker.quiesce();
            }
            Op::Unsubscribe(index, filter) => {
                clients[*index].unsubscribe(filter.clone());
                broker.quiesce();
            }
            Op::Detach(index) => {
                // Settle in-flight publishes first so everything the
                // oracle delivered is already in the channel, then
                // detach and settle the detach itself.
                broker.quiesce();
                clients[*index].detach();
                broker.quiesce();
            }
            Op::Publish(index, topic) => {
                if stalls && step % 5 == 0 {
                    broker.stall_shard(step % shards, Duration::from_millis(2));
                }
                clients[*index].publish(topic.clone(), Bytes::new());
            }
        }
    }
    broker.quiesce();
    let mut recorder = Recorder::default();
    let mut deliveries: Vec<Delivery> = Vec::new();
    for client in &clients {
        while let Some(event) = client.try_recv() {
            deliveries.push(recorder.arrival(client.id(), &event));
        }
    }
    assert_eq!(recorder.order_violations, 0, "per-topic order violated");
    deliveries.sort_unstable();
    deliveries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded runtime delivers exactly what the single-loop oracle
    /// delivers, at every shard count.
    #[test]
    fn sharded_matches_oracle(ops in prop::collection::vec(op_strategy(), 1..30)) {
        let expected = oracle_run(&ops);
        for shards in [1usize, 2, 4] {
            let actual = sharded_run(&ops, shards, 65_536, false);
            prop_assert_eq!(&actual, &expected, "{} shards diverged", shards);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same property under backpressure: a soft shard-queue capacity of
    /// 2 plus mid-sequence worker stalls force publishes to spin on full
    /// queues, which must not change (or reorder within a topic) what
    /// gets delivered.
    #[test]
    fn sharded_matches_oracle_under_backpressure(
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let expected = oracle_run(&ops);
        for shards in [2usize, 4] {
            let actual = sharded_run(&ops, shards, 2, true);
            prop_assert_eq!(&actual, &expected, "{} shards diverged under backpressure", shards);
        }
    }
}

/// Deterministic regression: overlapping wildcard and literal filters
/// across clients homed on different shards, with a detach mid-stream.
#[test]
fn mixed_filters_and_detach_match_oracle() {
    let f = |s: &str| TopicFilter::parse(s).expect("filter");
    let t = |s: &str| Topic::parse(s).expect("topic");
    let ops = vec![
        Op::Subscribe(0, f("#")),
        Op::Subscribe(1, f("a/#")),
        Op::Subscribe(2, f("*/x")),
        Op::Subscribe(0, f("a/x")),
        Op::Publish(3, t("a/x")),
        Op::Publish(3, t("b/x")),
        Op::Publish(3, t("a/y")),
        Op::Detach(1),
        Op::Publish(3, t("a/x")),
        Op::Unsubscribe(0, f("#")),
        Op::Publish(3, t("c/z")),
    ];
    let expected = oracle_run(&ops);
    for shards in [1usize, 2, 4] {
        assert_eq!(
            sharded_run(&ops, shards, 65_536, false),
            expected,
            "{shards} shards diverged"
        );
    }
}
