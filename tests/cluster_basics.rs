//! The in-process federation through its public surface: one test per
//! behaviour of the routed event plane and the gossip interest plane
//! (cross-node delivery, multi-hop relay, interest-driven forwarding,
//! crash/restart re-convergence, client zone moves, stale generations).
//! The oracle-equivalence properties live in `cluster_equivalence.rs`,
//! the socket transport in `cluster_tcp.rs`.

use std::time::{Duration, Instant};

use bytes::Bytes;

use mmcs::broker::cluster::{Cluster, LatencyMap};
use mmcs::broker::topic::{Topic, TopicFilter};

fn topic(s: &str) -> Topic {
    Topic::parse(s).expect("valid topic")
}

fn filter(s: &str) -> TopicFilter {
    TopicFilter::parse(s).expect("valid filter")
}

#[test]
fn cross_node_publish_reaches_remote_subscriber() {
    let cluster = Cluster::spawn(LatencyMap::full_mesh(2, 5));
    let publisher = cluster.attach(0);
    let subscriber = cluster.attach(1);
    assert_ne!(publisher.node(), subscriber.node());
    subscriber.subscribe(filter("session/7/*"));
    cluster.converge(8);

    publisher.publish(topic("session/7/video"), Bytes::from_static(b"frame"));
    cluster.quiesce();

    let mut got = Vec::new();
    subscriber.drain_into(&mut got);
    assert_eq!(got.len(), 1, "exactly one delivery across the hop");
    assert_eq!(got[0].source, publisher.id());
    let forwards = cluster.metrics().total(|m| m.inter_node_forwards.get());
    assert_eq!(forwards, 1, "one frame per interested remote node");
}

#[test]
fn chain_cluster_relays_across_intermediate_nodes() {
    let cluster = Cluster::spawn(LatencyMap::chain(4, 5));
    let publisher = cluster.attach(0);
    let subscriber = cluster.attach(3);
    subscriber.subscribe(filter("session/#"));
    cluster.converge(12);

    publisher.publish(topic("session/9/audio"), Bytes::from_static(b"pkt"));
    cluster.quiesce();

    let mut got = Vec::new();
    subscriber.drain_into(&mut got);
    assert_eq!(got.len(), 1);
    let relays = cluster.metrics().total(|m| m.relays.get());
    assert_eq!(relays, 2, "nodes 1 and 2 each relay once");
    assert_eq!(
        cluster.metrics().node(3).hop_histogram.snapshot().max(),
        Some(3),
        "delivery after three links"
    );
    assert_eq!(cluster.metrics().total(|m| m.hop_limit_drops.get()), 0);
}

#[test]
fn uninterested_nodes_receive_no_event_frames() {
    let cluster = Cluster::spawn(LatencyMap::full_mesh(3, 5));
    let publisher = cluster.attach(0);
    let near = cluster.attach(0);
    near.subscribe(filter("session/7/*"));
    cluster.converge(8);

    publisher.publish(topic("session/7/video"), Bytes::from_static(b"frame"));
    cluster.quiesce();

    let mut got = Vec::new();
    near.drain_into(&mut got);
    assert_eq!(got.len(), 1);
    assert_eq!(
        cluster.metrics().total(|m| m.inter_node_forwards.get()),
        0,
        "no remote node subscribed, so nothing crosses a link"
    );
}

#[test]
fn crash_and_restart_reconverges_interest() {
    let cluster = Cluster::spawn(LatencyMap::full_mesh(3, 5));
    let sub = cluster.attach(1);
    sub.subscribe(filter("chat/#"));
    assert!(cluster.converge(8));

    cluster.quiesce();
    cluster.crash(1);
    // Node 2 learns nothing new while 1 is dark.
    let extra = cluster.attach(1);
    extra.subscribe(filter("mail/#"));
    cluster.gossip_round();
    assert!(!cluster.converged(), "partitioned cluster cannot converge");

    cluster.restart(1, false);
    assert!(cluster.converge(12), "healed cluster reconverges");

    let publisher = cluster.attach(0);
    publisher.publish(topic("mail/inbox"), Bytes::from_static(b"m"));
    cluster.quiesce();
    let mut got = Vec::new();
    extra.drain_into(&mut got);
    assert_eq!(got.len(), 1, "post-heal interest routes events again");
}

#[test]
fn client_move_keeps_subscriptions_and_pending_deliveries() {
    let map = LatencyMap::full_mesh(2, 5)
        .with_zone(vec![1, 10])
        .with_zone(vec![10, 1]);
    let cluster = Cluster::spawn(map);
    let publisher = cluster.attach(0);
    let mover = cluster.attach(0);
    mover.subscribe(filter("session/7/*"));
    cluster.converge(8);

    publisher.publish(topic("session/7/video"), Bytes::from_static(b"a"));
    cluster.quiesce();

    mover.move_to_zone(1);
    assert_eq!(mover.node(), 1);
    cluster.converge(8);

    publisher.publish(topic("session/7/video"), Bytes::from_static(b"b"));
    cluster.quiesce();

    let mut got = Vec::new();
    mover.drain_into(&mut got);
    let payloads: Vec<&[u8]> = got.iter().map(|e| e.payload.as_ref()).collect();
    assert_eq!(
        payloads,
        vec![b"a".as_ref(), b"b".as_ref()],
        "stashed delivery first, post-move delivery second"
    );
}

#[test]
fn stale_generation_is_counted_but_still_delivered() {
    let cluster = Cluster::spawn(LatencyMap::full_mesh(2, 5));
    let publisher = cluster.attach(0);
    let subscriber = cluster.attach(1);
    subscriber.subscribe(filter("a/#"));
    cluster.converge(8);

    // Bump node 1's local generation after node 0 learned it.
    subscriber.subscribe(filter("b/#"));
    // Do NOT gossip: node 0 now holds a stale view of node 1.
    publisher.publish(topic("a/x"), Bytes::from_static(b"p"));
    cluster.quiesce();

    let mut got = Vec::new();
    subscriber.drain_into(&mut got);
    assert_eq!(got.len(), 1, "stale generation still delivers");
    assert_eq!(cluster.metrics().node(1).stale_generation.get(), 1);
}

/// Regression: `recv_timeout` used to sleep with the handle's state
/// lock held, so a `publish` from another thread on the same client
/// (it reads the home node under that lock) stalled for the rest of the
/// timeout.
#[test]
fn a_waiting_receiver_does_not_hold_up_a_sibling_publish() {
    let cluster = Cluster::spawn(LatencyMap::full_mesh(2, 5));
    let client = cluster.attach(0);
    client.subscribe(filter("echo/#"));
    cluster.converge(8);

    let about_to_wait = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            about_to_wait.wait();
            client.recv_timeout(Duration::from_secs(1))
        });
        about_to_wait.wait();
        // Nothing outside can observe "asleep inside recv_timeout"; the
        // pause only makes it the likely interleaving. The assertions
        // hold on either side of it.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        client.publish(topic("echo/x"), Bytes::from_static(b"ping"));
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "publish waited {took:?} behind a sibling's recv_timeout"
        );
        let got = waiter.join().expect("waiter thread");
        assert_eq!(got.expect("the waiter receives the event").payload.as_ref(), b"ping");
    });
}
