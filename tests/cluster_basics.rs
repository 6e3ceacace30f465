//! The federation through its public surface: one test per behaviour
//! of the routed event plane and the gossip interest plane (cross-node
//! delivery, multi-hop relay, interest-driven forwarding, crash/restart
//! re-convergence, client zone moves, stale generations). The four
//! event-plane tests run on both transports and pin every node's
//! counters exactly, since both feed the same data plane. The
//! oracle-equivalence properties live in `cluster_equivalence.rs`, the
//! socket-only behaviours in `cluster_tcp.rs`.

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

/// Whether a cluster's links are in-process calls or loopback sockets.
#[derive(Debug, Clone, Copy)]
enum Transport {
    InProcess,
    Tcp,
}

const TRANSPORTS: [Transport; 2] = [Transport::InProcess, Transport::Tcp];

fn spawn(latency: LatencyMap, transport: Transport) -> Cluster {
    let builder = Cluster::builder(latency);
    match transport {
        Transport::InProcess => builder.spawn(),
        Transport::Tcp => builder.tcp().spawn(),
    }
}

/// One node's event-plane counters. `frames_in` counts from a
/// [`Counters::since`] baseline, so gossip before it does not show.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counters {
    inter_node_forwards: u64,
    relays: u64,
    /// `hop_histogram` count and max (0 when empty).
    arrivals: u64,
    max_hop: u64,
    stale_generation: u64,
    frames_in: u64,
    decode_errors: u64,
}

impl Counters {
    fn of(cluster: &Cluster) -> Vec<Counters> {
        let nodes = cluster.metrics().nodes();
        nodes
            .map(|m| {
                let hops = m.hop_histogram.snapshot();
                Counters {
                    inter_node_forwards: m.inter_node_forwards.get(),
                    relays: m.relays.get(),
                    arrivals: hops.count(),
                    max_hop: hops.max().unwrap_or(0),
                    stale_generation: m.stale_generation.get(),
                    frames_in: m.frames_in.get(),
                    decode_errors: m.decode_errors.get(),
                }
            })
            .collect()
    }

    /// Every node's counters now, `frames_in` less its `base` value.
    fn since(cluster: &Cluster, base: &[Counters]) -> Vec<Counters> {
        let mut now = Counters::of(cluster);
        for (node, base) in now.iter_mut().zip(base) {
            node.frames_in -= base.frames_in;
        }
        now
    }
}

/// A node that sent `forwards` event frames and handled nothing else.
fn origin(forwards: u64) -> Counters {
    Counters {
        inter_node_forwards: forwards,
        ..Counters::default()
    }
}

/// A node that relayed one frame.
fn relay() -> Counters {
    Counters {
        relays: 1,
        frames_in: 1,
        ..Counters::default()
    }
}

/// A node that took delivery of one frame after `hops` links.
fn destination(hops: u64, stale: u64) -> Counters {
    Counters {
        arrivals: 1,
        max_hop: hops,
        stale_generation: stale,
        frames_in: 1,
        ..Counters::default()
    }
}

#[test]
fn cross_node_publish_reaches_remote_subscriber() {
    for transport in TRANSPORTS {
        let cluster = spawn(LatencyMap::full_mesh(2, 5), transport);
        let publisher = cluster.attach(0);
        let subscriber = cluster.attach(1);
        assert_ne!(publisher.node(), subscriber.node());
        subscriber.subscribe(filter("session/7/*"));
        assert!(cluster.converge(8), "{transport:?}");
        let base = Counters::of(&cluster);

        publisher.publish(topic("session/7/video"), Bytes::from_static(b"frame"));
        cluster.quiesce();

        let mut got = Vec::new();
        subscriber.drain_into(&mut got);
        assert_eq!(got.len(), 1, "{transport:?}: one delivery across the hop");
        assert_eq!(got[0].source, publisher.id());
        assert_eq!(
            Counters::since(&cluster, &base),
            vec![origin(1), destination(1, 0)],
            "{transport:?}: one frame per interested remote node"
        );
    }
}

#[test]
fn chain_cluster_relays_across_intermediate_nodes() {
    for transport in TRANSPORTS {
        let cluster = spawn(LatencyMap::chain(4, 5), transport);
        let publisher = cluster.attach(0);
        let subscriber = cluster.attach(3);
        subscriber.subscribe(filter("session/#"));
        assert!(cluster.converge(12), "{transport:?}");
        let base = Counters::of(&cluster);

        publisher.publish(topic("session/9/audio"), Bytes::from_static(b"pkt"));
        cluster.quiesce();

        let mut got = Vec::new();
        subscriber.drain_into(&mut got);
        assert_eq!(got.len(), 1, "{transport:?}");
        assert_eq!(
            Counters::since(&cluster, &base),
            vec![origin(1), relay(), relay(), destination(3, 0)],
            "{transport:?}: nodes 1 and 2 each relay once; delivery after three links"
        );
        assert_eq!(cluster.metrics().total(|m| m.hop_limit_drops.get()), 0);
    }
}

#[test]
fn uninterested_nodes_receive_no_event_frames() {
    for transport in TRANSPORTS {
        let cluster = spawn(LatencyMap::full_mesh(3, 5), transport);
        let publisher = cluster.attach(0);
        let near = cluster.attach(0);
        near.subscribe(filter("session/7/*"));
        assert!(cluster.converge(8), "{transport:?}");
        let base = Counters::of(&cluster);

        publisher.publish(topic("session/7/video"), Bytes::from_static(b"frame"));
        cluster.quiesce();

        let mut got = Vec::new();
        near.drain_into(&mut got);
        assert_eq!(got.len(), 1, "{transport:?}");
        assert_eq!(
            Counters::since(&cluster, &base),
            vec![Counters::default(); 3],
            "{transport:?}: no remote node subscribed, so nothing crosses a link"
        );
    }
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
    for transport in TRANSPORTS {
        let cluster = spawn(LatencyMap::full_mesh(2, 5), transport);
        let publisher = cluster.attach(0);
        let subscriber = cluster.attach(1);
        subscriber.subscribe(filter("a/#"));
        assert!(cluster.converge(8), "{transport:?}");
        let base = Counters::of(&cluster);

        // Bump node 1's local generation after node 0 learned it.
        subscriber.subscribe(filter("b/#"));
        // Do NOT gossip: node 0 now holds a stale view of node 1.
        publisher.publish(topic("a/x"), Bytes::from_static(b"p"));
        cluster.quiesce();

        let mut got = Vec::new();
        subscriber.drain_into(&mut got);
        assert_eq!(
            got.len(),
            1,
            "{transport:?}: stale generation still delivers"
        );
        assert_eq!(
            Counters::since(&cluster, &base),
            vec![origin(1), destination(1, 1)],
            "{transport:?}"
        );
    }
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
