//! Failover on both transports: a silent node is suspected by its
//! neighbours' failure detectors, routed around where a detour exists,
//! and trusted again once it is heard from.
//!
//! The map is the chain `0–1–2–3` at 5 ms plus a 20 ms chord `1–3`, so
//! the shortest paths from 0 and 1 to 3 run through node 2, and every
//! node homes one subscriber. Node 2 is silenced by `crash(2)` — over
//! TCP once with its live connections left up, and once after dropping
//! its listener first — and within three detector timeouts, counted in
//! gossip rounds, every later publish reaches every subscriber not on
//! node 2 exactly once, over the chord; a frame for node 2 is shed at
//! its source instead of dropped for lack of a route. Once node 2 is
//! back and heard from, its subscriber receives again, paths run
//! through it again, and nothing was delivered twice.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use bytes::Bytes;

use mmcs::broker::cluster::{Cluster, ClusterClient, LatencyMap, SUSPECT_AFTER};
use mmcs::broker::topic::{Topic, TopicFilter};

/// Publishes per phase and publisher.
const BURST: u64 = 20;

fn chain_with_chord() -> LatencyMap {
    let mut map = LatencyMap::chain(4, 5);
    map.set_link(1, 3, 20);
    map
}

/// Sums one per-node counter over the cluster.
fn total(cluster: &Cluster, read: impl Fn(&mmcs::broker::metrics::ClusterNodeMetrics) -> u64) -> u64 {
    cluster.metrics().total(read)
}

/// Gossips until every detector trusts its peers again and interest has
/// reconverged. Over TCP a link to the returned node first waits out its
/// reconnect backoff, so rounds are paced and bounded by wall time.
fn heal(cluster: &Cluster) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cluster.converged() {
        assert!(Instant::now() < deadline, "the cluster did not heal");
        cluster.gossip_round();
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One round of publishing: `BURST` events from each publisher, then a
/// quiesce and one drain per subscriber. Returns how many events each
/// subscriber received, and records every (subscriber, source, seq) in
/// `seen`, failing on a second delivery of anything.
fn burst(
    cluster: &Cluster,
    publishers: &[&ClusterClient],
    subscribers: &[ClusterClient],
    seen: &mut HashSet<(usize, u64, u64)>,
) -> Vec<u64> {
    let topic = Topic::parse("failover/x").expect("topic");
    for _ in 0..BURST {
        for publisher in publishers {
            publisher.publish(topic.clone(), Bytes::new());
        }
    }
    cluster.quiesce();
    subscribers
        .iter()
        .enumerate()
        .map(|(node, subscriber)| {
            let mut got = Vec::new();
            subscriber.drain_into(&mut got);
            for event in &got {
                let key = (node, event.source.value(), event.seq);
                assert!(seen.insert(key), "node {node}'s subscriber got {key:?} twice");
            }
            got.len() as u64
        })
        .collect()
}

/// `drop_listener` drops node 2's TCP listener before the crash, so the
/// burst published meanwhile sits unacked in the windows toward it.
/// Without it the crash alone must silence node 2: a severed link
/// carries nothing its peers' detectors hear, flushes included.
fn failover(tcp: bool, drop_listener: bool) {
    let builder = Cluster::builder(chain_with_chord());
    let mut cluster = if tcp { builder.tcp().spawn() } else { builder.spawn() };
    let subscribers: Vec<ClusterClient> = (0..4).map(|zone| cluster.attach(zone)).collect();
    for (node, subscriber) in subscribers.iter().enumerate() {
        assert_eq!(subscriber.node() as usize, node);
        subscriber.subscribe(TopicFilter::parse("failover/#").expect("filter"));
    }
    let (left, right) = (cluster.attach(0), cluster.attach(3));
    let publishers = [&left, &right];
    assert!(cluster.converge(12), "interest converged");
    assert_eq!(cluster.routes().next_hop(1, 3), Some(2));
    let mut seen = HashSet::new();
    let all = 2 * BURST;
    assert_eq!(burst(&cluster, &publishers, &subscribers, &mut seen), [all; 4]);

    if drop_listener {
        cluster.drop_listener(2);
        burst(&cluster, &publishers, &subscribers, &mut seen);
    }
    cluster.crash(2);
    for _ in 0..3 * SUSPECT_AFTER {
        cluster.gossip_round();
    }
    assert_eq!(total(&cluster, |m| m.peers_suspected.get()), 4, "1 and 3 suspect 2, 2 suspects both");
    assert_eq!(cluster.routes().next_hop(0, 3), Some(1));
    assert_eq!(cluster.routes().next_hop(1, 3), Some(3), "the chord");
    assert_eq!(cluster.routes().next_hop(3, 0), Some(1));
    assert_eq!(cluster.routes().next_hop(0, 2), None);

    let no_route = total(&cluster, |m| m.no_route_drops.get());
    let shed = total(&cluster, |m| m.frames_shed.get());
    if drop_listener {
        assert!(shed > 0, "the suspects' links shed the windows they held for node 2");
    }
    let relays = cluster.metrics().node(1).relays.get();
    assert_eq!(
        burst(&cluster, &publishers, &subscribers, &mut seen),
        [all, all, 0, all],
        "everyone but node 2 receives each publish once"
    );
    assert_eq!(total(&cluster, |m| m.no_route_drops.get()), no_route, "no_route_drops stopped rising");
    assert_eq!(
        total(&cluster, |m| m.frames_shed.get()) - shed,
        all,
        "each publish sheds its frame for node 2 at the source"
    );
    assert_eq!(
        cluster.metrics().node(1).relays.get() - relays,
        all,
        "node 1 relays every frame between 0 and 3, over the chord"
    );

    // Node 2 returns: heard again, trusted again, routed through again.
    cluster.restart(2, false);
    if drop_listener {
        cluster.restore_listener(2);
    }
    heal(&cluster);
    assert_eq!(total(&cluster, |m| m.peers_rejoined.get()), 4);
    assert_eq!(cluster.routes().next_hop(1, 3), Some(2));
    assert_eq!(burst(&cluster, &publishers, &subscribers, &mut seen), [all; 4]);
    cluster.quiesce();
    for subscriber in &subscribers {
        assert!(subscriber.try_recv().is_none(), "no stragglers");
    }
}

#[test]
fn in_process_failover_routes_around_a_crashed_node_and_back() {
    failover(false, false);
}

#[test]
fn tcp_failover_routes_around_a_crashed_node_and_back() {
    failover(true, false);
}

#[test]
fn tcp_failover_routes_around_a_silent_node_and_back() {
    failover(true, true);
}
