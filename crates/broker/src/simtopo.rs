//! Live topology ↔ simulator bridge.
//!
//! The live [`crate::sharded::ShardedBroker`] and
//! [`crate::cluster::Cluster`] run worker threads (and, for the
//! federation, gossip and real sockets), so their timings are not
//! reproducible; the capacity-frontier harness and the experiments need
//! the *same topology* inside the deterministic simulator so that knees
//! and delay histograms are bit-reproducible per seed. [`add_brokers`]
//! builds that model: one [`BrokerProcess`] per node, each on its own
//! simulated host (its own serial CPU — the multicore analogue), joined
//! along [`Links`].
//!
//! Placement is not rebuilt here; callers use the live runtime's own
//! functions, so a topic or client lands exactly where the thread
//! runtime would put it: [`crate::sharded::owner_shard_of_topic`] /
//! [`crate::sharded::home_shard`] for shards, and
//! [`LatencyMap::home_node`] for zone gateways.
//!
//! Interest exchange differs by the shape of the link graph, mirroring
//! what the live runtimes converge to:
//!
//! * **full mesh** (every shard mesh, [`LatencyMap::full_mesh`]) — the
//!   mesh has cycles, so nodes run local-adverts-only and events cross
//!   exactly one link: the shard runtime's one-hop forwarding ring and
//!   the live cluster's direct-path routing;
//! * **tree** (e.g. [`LatencyMap::chain`]) — the sans-IO node's native
//!   broker-to-broker subscription propagation carries interest hop by
//!   hop, and events relay through intermediate nodes exactly like live
//!   `ClusterFrame` relaying (on a tree there is only one path, so it
//!   matches the live [`RouteTable`](crate::cluster::RouteTable)).
//!
//! Other cyclic topologies are rejected: the deterministic model has
//! no gossip rounds to break cycles with.
//!
//! NIC budget: callers pass the **per-node** NIC bandwidth. The usual
//! shard model is `total_nic / shards` — aggregate wire capacity
//! constant while CPU scales with the shard count — which is what makes
//! the audio (CPU-bound) knee grow with shards while the video
//! (NIC-bound) knee stays put, the frontier harness's headline contrast.

use mmcs_sim::net::{LinkConfig, NicConfig};
use mmcs_sim::{ProcessId, Simulation};
use mmcs_util::id::BrokerId;
use mmcs_util::rate::Bandwidth;
use mmcs_util::time::SimDuration;

use crate::batch::CostModel;
use crate::cluster::LatencyMap;
use crate::simdrv::BrokerProcess;

/// NIC queue limit of every simulated broker host: the large socket
/// buffers of the paper's optimized transmission path (I-frame bursts
/// need several MB of backlog headroom).
pub const NIC_QUEUE_BYTES: u64 = 64 * 1024 * 1024;

/// How the simulated brokers are joined.
#[derive(Debug, Clone, Copy)]
pub enum Links<'a> {
    /// The shards of one process: a full mesh of this many nodes on
    /// the simulation's default link latency.
    ShardMesh(usize),
    /// A federation: the direct links of the map, each at the map's
    /// latency ([`Simulation::set_link`]).
    Federation(&'a LatencyMap),
}

impl Links<'_> {
    /// Number of brokers these links join.
    pub fn node_count(&self) -> usize {
        match self {
            Links::ShardMesh(shards) => *shards,
            Links::Federation(map) => map.node_count(),
        }
    }
}

/// Adds one host and broker process per node to `sim`, peers them
/// along `links`, and returns the processes in node order (node index
/// == [`BrokerId`], matching the thread runtimes' numbering). Call
/// before adding clients so process ids stay compact.
///
/// # Panics
///
/// Panics if there are no nodes, or if the link graph is cyclic but
/// not a full mesh (see the [module docs](self)).
pub fn add_brokers(
    sim: &mut Simulation,
    links: Links<'_>,
    cost: CostModel,
    node_nic: Bandwidth,
) -> Vec<ProcessId> {
    let n = links.node_count();
    let shape = match links {
        Links::ShardMesh(_) => Shape::Mesh,
        Links::Federation(map) => classify(map),
    };
    assert!(n > 0, "node count must be positive");
    assert!(
        shape != Shape::Other,
        "simulated brokers support tree and full-mesh topologies"
    );
    let mut hosts = Vec::with_capacity(n);
    let mut nodes = Vec::with_capacity(n);
    for index in 0..n {
        let host = sim.add_host(
            &format!("broker-{index}"),
            NicConfig {
                bandwidth: node_nic,
                queue_bytes: NIC_QUEUE_BYTES,
                ..NicConfig::default()
            },
        );
        let mut broker = BrokerProcess::new(BrokerId::from_raw(index as u64), cost);
        if shape == Shape::Mesh {
            // The mesh has cycles: interest must stop after one hop.
            broker = broker.with_local_adverts_only();
        }
        hosts.push(host);
        nodes.push(sim.add_typed_process(host, broker));
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if let Links::Federation(map) = links {
                let Some(ms) = map.link(a as u16, b as u16) else {
                    continue;
                };
                sim.set_link(
                    hosts[a],
                    hosts[b],
                    LinkConfig {
                        latency: SimDuration::from_micros(u64::from(ms) * 1000),
                        ..LinkConfig::default()
                    },
                );
            }
            for (from, to) in [(a, b), (b, a)] {
                sim.process_mut::<BrokerProcess>(nodes[from])
                    .expect("broker process just added")
                    .add_peer(BrokerId::from_raw(to as u64), nodes[to]);
            }
        }
    }
    nodes
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Tree,
    Mesh,
    Other,
}

/// Classifies the link graph: a connected acyclic graph, a complete
/// graph, or anything else.
fn classify(map: &LatencyMap) -> Shape {
    let n = map.node_count();
    let mut edges = 0usize;
    for a in 0..n {
        for b in (a + 1)..n {
            if map.link(a as u16, b as u16).is_some() {
                edges += 1;
            }
        }
    }
    if edges == n * (n - 1) / 2 {
        // Complete graphs on ≤ 2 nodes are also trees; mesh semantics
        // (one hop, local adverts) are correct for those too.
        return Shape::Mesh;
    }
    if edges != n.saturating_sub(1) {
        return Shape::Other;
    }
    // n-1 edges: a tree iff connected.
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut visited = 1;
    while let Some(at) = stack.pop() {
        for (next, seen_next) in seen.iter_mut().enumerate() {
            if !*seen_next && map.link(at as u16, next as u16).is_some() {
                *seen_next = true;
                visited += 1;
                stack.push(next);
            }
        }
    }
    if visited == n {
        Shape::Tree
    } else {
        Shape::Other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{home_shard, owner_shard_of_topic, ShardedBroker};
    use crate::simdrv::{PublisherConfig, RtpReceiver, VideoPublisher};
    use crate::topic::{Topic, TopicFilter};
    use mmcs_rtp::packet::payload_type;
    use mmcs_rtp::source::{VideoSource, VideoSourceConfig};
    use mmcs_util::id::ClientId;
    use mmcs_util::rng::DetRng;
    use mmcs_util::time::SimTime;

    fn shard_mesh(sim: &mut Simulation, shards: usize) -> Vec<ProcessId> {
        let nic = Bandwidth::from_bps(Bandwidth::from_mbps(310).bps() / shards as u64);
        add_brokers(sim, Links::ShardMesh(shards), CostModel::narada(), nic)
    }

    fn federation(sim: &mut Simulation, map: &LatencyMap) -> Vec<ProcessId> {
        add_brokers(sim, Links::Federation(map), CostModel::narada(), Bandwidth::from_mbps(310))
    }

    /// The broker id running at `process`.
    fn broker_at(sim: &Simulation, process: ProcessId) -> u64 {
        sim.process_ref::<BrokerProcess>(process)
            .expect("broker process")
            .node()
            .id()
            .value()
    }

    /// Subscribes one receiver per entry of `homes`, publishes `packets`
    /// video packets into `entry`, and returns what each receiver got
    /// plus the total inter-broker forwards.
    fn run_video(
        mut sim: Simulation,
        topic: &Topic,
        entry: ProcessId,
        homes: &[(ClientId, ProcessId)],
        packets: u64,
    ) -> (Vec<u64>, u64) {
        let client_host = sim.add_host("clients", NicConfig::default());
        let receivers: Vec<ProcessId> = homes
            .iter()
            .map(|(client, home)| {
                sim.add_typed_process(
                    client_host,
                    RtpReceiver::new(
                        *home,
                        *client,
                        TopicFilter::exact(topic),
                        payload_type::H263,
                        SimDuration::from_micros(10),
                    ),
                )
            })
            .collect();
        let sender_host = sim.add_host("sender", NicConfig::default());
        let mut config = PublisherConfig::new(entry, ClientId::from_raw(9000), topic.clone());
        config.max_packets = packets;
        let source = VideoSource::new(VideoSourceConfig::default(), 7, DetRng::new(11));
        sim.add_typed_process(sender_host, VideoPublisher::new(config, source));

        sim.run_until(SimTime::from_secs(20));
        let received = receivers
            .iter()
            .map(|r| {
                let stats = sim.process_ref::<RtpReceiver>(*r).unwrap().stats();
                assert_eq!(stats.lost(), 0);
                stats.received()
            })
            .collect();
        (received, sim.counter("broker.forwarded"))
    }

    /// A client (with its home process) homed on a shard satisfying `pick`.
    fn client_homed(nodes: &[ProcessId], pick: impl Fn(usize) -> bool) -> (ClientId, ProcessId) {
        (1..256)
            .map(ClientId::from_raw)
            .find(|c| pick(home_shard(*c, nodes.len())))
            .map(|c| (c, nodes[home_shard(c, nodes.len())]))
            .expect("some client homes there")
    }

    #[test]
    fn shard_placement_matches_live_runtime() {
        // The simulated shards and the thread runtime must agree on
        // every placement decision: same hash, same modulus, same
        // fallbacks, and shard index == broker id.
        for shards in [1usize, 2, 3, 4, 8] {
            let live = ShardedBroker::spawn(shards);
            let mut sim = Simulation::new(1);
            let nodes = shard_mesh(&mut sim, shards);
            assert_eq!(nodes.len(), shards);
            for raw in 1..200u64 {
                let client = ClientId::from_raw(raw);
                let home = nodes[home_shard(client, shards)];
                assert_eq!(broker_at(&sim, home), live.home_shard(client) as u64);
            }
            for name in ["alpha/x", "bravo/y/z", "sess42/audio", "a", "globalmmcs/capacity/av"] {
                let topic = Topic::parse(name).unwrap();
                let owner = nodes[owner_shard_of_topic(&topic, shards)];
                assert_eq!(broker_at(&sim, owner), live.shard_for_topic(&topic) as u64);
            }
            live.shutdown();
        }
    }

    #[test]
    fn cross_shard_publish_reaches_remote_homed_subscriber() {
        // A (topic, client) pair owned/homed on different shards: the
        // publish hops the mesh exactly once.
        let mut sim = Simulation::new(3);
        let nodes = shard_mesh(&mut sim, 4);
        let topic = Topic::parse("frontier/video").unwrap();
        let owner = owner_shard_of_topic(&topic, 4);
        let remote = client_homed(&nodes, |home| home != owner);
        let (received, forwarded) = run_video(sim, &topic, nodes[owner], &[remote], 40);
        assert_eq!(received, [40], "all packets across the shard hop");
        // Exactly one mesh hop per packet: owner shard -> home shard.
        assert_eq!(forwarded, 40);
    }

    #[test]
    fn same_shard_publish_never_hops() {
        let mut sim = Simulation::new(5);
        let nodes = shard_mesh(&mut sim, 4);
        let topic = Topic::parse("frontier/video").unwrap();
        let owner = owner_shard_of_topic(&topic, 4);
        let local = client_homed(&nodes, |home| home == owner);
        let (received, forwarded) = run_video(sim, &topic, nodes[owner], &[local], 25);
        assert_eq!(received, [25]);
        assert_eq!(forwarded, 0, "owner == home: no hop");
    }

    #[test]
    fn broadcast_to_all_shards_delivers_exactly_once() {
        // The duplication regression: when *every* shard has local
        // subscribers on one topic, each advertises interest to each
        // peer — a forwarded event must still stop after one hop, not
        // ricochet around the mesh and deliver copies.
        let shards = 4usize;
        let mut sim = Simulation::new(9);
        let nodes = shard_mesh(&mut sim, shards);
        let topic = Topic::parse("frontier/broadcast").unwrap();
        let owner = owner_shard_of_topic(&topic, shards);
        // One receiver homed on every shard.
        let homes: Vec<_> = (0..shards)
            .map(|shard| client_homed(&nodes, |home| home == shard))
            .collect();
        let (received, forwarded) = run_video(sim, &topic, nodes[owner], &homes, 30);
        assert_eq!(received, [30; 4], "exactly once per subscriber");
        // One hop to each non-owner shard and nothing further.
        assert_eq!(
            forwarded,
            30 * (shards as u64 - 1),
            "owner {owner} forwards once per interested peer"
        );
    }

    #[test]
    fn classify_recognizes_shapes() {
        assert_eq!(classify(&LatencyMap::chain(4, 5)), Shape::Tree);
        assert_eq!(classify(&LatencyMap::full_mesh(4, 5)), Shape::Mesh);
        assert_eq!(classify(&LatencyMap::full_mesh(2, 5)), Shape::Mesh);
        let mut ring = LatencyMap::chain(4, 5);
        ring.set_link(0, 3, 5);
        assert_eq!(classify(&ring), Shape::Other);
        let disconnected = LatencyMap::new(3).with_zone(vec![1, 1, 1]);
        assert_eq!(classify(&disconnected), Shape::Other);
    }

    #[test]
    fn zone_homing_matches_live_map() {
        // The process a zone's clients attach at is the broker the
        // live cluster would pick as that zone's gateway.
        let map = LatencyMap::full_mesh(3, 5)
            .with_zone(vec![1, 10, 10])
            .with_zone(vec![10, 1, 10])
            .with_zone(vec![10, 10, 1]);
        let mut sim = Simulation::new(1);
        let nodes = federation(&mut sim, &map);
        assert_eq!(nodes.len(), map.node_count());
        for zone in 0..map.zone_count() {
            let gateway = map.home_node(zone);
            assert_eq!(broker_at(&sim, nodes[gateway as usize]), u64::from(gateway));
        }
    }

    /// One publisher in `publisher_zone`, one subscriber in
    /// `subscriber_zone`, 30 packets across the federation `map`.
    fn run_federation(map: LatencyMap, publisher_zone: usize, subscriber_zone: usize) -> (u64, u64) {
        let mut sim = Simulation::new(17);
        let nodes = federation(&mut sim, &map);
        let topic = Topic::parse("session/7/video").unwrap();
        let entry = nodes[map.home_node(publisher_zone) as usize];
        let home = nodes[map.home_node(subscriber_zone) as usize];
        let (received, forwarded) =
            run_video(sim, &topic, entry, &[(ClientId::from_raw(2), home)], 30);
        (received[0], forwarded)
    }

    #[test]
    fn mesh_publish_crosses_exactly_one_link() {
        let (received, forwarded) = run_federation(LatencyMap::full_mesh(3, 5), 0, 1);
        assert_eq!(received, 30, "all packets across the federation");
        assert_eq!(forwarded, 30, "one inter-node hop per packet");
    }

    #[test]
    fn chain_publish_relays_through_intermediate_nodes() {
        let (received, forwarded) = run_federation(LatencyMap::chain(4, 5), 0, 3);
        assert_eq!(received, 30, "all packets across three links");
        assert_eq!(forwarded, 90, "each of three links carries each packet");
    }

    #[test]
    fn same_zone_publish_never_crosses_a_link() {
        let (received, forwarded) = run_federation(LatencyMap::full_mesh(3, 5), 1, 1);
        assert_eq!(received, 30);
        assert_eq!(forwarded, 0, "publisher and subscriber share a gateway");
    }
}
