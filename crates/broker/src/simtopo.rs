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
//! The link graph is always a full mesh (every shard mesh,
//! [`LatencyMap::full_mesh`]): each broker process sends every
//! subscription of its own clients to every peer it was given (the
//! shard runtime skips shards that own no matching topic), and an
//! event crosses exactly one link, which is the shard runtime's one-hop
//! forwarding ring and the live cluster's direct-path routing. Any
//! other federation map is rejected: the node relays nothing, and the
//! deterministic model has no gossip or next-hop table to relay with.
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
/// Panics if there are no nodes, or if a federation map is not a full
/// mesh (see the [module docs](self)).
pub fn add_brokers(
    sim: &mut Simulation,
    links: Links<'_>,
    cost: CostModel,
    node_nic: Bandwidth,
) -> Vec<ProcessId> {
    let n = links.node_count();
    assert!(n > 0, "node count must be positive");
    if let Links::Federation(map) = links {
        let linked = |a: usize, b: usize| map.link(a as u16, b as u16).is_some();
        assert!(
            (0..n).all(|a| (a + 1..n).all(|b| linked(a, b))),
            "simulated brokers must form a full mesh"
        );
    }
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
        let broker = BrokerProcess::new(BrokerId::from_raw(index as u64), cost);
        hosts.push(host);
        nodes.push(sim.add_typed_process(host, broker));
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if let Links::Federation(map) = links {
                if let Some(ms) = map.link(a as u16, b as u16) {
                    sim.set_link(
                        hosts[a],
                        hosts[b],
                        LinkConfig {
                            latency: SimDuration::from_micros(u64::from(ms) * 1000),
                            ..LinkConfig::default()
                        },
                    );
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{home_shard, owner_shard_of_topic, ShardedBroker};
    use crate::topic::Topic;
    use mmcs_util::id::ClientId;

    fn shard_mesh(sim: &mut Simulation, shards: usize) -> Vec<ProcessId> {
        let nic = Bandwidth::from_bps(Bandwidth::from_mbps(310).bps() / shards as u64);
        add_brokers(sim, Links::ShardMesh(shards), CostModel::narada(), nic)
    }

    /// The broker id running at `process`.
    fn broker_at(sim: &Simulation, process: ProcessId) -> u64 {
        sim.process_ref::<BrokerProcess>(process)
            .expect("broker process")
            .node()
            .id()
            .value()
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
    fn only_full_meshes_are_built() {
        let builds = |map: &LatencyMap| {
            std::panic::catch_unwind(|| {
                add_brokers(&mut Simulation::new(1), Links::Federation(map), CostModel::narada(), Bandwidth::from_mbps(310))
            })
            .is_ok()
        };
        assert!(builds(&LatencyMap::full_mesh(4, 5)));
        assert!(builds(&LatencyMap::full_mesh(2, 5)));
        let mut ring = LatencyMap::chain(4, 5);
        ring.set_link(0, 3, 5);
        assert!(!builds(&ring));
        assert!(!builds(&LatencyMap::chain(3, 5)));
        assert!(!builds(&LatencyMap::new(3).with_zone(vec![1, 1, 1])));
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
        let nodes = add_brokers(&mut sim, Links::Federation(&map), CostModel::narada(), Bandwidth::from_mbps(310));
        assert_eq!(nodes.len(), map.node_count());
        for zone in 0..map.zone_count() {
            let gateway = map.home_node(zone);
            assert_eq!(broker_at(&sim, nodes[gateway as usize]), u64::from(gateway));
        }
    }
}
