//! The simulated A/V clients of `mmcs_bench::load` against the broker's
//! simulator driver: publishers pace, receivers measure, relays and
//! bundles stand in for many clients, and the shard mesh and the
//! federation carry their traffic with exact delivery counts.

use std::sync::Arc;

use mmcs::broker::batch::CostModel;
use mmcs::broker::cluster::LatencyMap;
use mmcs::broker::profile::TransportProfile;
use mmcs::broker::sharded::{home_shard, owner_shard_of_topic};
use mmcs::broker::simdrv::BrokerProcess;
use mmcs::broker::simtopo::{add_brokers, Links};
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs::rtp::packet::payload_type;
use mmcs::rtp::source::{AudioCodec, AudioSource, VideoSource, VideoSourceConfig};
use mmcs::sim::net::NicConfig;
use mmcs::sim::{ProcessId, Simulation};
use mmcs::telemetry::Histogram;
use mmcs_bench::load::{ClientBundle, MulticastRelay, Publisher, PublisherConfig, RtpReceiver};
use mmcs_util::id::{BrokerId, ClientId};
use mmcs_util::rate::Bandwidth;
use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

// One broker, one or two hops: the publishers and the receiver.

fn video_sim(seed: u64) -> (Simulation, ProcessId, Vec<ProcessId>) {
    let mut sim = Simulation::new(seed);
    let sender_host = sim.add_host("sender", NicConfig::default());
    let broker_host = sim.add_host("broker", NicConfig::default());
    let client_host = sim.add_host("clients", NicConfig::default());

    let broker = sim.add_typed_process(
        broker_host,
        BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
    );
    let mut receivers = Vec::new();
    for i in 0..3 {
        let host = if i == 0 { sender_host } else { client_host };
        let receiver = RtpReceiver::new(
            broker,
            ClientId::from_raw(100 + i),
            TopicFilter::parse("conf/1/video").unwrap(),
            payload_type::H263,
            SimDuration::from_micros(30),
        )
        .with_series_capture();
        receivers.push(sim.add_typed_process(host, receiver));
    }
    let mut config = PublisherConfig::new(
        broker,
        ClientId::from_raw(1),
        Topic::parse("conf/1/video").unwrap(),
    );
    config.max_packets = 100;
    let source = VideoSource::new(VideoSourceConfig::default(), 42, DetRng::new(seed));
    sim.add_typed_process(sender_host, Publisher::new(config, source));
    (sim, broker, receivers)
}

#[test]
fn video_flows_through_broker_to_all_receivers() {
    let (mut sim, broker, receivers) = video_sim(7);
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(sim.counter("publisher.rtp_sent"), 100);
    assert_eq!(sim.counter("receiver.rtp_received"), 300);
    for r in &receivers {
        let stats = sim.process_ref::<RtpReceiver>(*r).unwrap().stats();
        assert_eq!(stats.received(), 100);
        assert_eq!(stats.lost(), 0);
        assert!(stats.delay_ms().mean() > 0.0);
    }
    let node = sim.process_ref::<BrokerProcess>(broker).unwrap().node();
    assert_eq!(node.counters().deliveries, 300);
}

#[test]
fn runs_are_deterministic() {
    fn digest(seed: u64) -> Vec<u64> {
        let (mut sim, _, receivers) = video_sim(seed);
        sim.run_until(SimTime::from_secs(10));
        receivers
            .iter()
            .map(|r| {
                let s = sim.process_ref::<RtpReceiver>(*r).unwrap().stats();
                (s.delay_ms().mean() * 1e9) as u64
            })
            .collect()
    }
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
}

#[test]
fn audio_publisher_paces_at_50pps() {
    let mut sim = Simulation::new(1);
    let host = sim.add_host("all", NicConfig::default());
    let broker = sim.add_typed_process(
        host,
        BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
    );
    let receiver = sim.add_typed_process(
        host,
        RtpReceiver::new(
            broker,
            ClientId::from_raw(2),
            TopicFilter::parse("conf/1/audio").unwrap(),
            payload_type::PCMU,
            SimDuration::from_micros(10),
        ),
    );
    let config = PublisherConfig::new(
        broker,
        ClientId::from_raw(1),
        Topic::parse("conf/1/audio").unwrap(),
    );
    let source = AudioSource::new(AudioCodec::Pcmu, 9);
    sim.add_typed_process(host, Publisher::new(config, source));
    // 2 seconds of media after the 100 ms start delay: ~95 packets.
    sim.run_until(SimTime::from_secs(2));
    let stats = sim.process_ref::<RtpReceiver>(receiver).unwrap().stats();
    assert!(
        (90..=96).contains(&stats.received()),
        "{}",
        stats.received()
    );
    assert_eq!(stats.lost(), 0);
}

#[test]
fn multi_broker_path_delivers() {
    let mut sim = Simulation::new(5);
    let h1 = sim.add_host("a", NicConfig::default());
    let h2 = sim.add_host("b", NicConfig::default());
    let b1 = sim.add_typed_process(
        h1,
        BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
    );
    let b2 = sim.add_typed_process(
        h2,
        BrokerProcess::new(BrokerId::from_raw(2), CostModel::narada()),
    );
    sim.process_mut::<BrokerProcess>(b1)
        .unwrap()
        .add_peer(BrokerId::from_raw(2), b2);
    sim.process_mut::<BrokerProcess>(b2)
        .unwrap()
        .add_peer(BrokerId::from_raw(1), b1);
    let receiver = sim.add_typed_process(
        h2,
        RtpReceiver::new(
            b2,
            ClientId::from_raw(2),
            TopicFilter::parse("conf/9/video").unwrap(),
            payload_type::H263,
            SimDuration::from_micros(10),
        ),
    );
    let mut config = PublisherConfig::new(
        b1,
        ClientId::from_raw(1),
        Topic::parse("conf/9/video").unwrap(),
    );
    config.max_packets = 50;
    let source = VideoSource::new(VideoSourceConfig::default(), 4, DetRng::new(2));
    sim.add_typed_process(h1, Publisher::new(config, source));
    sim.run_until(SimTime::from_secs(10));
    let stats = sim.process_ref::<RtpReceiver>(receiver).unwrap().stats();
    assert_eq!(stats.received(), 50);
    // Two broker hops forwarded across hosts.
    assert!(sim.counter("broker.forwarded") >= 50);
}

// Multicast relays: one broker send per machine.

#[test]
fn relay_fans_out_locally_with_one_broker_send() {
    let mut sim = Simulation::new(2);
    let sender_host = sim.add_host("sender", NicConfig::default());
    let broker_host = sim.add_host("broker", NicConfig::default());
    let segment_host = sim.add_host("segment", NicConfig::default());

    let broker = sim.add_typed_process(
        broker_host,
        BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
    );
    let topic = Topic::parse("conf/9/video").unwrap();
    let filter = TopicFilter::exact(&topic);

    // 10 receivers behind one relay on the segment host.
    let mut receiver_ids = Vec::new();
    for i in 0..10 {
        let receiver = RtpReceiver::new(
            broker,
            ClientId::from_raw(100 + i),
            // Receivers do NOT subscribe at the broker: the relay
            // feeds them. Give them an unmatched filter.
            TopicFilter::parse("unused/topic").unwrap(),
            payload_type::H263,
            SimDuration::from_micros(10),
        );
        receiver_ids.push(sim.add_typed_process(segment_host, receiver));
    }
    let relay = sim.add_typed_process(
        segment_host,
        MulticastRelay::new(broker, ClientId::from_raw(50), filter),
    );
    for id in &receiver_ids {
        sim.process_mut::<MulticastRelay>(relay)
            .unwrap()
            .add_local_receiver(*id);
    }

    let mut config = PublisherConfig::new(broker, ClientId::from_raw(1), topic);
    config.max_packets = 60;
    let source = VideoSource::new(VideoSourceConfig::default(), 3, DetRng::new(4));
    sim.add_typed_process(sender_host, Publisher::new(config, source));

    sim.run_until(SimTime::from_secs(10));

    // The broker delivered each packet exactly once (to the relay).
    assert_eq!(sim.counter("broker.delivered"), 60);
    assert_eq!(sim.counter("mcast.relayed"), 60);
    // Every local receiver still got all 60.
    for id in &receiver_ids {
        let stats = sim.process_ref::<RtpReceiver>(*id).unwrap().stats();
        assert_eq!(stats.received(), 60);
        assert_eq!(stats.lost(), 0);
    }
}

// Client bundles: one delivery, many clients.

#[test]
fn bundle_records_weight_samples_per_delivery() {
    let mut sim = Simulation::new(4);
    let broker_host = sim.add_host("broker", NicConfig::default());
    let segment_host = sim.add_host("segment", NicConfig::default());
    let broker = sim.add_typed_process(
        broker_host,
        BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
    );
    let topic = Topic::parse("conf/3/video").unwrap();
    let pool = Arc::new(Histogram::new());
    let bundle = sim.add_typed_process(
        segment_host,
        ClientBundle::new(
            broker,
            ClientId::from_raw(500),
            TopicFilter::exact(&topic),
            250,
            SimDuration::from_nanos(40),
            Arc::clone(&pool),
        ),
    );
    let mut config = PublisherConfig::new(broker, ClientId::from_raw(1), topic);
    config.max_packets = 30;
    let source = VideoSource::new(VideoSourceConfig::default(), 5, DetRng::new(6));
    sim.add_typed_process(broker_host, Publisher::new(config, source));

    sim.run_until(SimTime::from_secs(10));
    let bundle_ref = sim.process_ref::<ClientBundle>(bundle).unwrap();
    assert_eq!(bundle_ref.received(), 30);
    // One broker delivery per event, but weight samples per delivery.
    assert_eq!(sim.counter("broker.delivered"), 30);
    assert_eq!(sim.counter("bundle.delivered_clients"), 30 * 250);
    let snap = pool.snapshot();
    assert_eq!(snap.count(), 30 * 250);
    assert!(snap.mean() > 0.0, "delays are positive");
}

#[test]
fn weight_one_bundle_uses_unicast_profile_costs() {
    // Two sims: a weight-1 bundle vs an RtpReceiver-style unicast
    // client must cost the broker the same number of deliveries.
    let mut sim = Simulation::new(9);
    let host = sim.add_host("all", NicConfig::default());
    let broker = sim.add_typed_process(
        host,
        BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
    );
    let topic = Topic::parse("conf/8/audio").unwrap();
    let pool = Arc::new(Histogram::new());
    sim.add_typed_process(
        host,
        ClientBundle::new(
            broker,
            ClientId::from_raw(2),
            TopicFilter::exact(&topic),
            1,
            SimDuration::from_micros(10),
            Arc::clone(&pool),
        ),
    );
    let mut config = PublisherConfig::new(broker, ClientId::from_raw(1), topic);
    config.max_packets = 20;
    let source = AudioSource::new(AudioCodec::Pcmu, 3);
    sim.add_typed_process(host, Publisher::new(config, source));
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(sim.counter("broker.delivered"), 20);
    assert_eq!(pool.snapshot().count(), 20);
}

// The live topologies rebuilt in the simulator (`simtopo`), under load.

fn shard_mesh(sim: &mut Simulation, shards: usize) -> Vec<ProcessId> {
    let nic = Bandwidth::from_bps(Bandwidth::from_mbps(310).bps() / shards as u64);
    add_brokers(sim, Links::ShardMesh(shards), CostModel::narada(), nic)
}

fn federation(sim: &mut Simulation, map: &LatencyMap) -> Vec<ProcessId> {
    add_brokers(
        sim,
        Links::Federation(map),
        CostModel::narada(),
        Bandwidth::from_mbps(310),
    )
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
    sim.add_typed_process(sender_host, Publisher::new(config, source));

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
    // subscribers on one topic, each passes their interest to each
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

/// One publisher in `publisher_zone`, one subscriber in
/// `subscriber_zone`, 30 packets across the federation `map`.
fn run_federation(map: LatencyMap, publisher_zone: usize, subscriber_zone: usize) -> (u64, u64) {
    let mut sim = Simulation::new(17);
    let nodes = federation(&mut sim, &map);
    let topic = Topic::parse("session/7/video").unwrap();
    let entry = nodes[map.home_node(publisher_zone) as usize];
    let home = nodes[map.home_node(subscriber_zone) as usize];
    let (received, forwarded) = run_video(sim, &topic, entry, &[(ClientId::from_raw(2), home)], 30);
    (received[0], forwarded)
}

#[test]
fn mesh_publish_crosses_exactly_one_link() {
    let (received, forwarded) = run_federation(LatencyMap::full_mesh(3, 5), 0, 1);
    assert_eq!(received, 30, "all packets across the federation");
    assert_eq!(forwarded, 30, "one inter-node hop per packet");
}

#[test]
fn same_zone_publish_never_crosses_a_link() {
    let (received, forwarded) = run_federation(LatencyMap::full_mesh(3, 5), 1, 1);
    assert_eq!(received, 30);
    assert_eq!(forwarded, 0, "publisher and subscriber share a gateway");
}

// Transport profiles as the receiver sees them.

fn delay_with_profile(profile: TransportProfile) -> f64 {
    let mut sim = Simulation::new(4);
    let host_a = sim.add_host("a", NicConfig::default());
    let host_b = sim.add_host("b", NicConfig::default());
    let broker = sim.add_typed_process(
        host_b,
        BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
    );
    let topic = Topic::parse("p/audio").unwrap();
    let mut receiver = RtpReceiver::new(
        broker,
        ClientId::from_raw(2),
        TopicFilter::exact(&topic),
        payload_type::PCMU,
        SimDuration::from_micros(10),
    );
    receiver = receiver.with_profile(profile);
    let receiver = sim.add_typed_process(host_a, receiver);
    let mut config = PublisherConfig::new(broker, ClientId::from_raw(1), topic);
    config.max_packets = 50;
    sim.add_typed_process(
        host_a,
        Publisher::new(config, AudioSource::new(AudioCodec::Pcmu, 1)),
    );
    sim.run_until(SimTime::from_secs(3));
    sim.process_ref::<RtpReceiver>(receiver)
        .unwrap()
        .stats()
        .delay_ms()
        .mean()
}

/// The SSL stack costs more CPU per delivery than UDP, which shows
/// up as higher end-to-end delay in an otherwise identical world.
#[test]
fn ssl_delivery_is_slower_than_udp() {
    let udp = delay_with_profile(TransportProfile::Udp);
    let ssl = delay_with_profile(TransportProfile::Ssl);
    assert!(ssl > udp, "ssl {ssl:.4} vs udp {udp:.4}");
}
