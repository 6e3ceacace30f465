//! Ablations A1 and A2 from `DESIGN.md`.
//!
//! * **A1 — transmission batching.** The paper attributes the broker's
//!   edge partly to "some optimizations on the message transmission". We
//!   rerun the Figure 3 broker side with `CostModel::batching = false`
//!   to show how much of the win that optimization carries.
//! * **A2 — distributed dissemination.** NaradaBrokering's pitch is a
//!   *distributed* collection of brokers: with B brokers in a star, the
//!   publisher at the hub, each broker serves 1/B of the receivers and
//!   the fan-out NIC load splits B ways. Every packet crosses at most one
//!   broker link, hub to leaf. We sweep B ∈ {1, 2, 4} on the
//!   400-receiver video workload.

use mmcs_broker::simdrv::BrokerProcess;
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_rtp::packet::payload_type;
use mmcs_rtp::source::VideoSource;
use mmcs_sim::net::NicConfig;
use mmcs_sim::Simulation;
use mmcs_util::id::{BrokerId, ClientId};
use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

use crate::fig3::{run_narada, Fig3Config, SystemResult};
use crate::load::{MulticastRelay, Publisher, PublisherConfig, RtpReceiver};

/// A1: the Figure 3 broker run with batching on vs off.
pub fn run_batching_ablation(base: &Fig3Config) -> (SystemResult, SystemResult) {
    let batched = run_narada(base);
    let mut unbatched_config = base.clone();
    // Toggle only the optimization; keep whatever per-send scaling the
    // base config carries (the reduced CI config scales costs 10x).
    unbatched_config.broker_cost.batching = false;
    let unbatched = run_narada(&unbatched_config);
    (batched, unbatched)
}

/// Result of one broker-count point in ablation A2.
#[derive(Debug, Clone)]
pub struct DisseminationPoint {
    /// Brokers in the star.
    pub brokers: usize,
    /// Mean one-way delay across all receivers (ms).
    pub avg_delay_ms: f64,
    /// Mean loss fraction across receivers.
    pub loss: f64,
}

/// A2: the video fan-out workload over a star of `brokers` brokers.
///
/// The publisher attaches to broker 0; receivers are spread evenly over
/// all brokers, each broker on its own machine.
///
/// # Panics
///
/// Panics if `brokers` is zero.
pub fn run_dissemination(config: &Fig3Config, brokers: usize) -> DisseminationPoint {
    assert!(brokers > 0, "need at least one broker");
    let mut sim = Simulation::new(config.seed);
    let sender_host = sim.add_host("sender-machine", NicConfig::default());
    sim.set_default_latency(config.lan_latency);

    let nic = NicConfig {
        bandwidth: config.relay_nic,
        queue_bytes: 64 * 1024 * 1024,
        ..NicConfig::default()
    };

    // Broker star: broker 0 is the hub (publisher's broker).
    let mut broker_procs = Vec::new();
    for b in 0..brokers {
        let host = sim.add_host(&format!("broker-machine-{b}"), nic);
        let process = sim.add_typed_process(
            host,
            BrokerProcess::new(BrokerId::from_raw(b as u64 + 1), config.broker_cost),
        );
        broker_procs.push(process);
    }
    for b in 1..brokers {
        let hub_id = BrokerId::from_raw(1);
        let leaf_id = BrokerId::from_raw(b as u64 + 1);
        let leaf_proc = broker_procs[b];
        let hub_proc = broker_procs[0];
        sim.process_mut::<BrokerProcess>(hub_proc)
            .expect("hub process")
            .add_peer(leaf_id, leaf_proc);
        sim.process_mut::<BrokerProcess>(leaf_proc)
            .expect("leaf process")
            .add_peer(hub_id, hub_proc);
    }

    let topic = Topic::parse("globalmmcs/session-1/video").expect("static topic");
    let filter = TopicFilter::exact(&topic);

    // Receivers: spread over brokers, 50 per client machine.
    let mut receiver_ids = Vec::new();
    let mut hosts_per_broker: Vec<Vec<mmcs_sim::net::HostId>> = vec![Vec::new(); brokers];
    for i in 0..config.receivers {
        let broker_index = i % brokers;
        let machine_index = (i / brokers) / 50;
        while hosts_per_broker[broker_index].len() <= machine_index {
            let n = hosts_per_broker[broker_index].len();
            hosts_per_broker[broker_index].push(sim.add_host(
                &format!("clients-{broker_index}-{n}"),
                NicConfig::default(),
            ));
        }
        let host = hosts_per_broker[broker_index][machine_index];
        let receiver = RtpReceiver::new(
            broker_procs[broker_index],
            ClientId::from_raw(1000 + i as u64),
            filter.clone(),
            payload_type::H263,
            config.recv_cpu,
        );
        receiver_ids.push(sim.add_typed_process(host, receiver));
    }

    let mut publisher_config =
        PublisherConfig::new(broker_procs[0], ClientId::from_raw(1), topic);
    publisher_config.max_packets = config.packets;
    let source = VideoSource::new(config.video, 0xABCD, DetRng::new(config.seed ^ 0x5EED));
    sim.add_typed_process(sender_host, Publisher::new(publisher_config, source));

    let media_secs = config.packets as f64 * config.video.mtu_payload as f64
        / (config.video.bitrate_bps as f64 / 8.0);
    sim.run_until(SimTime::from_secs(media_secs as u64 + 20));

    let n = receiver_ids.len().max(1) as f64;
    let mut avg_delay = 0.0;
    let mut loss = 0.0;
    for id in &receiver_ids {
        let stats = sim
            .process_ref::<RtpReceiver>(*id)
            .expect("receiver process")
            .stats();
        avg_delay += stats.delay_ms().mean() / n;
        loss += stats.loss_fraction() / n;
    }
    DisseminationPoint {
        brokers,
        avg_delay_ms: avg_delay,
        loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcs_util::rate::Bandwidth;

    fn reduced() -> Fig3Config {
        let mut config = Fig3Config::reduced();
        config.packets = 200;
        config
    }

    #[test]
    fn batching_off_hurts_delay() {
        let config = reduced();
        let (batched, unbatched) = run_batching_ablation(&config);
        assert!(
            unbatched.avg_delay_ms > batched.avg_delay_ms,
            "unbatched {} vs batched {}",
            unbatched.avg_delay_ms,
            batched.avg_delay_ms
        );
    }

    #[test]
    fn more_brokers_reduce_delay_under_load() {
        let mut config = reduced();
        // Saturate a single broker's NIC so distribution visibly helps.
        config.relay_nic = Bandwidth::from_mbps(26);
        let one = run_dissemination(&config, 1);
        let four = run_dissemination(&config, 4);
        assert!(
            four.avg_delay_ms < one.avg_delay_ms,
            "4 brokers {} vs 1 broker {}",
            four.avg_delay_ms,
            one.avg_delay_ms
        );
    }
}

/// Result of ablation A3: multicast relays on the client machines.
#[derive(Debug, Clone)]
pub struct MulticastPoint {
    /// Receivers per relay (one relay per client machine).
    pub receivers_per_relay: usize,
    /// Mean one-way delay across all receivers (ms).
    pub avg_delay_ms: f64,
    /// Mean per-receiver packet count.
    pub received: f64,
}

/// A3: the Figure 3 fan-out with NaradaBrokering's multicast transport —
/// the broker sends one copy per client *machine*; a relay on each
/// machine fans out locally. With 50 receivers per machine the broker's
/// NIC load drops 50×, which is why the paper lists multicast among the
/// broker's transports.
pub fn run_multicast(config: &Fig3Config, receivers_per_relay: usize) -> MulticastPoint {
    assert!(receivers_per_relay > 0, "need at least one receiver per relay");
    let mut sim = Simulation::new(config.seed);
    let sender_host = sim.add_host("sender-machine", NicConfig::default());
    let broker_host = sim.add_host(
        "broker-machine",
        NicConfig {
            bandwidth: config.relay_nic,
            queue_bytes: 64 * 1024 * 1024,
            ..NicConfig::default()
        },
    );
    sim.set_default_latency(config.lan_latency);

    let broker = sim.add_typed_process(
        broker_host,
        BrokerProcess::new(BrokerId::from_raw(1), config.broker_cost),
    );
    let topic = Topic::parse("globalmmcs/session-1/video").expect("static topic");
    let filter = TopicFilter::exact(&topic);

    // One relay per machine; receivers subscribe locally via the relay
    // (their own broker filter never matches anything).
    let unmatched = TopicFilter::parse("unused/topic").expect("static filter");
    let mut receiver_ids = Vec::new();
    let machines = config.receivers.div_ceil(receivers_per_relay);
    let mut placed = 0usize;
    for machine in 0..machines {
        let host = sim.add_host(&format!("segment-{machine}"), NicConfig::default());
        let relay = sim.add_typed_process(
            host,
            MulticastRelay::new(
                broker,
                ClientId::from_raw(10 + machine as u64),
                filter.clone(),
            ),
        );
        for _ in 0..receivers_per_relay.min(config.receivers - placed) {
            let receiver = RtpReceiver::new(
                broker,
                ClientId::from_raw(1000 + placed as u64),
                unmatched.clone(),
                payload_type::H263,
                config.recv_cpu,
            );
            let id = sim.add_typed_process(host, receiver);
            sim.process_mut::<MulticastRelay>(relay)
                .expect("relay process")
                .add_local_receiver(id);
            receiver_ids.push(id);
            placed += 1;
        }
    }

    let mut publisher_config =
        PublisherConfig::new(broker, ClientId::from_raw(1), topic);
    publisher_config.max_packets = config.packets;
    let source = VideoSource::new(config.video, 0xABCD, DetRng::new(config.seed ^ 0x5EED));
    sim.add_typed_process(sender_host, Publisher::new(publisher_config, source));

    let media_secs = config.packets as f64 * config.video.mtu_payload as f64
        / (config.video.bitrate_bps as f64 / 8.0);
    sim.run_until(SimTime::from_secs(media_secs as u64 + 20));

    let n = receiver_ids.len().max(1) as f64;
    let mut avg_delay = 0.0;
    let mut received = 0.0;
    for id in &receiver_ids {
        let stats = sim
            .process_ref::<RtpReceiver>(*id)
            .expect("receiver process")
            .stats();
        avg_delay += stats.delay_ms().mean() / n;
        received += stats.received() as f64 / n;
    }
    MulticastPoint {
        receivers_per_relay,
        avg_delay_ms: avg_delay,
        received,
    }
}

#[cfg(test)]
mod mcast_tests {
    use super::*;
    use mmcs_util::rate::Bandwidth;

    #[test]
    fn multicast_slashes_delay_under_fanout_load() {
        let mut config = Fig3Config::reduced();
        config.packets = 200;
        // Saturating for unicast fan-out…
        config.relay_nic = Bandwidth::from_mbps(28);
        let unicast = run_dissemination(&config, 1);
        // …trivial when the broker sends one copy per 10-receiver segment.
        let multicast = run_multicast(&config, 10);
        assert!(multicast.received >= config.packets as f64 * 0.99);
        assert!(
            multicast.avg_delay_ms < unicast.avg_delay_ms / 2.0,
            "multicast {} vs unicast {}",
            multicast.avg_delay_ms,
            unicast.avg_delay_ms
        );
    }
}

/// Result of ablation A4: delivery-mode comparison at one group size.
#[derive(Debug, Clone)]
pub struct ModePoint {
    /// Number of receivers.
    pub group: usize,
    /// Mean delay via the broker (client-server mode), ms.
    pub client_server_ms: f64,
    /// Mean delay peer-to-peer (publisher sends N copies), ms.
    pub peer_to_peer_ms: f64,
}

mod modecmp {
    //! Minimal processes for the A4 mode comparison.

    use mmcs_rtp::packet::WireRtp;
    use mmcs_rtp::recv::ReceiverStats;
    use mmcs_rtp::source::AudioSource;
    use mmcs_sim::{Context, Packet, Process, ProcessId};
    use mmcs_util::time::{SimDuration, SimTime};

    /// A raw audio packet with its send time (the P2P wire format).
    #[derive(Debug, Clone)]
    pub struct RawAudio {
        pub bytes: bytes::Bytes,
        pub sent_at: SimTime,
    }

    /// Publishes paced audio directly to every peer (JXTA-like mode).
    pub struct P2pAudioSender {
        pub peers: Vec<ProcessId>,
        pub source: AudioSource,
        pub max_packets: u64,
        pub sent: u64,
        /// Per-copy send cost at the publisher (it pays the fan-out).
        pub send_cpu: SimDuration,
    }

    impl Process for P2pAudioSender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
            if self.sent >= self.max_packets {
                return;
            }
            let rtp = self.source.next_packet();
            let bytes = rtp.encode();
            for peer in &self.peers {
                ctx.spend_cpu(self.send_cpu);
                ctx.send(
                    *peer,
                    RawAudio {
                        bytes: bytes.clone(),
                        sent_at: ctx.now(),
                    },
                    bytes.len() + 28,
                );
            }
            self.sent += 1;
            ctx.set_timer(self.source.frame_interval(), 0);
        }
    }

    /// Receives raw audio and measures delay.
    pub struct P2pSink {
        pub stats: ReceiverStats,
        pub recv_cpu: SimDuration,
    }

    impl Process for P2pSink {
        fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
            let Some(raw) = packet.payload::<RawAudio>() else {
                return;
            };
            let arrival = ctx.now();
            if let Ok(rtp) = WireRtp::parse(&raw.bytes) {
                self.stats.record_wire(&rtp, raw.sent_at, arrival);
            }
            ctx.spend_cpu(self.recv_cpu);
        }
    }
}

/// A4: client-server vs peer-to-peer delivery for one audio talker and
/// `group` listeners. The publisher sits behind a 3 Mbps uplink
/// (2003 DSL); the broker has a datacenter NIC. P2P saves the broker
/// hop for small groups but saturates the publisher's uplink as the
/// group grows — the paper's "performance-functionality trade-off".
pub fn run_mode_comparison(group: usize, packets: u64, seed: u64) -> ModePoint {
    use mmcs_rtp::source::{AudioCodec, AudioSource};
    let uplink = NicConfig {
        bandwidth: mmcs_util::rate::Bandwidth::from_mbps(3),
        queue_bytes: 256 * 1024,
        ..NicConfig::default()
    };
    let wan = SimDuration::from_millis(5);

    // Client-server: publisher -> broker -> receivers.
    let cs = {
        let mut sim = Simulation::new(seed);
        let pub_host = sim.add_host("publisher", uplink);
        let broker_host = sim.add_host("broker", NicConfig::default());
        sim.set_default_latency(wan);
        let broker = sim.add_typed_process(
            broker_host,
            BrokerProcess::new(BrokerId::from_raw(1), mmcs_broker::batch::CostModel::narada()),
        );
        let topic = Topic::parse("group/audio").expect("static");
        let mut receivers = Vec::new();
        for i in 0..group {
            let host = sim.add_host(&format!("peer-{i}"), NicConfig::default());
            receivers.push(sim.add_typed_process(
                host,
                RtpReceiver::new(
                    broker,
                    ClientId::from_raw(100 + i as u64),
                    TopicFilter::exact(&topic),
                    payload_type::PCMU,
                    SimDuration::from_micros(10),
                ),
            ));
        }
        let mut config = PublisherConfig::new(broker, ClientId::from_raw(1), topic);
        config.max_packets = packets;
        let source = AudioSource::new(AudioCodec::Pcmu, 1);
        sim.add_typed_process(pub_host, Publisher::new(config, source));
        sim.run_until(SimTime::from_secs(packets / 50 + 10));
        let n = receivers.len().max(1) as f64;
        receivers
            .iter()
            .map(|id| {
                sim.process_ref::<RtpReceiver>(*id)
                    .expect("receiver")
                    .stats()
                    .delay_ms()
                    .mean()
            })
            .sum::<f64>()
            / n
    };

    // Peer-to-peer: publisher sends a copy to every peer itself.
    let p2p = {
        let mut sim = Simulation::new(seed);
        let pub_host = sim.add_host("publisher", uplink);
        sim.set_default_latency(wan);
        let mut peers = Vec::new();
        let mut sinks = Vec::new();
        for i in 0..group {
            let host = sim.add_host(&format!("peer-{i}"), NicConfig::default());
            let sink = sim.add_typed_process(
                host,
                modecmp::P2pSink {
                    stats: mmcs_rtp::recv::ReceiverStats::new(0, payload_type::PCMU),
                    recv_cpu: SimDuration::from_micros(10),
                },
            );
            peers.push(sink);
            sinks.push(sink);
        }
        sim.add_typed_process(
            pub_host,
            modecmp::P2pAudioSender {
                peers,
                source: AudioSource::new(AudioCodec::Pcmu, 1),
                max_packets: packets,
                sent: 0,
                send_cpu: SimDuration::from_micros(15),
            },
        );
        sim.run_until(SimTime::from_secs(packets / 50 + 10));
        let n = sinks.len().max(1) as f64;
        sinks
            .iter()
            .map(|id| {
                sim.process_ref::<modecmp::P2pSink>(*id)
                    .expect("sink")
                    .stats
                    .delay_ms()
                    .mean()
            })
            .sum::<f64>()
            / n
    };

    ModePoint {
        group,
        client_server_ms: cs,
        peer_to_peer_ms: p2p,
    }
}

#[cfg(test)]
mod mode_tests {
    use super::*;

    #[test]
    fn p2p_wins_small_groups_loses_large_ones() {
        let small = run_mode_comparison(3, 150, 9);
        assert!(
            small.peer_to_peer_ms < small.client_server_ms,
            "small group: p2p {:.2} should beat cs {:.2}",
            small.peer_to_peer_ms,
            small.client_server_ms
        );
        let large = run_mode_comparison(64, 150, 9);
        assert!(
            large.peer_to_peer_ms > large.client_server_ms,
            "large group: cs {:.2} should beat p2p {:.2}",
            large.client_server_ms,
            large.peer_to_peer_ms
        );
    }
}
