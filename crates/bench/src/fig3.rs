//! Figure 3: per-packet delay and jitter, NaradaBrokering vs JMF.
//!
//! Paper setup (§3.2): one client sends a 600 Kbps video stream through a
//! single broker (or the JMF reflector); 400 receivers subscribe, 12 of
//! them on the same machine as the sender — only those 12 are measured
//! (they share the sender's clock). 2000 packets are observed. Paper
//! results: NaradaBrokering avg delay 80.76 ms vs JMF 229.23 ms; avg
//! jitter 13.38 ms vs 15.55 ms.
//!
//! Machine model (see `DESIGN.md` §2 and `EXPERIMENTS.md` for the
//! calibration): three hosts on a 200 µs LAN — the sender machine
//! (sender + the 12 measured receivers), the client machine (the other
//! 388 receivers) and the relay machine (broker or reflector) whose NIC
//! runs at ~275 Mbps effective (2003-era PCI-bus-limited gigabit),
//! putting the 400-receiver fan-out at ≈0.96 utilization — the regime
//! that produces the paper's ~80 ms average.

use mmcs_broker::batch::CostModel;
use mmcs_broker::sharded::{home_shard, owner_shard_of_topic};
use mmcs_broker::simdrv::{PublisherConfig, RtpReceiver, VideoPublisher};
use mmcs_broker::simtopo::{self, Links};
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_jmf::{DirectMedia, GcModel, ReflectorCost, ReflectorProcess, RtpDirectSender, RtpDirectSink};
use mmcs_rtp::packet::payload_type;
use mmcs_rtp::source::{VideoSource, VideoSourceConfig};
use mmcs_sim::net::NicConfig;
use mmcs_sim::Simulation;
use mmcs_telemetry::{Histogram, HistogramSnapshot};
use mmcs_util::id::ClientId;
use mmcs_util::rate::Bandwidth;
use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

/// Parameters of the Figure 3 experiment.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// RNG seed (the experiment is bit-reproducible per seed).
    pub seed: u64,
    /// Total receivers (paper: 400).
    pub receivers: usize,
    /// Receivers co-located with the sender and measured (paper: 12).
    pub measured: usize,
    /// Packets to observe (paper: 2000).
    pub packets: u64,
    /// The video stream (paper: 600 Kbps).
    pub video: VideoSourceConfig,
    /// Relay (broker/reflector) machine NIC capacity.
    pub relay_nic: Bandwidth,
    /// One-way LAN latency between machines.
    pub lan_latency: SimDuration,
    /// Per-packet receive cost at each client.
    pub recv_cpu: SimDuration,
    /// Broker cost model (NaradaBrokering side).
    pub broker_cost: CostModel,
    /// Reflector cost model (JMF side).
    pub reflector_cost: ReflectorCost,
    /// Reflector GC model (JMF side).
    pub gc: GcModel,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Self {
            seed: 20030915, // the venue year; any seed reproduces the shape
            receivers: 400,
            measured: 12,
            packets: 2000,
            video: VideoSourceConfig::default(),
            relay_nic: Bandwidth::from_mbps(275),
            lan_latency: SimDuration::from_micros(200),
            recv_cpu: SimDuration::from_micros(30),
            broker_cost: CostModel::narada(),
            reflector_cost: ReflectorCost::jmf(),
            gc: GcModel::java_1_4(),
        }
    }
}

impl Fig3Config {
    /// A reduced-scale configuration for CI tests (~40 receivers, 300
    /// packets) that preserves the relative utilizations and therefore
    /// the result shape.
    pub fn reduced() -> Self {
        let full = Self::default();
        // 10× fewer receivers: scale the relay NIC down 10× (same NIC
        // utilization) and the per-send CPU costs up 10× (same CPU
        // utilization) so both bottlenecks keep their full-scale roles.
        let mut broker_cost = full.broker_cost;
        broker_cost.per_send = broker_cost.per_send * 10;
        broker_cost.per_kilobyte = broker_cost.per_kilobyte * 10;
        let mut reflector_cost = full.reflector_cost;
        reflector_cost.per_send = reflector_cost.per_send * 10;
        reflector_cost.per_kilobyte = reflector_cost.per_kilobyte * 10;
        Self {
            receivers: 40,
            measured: 4,
            packets: 300,
            relay_nic: Bandwidth::from_mbps(31),
            broker_cost,
            reflector_cost,
            ..full
        }
    }

    fn relay_nic_config(&self) -> NicConfig {
        NicConfig {
            bandwidth: self.relay_nic,
            queue_bytes: simtopo::NIC_QUEUE_BYTES,
            ..NicConfig::default()
        }
    }

    fn run_duration(&self) -> SimTime {
        // packets at ~75 pps plus generous slack for queue drain.
        let media_secs = self.packets as f64
            / (self.video.bitrate_bps as f64 / 8.0 / 1000.0)
            * (self.video.mtu_payload as f64 / 1000.0);
        SimTime::from_secs(media_secs as u64 + 20)
    }
}

/// One system's measured outcome.
#[derive(Debug, Clone)]
pub struct SystemResult {
    /// Mean one-way delay across all measured packets (ms).
    pub avg_delay_ms: f64,
    /// Mean RFC 3550 smoothed jitter at end of run, averaged over the
    /// measured receivers (ms).
    pub avg_jitter_ms: f64,
    /// Per-packet delay, averaged across the measured receivers (ms).
    pub delay_series: Vec<f64>,
    /// Per-packet smoothed jitter, averaged across receivers (ms).
    pub jitter_series: Vec<f64>,
    /// Packets received per measured receiver (mean).
    pub received: f64,
    /// Loss fraction across measured receivers.
    pub loss_fraction: f64,
    /// Every measured per-packet delay, pooled across receivers, as a
    /// telemetry histogram snapshot (nanosecond samples). The headline
    /// `avg_delay_ms` is derived from this snapshot's exact mean — the
    /// bench and the telemetry pipeline share one accounting code path.
    pub delay_hist: HistogramSnapshot,
    /// Final RFC 3550 smoothed jitter per measured receiver, as a
    /// telemetry histogram snapshot (nanosecond samples); `avg_jitter_ms`
    /// is its mean.
    pub jitter_hist: HistogramSnapshot,
}

/// Per-receiver series: (delay samples, jitter samples, received count,
/// final jitter ms).
type ReceiverSeries = (Vec<f64>, Vec<f64>, u64, f64);

fn summarize(per_receiver: Vec<ReceiverSeries>) -> SystemResult {
    let receivers = per_receiver.len().max(1) as f64;
    let min_len = per_receiver
        .iter()
        .map(|(d, _, _, _)| d.len())
        .min()
        .unwrap_or(0);
    let mut delay_series = vec![0.0; min_len];
    let mut jitter_series = vec![0.0; min_len];
    let mut received = 0.0;
    let delay_hist = Histogram::new();
    let jitter_hist = Histogram::new();
    for (delays, jitters, recv, jitter) in &per_receiver {
        for i in 0..min_len {
            delay_series[i] += delays[i] / receivers;
            jitter_series[i] += jitters[i] / receivers;
        }
        for delay in delays {
            delay_hist.record_duration(SimDuration::from_millis_f64(*delay));
        }
        jitter_hist.record_duration(SimDuration::from_millis_f64(*jitter));
        received += *recv as f64 / receivers;
    }
    let delay_hist = delay_hist.snapshot();
    let jitter_hist = jitter_hist.snapshot();
    SystemResult {
        // Exact pooled means (histogram count and sum carry no bucketing
        // error), converted ns → ms.
        avg_delay_ms: delay_hist.mean() / 1e6,
        avg_jitter_ms: jitter_hist.mean() / 1e6,
        delay_series,
        jitter_series,
        received,
        loss_fraction: 0.0,
        delay_hist,
        jitter_hist,
    }
}

/// Runs the NaradaBrokering side of Figure 3: the paper's single
/// broker, which is the one-shard case of [`run_narada_sharded`].
pub fn run_narada(config: &Fig3Config) -> SystemResult {
    run_narada_sharded(config, 1).system
}

fn measured_loss(sim: &Simulation, ids: &[mmcs_sim::ProcessId]) -> f64 {
    let mut total = 0.0;
    for id in ids {
        if let Some(receiver) = sim.process_ref::<RtpReceiver>(*id) {
            total += receiver.stats().loss_fraction();
        } else if let Some(sink) = sim.process_ref::<RtpDirectSink>(*id) {
            total += sink.stats().loss_fraction();
        }
    }
    total / ids.len().max(1) as f64
}

/// Runs the JMF-reflector side of Figure 3.
pub fn run_jmf(config: &Fig3Config) -> SystemResult {
    let mut sim = Simulation::new(config.seed);
    let sender_host = sim.add_host("sender-machine", NicConfig::default());
    let reflector_host = sim.add_host("reflector-machine", config.relay_nic_config());
    let client_host = sim.add_host("client-machine", NicConfig::default());
    sim.set_default_latency(config.lan_latency);

    let mut measured_ids = Vec::new();
    let mut all_sinks = Vec::new();
    for i in 0..config.receivers {
        let co_located = i < config.measured;
        let host = if co_located { sender_host } else { client_host };
        let mut sink = RtpDirectSink::new(payload_type::H263, config.recv_cpu);
        if co_located {
            sink = sink.with_series_capture();
        }
        let id = sim.add_typed_process(host, sink);
        all_sinks.push(id);
        if co_located {
            measured_ids.push(id);
        }
    }

    let mut reflector = ReflectorProcess::new(config.reflector_cost, config.gc);
    for sink in &all_sinks {
        reflector.add_receiver(*sink);
    }
    let reflector_id = sim.add_typed_process(reflector_host, reflector);

    let source = VideoSource::new(config.video, 0xABCD, DetRng::new(config.seed ^ 0x5EED));
    sim.add_typed_process(
        sender_host,
        RtpDirectSender::new(
            reflector_id,
            DirectMedia::Video(source),
            SimDuration::from_millis(100),
            config.packets,
        ),
    );

    sim.run_until(config.run_duration());

    let per_receiver = measured_ids
        .iter()
        .map(|id| {
            let stats = sim
                .process_ref::<RtpDirectSink>(*id)
                .expect("sink process")
                .stats();
            (
                stats.delay_series().expect("capture on").samples().to_vec(),
                stats.jitter_series().expect("capture on").samples().to_vec(),
                stats.received(),
                stats.jitter_ms(),
            )
        })
        .collect();
    let mut result = summarize(per_receiver);
    result.loss_fraction = measured_loss(&sim, &measured_ids);
    result
}

/// Figure 3's methodology re-run on the *sharded* runtime: the same
/// stream, receivers and measurement, but the relay is a simulated
/// shard mesh ([`simtopo`]) — receivers attach to their home shard and
/// the publisher to the topic's owner shard, so cross-shard deliveries
/// take the forward hop exactly as in the thread runtime.
#[derive(Debug, Clone)]
pub struct ShardedFig3Result {
    /// The usual Figure 3 summary over the measured receivers.
    pub system: SystemResult,
    /// The measured delay samples pooled *per home shard* (index =
    /// shard). Merging these snapshots reproduces
    /// `system.delay_hist`'s count, sum and therefore exact mean —
    /// the cross-check `tests/fig3_crosscheck.rs` pins down.
    pub shard_delay: Vec<HistogramSnapshot>,
    /// Shard count the cluster ran with.
    pub shards: usize,
}

/// Runs the NaradaBrokering side of Figure 3 on a sharded cluster of
/// `shards` brokers splitting `config.relay_nic` evenly.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn run_narada_sharded(config: &Fig3Config, shards: usize) -> ShardedFig3Result {
    assert!(shards > 0, "shard count must be positive");
    let mut sim = Simulation::new(config.seed);
    let brokers = simtopo::add_brokers(
        &mut sim,
        Links::ShardMesh(shards),
        config.broker_cost,
        Bandwidth::from_bps(config.relay_nic.bps() / shards as u64),
    );
    let sender_host = sim.add_host("sender-machine", NicConfig::default());
    let client_host = sim.add_host("client-machine", NicConfig::default());
    sim.set_default_latency(config.lan_latency);

    let topic = Topic::parse("globalmmcs/session-1/video").expect("static topic");
    let filter = TopicFilter::exact(&topic);

    let mut measured = Vec::new();
    for i in 0..config.receivers {
        let co_located = i < config.measured;
        let host = if co_located { sender_host } else { client_host };
        let client = ClientId::from_raw(100 + i as u64);
        let home = home_shard(client, shards);
        let mut receiver = RtpReceiver::new(
            brokers[home],
            client,
            filter.clone(),
            payload_type::H263,
            config.recv_cpu,
        );
        if co_located {
            receiver = receiver.with_series_capture();
        }
        let id = sim.add_typed_process(host, receiver);
        if co_located {
            measured.push((id, home));
        }
    }

    let owner = brokers[owner_shard_of_topic(&topic, shards)];
    let mut publisher_config = PublisherConfig::new(owner, ClientId::from_raw(1), topic);
    publisher_config.max_packets = config.packets;
    let source = VideoSource::new(config.video, 0xABCD, DetRng::new(config.seed ^ 0x5EED));
    sim.add_typed_process(sender_host, VideoPublisher::new(publisher_config, source));

    sim.run_until(config.run_duration());

    // Pool each measured receiver's delay samples by its home shard,
    // through the same ms → SimDuration conversion `summarize` uses, so
    // the merged pools and `delay_hist` see bit-identical samples.
    let shard_pools: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
    let measured_ids: Vec<mmcs_sim::ProcessId> = measured.iter().map(|(id, _)| *id).collect();
    let per_receiver = measured
        .iter()
        .map(|(id, home)| {
            let stats = sim
                .process_ref::<RtpReceiver>(*id)
                .expect("receiver process")
                .stats();
            let delays = stats.delay_series().expect("capture on").samples().to_vec();
            for delay in &delays {
                shard_pools[*home].record_duration(SimDuration::from_millis_f64(*delay));
            }
            (
                delays,
                stats.jitter_series().expect("capture on").samples().to_vec(),
                stats.received(),
                stats.jitter_ms(),
            )
        })
        .collect();
    let mut system = summarize(per_receiver);
    system.loss_fraction = measured_loss(&sim, &measured_ids);
    ShardedFig3Result {
        system,
        shard_delay: shard_pools.iter().map(Histogram::snapshot).collect(),
        shards,
    }
}

/// Both sides of Figure 3 on the same configuration.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// NaradaBrokering measurements.
    pub narada: SystemResult,
    /// JMF reflector measurements.
    pub jmf: SystemResult,
}

/// Runs the complete Figure 3 experiment.
pub fn run(config: &Fig3Config) -> Fig3Result {
    Fig3Result {
        narada: run_narada(config),
        jmf: run_jmf(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_fig3_preserves_the_paper_shape() {
        let config = Fig3Config::reduced();
        let result = run(&config);
        // Everything was delivered.
        assert!(result.narada.received >= config.packets as f64 * 0.98);
        assert!(result.jmf.received >= config.packets as f64 * 0.90);
        // The headline: the broker beats the reflector on delay by a
        // clear factor, and jitter is no worse.
        assert!(
            result.jmf.avg_delay_ms > result.narada.avg_delay_ms * 1.5,
            "jmf {} vs narada {}",
            result.jmf.avg_delay_ms,
            result.narada.avg_delay_ms
        );
        assert!(
            result.narada.avg_jitter_ms <= result.jmf.avg_jitter_ms * 1.5,
            "narada jitter {} vs jmf {}",
            result.narada.avg_jitter_ms,
            result.jmf.avg_jitter_ms
        );
    }

    #[test]
    fn fig3_is_deterministic() {
        let config = Fig3Config {
            packets: 100,
            receivers: 10,
            measured: 2,
            relay_nic: Bandwidth::from_mbps(8),
            ..Fig3Config::default()
        };
        let a = run_narada(&config);
        let b = run_narada(&config);
        assert_eq!(a.avg_delay_ms, b.avg_delay_ms);
        assert_eq!(a.delay_series, b.delay_series);
    }
}
