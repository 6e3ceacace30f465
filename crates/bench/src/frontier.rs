//! The capacity frontier: clients × shards × fan-out on the sharded
//! broker, swept to the knee.
//!
//! ROADMAP item 3: push the paper's capacity claims (C1/C2, >1000 audio
//! / >400 video clients on *one* broker) onto the sharded runtime and
//! into the millions. This harness rebuilds the `ShardedBroker` topology
//! inside the deterministic simulator ([`mmcs_broker::simtopo`] — same
//! placement hashes, same one-hop forward ring), loads it with conference sessions
//! of a given fan-out, and walks a client-count ladder until the pooled
//! delay histogram's p99 or the loss fraction leaves the quality bound
//! ("IP Video Conferencing: A Tutorial"'s interactive budget). The knee
//! — the last rung of the leading good prefix, see
//! [`crate::capacity::knee_index`] — is the tracked number.
//!
//! Client bundling: a [`mmcs_broker::simdrv::ClientBundle`] of weight W
//! stands in for W co-located clients behind one multicast delivery (the
//! paper's multicast-relay tier, ablation A3), which is what makes a
//! simulated **million-subscriber broadcast** cost thousands — not
//! millions — of simulator events. Knee sweeps run with weight 1
//! (honest per-client broker cost); the headline scenarios run bundled,
//! with unbundled spot receivers asserting exact delivery so the bundled
//! numbers stay trustworthy.
//!
//! Everything is bit-reproducible per seed: the report renders to a
//! stable JSON document (`BENCH_capacity.json`, fixed key order, fixed
//! float precision) that CI diffs against a committed baseline.

use std::sync::Arc;

use mmcs_broker::batch::CostModel;
use mmcs_broker::cluster::LatencyMap;
use mmcs_broker::sharded::{home_shard, owner_shard_of_topic};
use mmcs_broker::simdrv::{
    AudioPublisher, ClientBundle, PublisherConfig, RtpReceiver, VideoPublisher,
};
use mmcs_broker::simtopo::{self, Links};
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_rtp::packet::payload_type;
use mmcs_rtp::source::{AudioCodec, AudioSource, VideoSource, VideoSourceConfig};
use mmcs_sim::net::NicConfig;
use mmcs_sim::Simulation;
use mmcs_telemetry::{Histogram, HistogramSnapshot};
use mmcs_util::id::ClientId;
use mmcs_util::rate::Bandwidth;
use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

use crate::capacity::{knee_index, Media, GOOD_LOSS};
use crate::json::Json;

/// Quality bound: pooled p99 one-way delay must stay under this.
///
/// The interactive budget ("IP Video Conferencing: A Tutorial", and
/// ITU-T G.114's 150 ms one-way rule of thumb) applied to the tail
/// rather than the mean — a conference is only as good as its worst
/// regular frame.
pub const GOOD_P99_DELAY_MS: f64 = 150.0;

/// Knee-regression tolerance for baseline comparison: the current knee
/// must be at least 2/3 of the committed baseline knee (one ladder rung
/// of headroom) — checked in integer arithmetic as
/// `current × 3 ≥ baseline × 2`.
pub const KNEE_TOLERANCE_NUM: u64 = 2;
/// Denominator of the knee tolerance ratio (see [`KNEE_TOLERANCE_NUM`]).
pub const KNEE_TOLERANCE_DEN: u64 = 3;

/// Parameters of one frontier measurement.
#[derive(Debug, Clone)]
pub struct FrontierConfig {
    /// RNG seed (the whole report is bit-reproducible per seed).
    pub seed: u64,
    /// Media type for every session.
    pub media: Media,
    /// Shard count of the simulated cluster.
    pub shards: usize,
    /// Total subscribing clients, summed over all sessions.
    pub clients: u64,
    /// Session size: each session is one publisher plus `fanout`
    /// subscribers on the session's own topic. `fanout == clients`
    /// degenerates to a single-topic broadcast.
    pub fanout: u64,
    /// Clients represented per [`ClientBundle`] process. 1 = honest
    /// unicast (one broker delivery per client); >1 = the multicast
    /// relay tier (one delivery per bundle, weighted accounting).
    pub bundle: u64,
    /// RTP packets each session's publisher emits.
    pub packets: u64,
    /// Aggregate cluster NIC capacity, split evenly across shards.
    pub total_nic: Bandwidth,
    /// Broker CPU cost model, charged per shard.
    pub cost: CostModel,
    /// Per-client per-packet receive CPU.
    pub recv_cpu: SimDuration,
    /// One-way LAN latency between simulated hosts.
    pub lan_latency: SimDuration,
    /// Media starts this long after simulation start (subscription
    /// settling, matching the other experiments).
    pub start_delay: SimDuration,
    /// Per-session start offset step, wrapped at the media tick
    /// interval. Zero starts every publisher at `start_delay` exactly —
    /// synchronized ticks, the worst case for queueing. Nonzero spreads
    /// session starts (deterministically, no RNG) the way real
    /// conferences arrive, which is what the interactive scenarios use.
    pub stagger: SimDuration,
    /// Publisher processes grouped per simulated sender host.
    pub publishers_per_host: u64,
    /// Bundle processes grouped per simulated client host.
    pub bundles_per_host: u64,
    /// Unbundled [`RtpReceiver`] spot-check clients subscribed to the
    /// first session's topic; each must receive exactly `packets`.
    pub spot_clients: u64,
    /// Read by nothing: the simulator has one engine (DESIGN §2 "One
    /// engine"). Kept because `benchmark/src/workloads.rs` assigns it
    /// for its `sim.par2_*` readings; the `benchmark` PR that drops those
    /// (ROADMAP, Done, item 3 follow-up) deletes this field too.
    pub workers: usize,
}

impl FrontierConfig {
    /// Full-scale configuration: calibrated NaradaBrokering cost model
    /// and a 310 Mbps-per-310-clients-era aggregate NIC scaled to the
    /// cluster (10 Gbps — a modern machine hosting all shards).
    pub fn new(media: Media, shards: usize, clients: u64, fanout: u64) -> Self {
        Self {
            seed: 77,
            media,
            shards,
            clients,
            fanout,
            bundle: 1,
            packets: 150,
            total_nic: Bandwidth::from_mbps(10_000),
            cost: CostModel::narada(),
            recv_cpu: SimDuration::from_micros(15),
            lan_latency: SimDuration::from_micros(200),
            start_delay: SimDuration::from_millis(200),
            stagger: SimDuration::from_nanos(0),
            publishers_per_host: 25,
            bundles_per_host: 50,
            spot_clients: 0,
            workers: 1,
        }
    }

    /// Reduced-scale configuration for CI: per-send CPU costs ×10 (so
    /// knees land at ~1/10 the client count and sweeps stay cheap), the
    /// same trick as `Fig3Config::reduced`. Audio keeps a wide NIC (it
    /// is CPU-bound; the knee must scale with shards); video gets a
    /// 31 Mbps aggregate NIC so it stays NIC-bound — the knee must NOT
    /// scale with shards, which is the frontier's headline contrast.
    pub fn reduced(media: Media, shards: usize, clients: u64, fanout: u64) -> Self {
        let mut config = Self::new(media, shards, clients, fanout);
        config.cost.per_send = config.cost.per_send * 10;
        config.cost.per_kilobyte = config.cost.per_kilobyte * 10;
        config.packets = 100;
        config.total_nic = match media {
            Media::Audio => Bandwidth::from_mbps(310),
            Media::Video => Bandwidth::from_mbps(31),
        };
        config
    }

    /// The media pacing interval: one packet per tick.
    fn tick_interval_ns(&self) -> u64 {
        match self.media {
            // AudioPublisher paces at 20 ms per packet.
            Media::Audio => 20_000_000,
            // VideoPublisher: 600 Kbps in ~1000-byte packets ≈ 75 pps.
            Media::Video => 13_334_000,
        }
    }

    /// Deterministic start offset for `session`'s publisher.
    fn stagger_offset(&self, session: u64) -> SimDuration {
        let tick = self.tick_interval_ns();
        SimDuration::from_nanos((session * self.stagger.as_nanos()) % tick)
    }

    /// Virtual-time deadline: start delay + media duration + fixed
    /// drain slack. Bounded so overloaded points cost bounded work —
    /// whatever the broker has not delivered by the deadline is loss.
    fn deadline(&self) -> SimTime {
        SimTime::ZERO
            + self.start_delay
            + SimDuration::from_nanos(self.packets * self.tick_interval_ns())
            + SimDuration::from_secs(5)
    }
}

/// One measured point of the frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Total represented clients.
    pub clients: u64,
    /// Shard count.
    pub shards: usize,
    /// Session size.
    pub fanout: u64,
    /// Pooled mean one-way delay (ms), exact (histogram count+sum).
    pub mean_delay_ms: f64,
    /// Pooled p99 one-way delay (ms), within the histogram's 1/64
    /// relative bucket error.
    pub p99_delay_ms: f64,
    /// Client-weighted loss fraction: deliveries that had not arrived
    /// by the deadline.
    pub loss: f64,
    /// Client-deliveries expected (`Σ bundle weight × packets`).
    pub expected: u64,
    /// Client-deliveries observed by the deadline.
    pub delivered: u64,
    /// Spot-check deliveries expected (`spot_clients × packets`).
    pub spot_expected: u64,
    /// Spot-check deliveries observed.
    pub spot_delivered: u64,
    /// Whether p99 and loss are inside the quality bound.
    pub good: bool,
    /// Per-shard delay pool snapshots (index = home shard), whose
    /// merge is the pooled histogram the summary numbers came from.
    pub shard_delay: Vec<HistogramSnapshot>,
}

impl FrontierPoint {
    /// Whether every spot receiver got exactly every packet.
    pub fn spot_exact(&self) -> bool {
        self.spot_delivered == self.spot_expected
    }
}

/// Measures one point: builds the cluster, loads `clients` across
/// sessions of `fanout`, runs to the deadline, pools delay histograms
/// per home shard and merges them for the summary.
pub fn run_point(config: &FrontierConfig) -> FrontierPoint {
    run_on(config, Links::ShardMesh(config.shards))
}

/// Measures one federation point: the same conference load as
/// [`run_point`], but spread across a full mesh of `nodes` gateway
/// nodes (2 ms links) instead of the shards of one process. Clients and
/// publishers home round-robin to zone gateways (zone `z` → node
/// `z % nodes`), so most deliveries cross at least one inter-node link
/// — the federation counterpart of the sharded sweeps, holding
/// aggregate NIC constant while adding nodes.
pub fn run_federation_point(config: &FrontierConfig, nodes: usize) -> FrontierPoint {
    run_on(config, Links::Federation(&LatencyMap::full_mesh(nodes, 2)))
}

/// The one runner behind both entry points. `links` decides the three
/// things that differ between a shard mesh and a federation: how many
/// brokers (and delay pools) there are, where the k-th subscriber
/// homes, and where session `s`'s publisher enters.
fn run_on(config: &FrontierConfig, links: Links<'_>) -> FrontierPoint {
    assert!(config.fanout > 0, "need a positive session size");
    assert!(config.bundle > 0, "need a positive bundle weight");
    let mut sim = Simulation::new(config.seed);
    let node_count = links.node_count();
    assert!(node_count > 0, "need at least one shard or node");
    let brokers = simtopo::add_brokers(
        &mut sim,
        links,
        config.cost,
        Bandwidth::from_bps(config.total_nic.bps() / node_count as u64),
    );
    sim.set_default_latency(config.lan_latency);
    // Shards place by the live runtime's hashes: a subscriber homes by
    // client id, a publisher enters at its topic's owner shard (exactly
    // where `ShardedClient::publish` lands). A federation places by
    // geography: the k-th subscriber lives in zone k and session s's
    // publisher in zone s, each entering at its own zone gateway —
    // where a federation client would publish — not at some owner node.
    let subscriber_home = |k: usize, client: ClientId| match links {
        Links::ShardMesh(shards) => home_shard(client, shards),
        Links::Federation(map) => map.home_node(k) as usize,
    };
    let publisher_entry = |session: u64, topic: &Topic| match links {
        Links::ShardMesh(shards) => owner_shard_of_topic(topic, shards),
        Links::Federation(map) => map.home_node(session as usize) as usize,
    };

    // Sessions: fanout-sized, the last one taking the remainder.
    let sessions = config.clients.div_ceil(config.fanout).max(1);
    let mut next_client = 1_000u64;
    let mut next_subscriber = 0usize;
    let mut bundles = Vec::new();
    let pools: Vec<Arc<Histogram>> = (0..node_count).map(|_| Arc::new(Histogram::new())).collect();

    let mut bundle_host = None;
    let mut bundles_on_host = 0u64;
    let mut remaining = config.clients;
    for session in 0..sessions {
        let session_size = config.fanout.min(remaining);
        remaining -= session_size;
        let topic = Topic::parse(&format!("s{session}/av")).expect("static session topic");
        let filter = TopicFilter::exact(&topic);
        let mut left = session_size;
        while left > 0 {
            let weight = config.bundle.min(left);
            left -= weight;
            if bundles_on_host == 0 {
                bundle_host = Some(sim.add_host(
                    &format!("segment-{}", bundles.len() / config.bundles_per_host as usize),
                    NicConfig::default(),
                ));
            }
            let host = bundle_host.expect("host created above");
            bundles_on_host = (bundles_on_host + 1) % config.bundles_per_host;
            let client = ClientId::from_raw(next_client);
            next_client += 1;
            let home = subscriber_home(next_subscriber, client);
            next_subscriber += 1;
            let process = sim.add_typed_process(
                host,
                ClientBundle::new(
                    brokers[home],
                    client,
                    filter.clone(),
                    weight,
                    config.recv_cpu,
                    Arc::clone(&pools[home]),
                ),
            );
            bundles.push((process, weight));
        }
    }

    // Spot checks: honest unicast receivers on session 0's topic.
    let spot_topic = Topic::parse("s0/av").expect("static session topic");
    let mut spot_ids = Vec::new();
    if config.spot_clients > 0 {
        let spot_host = sim.add_host("spot", NicConfig::default());
        let pt = match config.media {
            Media::Audio => payload_type::PCMU,
            Media::Video => payload_type::H263,
        };
        for _ in 0..config.spot_clients {
            let client = ClientId::from_raw(next_client);
            next_client += 1;
            let home = subscriber_home(next_subscriber, client);
            next_subscriber += 1;
            spot_ids.push(sim.add_typed_process(
                spot_host,
                RtpReceiver::new(
                    brokers[home],
                    client,
                    TopicFilter::exact(&spot_topic),
                    pt,
                    config.recv_cpu,
                ),
            ));
        }
    }

    // One publisher per session.
    let mut sender_host = None;
    for session in 0..sessions {
        if session % config.publishers_per_host == 0 {
            sender_host = Some(sim.add_host(
                &format!("senders-{}", session / config.publishers_per_host),
                NicConfig::default(),
            ));
        }
        let host = sender_host.expect("host created above");
        let topic = Topic::parse(&format!("s{session}/av")).expect("static session topic");
        let entry = brokers[publisher_entry(session, &topic)];
        let mut publisher_config =
            PublisherConfig::new(entry, ClientId::from_raw(next_client), topic);
        next_client += 1;
        publisher_config.start_delay = config.start_delay + config.stagger_offset(session);
        publisher_config.max_packets = config.packets;
        match config.media {
            Media::Audio => {
                let source = AudioSource::new(AudioCodec::Pcmu, 0xA0D10 + session as u32);
                sim.add_typed_process(host, AudioPublisher::new(publisher_config, source));
            }
            Media::Video => {
                let source = VideoSource::new(
                    VideoSourceConfig::default(),
                    0x71DE0 + session as u32,
                    DetRng::new(config.seed ^ (0xFEED + session)),
                );
                sim.add_typed_process(host, VideoPublisher::new(publisher_config, source));
            }
        }
    }

    sim.run_until(config.deadline());

    let mut expected = 0u64;
    let mut delivered = 0u64;
    for (process, weight) in &bundles {
        let bundle = sim
            .process_ref::<ClientBundle>(*process)
            .expect("bundle process");
        expected += weight * config.packets;
        delivered += weight * bundle.received().min(config.packets);
    }
    let spot_expected = config.spot_clients * config.packets;
    let mut spot_delivered = 0u64;
    for id in &spot_ids {
        spot_delivered += sim
            .process_ref::<RtpReceiver>(*id)
            .expect("spot receiver")
            .stats()
            .received();
    }

    let shard_delay: Vec<HistogramSnapshot> = pools.iter().map(|p| p.snapshot()).collect();
    let merged = HistogramSnapshot::merge_all(&shard_delay);
    let mean_delay_ms = merged.mean() / 1e6;
    let p99_delay_ms = merged.quantile(0.99).unwrap_or(0) as f64 / 1e6;
    let loss = if expected == 0 {
        0.0
    } else {
        1.0 - delivered as f64 / expected as f64
    };
    let good = p99_delay_ms < GOOD_P99_DELAY_MS && loss < GOOD_LOSS && delivered > 0;
    FrontierPoint {
        clients: config.clients,
        shards: node_count,
        fanout: config.fanout,
        mean_delay_ms,
        p99_delay_ms,
        loss,
        expected,
        delivered,
        spot_expected,
        spot_delivered,
        good,
        shard_delay,
    }
}

/// One sweep's specification: a (media, shards, fanout) cell and the
/// ascending client-count ladder walked inside it.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Media type.
    pub media: Media,
    /// Shard count.
    pub shards: usize,
    /// Session size.
    pub fanout: u64,
    /// Ascending client counts to measure.
    pub ladder: Vec<u64>,
}

impl SweepSpec {
    /// Stable identity of this sweep in reports and baselines.
    pub fn key(&self) -> String {
        format!(
            "{}/shards={}/fanout={}",
            media_name(self.media),
            self.shards,
            self.fanout
        )
    }
}

/// One sweep's measured outcome.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The specification that produced it.
    pub spec: SweepSpec,
    /// One point per ladder rung, in ladder order.
    pub points: Vec<FrontierPoint>,
    /// The knee: the last rung of the leading good prefix.
    pub knee: Option<u64>,
}

/// Walks `spec`'s ladder with every other parameter from `make`, and
/// finds the knee (leading-good-prefix semantics — see
/// [`crate::capacity::knee`]).
pub fn run_sweep(spec: &SweepSpec, make: impl Fn(&SweepSpec, u64) -> FrontierConfig) -> SweepResult {
    let points: Vec<FrontierPoint> = spec
        .ladder
        .iter()
        .map(|&clients| run_point(&make(spec, clients)))
        .collect();
    let goods: Vec<bool> = points.iter().map(|p| p.good).collect();
    let knee = knee_index(&goods).map(|i| points[i].clients);
    SweepResult {
        spec: spec.clone(),
        points,
        knee,
    }
}

/// A named headline scenario (million-subscriber broadcast, 100k
/// conference) with its full configuration and measured point.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Stable scenario name.
    pub name: String,
    /// The configuration it ran with.
    pub config: FrontierConfig,
    /// The measurement.
    pub point: FrontierPoint,
}

/// The million-subscriber broadcast: one publisher, one topic, the
/// fan-out distributed across all shards by the forward ring —
/// subscribers live in multicast bundles (the paper's relay tier), with
/// unbundled spot receivers proving exact delivery.
pub fn million_broadcast() -> ScenarioResult {
    let mut config = FrontierConfig::new(Media::Video, 8, 1_000_000, 1_000_000);
    config.bundle = 1_000;
    config.packets = 20;
    config.bundles_per_host = 1;
    config.recv_cpu = SimDuration::from_nanos(40);
    config.spot_clients = 3;
    let point = run_point(&config);
    ScenarioResult {
        name: "broadcast_1m".to_owned(),
        config,
        point,
    }
}

/// The ≥100k-client interactive conference: 2000 audio sessions of 50
/// on a 16-shard cluster, one publisher each, spread across shards by
/// topic hash, session starts staggered the way real conferences
/// arrive. 125 sessions per shard × 50 pps × ~74 µs per publish keeps
/// every shard under half CPU utilization — comfortably inside the
/// interactive quality bound, which is the point of the scenario.
pub fn conference_100k() -> ScenarioResult {
    let mut config = FrontierConfig::new(Media::Audio, 16, 100_000, 50);
    config.bundle = 50;
    config.packets = 12;
    config.bundles_per_host = 4;
    config.recv_cpu = SimDuration::from_micros(1);
    config.stagger = SimDuration::from_micros(1_618);
    config.spot_clients = 2;
    let point = run_point(&config);
    ScenarioResult {
        name: "conference_100k".to_owned(),
        config,
        point,
    }
}

/// The federation point in the frontier report: a reduced-scale audio
/// conference across a 3-node full-mesh federation, with spot
/// receivers proving exact cross-gateway delivery.
pub fn federation_point() -> ScenarioResult {
    let nodes = 3usize;
    let mut config = FrontierConfig::reduced(Media::Audio, nodes, 120, 10);
    config.packets = 60;
    config.spot_clients = 2;
    let point = run_federation_point(&config, nodes);
    ScenarioResult {
        name: "federation_audio_3node".to_owned(),
        config,
        point,
    }
}

/// A full frontier report: sweeps plus headline scenarios, renderable
/// as the `BENCH_capacity.json` artifact.
#[derive(Debug, Clone)]
pub struct FrontierReport {
    /// Report mode: `"reduced"` (CI), `"full"`, or `"mini"` (tests).
    pub mode: String,
    /// The seed every measurement used.
    pub seed: u64,
    /// Sweep results, in specification order.
    pub sweeps: Vec<SweepResult>,
    /// Headline scenarios, in run order.
    pub scenarios: Vec<ScenarioResult>,
}

fn media_name(media: Media) -> &'static str {
    match media {
        Media::Audio => "audio",
        Media::Video => "video",
    }
}

/// The reduced sweep set CI runs: audio (CPU-bound — the knee must
/// climb with shards) and video (NIC-bound — it must not) at 1/2/4
/// shards, plus a fan-out axis at 4 shards.
pub fn reduced_sweep_specs() -> Vec<SweepSpec> {
    let audio_ladder = vec![40, 80, 120, 180, 240, 320, 400, 480, 560];
    let video_ladder = vec![10, 20, 30, 40, 50, 60, 80];
    let mut specs = Vec::new();
    for shards in [1usize, 2, 4] {
        specs.push(SweepSpec {
            media: Media::Audio,
            shards,
            fanout: 10,
            ladder: audio_ladder.clone(),
        });
    }
    for shards in [1usize, 2, 4] {
        specs.push(SweepSpec {
            media: Media::Video,
            shards,
            fanout: 10,
            ladder: video_ladder.clone(),
        });
    }
    // The fan-out axis: bigger sessions batch better (the cost model's
    // per-send discount) but hash fewer topics across the shards.
    for fanout in [5u64, 40] {
        specs.push(SweepSpec {
            media: Media::Audio,
            shards: 4,
            fanout,
            ladder: audio_ladder.clone(),
        });
    }
    specs
}

/// Runs the reduced report: the CI sweep set plus both headline
/// scenarios. Minutes of virtual time, seconds of wall clock in
/// release mode.
pub fn reduced_report() -> FrontierReport {
    let sweeps = reduced_sweep_specs()
        .iter()
        .map(|spec| {
            run_sweep(spec, |spec, clients| {
                FrontierConfig::reduced(spec.media, spec.shards, clients, spec.fanout)
            })
        })
        .collect();
    FrontierReport {
        mode: "reduced".to_owned(),
        seed: 77,
        sweeps,
        scenarios: vec![million_broadcast(), conference_100k(), federation_point()],
    }
}

/// A miniature report for debug-mode tests: two tiny audio sweeps and a
/// bundled broadcast scenario, exercising every JSON field in seconds.
pub fn mini_report() -> FrontierReport {
    let specs = [
        SweepSpec {
            media: Media::Audio,
            shards: 1,
            fanout: 5,
            ladder: vec![10, 20, 40],
        },
        SweepSpec {
            media: Media::Audio,
            shards: 2,
            fanout: 5,
            ladder: vec![10, 20, 40],
        },
    ];
    let sweeps = specs
        .iter()
        .map(|spec| {
            run_sweep(spec, |spec, clients| {
                let mut config =
                    FrontierConfig::reduced(spec.media, spec.shards, clients, spec.fanout);
                config.packets = 40;
                config
            })
        })
        .collect();
    let mut scenario_config = FrontierConfig::new(Media::Video, 2, 5_000, 5_000);
    scenario_config.bundle = 100;
    scenario_config.packets = 15;
    scenario_config.bundles_per_host = 4;
    scenario_config.recv_cpu = SimDuration::from_nanos(40);
    scenario_config.spot_clients = 2;
    let point = run_point(&scenario_config);
    FrontierReport {
        mode: "mini".to_owned(),
        seed: 77,
        sweeps,
        scenarios: vec![ScenarioResult {
            name: "broadcast_mini".to_owned(),
            config: scenario_config,
            point,
        }],
    }
}

fn render_point(point: &FrontierPoint, out: &mut String, indent: &str) {
    out.push_str(&format!(
        "{indent}{{\"clients\": {}, \"mean_delay_ms\": {:.3}, \"p99_delay_ms\": {:.3}, \
         \"loss\": {:.6}, \"delivered\": {}, \"expected\": {}, \"good\": {}}}",
        point.clients,
        point.mean_delay_ms,
        point.p99_delay_ms,
        point.loss,
        point.delivered,
        point.expected,
        point.good
    ));
}

impl FrontierReport {
    /// Renders the stable `BENCH_capacity.json` document: fixed key
    /// order, fixed float precision, newline-terminated — byte-identical
    /// across runs at the same seed and configuration.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"mmcs.capacity.v1\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"quality\": {{\"p99_delay_ms\": {GOOD_P99_DELAY_MS:.3}, \"max_loss\": {GOOD_LOSS:.6}}},\n"
        ));
        out.push_str("  \"sweeps\": [\n");
        for (i, sweep) in self.sweeps.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"key\": \"{}\",\n", sweep.spec.key()));
            out.push_str(&format!(
                "      \"media\": \"{}\",\n",
                media_name(sweep.spec.media)
            ));
            out.push_str(&format!("      \"shards\": {},\n", sweep.spec.shards));
            out.push_str(&format!("      \"fanout\": {},\n", sweep.spec.fanout));
            match sweep.knee {
                Some(knee) => out.push_str(&format!("      \"knee\": {knee},\n")),
                None => out.push_str("      \"knee\": null,\n"),
            }
            out.push_str("      \"points\": [\n");
            for (j, point) in sweep.points.iter().enumerate() {
                render_point(point, &mut out, "        ");
                if j + 1 < sweep.points.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("      ]\n");
            out.push_str("    }");
            if i + 1 < self.sweeps.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str("  \"scenarios\": [\n");
        for (i, scenario) in self.scenarios.iter().enumerate() {
            let c = &scenario.config;
            let p = &scenario.point;
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", scenario.name));
            out.push_str(&format!(
                "      \"media\": \"{}\",\n",
                media_name(c.media)
            ));
            out.push_str(&format!("      \"clients\": {},\n", c.clients));
            out.push_str(&format!("      \"shards\": {},\n", c.shards));
            out.push_str(&format!("      \"fanout\": {},\n", c.fanout));
            out.push_str(&format!("      \"bundle\": {},\n", c.bundle));
            out.push_str(&format!("      \"packets\": {},\n", c.packets));
            out.push_str(&format!(
                "      \"mean_delay_ms\": {:.3},\n      \"p99_delay_ms\": {:.3},\n      \
                 \"loss\": {:.6},\n      \"delivered\": {},\n      \"expected\": {},\n",
                p.mean_delay_ms, p.p99_delay_ms, p.loss, p.delivered, p.expected
            ));
            out.push_str(&format!(
                "      \"spot_delivered\": {},\n      \"spot_expected\": {},\n",
                p.spot_delivered, p.spot_expected
            ));
            out.push_str(&format!("      \"good\": {}\n", p.good));
            out.push_str("    }");
            if i + 1 < self.scenarios.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// The knees, keyed by sweep key, in sweep order.
    pub fn knee_summary(&self) -> Vec<(String, Option<u64>)> {
        self.sweeps
            .iter()
            .map(|s| (s.spec.key(), s.knee))
            .collect()
    }
}

/// Compares a freshly-measured report against a committed baseline
/// document (parsed `BENCH_capacity.json`). Returns regression messages
/// — empty means the frontier held.
///
/// Checks, per baseline sweep key: the sweep still exists, and its knee
/// is at least [`KNEE_TOLERANCE_NUM`]/[`KNEE_TOLERANCE_DEN`] of the
/// baseline knee (a knee that *improves* never fails). Per baseline
/// scenario name: the scenario still exists, stays inside the quality
/// bound, and its spot checks are exact.
pub fn compare_to_baseline(current: &FrontierReport, baseline: &Json) -> Vec<String> {
    let mut regressions = Vec::new();
    let empty = Vec::new();
    let baseline_sweeps = baseline
        .member("sweeps")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    for base in baseline_sweeps {
        let Some(key) = base.member("key").and_then(Json::as_str) else {
            regressions.push("baseline sweep without a key".to_owned());
            continue;
        };
        let Some(sweep) = current.sweeps.iter().find(|s| s.spec.key() == key) else {
            regressions.push(format!("sweep {key} missing from current report"));
            continue;
        };
        let base_knee = base.member("knee").and_then(Json::as_u64);
        match (base_knee, sweep.knee) {
            (Some(base_knee), Some(knee)) => {
                if knee * KNEE_TOLERANCE_DEN < base_knee * KNEE_TOLERANCE_NUM {
                    regressions.push(format!(
                        "sweep {key}: knee regressed {base_knee} -> {knee} \
                         (tolerance {KNEE_TOLERANCE_NUM}/{KNEE_TOLERANCE_DEN})"
                    ));
                }
            }
            (Some(base_knee), None) => {
                regressions.push(format!("sweep {key}: knee vanished (baseline {base_knee})"));
            }
            (None, _) => {}
        }
    }
    let baseline_scenarios = baseline
        .member("scenarios")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    for base in baseline_scenarios {
        let Some(name) = base.member("name").and_then(Json::as_str) else {
            regressions.push("baseline scenario without a name".to_owned());
            continue;
        };
        let Some(scenario) = current.scenarios.iter().find(|s| s.name == name) else {
            regressions.push(format!("scenario {name} missing from current report"));
            continue;
        };
        if !scenario.point.good {
            regressions.push(format!(
                "scenario {name}: outside quality bound (p99 {:.3} ms, loss {:.6})",
                scenario.point.p99_delay_ms, scenario.point.loss
            ));
        }
        if !scenario.point.spot_exact() {
            regressions.push(format!(
                "scenario {name}: spot delivery {}/{}",
                scenario.point.spot_delivered, scenario.point.spot_expected
            ));
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(media: Media, shards: usize, clients: u64) -> FrontierConfig {
        let mut config = FrontierConfig::reduced(media, shards, clients, 5);
        config.packets = 30;
        config
    }

    #[test]
    fn healthy_point_is_good_and_lossless() {
        let point = run_point(&tiny(Media::Audio, 2, 20));
        assert_eq!(point.delivered, point.expected, "{point:?}");
        assert!(point.good, "{point:?}");
        assert!(point.p99_delay_ms > 0.0 && point.p99_delay_ms < GOOD_P99_DELAY_MS);
        // Delay samples landed in per-shard pools, not one global pot.
        assert_eq!(point.shard_delay.len(), 2);
        let pooled: u64 = point.shard_delay.iter().map(HistogramSnapshot::count).sum();
        assert_eq!(pooled, point.expected);
    }

    #[test]
    fn overloaded_point_goes_bad() {
        // 10× the reduced audio knee on one shard: p99 or loss must
        // blow through the bound.
        let point = run_point(&tiny(Media::Audio, 1, 1200));
        assert!(!point.good, "{point:?}");
    }

    #[test]
    fn bundled_point_matches_unbundled_expectations() {
        // Bundling changes the simulation cost, not the accounting:
        // expected client-deliveries are identical.
        let unbundled = run_point(&tiny(Media::Audio, 2, 40));
        let mut bundled_config = tiny(Media::Audio, 2, 40);
        bundled_config.bundle = 5;
        let bundled = run_point(&bundled_config);
        assert_eq!(bundled.expected, unbundled.expected);
        assert_eq!(bundled.delivered, bundled.expected, "{bundled:?}");
    }

    #[test]
    fn federation_point_delivers_exactly_across_gateways() {
        let mut config = tiny(Media::Audio, 3, 30);
        config.packets = 20;
        config.spot_clients = 2;
        let point = run_federation_point(&config, 3);
        assert_eq!(point.delivered, point.expected, "{point:?}");
        assert!(point.spot_exact(), "{point:?}");
        assert!(point.good, "{point:?}");
        // Delay samples pooled per home node, and several nodes were hit.
        assert_eq!(point.shard_delay.len(), 3);
        let populated = point
            .shard_delay
            .iter()
            .filter(|s| s.count() > 0)
            .count();
        assert!(populated >= 2, "load spread across gateways: {point:?}");
    }

    #[test]
    fn sweep_knee_uses_prefix_semantics() {
        let spec = SweepSpec {
            media: Media::Audio,
            shards: 1,
            fanout: 5,
            ladder: vec![10, 20],
        };
        let sweep = run_sweep(&spec, |spec, clients| {
            let mut c = tiny(spec.media, spec.shards, clients);
            c.packets = 20;
            c
        });
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(sweep.knee, Some(20), "{:?}", sweep.points);
        assert_eq!(spec.key(), "audio/shards=1/fanout=5");
    }

    #[test]
    fn report_json_parses_and_baseline_compare_accepts_itself() {
        let mut report = mini_report();
        report.sweeps.truncate(1);
        report.sweeps[0].points.truncate(2);
        let json = report.render_json();
        let parsed = Json::parse(&json).expect("own JSON parses");
        assert_eq!(
            parsed.member("schema").and_then(Json::as_str),
            Some("mmcs.capacity.v1")
        );
        // A report never regresses against itself.
        assert_eq!(compare_to_baseline(&report, &parsed), Vec::<String>::new());
        // A doubled baseline knee is a regression.
        let mut inflated = json.clone();
        if let Some(knee) = report.sweeps[0].knee {
            inflated = inflated.replace(
                &format!("\"knee\": {knee}"),
                &format!("\"knee\": {}", knee * 10),
            );
        }
        let inflated = Json::parse(&inflated).unwrap();
        assert!(!compare_to_baseline(&report, &inflated).is_empty());
    }
}
