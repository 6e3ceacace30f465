//! The five workloads: what each sets up, drives and reports.
//!
//! A run measures one workload in one process. With tracing off it
//! reports the end-to-end metrics from a system with metrics detached;
//! with tracing on it reports the per-layer metrics from a second pass
//! with the public metrics bundles installed and a span around every
//! call into a layer (see [`crate::trace`]). A per-layer metric that a
//! workload does not exercise reads 0 there — the layer is bypassed.

use std::sync::Arc;

use mmcs_bench::capacity::Media;
use mmcs_bench::fig3::{run_narada, Fig3Config};
use mmcs_bench::frontier::{run_point, FrontierConfig};
use mmcs_broker::cluster::{Cluster, ClusterClient, LatencyMap};
use mmcs_broker::metrics::{ClusterMetrics, ShardedBrokerMetrics};
use mmcs_broker::sharded::{ShardedBroker, ShardedClient};
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_rtp::packet::RtpPacket;
use mmcs_rtp::source::{AudioCodec, AudioSource, VideoSource, VideoSourceConfig};
use mmcs_telemetry::Registry;
use mmcs_util::pool;
use mmcs_util::rng::DetRng;

use crate::load::{
    now_ns, Endpoint, Load, Mode, Phase, Publisher, Subscriber, Tally, Template, DRAIN_DEADLINE_NS,
};
use crate::probes;
use crate::stats::{highest_supported, median, spread, supports, Slices};
use crate::trace::{Name, Tracer};

pub const WORKLOADS: [&str; 5] = [
    "conference_audio",
    "broadcast_video",
    "federation_tcp",
    "session_churn",
    "sim_fig3",
];

/// Rounds an end-to-end pass measures in. `setup_s` is the median of
/// `ROUNDS + 2` set-ups: two at the start and one after each round.
const ROUNDS: usize = 5;
/// Background publishes per churn cycle.
const CHURN_BACKGROUND: usize = 50;
/// Federation nodes (one zone each).
const NODES: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported number with the count of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
    /// Interquartile range over median of the slices (or set-ups) the
    /// value is the median of; 0 where there is no such series.
    pub spread: f64,
}

/// A phase as the report's header describes it.
pub struct PhaseNote {
    pub name: String,
    pub mode: &'static str,
    /// Publishes per second (open loop) or the window (closed loop).
    pub setting: f64,
    pub seconds: f64,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the human-readable report.
    pub failures: String,
    pub phases: Vec<PhaseNote>,
    pub loopback: bool,
}

impl Outcome {
    fn new(loopback: bool) -> Self {
        Self {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: String::new(),
            phases: Vec::new(),
            loopback,
        }
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => (m.value, m.unit, m.samples) = (value, unit, samples),
            None => self.metrics.push(Metric {
                name,
                value,
                unit,
                samples,
                spread: 0.0,
            }),
        }
    }

    /// Attaches the within-run spread of the series behind `name`.
    fn spread(&mut self, name: &str, series: &[f64]) {
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) {
            m.spread = spread(series).unwrap_or(0.0);
        }
    }

    fn count(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed();
        if tally.failed() > 0 {
            self.fail(format!("{tally:?}; "));
        }
    }

    /// Notes what failed, for the first few failures.
    fn fail(&mut self, what: String) {
        if self.failures.len() < 600 {
            self.failures.push_str(&what);
        }
    }

    /// Describes `phase` in the header; `burst` is packets per visit.
    fn note(&mut self, name: &str, phase: &Phase, burst: usize) {
        let (mode, setting) = match phase.mode {
            Mode::Paced { visits_per_s } => ("open", visits_per_s * burst as f64),
            Mode::Closed { window } => ("closed", window as f64),
        };
        // Rounds repeat their phases; the last one of a name stands.
        self.phases.retain(|p| p.name != name);
        self.phases.push(PhaseNote {
            name: name.to_string(),
            mode,
            setting,
            seconds: phase.seconds,
        });
    }
}

fn secs(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// The two live runtimes behind one face.

/// What set-up needs from a runtime, whichever it is.
trait Runtime {
    type Client: Endpoint;
    const LAYER: &'static str;
    fn attach(&self, zone: usize) -> Self::Client;
    fn subscribe(client: &Self::Client, filter: TopicFilter);
    /// Blocks until every subscription is in force everywhere.
    fn settle(&self, tracer: &mut Tracer);
}

impl Runtime for ShardedBroker {
    type Client = ShardedClient;
    const LAYER: &'static str = "sharded";
    fn attach(&self, _zone: usize) -> ShardedClient {
        ShardedBroker::attach(self)
    }
    fn subscribe(client: &ShardedClient, filter: TopicFilter) {
        client.subscribe(filter);
    }
    fn settle(&self, tracer: &mut Tracer) {
        let start = now_ns();
        self.quiesce();
        tracer.span(Name::Quiesce, start, now_ns(), 0, true);
    }
}

impl Runtime for Cluster {
    type Client = ClusterClient;
    const LAYER: &'static str = "cluster";
    fn attach(&self, zone: usize) -> ClusterClient {
        Cluster::attach(self, zone)
    }
    fn subscribe(client: &ClusterClient, filter: TopicFilter) {
        client.subscribe(filter);
    }
    fn settle(&self, tracer: &mut Tracer) {
        let start = now_ns();
        self.quiesce();
        let mid = now_ns();
        tracer.span(Name::Quiesce, start, mid, 0, true);
        assert!(self.converge(64), "gossip did not converge in 64 rounds");
        tracer.span(Name::Converge, mid, now_ns(), 0, true);
    }
}

/// Who is in a workload: `sessions` topics `conf<k>/audio`, each with
/// `speakers` publishing clients and `listeners` subscribe-only ones.
#[derive(Clone, Copy)]
struct Shape {
    sessions: usize,
    speakers: usize,
    /// Whether speakers also subscribe to their own session.
    speakers_listen: bool,
    listeners: usize,
    /// Listener `j` attaches in zone `j % zones`; speakers in zone 0.
    zones: usize,
    video: bool,
    /// Packets per publisher visit.
    burst: usize,
}

const CONFERENCE: Shape = Shape {
    sessions: 100,
    speakers: 10,
    speakers_listen: true,
    listeners: 0,
    zones: 1,
    video: false,
    burst: 1,
};
const BROADCAST: Shape = Shape {
    sessions: 1,
    speakers: 1,
    speakers_listen: false,
    listeners: 400,
    zones: 1,
    video: true,
    burst: 6,
};
const FEDERATION: Shape = Shape {
    sessions: 20,
    speakers: 1,
    speakers_listen: false,
    listeners: 9,
    zones: NODES,
    video: false,
    burst: 1,
};
const CHURN: Shape = Shape {
    sessions: 50,
    speakers: 1,
    speakers_listen: false,
    listeners: 10,
    zones: 1,
    video: false,
    burst: 1,
};

fn session_topic(k: usize) -> Topic {
    Topic::parse(&format!("conf{k}/audio")).expect("static topic")
}

/// Real RTP packets with seeded payload bytes: one 172-byte PCMU packet
/// per audio speaker, or the first `burst` full 1 KiB packets of an
/// I-frame per video speaker.
fn templates(shape: &Shape, rng: &mut DetRng) -> Vec<Template> {
    let mut seeded = |packet: RtpPacket| {
        let body: Vec<u8> = (0..packet.payload.len())
            .map(|_| rng.next_u64() as u8)
            .collect();
        Template::new(&RtpPacket::new(packet.header, body.into()).encode())
    };
    let mut out = Vec::new();
    for speaker in 0..(shape.sessions * shape.speakers) as u32 {
        if shape.video {
            let config = VideoSourceConfig {
                mtu_payload: 1012,
                size_jitter: 0.0,
                ..VideoSourceConfig::default()
            };
            let frame = VideoSource::new(config, 0x71de0 + speaker, DetRng::new(1)).next_frame();
            let full: Vec<RtpPacket> = frame
                .into_iter()
                .filter(|p| p.wire_len() == 1024)
                .take(shape.burst)
                .collect();
            assert_eq!(full.len(), shape.burst, "I-frame shorter than a burst");
            out.extend(full.into_iter().map(&mut seeded));
        } else {
            let packet = AudioSource::new(AudioCodec::Pcmu, 0xa0d10 + speaker).next_packet();
            out.push(seeded(packet));
        }
    }
    out
}

/// Attaches and subscribes everyone in `shape`, waits until the
/// subscriptions hold, and returns the load state over those clients.
fn populate<R: Runtime>(
    runtime: &R,
    shape: &Shape,
    templates: Vec<Template>,
    seed: u64,
    mut tracer: Tracer,
) -> Load<R::Client> {
    let attach = |zone: usize, tracer: &mut Tracer| {
        let start = now_ns();
        let client = runtime.attach(zone);
        tracer.span(Name::Attach, start, now_ns(), 0, true);
        client
    };
    let mut endpoints = Vec::new();
    let mut publishers = Vec::new();
    let mut subscribers: Vec<Subscriber> = Vec::new();
    let per_speaker = templates.len() / (shape.sessions * shape.speakers);
    for k in 0..shape.sessions {
        let topic = session_topic(k);
        let first_source = publishers.len() as u32;
        let mut audience = Vec::new();
        let mut listen = |endpoint: usize, zone: usize, client: &R::Client, tracer: &mut Tracer| {
            let start = now_ns();
            R::subscribe(client, TopicFilter::exact(&topic));
            tracer.span(Name::Subscribe, start, now_ns(), 0, true);
            audience.push(subscribers.len() as u32);
            subscribers.push(Subscriber::new(
                endpoint,
                usize::from(zone != 0),
                first_source,
                shape.speakers,
            ));
        };
        for _ in 0..shape.speakers {
            let client = attach(0, &mut tracer);
            if shape.speakers_listen {
                listen(endpoints.len(), 0, &client, &mut tracer);
            }
            let first_template = publishers.len() * per_speaker;
            publishers.push(Publisher::new(
                endpoints.len(),
                topic.clone(),
                first_template,
                per_speaker,
            ));
            endpoints.push(client);
        }
        for j in 0..shape.listeners {
            let zone = j % shape.zones;
            let client = attach(zone, &mut tracer);
            listen(endpoints.len(), zone, &client, &mut tracer);
            endpoints.push(client);
        }
        for publisher in &mut publishers[first_source as usize..] {
            publisher.audience = audience.clone();
        }
    }
    runtime.settle(&mut tracer);
    let mut order: Vec<u32> = (0..publishers.len() as u32).collect();
    DetRng::new(seed).shuffle(&mut order);
    Load::new(
        endpoints,
        publishers,
        subscribers,
        templates,
        order,
        shape.burst,
        tracer,
    )
}

/// A live system and the load over it. The load's clients go first on
/// drop, then the runtime joins its threads.
struct Live<R: Runtime> {
    load: Load<R::Client>,
    runtime: R,
    sharded_metrics: Option<Arc<ShardedBrokerMetrics>>,
    cluster_metrics: Option<Arc<ClusterMetrics>>,
    setup_s: f64,
}

impl<R: Runtime> Live<R> {
    /// What the shard's own instruments say, where they are installed.
    fn shard_metrics(&self, out: &mut Outcome) {
        if let Some(m) = &self.sharded_metrics {
            let batches = m.shard(0).batch_size.snapshot();
            out.put(
                "sharded.batch_size_mean",
                batches.mean(),
                "count",
                batches.count(),
            );
            let depth = self.load.depth_max as f64;
            out.put("sharded.queue_depth_max", depth, "count", 1);
        }
    }

    /// Route-cache (hits, misses) summed over the shards, where the
    /// node's counters can be read.
    fn route_counts(&self) -> (u64, u64) {
        match &self.sharded_metrics {
            Some(m) => (
                m.total(|s| s.route_cache_hits.get()),
                m.total(|s| s.route_cache_misses.get()),
            ),
            None => (0, 0),
        }
    }
}

/// How a set-up wants its system: the metrics bundles installed or
/// detached, and the tracer its calls report to.
struct Fit {
    metrics: bool,
    tracer: Tracer,
}

impl Fit {
    /// Metrics detached, tracing off: the end-to-end configuration.
    fn plain() -> Self {
        Self {
            metrics: false,
            tracer: Tracer::new(false),
        }
    }

    /// Metrics installed, tracing off: the side measurements.
    fn metered() -> Self {
        Self {
            metrics: true,
            tracer: Tracer::new(false),
        }
    }

    /// Metrics installed, tracing on: the per-layer configuration.
    fn traced() -> Self {
        Self {
            metrics: true,
            tracer: Tracer::new(true),
        }
    }
}

fn build_sharded(shape: &Shape, shards: usize, seed: u64, fit: Fit) -> Live<ShardedBroker> {
    let templates = templates(shape, &mut DetRng::new(seed));
    let start = now_ns();
    let metrics = fit
        .metrics
        .then(|| ShardedBrokerMetrics::register(&Registry::new(), "bench", shards));
    let runtime = match &metrics {
        Some(m) => ShardedBroker::spawn_with_metrics(Arc::clone(m)),
        None => ShardedBroker::spawn(shards),
    };
    let mut load = populate(&runtime, shape, templates, seed, fit.tracer);
    let setup_s = (now_ns() - start) as f64 / 1e9;
    if let Some(m) = &metrics {
        // One shard: its ingress gauge is the queue every publish joins.
        load.depth = (shards == 1).then(|| Arc::clone(&m.shard(0).queue_depth));
    }
    Live {
        load,
        runtime,
        sharded_metrics: metrics,
        cluster_metrics: None,
        setup_s,
    }
}

fn build_cluster(shape: &Shape, tcp: bool, seed: u64, fit: Fit) -> Live<Cluster> {
    let templates = templates(shape, &mut DetRng::new(seed));
    let start = now_ns();
    let metrics = if fit.metrics {
        ClusterMetrics::register(&Registry::new(), "bench", NODES)
    } else {
        ClusterMetrics::detached(NODES)
    };
    let mut builder = Cluster::builder(LatencyMap::full_mesh(NODES, 1))
        .shards(1)
        .metrics(Arc::clone(&metrics));
    if tcp {
        builder = builder.tcp();
    }
    let runtime = builder.spawn();
    let load = populate(&runtime, shape, templates, seed, fit.tracer);
    let setup_s = (now_ns() - start) as f64 / 1e9;
    Live {
        load,
        runtime,
        sharded_metrics: None,
        cluster_metrics: Some(metrics),
        setup_s,
    }
}

/// Sets a second system up beside the measured one, which is idle
/// meanwhile, and tears it down again; returns the set-up time.
fn spare_setup<R: Runtime>(build: &impl Fn(Fit) -> Live<R>) -> f64 {
    build(Fit::plain()).setup_s
}

/// Leaves a system that carried traffic running instead of dropping
/// it. Dropping a `Cluster` whose TCP links have moved events blocks
/// for 30–60 s about once in fifty runs (a shutdown race like the one
/// ROADMAP item 1 describes for the sharded broker); nothing is measured
/// after this point, and the leaked threads idle until the process exits.
fn retire<R: Runtime>(live: Live<R>) {
    std::mem::forget(live);
}

// ---------------------------------------------------------------------
// The media workloads: a paced phase, then a saturation phase.

/// Open-loop rate (publisher visits per second) and closed-loop window
/// (publishes outstanding) of a media workload.
#[derive(Clone, Copy)]
struct Rates {
    visits_per_s: f64,
    window: u64,
}

/// 1000 speakers at 50 Hz.
const CONFERENCE_RATES: Rates = Rates {
    visits_per_s: 50_000.0,
    window: 256,
};
/// 3 000 packets a second in bursts of six.
const BROADCAST_RATES: Rates = Rates {
    visits_per_s: 500.0,
    window: 16,
};
/// A light paced load: at 15 000 publishes a second the twenty threads
/// of three nodes contend for two cores and the median latency moved by
/// 13–27 % between identical runs; at 2 000 it is the time of the hop
/// chain itself (8–21 % — steadier, still too loose to gate).
const FEDERATION_RATES: Rates = Rates {
    visits_per_s: 2_000.0,
    window: 256,
};

impl Rates {
    fn paced(self) -> Mode {
        Mode::Paced {
            visits_per_s: self.visits_per_s,
        }
    }

    fn closed(self) -> Mode {
        Mode::Closed {
            window: self.window,
        }
    }
}

fn us(ns: Option<f64>) -> f64 {
    ns.unwrap_or(0.0) / 1e3
}

fn rate(phase: &Phase) -> f64 {
    phase.slices.rate_median().unwrap_or(0.0)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// What the rounds of an end-to-end pass add up: throughput slice by
/// slice, and the deliveries behind it.
#[derive(Default)]
struct Series {
    throughput: Vec<f64>,
    delivered: u64,
}

/// End-to-end pass of a live workload: set up, warm up, then [`ROUNDS`]
/// rounds of `round`, with one more set-up (of a spare system, the
/// measured one idling) after each. Measuring in rounds spreads both
/// metrics' samples over the whole pass: on a shared host the machine's
/// speed shifts for seconds at a time, and set-ups timed in one block
/// would sit wholly inside or outside such a stretch.
fn end_to_end<R: Runtime>(
    build: impl Fn(Fit) -> Live<R>,
    seconds: f64,
    out: &mut Outcome,
    mut round: impl FnMut(&mut Live<R>, f64, &mut Series, &mut Outcome),
) {
    let mut live = build(Fit::plain());
    let mut setups = vec![live.setup_s, spare_setup(&build)];
    round(&mut live, seconds * 0.05, &mut Series::default(), out);
    let mut series = Series::default();
    for _ in 0..ROUNDS {
        round(&mut live, seconds * 0.95 / ROUNDS as f64, &mut series, out);
        setups.push(spare_setup(&build));
    }
    let throughput = median(&mut series.throughput).unwrap_or(0.0);
    out.put("delivered_per_s", throughput, "1/s", series.delivered);
    out.spread("delivered_per_s", &series.throughput);
    let setup = median(&mut setups).unwrap_or(0.0);
    out.put("setup_s", setup, "s", setups.len() as u64);
    out.spread("setup_s", &setups);
    out.count(&live.load.tally);
    retire(live);
}

/// One round of a media workload's end-to-end pass: saturation.
fn media_round<R: Runtime>(
    rates: Rates,
) -> impl FnMut(&mut Live<R>, f64, &mut Series, &mut Outcome) {
    move |live, seconds, series, out| {
        let sat = live.load.run_phase(rates.closed(), secs(seconds));
        out.note(&format!("saturation x{ROUNDS}"), &sat, live.load.burst);
        series.throughput.extend(sat.slices.rates());
        series.delivered += sat.delivered;
    }
}

/// Tail and generator figures of one paced phase.
fn client_metrics(open: &Phase, out: &mut Outcome) {
    let pooled = open.slices.pooled();
    let n = pooled.count();
    let p50 = us(open.slices.quantile_median(0.5));
    out.put("client.lat_p50_us", p50, "us", n);
    out.spread("client.lat_p50_us", &open.slices.quantiles(0.5));
    out.put(
        "client.lat_p90_us",
        us(open.slices.quantile_median(0.9)),
        "us",
        n,
    );
    for (name, q) in [("client.lat_p99_us", 0.99), ("client.lat_p999_us", 0.999)] {
        let value = if supports(n, q) {
            us(pooled.quantile(q))
        } else {
            0.0
        };
        out.put(name, value, "us", n);
    }
    out.put(
        "client.lat_top_pct",
        highest_supported(n).unwrap_or(0.0) * 100.0,
        "%",
        n,
    );
    out.put(
        "client.gen_late_p99_us",
        us(open.late.quantile(0.99)),
        "us",
        open.late.count(),
    );
}

/// What the load thread's own spans and counters say about the calls it
/// made, under the names of the layer it called.
fn call_metrics(tracer: &Tracer, phases: &[&Phase], layer: &str, out: &mut Outcome) {
    let publish = tracer.total(Name::Publish);
    let drain = tracer.total(Name::Drain);
    let delivered: u64 = phases.iter().map(|p| p.delivered).sum();
    let drains: u64 = phases.iter().map(|p| p.drains).sum();
    let empty: u64 = phases.iter().map(|p| p.empty_drains).sum();
    let per_event = ratio(drain.busy_ns as f64, delivered as f64);
    let empty_ratio = ratio(empty as f64, drains as f64);
    if layer == "sharded" {
        out.put(
            "sharded.publish_call_ns",
            publish.mean_ns(),
            "ns",
            publish.calls,
        );
        out.put("sharded.drain_ns_per_event", per_event, "ns", delivered);
        out.put("sharded.drain_empty_ratio", empty_ratio, "ratio", drains);
        let attach = tracer.total(Name::Attach);
        let subscribe = tracer.total(Name::Subscribe);
        let quiesce = tracer.total(Name::Quiesce);
        out.put(
            "sharded.attach_call_ns",
            attach.mean_ns(),
            "ns",
            attach.calls,
        );
        out.put(
            "sharded.subscribe_call_ns",
            subscribe.mean_ns(),
            "ns",
            subscribe.calls,
        );
        out.put(
            "sharded.quiesce_ms",
            quiesce.mean_ns() / 1e6,
            "ms",
            quiesce.calls,
        );
    } else {
        out.put(
            "cluster.publish_call_ns",
            publish.mean_ns(),
            "ns",
            publish.calls,
        );
        out.put("cluster.drain_ns_per_event", per_event, "ns", delivered);
        out.put("cluster.drain_empty_ratio", empty_ratio, "ratio", drains);
    }
    out.put(
        "client.self_ratio",
        tracer.self_ratio(),
        "ratio",
        publish.calls + drain.calls,
    );
}

/// Pool acquisitions and route-cache lookups between two readings.
fn counter_metrics(
    pool_before: pool::PoolStats,
    routes_before: (u64, u64),
    routes_after: (u64, u64),
    out: &mut Outcome,
) {
    let pool_after = pool::stats();
    let acquired = |s: pool::PoolStats| s.hits + s.misses + s.oversize;
    let acquisitions = acquired(pool_after) - acquired(pool_before);
    out.put(
        "pool.acquisitions",
        acquisitions as f64,
        "count",
        acquisitions,
    );
    out.put(
        "pool.hit_ratio",
        ratio(
            (pool_after.hits - pool_before.hits) as f64,
            acquisitions as f64,
        ),
        "ratio",
        acquisitions,
    );
    let hits = routes_after.0 - routes_before.0;
    let lookups = hits + routes_after.1 - routes_before.1;
    out.put(
        "node.route_hit_ratio",
        ratio(hits as f64, lookups as f64),
        "ratio",
        lookups,
    );
}

/// Per-layer pass of a media workload: a detached reference, then the
/// same system with metrics installed — first untraced (what the
/// metrics cost), then traced (what the spans say, and what they cost).
fn media_traced<R: Runtime>(
    build: impl Fn(Fit) -> Live<R>,
    rates: Rates,
    seconds: f64,
    out: &mut Outcome,
) -> Tracer {
    let unit = seconds / 20.0;
    let mut plain = build(Fit::plain());
    let quiet = plain.load.run_phase(rates.paced(), secs(2.0 * unit));
    out.note("paced", &quiet, plain.load.burst);
    client_metrics(&quiet, out);
    let base = plain.load.run_phase(rates.closed(), secs(3.0 * unit));
    // Before any span is kept: the system's memory, not the trace's.
    out.put("process.peak_rss_mb", peak_rss_mb(), "MiB", 1);
    out.count(&plain.load.tally);
    retire(plain);

    let mut live = build(Fit::traced());
    live.load.tracer.on = false;
    let warm = live.load.run_phase(rates.paced(), secs(0.5 * unit));
    let metered = live.load.run_phase(rates.closed(), secs(3.0 * unit));
    live.load.tracer.on = true;
    let pool_before = pool::stats();
    let routes_before = live.route_counts();
    let open = live.load.run_phase(rates.paced(), secs(3.0 * unit));
    let sat = live.load.run_phase(rates.closed(), secs(3.0 * unit));
    counter_metrics(pool_before, routes_before, live.route_counts(), out);
    out.note("traced paced", &open, live.load.burst);
    out.note("traced saturation", &sat, live.load.burst);

    out.put(
        "telemetry.metrics_overhead_ratio",
        ratio(rate(&metered), rate(&base)),
        "ratio",
        metered.delivered,
    );
    out.put(
        "trace.overhead_ratio",
        ratio(rate(&sat), rate(&base)),
        "ratio",
        sat.delivered,
    );
    call_metrics(&live.load.tracer, &[&open, &sat], R::LAYER, out);
    live.shard_metrics(out);
    if let Some(m) = &live.cluster_metrics {
        let published = warm.published + metered.published + open.published + sat.published;
        let forwards = m.total(|n| n.inter_node_forwards.get());
        out.put(
            "cluster.inter_node_forwards_per_publish",
            ratio(forwards as f64, published as f64),
            "ratio",
            published,
        );
        let duplicates = m.total(|n| n.duplicate_frames.get());
        out.put("cluster.duplicate_frames", duplicates as f64, "count", 1);
        out.put(
            "cluster.reconnects",
            m.total(|n| n.reconnects.get()) as f64,
            "count",
            1,
        );
        let [local, remote] = &open.by_class;
        let (local_us, remote_us) = (us(local.quantile(0.5)), us(remote.quantile(0.5)));
        out.put("cluster.local_lat_p50_us", local_us, "us", local.count());
        out.put("cluster.remote_lat_p50_us", remote_us, "us", remote.count());
        out.put(
            "cluster.hop_p50_us",
            remote_us - local_us,
            "us",
            remote.count(),
        );
    }
    out.count(&live.load.tally);
    let tracer = std::mem::replace(&mut live.load.tracer, Tracer::new(false));
    retire(live);
    tracer
}

fn conference_audio(args: &Args, out: &mut Outcome) -> Option<Tracer> {
    let build = |fit| build_sharded(&CONFERENCE, 1, args.seed, fit);
    if !args.trace {
        end_to_end(build, args.seconds, out, media_round(CONFERENCE_RATES));
        return None;
    }
    let tracer = media_traced(build, CONFERENCE_RATES, args.seconds, out);
    // The same conference on two shards: the only place the cross-shard
    // ring runs. Three busy threads on two cores, so ungated.
    let mut ring = build_sharded(&CONFERENCE, 2, args.seed, Fit::metered());
    let phase = ring
        .load
        .run_phase(CONFERENCE_RATES.closed(), secs(args.seconds * 0.125));
    out.note("ring2 saturation", &phase, 1);
    out.put(
        "sharded.ring2_delivered_per_s",
        rate(&phase),
        "1/s",
        phase.delivered,
    );
    if let Some(m) = &ring.sharded_metrics {
        let forwards = m.total(|s| s.cross_shard_forwards.get());
        out.put(
            "sharded.cross_shard_forwards_per_publish",
            ratio(forwards as f64, phase.published as f64),
            "ratio",
            phase.published,
        );
    }
    out.count(&ring.load.tally);
    retire(ring);
    Some(tracer)
}

fn broadcast_video(args: &Args, out: &mut Outcome) -> Option<Tracer> {
    let build = |fit| build_sharded(&BROADCAST, 1, args.seed, fit);
    if !args.trace {
        end_to_end(build, args.seconds, out, media_round(BROADCAST_RATES));
        return None;
    }
    Some(media_traced(build, BROADCAST_RATES, args.seconds, out))
}

fn federation_tcp(args: &Args, out: &mut Outcome) -> Option<Tracer> {
    let build = |fit| build_cluster(&FEDERATION, true, args.seed, fit);
    if !args.trace {
        end_to_end(build, args.seconds, out, media_round(FEDERATION_RATES));
        return None;
    }
    let tracer = media_traced(build, FEDERATION_RATES, args.seconds, out);
    let converge = tracer.total(Name::Converge);
    out.put(
        "gossip.converge_ms",
        converge.mean_ns() / 1e6,
        "ms",
        converge.calls,
    );

    // The same federation without sockets: the gap to the TCP figure is
    // the socket's share. Also where one settled gossip round is timed.
    let mut inproc = build_cluster(&FEDERATION, false, args.seed, Fit::metered());
    if let Some(m) = &inproc.cluster_metrics {
        let rounds = m.total(|n| n.gossip_rounds.get()) as f64 / NODES as f64;
        out.put("gossip.rounds_to_converge", rounds, "count", 1);
    }
    let start = now_ns();
    inproc.runtime.gossip_round();
    out.put("gossip.round_ms", (now_ns() - start) as f64 / 1e6, "ms", 1);
    let phase = inproc
        .load
        .run_phase(FEDERATION_RATES.closed(), secs(args.seconds * 0.125));
    out.note("in-process saturation", &phase, 1);
    out.put(
        "cluster.inproc_delivered_per_s",
        rate(&phase),
        "1/s",
        phase.delivered,
    );
    out.count(&inproc.load.tally);
    retire(inproc);
    Some(tracer)
}

// ---------------------------------------------------------------------
// session_churn: the same layers used the other way — writes beside reads.

/// What a stretch of churn cycles measured.
struct Churn {
    /// The standing subscribers' background deliveries.
    background: Phase,
    /// Completed cycles and their join latency, by slice.
    cycles: Slices,
    joins: u64,
    joins_failed: u64,
}

/// Runs join → background traffic → probe → leave cycles for
/// `duration_ns`. A cycle is: `attach`, `subscribe("conf<k>/#")`, fifty
/// media publishes round-robin over all sessions, a probe published to
/// `conf<k>/probe`, spin until the probe returns, `unsubscribe`,
/// `detach`. Every cycle changes the subscription tables, so every
/// background publish finds its route plan stale.
fn churn_cycles(live: &mut Live<ShardedBroker>, rng: &mut DetRng, duration_ns: u64) -> Churn {
    let start = now_ns();
    let end = start + duration_ns;
    let load = &mut live.load;
    let mut background = Phase::new(Mode::Closed { window: 1 }, start, duration_ns);
    let mut cycles = Slices::over(start, duration_ns);
    let (mut joins, mut joins_failed) = (0u64, 0u64);
    let probe = bytes::Bytes::from_static(b"probe");
    let mut sink = Vec::new();
    let sessions = load.publishers.len();
    load.tracer.begin_phase(start, 1);
    while now_ns() < end {
        let k = rng.range_usize(0, sessions);
        let filter = TopicFilter::parse(&format!("conf{k}/#")).expect("static filter");
        let probe_topic = Topic::parse(&format!("conf{k}/probe")).expect("static topic");
        let keep = joins.is_multiple_of(crate::trace::SAMPLE);
        let t0 = now_ns();
        let joiner = live.runtime.attach();
        let t1 = now_ns();
        joiner.subscribe(filter.clone());
        let t2 = now_ns();
        load.tracer.span(Name::Attach, t0, t1, joins, keep);
        load.tracer.span(Name::Subscribe, t1, t2, joins, keep);
        let mut heard = 0u64;
        for j in 0..CHURN_BACKGROUND {
            let session = (joins as usize * CHURN_BACKGROUND + j) % sessions;
            load.publish(session, now_ns());
            heard += u64::from(session == k);
        }
        background.published += CHURN_BACKGROUND as u64;
        joiner.publish(probe_topic, probe.clone());
        // One shard is FIFO: everything the joiner heard is ahead of its
        // own probe, so when the probe is back the count must be exact.
        let deadline = now_ns() + DRAIN_DEADLINE_NS;
        let mut got = 0u64;
        let mut back = None;
        while back.is_none() && now_ns() < deadline {
            load.sweep(&mut background);
            sink.clear();
            joiner.drain_into(&mut sink);
            for event in &sink {
                if event.source == joiner.id() {
                    back = Some(now_ns());
                } else {
                    got += 1;
                }
            }
        }
        joins += 1;
        match back {
            Some(t) if got == heard => {
                if let Some(slot) = cycles.slot(t) {
                    cycles.counts[slot] += 1;
                    cycles.hists[slot].record(t - t0);
                }
            }
            _ => joins_failed += 1,
        }
        let t3 = now_ns();
        joiner.unsubscribe(filter);
        let t4 = now_ns();
        joiner.detach();
        let t5 = now_ns();
        load.tracer.span(Name::Unsubscribe, t3, t4, joins, keep);
        load.tracer.span(Name::Detach, t4, t5, joins, keep);
    }
    load.settle(&mut background);
    load.tracer.end_phase(now_ns());
    Churn {
        background,
        cycles,
        joins,
        joins_failed,
    }
}

impl Churn {
    /// Books the joins as attempts and describes the phase.
    fn record(&self, name: &str, out: &mut Outcome) {
        out.note(name, &self.background, 1);
        out.attempted += self.joins;
        out.failed += self.joins_failed;
        if self.joins_failed > 0 {
            out.fail(format!(
                "{} of {} joins failed; ",
                self.joins_failed, self.joins
            ));
        }
    }
}

fn session_churn(args: &Args, out: &mut Outcome) -> Option<Tracer> {
    let mut rng = DetRng::new(args.seed ^ 0xc4);
    let build = |fit| build_sharded(&CHURN, 1, args.seed, fit);
    if !args.trace {
        end_to_end(build, args.seconds, out, |live, seconds, series, out| {
            let churn = churn_cycles(live, &mut rng, secs(seconds));
            churn.record(&format!("churn x{ROUNDS}"), out);
            series.throughput.extend(churn.background.slices.rates());
            series.delivered += churn.background.delivered;
        });
        return None;
    }
    let unit = args.seconds / 20.0;
    let mut plain = build(Fit::plain());
    let base = churn_cycles(&mut plain, &mut rng, secs(4.0 * unit));
    base.record("reference churn", out);
    let join = us(base.cycles.quantile_median(0.5));
    out.put("client.join_p50_us", join, "us", base.joins);
    out.spread("client.join_p50_us", &base.cycles.quantiles(0.5));
    out.put("process.peak_rss_mb", peak_rss_mb(), "MiB", 1);
    out.count(&plain.load.tally);
    retire(plain);

    let mut live = build(Fit::traced());
    live.load.tracer.on = false;
    let metered = churn_cycles(&mut live, &mut rng, secs(4.0 * unit));
    metered.record("metered churn", out);
    live.load.tracer.on = true;
    let pool_before = pool::stats();
    let routes_before = live.route_counts();
    let traced = churn_cycles(&mut live, &mut rng, secs(6.0 * unit));
    traced.record("traced churn", out);
    counter_metrics(pool_before, routes_before, live.route_counts(), out);

    out.put(
        "telemetry.metrics_overhead_ratio",
        ratio(rate(&metered.background), rate(&base.background)),
        "ratio",
        metered.joins,
    );
    out.put(
        "trace.overhead_ratio",
        ratio(rate(&traced.background), rate(&base.background)),
        "ratio",
        traced.joins,
    );
    out.put(
        "client.churn_cycles_per_s",
        traced.cycles.rate_median().unwrap_or(0.0),
        "1/s",
        traced.joins,
    );
    call_metrics(&live.load.tracer, &[&traced.background], "sharded", out);
    live.shard_metrics(out);
    out.count(&live.load.tally);
    let tracer = std::mem::replace(&mut live.load.tracer, Tracer::new(false));
    retire(live);
    Some(tracer)
}

// ---------------------------------------------------------------------
// sim_fig3: the instrument behind every paper figure.

/// Repeats Figure 3's NaradaBrokering side for `seconds`; every
/// iteration must reproduce `reference` bit for bit with no loss.
/// Returns the iteration times in ns.
fn fig3_iterations(
    config: &Fig3Config,
    reference: f64,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Vec<f64> {
    let end = now_ns() + secs(seconds);
    let mut times = Vec::new();
    tracer.begin_phase(now_ns(), 1);
    while now_ns() < end {
        let start = now_ns();
        let result = run_narada(config);
        let stop = now_ns();
        tracer.span(Name::SimRunNarada, start, stop, times.len() as u64, true);
        times.push((stop - start) as f64);
        out.attempted += 1;
        let same = result.avg_delay_ms.to_bits() == reference.to_bits()
            && result.loss_fraction == 0.0
            && result.received.round() == config.packets as f64;
        if !same {
            out.failed += 1;
            out.fail(format!(
                "fig3 iteration {} gave delay {} loss {} received {}; ",
                times.len(),
                result.avg_delay_ms,
                result.loss_fraction,
                result.received
            ));
        }
    }
    tracer.end_phase(now_ns());
    times
}

fn sim_fig3(args: &Args, out: &mut Outcome) -> Option<Tracer> {
    let config = Fig3Config {
        seed: args.seed,
        ..Fig3Config::default()
    };
    let deliveries = (config.receivers as u64 * config.packets) as f64;
    // Set-up is computing the reference every iteration is checked
    // against; like the live set-ups it is repeated after every round.
    let set_up = || {
        let start = now_ns();
        let reference = run_narada(&config).avg_delay_ms;
        (reference, (now_ns() - start) as f64 / 1e9)
    };
    let (reference, first) = set_up();
    out.phases.push(PhaseNote {
        name: "iterations".into(),
        mode: "closed",
        setting: 1.0,
        seconds: args.seconds,
    });
    if !args.trace {
        let mut off = Tracer::new(false);
        let (mut setups, mut times) = (vec![first], Vec::new());
        for _ in 0..ROUNDS {
            let round = args.seconds / ROUNDS as f64;
            times.extend(fig3_iterations(&config, reference, round, &mut off, out));
            setups.push(set_up().1);
        }
        let n = times.len() as u64;
        let iteration_ns = median(&mut times).unwrap_or(0.0);
        out.put(
            "delivered_per_s",
            ratio(deliveries * 1e9, iteration_ns),
            "1/s",
            n,
        );
        out.spread("delivered_per_s", &times);
        out.put(
            "setup_s",
            median(&mut setups).unwrap_or(0.0),
            "s",
            setups.len() as u64,
        );
        out.spread("setup_s", &setups);
        return None;
    }
    let unit = args.seconds / 20.0;
    let mut off = Tracer::new(false);
    let mut plain = fig3_iterations(&config, reference, 5.0 * unit, &mut off, out);
    out.put("process.peak_rss_mb", peak_rss_mb(), "MiB", 1);
    let mut tracer = Tracer::new(true);
    let mut traced = fig3_iterations(&config, reference, 5.0 * unit, &mut tracer, out);
    let n = traced.len() as u64;
    let plain_ns = median(&mut plain).unwrap_or(0.0);
    let traced_ns = median(&mut traced).unwrap_or(0.0);
    out.put("sim.fig3_iter_ms", traced_ns / 1e6, "ms", n);
    out.put(
        "trace.overhead_ratio",
        ratio(plain_ns, traced_ns),
        "ratio",
        n,
    );

    // The frontier point ROADMAP item 5 is decided by, on one worker and
    // on two; the two must agree on every reported number.
    let mut point = FrontierConfig::reduced(Media::Audio, 4, 2240, 10);
    point.seed = args.seed;
    let mut rates = [Vec::new(), Vec::new()];
    let mut identical = true;
    let end = now_ns() + secs(6.0 * unit);
    tracer.begin_phase(now_ns(), 2);
    while now_ns() < end || rates[0].is_empty() {
        let mut results = Vec::new();
        for (i, workers) in [1usize, 2].into_iter().enumerate() {
            point.workers = workers;
            let start = now_ns();
            let result = run_point(&point);
            let stop = now_ns();
            tracer.span(Name::SimRunPoint, start, stop, workers as u64, true);
            rates[i].push(result.delivered as f64 * 1e9 / (stop - start) as f64);
            results.push(result);
        }
        out.attempted += 1;
        let same = results[0].delivered == results[1].delivered
            && results[0].expected == results[1].expected
            && results[0].shard_delay == results[1].shard_delay;
        if !same {
            identical = false;
            out.failed += 1;
            out.fail("parallel frontier point differs; ".into());
        }
    }
    tracer.end_phase(now_ns());
    let n = rates[0].len() as u64;
    let seq = median(&mut rates[0]).unwrap_or(0.0);
    let par = median(&mut rates[1]).unwrap_or(0.0);
    out.put("sim.frontier_seq_deliveries_per_s", seq, "1/s", n);
    out.put("sim.frontier_par2_deliveries_per_s", par, "1/s", n);
    out.put("sim.par2_speedup", ratio(par, seq), "ratio", n);
    out.put(
        "sim.par2_identical",
        f64::from(u8::from(identical)),
        "count",
        n,
    );
    out.put("client.self_ratio", tracer.self_ratio(), "ratio", n);
    Some(tracer)
}

/// Every per-layer metric, in report order. A traced run reports all of
/// them; the ones its workload never touches stay 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("topic.match_exact_ns", "ns"),
    ("topic.match_wild_ns", "ns"),
    ("topic.parse_ns", "ns"),
    ("node.publish_hit_ns", "ns"),
    ("node.publish_miss_ns", "ns"),
    ("node.subscribe_ns", "ns"),
    ("node.route_hit_ratio", "ratio"),
    ("sharded.publish_call_ns", "ns"),
    ("sharded.queue_depth_max", "count"),
    ("sharded.batch_size_mean", "count"),
    ("sharded.drain_ns_per_event", "ns"),
    ("sharded.drain_empty_ratio", "ratio"),
    ("sharded.attach_call_ns", "ns"),
    ("sharded.subscribe_call_ns", "ns"),
    ("sharded.quiesce_ms", "ms"),
    ("sharded.ring2_delivered_per_s", "1/s"),
    ("sharded.cross_shard_forwards_per_publish", "ratio"),
    ("wire.encode_172_ns", "ns"),
    ("wire.encode_1k_ns", "ns"),
    ("wire.parse_172_ns", "ns"),
    ("wire.decode_shared_1k_ns", "ns"),
    ("pool.acquire_release_ns", "ns"),
    ("pool.hit_ratio", "ratio"),
    ("pool.acquisitions", "count"),
    ("cluster.frame_encode_ns", "ns"),
    ("cluster.frame_parse_ns", "ns"),
    ("cluster.publish_call_ns", "ns"),
    ("cluster.drain_ns_per_event", "ns"),
    ("cluster.drain_empty_ratio", "ratio"),
    ("cluster.inter_node_forwards_per_publish", "ratio"),
    ("cluster.local_lat_p50_us", "us"),
    ("cluster.remote_lat_p50_us", "us"),
    ("cluster.hop_p50_us", "us"),
    ("cluster.inproc_delivered_per_s", "1/s"),
    ("cluster.duplicate_frames", "count"),
    ("cluster.reconnects", "count"),
    ("reliable.send_ack_ns", "ns"),
    ("gossip.converge_ms", "ms"),
    ("gossip.rounds_to_converge", "count"),
    ("gossip.round_ms", "ms"),
    ("sim.fig3_iter_ms", "ms"),
    ("sim.frontier_seq_deliveries_per_s", "1/s"),
    ("sim.frontier_par2_deliveries_per_s", "1/s"),
    ("sim.par2_speedup", "ratio"),
    ("sim.par2_identical", "count"),
    ("rtp.parse_ns", "ns"),
    ("rtp.serialize_ns", "ns"),
    ("telemetry.metrics_overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("client.gen_late_p99_us", "us"),
    ("client.lat_p50_us", "us"),
    ("client.lat_p90_us", "us"),
    ("client.lat_p99_us", "us"),
    ("client.lat_p999_us", "us"),
    ("client.lat_top_pct", "%"),
    ("client.join_p50_us", "us"),
    ("client.churn_cycles_per_s", "1/s"),
    ("client.self_ratio", "ratio"),
    ("process.peak_rss_mb", "MiB"),
];

/// Runs one workload as `args` says and writes its trace, if any, under
/// `out_dir`.
pub fn run(args: &Args, out_dir: &std::path::Path) -> Result<Outcome, String> {
    type Body = fn(&Args, &mut Outcome) -> Option<Tracer>;
    let (body, layer): (Body, &str) = match args.workload.as_str() {
        "conference_audio" => (conference_audio, "sharded"),
        "broadcast_video" => (broadcast_video, "sharded"),
        "federation_tcp" => (federation_tcp, "cluster"),
        "session_churn" => (session_churn, "sharded"),
        "sim_fig3" => (sim_fig3, "sim"),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    let mut out = Outcome::new(args.workload == "federation_tcp");
    if args.trace {
        for (name, unit) in PER_LAYER {
            out.put(name, 0.0, unit, 0);
        }
    }
    if let Some(tracer) = body(args, &mut out) {
        for (name, timing) in probes::run_all(secs(args.seconds / 100.0)) {
            out.put(name, timing.ns, "ns", timing.batches);
        }
        let path = out_dir.join(format!("trace-{}.jsonl", args.workload));
        tracer
            .write_jsonl(&path, layer)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(out)
}
