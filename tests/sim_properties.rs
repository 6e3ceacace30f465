//! Property tests on the discrete-event simulator: determinism,
//! conservation (every packet is delivered or accounted as dropped),
//! and time monotonicity under random workloads.
//!
//! Determinism is checked on two inputs: a lossy two-sender world, and
//! a random plan of hosts running timer-driven chatter with CPU costs
//! while links change their latency and loss mid-run. One fixed,
//! fault-free broker world pins its event order and counters outright,
//! and so does a world whose host drains a backlog while its CPU idles.
//!
//! `run_until` runs work that finds its host busy in the call that pops
//! it, when the CPU frees by the deadline. Busy chatter plans must run
//! the same whatever the `run_until` boundaries and under a `step()`
//! loop, and a relay whose link slows at a deadline pins that no work
//! starting after the deadline is served before it.
//!
//! The engine holds a fan-out's payload once and its receivers borrow
//! it: a world whose 32 deliveries of one handle are all queued at once
//! pins that every receiver sees the handle shared by exactly two
//! owners (the sender and the engine), and that the engine lets go of it
//! once the last delivery is done or dropped.

use std::ops::RangeInclusive;
use std::sync::Arc;

use proptest::prelude::*;

use mmcs::broker::batch::CostModel;
use mmcs::broker::simdrv::BrokerProcess;
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs::rtp::packet::payload_type;
use mmcs::rtp::source::{VideoSource, VideoSourceConfig};
use mmcs::sim::net::{HostId, LinkConfig, NicConfig};
use mmcs::sim::{Context, Packet, Payload, Process, ProcessId, Simulation};
use mmcs_bench::load::{Publisher, PublisherConfig, RtpReceiver};
use mmcs_util::id::{BrokerId, ClientId};
use mmcs_util::rate::Bandwidth;
use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

/// Sends `count` packets of `bytes` to `dst`, `gap` apart.
struct Pacer {
    dst: ProcessId,
    count: u64,
    bytes: usize,
    gap: SimDuration,
    sent: u64,
}

impl Process for Pacer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.gap, 0);
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.sent >= self.count {
            return;
        }
        ctx.send(self.dst, self.sent, self.bytes);
        self.sent += 1;
        ctx.count("pacer.sent", 1);
        ctx.set_timer(self.gap, 0);
    }
}

/// Records arrivals and asserts monotonic time.
#[derive(Default)]
struct MonotonicSink {
    arrivals: Vec<SimTime>,
    cpu: SimDuration,
}

impl Process for MonotonicSink {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _packet: Packet) {
        let now = ctx.now();
        if let Some(last) = self.arrivals.last() {
            assert!(now >= *last, "arrivals ran backwards");
        }
        self.arrivals.push(now);
        ctx.spend_cpu(self.cpu);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_world(
    seed: u64,
    senders: usize,
    count: u64,
    bytes: usize,
    gap_us: u64,
    bandwidth_kbps: u64,
    loss: f64,
    cpu_us: u64,
) -> (u64, u64, u64, u64, Vec<u64>) {
    let mut sim = Simulation::new(seed);
    let sink_host = sim.add_host("sink", NicConfig::default());
    let sink = sim.add_typed_process(
        sink_host,
        MonotonicSink {
            arrivals: Vec::new(),
            cpu: SimDuration::from_micros(cpu_us),
        },
    );
    for i in 0..senders {
        let host = sim.add_host(
            &format!("sender-{i}"),
            NicConfig {
                bandwidth: Bandwidth::from_kbps(bandwidth_kbps),
                queue_bytes: 16 * 1024,
                ..NicConfig::default()
            },
        );
        sim.set_link(
            host,
            sink_host,
            LinkConfig {
                latency: SimDuration::from_micros(200),
                loss,
            },
        );
        sim.add_typed_process(
            host,
            Pacer {
                dst: sink,
                count,
                bytes,
                gap: SimDuration::from_micros(gap_us),
                sent: 0,
            },
        );
    }
    sim.run_until(SimTime::from_secs(120));
    let arrivals = sim
        .process_ref::<MonotonicSink>(sink)
        .unwrap()
        .arrivals
        .iter()
        .map(|t| t.as_nanos())
        .collect();
    (
        sim.counter("pacer.sent"),
        sim.counter("net.delivered"),
        sim.counter("net.dropped.loss"),
        sim.counter("net.dropped.queue"),
        arrivals,
    )
}

/// Timer-driven chatter: each tick spends CPU, sends a few packets to
/// RNG-chosen peers, and occasionally replies to traffic it receives.
/// All randomness comes from `ctx.rng()` (the host's private stream),
/// so behavior is a pure function of the host's execution order.
#[derive(Debug, Clone)]
struct Chatter {
    peers: Vec<ProcessId>,
    period: SimDuration,
    sends_per_tick: u32,
    cpu: SimDuration,
    ticks_left: u32,
    wire_bytes: usize,
}

impl Process for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.period, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.ticks_left == 0 {
            return;
        }
        self.ticks_left -= 1;
        ctx.spend_cpu(self.cpu);
        for _ in 0..self.sends_per_tick {
            let target = ctx.rng().range_usize(0, self.peers.len());
            let dst = self.peers[target];
            if dst != ctx.me() {
                ctx.send(dst, "tick", self.wire_bytes);
                ctx.count("chatter.sent", 1);
            }
        }
        ctx.set_timer(self.period, 0);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        ctx.count("chatter.received", 1);
        ctx.spend_cpu(SimDuration::from_micros(5));
        if ctx.rng().chance(0.25) {
            ctx.send(packet.src, "reply", 64);
            ctx.count("chatter.replied", 1);
        }
    }
}

/// A complete randomized run plan. Each link change is `(virtual ms
/// from start, host a, host b, new link)`.
#[derive(Debug, Clone)]
struct Plan {
    seed: u64,
    hosts: usize,
    chatter: Vec<(u64, u32, u64, u32, usize)>,
    links: Vec<(u64, usize, usize, LinkConfig)>,
    horizon_ms: u64,
}

fn link_strategy() -> impl Strategy<Value = LinkConfig> {
    (
        200u64..=2_000,
        prop_oneof![Just(0.0), 0.05f64..0.5],
    )
        .prop_map(|(latency_us, loss)| LinkConfig {
            latency: SimDuration::from_micros(latency_us),
            loss,
        })
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    plans(500..=5_000, 0..=3, 0..=200, 5..=40)
}

/// Plans whose hosts keep their CPUs busy: a tick every 100 µs–1 ms
/// costs up to 400 µs, so arrivals queue behind ticks and a `run_until`
/// boundary often leaves work parked across it.
fn busy_plan_strategy() -> impl Strategy<Value = Plan> {
    plans(100..=1_000, 1..=3, 20..=400, 20..=200)
}

/// Plans with each host's timer period (µs), sends per tick, per-tick
/// CPU (µs) and tick budget drawn from the given ranges.
fn plans(
    period_us: RangeInclusive<u64>,
    sends: RangeInclusive<u32>,
    cpu_us: RangeInclusive<u64>,
    ticks: RangeInclusive<u32>,
) -> impl Strategy<Value = Plan> {
    // Host indices inside link changes are generated over the maximum
    // host count and reduced modulo the actual one at apply time (the
    // shimmed proptest has no `prop_flat_map`).
    let chatter = prop::collection::vec(
        (period_us, sends, cpu_us, ticks, 64usize..=1_400), // the last: wire bytes
        6,
    );
    let links = prop::collection::vec((1u64..40, 0usize..6, 0usize..6, link_strategy()), 0..6);
    (2usize..=6, 0u64..1_000_000, chatter, links).prop_map(|(hosts, seed, chatter, mut links)| {
        links.sort_by_key(|(t_ms, ..)| *t_ms);
        Plan {
            seed,
            hosts,
            chatter,
            links,
            horizon_ms: 60,
        }
    })
}

/// A run's per-host traces, their fingerprint and its sorted counters.
type Outcome = (Vec<Vec<u64>>, u64, Vec<(String, u64)>);

/// Materializes a plan: its hosts and chatter processes, traced.
fn build_plan(plan: &Plan) -> (Simulation, Vec<HostId>) {
    let mut sim = Simulation::new(plan.seed);
    let hosts: Vec<HostId> = (0..plan.hosts)
        .map(|h| sim.add_host(&format!("h{h}"), NicConfig::default()))
        .collect();
    sim.set_default_latency(SimDuration::from_micros(400));
    sim.set_trace_enabled(true);

    let pids: Vec<ProcessId> = (0..plan.hosts)
        .map(|h| {
            let (period_us, sends, cpu_us, ticks, bytes) = plan.chatter[h];
            sim.add_typed_process(
                hosts[h],
                Chatter {
                    peers: Vec::new(),
                    period: SimDuration::from_micros(period_us),
                    sends_per_tick: sends,
                    cpu: SimDuration::from_micros(cpu_us),
                    ticks_left: ticks,
                    wire_bytes: bytes,
                },
            )
        })
        .collect();
    for pid in &pids {
        sim.process_mut::<Chatter>(*pid)
            .expect("chatter process")
            .peers = pids.clone();
    }
    (sim, hosts)
}

fn outcome(mut sim: Simulation) -> Outcome {
    let fingerprint = sim.trace_fingerprint();
    let mut counters: Vec<(String, u64)> = sim
        .counters()
        .map(|(name, value)| (name.to_owned(), value))
        .collect();
    counters.sort();
    (sim.take_traces(), fingerprint, counters)
}

/// Runs a plan to its horizon with a `run_until` at each link change
/// and at each of `extra_stops` (µs from start).
fn run_plan(plan: &Plan, extra_stops: &[u64]) -> Outcome {
    let (mut sim, hosts) = build_plan(plan);
    // Each stop is a time and, at a link change, the change's index.
    let mut stops: Vec<(SimTime, Option<usize>)> = plan
        .links
        .iter()
        .enumerate()
        .map(|(change, &(t_ms, ..))| (SimTime::from_millis(t_ms), Some(change)))
        .chain(
            extra_stops
                .iter()
                .map(|&t_us| (SimTime::from_nanos(t_us * 1_000), None)),
        )
        .collect();
    stops.sort_by_key(|&(at, _)| at);
    for (at, change) in stops {
        sim.run_until(at);
        if let Some(change) = change {
            let (_, a, b, link) = plan.links[change];
            let (a, b) = (a % plan.hosts, b % plan.hosts);
            if a != b {
                sim.set_link(hosts[a], hosts[b], link);
            }
        }
    }
    sim.run_until(SimTime::from_millis(plan.horizon_ms));
    outcome(sim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every sent packet is delivered or counted in exactly one drop
    /// bucket, under random load/loss/bandwidth.
    #[test]
    fn packets_are_conserved(
        seed: u64,
        senders in 1usize..4,
        count in 1u64..80,
        bytes in 32usize..1400,
        gap_us in 100u64..20_000,
        bandwidth_kbps in 64u64..10_000,
        loss in 0.0f64..0.5,
        cpu_us in 0u64..200,
    ) {
        let (sent, delivered, lost, queued, _) =
            run_world(seed, senders, count, bytes, gap_us, bandwidth_kbps, loss, cpu_us);
        prop_assert_eq!(sent, delivered + lost + queued,
            "sent {} != delivered {} + loss {} + queue {}", sent, delivered, lost, queued);
    }

    /// The same seed reproduces the identical arrival trace, and the same
    /// plan — chatter under mid-run latency and loss changes — the
    /// identical per-host execution traces, fingerprint and counters.
    #[test]
    fn identical_seeds_identical_traces(
        seed: u64,
        count in 10u64..60,
        loss in 0.05f64..0.4,
        plan in plan_strategy(),
    ) {
        let a = run_world(seed, 2, count, 200, 1000, 1_000, loss, 10);
        let b = run_world(seed, 2, count, 200, 1000, 1_000, loss, 10);
        prop_assert_eq!(&a.4, &b.4);
        prop_assert_eq!(a.1, b.1);

        let (traces, fingerprint, counters) = run_plan(&plan, &[]);
        prop_assert!(
            counters.iter().any(|(name, v)| name == "net.delivered" && *v > 0)
                || plan.chatter.iter().all(|(_, sends, ..)| *sends == 0),
            "workload should exchange traffic"
        );
        let again = run_plan(&plan, &[]);
        prop_assert_eq!(&again.0, &traces, "execution traces diverged");
        prop_assert_eq!(again.1, fingerprint, "trace fingerprint diverged");
        prop_assert_eq!(&again.2, &counters, "counters diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Where the caller stops does not change a run. `run_until` serves
    /// work that finds its host busy in the call that pops it when the
    /// CPU frees by the deadline, and parks it behind a `Drain`
    /// otherwise; `step` always parks it. Extra `run_until` boundaries,
    /// which leave work parked across them, and a `step` loop must give
    /// the traces, fingerprint and counters of one call per link change
    /// and of one call to the end of time.
    #[test]
    fn run_until_boundaries_leave_the_run_unchanged(
        plan in busy_plan_strategy(),
        extra_stops in prop::collection::vec(1u64..60_000, 1..=8),
    ) {
        let whole = run_plan(&plan, &[]);
        let split = run_plan(&plan, &extra_stops);
        prop_assert_eq!(&split.0, &whole.0, "traces diverged at stops {:?}", extra_stops);
        prop_assert_eq!(split.1, whole.1, "fingerprint diverged");
        prop_assert_eq!(&split.2, &whole.2, "counters diverged");

        let still = Plan { links: Vec::new(), ..plan };
        let (mut sim, _) = build_plan(&still);
        sim.run_until(SimTime::MAX);
        let until = outcome(sim);
        let (mut sim, _) = build_plan(&still);
        while sim.step() {}
        let stepped = outcome(sim);
        prop_assert_eq!(&stepped.0, &until.0, "step traces diverged");
        prop_assert_eq!(stepped.1, until.1, "step fingerprint diverged");
        prop_assert_eq!(&stepped.2, &until.2, "step counters diverged");
    }
}

/// Zero-capacity corner: a queue too small for one packet drops all.
#[test]
fn tiny_queue_drops_everything() {
    let mut sim = Simulation::new(1);
    let a = sim.add_host(
        "a",
        NicConfig {
            bandwidth: Bandwidth::from_kbps(8),
            queue_bytes: 10,
            ..NicConfig::default()
        },
    );
    let b = sim.add_host("b", NicConfig::default());
    let sink = sim.add_typed_process(b, MonotonicSink::default());
    sim.add_typed_process(
        a,
        Pacer {
            dst: sink,
            count: 5,
            bytes: 100,
            gap: SimDuration::from_millis(1),
            sent: 0,
        },
    );
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.counter("net.delivered"), 0);
    assert_eq!(sim.counter("net.dropped.queue"), 5);
}

/// The event order of one fixed, fault-free world is pinned: a broker
/// process fans a 60-packet video burst out to five receivers, with the
/// publisher's pacing timers, and the whole run is traced. The broker's
/// NIC is slow and its queue short, so each fan-out serializes and the
/// tail of an I-frame is dropped; three receivers share one host and
/// its CPU, so their handling backs up; one receiver sits behind a link
/// that turns slow and lossy mid-run. An engine edit that reorders,
/// adds or drops an event changes the fingerprint; one that moves a
/// drop or a delivery between buckets changes the counters.
#[test]
fn fault_free_broker_world_keeps_its_event_order() {
    let mut sim = Simulation::new(11);
    let sender = sim.add_host("sender", NicConfig::default());
    let broker_host = sim.add_host(
        "broker",
        NicConfig {
            bandwidth: Bandwidth::from_mbps(4),
            queue_bytes: 16 * 1024,
            ..NicConfig::default()
        },
    );
    let shared = sim.add_host("shared", NicConfig::default());
    let far = sim.add_host("far", NicConfig::default());
    sim.set_trace_enabled(true);
    let broker = sim.add_typed_process(
        broker_host,
        BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
    );
    for (i, host) in [sender, shared, shared, shared, far].into_iter().enumerate() {
        sim.add_typed_process(
            host,
            RtpReceiver::new(
                broker,
                ClientId::from_raw(10 + i as u64),
                TopicFilter::parse("conf/1/video").unwrap(),
                payload_type::H263,
                SimDuration::from_micros(700),
            ),
        );
    }
    let mut config = PublisherConfig::new(
        broker,
        ClientId::from_raw(1),
        Topic::parse("conf/1/video").unwrap(),
    );
    config.max_packets = 60;
    let source = VideoSource::new(VideoSourceConfig::default(), 42, DetRng::new(5));
    sim.add_typed_process(sender, Publisher::new(config, source));

    sim.run_until(SimTime::from_millis(300));
    let lossy = LinkConfig {
        loss: 0.25,
        ..LinkConfig::default()
    };
    sim.set_link(
        broker_host,
        far,
        LinkConfig {
            latency: SimDuration::from_millis(3),
            ..lossy
        },
    );
    sim.run_until(SimTime::from_secs(2));

    let mut counters: Vec<(String, u64)> = sim
        .counters()
        .map(|(name, value)| (name.to_owned(), value))
        .collect();
    counters.sort();
    let expected = [
        ("broker.delivered", 300),
        ("net.delivered", 300),
        ("net.dropped.loss", 8),
        ("net.dropped.queue", 63),
        ("publisher.rtp_sent", 60),
        ("receiver.rtp_received", 229),
    ];
    let expected: Vec<(String, u64)> = expected
        .iter()
        .map(|&(name, value)| (name.to_owned(), value))
        .collect();
    assert_eq!(counters, expected);
    assert_eq!(sim.trace_fingerprint(), 0x0ae1_7d16_0eed_eded);
}

/// Arms `timers` (delay, token) and then spends `busy` of CPU at start;
/// every later handler spends nothing and logs what it ran: a timer's
/// token, or a packet's `u64` payload.
struct Backlog {
    busy: SimDuration,
    timers: Vec<(SimDuration, u64)>,
    ran: Vec<(SimTime, u64)>,
}

impl Process for Backlog {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for &(delay, token) in &self.timers {
            ctx.set_timer(delay, token);
        }
        ctx.spend_cpu(self.busy);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.ran.push((ctx.now(), token));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let id = *packet.payload::<u64>().expect("u64 payload");
        self.ran.push((ctx.now(), id));
    }
}

/// Sends zero-byte packets to `dst`: `(delay, first id, count)` per
/// timer, so each burst lands in one instant.
struct Burster {
    dst: ProcessId,
    bursts: Vec<(SimDuration, u64, u64)>,
}

impl Process for Burster {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (index, &(delay, _, _)) in self.bursts.iter().enumerate() {
            ctx.set_timer(delay, index as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let (_, first, count) = self.bursts[token as usize];
        for id in first..first + count {
            ctx.send(self.dst, id, 0);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
}

/// The event order of a host whose backlog drains while its CPU is
/// idle is pinned. The worker is busy for its first millisecond; three
/// packets (ids 100–102) and a timer (1) queue behind that. At exactly
/// 1 ms two more timers (2, 3) fire and two more packets (103, 104)
/// land, while every queued handler costs no CPU — so, under `step`,
/// the CPU is free with work still parked behind a `Drain`. Those
/// arrivals must run behind the backlog, in arrival order; an engine
/// that gated only on a busy CPU would run them first. `run_until`
/// serves the backlog in the calls that pop it, at 1 ms, and must
/// give the same run.
#[test]
fn idle_cpu_backlog_drains_in_arrival_order() {
    for stepped in [false, true] {
        let mut sim = Simulation::new(3);
        let worker_host = sim.add_host("worker", NicConfig::default());
        let sender_host = sim.add_host("sender", NicConfig::default());
        sim.set_trace_enabled(true);
        let ms = SimDuration::from_millis(1);
        let worker = sim.add_typed_process(
            worker_host,
            Backlog {
                busy: ms,
                timers: vec![(SimDuration::from_micros(300), 1), (ms, 2), (ms, 3)],
                ran: Vec::new(),
            },
        );
        // The default link's 200 µs latency: bursts land at 200 µs and 1 ms.
        let bursts = vec![(SimDuration::ZERO, 100, 3), (SimDuration::from_micros(800), 103, 2)];
        sim.add_typed_process(sender_host, Burster { dst: worker, bursts });
        if stepped {
            while sim.step() {}
        } else {
            sim.run_until(SimTime::from_millis(5));
        }

        let ran = &sim.process_ref::<Backlog>(worker).expect("worker").ran;
        let order: Vec<u64> = ran.iter().map(|&(_, what)| what).collect();
        assert_eq!(order, [100, 101, 102, 1, 2, 3, 103, 104], "stepped: {stepped}");
        assert!(ran.iter().all(|&(at, _)| at == SimTime::from_millis(1)), "{ran:?}");
        let counters: Vec<(&str, u64)> = sim.counters().collect();
        assert_eq!(counters, [("net.delivered", 5)]);
        assert_eq!(sim.trace_fingerprint(), 0x1162_64b8_813e_60a5, "stepped: {stepped}");
    }
}

/// Spends `start_busy` of CPU at start and arms a timer for
/// `timer_after` whose handler spends `timer_busy`; forwards each packet
/// it receives to `dst` as 100 bytes after `per_packet` of CPU.
struct Relay {
    dst: ProcessId,
    start_busy: SimDuration,
    timer_after: SimDuration,
    timer_busy: SimDuration,
    per_packet: SimDuration,
}

impl Process for Relay {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.timer_after, 0);
        ctx.spend_cpu(self.start_busy);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        ctx.spend_cpu(self.timer_busy);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        ctx.spend_cpu(self.per_packet);
        ctx.send_shared(self.dst, packet.payload_handle(), 100);
    }
}

/// Records each packet's one-way delay: arrival minus send stamp.
#[derive(Default)]
struct DelaySink {
    delays: Vec<SimDuration>,
}

impl Process for DelaySink {
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        self.delays.push(ctx.now().saturating_duration_since(packet.sent_at));
    }
}

/// `run_until` serves no work that starts after its deadline. The
/// relay's CPU is busy from start to 1 ms; a timer it armed for 100 µs
/// keeps it busy on to 5 ms; three packets reach it at 200 µs, before
/// the first call's 3 ms deadline. That call runs the timer at 1 ms,
/// when the CPU frees, and returns 1 ms; the packets cannot start
/// before 5 ms and stay parked. The relay's link to the sink then
/// slows from 200 µs to 3 ms, and every forward must cross it at the
/// new latency. An engine that served the packets past the deadline
/// would forward them over the old link and report reaching 7 ms.
#[test]
fn run_until_serves_no_work_past_its_deadline() {
    let mut sim = Simulation::new(5);
    let relay_host = sim.add_host("relay", NicConfig::default());
    let sender_host = sim.add_host("sender", NicConfig::default());
    let sink_host = sim.add_host("sink", NicConfig::default());
    let sink = sim.add_typed_process(sink_host, DelaySink::default());
    let ms = SimDuration::from_millis(1);
    let relay = sim.add_typed_process(
        relay_host,
        Relay {
            dst: sink,
            start_busy: ms,
            timer_after: SimDuration::from_micros(100),
            timer_busy: SimDuration::from_millis(4),
            per_packet: ms,
        },
    );
    let bursts = vec![(SimDuration::ZERO, 0, 3)];
    sim.add_typed_process(sender_host, Burster { dst: relay, bursts });

    assert_eq!(sim.run_until(SimTime::from_millis(3)), SimTime::from_millis(1));
    let slow = SimDuration::from_millis(3);
    sim.set_link(relay_host, sink_host, LinkConfig { latency: slow, loss: 0.0 });
    sim.run_until(SimTime::from_secs(1));

    let delays = &sim.process_ref::<DelaySink>(sink).expect("sink").delays;
    let one_way = slow + Bandwidth::from_gbps(1).transmit_time(100);
    assert_eq!(delays, &[one_way; 3]);
}

/// Keeps a handle to its payload and sends it to every receiver, then
/// once more into a full NIC queue and once to a process that does not
/// exist.
struct FanOut {
    payload: Payload,
    receivers: Vec<ProcessId>,
}

impl Process for FanOut {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for &receiver in &self.receivers {
            ctx.send_shared(receiver, &self.payload, 1250);
        }
        ctx.send_shared(self.receivers[0], &self.payload, 1250);
        ctx.send_shared(ProcessId(9_999), &self.payload, 1250);
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
}

/// Records how many owners the payload handle it was delivered had.
#[derive(Default)]
struct OwnerCount {
    owners: Vec<usize>,
}

impl Process for OwnerCount {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, packet: Packet) {
        assert_eq!(packet.payload::<&str>(), Some(&"frame"));
        self.owners.push(Arc::strong_count(packet.payload_handle()));
    }
}

/// A fan-out holds its payload once. The sender's 1 Mbps NIC takes
/// 10 ms per packet, so all 32 deliveries are queued at once, and its
/// queue holds exactly 32: the 33rd send is dropped there, and the 34th
/// names no process. Every receiver borrows the one handle the engine
/// holds for all of them (two owners: the sender and the engine), and
/// when the queue is empty the sender is the only owner again. An
/// engine that cloned the handle per send, or kept a dropped send's
/// hold, fails one of the counts; one that let go too early loses a
/// delivery.
#[test]
fn a_fan_out_holds_its_payload_once() {
    const RECEIVERS: usize = 32;
    let mut sim = Simulation::new(3);
    let slow = NicConfig {
        bandwidth: Bandwidth::from_mbps(1),
        queue_bytes: RECEIVERS as u64 * 1250 + 625,
        ..NicConfig::default()
    };
    let sender_host = sim.add_host("sender", slow);
    let receiver_host = sim.add_host("receivers", NicConfig::default());
    let receivers: Vec<ProcessId> = (0..RECEIVERS)
        .map(|_| sim.add_typed_process(receiver_host, OwnerCount::default()))
        .collect();
    let payload: Payload = Arc::new("frame");
    let fan_out = FanOut { payload, receivers: receivers.clone() };
    let sender = sim.add_typed_process(sender_host, fan_out);

    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.counter("net.delivered"), RECEIVERS as u64);
    assert_eq!(sim.counter("net.dropped.queue"), 1);
    assert_eq!(sim.counter("net.dropped.noroute"), 1);
    for receiver in receivers {
        let owners = &sim.process_ref::<OwnerCount>(receiver).expect("receiver").owners;
        assert_eq!(owners, &[2], "{receiver}");
    }
    let kept = &sim.process_ref::<FanOut>(sender).expect("sender").payload;
    assert_eq!(Arc::strong_count(kept), 1);
}
