//! Property tests on the discrete-event simulator: determinism,
//! conservation (every packet is delivered or accounted as dropped),
//! and time monotonicity under random workloads.
//!
//! Determinism is checked on two inputs: a lossy two-sender world, and
//! a random plan of hosts running timer-driven chatter with CPU costs
//! under a fault schedule of link degradation (loss, jitter,
//! duplication, hard partition) and process crash/restart incarnations.

use proptest::prelude::*;

use mmcs::sim::net::{HostId, LinkConfig, NicConfig};
use mmcs::sim::{Context, Packet, Process, ProcessId, Simulation};
use mmcs_util::rate::Bandwidth;
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
                ..LinkConfig::default()
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

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        ctx.count("chatter.restarted", 1);
        ctx.set_timer(self.period, 0);
    }
}

/// One scheduled fault. Times are virtual milliseconds from start.
#[derive(Debug, Clone)]
enum FaultOp {
    /// Replace the link between hosts `a` and `b` (indices).
    Link(usize, usize, LinkConfig),
    /// Crash process index `p`, restart it `down_ms` later.
    CrashRestart(usize, u64),
}

/// A complete randomized run plan.
#[derive(Debug, Clone)]
struct Plan {
    seed: u64,
    hosts: usize,
    chatter: Vec<(u64, u32, u64, u32, usize)>,
    faults: Vec<(u64, FaultOp)>,
    horizon_ms: u64,
}

fn link_strategy() -> impl Strategy<Value = LinkConfig> {
    (
        200u64..=2_000,
        prop_oneof![
            Just((0.0, 0.0, 0u64, false)),
            (0.05f64..0.5).prop_map(|loss| (loss, 0.0, 0, false)),
            (0.1f64..0.9).prop_map(|duplicate| (0.0, duplicate, 0, false)),
            (1u64..=8).prop_map(|jitter_ms| (0.0, 0.0, jitter_ms, false)),
            Just((0.0, 0.0, 0, true)),
        ],
    )
        .prop_map(|(latency_us, (loss, duplicate, jitter_ms, down))| LinkConfig {
            latency: SimDuration::from_micros(latency_us),
            loss,
            duplicate,
            jitter: SimDuration::from_millis(jitter_ms),
            down,
        })
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    // Host/process indices inside fault ops are generated over the
    // maximum host count and reduced modulo the actual one at apply
    // time (the shimmed proptest has no `prop_flat_map`).
    let chatter = prop::collection::vec(
        (
            500u64..=5_000,  // timer period (µs)
            0u32..=3,        // sends per tick
            0u64..=200,      // per-tick CPU (µs)
            5u32..=40,       // tick budget
            64usize..=1_400, // wire bytes
        ),
        6,
    );
    let faults = prop::collection::vec(
        (
            1u64..40,
            prop_oneof![
                (0usize..6, 0usize..6, link_strategy())
                    .prop_map(|(a, b, link)| FaultOp::Link(a, b, link)),
                (0usize..6, 1u64..20)
                    .prop_map(|(p, down_ms)| FaultOp::CrashRestart(p, down_ms)),
            ],
        ),
        0..6,
    );
    (2usize..=6, 0u64..1_000_000, chatter, faults).prop_map(|(hosts, seed, chatter, faults)| {
        Plan {
            seed,
            hosts,
            chatter,
            faults,
            horizon_ms: 60,
        }
    })
}

/// Materializes and runs a plan; returns the per-host traces, their
/// fingerprint and the sorted counters.
fn run_plan(plan: &Plan) -> (Vec<Vec<u64>>, u64, Vec<(String, u64)>) {
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

    // Compile the fault schedule into (time, op) order; restarts are
    // separate timed entries so they interleave with other faults.
    let mut ops: Vec<(u64, usize, FaultOp)> = Vec::new();
    for (i, (t_ms, op)) in plan.faults.iter().enumerate() {
        match op {
            FaultOp::CrashRestart(p, down_ms) => {
                ops.push((*t_ms, i * 2, FaultOp::CrashRestart(*p, 0)));
                ops.push((t_ms + down_ms, i * 2 + 1, FaultOp::CrashRestart(*p, u64::MAX)));
            }
            link => ops.push((*t_ms, i * 2, link.clone())),
        }
    }
    ops.sort_by_key(|(t, tie, _)| (*t, *tie));

    for (t_ms, _, op) in ops {
        sim.run_until(SimTime::from_millis(t_ms));
        match op {
            FaultOp::Link(a, b, link) => {
                let (a, b) = (a % plan.hosts, b % plan.hosts);
                if a != b {
                    sim.set_link(hosts[a], hosts[b], link);
                }
            }
            FaultOp::CrashRestart(p, marker) => {
                let p = p % plan.hosts;
                if marker == 0 {
                    if !sim.is_crashed(pids[p]) {
                        sim.crash_process(pids[p]);
                    }
                } else if sim.is_crashed(pids[p]) {
                    sim.restart_process(pids[p]);
                }
            }
        }
    }
    sim.run_until(SimTime::from_millis(plan.horizon_ms));

    let fingerprint = sim.trace_fingerprint();
    let mut counters: Vec<(String, u64)> = sim
        .counters()
        .map(|(name, value)| (name.to_owned(), value))
        .collect();
    counters.sort();
    (sim.take_traces(), fingerprint, counters)
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
    /// plan — chatter, faulty links and crash/restart incarnations — the
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

        let (traces, fingerprint, counters) = run_plan(&plan);
        prop_assert!(
            counters.iter().any(|(name, v)| name == "net.delivered" && *v > 0)
                || plan.chatter.iter().all(|(_, sends, ..)| *sends == 0),
            "workload should exchange traffic"
        );
        let again = run_plan(&plan);
        prop_assert_eq!(&again.0, &traces, "execution traces diverged");
        prop_assert_eq!(again.1, fingerprint, "trace fingerprint diverged");
        prop_assert_eq!(&again.2, &counters, "counters diverged");
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
