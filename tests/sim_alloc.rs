//! Proves the simulator's delivery path is allocation-free in steady
//! state: one video publisher, one broker, N receivers on one client
//! machine — Figure 3's shape. After a 50-packet warm-up every buffer
//! has grown to its working size, and what is left is a fixed cost per
//! *published* packet that does not move with the fan-out: the RTP
//! packet (payload `Vec`, its `Bytes` owner, a share of the frame's
//! `Vec`), its encoding, the topic clone, `Arc<Event>`, the publish
//! message and the one `Arc<ClientMsg>` the whole fan-out shares —
//! 6.3 at a fan-out of 100 and 6.4 at 400, bounded here at 8. Per
//! delivery that is 0.06 at 100 and 0.02 at Figure 3's 400. The shared message is not even cloned per
//! delivery: the engine holds one handle for the whole fan-out and each
//! receiver borrows it, so its refcount moves twice per fan-out, not
//! twice per delivery (`tests/sim_properties.rs` checks that through
//! the public API). The parent paid ≥ 5 allocations per *delivery* —
//! three counter-name `String`s, an `Arc<ClientMsg>` and a 1 KiB
//! payload copy — and a fresh `sends` buffer per dispatch.
//!
//! The same worlds are where the per-event budget of DESIGN.md §2 is
//! read, from `Simulation::event_pops`. The client machine is busy when
//! nearly every packet arrives, so under the public `step()`, which
//! executes one event per call, a delivery is two engine events (its
//! `Deliver`, then the `Drain` that runs it) and never more.
//! `run_until` serves such a delivery in the call that pops it: one
//! whole run in one call pops at most 1.01 events per delivery, none of
//! them a `Drain`, and so does one call after a `step()` warm-up, whose
//! parked backlog one `Drain` serves up to the call's horizon.
//! `tests/sim_properties.rs` checks that the two give the same run.
//!
//! This file holds exactly one test so the counting allocator sees no
//! traffic from sibling tests in the same binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mmcs::broker::batch::CostModel;
use mmcs::broker::simdrv::BrokerProcess;
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs_bench::load::{ClientBundle, Publisher, PublisherConfig, RtpReceiver};
use mmcs_rtp::packet::payload_type;
use mmcs_rtp::source::{VideoSource, VideoSourceConfig};
use mmcs_sim::net::NicConfig;
use mmcs_sim::{Context, Packet, Process, ProcessId, Simulation};
use mmcs_telemetry::Histogram;
use mmcs_util::id::{BrokerId, ClientId};
use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

struct CountingAlloc;

thread_local! {
    // Per-thread so the libtest harness threads cannot perturb the
    // measurement. `const` init keeps the TLS access itself alloc-free.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn bump() {
    // `try_with` so allocations during TLS teardown don't panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const WARM_PACKETS: u64 = 50;
const MEASURED_PACKETS: u64 = 200;

/// A client machine's process, made from its broker, id and filter.
type MakeClient<'a> = &'a dyn Fn(ProcessId, ClientId, TopicFilter) -> Client;

/// Either kind of simulated client, so one world builder takes both.
struct Client(Box<dyn Process + Send>);

impl Process for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.0.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet<'_>) {
        self.0.on_packet(ctx, packet);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.0.on_timer(ctx, token);
    }
}

/// One publisher → one broker → `receivers` clients made by `client`,
/// all on one machine.
fn world(receivers: u64, client: MakeClient<'_>) -> Simulation {
    let mut sim = Simulation::new(7);
    let sender_host = sim.add_host("sender", NicConfig::default());
    let broker_host = sim.add_host("broker", NicConfig::default());
    let client_host = sim.add_host("clients", NicConfig::default());
    let broker = sim.add_typed_process(
        broker_host,
        BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
    );
    let topic = Topic::parse("conf/1/video").unwrap();
    for i in 0..receivers {
        let id = ClientId::from_raw(100 + i);
        sim.add_typed_process(client_host, client(broker, id, TopicFilter::exact(&topic)));
    }
    let mut config = PublisherConfig::new(broker, ClientId::from_raw(1), topic);
    config.max_packets = WARM_PACKETS + MEASURED_PACKETS;
    let source = VideoSource::new(VideoSourceConfig::default(), 3, DetRng::new(4));
    sim.add_typed_process(sender_host, Publisher::new(config, source));
    sim
}

/// Steps a [`world`] through its warm-up, then to its end. Returns
/// allocations per published packet and events popped per delivery over
/// the measured packets, `delivered` naming the counter the clients
/// bump once per delivery.
fn stepped(receivers: u64, delivered: &str, client: MakeClient<'_>) -> (f64, f64) {
    let mut sim = world(receivers, client);
    while sim.counter("publisher.rtp_sent") < WARM_PACKETS {
        assert!(sim.step(), "the publisher stopped before the warm-up ended");
    }
    let (allocs_before, delivered_before) = (thread_allocs(), sim.counter(delivered));
    let (pops_before, _) = sim.event_pops();
    while sim.step() {}
    let allocs = thread_allocs() - allocs_before;
    let pops = sim.event_pops().0 - pops_before;
    let deliveries = sim.counter(delivered) - delivered_before;
    // Nothing lost, and the window really held the measured packets
    // (the last warm-up packets were still in flight when it opened).
    assert!(deliveries >= MEASURED_PACKETS * receivers, "{delivered}: {deliveries}");
    assert_eq!(sim.counter("net.dropped.queue"), 0);
    (allocs as f64 / MEASURED_PACKETS as f64, pops as f64 / deliveries as f64)
}

/// Runs a whole [`world`] in one `run_until`, which serves work that
/// finds its host busy in the call that pops it. Returns events popped
/// per delivery (start-ups and the publisher's timers included) and the
/// number of `Drain` events popped.
fn served(receivers: u64, client: MakeClient<'_>) -> (f64, u64) {
    let mut sim = world(receivers, client);
    sim.run_until(SimTime::MAX);
    let (pops, drains) = sim.event_pops();
    let deliveries = sim.counter("net.delivered");
    assert!(deliveries >= (WARM_PACKETS + MEASURED_PACKETS) * receivers);
    (pops as f64 / deliveries as f64, drains)
}

/// Steps a [`world`] through its warm-up, which leaves the busy client
/// machine a backlog, then runs the rest in one `run_until`: the first
/// `Drain` serves that backlog as far as the horizon allows. Returns
/// events popped per delivery after the warm-up.
fn served_after_steps(receivers: u64, client: MakeClient<'_>) -> f64 {
    let mut sim = world(receivers, client);
    while sim.counter("publisher.rtp_sent") < WARM_PACKETS {
        assert!(sim.step(), "the publisher stopped before the warm-up ended");
    }
    let (pops_before, delivered_before) = (sim.event_pops().0, sim.counter("net.delivered"));
    sim.run_until(SimTime::MAX);
    let deliveries = sim.counter("net.delivered") - delivered_before;
    assert!(deliveries >= MEASURED_PACKETS * receivers);
    (sim.event_pops().0 - pops_before) as f64 / deliveries as f64
}

#[test]
fn warm_delivery_allocates_nothing() {
    let recv_cpu = SimDuration::from_micros(30);
    // The frontier rig's receiver: the same engine path, a pooled
    // histogram instead of per-receiver RTP statistics.
    let pool = Arc::new(Histogram::new());
    let rtp_receiver = |broker, id, filter| {
        Client(Box::new(RtpReceiver::new(broker, id, filter, payload_type::H263, recv_cpu)))
    };
    let bundle = |broker, id, filter| {
        Client(Box::new(ClientBundle::new(broker, id, filter, 1, recv_cpu, Arc::clone(&pool))))
    };
    let clients: [(&str, &str, MakeClient<'_>); 2] = [
        ("RtpReceivers", "receiver.rtp_received", &rtp_receiver),
        ("ClientBundles", "bundle.delivered_clients", &bundle),
    ];
    let mut pooled = 0;
    for receivers in [100, 400] {
        for (name, delivered, client) in clients {
            let (allocs, pops) = stepped(receivers, delivered, client);
            assert!(allocs <= 8.0, "{receivers} {name}: {allocs} allocations per packet");
            assert!(pops <= 2.05, "{receivers} {name}: {pops} step() events per delivery");

            let (pops, drains) = served(receivers, client);
            assert!(pops <= 1.01, "{receivers} {name}: {pops} run_until events per delivery");
            assert_eq!(drains, 0, "{receivers} {name}: run_until popped a Drain");

            let pops = served_after_steps(receivers, client);
            assert!(pops <= 1.01, "{receivers} {name}: {pops} run_until events per delivery after step()s");
        }
        // All three ClientBundle worlds delivered every packet to every
        // client.
        pooled += 3 * (WARM_PACKETS + MEASURED_PACKETS) * receivers;
        assert_eq!(pool.snapshot().count(), pooled);
    }
}
