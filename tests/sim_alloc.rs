//! Proves the simulator's delivery path is allocation-free in steady
//! state: one video publisher, one broker, N receivers on one client
//! machine — Figure 3's shape. After a 50-packet warm-up every buffer
//! has grown to its working size, and what is left is a fixed cost per
//! *published* packet that does not move with the fan-out: the RTP
//! packet (payload `Vec`, its `Bytes` owner, a share of the frame's
//! `Vec`), its encoding, the topic clone, `Arc<Event>`, the publish
//! message and the one `Arc<ClientMsg>` the whole fan-out shares — 7.2,
//! bounded here at 8. Per delivery that is 0.07 at a fan-out of 100 and
//! 0.02 at Figure 3's 400. The parent paid ≥ 5 per *delivery* — three
//! counter-name `String`s, an `Arc<ClientMsg>` and a 1 KiB payload copy
//! — and a fresh `sends` buffer per dispatch.
//!
//! The same run is where the per-event budget of DESIGN.md §2 is read:
//! the client machine is busy when nearly every packet arrives, so a
//! delivery is two engine events (its `Deliver`, then the `Drain` that
//! runs it) and never more.
//!
//! This file holds exactly one test so the counting allocator sees no
//! traffic from sibling tests in the same binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mmcs::broker::batch::CostModel;
use mmcs::broker::simdrv::{BrokerProcess, ClientBundle, PublisherConfig, RtpReceiver, VideoPublisher};
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs_rtp::packet::payload_type;
use mmcs_rtp::source::{VideoSource, VideoSourceConfig};
use mmcs_sim::net::NicConfig;
use mmcs_sim::{ProcessId, Simulation};
use mmcs_telemetry::Histogram;
use mmcs_util::id::{BrokerId, ClientId};
use mmcs_util::rng::DetRng;
use mmcs_util::time::SimDuration;

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

/// One publisher → one broker → `receivers` clients made by `client`,
/// all on one machine. Returns allocations per published packet and
/// engine events per delivery over the measured packets, `delivered`
/// naming the counter the clients bump once per delivery.
fn steady_state(
    receivers: u64,
    delivered: &str,
    client: impl Fn(ProcessId, ClientId, TopicFilter) -> Box<dyn mmcs_sim::Process + Send>,
) -> (f64, f64) {
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
        sim.add_process(client_host, client(broker, id, TopicFilter::exact(&topic)));
    }
    let mut config = PublisherConfig::new(broker, ClientId::from_raw(1), topic);
    config.max_packets = WARM_PACKETS + MEASURED_PACKETS;
    let source = VideoSource::new(VideoSourceConfig::default(), 3, DetRng::new(4));
    sim.add_typed_process(sender_host, VideoPublisher::new(config, source));

    while sim.counter("publisher.rtp_sent") < WARM_PACKETS {
        assert!(sim.step(), "the publisher stopped before the warm-up ended");
    }
    let (allocs_before, delivered_before) = (thread_allocs(), sim.counter(delivered));
    let mut events = 0u64;
    while sim.step() {
        events += 1;
    }
    let allocs = thread_allocs() - allocs_before;
    let deliveries = sim.counter(delivered) - delivered_before;
    // Nothing lost, and the window really held the measured packets
    // (the last warm-up packets were still in flight when it opened).
    assert!(deliveries >= MEASURED_PACKETS * receivers, "{delivered}: {deliveries}");
    assert_eq!(sim.counter("net.dropped.queue"), 0);
    (allocs as f64 / MEASURED_PACKETS as f64, events as f64 / deliveries as f64)
}

#[test]
fn warm_delivery_allocates_nothing() {
    let recv_cpu = SimDuration::from_micros(30);
    for receivers in [100, 400] {
        let (allocs, events) = steady_state(receivers, "receiver.rtp_received", |broker, id, filter| {
            Box::new(RtpReceiver::new(broker, id, filter, payload_type::H263, recv_cpu))
        });
        assert!(allocs <= 8.0, "{receivers} RtpReceivers: {allocs} allocations per packet");
        assert!(events <= 2.05, "{receivers} RtpReceivers: {events} events per delivery");

        // The frontier rig's receiver: the same engine path, a pooled
        // histogram instead of per-receiver RTP statistics.
        let pool = Arc::new(Histogram::new());
        let (allocs, events) = steady_state(receivers, "bundle.delivered_clients", |broker, id, filter| {
            Box::new(ClientBundle::new(broker, id, filter, 1, recv_cpu, Arc::clone(&pool)))
        });
        assert!(allocs <= 8.0, "{receivers} ClientBundles: {allocs} allocations per packet");
        assert!(events <= 2.05, "{receivers} ClientBundles: {events} events per delivery");
        assert_eq!(pool.snapshot().count(), (WARM_PACKETS + MEASURED_PACKETS) * receivers);
    }
}
