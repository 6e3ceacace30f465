//! Proves the live hand-off allocates nothing per delivery: once the
//! ingress queue, the worker's staging buffers and the clients'
//! mailboxes have grown to the working set, publishing through
//! `ShardedBroker::spawn(1)` at fan-out 10 and draining with
//! `drain_into` costs the heap exactly what building the events costs
//! (`publish` builds one `Arc<Event>` per call) — no buffer per client
//! per batch, no queue node per send. A control loop that builds the
//! same events without publishing them gives that baseline, so the
//! comparison holds whatever an `Event` is made of.
//!
//! The counting allocator is process-wide (the worker thread's
//! allocations are the point), so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use mmcs::broker::event::{Event, EventClass};
use mmcs::broker::sharded::{ShardedBroker, ShardedClient};
use mmcs::broker::topic::{Topic, TopicFilter};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const FANOUT: usize = 10;
/// Publishes outstanding before the load drains (the benchmark's
/// closed-loop window, scaled down).
const WINDOW: u64 = 64;

/// Publishes `rounds` windows and drains every delivery of each before
/// the next; returns the allocations that took, process-wide.
fn run(
    publisher: &ShardedClient,
    subscribers: &[ShardedClient],
    topic: &Topic,
    payload: &Bytes,
    sink: &mut Vec<std::sync::Arc<Event>>,
    rounds: u64,
) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..rounds {
        for _ in 0..WINDOW {
            publisher.publish_class(topic.clone(), EventClass::Rtp, payload.clone());
        }
        let mut owed = WINDOW as usize * FANOUT;
        while owed > 0 {
            for subscriber in subscribers {
                owed -= subscriber.drain_into(sink);
            }
            sink.clear();
        }
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_handoff_allocates_nothing_per_delivery() {
    const ROUNDS: u64 = 200;
    /// Room for a buffer that meets its largest batch only in the
    /// measured phase (amortized growth, a few reallocations in all).
    const SLACK: u64 = 64;

    let broker = ShardedBroker::spawn(1);
    let topic = Topic::parse("conf7/audio").unwrap();
    let payload = Bytes::from(vec![0u8; 172]);
    let publisher = broker.attach();
    let subscribers: Vec<ShardedClient> = (0..FANOUT).map(|_| broker.attach()).collect();
    for subscriber in &subscribers {
        subscriber.subscribe(TopicFilter::exact(&topic));
    }
    broker.quiesce();
    let mut sink = Vec::with_capacity(WINDOW as usize * FANOUT);

    run(&publisher, &subscribers, &topic, &payload, &mut sink, ROUNDS);
    let handoff = run(&publisher, &subscribers, &topic, &payload, &mut sink, ROUNDS);

    let before = ALLOCS.load(Ordering::Relaxed);
    for seq in 0..ROUNDS * WINDOW {
        let event = Event::new(topic.clone(), publisher.id(), seq, EventClass::Rtp, payload.clone());
        std::hint::black_box(event.into_shared());
    }
    let control = ALLOCS.load(Ordering::Relaxed) - before;

    let deliveries = ROUNDS * WINDOW * FANOUT as u64;
    assert!(control >= ROUNDS * WINDOW, "the allocator sees the events: {control}");
    assert!(
        handoff <= control + SLACK,
        "{deliveries} warm deliveries cost {handoff} allocations, building their \
         {} events alone costs {control}",
        ROUNDS * WINDOW,
    );
}
