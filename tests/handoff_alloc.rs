//! Proves the live hand-off allocates nothing per delivery: once the
//! ingress queues, the workers' staging buffers and the clients'
//! mailboxes have grown to the working set, publishing at fan-out 10 and
//! draining with `drain_into` costs the heap exactly what building the
//! events costs (`publish` builds one `Arc<Event>` per call) — no buffer
//! per client per batch, no queue node per send. Two passes: one on
//! `ShardedBroker::spawn(1)`, and one on `spawn(2)` with every subscriber
//! homed off the topic's owner shard, so each publish also crosses the
//! ring exactly once — a hop that must hand the owner's `Arc` over, not
//! build a frame, a topic and a new `Event`. A control loop that builds
//! the same events without publishing them gives the baseline, so the
//! comparison holds whatever an `Event` is made of.
//!
//! The counting allocator is process-wide (the worker threads'
//! allocations are the point), so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use mmcs::broker::event::{Event, EventClass};
use mmcs::broker::metrics::ShardedBrokerMetrics;
use mmcs::broker::sharded::{ShardedBroker, ShardedClient};
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs_util::id::ClientId;

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
const ROUNDS: u64 = 200;

/// Publishes `ROUNDS` windows and drains every delivery of each before
/// the next; returns the allocations that took, process-wide.
fn run(
    publisher: &ShardedClient,
    subscribers: &[ShardedClient],
    topic: &Topic,
    payload: &Bytes,
    sink: &mut Vec<Arc<Event>>,
) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
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

/// One warm-up run and one measured run on `shards` shards, every
/// subscriber homed off `topic`'s owner shard when there is another;
/// returns the measured run's allocations and ring hops.
fn warm_pass(shards: usize, topic: &Topic, payload: &Bytes) -> (u64, u64) {
    let metrics = ShardedBrokerMetrics::detached(shards);
    let broker = ShardedBroker::spawn_with_metrics(Arc::clone(&metrics));
    let owner = broker.shard_for_topic(topic);
    let publisher = broker.attach();
    let mut subscribers = Vec::with_capacity(FANOUT);
    while subscribers.len() < FANOUT {
        let client = broker.attach();
        if shards == 1 || client.home_shard() != owner {
            subscribers.push(client);
        }
    }
    for subscriber in &subscribers {
        subscriber.subscribe(TopicFilter::exact(topic));
    }
    broker.quiesce();
    let mut sink = Vec::with_capacity(WINDOW as usize * FANOUT);
    let hops = || metrics.total(|shard| shard.cross_shard_forwards.get());

    run(&publisher, &subscribers, topic, payload, &mut sink);
    let hops_before = hops();
    let handoff = run(&publisher, &subscribers, topic, payload, &mut sink);
    (handoff, hops() - hops_before)
}

#[test]
fn warm_handoff_allocates_nothing_per_delivery() {
    /// Room for a buffer that meets its largest batch only in the
    /// measured phase (amortized growth, a few reallocations in all).
    const SLACK: u64 = 64;
    const PUBLISHES: u64 = ROUNDS * WINDOW;

    let topic = Topic::parse("conf7/audio").unwrap();
    let payload = Bytes::from(vec![0u8; 172]);

    let before = ALLOCS.load(Ordering::Relaxed);
    for seq in 0..PUBLISHES {
        let event = Event::new(
            topic.clone(),
            ClientId::from_raw(1),
            seq,
            EventClass::Rtp,
            payload.clone(),
        );
        std::hint::black_box(event.into_shared());
    }
    let control = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        control >= PUBLISHES,
        "the allocator sees the events: {control}"
    );

    for shards in [1, 2] {
        let (handoff, hops) = warm_pass(shards, &topic, &payload);
        // One shard has no ring; on two, every publish hops exactly once.
        assert_eq!(
            hops,
            (shards as u64 - 1) * PUBLISHES,
            "ring hops on {shards} shards"
        );
        assert!(
            handoff <= control + SLACK,
            "on {shards} shards, {} warm deliveries cost {handoff} allocations, \
             building their {PUBLISHES} events alone costs {control}",
            PUBLISHES * FANOUT as u64,
        );
    }
}
