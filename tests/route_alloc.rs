//! Proves the routing fast path is allocation-free: once a topic's plan
//! is memoized and the caller's action buffer has grown to the fan-out,
//! publishing does not touch the heap at all — including with full
//! telemetry installed (counters and the fan-out histogram are relaxed
//! atomic increments into preallocated storage), whether the publish
//! builds actions (`handle_into`) or only counts and returns its plan
//! (`publish_plan`, the shard workers' entry), and including the wire
//! encode of every routed event when the frame buffer comes from a warm
//! buffer pool. An unpooled control phase re-encodes the same events
//! into fresh `BytesMut` buffers and shows the allocations come back,
//! so the zero reading measures the pool, not a blind spot. A final
//! phase stacks the federation layer on top: resolving gossip interest
//! targets (`targets_for`, memoized per table stamp) and wrapping the
//! event in the 16-byte `ClusterFrame` envelope must also be free once
//! warm.
//!
//! This file holds exactly one test so the counting allocator sees no
//! traffic from sibling tests in the same binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use mmcs::broker::cluster::{encode_event_frame, CLUSTER_HEADER_LEN};
use mmcs::broker::event::{Event, EventClass};
use mmcs::broker::gossip::GossipState;
use mmcs::broker::metrics::BrokerMetrics;
use mmcs::broker::node::{Action, BrokerNode, Input, Origin};
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs::broker::wire;
use mmcs_util::id::{BrokerId, ClientId};
use mmcs_util::pool;

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

#[test]
fn warm_publish_allocates_nothing() {
    const FANOUT: usize = 100;
    const PUBLISHES: u64 = 1000;

    let mut node = BrokerNode::new(BrokerId::from_raw(1));
    let metrics = BrokerMetrics::detached();
    node.set_metrics(Arc::clone(&metrics));
    let topic = Topic::parse("conf/1/video").unwrap();
    for i in 0..FANOUT {
        let client = ClientId::from_raw(i as u64 + 1);
        node.handle(Input::AttachClient {
            client,
            profile: Default::default(),
        })
        .unwrap();
        node.handle(Input::Subscribe {
            client,
            filter: TopicFilter::exact(&topic),
        })
        .unwrap();
    }
    let publisher = ClientId::from_raw(9999);
    node.handle(Input::AttachClient {
        client: publisher,
        profile: Default::default(),
    })
    .unwrap();
    let event = Event::new(
        topic,
        publisher,
        0,
        EventClass::Rtp,
        Bytes::from(vec![0u8; 1000]),
    )
    .into_shared();

    // Warm-up: builds and memoizes the plan, grows the action buffer.
    let mut actions: Vec<Action> = Vec::new();
    node.handle_into(
        Input::Publish {
            origin: Origin::Client(publisher),
            event: Arc::clone(&event),
        },
        &mut actions,
    )
    .unwrap();
    assert_eq!(actions.len(), FANOUT);
    let generation = node.generation();

    let before = thread_allocs();
    for _ in 0..PUBLISHES {
        actions.clear();
        node.handle_into(
            Input::Publish {
                origin: Origin::Client(publisher),
                event: Arc::clone(&event),
            },
            &mut actions,
        )
        .unwrap();
        assert_eq!(actions.len(), FANOUT);
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "warm route path must not allocate ({} allocations across {} publishes)",
        after - before,
        PUBLISHES,
    );
    // The plan was served from cache the whole time, and telemetry saw
    // every one of those warm publishes without costing an allocation.
    assert_eq!(node.generation(), generation);
    assert_eq!(node.plan_cache_len(), 1);
    // The warm-up publish built the plan (one miss); every timed
    // publish hit the cache.
    assert_eq!(metrics.route_cache_misses.get(), 1);
    assert_eq!(metrics.route_cache_hits.get(), PUBLISHES);
    assert_eq!(metrics.events_in.get(), PUBLISHES + 1);
    assert_eq!(metrics.fanout.snapshot().count(), PUBLISHES + 1);

    // Phase 1b — the same publishes through `publish_plan`, the entry a
    // shard worker fans out from: validation, counters, the instruments
    // and one plan clone, with no action buffer at all.
    let before = thread_allocs();
    for _ in 0..PUBLISHES {
        let plan = node
            .publish_plan(Origin::Client(publisher), &event.topic)
            .unwrap();
        assert_eq!(plan.local.len(), FANOUT);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "warm publish_plan must not allocate ({} allocations across {} publishes)",
        after - before,
        PUBLISHES,
    );
    assert_eq!(metrics.route_cache_hits.get(), 2 * PUBLISHES);
    assert_eq!(metrics.events_in.get(), 2 * PUBLISHES + 1);
    assert_eq!(
        metrics.deliveries.get(),
        (2 * PUBLISHES + 1) * FANOUT as u64
    );
    assert_eq!(metrics.fanout.snapshot().count(), 2 * PUBLISHES + 1);

    // Phase 2 — publish → deliver → wire-encode, pooled. One warm-up
    // encode charges the pool's one-time class allocation; after that,
    // acquire → encode_into → drop recycles the same buffer and the
    // whole loop stays off the heap. (Plain drop, not `freeze`: the
    // shared-`Bytes` handle costs one `Arc`, which belongs on the
    // cross-thread hand-off path, not in this proof.)
    {
        let mut warm = pool::acquire(wire::encoded_len(&event));
        wire::encode_into(&event, &mut warm);
        drop(warm);
    }
    let pool_before = pool::stats();
    let before = thread_allocs();
    for _ in 0..PUBLISHES {
        actions.clear();
        node.handle_into(
            Input::Publish {
                origin: Origin::Client(publisher),
                event: Arc::clone(&event),
            },
            &mut actions,
        )
        .unwrap();
        assert_eq!(actions.len(), FANOUT);
        let mut frame = pool::acquire(wire::encoded_len(&event));
        wire::encode_into(&event, &mut frame);
        assert_eq!(frame.len(), wire::encoded_len(&event));
        drop(frame);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "warm publish→deliver→wire-encode path must not allocate \
         ({} allocations across {} publishes)",
        after - before,
        PUBLISHES,
    );
    let pool_after = pool::stats();
    assert_eq!(
        pool_after.hits - pool_before.hits,
        PUBLISHES,
        "every encode was served from the warm free list"
    );
    assert_eq!(pool_after.misses, pool_before.misses);

    // Phase 3 — control: the same encode into a fresh `BytesMut` per
    // publish. If the counting allocator were blind to this path the
    // zero above would be meaningless; instead every iteration's buffer
    // shows up.
    let before = thread_allocs();
    for _ in 0..PUBLISHES {
        let mut frame = BytesMut::with_capacity(wire::encoded_len(&event));
        wire::encode_into(&event, &mut frame);
        assert_eq!(frame.len(), wire::encoded_len(&event));
    }
    let after = thread_allocs();
    assert!(
        after - before >= PUBLISHES,
        "unpooled control must allocate per publish (saw {} across {})",
        after - before,
        PUBLISHES,
    );

    // Phase 4 — the federation layer on top of the same event. One
    // anti-entropy exchange teaches node 0 that node 1 subscribed a
    // filter covering the topic; from then on the cluster publish hot
    // path is `targets_for` (an `Arc` clone out of the stamp-keyed
    // route cache) plus the 16-byte envelope encode into a pooled
    // frame. The warm-up block charges the one-time costs: the target
    // cache entry and any new pool class for the envelope-sized frame.
    let filter = TopicFilter::parse("conf/1/#").unwrap();
    let mut remote = GossipState::new(1, 2);
    assert!(remote.subscribe(&filter));
    let mut local = GossipState::new(0, 2);
    let mut digest = Vec::new();
    local.digest_into(&mut digest);
    let fresh = remote.entries_newer_than(&digest);
    assert_eq!(local.apply(&fresh), 1);
    {
        let targets = local.targets_for(&event.topic);
        assert_eq!(&targets[..], &[1]);
        let generation = local.entry(1).generation;
        let frame = encode_event_frame(0, 1, 0, generation, &event);
        assert_eq!(frame.len(), CLUSTER_HEADER_LEN + wire::encoded_len(&event));
        drop(frame);
    }
    let pool_before = pool::stats();
    let before = thread_allocs();
    for _ in 0..PUBLISHES {
        let targets = local.targets_for(&event.topic);
        assert_eq!(targets.len(), 1);
        for &target in targets.iter() {
            let generation = local.entry(target).generation;
            let frame = encode_event_frame(0, target, 0, generation, &event);
            assert_eq!(frame.len(), CLUSTER_HEADER_LEN + wire::encoded_len(&event));
            drop(frame);
        }
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "warm federation target-resolve + envelope-encode path must not \
         allocate ({} allocations across {} publishes)",
        after - before,
        PUBLISHES,
    );
    let pool_after = pool::stats();
    assert_eq!(
        pool_after.hits - pool_before.hits,
        PUBLISHES,
        "every envelope frame was served from the warm free list"
    );
    assert_eq!(pool_after.misses, pool_before.misses);
}
