//! Proves the routing fast path is allocation-free: once a topic's plan
//! is memoized and the caller's action buffer has grown to the fan-out,
//! publishing does not touch the heap at all — including with full
//! telemetry installed (counters and the fan-out histogram are relaxed
//! atomic increments into preallocated storage), whether the publish
//! builds actions (`handle_into`) or only counts and returns its plan
//! (`publish_plan`, the shard workers' entry), whether or not an
//! unrelated filter was just subscribed and dropped (the change evicts
//! no plan it cannot match), and including the wire
//! encode of every routed event when the frame buffer comes from a warm
//! buffer pool. An unpooled control phase re-encodes the same events
//! into fresh `BytesMut` buffers and shows the allocations come back,
//! so the zero reading measures the pool, not a blind spot. Resolving
//! gossip interest targets (`targets_for`, memoized per table stamp)
//! must also be free once warm.
//!
//! A final phase pins what a whole federation publish costs the
//! publishing thread: over loopback TCP to two remote nodes, at most
//! 1.01 allocations per publish — the event's `Arc`. The broker ingress
//! and both link queues are swap-whole buffers that keep their capacity,
//! and the links encode the frames on their own threads. Over the
//! in-process transport the publishing thread also runs both links and
//! both remote nodes' decode: exactly 7 allocations per publish, the
//! topic parsed by neither peer once it has seen it.
//!
//! This file holds exactly one test so the counting allocator sees no
//! traffic from sibling tests in the same binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use mmcs::broker::cluster::{Cluster, LatencyMap};
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

    // Phase 1c — churn beside the warm topic. Before each publish a
    // spare client subscribes to and drops an unrelated filter; the
    // change evicts only plans that filter matches, so every publish is
    // still a hit and still allocation-free. Only the publishes are
    // counted: the control inputs build their own state.
    let spare = ClientId::from_raw(10_000);
    node.handle(Input::AttachClient {
        client: spare,
        profile: Default::default(),
    })
    .unwrap();
    let other = TopicFilter::parse("other/#").unwrap();
    let (hits, misses) = (metrics.route_cache_hits.get(), metrics.route_cache_misses.get());
    let mut allocs = 0;
    for _ in 0..PUBLISHES {
        node.handle(Input::Subscribe {
            client: spare,
            filter: other.clone(),
        })
        .unwrap();
        node.handle(Input::Unsubscribe {
            client: spare,
            filter: other.clone(),
        })
        .unwrap();
        actions.clear();
        let before = thread_allocs();
        node.handle_into(
            Input::Publish {
                origin: Origin::Client(publisher),
                event: Arc::clone(&event),
            },
            &mut actions,
        )
        .unwrap();
        allocs += thread_allocs() - before;
        assert_eq!(actions.len(), FANOUT);
    }
    assert_eq!(
        allocs, 0,
        "a publish after unrelated churn must not allocate ({allocs} allocations across {PUBLISHES} publishes)",
    );
    assert_eq!(metrics.route_cache_hits.get(), hits + PUBLISHES);
    assert_eq!(metrics.route_cache_misses.get(), misses);
    assert_eq!(node.plan_cache_len(), 1);

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

    // Phase 4 — the federation layer's interest lookup. One
    // anti-entropy exchange teaches node 0 that node 1 subscribed a
    // filter covering the topic; from then on `targets_for` is an `Arc`
    // clone out of the stamp-keyed target cache. The warm-up call charges
    // the one-time cache entry.
    let filter = TopicFilter::parse("conf/1/#").unwrap();
    let mut remote = GossipState::new(1, 2);
    assert!(remote.subscribe(&filter));
    let mut local = GossipState::new(0, 2);
    let mut digest = Vec::new();
    local.digest_into(&mut digest);
    let fresh = remote.entries_newer_than(&digest);
    assert_eq!(local.apply(&fresh), 1);
    assert_eq!(&local.targets_for(&event.topic)[..], &[1]);
    let before = thread_allocs();
    for _ in 0..PUBLISHES {
        let targets = local.targets_for(&event.topic);
        assert_eq!(targets.len(), 1);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "warm federation target resolve must not allocate \
         ({} allocations across {} publishes)",
        after - before,
        PUBLISHES,
    );

    // Phase 5 — a whole federation publish over loopback TCP, to a home
    // subscriber and two remote nodes. The publishing thread builds the
    // event's `Arc`, hands it to its home broker's ingress and to each
    // next-hop link, and encodes nothing: the link threads write the
    // frames. What it allocates is that `Arc`. The three queues it
    // pushes onto are swap-whole buffer pairs that keep their capacity,
    // so besides the `Arc` it pays only when a buffer first outgrows the
    // queue's deepest backlog so far: a doubling, at most a dozen per
    // buffer whatever the scheduling (30–41 in all over 10,000 publishes
    // on a 2-core host), where a queue that allocates per send — the std
    // channel's block per 31 sends — costs 0.06 per publish. Topics and
    // payloads are built before the counted window.
    const REMOTE_PUBLISHES: u64 = 10_000;
    let cluster = Cluster::builder(LatencyMap::full_mesh(3, 1)).tcp().spawn();
    let subscribers: Vec<_> = (0..3).map(|zone| cluster.attach(zone)).collect();
    for subscriber in &subscribers {
        subscriber.subscribe(filter.clone());
    }
    assert!(cluster.converge(8), "interest gossip converged");
    let publisher = cluster.attach(0);
    let warm = 100;
    let topics = vec![event.topic.clone(); warm + REMOTE_PUBLISHES as usize];
    let payloads = vec![Bytes::from_static(&[0u8; 172]); warm + REMOTE_PUBLISHES as usize];
    let mut sends = topics.into_iter().zip(payloads);
    for (topic, payload) in sends.by_ref().take(warm) {
        publisher.publish_class(topic, EventClass::Rtp, payload);
    }
    cluster.quiesce();
    let forwards = || cluster.metrics().node(0).inter_node_forwards.get();
    let forwarded = forwards();
    let before = thread_allocs();
    for (topic, payload) in sends {
        publisher.publish_class(topic, EventClass::Rtp, payload);
    }
    let allocs = thread_allocs() - before;
    assert_eq!(forwards() - forwarded, 2 * REMOTE_PUBLISHES, "two remote nodes each");
    assert!(
        allocs * 100 <= REMOTE_PUBLISHES * 101,
        "a federation publish allocates at most 1.01 times on the publishing \
         thread ({allocs} allocations across {REMOTE_PUBLISHES} publishes)",
    );
    cluster.quiesce();
    for subscriber in &subscribers {
        let mut got = Vec::new();
        subscriber.drain_into(&mut got);
        assert_eq!(got.len(), warm + REMOTE_PUBLISHES as usize, "every publish delivered");
    }
    drop((publisher, subscribers, cluster));

    // Phase 6 — the arriving side. In process a link is a call into the
    // peer's data plane, so the publishing thread also encodes each
    // remote node's frame and that node decodes it and injects the
    // event: the counter sees both ends. Per publish: the event's `Arc`,
    // and per remote node the frame (`BytesMut` + its shared handle) and
    // the decoded `Arc<Event>`. The topic is parsed once per node, at
    // warm-up; every later frame shares that node's `Topic`. The slack
    // covers the ingress buffers' doublings, as in phase 5.
    const PER_PUBLISH: u64 = 1 + 2 * 3;
    let cluster = Cluster::builder(LatencyMap::full_mesh(3, 1)).spawn();
    let subscribers: Vec<_> = (0..3).map(|zone| cluster.attach(zone)).collect();
    for subscriber in &subscribers {
        subscriber.subscribe(filter.clone());
    }
    assert!(cluster.converge(8), "interest gossip converged");
    let publisher = cluster.attach(0);
    let topics = vec![event.topic.clone(); warm + REMOTE_PUBLISHES as usize];
    let payloads = vec![Bytes::from_static(&[0u8; 172]); warm + REMOTE_PUBLISHES as usize];
    let mut sends = topics.into_iter().zip(payloads);
    for (topic, payload) in sends.by_ref().take(warm) {
        publisher.publish_class(topic, EventClass::Rtp, payload);
    }
    cluster.quiesce();
    let before = thread_allocs();
    for (topic, payload) in sends {
        publisher.publish_class(topic, EventClass::Rtp, payload);
    }
    let allocs = thread_allocs() - before;
    assert!(
        (PER_PUBLISH * REMOTE_PUBLISHES..=PER_PUBLISH * REMOTE_PUBLISHES + REMOTE_PUBLISHES / 100)
            .contains(&allocs),
        "an in-process publish to two remote nodes allocates {PER_PUBLISH} times, plus at \
         most 0.01 for queue growth ({allocs} allocations across {REMOTE_PUBLISHES} publishes)",
    );
    cluster.quiesce();
    for subscriber in &subscribers {
        let mut got = Vec::new();
        subscriber.drain_into(&mut got);
        assert_eq!(got.len(), warm + REMOTE_PUBLISHES as usize, "every publish delivered");
    }
}
