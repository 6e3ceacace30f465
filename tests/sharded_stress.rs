//! Concurrency stress on the live broker runtime, on real OS threads
//! (no virtual time).
//!
//! Sharded: a detector-supervised soak — 4 shards, 8 concurrent
//! publisher threads, 100k events, with **exact** per-shard counter
//! totals cross-checked against `ShardedBrokerMetrics` snapshots, the
//! same totals for 100k events entering through `inject` — and
//! shutdown during traffic. Single shard (the plain one-loop broker):
//! client churn while publishers blast, subscription add/remove races,
//! and the queue-depth gauge discipline. Then the hand-off contract,
//! one test per clause: no lost wake-up, closed means closed, the bound
//! binds, a barrier is a barrier. In debug builds the
//! instrumented `parking_lot` shim's lock-order deadlock detector
//! supervises every acquisition; any inversion panics a worker or
//! publisher thread and fails the joins.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mmcs::broker::event::{Event, EventClass};
use mmcs::broker::metrics::ShardedBrokerMetrics;
use mmcs::broker::sharded::{ShardedBroker, ShardedClient};
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs_util::id::ClientId;

const SHARDS: usize = 4;
const PUBLISHERS: usize = 8;
const PER_PUBLISHER: u64 = 12_500;
const TOTAL: u64 = PUBLISHERS as u64 * PER_PUBLISHER;

#[test]
fn four_shard_soak_has_exact_counters() {
    #[cfg(debug_assertions)]
    assert!(
        parking_lot::deadlock::is_active(),
        "debug build must carry the deadlock detector"
    );

    let metrics = ShardedBrokerMetrics::detached(SHARDS);
    let broker = Arc::new(ShardedBroker::spawn_with_metrics(Arc::clone(&metrics)));
    // Two full-wildcard subscribers; their (possibly equal) home shards
    // are where every event must land exactly once each.
    let sub_a = broker.attach();
    let sub_b = broker.attach();
    sub_a.subscribe(TopicFilter::parse("#").unwrap());
    sub_b.subscribe(TopicFilter::parse("#").unwrap());
    broker.quiesce();

    // Each publisher owns one first-segment family, so its events have
    // one deterministic owner shard and per-source order is total.
    let mut handles = Vec::new();
    for p in 0..PUBLISHERS {
        let broker = Arc::clone(&broker);
        handles.push(std::thread::spawn(move || {
            let publisher = broker.attach();
            let topic = Topic::parse(&format!("fam{p}/events")).unwrap();
            for _ in 0..PER_PUBLISHER {
                publisher.publish(topic.clone(), Bytes::new());
            }
        }));
    }
    for handle in handles {
        handle
            .join()
            .expect("no publisher may panic (deadlock detector supervises in debug)");
    }
    broker.quiesce();

    let mut owned = [0u64; SHARDS]; // direct publishes per owner shard
    for p in 0..PUBLISHERS {
        let topic = Topic::parse(&format!("fam{p}/events")).unwrap();
        owned[broker.shard_for_topic(&topic)] += PER_PUBLISHER;
    }
    assert_exact_counters(&metrics, &broker, &owned, [&sub_a, &sub_b]);
    assert_every_event_drained_in_order([&sub_a, &sub_b], TOTAL, PUBLISHERS);

    // In debug builds, no broker lock may have been held past the
    // watchdog threshold either.
    #[cfg(debug_assertions)]
    {
        let broker_holds: Vec<_> = parking_lot::deadlock::long_holds()
            .into_iter()
            .filter(|h| h.site.contains("crates/broker"))
            .collect();
        assert!(
            broker_holds.is_empty(),
            "broker locks held past the watchdog threshold: {broker_holds:?}"
        );
    }
}

/// The same exact counters when every event enters through
/// `ShardedBroker::inject` — the federation's way in — instead of a
/// client publish: the owner shard counts it, delivers it to the
/// subscribers homed there and hops it once to every other subscriber
/// home, where it is counted again as it arrives.
#[test]
fn four_shard_inject_has_exact_counters() {
    const FAMILIES: usize = 8;
    const EACH: u64 = TOTAL / FAMILIES as u64;
    let metrics = ShardedBrokerMetrics::detached(SHARDS);
    let broker = ShardedBroker::spawn_with_metrics(Arc::clone(&metrics));
    let sub_a = broker.attach();
    let sub_b = broker.attach();
    sub_a.subscribe(TopicFilter::parse("#").unwrap());
    sub_b.subscribe(TopicFilter::parse("#").unwrap());
    broker.quiesce();

    let mut owned = [0u64; SHARDS];
    for f in 0..FAMILIES {
        let topic = Topic::parse(&format!("fam{f}/remote")).unwrap();
        owned[broker.shard_for_topic(&topic)] += EACH;
        // One publisher per family, attached to another node.
        let source = ClientId::from_raw(1_000_000 + f as u64);
        for seq in 0..EACH {
            let event = Event::new(topic.clone(), source, seq, EventClass::Data, Bytes::new());
            broker.inject(event.into_shared());
        }
    }
    broker.quiesce();
    assert_exact_counters(&metrics, &broker, &owned, [&sub_a, &sub_b]);
    assert_every_event_drained_in_order([&sub_a, &sub_b], TOTAL, FAMILIES);
}

/// Pins every shard's counters when `owned[s]` of `TOTAL` events entered
/// shard `s` from outside the ring and both subscribers hear all of them.
fn assert_exact_counters(
    metrics: &ShardedBrokerMetrics,
    broker: &ShardedBroker,
    owned: &[u64; SHARDS],
    subscribers: [&ShardedClient; 2],
) {
    let homes: HashSet<usize> = subscribers
        .iter()
        .map(|sub| broker.home_shard(sub.id()))
        .collect();
    let mut subs_at_home = [0u64; SHARDS];
    for sub in subscribers {
        subs_at_home[broker.home_shard(sub.id())] += 1;
    }
    for shard in 0..SHARDS {
        let m = metrics.shard(shard);
        // Events entering a shard: its own, plus one forwarded copy of
        // every *other* shard's event if a subscriber lives here.
        let forwarded_in = if homes.contains(&shard) {
            TOTAL - owned[shard]
        } else {
            0
        };
        assert_eq!(
            m.events_in.get(),
            owned[shard] + forwarded_in,
            "events_in on shard {shard}"
        );
        // Ring sends: one per event per distinct remote subscriber home.
        let remote_homes = homes.iter().filter(|h| **h != shard).count() as u64;
        assert_eq!(
            m.cross_shard_forwards.get(),
            owned[shard] * remote_homes,
            "cross_shard_forwards on shard {shard}"
        );
        // Deliveries happen only at subscriber homes: every event, once
        // per subscriber homed here.
        assert_eq!(
            m.deliveries.get(),
            TOTAL * subs_at_home[shard],
            "deliveries on shard {shard}"
        );
        // Fan-out histogram records once per routed event.
        assert_eq!(m.fanout.count(), owned[shard] + forwarded_in);
        assert_eq!(m.unroutable.get(), 0, "unroutable on shard {shard}");
        // Quiesced: ingress queues fully drained.
        assert_eq!(m.queue_depth.get(), 0, "queue_depth on shard {shard}");
    }
    // Global identities.
    assert_eq!(
        metrics.total(|s| s.events_in.get()),
        TOTAL + metrics.total(|s| s.cross_shard_forwards.get())
    );
    assert_eq!(metrics.total(|s| s.deliveries.get()), TOTAL * 2);
    assert!(metrics.total(|s| s.batch_size.count()) > 0);
}

/// Each subscriber drains exactly `total` events from `sources` sources,
/// in per-source order (each source uses one topic, so source order is
/// topic order).
fn assert_every_event_drained_in_order(
    subscribers: [&ShardedClient; 2],
    total: u64,
    sources: usize,
) {
    for (name, sub) in ["a", "b"].into_iter().zip(subscribers) {
        let mut last_seq: HashMap<u64, u64> = HashMap::new();
        let mut got = 0u64;
        while let Some(event) = sub.try_recv() {
            let source = event.source.value();
            if let Some(prev) = last_seq.get(&source) {
                assert!(
                    event.seq > *prev,
                    "subscriber {name}: source {source} out of order"
                );
            }
            last_seq.insert(source, event.seq);
            got += 1;
        }
        assert_eq!(got, total, "subscriber {name} delivery count");
        assert_eq!(last_seq.len(), sources, "subscriber {name} source count");
    }
}

/// Shutdown mid-soak, on the single-loop broker and on four shards:
/// publishers spinning on backpressure must unblock (their sends go
/// nowhere) and no thread may hang or panic.
#[test]
fn shutdown_under_load_is_clean() {
    for shards in [1, SHARDS] {
        let broker = Arc::new(ShardedBroker::builder(shards).capacity(64).spawn());
        let subscriber = broker.attach();
        subscriber.subscribe(TopicFilter::parse("#").unwrap());
        broker.quiesce();
        let mut handles = Vec::new();
        for p in 0..4 {
            let broker = Arc::clone(&broker);
            handles.push(std::thread::spawn(move || {
                let publisher = broker.attach();
                let topic = Topic::parse(&format!("load{p}/x")).unwrap();
                for _ in 0..5_000 {
                    publisher.publish(topic.clone(), Bytes::new());
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(5));
        broker.shutdown();
        for handle in handles {
            handle.join().expect("publisher must unblock after shutdown");
        }
        // Drain whatever made it through before shutdown.
        while subscriber.recv_timeout(Duration::from_millis(50)).is_some() {}
    }
}

#[test]
fn churn_does_not_lose_stable_subscribers() {
    let broker = Arc::new(ShardedBroker::spawn(1));
    let stable = broker.attach();
    stable.subscribe(TopicFilter::parse("load/#").unwrap());

    // Churners attach, subscribe, receive a bit, and vanish, while two
    // publishers keep a steady stream going.
    let mut handles = Vec::new();
    for worker in 0..2 {
        let broker = Arc::clone(&broker);
        handles.push(std::thread::spawn(move || {
            let publisher = broker.attach();
            for i in 0..300 {
                publisher.publish(
                    Topic::parse(&format!("load/{worker}")).unwrap(),
                    Bytes::from(format!("{i}").into_bytes()),
                );
                if i % 50 == 0 {
                    std::thread::yield_now();
                }
            }
        }));
    }
    for _ in 0..3 {
        let broker = Arc::clone(&broker);
        handles.push(std::thread::spawn(move || {
            for _ in 0..20 {
                let churner = broker.attach();
                churner.subscribe(TopicFilter::parse("load/#").unwrap());
                let _ = churner.recv_timeout(Duration::from_millis(1));
                drop(churner); // detach
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    let mut received = 0;
    while stable.recv_timeout(Duration::from_millis(500)).is_some() {
        received += 1;
        if received == 600 {
            break;
        }
    }
    assert_eq!(received, 600, "stable subscriber must see every event");
}

#[test]
fn unsubscribe_race_converges() {
    let broker = ShardedBroker::spawn(1);
    let publisher = broker.attach();
    let subscriber = broker.attach();
    // Rapid subscribe/unsubscribe cycles end subscribed.
    for _ in 0..50 {
        subscriber.subscribe(TopicFilter::parse("flip").unwrap());
        subscriber.unsubscribe(TopicFilter::parse("flip").unwrap());
    }
    subscriber.subscribe(TopicFilter::parse("flip").unwrap());
    publisher.publish(Topic::parse("flip").unwrap(), Bytes::new());
    assert!(
        subscriber.recv_timeout(Duration::from_secs(2)).is_some(),
        "final subscribe must win"
    );
}

/// Positive run under the lock-order deadlock detector: the same churn
/// the other tests apply, executed while the instrumented `parking_lot`
/// shim watches every acquisition. Any lock-order inversion in the
/// single-loop broker would panic the worker or a client thread; the
/// watchdog must also stay quiet for broker-owned locks (its hot-path
/// holds are microseconds).
#[cfg(debug_assertions)]
#[test]
fn stress_is_lock_inversion_free_under_detector() {
    use parking_lot::deadlock;
    assert!(deadlock::is_active(), "debug build must carry the detector");
    let broker = Arc::new(ShardedBroker::spawn(1));
    let stable = broker.attach();
    stable.subscribe(TopicFilter::parse("det/#").unwrap());
    let mut handles = Vec::new();
    for worker in 0..3 {
        let broker = Arc::clone(&broker);
        handles.push(std::thread::spawn(move || {
            let publisher = broker.attach();
            for i in 0..200 {
                publisher.publish(
                    Topic::parse(&format!("det/{worker}")).unwrap(),
                    Bytes::from(format!("{i}").into_bytes()),
                );
            }
        }));
    }
    for _ in 0..2 {
        let broker = Arc::clone(&broker);
        handles.push(std::thread::spawn(move || {
            for _ in 0..15 {
                let churner = broker.attach();
                churner.subscribe(TopicFilter::parse("det/#").unwrap());
                let _ = churner.recv_timeout(Duration::from_millis(1));
                drop(churner);
            }
        }));
    }
    for handle in handles {
        handle.join().expect("no thread may trip the deadlock detector");
    }
    let mut received = 0;
    while stable.recv_timeout(Duration::from_millis(500)).is_some() {
        received += 1;
        if received == 600 {
            break;
        }
    }
    assert_eq!(received, 600, "delivery must be unaffected by the detector");
    let broker_holds: Vec<_> = deadlock::long_holds()
        .into_iter()
        .filter(|h| h.site.contains("crates/broker"))
        .collect();
    assert!(
        broker_holds.is_empty(),
        "broker locks held past the watchdog threshold: {broker_holds:?}"
    );
}

/// Regression: the queue-depth gauge is incremented **before** the
/// command is enqueued, so the shard worker's decrement can never race
/// it below zero. A concurrent sampler watches the gauge while four
/// publishers hammer the queue; with the old increment-after-enqueue
/// ordering the loop could dequeue (and decrement) between the two
/// steps and the sampler would observe a negative depth.
#[test]
fn queue_depth_gauge_never_underflows() {
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

    let bundle = ShardedBrokerMetrics::detached(1);
    let metrics = Arc::clone(bundle.shard(0));
    let broker = Arc::new(ShardedBroker::spawn_with_metrics(bundle));
    let subscriber = broker.attach();
    subscriber.subscribe(TopicFilter::parse("q/#").unwrap());

    let stop = Arc::new(AtomicBool::new(false));
    let min_seen = Arc::new(AtomicI64::new(0));
    let sampler = {
        let metrics = Arc::clone(&metrics);
        let stop = Arc::clone(&stop);
        let min_seen = Arc::clone(&min_seen);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let depth = metrics.queue_depth.get();
                min_seen.fetch_min(depth, Ordering::Relaxed);
            }
        })
    };
    let mut handles = Vec::new();
    for _ in 0..4 {
        let broker = Arc::clone(&broker);
        handles.push(std::thread::spawn(move || {
            let publisher = broker.attach();
            for _ in 0..2_000 {
                publisher.publish(Topic::parse("q/x").unwrap(), Bytes::new());
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    let mut received = 0;
    while subscriber.recv_timeout(Duration::from_millis(500)).is_some() {
        received += 1;
        if received == 8_000 {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    sampler.join().unwrap();
    assert_eq!(received, 8_000);
    assert!(
        min_seen.load(Ordering::Relaxed) >= 0,
        "queue-depth gauge underflowed to {}",
        min_seen.load(Ordering::Relaxed)
    );
    // Fully drained: the gauge must read empty.
    assert_eq!(metrics.queue_depth.get(), 0);
    // Revert path: once the loop is gone, a rejected send must take its
    // depth bump back and the gauge must stay non-negative.
    broker.shutdown();
    for _ in 0..500 {
        if metrics.queue_depth.get() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let publisher = broker.attach();
    publisher.publish(Topic::parse("q/x").unwrap(), Bytes::new());
    assert!(
        metrics.queue_depth.get() >= 0,
        "rejected sends must never drive the gauge negative"
    );
}

fn topic(s: &str) -> Topic {
    Topic::parse(s).unwrap()
}

fn filter(s: &str) -> TopicFilter {
    TopicFilter::parse(s).unwrap()
}

/// Hand-off contract (a), *no lost wake-up*: a publish → `recv_timeout`
/// ping-pong in which every side goes idle every turn — the receiver
/// asleep on its empty mailbox, the owner worker (and, on four shards,
/// the home worker behind the ring hop) watching its empty ingress. The
/// last `SLOW_TURNS` pause first, longer than a worker watches before it
/// sleeps, so those publishes find the workers asleep too. A wake-up
/// lost anywhere leaves the receiver asleep until its 2 s timeout (it
/// then finds the event, or `None`): one turn over a second fails the
/// test. Wake-ups issued to peers that are not asleep show as a run far
/// over the bound.
#[test]
fn ping_pong_loses_no_wake_up() {
    const TURNS: u64 = 50_000;
    const SLOW_TURNS: u64 = 300;
    for shards in [1, SHARDS] {
        let broker = ShardedBroker::spawn(shards);
        let publisher = broker.attach();
        let subscriber = broker.attach();
        subscriber.subscribe(filter("ping/#"));
        broker.quiesce();
        let start = Instant::now();
        for turn in 0..TURNS {
            if turn >= TURNS - SLOW_TURNS {
                std::thread::sleep(Duration::from_millis(3));
            }
            let sent = Instant::now();
            publisher.publish(topic("ping/x"), Bytes::new());
            let event = subscriber.recv_timeout(Duration::from_secs(2));
            let took = sent.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "turn {turn} on {shards} shard(s) took {took:?}: wake-up lost"
            );
            assert_eq!(event.map(|e| e.seq), Some(turn));
        }
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(10),
            "{TURNS} turns on {shards} shard(s) took {took:?}"
        );
    }
}

/// Hand-off contract (b), *closed means closed*: once the home worker
/// has let go of a client — it exited, or it processed the client's
/// detach — `recv_timeout` hands out what was delivered before, then
/// returns `None` at once, whether it was already asleep or called
/// later.
#[test]
fn a_closed_mailbox_wakes_and_refuses_receivers() {
    let long = Duration::from_secs(5);
    let prompt = Duration::from_millis(100);

    // A receiver already asleep when the broker shuts down.
    let broker = ShardedBroker::spawn(2);
    let publisher = broker.attach();
    let sleeper = broker.attach();
    let late = broker.attach();
    sleeper.subscribe(filter("c/#"));
    late.subscribe(filter("c/#"));
    for _ in 0..3 {
        publisher.publish(topic("c/x"), Bytes::new());
    }
    broker.quiesce();
    let about_to_wait = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            about_to_wait.wait();
            let mut before_close = 0;
            while sleeper.recv_timeout(long).is_some() {
                before_close += 1;
            }
            (before_close, Instant::now())
        });
        about_to_wait.wait();
        // Lets the waiter take its three events and fall asleep on the
        // fourth call; the bounds hold whichever side of the close that
        // call starts on.
        std::thread::sleep(Duration::from_millis(50));
        broker.shutdown();
        drop(broker); // joins the workers
        let exited = Instant::now();
        let (before_close, woke) = waiter.join().expect("waiter thread");
        assert_eq!(before_close, 3, "events queued before the close come first");
        let lag = woke.saturating_duration_since(exited);
        assert!(lag < prompt, "woke {lag:?} after the workers exited");
    });
    // A receiver that only asks after the close.
    let start = Instant::now();
    let mut before_close = 0;
    while late.recv_timeout(long).is_some() {
        before_close += 1;
    }
    assert_eq!(before_close, 3);
    assert!(start.elapsed() < prompt, "took {:?}", start.elapsed());

    // The client's own detach, once processed, closes its mailbox too.
    let broker = ShardedBroker::spawn(2);
    let publisher = broker.attach();
    let leaver = broker.attach();
    leaver.subscribe(filter("c/#"));
    for _ in 0..3 {
        publisher.publish(topic("c/x"), Bytes::new());
    }
    broker.quiesce();
    leaver.detach();
    broker.quiesce();
    let start = Instant::now();
    let mut before_close = 0;
    while leaver.recv_timeout(long).is_some() {
        before_close += 1;
    }
    assert_eq!(before_close, 3);
    assert!(start.elapsed() < prompt, "took {:?}", start.elapsed());
}

/// Hand-off contract (c), *the bound binds*: with the owner shard
/// stalled, producers fill the ingress to its capacity and sleep; the
/// gauge never reads past the bound (plus one in-flight command per
/// producer, which the contract allows), nothing is lost or reordered,
/// and `shutdown()` releases producers that would otherwise sleep for
/// as long as the worker does.
#[test]
fn the_ingress_bound_binds_and_shutdown_releases_it() {
    const CAPACITY: usize = 4;
    const PRODUCERS: usize = 4;
    const EACH: u64 = 2_000;
    let bundle = ShardedBrokerMetrics::detached(1);
    let depth = Arc::clone(&bundle.shard(0).queue_depth);
    let broker = ShardedBroker::builder(1)
        .capacity(CAPACITY)
        .metrics(bundle)
        .spawn();
    let subscriber = broker.attach();
    subscriber.subscribe(filter("b/#"));
    broker.quiesce();
    broker.stall_shard(0, Duration::from_millis(100));
    let deepest = std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (broker, depth) = (&broker, &depth);
                scope.spawn(move || {
                    let publisher = broker.attach();
                    let mut deepest = 0;
                    for _ in 0..EACH {
                        publisher.publish(topic(&format!("b/{p}")), Bytes::new());
                        deepest = deepest.max(depth.get());
                    }
                    deepest
                })
            })
            .collect();
        let deepest = producers.into_iter().map(|p| p.join().expect("producer"));
        deepest.max().expect("some producer")
    });
    assert!(
        (CAPACITY as i64..=(CAPACITY + PRODUCERS) as i64).contains(&deepest),
        "queue_depth peaked at {deepest}: the stall must fill the queue, the bound must hold it"
    );
    broker.quiesce();
    let mut got = Vec::new();
    assert_eq!(subscriber.drain_into(&mut got), PRODUCERS * EACH as usize);
    let mut next: HashMap<u64, u64> = HashMap::new();
    for event in &got {
        let expected = next.entry(event.source.value()).or_insert(0);
        assert_eq!(event.seq, *expected, "source {} out of order", event.source.value());
        *expected += 1;
    }
    assert_eq!(next.len(), PRODUCERS);

    // Stall again, let the producers pile up against the bound, then
    // shut down: they must come back long before the worker wakes.
    let stall = Duration::from_secs(1);
    broker.stall_shard(0, stall);
    while depth.get() != 0 {
        std::thread::yield_now(); // the worker has not reached the stall yet
    }
    let shut_down = std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let broker = &broker;
            scope.spawn(move || {
                let publisher = broker.attach();
                for _ in 0..EACH {
                    publisher.publish(topic(&format!("b/{p}")), Bytes::new());
                }
            });
        }
        while depth.get() < CAPACITY as i64 {
            std::thread::yield_now();
        }
        let shut_down = Instant::now();
        broker.shutdown();
        shut_down // leaving the scope joins every producer
    });
    let released = shut_down.elapsed();
    assert!(released < stall / 2, "producers came back {released:?} after shutdown()");
}

/// Hand-off contract (d), *a barrier is a barrier*: when `quiesce()`
/// returns, every delivery of every earlier publish — ring hops
/// included — is already in its mailbox, so ONE `drain_into` per
/// subscriber finds exactly the expected count. No timeout, no sleep.
#[test]
fn quiesce_makes_every_earlier_delivery_drainable() {
    const ROUNDS: usize = 20;
    const EACH: usize = 250;
    let broker = ShardedBroker::spawn(SHARDS);
    let subscribers: Vec<_> = (0..6).map(|_| broker.attach()).collect();
    for (i, subscriber) in subscribers.iter().enumerate() {
        // Half hear everything, half one family.
        let family = if i % 2 == 0 { "#".to_owned() } else { format!("fam{}/#", i % 4) };
        subscriber.subscribe(filter(&family));
    }
    broker.quiesce();
    let mut sink = Vec::new();
    for round in 0..ROUNDS {
        std::thread::scope(|scope| {
            for p in 0..4 {
                let broker = &broker;
                scope.spawn(move || {
                    let publisher = broker.attach();
                    for _ in 0..EACH {
                        publisher.publish(topic(&format!("fam{p}/x")), Bytes::new());
                    }
                });
            }
        });
        broker.quiesce();
        for (i, subscriber) in subscribers.iter().enumerate() {
            let expected = if i % 2 == 0 { 4 * EACH } else { EACH };
            sink.clear();
            assert_eq!(
                subscriber.drain_into(&mut sink),
                expected,
                "round {round}, subscriber {i}"
            );
            assert_eq!(subscriber.drain_into(&mut sink), 0);
        }
    }
}
