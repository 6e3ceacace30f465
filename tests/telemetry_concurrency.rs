//! Concurrency guarantees of the telemetry primitives: eight threads
//! hammering one shared `Counter`/`Gauge`/`Histogram` lose nothing and
//! tear nothing, and the instrumented live broker runtime keeps the
//! lock-order deadlock detector silent while metrics are live.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use mmcs::broker::metrics::ShardedBrokerMetrics;
use mmcs::broker::sharded::ShardedBroker;
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs::telemetry::{Counter, Gauge, Histogram};

const THREADS: u64 = 8;
const OPS: u64 = 100_000;

#[test]
fn shared_instruments_survive_eight_threads_of_contention() {
    let counter = Arc::new(Counter::new());
    let gauge = Arc::new(Gauge::new());
    let histogram = Arc::new(Histogram::new());

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let counter = Arc::clone(&counter);
        let gauge = Arc::clone(&gauge);
        let histogram = Arc::clone(&histogram);
        handles.push(std::thread::spawn(move || {
            for i in 0..OPS {
                counter.inc();
                // Balanced add/sub pairs: the gauge must come back to 0.
                if i % 2 == 0 {
                    gauge.add(3);
                } else {
                    gauge.sub(3);
                }
                // Spread values across both histogram regimes; the
                // per-thread offset decorrelates bucket contention.
                histogram.record(t * 1000 + (i % 997));
            }
        }));
    }
    for handle in handles {
        handle.join().expect("no telemetry op may panic");
    }

    // Exact totals: nothing lost to races, nothing double-counted.
    assert_eq!(counter.get(), THREADS * OPS);
    assert_eq!(gauge.get(), 0);
    let snapshot = histogram.snapshot();
    assert_eq!(snapshot.count(), THREADS * OPS);
    // No torn reads: the sum equals what the loops deterministically
    // recorded, independent of interleaving.
    let expected_sum: u64 = (0..THREADS)
        .map(|t| (0..OPS).map(|i| t * 1000 + (i % 997)).sum::<u64>())
        .sum();
    assert_eq!(snapshot.sum(), expected_sum);
    assert_eq!(snapshot.min(), Some(0));
    assert_eq!(snapshot.max(), Some((THREADS - 1) * 1000 + 996));
}

/// The instrumented broker loop under churn, with the PR 2 lock-order
/// detector watching: installing metrics must not add any lock the
/// detector could object to (instruments are lock-free atomics).
#[test]
fn instrumented_live_broker_counts_exactly_and_stays_deadlock_free() {
    let registry = mmcs::telemetry::Registry::new();
    let bundle = ShardedBrokerMetrics::register(&registry, "broker", 1);
    let metrics = bundle.shard(0);
    let broker = Arc::new(ShardedBroker::spawn_with_metrics(Arc::clone(&bundle)));
    let subscriber = broker.attach();
    subscriber.subscribe(TopicFilter::parse("tel/#").unwrap());

    const PUBLISHERS: u64 = 4;
    const EVENTS: u64 = 500;
    let mut handles = Vec::new();
    for worker in 0..PUBLISHERS {
        let broker = Arc::clone(&broker);
        handles.push(std::thread::spawn(move || {
            let publisher = broker.attach();
            for i in 0..EVENTS {
                publisher.publish(
                    Topic::parse(&format!("tel/{worker}")).unwrap(),
                    Bytes::from(format!("{i}").into_bytes()),
                );
            }
        }));
    }
    for handle in handles {
        handle.join().expect("publisher thread must not panic");
    }

    let mut received = 0u64;
    while subscriber.recv_timeout(Duration::from_millis(500)).is_some() {
        received += 1;
        if received == PUBLISHERS * EVENTS {
            break;
        }
    }
    assert_eq!(received, PUBLISHERS * EVENTS);
    assert_eq!(metrics.events_in.get(), PUBLISHERS * EVENTS);
    assert_eq!(metrics.deliveries.get(), PUBLISHERS * EVENTS);
    assert_eq!(metrics.fanout.snapshot().count(), PUBLISHERS * EVENTS);
    // Publisher clients dropped at thread exit enqueue Detach commands
    // behind their publishes, so the last delivery can land while those
    // are still queued; wait (bounded) for the loop to drain them, then
    // every enqueue must have been matched by a dequeue.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while metrics.queue_depth.get() != 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(metrics.queue_depth.get(), 0);

    #[cfg(debug_assertions)]
    {
        use parking_lot::deadlock;
        assert!(deadlock::is_active(), "debug build must carry the detector");
        let broker_holds: Vec<_> = deadlock::long_holds()
            .into_iter()
            .filter(|h| h.site.contains("crates/broker"))
            .collect();
        assert!(
            broker_holds.is_empty(),
            "instrumentation must not stretch any broker lock hold: {broker_holds:?}"
        );
    }
}
