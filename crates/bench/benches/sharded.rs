//! `sharded_fanout`: publish throughput of the sharded multi-worker
//! runtime at fan-out 100; one shard — the plain single-loop broker —
//! is the baseline.
//!
//! One publisher sprays events round-robin across eight first-segment
//! topic families (so the sharded runtime spreads ownership across its
//! workers) while 100 subscribers each watch the full topic space. An
//! iteration publishes a fixed burst and then drains every subscriber
//! to the exact expected count, asserting per-topic sequence order on
//! the way — the measured number is end-to-end delivered events per
//! second with the ordering guarantee intact.
//!
//! Even one shard is cheap per delivery thanks to the batched
//! hand-off: a shard worker flushes one `Vec<Arc<Event>>` per
//! subscriber per drained ingress batch rather than one channel send
//! per (event, subscriber) pair.

use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mmcs_broker::sharded::{ShardedBroker, ShardedClient};
use mmcs_broker::topic::{Topic, TopicFilter};

const FANOUT: usize = 100;
const FAMILIES: usize = 8;
const EVENTS: u64 = 256;

fn family_topics() -> Vec<Topic> {
    (0..FAMILIES)
        .map(|f| Topic::parse(&format!("fam{f}/media")).unwrap())
        .collect()
}

/// Drains `expected` events from one subscriber through the sharded
/// client's batch-drain API — whole batches are moved out per channel
/// receive, with a blocking single-event receive only when nothing is
/// buffered — asserting per-topic sequence monotonicity. The publisher
/// sprays round-robin with a globally increasing seq, and a burst is a
/// multiple of `FAMILIES`, so within one burst `seq % FAMILIES`
/// identifies the topic and any per-topic reordering shows up as a
/// non-increasing step — an O(1), allocation-free check that stays out
/// of the measured hot path.
fn drain_ordered_batched(
    client: &ShardedClient,
    expected: u64,
    last_seq: &mut [u64; FAMILIES],
    buf: &mut Vec<std::sync::Arc<mmcs_broker::event::Event>>,
) {
    last_seq.fill(u64::MAX);
    let mut got = 0u64;
    while got < expected {
        buf.clear();
        if client.drain_into(buf) == 0 {
            let event = client
                .recv_timeout(Duration::from_secs(5))
                .expect("subscriber starved mid-burst");
            buf.push(event);
        }
        for event in buf.iter() {
            let family = (event.seq % FAMILIES as u64) as usize;
            let prev = last_seq[family];
            assert!(
                prev == u64::MAX || event.seq > prev,
                "per-topic order violated on family {family}"
            );
            last_seq[family] = event.seq;
        }
        got += buf.len() as u64;
    }
    assert_eq!(got, expected, "subscriber over-delivered");
}

fn bench_sharded_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_fanout");
    group.throughput(Throughput::Elements(EVENTS * FANOUT as u64));
    let topics = family_topics();

    // --- The sharded runtime at 1, 2 and 4 worker shards.
    for shards in [1usize, 2, 4] {
        let broker = ShardedBroker::spawn(shards);
        let subscribers: Vec<_> = (0..FANOUT)
            .map(|_| {
                let s = broker.attach();
                s.subscribe(TopicFilter::parse("#").unwrap());
                s
            })
            .collect();
        let publisher = broker.attach();
        broker.quiesce();
        let mut last_seq = [u64::MAX; FAMILIES];
        let mut buf = Vec::with_capacity(EVENTS as usize);
        group.bench_function(format!("sharded{shards}_fanout_100"), |b| {
            b.iter(|| {
                for i in 0..EVENTS {
                    publisher.publish(topics[i as usize % FAMILIES].clone(), Bytes::new());
                }
                for s in &subscribers {
                    drain_ordered_batched(s, EVENTS, &mut last_seq, &mut buf);
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = sharded;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_sharded_fanout
}
criterion_main!(sharded);
