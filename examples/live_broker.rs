//! The broker as a real concurrent bus: four publisher threads fan
//! events into one subscriber over the live NaradaBrokering-style
//! runtime (one worker shard, its ingress queue and a mailbox per
//! client, OS threads — no simulation).
//!
//! Run with: `cargo run --example live_broker`

use std::time::Duration;

use bytes::Bytes;
use mmcs::broker::sharded::ShardedBroker;
use mmcs::broker::topic::{Topic, TopicFilter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let broker = std::sync::Arc::new(ShardedBroker::spawn(1));

    let subscriber = broker.attach();
    subscriber.subscribe(TopicFilter::parse("metrics/#")?);

    let mut handles = Vec::new();
    for worker in 0..4 {
        let broker = std::sync::Arc::clone(&broker);
        handles.push(std::thread::spawn(move || {
            let publisher = broker.attach();
            for i in 0..250 {
                publisher.publish(
                    Topic::parse(&format!("metrics/worker-{worker}")).expect("valid"),
                    Bytes::from(format!("sample {i}").into_bytes()),
                );
            }
        }));
    }
    for handle in handles {
        handle.join().expect("worker");
    }

    let mut received = 0;
    while subscriber.recv_timeout(Duration::from_millis(500)).is_some() {
        received += 1;
        if received == 1000 {
            break;
        }
    }
    println!("subscriber received {received}/1000 events from 4 threads");
    assert_eq!(received, 1000);
    broker.shutdown();
    println!("live broker OK");
    Ok(())
}
