//! Isolated per-layer probes: one public function of one module, timed
//! in a tight loop from outside.
//!
//! These do not depend on the workload; every traced run takes them so
//! that each workload's per-layer record is complete. A probe warms up,
//! then times batches of calls until its budget is spent and reports
//! the **median batch mean** — a preempted batch moves one sample, not
//! the result.

use std::hint::black_box;
use std::sync::Arc;

use bytes::Bytes;
use mmcs_broker::cluster::{encode_event_frame, ClusterFrame};
use mmcs_broker::event::{Event, EventClass};
use mmcs_broker::node::{Action, BrokerNode, Input, Origin};
use mmcs_broker::profile::TransportProfile;
use mmcs_broker::reliable::{ReliableFrame, ReliableReceiver, ReliableSender};
use mmcs_broker::topic::{SubscriptionTable, Topic, TopicFilter};
use mmcs_broker::wire;
use mmcs_rtp::packet::{RtpPacket, WireRtp};
use mmcs_rtp::source::{AudioCodec, AudioSource};
use mmcs_util::id::{BrokerId, ClientId};
use mmcs_util::pool;
use mmcs_util::time::{SimDuration, SimTime};

use crate::load::now_ns;
use crate::stats::median;

/// Calls per timed batch.
const BATCH: u32 = 256;

/// A probe's result: nanoseconds per call and how many batches it is
/// the median of.
#[derive(Clone, Copy)]
pub struct Timing {
    pub ns: f64,
    pub batches: u64,
}

/// Times `op` for about `budget_ns`.
fn time(budget_ns: u64, mut op: impl FnMut()) -> Timing {
    for _ in 0..2 * BATCH {
        op();
    }
    let mut means = Vec::new();
    let end = now_ns() + budget_ns;
    loop {
        let start = now_ns();
        for _ in 0..BATCH {
            op();
        }
        let stop = now_ns();
        means.push((stop - start) as f64 / f64::from(BATCH));
        if stop >= end {
            break;
        }
    }
    Timing {
        batches: means.len() as u64,
        ns: median(&mut means).unwrap_or(0.0),
    }
}

fn topic(path: &str) -> Topic {
    Topic::parse(path).expect("static topic")
}

fn filter(pattern: &str) -> TopicFilter {
    TopicFilter::parse(pattern).expect("static filter")
}

fn event(path: &str, payload_len: usize) -> Event {
    Event::new(
        topic(path),
        ClientId::from_raw(7),
        42,
        EventClass::Rtp,
        Bytes::from(vec![0x5a; payload_len]),
    )
}

/// A 1000-filter table with one filter in `wild_every` carrying a
/// wildcard (0 = none), and the topics to look up in it.
fn table(wild_every: usize) -> (SubscriptionTable<u32>, Vec<Topic>) {
    let mut table = SubscriptionTable::new();
    let mut topics = Vec::new();
    for i in 0..1000usize {
        let pattern = if wild_every != 0 && i % wild_every == 0 {
            format!("conf{i}/#")
        } else {
            format!("conf{i}/audio")
        };
        table.subscribe(&filter(&pattern), i as u32);
        topics.push(topic(&format!("conf{i}/audio")));
    }
    (table, topics)
}

fn match_probe(budget_ns: u64, wild_every: usize) -> Timing {
    let (table, topics) = table(wild_every);
    let mut out = Vec::new();
    let mut i = 0;
    time(budget_ns, || {
        out.clear();
        table.matches_into(&topics[i % topics.len()], &mut out);
        black_box(&out);
        i += 1;
    })
}

/// A node with ten clients subscribed to one topic, the event to route
/// through it and a spare client for generation bumps.
fn node_with_fanout() -> (BrokerNode, Arc<Event>, ClientId) {
    let mut node = BrokerNode::new(BrokerId::from_raw(1));
    let mut actions = Vec::new();
    for raw in 1..=11u64 {
        let client = ClientId::from_raw(raw);
        node.handle_into(
            Input::AttachClient {
                client,
                profile: TransportProfile::default(),
            },
            &mut actions,
        )
        .expect("fresh client");
        if raw <= 10 {
            node.handle_into(
                Input::Subscribe {
                    client,
                    filter: filter("conf1/audio"),
                },
                &mut actions,
            )
            .expect("attached client");
        }
    }
    let event = Event::new(
        topic("conf1/audio"),
        ClientId::from_raw(1),
        0,
        EventClass::Rtp,
        Bytes::from(vec![0; 172]),
    )
    .into_shared();
    (node, event, ClientId::from_raw(11))
}

fn route(node: &mut BrokerNode, event: &Arc<Event>, actions: &mut Vec<Action>) {
    actions.clear();
    node.handle_into(
        Input::Publish {
            origin: Origin::Client(event.source),
            event: Arc::clone(event),
        },
        actions,
    )
    .expect("attached publisher");
    black_box(&actions);
}

fn bump(node: &mut BrokerNode, spare: ClientId, churn: &TopicFilter, actions: &mut Vec<Action>) {
    for subscribe in [true, false] {
        let (client, filter) = (spare, churn.clone());
        let input = if subscribe {
            Input::Subscribe { client, filter }
        } else {
            Input::Unsubscribe { client, filter }
        };
        node.handle_into(input, actions).expect("attached client");
    }
    actions.clear();
}

/// Every isolated probe, as `(metric name, timing)`.
pub fn run_all(budget_ns: u64) -> Vec<(&'static str, Timing)> {
    let mut out = Vec::new();

    out.push(("topic.match_exact_ns", match_probe(budget_ns, 0)));
    out.push(("topic.match_wild_ns", match_probe(budget_ns, 10)));
    out.push((
        "topic.parse_ns",
        time(budget_ns, || {
            black_box(Topic::parse(black_box("conf123/audio")).expect("valid"));
        }),
    ));

    // The node: a warm plan, then the same publish after a generation
    // bump. The bump (subscribe + unsubscribe of an unrelated filter) is
    // timed alone and subtracted, so neither figure carries a clock read.
    let (mut node, published, spare) = node_with_fanout();
    let mut actions = Vec::with_capacity(16);
    let hit = time(budget_ns, || route(&mut node, &published, &mut actions));
    out.push(("node.publish_hit_ns", hit));
    let churn = filter("other/#");
    let bump_only = time(budget_ns, || bump(&mut node, spare, &churn, &mut actions));
    let bump_and_miss = time(budget_ns, || {
        bump(&mut node, spare, &churn, &mut actions);
        route(&mut node, &published, &mut actions);
    });
    out.push((
        "node.subscribe_ns",
        Timing {
            ns: bump_only.ns / 2.0,
            ..bump_only
        },
    ));
    out.push((
        "node.publish_miss_ns",
        Timing {
            ns: (bump_and_miss.ns - bump_only.ns).max(0.0),
            ..bump_and_miss
        },
    ));

    // The wire codec, the pool under it and the cluster envelope on top.
    let audio = event("conf1/audio", 172);
    let video = event("tv/video", 1024);
    out.push((
        "wire.encode_172_ns",
        time(budget_ns, || {
            black_box(wire::encode(black_box(&audio)));
        }),
    ));
    out.push((
        "wire.encode_1k_ns",
        time(budget_ns, || {
            black_box(wire::encode(black_box(&video)));
        }),
    ));
    let audio_frame = wire::encode(&audio).freeze();
    let video_frame = wire::encode(&video).freeze();
    out.push((
        "wire.parse_172_ns",
        time(budget_ns, || {
            black_box(wire::WireEvent::parse(black_box(&audio_frame)).expect("own frame"));
        }),
    ));
    out.push((
        "wire.decode_shared_1k_ns",
        time(budget_ns, || {
            black_box(wire::decode_shared(black_box(&video_frame)).expect("own frame"));
        }),
    ));
    out.push((
        "pool.acquire_release_ns",
        time(budget_ns, || {
            black_box(pool::acquire(black_box(256)));
        }),
    ));
    out.push((
        "cluster.frame_encode_ns",
        time(budget_ns, || {
            black_box(encode_event_frame(0, 1, 0, 9, black_box(&audio)));
        }),
    ));
    let cluster_frame = encode_event_frame(0, 1, 0, 9, &audio).freeze();
    out.push((
        "cluster.frame_parse_ns",
        time(budget_ns, || {
            black_box(ClusterFrame::parse(black_box(&cluster_frame)).expect("own frame"));
        }),
    ));

    // One event through the sans-IO reliable channel and back: send,
    // encode, decode, receive, acknowledge.
    let mut sender = ReliableSender::new(64, SimDuration::from_millis(200));
    let mut receiver = ReliableReceiver::new();
    let shared = audio.clone().into_shared();
    out.push((
        "reliable.send_ack_ns",
        time(budget_ns, || {
            for frame in sender.send(Arc::clone(&shared), SimTime::ZERO) {
                let decoded = ReliableFrame::decode(&frame.encode()).expect("own frame");
                let (delivered, ack) = receiver.on_frame(decoded);
                black_box(delivered);
                black_box(sender.on_ack(ack, SimTime::ZERO));
            }
        }),
    ));

    let packet = AudioSource::new(AudioCodec::Pcmu, 0x1234).next_packet();
    let encoded: Bytes = packet.encode();
    out.push((
        "rtp.parse_ns",
        time(budget_ns, || {
            black_box(WireRtp::parse(black_box(&encoded)).expect("own packet"));
        }),
    ));
    out.push((
        "rtp.serialize_ns",
        time(budget_ns, || {
            black_box(RtpPacket::encode(black_box(&packet)));
        }),
    ));
    out
}
