//! Property tests on the flat wire formats.
//!
//! Three families:
//!
//! 1. **Round-trip**: `encode → WireEvent view → decode_shared`
//!    reproduces the original event exactly — for arbitrary topics,
//!    classes, header fields and payload sizes including 0 and > 64 KiB
//!    — with the payload a zero-copy slice of the frame. Same for RTP:
//!    the `WireRtp` slice-view parser and the owned parser agree on
//!    every well-formed packet.
//! 2. **Malformed frames**: every strict prefix of a valid frame is
//!    rejected with an error (never a panic), for events and for RTP —
//!    including CSRC-bearing RTP headers whose CSRC area is cut short.
//! 3. **Forward-path equivalence**: publishing arbitrary events through
//!    a `ShardedBroker` at 1, 2 and 4 shards — where every cross-shard
//!    hop hands the owner shard's `Arc<Event>` over, with no codec —
//!    delivers the identical multiset of (topic, class, source, seq,
//!    payload), and at > 1 shard the ring actually carried events
//!    (`cross_shard_forwards`).
//! 4. **Cluster envelope**: the 16-byte federation `ClusterFrame` —
//!    round-trip of every header field (any origin/dest/hops-in-range/
//!    generation, including generations that are stale relative to a
//!    newer advert — staleness is routing policy, never a wire error),
//!    typed rejection of truncation at *every* prefix, of hop counts
//!    past `MAX_HOPS`, and of corrupt embedded events; plus a schema
//!    golden pinning the byte layout against accidental drift.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use mmcs::broker::cluster::{
    self, encode_event_frame, encode_frame, ClusterFrame, DecodeClusterError, FrameKind,
    CLUSTER_HEADER_LEN, MAX_HOPS,
};
use mmcs::broker::event::{Event, EventClass};
use mmcs::broker::metrics::ShardedBrokerMetrics;
use mmcs::broker::sharded::ShardedBroker;
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs::broker::wire;
use mmcs::rtp::packet::{RtpHeader, RtpPacket, WireRtp};
use mmcs_util::id::ClientId;
use mmcs_util::time::SimTime;

fn topic_strategy() -> impl Strategy<Value = Topic> {
    prop::collection::vec(
        prop::sample::select(vec!["conf", "a", "b7", "video", "audio", "x"]),
        1..=4,
    )
    .prop_map(Topic::from_segments)
}

fn class_strategy() -> impl Strategy<Value = EventClass> {
    prop::sample::select(vec![EventClass::Control, EventClass::Data, EventClass::Rtp])
}

/// Payload length spanning empty, sub-class, and jumbo (> 64 KiB,
/// past the pool's 16 KiB class and into — and beyond — the top one).
fn payload_strategy() -> impl Strategy<Value = Bytes> {
    (0usize..=70_000, any::<u8>())
        .prop_map(|(len, fill)| Bytes::from(vec![fill; len]))
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (
        topic_strategy(),
        any::<u64>(),
        any::<u64>(),
        class_strategy(),
        payload_strategy(),
        any::<u64>(),
    )
        .prop_map(|(topic, source, seq, class, payload, at)| {
            Event::new(topic, ClientId::from_raw(source), seq, class, payload)
                .with_published_at(SimTime::from_nanos(at))
        })
}

fn rtp_strategy() -> impl Strategy<Value = RtpPacket> {
    (
        0u8..=127,
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(any::<u32>(), 0..=15),
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..600),
    )
        .prop_map(|(pt, seq, ts, ssrc, csrc, marker, payload)| {
            let mut header = RtpHeader::new(pt, seq, ts, ssrc);
            header.csrc = csrc;
            header.marker = marker;
            RtpPacket::new(header, Bytes::from(payload))
        })
}

proptest! {
    /// encode → view → decode is the identity, with a zero-copy payload.
    #[test]
    fn event_round_trips_through_the_wire(event in event_strategy()) {
        let frame = wire::encode(&event).freeze();
        prop_assert_eq!(frame.len(), wire::encoded_len(&event));

        let view = wire::WireEvent::parse(&frame).expect("own encoding parses");
        prop_assert_eq!(view.class(), event.class);
        prop_assert_eq!(view.source(), event.source);
        prop_assert_eq!(view.seq(), event.seq);
        prop_assert_eq!(view.published_at(), event.published_at);
        prop_assert_eq!(view.topic_str(), event.topic.to_string());
        prop_assert_eq!(view.payload(), &event.payload[..]);

        let shared = wire::decode_shared(&frame).expect("own encoding decodes shared");
        prop_assert_eq!(&shared, &event);
        // The shared payload borrows the frame, not a copy.
        if !event.payload.is_empty() {
            prop_assert_eq!(
                shared.payload.as_ptr(),
                frame[frame.len() - event.payload.len()..].as_ptr()
            );
        }
    }

    /// Every strict prefix of a valid event frame errors, never panics.
    #[test]
    fn truncated_event_frames_are_rejected(event in event_strategy()) {
        let frame = wire::encode(&event).freeze();
        // Cover every header/topic boundary plus a payload sample; the
        // full range would make jumbo cases quadratic.
        let interesting = (0..frame.len().min(64))
            .chain([frame.len().saturating_sub(1)]);
        for len in interesting {
            prop_assert!(wire::WireEvent::parse(&frame[..len]).is_err());
        }
    }

    /// The RTP slice-view parser and the owned parser agree on every
    /// well-formed packet.
    #[test]
    fn rtp_view_and_owned_decode_agree(packet in rtp_strategy()) {
        let frame = packet.encode();

        let view = WireRtp::parse(&frame).expect("own encoding parses");
        prop_assert_eq!(view.payload_type(), packet.header.payload_type);
        prop_assert_eq!(view.sequence_number(), packet.header.sequence_number);
        prop_assert_eq!(view.timestamp(), packet.header.timestamp);
        prop_assert_eq!(view.ssrc(), packet.header.ssrc);
        prop_assert_eq!(view.marker(), packet.header.marker);
        let csrcs: Vec<u32> = view.csrc().collect();
        prop_assert_eq!(&csrcs, &packet.header.csrc);
        prop_assert_eq!(view.payload(), &packet.payload[..]);

        let owned = RtpPacket::decode(&frame).expect("own encoding decodes");
        prop_assert_eq!(&owned, &packet);
        let shared = RtpPacket::decode_shared(&frame).expect("decodes shared");
        prop_assert_eq!(&shared, &packet);
    }

    /// Every strict prefix of a valid RTP frame errors, never panics —
    /// including prefixes that cut through a populated CSRC area.
    #[test]
    fn truncated_rtp_frames_are_rejected(packet in rtp_strategy()) {
        let frame = packet.encode();
        let header_len = packet.header.wire_len();
        // All header truncations (this is where the CSRC area lives)
        // plus one payload-region sample.
        for len in (0..header_len).chain([frame.len().saturating_sub(1)]) {
            if len >= frame.len() {
                continue;
            }
            let view = WireRtp::parse(&frame[..len]);
            let owned = RtpPacket::decode(&frame[..len]);
            if len < header_len {
                prop_assert!(view.is_err(), "header truncated to {len} must not parse");
                prop_assert!(owned.is_err());
            } else {
                // Truncating only the payload still parses; the parsers
                // must still agree.
                prop_assert_eq!(view.is_ok(), owned.is_ok());
            }
        }
    }
}

/// Multiset of delivered events, keyed by every field a subscriber can
/// observe: (topic path, class byte, source id, seq, payload bytes).
type DeliveredMultiset = BTreeMap<(String, u8, u64, u64, Vec<u8>), usize>;

/// Publishes `events` through a sharded broker with one wildcard
/// subscriber and returns (delivered multiset, ring forwards, expected
/// forwards). An event crosses the ring iff its topic's owner shard
/// differs from the subscriber's home shard — and then the owner
/// shard's `Arc<Event>` hops once — so the expected forward count is
/// exactly the number of publishes owned by a foreign shard.
fn sharded_deliveries(
    events: &[(Topic, EventClass, Bytes)],
    shards: usize,
) -> (DeliveredMultiset, u64, u64) {
    let metrics = ShardedBrokerMetrics::detached(shards);
    let broker = ShardedBroker::builder(shards)
        .metrics(std::sync::Arc::clone(&metrics))
        .spawn();
    let subscriber = broker.attach();
    subscriber.subscribe(TopicFilter::parse("#").expect("valid filter"));
    broker.quiesce();
    let expected_forwards = events
        .iter()
        .filter(|(topic, _, _)| broker.shard_for_topic(topic) != subscriber.home_shard())
        .count() as u64;
    let publisher = broker.attach();
    for (topic, class, payload) in events {
        publisher.publish_class(topic.clone(), *class, payload.clone());
    }
    broker.quiesce();

    let mut delivered = BTreeMap::new();
    while let Some(event) = subscriber.recv_timeout(Duration::from_millis(200)) {
        let class_byte = match event.class {
            EventClass::Control => 0u8,
            EventClass::Data => 1,
            EventClass::Rtp => 2,
        };
        *delivered
            .entry((
                event.topic.to_string(),
                class_byte,
                event.source.value(),
                event.seq,
                event.payload.to_vec(),
            ))
            .or_insert(0) += 1;
        if delivered.values().sum::<usize>() == events.len() {
            break;
        }
    }
    let forwards = metrics
        .shards()
        .map(|m| m.cross_shard_forwards.get())
        .sum();
    broker.shutdown();
    (delivered, forwards, expected_forwards)
}

/// Forces one cross-shard hop deterministically: finds a topic head the
/// subscriber's home shard does not own, publishes there, and checks
/// both the delivery and the ring metric. This keeps the property
/// above honest — ring coverage cannot silently go vacuous.
#[test]
fn a_foreign_topic_crosses_the_ring_exactly_once() {
    let shards = 4;
    let metrics = ShardedBrokerMetrics::detached(shards);
    let broker = ShardedBroker::builder(shards)
        .metrics(std::sync::Arc::clone(&metrics))
        .spawn();
    let subscriber = broker.attach();
    subscriber.subscribe(TopicFilter::parse("#").expect("valid filter"));
    broker.quiesce();
    let foreign = (0..)
        .map(|i| Topic::from_segments([format!("head{i}"), "video".to_string()]))
        .find(|t| broker.shard_for_topic(t) != subscriber.home_shard())
        .expect("some head hashes to a foreign shard");
    let publisher = broker.attach();
    publisher.publish_class(foreign.clone(), EventClass::Rtp, Bytes::from_static(b"frame"));
    broker.quiesce();
    let event = subscriber
        .recv_timeout(Duration::from_secs(1))
        .expect("forwarded event arrives");
    assert_eq!(event.topic, foreign);
    assert_eq!(&event.payload[..], b"frame");
    let forwards: u64 = metrics.shards().map(|m| m.cross_shard_forwards.get()).sum();
    assert_eq!(forwards, 1, "exactly one ring hop");
    broker.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// The cross-shard forward path — the owner shard's `Arc` handed to
    /// the subscriber's home shard — is invisible to subscribers: at 1,
    /// 2 and 4 shards the delivered multiset is exactly the published
    /// one, and at > 1 shard the ring demonstrably carried events.
    #[test]
    fn forward_path_is_transparent_at_every_shard_count(
        published in prop::collection::vec(
            (topic_strategy(), class_strategy(),
             prop::collection::vec(any::<u8>(), 0..300).prop_map(Bytes::from)),
            8..24,
        ),
    ) {
        let mut reference: Option<DeliveredMultiset> = None;
        for shards in [1usize, 2, 4] {
            let (delivered, forwards, expected_forwards) =
                sharded_deliveries(&published, shards);
            prop_assert_eq!(
                delivered.values().sum::<usize>(),
                published.len(),
                "every publish must be delivered exactly once at {} shards",
                shards
            );
            match &reference {
                None => reference = Some(delivered),
                Some(expected) => prop_assert_eq!(
                    &delivered, expected,
                    "shard count {} changed the delivered multiset", shards
                ),
            }
            // Every publish whose owner shard is not the subscriber's
            // home shard crossed the ring once — no more, no fewer. At
            // one shard there is no ring at all.
            prop_assert_eq!(forwards, expected_forwards);
            if shards == 1 {
                prop_assert_eq!(forwards, 0, "a single shard has no ring");
            }
        }
    }
}

fn frame_kind_strategy() -> impl Strategy<Value = FrameKind> {
    prop::sample::select(vec![
        FrameKind::Event,
        FrameKind::GossipDigest,
        FrameKind::GossipEntries,
        FrameKind::Ack,
        FrameKind::Flush,
        FrameKind::FlushAck,
    ])
}

/// An arbitrary valid cluster frame: event kinds embed a real wire
/// event, gossip kinds carry opaque bytes (the gossip codec validates
/// them later, in the worker), link control is empty by contract.
fn cluster_frame_strategy() -> impl Strategy<Value = (FrameKind, u16, u16, u8, u64, Vec<u8>)> {
    (
        frame_kind_strategy(),
        any::<u16>(),
        any::<u16>(),
        0u8..MAX_HOPS,
        any::<u64>(),
        (topic_strategy(), prop::collection::vec(any::<u8>(), 0..200)),
    )
        .prop_map(|(kind, origin, dest, hops, generation, (topic, raw))| {
            let body = match kind {
                FrameKind::Event => {
                    let event = Event::new(
                        topic,
                        ClientId::from_raw(7),
                        42,
                        EventClass::Data,
                        Bytes::from(raw),
                    );
                    wire::encode(&event).freeze().to_vec()
                }
                FrameKind::Ack | FrameKind::Flush | FrameKind::FlushAck => Vec::new(),
                FrameKind::GossipDigest | FrameKind::GossipEntries => raw,
            };
            (kind, origin, dest, hops, generation, body)
        })
}

proptest! {
    /// Every header field of the federation envelope round-trips, for
    /// every kind — including generations that are stale next to a
    /// newer advert: staleness is routing policy, never a wire error.
    #[test]
    fn cluster_frame_round_trips((kind, origin, dest, hops, generation, body)
        in cluster_frame_strategy())
    {
        let frame = encode_frame(kind, origin, dest, hops, generation, &body).freeze();
        prop_assert_eq!(frame.len(), CLUSTER_HEADER_LEN + body.len());
        let view = ClusterFrame::parse(&frame).expect("own encoding parses");
        prop_assert_eq!(view.kind(), kind);
        prop_assert_eq!(view.origin(), origin);
        prop_assert_eq!(view.dest(), dest);
        prop_assert_eq!(view.hops(), hops);
        prop_assert_eq!(view.generation(), generation);
        prop_assert_eq!(view.body(), &body[..]);

        // A frame stamped with an *older* generation than a sibling
        // still parses — the delivery path counts staleness instead of
        // dropping, so the wire layer must accept every generation.
        if generation > 0 {
            let stale = encode_frame(kind, origin, dest, hops, generation - 1, &body).freeze();
            let stale_view = ClusterFrame::parse(&stale).expect("stale generation still valid");
            prop_assert_eq!(stale_view.generation(), generation - 1);
        }
    }

    /// Truncation at every prefix is rejected with a typed error, never
    /// a panic: envelope cuts are `Truncated`, body cuts of an event
    /// frame are `BadEvent`, and a hop count at or past `MAX_HOPS` is
    /// `HopLimit` no matter the rest of the frame.
    #[test]
    fn malformed_cluster_frames_are_rejected(
        (kind, origin, dest, hops, generation, body) in cluster_frame_strategy(),
        over_hops in (MAX_HOPS + 1)..=u8::MAX,
    ) {
        let frame = encode_frame(kind, origin, dest, hops, generation, &body).freeze();
        for len in 0..frame.len() {
            let result = ClusterFrame::parse(&frame[..len]);
            match result {
                Err(DecodeClusterError::Truncated) => {
                    prop_assert!(len < CLUSTER_HEADER_LEN, "Truncated past the envelope");
                }
                Err(_) => {
                    prop_assert!(len >= CLUSTER_HEADER_LEN, "body errors need a full envelope");
                }
                Ok(view) => {
                    // Gossip bodies are opaque at this layer, so a cut
                    // body still parses; events and link control must not.
                    prop_assert!(matches!(
                        kind,
                        FrameKind::GossipDigest | FrameKind::GossipEntries
                    ));
                    prop_assert_eq!(view.body().len(), len - CLUSTER_HEADER_LEN);
                }
            }
        }

        let looped = encode_frame(kind, origin, dest, over_hops, generation, &body).freeze();
        prop_assert_eq!(
            ClusterFrame::parse(&looped).err(),
            Some(DecodeClusterError::HopLimit(over_hops))
        );
    }

    /// The event-frame convenience encoder agrees with the generic one:
    /// parse yields the same envelope and an embedded event that
    /// decodes back to the original.
    #[test]
    fn event_frames_embed_the_event_exactly(
        event in event_strategy(),
        origin in any::<u16>(),
        dest in any::<u16>(),
        hops in 0u8..MAX_HOPS,
        generation in any::<u64>(),
    ) {
        let frame = encode_event_frame(origin, dest, hops, generation, &event).freeze();
        let view = ClusterFrame::parse(&frame).expect("event frame parses");
        prop_assert_eq!(view.kind(), FrameKind::Event);
        prop_assert_eq!(view.origin(), origin);
        prop_assert_eq!(view.dest(), dest);
        prop_assert_eq!(view.hops(), hops);
        prop_assert_eq!(view.generation(), generation);
        let embedded = wire::decode_shared(&frame.slice(CLUSTER_HEADER_LEN..))
            .expect("embedded event decodes");
        prop_assert_eq!(&embedded, &event);
    }
}

/// The envelope layout, regenerated from the live constants and pinned
/// against `tests/golden/cluster_frame_schema.json`. A mismatch means
/// the wire format drifted — bump `CLUSTER_VERSION` and regenerate the
/// golden deliberately, never silently.
#[test]
fn cluster_frame_schema_matches_golden() {
    let schema = format!(
        r#"{{
  "format": "mmcs-cluster-frame",
  "version": {version},
  "header_len": {header_len},
  "max_hops": {max_hops},
  "byte_order": "big-endian",
  "fields": [
    {{ "name": "version", "offset": {off_version}, "len": 1 }},
    {{ "name": "kind", "offset": {off_kind}, "len": 1 }},
    {{ "name": "origin", "offset": {off_origin}, "len": 2 }},
    {{ "name": "dest", "offset": {off_dest}, "len": 2 }},
    {{ "name": "hops", "offset": {off_hops}, "len": 1 }},
    {{ "name": "reserved", "offset": {off_reserved}, "len": 1, "must_be": 0 }},
    {{ "name": "generation", "offset": {off_generation}, "len": 8 }}
  ],
  "kinds": [
    {{ "name": "Event", "value": {k_event}, "body": "wire event frame" }},
    {{ "name": "GossipDigest", "value": {k_digest}, "body": "gossip digest" }},
    {{ "name": "GossipEntries", "value": {k_entries}, "body": "gossip entries" }},
    {{ "name": "Ack", "value": {k_ack}, "body": "empty; generation carries the acked link seq" }},
    {{ "name": "Flush", "value": {k_flush}, "body": "empty; generation carries the flush token" }},
    {{ "name": "FlushAck", "value": {k_flush_ack}, "body": "empty; generation echoes the flush token" }}
  ]
}}
"#,
        version = cluster::CLUSTER_VERSION,
        header_len = CLUSTER_HEADER_LEN,
        max_hops = MAX_HOPS,
        off_version = cluster::OFF_VERSION,
        off_kind = cluster::OFF_KIND,
        off_origin = cluster::OFF_ORIGIN,
        off_dest = cluster::OFF_DEST,
        off_hops = cluster::OFF_HOPS,
        off_reserved = cluster::OFF_RESERVED,
        off_generation = cluster::OFF_GENERATION,
        k_event = FrameKind::Event as u8,
        k_digest = FrameKind::GossipDigest as u8,
        k_entries = FrameKind::GossipEntries as u8,
        k_ack = FrameKind::Ack as u8,
        k_flush = FrameKind::Flush as u8,
        k_flush_ack = FrameKind::FlushAck as u8,
    );
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/cluster_frame_schema.json"
    ))
    .expect("read cluster frame schema golden");
    assert_eq!(
        schema, golden,
        "cluster frame layout drifted from the golden schema"
    );
}
