//! Cross-protocol interop matrix over the sharded broker: one XGSP
//! conference joined simultaneously by a SIP client, an H.323 client,
//! and a streaming subscriber, with the media plane carried by a
//! `ShardedBroker`. Every party must see the full roster digest, and
//! every party must receive every other party's media events exactly
//! once, in order — at 1, 2, and 4 shards.
//!
//! The session's control and media topics all share the
//! `session-{id}` first segment, so they colocate on one shard and
//! the roster announcement cannot overtake or trail the media stream
//! out of order.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use mmcs::broker::event::EventClass;
use mmcs::broker::sharded::{ShardedBroker, ShardedClient};
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs::global_mmcs::system::{Egress, GlobalMmcs};
use mmcs::h323::endpoint::{EndpointState, H323Endpoint};
use mmcs::sip::message::{SipMessage, SipMethod};
use mmcs::xgsp::message::XgspMessage;
use mmcs_util::id::TerminalId;

const MEDIA_EVENTS: u64 = 40;

fn sip_invite(uri: &str, from: &str, call_id: &str) -> SipMessage {
    SipMessage::request(SipMethod::Invite, uri)
        .with_header("Via", "SIP/2.0/UDP ua;branch=z9hG4bK1")
        .with_header("From", format!("<{from}>;tag=1"))
        .with_header("To", format!("<{uri}>"))
        .with_header("Call-ID", call_id)
        .with_header("CSeq", "1 INVITE")
}

/// One conference participant: an XGSP identity plus a media-plane
/// client on the sharded broker.
struct Party {
    name: &'static str,
    media: ShardedClient,
}

#[test]
fn sip_h323_and_streaming_share_a_conference_over_sharded_broker() {
    for shards in [1usize, 2, 4] {
        run_matrix(shards);
    }
}

fn run_matrix(shards: usize) {
    let mut mmcs = GlobalMmcs::new();

    // --- SIP party creates the conference.
    let replies = mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:alice@example.org",
        "cid-matrix",
    ));
    assert!(
        matches!(&replies[0], Egress::Sip(ok) if ok.status() == Some(200)),
        "{shards} shards: SIP invite"
    );
    let session = mmcs.session_server().session_ids().next().unwrap();

    // --- H.323 party registers and calls into the same conference.
    let mut endpoint = H323Endpoint::new("bob-h323");
    let mut queue = vec![endpoint.start()];
    let mut placed = false;
    while let Some(message) = queue.pop() {
        for egress in mmcs.handle_h323(&message) {
            if let Egress::H323(reply) = egress {
                queue.extend(endpoint.on_message(&reply));
            }
        }
        if endpoint.state() == EndpointState::Registered && !placed {
            placed = true;
            queue.push(endpoint.place_call(format!("conf-{}", session.value()), 6400));
        }
    }
    assert_eq!(endpoint.state(), EndpointState::InCall);

    // --- Streaming subscriber joins over plain XGSP.
    let egress = mmcs.handle_xgsp(
        Some("carol-stream"),
        XgspMessage::Join {
            session,
            user: "carol-stream".into(),
            terminal: TerminalId::from_raw(77),
            media: vec![],
        },
    );
    assert!(matches!(&egress[0], Egress::Xgsp(XgspMessage::JoinAck { .. })));

    let conference = mmcs.session_server().session(session).unwrap();
    assert_eq!(conference.member_count(), 3, "{shards} shards: roster size");
    let digest = conference.membership_digest();

    // --- Media plane: all three parties attach to the sharded broker
    // and watch the whole session topic family.
    let broker = ShardedBroker::spawn(shards);
    let control_topic = Topic::parse(&format!("session-{}/control/roster", session.value())).unwrap();
    let session_filter = TopicFilter::parse(&format!("session-{}/#", session.value())).unwrap();
    let parties: Vec<Party> = ["sip:alice@example.org", "bob-h323", "carol-stream"]
        .into_iter()
        .map(|name| {
            let media = broker.attach();
            media.subscribe(session_filter.clone());
            Party { name, media }
        })
        .collect();
    broker.quiesce();

    // Control and media topics share a first segment: one owner shard.
    for party in &parties {
        let media_topic =
            Topic::parse(&format!("session-{}/media/{}", session.value(), party.name)).unwrap();
        assert_eq!(
            broker.shard_for_topic(&media_topic),
            broker.shard_for_topic(&control_topic),
            "session topics must colocate"
        );
    }

    // The server announces the roster digest on the control topic.
    let announcer = broker.attach();
    announcer.publish_class(
        control_topic.clone(),
        EventClass::Control,
        Bytes::from(digest.to_le_bytes().to_vec()),
    );

    // Every party publishes its media stream on its own topic.
    for party in &parties {
        let media_topic =
            Topic::parse(&format!("session-{}/media/{}", session.value(), party.name)).unwrap();
        for i in 0..MEDIA_EVENTS {
            party.media.publish_class(
                media_topic.clone(),
                EventClass::Rtp,
                Bytes::from(i.to_le_bytes().to_vec()),
            );
        }
    }
    broker.quiesce();

    // --- Assertions: full roster digest seen by everyone; every other
    // party's media received exactly once, in order.
    let publisher_ids: HashMap<u64, &str> = parties
        .iter()
        .map(|p| (p.media.id().value(), p.name))
        .collect();
    for party in &parties {
        let mut roster: Vec<u64> = Vec::new();
        // events per publisher id -> (count, last seq)
        let mut media_seen: HashMap<u64, (u64, Option<u64>)> = HashMap::new();
        while let Some(event) = party.media.try_recv() {
            if event.class == EventClass::Control {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&event.payload[..8]);
                roster.push(u64::from_le_bytes(raw));
            } else {
                let entry = media_seen.entry(event.source.value()).or_insert((0, None));
                if let Some(prev) = entry.1 {
                    assert!(
                        event.seq > prev,
                        "{}: media from {} out of order",
                        party.name,
                        event.source
                    );
                }
                *entry = (entry.0 + 1, Some(event.seq));
            }
        }
        assert_eq!(
            roster,
            vec![digest],
            "{} must see the full roster digest exactly once ({shards} shards)",
            party.name
        );
        // The matrix: one entry per party (own loopback included), each
        // exactly MEDIA_EVENTS strong.
        assert_eq!(
            media_seen.len(),
            parties.len(),
            "{} must hear every party ({shards} shards)",
            party.name
        );
        for (source, (count, _)) in &media_seen {
            let publisher = publisher_ids
                .get(source)
                .expect("media only from conference parties");
            assert_eq!(
                *count, MEDIA_EVENTS,
                "{} heard {} events from {} ({shards} shards)",
                party.name, count, publisher
            );
        }
    }
    // Nothing extra is buffered anywhere.
    for party in &parties {
        assert!(party.media.recv_timeout(Duration::from_millis(50)).is_none());
    }
}
