//! Cross-protocol integration: the whole Global-MMCS stack in one
//! process — SIP, H.323, IM, Admire, Access Grid, HearMe, web services,
//! calendar, media.

use mmcs::admire::service::AdmireService;
use mmcs::global_mmcs::accessgrid::AccessGridService;
use mmcs::global_mmcs::hearme::HearMeService;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmcs::broker::event::{Event, EventClass};
use mmcs::broker::sharded::ShardedClient;
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs::global_mmcs::system::{Egress, EndpointKind, GlobalMmcs};
use mmcs::h323::endpoint::{EndpointState, H323Endpoint};
use mmcs::im::stanza::Stanza;
use bytes::Bytes;
use mmcs::rtp::packet::{payload_type, DecodeRtpError, RtpHeader, RtpPacket};
use mmcs::rtp::source::{AudioCodec, AudioSource};
use mmcs::sip::message::{SipMessage, SipMethod, StartLine};
use mmcs::soap::envelope::SoapFault;
use mmcs::soap::service::SoapClient;
use mmcs::xgsp::message::XgspMessage;
use mmcs::xgsp::wsdl_ci::{CiError, CollaborationServer};
use mmcs_util::id::{SessionId, TerminalId};
use mmcs_util::time::{SimDuration, SimTime};

fn sip_invite(uri: &str, from: &str, call_id: &str) -> SipMessage {
    SipMessage::request(SipMethod::Invite, uri)
        .with_header("Via", "SIP/2.0/UDP ua;branch=z9hG4bK1")
        .with_header("From", format!("<{from}>;tag=1"))
        .with_header("To", format!("<{uri}>"))
        .with_header("Call-ID", call_id)
        .with_header("CSeq", "1 INVITE")
}

fn sip_bye(uri: &str, call_id: &str) -> SipMessage {
    SipMessage::request(SipMethod::Bye, uri)
        .with_header("Via", "SIP/2.0/UDP ua;branch=z9hG4bK2")
        .with_header("Call-ID", call_id)
        .with_header("CSeq", "2 BYE")
}

/// The status of the SIP response a request was answered with (the
/// first egress item).
fn sip_status(egress: &[Egress]) -> Option<u16> {
    match egress.first() {
        Some(Egress::Sip(response)) => response.status(),
        _ => None,
    }
}

/// Where each notification in an egress batch goes, in order: a SIP
/// NOTIFY's request URI or a stanza's recipient.
fn notified(egress: &[Egress]) -> Vec<&str> {
    egress
        .iter()
        .filter_map(|item| match item {
            Egress::Sip(SipMessage {
                start: StartLine::Request { method: SipMethod::Notify, uri },
                ..
            }) => Some(uri.as_str()),
            Egress::Stanza { to, .. } => Some(to.as_str()),
            _ => None,
        })
        .collect()
}

/// Drives an H.323 terminal through RAS, Q.931 and H.245 into the
/// session; returns the egress that was not for the terminal.
fn h323_call_in(
    mmcs: &mut GlobalMmcs,
    endpoint: &mut H323Endpoint,
    session: SessionId,
) -> Vec<Egress> {
    let mut others = Vec::new();
    let mut queue = vec![endpoint.start()];
    let mut placed = false;
    while let Some(message) = queue.pop() {
        for egress in mmcs.handle_h323(&message) {
            match egress {
                Egress::H323(reply) => queue.extend(endpoint.on_message(&reply)),
                other => others.push(other),
            }
        }
        if endpoint.state() == EndpointState::Registered && !placed {
            placed = true;
            queue.push(endpoint.place_call(format!("conf-{}", session.value()), 6400));
        }
    }
    assert_eq!(endpoint.state(), EndpointState::InCall);
    others
}

/// Calls one SOAP operation on `mmcs` and decodes its response.
fn soap(
    mmcs: &mut GlobalMmcs,
    operation: &str,
    parts: &[(&str, &str)],
) -> Result<Vec<(String, String)>, SoapFault> {
    let egress = mmcs.handle_soap(&SoapClient::request(operation, parts));
    let Some(Egress::Soap(response)) = egress.first() else {
        panic!("a SOAP request is answered first, got {egress:?}");
    };
    SoapClient::decode_response(operation, response)
}

/// The session an XGSP `CreateSession` reply names.
fn created_session(egress: &[Egress]) -> SessionId {
    egress
        .iter()
        .find_map(|item| match item {
            Egress::Xgsp(XgspMessage::SessionCreated { session, .. }) => Some(*session),
            _ => None,
        })
        .expect("session created")
}

/// A media endpoint on `mmcs`'s broker, subscribed to `filter` when one
/// is given.
fn media_endpoint(mmcs: &GlobalMmcs, filter: Option<&str>) -> ShardedClient {
    let client = mmcs.broker().attach();
    if let Some(filter) = filter {
        client.subscribe(TopicFilter::parse(filter).unwrap());
    }
    client
}

/// Publishes one RTP packet from `client` on `topic`.
fn publish(client: &ShardedClient, topic: &str, packet: &RtpPacket) {
    client.publish_class(Topic::parse(topic).unwrap(), EventClass::Rtp, packet.encode());
}

/// Everything delivered to `client` so far, in mailbox order.
fn drained(client: &ShardedClient) -> Vec<Arc<Event>> {
    let mut events = Vec::new();
    client.drain_into(&mut events);
    events
}

/// A SIP UA and an H.323 terminal meet in one session; media published
/// by the SIP side reaches a subscriber; chat relays through XGSP.
#[test]
fn sip_and_h323_share_a_conference_with_media() {
    let mut mmcs = GlobalMmcs::new();

    // SIP side creates the conference.
    let replies = mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:alice@example.org",
        "cid-1",
    ));
    assert_eq!(sip_status(&replies), Some(200));
    let session = mmcs.session_server().session_ids().next().unwrap();

    // H.323 side joins the same conference.
    let mut endpoint = H323Endpoint::new("bob-h323");
    h323_call_in(&mut mmcs, &mut endpoint, session);
    let conference = mmcs.session_server().session(session).unwrap();
    assert_eq!(conference.member_count(), 2);
    assert!(conference.member("sip:alice@example.org").is_some());
    assert!(conference.member("bob-h323").is_some());

    // Media: alice publishes audio on the session topic; a subscriber
    // bound to bob's side receives it.
    let topic = format!("globalmmcs/session-{}/audio", session.value());
    let alice_media = media_endpoint(&mmcs, None);
    let bob_media = media_endpoint(&mmcs, Some(&topic));
    let mut source = AudioSource::new(AudioCodec::Pcmu, 0xA);
    for _ in 0..25 {
        publish(&alice_media, &topic, &source.next_packet());
    }
    mmcs.broker().quiesce();
    assert_eq!(drained(&bob_media).len(), 25);
    mmcs.pump();
    // The media service fed the stream tap too.
    assert_eq!(mmcs.helix().fed_count(&topic), 25);

    // Chat (XGSP app-data) relays from alice to bob only.
    mmcs.bind_endpoint("bob-h323", EndpointKind::Im("bob@mmcs".into()));
    let egress = mmcs.handle_xgsp(
        Some("sip:alice@example.org"),
        XgspMessage::AppData {
            session,
            user: "sip:alice@example.org".into(),
            body: "hello from SIP land".into(),
        },
    );
    assert_eq!(notified(&egress), vec!["bob@mmcs"]);
}

/// The scheduled-mode flow: book via SOAP, open at the due time, join
/// by web service, terminate.
#[test]
fn scheduled_meeting_via_web_services() {
    let mut mmcs = GlobalMmcs::new();

    soap(
        &mut mmcs,
        "schedule",
        &[
            ("room", "auditorium"),
            ("organizer", "gcf"),
            ("title", "community grids talk"),
            ("startSecs", "100"),
            ("durationSecs", "1800"),
            ("invitees", "wu,uyar"),
        ],
    )
    .unwrap();

    mmcs.set_now(SimTime::from_secs(99));
    assert!(mmcs.open_due_meetings().0.is_empty());
    mmcs.set_now(SimTime::from_secs(100));
    let (opened, _) = mmcs.open_due_meetings();
    assert_eq!(opened.len(), 1);
    let session_id = opened[0].value().to_string();

    // Two invitees join over SOAP.
    for user in ["wu", "uyar"] {
        let topics = soap(
            &mut mmcs,
            "join",
            &[("sessionId", &session_id), ("user", user), ("terminal", "2")],
        )
        .unwrap();
        assert!(topics.iter().any(|(k, _)| k == "topic-audio"));
    }
    let session = mmcs.session_server().session(opened[0]).unwrap();
    assert_eq!(session.member_count(), 3);
    assert_eq!(session.chair(), Some("gcf"));

    // Organizer terminates.
    soap(
        &mut mmcs,
        "terminate",
        &[("sessionId", &session_id), ("user", "gcf")],
    )
    .unwrap();
    assert_eq!(mmcs.session_server().session_count(), 0);
}

/// IM room escalation wires presence, chat, escalation and invitation
/// delivery together.
#[test]
fn im_room_escalates_to_meeting_with_invites() {
    let mut mmcs = GlobalMmcs::new();
    for user in ["alice", "bob", "carol", "dave"] {
        mmcs.handle_stanza(Stanza::Iq {
            from: user.into(),
            kind: "set".into(),
            query: "join-room".into(),
            arg: "war-room".into(),
        });
    }
    let (escalated, invites) = mmcs.escalate_room("war-room", "carol").unwrap();
    assert_eq!(notified(&invites), vec!["alice", "bob", "dave"]);
    let session = mmcs.session_server().session(escalated).unwrap();
    assert_eq!(session.chair(), Some("carol"));

    // Invitees join through plain XGSP.
    for (i, user) in ["alice", "bob"].iter().enumerate() {
        let egress = mmcs.handle_xgsp(
            Some(user),
            XgspMessage::Join {
                session: escalated,
                user: (*user).into(),
                terminal: TerminalId::from_raw(10 + i as u64),
                media: vec![],
            },
        );
        assert!(matches!(&egress[0], Egress::Xgsp(XgspMessage::JoinAck { .. })));
    }
    assert_eq!(
        mmcs.session_server()
            .session(escalated)
            .unwrap()
            .member_count(),
        3
    );
}

const ADMIRE: &str = "admire.cn";
const GRID: &str = "accessgrid.org";
const HEARME: &str = "hearme.example";

/// A system with Admire, Access Grid and HearMe bridged.
fn bridged_mmcs() -> GlobalMmcs {
    let mut mmcs = GlobalMmcs::new();
    mmcs.bridge(Box::new(AdmireService::new(ADMIRE, "rdv.admire.cn")));
    mmcs.bridge(Box::new(AccessGridService::new()));
    mmcs.bridge(Box::new(HearMeService::new()));
    mmcs
}

/// The community errors an egress batch carries, by community.
fn community_errors(egress: &[Egress]) -> Vec<(&str, &CiError)> {
    egress
        .iter()
        .filter_map(|item| match item {
            Egress::Community { community, error } => Some((community.as_str(), error)),
            _ => None,
        })
        .collect()
}

/// Whether a bridged community still holds anything (a venue, a
/// conference, a room) for `session`.
fn community_holds(mmcs: &mut GlobalMmcs, community: &str, session: SessionId) -> bool {
    let server = mmcs.community_mut(community).expect("bridged");
    server.control(session, "rendezvous", &[]) != Err(CiError::UnknownSession(session))
}

/// One session bridged to three communities through the door. Admire
/// answers the rendezvous, Access Grid answers with its venue's
/// multicast group, and HearMe is audio-only: it refuses the rendezvous
/// and gets no agent, but still mirrors membership. Community-specific
/// operations go through `community_mut` or the SOAP `control`
/// operation. Terminating the session, or the last leave of an ad-hoc
/// room, frees the venue, the conference and the room and detaches the
/// session's agents; the test never calls a community's session
/// operations itself.
#[test]
fn one_session_bridges_to_admire_access_grid_and_hearme() {
    let mut mmcs = bridged_mmcs();
    let alice = "sip:alice@example.org";
    let replies = mmcs.handle_sip(&sip_invite("sip:new-conf@mmcs.example", alice, "cid-c"));
    assert_eq!(sip_status(&replies), Some(200));
    let refusals = community_errors(&replies);
    assert!(matches!(refusals[..], [(HEARME, CiError::Refused(_))]), "{refusals:?}");
    let session = mmcs.session_server().session_ids().next().unwrap();
    let id = session.value().to_string();

    assert!(mmcs.agent(ADMIRE, session).unwrap().remote().starts_with("rdv.admire.cn:"));
    let venue = mmcs.agent(GRID, session).unwrap().remote().to_owned();
    assert!(mmcs.agent(HEARME, session).is_none());
    let hearme = mmcs.community_mut(HEARME).unwrap();
    assert!(matches!(hearme.control(session, "selectVideo", &[]), Err(CiError::Refused(_))));

    // Access Grid, over the web facade: the rendezvous is the venue's
    // video group, and every venue gets groups of its own.
    let groups = |mmcs: &mut GlobalMmcs, id: &str| {
        let parts = [("community", GRID), ("sessionId", id), ("operation", "venueGroups")];
        soap(mmcs, "control", &parts)
    };
    let ours = groups(&mut mmcs, &id).unwrap();
    assert_eq!(ours[0].0, "audioGroup");
    assert!(ours[0].1.starts_with("239.255."));
    assert_eq!(ours[1], ("videoGroup".to_owned(), venue));
    assert_ne!(ours[0].1, ours[1].1);
    let other = created_session(&mmcs.handle_xgsp(
        Some("carol"),
        XgspMessage::CreateSession {
            name: "other venue".into(),
            mode: mmcs::xgsp::message::SessionMode::AdHoc,
            media: vec![],
        },
    ));
    let theirs = groups(&mut mmcs, &other.value().to_string()).unwrap();
    assert_ne!(theirs[0].1, ours[0].1);
    assert!(groups(&mut mmcs, "99999").unwrap_err().reason.contains("unknown session"));

    // Joins are mirrored into each community.
    let join = |session: SessionId, user: &str| XgspMessage::Join {
        session,
        user: user.into(),
        terminal: TerminalId::from_raw(2),
        media: vec![],
    };
    let joined = mmcs.handle_xgsp(Some("bob"), join(session, "bob"));
    assert!(matches!(&joined[0], Egress::Xgsp(XgspMessage::JoinAck { .. })));
    assert!(community_errors(&joined).is_empty(), "{joined:?}");
    // A refused join (bob is already in) is not mirrored again.
    assert!(community_errors(&mmcs.handle_xgsp(Some("bob"), join(session, "bob"))).is_empty());

    // HearMe: mute a member; dial out to a phone, which then is one.
    let mute = |user: &str| vec![("user".to_owned(), user.to_owned())];
    let hearme = mmcs.community_mut(HEARME).unwrap();
    let muted = hearme.control(session, "muteParticipant", &mute("bob"));
    assert_eq!(muted.unwrap(), vec![("status".to_owned(), "muted".to_owned())]);
    assert!(matches!(
        hearme.control(session, "muteParticipant", &mute("ghost")),
        Err(CiError::UnknownMember(_))
    ));
    let dial = [("phoneNumber".to_owned(), "+1-555-0100".to_owned())];
    assert_eq!(hearme.control(session, "dialOut", &dial).unwrap()[0].1, "ringing");
    hearme.control(session, "muteParticipant", &mute("pstn:+1-555-0100")).unwrap();

    // A leave is mirrored once; a second, refused leave is not.
    let leave = || XgspMessage::Leave { session, user: "bob".into() };
    assert!(community_errors(&mmcs.handle_xgsp(Some("bob"), leave())).is_empty());
    let again = mmcs.handle_xgsp(Some("bob"), leave());
    assert!(matches!(&again[0], Egress::Xgsp(XgspMessage::Error { .. })));
    assert!(community_errors(&again).is_empty(), "{again:?}");
    // A member who left cannot be muted.
    let hearme = mmcs.community_mut(HEARME).unwrap();
    assert!(matches!(
        hearme.control(session, "muteParticipant", &mute("bob")),
        Err(CiError::UnknownMember(_))
    ));

    // Termination frees the venue, the conference and the room, and
    // detaches the session's agents.
    let terminated = mmcs.handle_xgsp(Some(alice), XgspMessage::TerminateSession { session });
    assert!(community_errors(&terminated).is_empty(), "{terminated:?}");
    // The ad-hoc room empties on its last member's leave.
    mmcs.handle_xgsp(Some("carol"), join(other, "carol"));
    assert!(mmcs.agent(GRID, other).is_some());
    mmcs.handle_xgsp(Some("carol"), XgspMessage::Leave { session: other, user: "carol".into() });
    assert_eq!(mmcs.session_server().session_count(), 0);
    for gone in [session, other] {
        for community in [ADMIRE, GRID, HEARME] {
            assert!(!community_holds(&mut mmcs, community, gone), "{community} holds {gone}");
            assert!(mmcs.agent(community, gone).is_none());
        }
    }

    // What the door cannot see, checked on the services themselves: a
    // venue node joining twice is one node, a dial-out is one more
    // participant, leaving clears a mute, and teardown frees everything.
    let mut venues = AccessGridService::new();
    let mut rooms = HearMeService::new();
    for server in [&mut venues as &mut dyn CollaborationServer, &mut rooms] {
        server.establish_session(session, "joint").unwrap();
        server.add_member(session, "bob", TerminalId::from_raw(2)).unwrap();
        server.add_member(session, "bob", TerminalId::from_raw(2)).unwrap();
    }
    assert_eq!(venues.venue(session).unwrap().nodes, ["bob"]);
    rooms.control(session, "dialOut", &dial).unwrap();
    assert_eq!(rooms.participants(session), ["bob", "pstn:+1-555-0100"]);
    rooms.control(session, "muteParticipant", &mute("bob")).unwrap();
    assert!(rooms.is_muted(session, "bob"));
    rooms.remove_member(session, "bob").unwrap();
    assert!(!rooms.is_muted(session, "bob"));
    for server in [&mut venues as &mut dyn CollaborationServer, &mut rooms] {
        server.teardown_session(session).unwrap();
    }
    assert_eq!((venues.venue_count(), rooms.room_count()), (0, 0));
}

/// The rendezvous agent is the system's RTP proxy. A packet the Admire
/// side sends to the rendezvous drains from a SIP member's handle, a SIP
/// member's packet reaches the agent's outbound side, the agent never
/// hears its own packets back, a malformed datagram gets a typed error
/// and is never published, and each source's packets keep their order.
#[test]
fn the_rendezvous_agent_carries_rtp_both_ways() {
    let mut mmcs = GlobalMmcs::new();
    mmcs.bridge(Box::new(AdmireService::new(ADMIRE, "rdv.admire.cn")));
    let alice = "sip:alice@example.org";
    mmcs.handle_sip(&sip_invite("sip:new-conf@mmcs.example", alice, "cid-rtp"));
    let session = mmcs.session_server().session_ids().next().unwrap();
    let audio = format!("globalmmcs/session-{}/audio", session.value());
    let video = format!("globalmmcs/session-{}/video", session.value());
    let alice_media = media_endpoint(&mmcs, Some(&audio));
    let watcher = media_endpoint(&mmcs, Some(&video));
    let agent = mmcs.agent(ADMIRE, session).expect("Admire answered the rendezvous");

    let mut from_admire = AudioSource::new(AudioCodec::Pcmu, 0xAD);
    let mut from_alice = AudioSource::new(AudioCodec::Pcmu, 0xA1);
    let (mut admire_sent, mut alice_sent) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        let packet = from_admire.next_packet();
        agent.inbound(packet.encode()).unwrap();
        admire_sent.push(packet);
        let packet = from_alice.next_packet();
        publish(&alice_media, &audio, &packet);
        alice_sent.push(packet);
    }
    // Claims three CSRCs but stops inside the CSRC list.
    let truncated = Bytes::from_static(&[0x83, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0]);
    assert!(matches!(agent.inbound(truncated), Err(DecodeRtpError::Truncated { .. })));
    // A video payload type goes to the session's video topic.
    let frame = RtpPacket::new(
        RtpHeader::new(payload_type::H263, 1, 0, 0xAD),
        Bytes::from_static(&[0; 64]),
    );
    agent.inbound(frame.encode()).unwrap();
    mmcs.broker().quiesce();

    let heard: Vec<RtpPacket> = drained(&alice_media)
        .iter()
        .filter(|event| event.source != alice_media.id())
        .map(|event| RtpPacket::decode(&event.payload).unwrap())
        .collect();
    assert_eq!(heard, admire_sent);
    let seen = drained(&watcher);
    assert_eq!(seen.len(), 1);
    assert_eq!(RtpPacket::decode(&seen[0].payload).unwrap(), frame);

    let mut outbound = Vec::new();
    agent.outbound(&mut outbound);
    let relayed: Vec<RtpPacket> =
        outbound.iter().map(|raw| RtpPacket::decode(raw).unwrap()).collect();
    assert_eq!(relayed, alice_sent, "alice's packets in order, none of the agent's own");
    // The streaming tap heard both sources and not the malformed frame.
    mmcs.pump();
    assert_eq!(mmcs.helix().fed_count(&audio), 40);
}

/// The A/V switch moves only on what the session server accepted: a
/// refused video selection of a non-member pins nothing, a non-chair's
/// refused termination leaves the chair's pin in place, and a selection
/// on a session that does not exist makes no switch state. Audio
/// reports count only for members of live sessions.
#[test]
fn the_switch_moves_only_on_what_the_server_accepted() {
    let mut mmcs = GlobalMmcs::new();
    let alice = "sip:alice@example.org";
    mmcs.handle_sip(&sip_invite("sip:new-conf@mmcs.example", alice, "cid-sw"));
    let session = mmcs.session_server().session_ids().next().unwrap();
    let join = XgspMessage::Join {
        session,
        user: "bob".into(),
        terminal: TerminalId::from_raw(2),
        media: vec![],
    };
    mmcs.handle_xgsp(Some("bob"), join);
    let select = |session: SessionId, user: &str| XgspMessage::MediaControl {
        session,
        user: user.into(),
        op: mmcs::xgsp::message::MediaOp::Select,
        kind: "video".into(),
    };
    let refused = |egress: &[Egress]| matches!(egress.first(), Some(Egress::Xgsp(XgspMessage::Error { .. })));

    mmcs.handle_xgsp(Some(alice), select(session, "bob"));
    assert_eq!(mmcs.selected_video(session), Some("bob"));

    // (a) mallory is no member.
    assert!(refused(&mmcs.handle_xgsp(Some(alice), select(session, "mallory"))));
    assert_eq!(mmcs.selected_video(session), Some("bob"));

    // (b) bob does not chair the session.
    let terminate = XgspMessage::TerminateSession { session };
    assert!(refused(&mmcs.handle_xgsp(Some("bob"), terminate)));
    assert!(mmcs.session_server().session(session).is_some());
    assert_eq!(mmcs.selected_video(session), Some("bob"));

    // (c) no such session.
    let nowhere = SessionId::from_raw(99_999);
    assert!(refused(&mmcs.handle_xgsp(Some(alice), select(nowhere, "bob"))));
    assert_eq!(mmcs.selected_video(nowhere), None);

    // Nor does a non-member's or a terminated session's audio.
    mmcs.report_audio_level(nowhere, "bob", 0.9);
    assert_eq!(mmcs.selected_video(nowhere), None);
    mmcs.handle_xgsp(Some(alice), XgspMessage::TerminateSession { session });
    mmcs.report_audio_level(session, "bob", 0.9);
    assert_eq!(mmcs.selected_video(session), None);
}

/// The directory listing renders communities and live sessions.
#[test]
fn directory_listing_reflects_state() {
    let mut mmcs = GlobalMmcs::new();
    mmcs.communities_mut()
        .register("admire.cn", "Admire, China")
        .unwrap();
    mmcs.communities_mut()
        .publish_server("admire.cn", "AdmireConferenceService", "http://a/soap", "conference")
        .unwrap();
    mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:alice@example.org",
        "cid-d",
    ));
    let listing = mmcs.directory_listing();
    let xml = listing.to_xml();
    assert!(xml.contains("admire.cn"));
    assert!(xml.contains("AdmireConferenceService"));
    let sessions = listing.child("sessions").unwrap();
    assert_eq!(sessions.children_named("session").count(), 1);
}

/// Publishing to a topic nobody (but the media tap and the publisher)
/// subscribes to still feeds streaming, and reaches only the
/// publisher's own loopback.
#[test]
fn media_tap_alone_consumes_unwatched_streams() {
    let mut mmcs = GlobalMmcs::new();
    mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:alice@example.org",
        "cid-m",
    ));
    let session = mmcs.session_server().session_ids().next().unwrap();
    let topic = format!("globalmmcs/session-{}/audio", session.value());
    let publisher = media_endpoint(&mmcs, Some(&topic));
    let mut source = AudioSource::new(AudioCodec::Pcmu, 1);
    publish(&publisher, &topic, &source.next_packet());
    mmcs.broker().quiesce();
    // Publisher is itself subscribed (it listens on the topic), so the
    // only delivery is its own loopback.
    let loopback = drained(&publisher);
    assert_eq!(loopback.len(), 1);
    assert_eq!(loopback[0].source, publisher.id());
    mmcs.pump();
    assert_eq!(mmcs.helix().fed_count(&topic), 1);
}

/// The media-plane contract: a publish reaches exactly the endpoints on
/// its topic, each in publish order; an endpoint on another topic hears
/// nothing; the streaming tap sees every packet, including those a
/// `pump()` between publishes found already delivered; a malformed topic
/// does not parse.
#[test]
fn media_reaches_exactly_the_topic_in_publish_order() {
    let mut mmcs = GlobalMmcs::new();
    for call_id in ["cid-one", "cid-two"] {
        mmcs.handle_sip(&sip_invite(
            "sip:new-conf@mmcs.example",
            "sip:alice@example.org",
            call_id,
        ));
    }
    let mut sessions: Vec<SessionId> = mmcs.session_server().session_ids().collect();
    sessions.sort();
    assert_eq!(sessions.len(), 2);
    let audio = format!("globalmmcs/session-{}/audio", sessions[0].value());
    let elsewhere = format!("globalmmcs/session-{}/audio", sessions[1].value());
    // Alice speaks on the audio topic and listens on the session's video
    // topic: a client on the topic it publishes to gets its own packet
    // back (see `media_tap_alone_consumes_unwatched_streams`).
    let video = format!("globalmmcs/session-{}/video", sessions[0].value());
    let alice = media_endpoint(&mmcs, Some(&video));
    let bob = media_endpoint(&mmcs, Some(&audio));
    let carol = media_endpoint(&mmcs, Some(&audio));
    // Dave listens on the other session; no publish below may reach him.
    let dave = media_endpoint(&mmcs, Some(&elsewhere));

    let mut source = AudioSource::new(AudioCodec::Pcmu, 0xC0);
    let mut sent = Vec::new();
    for i in 0..50u64 {
        mmcs.set_now(SimTime::ZERO + SimDuration::from_millis(20 * i));
        let packet = source.next_packet();
        publish(&alice, &audio, &packet);
        sent.push(packet);
        mmcs.pump();
    }
    mmcs.broker().quiesce();
    for listener in [&bob, &carol] {
        let events = drained(listener);
        assert_eq!(events.len(), 50);
        for (i, (event, packet)) in events.iter().zip(&sent).enumerate() {
            assert_eq!(event.topic.to_string(), audio, "publish {i}");
            assert_eq!(event.seq, i as u64);
            assert_eq!(&RtpPacket::decode(&event.payload).unwrap(), packet);
        }
    }
    assert!(drained(&alice).is_empty());
    assert!(drained(&dave).is_empty());
    mmcs.pump();
    assert_eq!(mmcs.helix().fed_count(&audio), 50);
    assert_eq!(mmcs.helix().fed_count(&elsewhere), 0);

    assert!(TopicFilter::parse("globalmmcs//audio").is_err());
    assert!(TopicFilter::parse("").is_err());
    assert!(Topic::parse("globalmmcs//audio").is_err());
}

/// Media publishes are asynchronous: 1,000 back-to-back publishes need
/// one barrier before every subscriber holds all of them in order, and
/// a publish plus `pump()` returns while the broker's shard is stalled.
#[test]
fn media_publishes_do_not_wait_on_the_broker() {
    let mut mmcs = GlobalMmcs::new();
    mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:alice@example.org",
        "cid-async",
    ));
    let session = mmcs.session_server().session_ids().next().unwrap();
    let topic = format!("globalmmcs/session-{}/audio", session.value());
    let speaker = media_endpoint(&mmcs, None);
    let listeners: Vec<ShardedClient> =
        (0..3).map(|_| media_endpoint(&mmcs, Some(&topic))).collect();

    let mut source = AudioSource::new(AudioCodec::Pcmu, 0xA5);
    for _ in 0..1_000 {
        publish(&speaker, &topic, &source.next_packet());
    }
    mmcs.broker().quiesce();
    for listener in &listeners {
        let seqs: Vec<u64> = drained(listener).iter().map(|event| event.seq).collect();
        assert_eq!(seqs, (0..1_000).collect::<Vec<u64>>());
    }
    mmcs.pump();
    assert_eq!(mmcs.helix().fed_count(&topic), 1_000);

    mmcs.broker().stall_shard(0, Duration::from_secs(2));
    let started = Instant::now();
    publish(&speaker, &topic, &source.next_packet());
    mmcs.pump();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "publish + pump waited {:?} on a stalled shard",
        started.elapsed()
    );
    mmcs.broker().quiesce();
    mmcs.pump();
    assert_eq!(mmcs.helix().fed_count(&topic), 1_001);
}

/// The media tap feeds only the streams of live sessions: a packet on a
/// topic no session created, or on a terminated session's topic, is
/// dropped instead of starting (or restarting) a stream. Terminating a
/// session removes its streams from Helix.
#[test]
fn the_media_tap_feeds_only_live_session_topics() {
    let mut mmcs = GlobalMmcs::new();
    let session = created_session(&mmcs.handle_xgsp(
        Some("alice"),
        XgspMessage::CreateSession {
            name: "live".into(),
            mode: mmcs::xgsp::message::SessionMode::Scheduled,
            media: vec![mmcs::xgsp::media::MediaDescription::new(
                mmcs::xgsp::media::MediaKind::Audio,
                "PCMU",
            )],
        },
    ));
    let topic = format!("globalmmcs/session-{}/audio", session.value());
    let streams_before: Vec<String> =
        mmcs.helix().stream_names().into_iter().map(str::to_owned).collect();
    let speaker = media_endpoint(&mmcs, None);
    let mut source = AudioSource::new(AudioCodec::Pcmu, 0xD0);

    publish(&speaker, "globalmmcs/no-such-session/audio", &source.next_packet());
    publish(&speaker, &topic, &source.next_packet());
    mmcs.broker().quiesce();
    mmcs.pump();
    assert_eq!(mmcs.helix().stream_names(), streams_before);
    assert_eq!(mmcs.helix().fed_count(&topic), 1);

    mmcs.handle_xgsp(None, XgspMessage::TerminateSession { session });
    assert_eq!(mmcs.session_server().session_count(), 0);
    publish(&speaker, &topic, &source.next_packet());
    mmcs.broker().quiesce();
    mmcs.pump();
    let streams_after: Vec<&str> =
        streams_before.iter().map(String::as_str).filter(|s| *s != topic).collect();
    assert_eq!(streams_after.len() + 1, streams_before.len(), "the session had a stream");
    assert_eq!(mmcs.helix().stream_names(), streams_after);
    assert_eq!(mmcs.helix().fed_count(&topic), 0);
}

/// Video switching follows audio activity and respects chair pins,
/// driven through the public GlobalMmcs surface.
#[test]
fn video_switching_follows_activity_and_pins() {
    let mut mmcs = GlobalMmcs::new();
    let replies = mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:alice@example.org",
        "cid-v",
    ));
    assert_eq!(sip_status(&replies), Some(200));
    let session = mmcs.session_server().session_ids().next().unwrap();
    mmcs.handle_xgsp(
        Some("bob"),
        XgspMessage::Join {
            session,
            user: "bob".into(),
            terminal: TerminalId::from_raw(2),
            media: vec![],
        },
    );

    // Alice talks: she is selected.
    mmcs.set_now(SimTime::ZERO);
    mmcs.report_audio_level(session, "sip:alice@example.org", 0.8);
    assert_eq!(mmcs.selected_video(session), Some("sip:alice@example.org"));

    // The chair pins bob via XGSP media control.
    mmcs.handle_xgsp(
        Some("sip:alice@example.org"),
        XgspMessage::MediaControl {
            session,
            user: "bob".into(),
            op: mmcs::xgsp::message::MediaOp::Select,
            kind: "video".into(),
        },
    );
    assert_eq!(mmcs.selected_video(session), Some("bob"));
    // Loud audio does not displace the pin.
    mmcs.set_now(SimTime::ZERO + SimDuration::from_secs(10));
    mmcs.report_audio_level(session, "sip:alice@example.org", 1.0);
    assert_eq!(mmcs.selected_video(session), Some("bob"));

    // Bob leaves: the pin clears with him.
    mmcs.handle_xgsp(
        Some("bob"),
        XgspMessage::Leave {
            session,
            user: "bob".into(),
        },
    );
    assert_eq!(mmcs.selected_video(session), None);
}

/// Directory-authenticated joins: credentials and the active terminal
/// gate entry; the terminal's capabilities become the offered media.
#[test]
fn authenticated_join_uses_directory_binding() {
    let mut mmcs = GlobalMmcs::new();
    let replies = mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:host@example.org",
        "cid-auth",
    ));
    assert_eq!(sip_status(&replies), Some(200));
    let session = mmcs.session_server().session_ids().next().unwrap();

    let alice = mmcs
        .users_mut()
        .create_user("alice", "Alice", "secret")
        .unwrap();
    let terminal = mmcs
        .users_mut()
        .register_terminal(
            alice,
            "sip",
            "10.0.0.4:5060",
            vec!["audio/PCMU".into(), "video/H263".into()],
        )
        .unwrap();

    // No active terminal yet: refused.
    let err = mmcs
        .join_authenticated("alice", "secret", session)
        .unwrap_err();
    assert!(err.contains("no active terminal"));

    mmcs.users_mut().set_active_terminal(alice, terminal).unwrap();

    // Wrong password: refused.
    assert!(mmcs
        .join_authenticated("alice", "wrong", session)
        .unwrap_err()
        .contains("bad credentials"));

    // Correct credentials: joined with the terminal's media.
    let egress = mmcs
        .join_authenticated("alice", "secret", session)
        .unwrap();
    let topics = egress
        .iter()
        .find_map(|item| match item {
            Egress::Xgsp(XgspMessage::JoinAck { topics, .. }) => Some(topics.clone()),
            _ => None,
        })
        .expect("join ack");
    assert_eq!(topics.len(), 2, "audio + video from terminal capabilities");
    let member = mmcs
        .session_server()
        .session(session)
        .unwrap()
        .member("alice")
        .unwrap()
        .clone();
    assert_eq!(member.terminal, terminal);
}

/// RTCP receiver reports flow into the quality monitor and flag
/// degraded members; a stranger's report is dropped.
#[test]
fn rtcp_reports_drive_quality_monitoring() {
    use mmcs::rtp::rtcp::ReportBlock;
    let mut mmcs = GlobalMmcs::new();
    mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:alice@example.org",
        "cid-q",
    ));
    let session = mmcs.session_server().session_ids().next().unwrap();
    let join = XgspMessage::Join {
        session,
        user: "bob-h323".into(),
        terminal: TerminalId::from_raw(2),
        media: vec![],
    };
    mmcs.handle_xgsp(Some("bob-h323"), join);

    let healthy = ReportBlock {
        ssrc: 1,
        fraction_lost: 1,
        jitter: 80, // 10 ms at 8 kHz
        ..ReportBlock::default()
    };
    let lossy = ReportBlock {
        ssrc: 2,
        fraction_lost: 80, // ~31 %
        jitter: 80,
        ..ReportBlock::default()
    };
    mmcs.ingest_rtcp(session, "sip:alice@example.org", &healthy, 8000);
    mmcs.ingest_rtcp(session, "bob-h323", &lossy, 8000);
    mmcs.ingest_rtcp(session, "mallory", &lossy, 8000);
    assert!(!mmcs.quality().session_is_good(session));
    let degraded = mmcs.quality().degraded(session);
    assert_eq!(degraded.len(), 1);
    assert_eq!(degraded[0].0, "bob-h323");
    assert!(mmcs.quality().member(session, "mallory").is_none());
}

/// XGSP notifications translate per the bound endpoint kind: SIP users
/// get NOTIFY, IM users get stanzas, H.323 users get nothing (their
/// state rides the call signaling).
#[test]
fn notifications_translate_per_endpoint_kind() {
    let mut mmcs = GlobalMmcs::new();
    mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:alice@example.org",
        "cid-n",
    ));
    let session = mmcs.session_server().session_ids().next().unwrap();
    for (user, kind) in [
        ("sip-user", Some(EndpointKind::Sip("sip:su@ua.example".into()))),
        ("im-user", Some(EndpointKind::Im("im-user@mmcs".into()))),
        ("h323-user", Some(EndpointKind::H323)),
        ("unbound-user", None),
    ] {
        if let Some(kind) = kind {
            mmcs.bind_endpoint(user, kind);
        }
        mmcs.handle_xgsp(
            Some(user),
            XgspMessage::Join {
                session,
                user: user.into(),
                terminal: TerminalId::from_raw(9),
                media: vec![],
            },
        );
    }
    // alice (the SIP creator, bound to her URI by the gateway) plus the
    // four above are members.
    assert_eq!(
        mmcs.session_server().session(session).unwrap().member_count(),
        5
    );
    // A floor grant notifies every member; the returned egress carries
    // the translation for each member who has a notification channel.
    let egress = mmcs.handle_xgsp(
        Some("sip-user"),
        XgspMessage::Floor {
            session,
            op: mmcs::xgsp::message::FloorOp::Request,
            user: "sip-user".into(),
        },
    );
    let mut recipients = notified(&egress);
    recipients.sort_unstable();
    assert_eq!(
        recipients,
        vec!["im-user@mmcs", "sip:alice@example.org", "sip:su@ua.example"]
    );
    assert_eq!(egress.len(), 3, "no reply, no egress for the H.323 or unbound member");
    for item in &egress {
        match item {
            Egress::Sip(notify) => {
                assert_eq!(notify.method(), Some(SipMethod::Notify));
                assert_eq!(notify.header("Event"), Some("conference"));
                assert!(notify.body.contains("floor-granted"));
            }
            Egress::Stanza { stanza: Stanza::Message { body, .. }, .. } => {
                assert!(body.contains("floor-granted"));
            }
            other => panic!("unexpected egress {other:?}"),
        }
    }
}

/// A SIP join is announced to each member in the member's own protocol:
/// an IM-bound member gets one stanza and no SIP NOTIFY.
#[test]
fn sip_join_notifies_an_im_member_by_stanza() {
    let mut mmcs = GlobalMmcs::new();
    let created = mmcs.handle_xgsp(
        Some("carol"),
        XgspMessage::CreateSession {
            name: "mixed".into(),
            mode: mmcs::xgsp::message::SessionMode::AdHoc,
            media: vec![],
        },
    );
    let session = created_session(&created);
    mmcs.bind_endpoint("carol", EndpointKind::Im("carol@im.example".into()));
    mmcs.handle_xgsp(
        Some("carol"),
        XgspMessage::Join {
            session,
            user: "carol".into(),
            terminal: TerminalId::from_raw(3),
            media: vec![],
        },
    );

    let uri = format!("sip:conf-{}@mmcs.example", session.value());
    let egress = mmcs.handle_sip(&sip_invite(&uri, "sip:bob@example.org", "cid-im"));
    assert_eq!(sip_status(&egress), Some(200));
    let notifies = egress
        .iter()
        .filter(|item| matches!(item, Egress::Sip(m) if m.method() == Some(SipMethod::Notify)))
        .count();
    assert_eq!(notifies, 0, "{egress:?}");
    assert_eq!(notified(&egress), vec!["carol@im.example"]);
    let Some(Egress::Stanza { stanza: Stanza::Message { body, .. }, .. }) = egress.last() else {
        panic!("carol's stanza comes last, got {egress:?}");
    };
    assert!(body.contains("joined") && body.contains("sip:bob@example.org"));
}

/// A member who leaves by SIP BYE is no longer the selected video.
#[test]
fn sip_bye_clears_the_departed_member_from_video_selection() {
    let mut mmcs = GlobalMmcs::new();
    mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:alice@example.org",
        "cid-host",
    ));
    let session = mmcs.session_server().session_ids().next().unwrap();
    let uri = format!("sip:conf-{}@mmcs.example", session.value());
    let bob = "sip:bob@example.org";
    assert_eq!(sip_status(&mmcs.handle_sip(&sip_invite(&uri, bob, "cid-bob"))), Some(200));
    mmcs.report_audio_level(session, bob, 0.9);
    assert_eq!(mmcs.selected_video(session), Some(bob));

    assert_eq!(sip_status(&mmcs.handle_sip(&sip_bye(&uri, "cid-bob"))), Some(200));
    assert!(mmcs.session_server().session(session).unwrap().member(bob).is_none());
    assert_eq!(mmcs.selected_video(session), None);
}

/// An H.323 join is announced to the SIP-bound and the IM-bound members.
#[test]
fn h323_join_notifies_sip_and_im_members() {
    let mut mmcs = GlobalMmcs::new();
    mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:alice@example.org",
        "cid-alice",
    ));
    let session = mmcs.session_server().session_ids().next().unwrap();
    mmcs.bind_endpoint("carol", EndpointKind::Im("carol@im.example".into()));
    mmcs.handle_xgsp(
        Some("carol"),
        XgspMessage::Join {
            session,
            user: "carol".into(),
            terminal: TerminalId::from_raw(3),
            media: vec![],
        },
    );

    let mut endpoint = H323Endpoint::new("bob-h323");
    let others = h323_call_in(&mut mmcs, &mut endpoint, session);
    let mut recipients = notified(&others);
    recipients.sort_unstable();
    assert_eq!(recipients, vec!["carol@im.example", "sip:alice@example.org"]);
    assert_eq!(others.len(), 2, "{others:?}");
}

/// A session created over SOAP is the same session the SIP gateway
/// sees, and it streams like any other.
#[test]
fn soap_session_accepts_sip_invite_and_streams() {
    let mut mmcs = GlobalMmcs::new();
    let parts = soap(
        &mut mmcs,
        "createSession",
        &[("name", "web seminar"), ("mode", "scheduled"), ("organizer", "gcf")],
    )
    .unwrap();
    let id = &parts[0].1;

    let uri = format!("sip:conf-{id}@mmcs.example");
    let egress = mmcs.handle_sip(&sip_invite(&uri, "sip:alice@example.org", "cid-web"));
    assert_eq!(sip_status(&egress), Some(200));
    let session = SessionId::from_raw(id.parse().unwrap());
    assert_eq!(mmcs.session_server().session(session).unwrap().member_count(), 1);
    let audio = format!("globalmmcs/session-{id}/audio");
    let video = format!("globalmmcs/session-{id}/video");
    assert_eq!(mmcs.helix().stream_names(), vec![audio.as_str(), video.as_str()]);
}
