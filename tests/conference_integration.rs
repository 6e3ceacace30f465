//! Cross-protocol integration: the whole Global-MMCS stack in one
//! process — SIP, H.323, IM, Admire, Access Grid, HearMe, web services,
//! calendar, media.

use mmcs::admire::service::AdmireService;
use mmcs::global_mmcs::accessgrid::AccessGridService;
use mmcs::global_mmcs::bridge::CommunityBridge;
use mmcs::global_mmcs::hearme::HearMeService;
use mmcs::global_mmcs::system::{Egress, EndpointKind, GlobalMmcs};
use mmcs::global_mmcs::web::XgspWebServer;
use mmcs::h323::endpoint::{EndpointState, H323Endpoint};
use mmcs::im::stanza::Stanza;
use mmcs::rtp::source::{AudioCodec, AudioSource};
use mmcs::sip::message::{SipMessage, SipMethod};
use mmcs::soap::service::SoapClient;
use mmcs::xgsp::message::XgspMessage;
use mmcs::xgsp::wsdl_ci::{CiError, CollaborationServer};
use mmcs_util::id::{ClientId, SessionId, TerminalId};
use mmcs_util::time::{SimDuration, SimTime};

fn sip_invite(uri: &str, from: &str, call_id: &str) -> SipMessage {
    SipMessage::request(SipMethod::Invite, uri)
        .with_header("Via", "SIP/2.0/UDP ua;branch=z9hG4bK1")
        .with_header("From", format!("<{from}>;tag=1"))
        .with_header("To", format!("<{uri}>"))
        .with_header("Call-ID", call_id)
        .with_header("CSeq", "1 INVITE")
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
    assert_eq!(replies[0].status(), Some(200));
    let session = mmcs.session_server().session_ids().next().unwrap();

    // H.323 side joins the same conference.
    let mut endpoint = H323Endpoint::new("bob-h323");
    let mut queue = vec![endpoint.start()];
    let mut placed = false;
    while let Some(message) = queue.pop() {
        for reply in mmcs.handle_h323(&message) {
            queue.extend(endpoint.on_message(&reply));
        }
        if endpoint.state() == EndpointState::Registered && !placed {
            placed = true;
            queue.push(endpoint.place_call(format!("conf-{}", session.value()), 6400));
        }
    }
    assert_eq!(endpoint.state(), EndpointState::InCall);
    let conference = mmcs.session_server().session(session).unwrap();
    assert_eq!(conference.member_count(), 2);
    assert!(conference.member("sip:alice@example.org").is_some());
    assert!(conference.member("bob-h323").is_some());

    // Media: alice publishes audio on the session topic; a subscriber
    // bound to bob's side receives it.
    let topic = format!("globalmmcs/session-{}/audio", session.value());
    let alice_media = mmcs.attach_media_client(&topic).unwrap();
    let bob_media = mmcs.attach_media_client(&topic).unwrap();
    let mut source = AudioSource::new(AudioCodec::Pcmu, 0xA);
    let mut bob_received = 0;
    for i in 0..25u64 {
        mmcs.set_now(SimTime::ZERO + SimDuration::from_millis(20 * i));
        let packet = source.next_packet();
        for egress in mmcs.publish_rtp(alice_media, &topic, &packet) {
            if matches!(egress, Egress::Media { client, .. } if client == bob_media) {
                bob_received += 1;
            }
        }
    }
    assert_eq!(bob_received, 25);
    // The media service fed the stream tap too.
    assert_eq!(mmcs.helix().fed_count(&topic), 25);

    // Chat (XGSP app-data) relays from alice to bob only.
    mmcs.bind_endpoint("bob-h323", EndpointKind::Im("bob@mmcs".into()));
    let outputs = mmcs.handle_xgsp(
        Some("sip:alice@example.org"),
        XgspMessage::AppData {
            session,
            user: "sip:alice@example.org".into(),
            body: "hello from SIP land".into(),
        },
    );
    let notified: Vec<&str> = outputs
        .iter()
        .filter_map(|o| match o {
            mmcs::xgsp::server::ServerOutput::Notify { user, .. } => Some(user.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(notified, vec!["bob-h323"]);
}

/// The scheduled-mode flow: book via SOAP, open at the due time, join
/// by web service, terminate.
#[test]
fn scheduled_meeting_via_web_services() {
    let web = XgspWebServer::new();
    let mut soap = web.soap_server();

    let response = soap.handle(&SoapClient::request(
        "schedule",
        &[
            ("room", "auditorium"),
            ("organizer", "gcf"),
            ("title", "community grids talk"),
            ("startSecs", "100"),
            ("durationSecs", "1800"),
            ("invitees", "wu,uyar"),
        ],
    ));
    SoapClient::decode_response("schedule", &response).unwrap();

    assert!(web.open_due_meetings(SimTime::from_secs(99)).is_empty());
    let opened = web.open_due_meetings(SimTime::from_secs(100));
    assert_eq!(opened.len(), 1);
    let session_id = opened[0].value().to_string();

    // Two invitees join over SOAP.
    for user in ["wu", "uyar"] {
        let response = soap.handle(&SoapClient::request(
            "join",
            &[("sessionId", &session_id), ("user", user), ("terminal", "2")],
        ));
        let topics = SoapClient::decode_response("join", &response).unwrap();
        assert!(topics.iter().any(|(k, _)| k == "topic-audio"));
    }
    {
        let state = web.state();
        let state = state.borrow();
        let session = state.sessions.session(opened[0]).unwrap();
        assert_eq!(session.member_count(), 3);
        assert_eq!(session.chair(), Some("gcf"));
    }

    // Organizer terminates.
    let response = soap.handle(&SoapClient::request(
        "terminate",
        &[("sessionId", &session_id), ("user", "gcf")],
    ));
    SoapClient::decode_response("terminate", &response).unwrap();
    assert_eq!(web.state().borrow().sessions.session_count(), 0);
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
    let escalation = mmcs.escalate_room("war-room", "carol").unwrap();
    assert_eq!(escalation.invites.len(), 3);
    let session = mmcs.session_server().session(escalation.session).unwrap();
    assert_eq!(session.chair(), Some("carol"));

    // Invitees join through plain XGSP.
    for (i, user) in ["alice", "bob"].iter().enumerate() {
        let outputs = mmcs.handle_xgsp(
            Some(user),
            XgspMessage::Join {
                session: escalation.session,
                user: (*user).into(),
                terminal: TerminalId::from_raw(10 + i as u64),
                media: vec![],
            },
        );
        assert!(outputs.iter().any(|o| matches!(
            o,
            mmcs::xgsp::server::ServerOutput::Reply(XgspMessage::JoinAck { .. })
        )));
    }
    assert_eq!(
        mmcs.session_server()
            .session(escalation.session)
            .unwrap()
            .member_count(),
        3
    );
}

/// The Admire bridge mirrors membership and relays media through the
/// rendezvous agents.
#[test]
fn admire_bridge_end_to_end() {
    let mut mmcs = GlobalMmcs::new();
    // Create a session with one local member.
    let replies = mmcs.handle_sip(&sip_invite(
        "sip:new-conf@mmcs.example",
        "sip:alice@example.org",
        "cid-b",
    ));
    assert_eq!(replies[0].status(), Some(200));
    let session = mmcs.session_server().session_ids().next().unwrap();

    let mut bridge = CommunityBridge::new(
        "admire.cn",
        Box::new(AdmireService::new("admire.cn", "rdv.admire.cn")),
        "rdv.mmcs.example:8000",
    );
    let remote = bridge.bridge_session(session, "joint").unwrap();
    assert!(remote.starts_with("rdv.admire.cn:"));
    bridge
        .mirror_join(session, "sip:alice@example.org", TerminalId::from_raw(1))
        .unwrap();

    // Media relays through our agent at the rendezvous.
    let bridged = bridge.bridged_mut(session).unwrap();
    for _ in 0..10 {
        bridged
            .agent
            .relay(mmcs::admire::agent::Direction::Outbound, 1000)
            .unwrap();
    }
    assert_eq!(bridged.agent.outbound_stats(), (10, 10_000));
    bridge.unbridge_session(session).unwrap();
}

/// One session bridged to three communities at once. Admire answers the
/// rendezvous, Access Grid answers with its venue's multicast group, and
/// HearMe is audio-only: it refuses the rendezvous but still mirrors
/// membership. Teardown frees the venue and the room.
#[test]
fn one_session_bridges_to_admire_access_grid_and_hearme() {
    let mut mmcs = GlobalMmcs::new();
    let alice = "sip:alice@example.org";
    let replies = mmcs.handle_sip(&sip_invite("sip:new-conf@mmcs.example", alice, "cid-c"));
    assert_eq!(replies[0].status(), Some(200));
    let session = mmcs.session_server().session_ids().next().unwrap();

    let mut admire = CommunityBridge::new(
        "admire.cn",
        Box::new(AdmireService::new("admire.cn", "rdv.admire.cn")),
        "rdv.mmcs.example:8000",
    );
    let mut grid = CommunityBridge::new(
        "accessgrid.org",
        Box::new(AccessGridService::new()),
        "rdv.mmcs.example:8200",
    );
    let mut hearme = CommunityBridge::new(
        "hearme.example",
        Box::new(HearMeService::new()),
        "rdv.mmcs.example:8100",
    );
    assert!(admire.bridge_session(session, "joint").unwrap().starts_with("rdv.admire.cn:"));
    let venue = grid.bridge_session(session, "joint").unwrap();
    assert!(grid.bridged(session).unwrap().agent.is_started());
    assert!(matches!(hearme.bridge_session(session, "joint"), Err(CiError::Refused(_))));
    assert!(hearme.bridged(session).is_none());
    assert!(matches!(
        hearme.server_mut().control(session, "selectVideo", &[]),
        Err(CiError::Refused(_))
    ));

    // Access Grid: the rendezvous is the venue's video group, and every
    // venue gets groups of its own.
    let groups = grid.server_mut().control(session, "venueGroups", &[]).unwrap();
    assert_eq!(groups[0].0, "audioGroup");
    assert!(groups[0].1.starts_with("239.255."));
    assert_eq!(groups[1], ("videoGroup".to_owned(), venue));
    assert_ne!(groups[0].1, groups[1].1);
    let other = SessionId::from_raw(session.value() + 1);
    grid.server_mut().establish_session(other, "other venue").unwrap();
    let other_groups = grid.server_mut().control(other, "venueGroups", &[]).unwrap();
    assert_ne!(other_groups[0].1, groups[0].1);
    assert!(matches!(
        grid.server_mut().control(SessionId::from_raw(99_999), "venueGroups", &[]),
        Err(CiError::UnknownSession(_))
    ));

    // Joins and leaves are mirrored into each community.
    for bridge in [&mut admire, &mut grid, &mut hearme] {
        bridge.mirror_join(session, alice, TerminalId::from_raw(1)).unwrap();
        bridge.mirror_join(session, "bob", TerminalId::from_raw(2)).unwrap();
    }
    // A venue node may join twice (it stays one node; checked on the
    // service itself below).
    grid.mirror_join(session, "bob", TerminalId::from_raw(2)).unwrap();

    // HearMe: mute a member; dial out to a phone, which then is one.
    let mute = |user: &str| vec![("user".to_owned(), user.to_owned())];
    let muted = hearme.server_mut().control(session, "muteParticipant", &mute("bob"));
    assert_eq!(muted.unwrap(), vec![("status".to_owned(), "muted".to_owned())]);
    assert!(matches!(
        hearme.server_mut().control(session, "muteParticipant", &mute("ghost")),
        Err(CiError::UnknownMember(_))
    ));
    let dial = [("phoneNumber".to_owned(), "+1-555-0100".to_owned())];
    let ringing = hearme.server_mut().control(session, "dialOut", &dial).unwrap();
    assert_eq!(ringing[0].1, "ringing");
    let pstn = mute("pstn:+1-555-0100");
    hearme.server_mut().control(session, "muteParticipant", &pstn).unwrap();

    for bridge in [&mut admire, &mut grid, &mut hearme] {
        bridge.mirror_leave(session, "bob").unwrap();
        assert!(matches!(
            bridge.mirror_leave(session, "bob"),
            Err(CiError::UnknownMember(_))
        ));
    }
    // A member who left cannot be muted.
    assert!(matches!(
        hearme.server_mut().control(session, "muteParticipant", &mute("bob")),
        Err(CiError::UnknownMember(_))
    ));

    // Teardown frees the venue and the room.
    for bridge in [&mut admire, &mut grid, &mut hearme] {
        bridge.unbridge_session(session).unwrap();
        assert!(bridge.bridged(session).is_none());
        assert!(matches!(
            bridge.unbridge_session(session),
            Err(CiError::UnknownSession(_))
        ));
    }
    assert!(matches!(
        grid.server_mut().control(session, "venueGroups", &[]),
        Err(CiError::UnknownSession(_))
    ));
    assert!(matches!(
        hearme.server_mut().control(session, "muteParticipant", &mute(alice)),
        Err(CiError::UnknownSession(_))
    ));

    // What the bridge cannot see, checked on the services themselves: a
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

/// The media clients an egress batch reached, in order.
fn media_receivers(egress: &[Egress]) -> Vec<ClientId> {
    egress
        .iter()
        .filter_map(|e| match e {
            Egress::Media { client, .. } => Some(*client),
            _ => None,
        })
        .collect()
}

/// Publishing to a topic nobody (but the media tap and the publisher)
/// subscribes to still feeds streaming, and returns only the
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
    let publisher = mmcs.attach_media_client(&topic).unwrap();
    let mut source = AudioSource::new(AudioCodec::Pcmu, 1);
    let egress = mmcs.publish_rtp(publisher, &topic, &source.next_packet());
    // Publisher is itself subscribed (it attached to the topic), so the
    // only egress is its own loopback.
    assert_eq!(media_receivers(&egress), vec![publisher]);
    assert_eq!(mmcs.helix().fed_count(&topic), 1);
}

/// The media-plane contract: every `publish_rtp` returns its deliveries
/// before it returns, to exactly the clients on the topic, in `ClientId`
/// order; a client on another session's topic hears nothing; the
/// streaming tap sees every packet; a malformed topic is an error.
#[test]
fn publish_rtp_reaches_exactly_the_topic_in_client_order() {
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
    let alice = mmcs.attach_media_client(&video).unwrap();
    let bob = mmcs.attach_media_client(&audio).unwrap();
    let carol = mmcs.attach_media_client(&audio).unwrap();
    // Dave listens on the other session; no publish below may reach him.
    mmcs.attach_media_client(&elsewhere).unwrap();
    assert!(bob < carol);

    let mut source = AudioSource::new(AudioCodec::Pcmu, 0xC0);
    for i in 0..50u64 {
        mmcs.set_now(SimTime::ZERO + SimDuration::from_millis(20 * i));
        let packet = source.next_packet();
        let egress = mmcs.publish_rtp(alice, &audio, &packet);
        assert_eq!(media_receivers(&egress), vec![bob, carol], "publish {i}");
        for item in &egress {
            let Egress::Media { topic, rtp, .. } = item else {
                unreachable!("media_receivers saw only media");
            };
            assert_eq!(topic, &audio);
            assert_eq!(rtp, &packet);
        }
    }
    assert_eq!(mmcs.helix().fed_count(&audio), 50);
    assert_eq!(mmcs.helix().fed_count(&elsewhere), 0);

    assert!(mmcs.attach_media_client("globalmmcs//audio").is_err());
    assert!(mmcs.attach_media_client("").is_err());
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
    assert_eq!(replies[0].status(), Some(200));
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
    assert_eq!(replies[0].status(), Some(200));
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
    let outputs = mmcs
        .join_authenticated("alice", "secret", session)
        .unwrap();
    let topics = outputs
        .iter()
        .find_map(|o| match o {
            mmcs::xgsp::server::ServerOutput::Reply(XgspMessage::JoinAck { topics, .. }) => {
                Some(topics.clone())
            }
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
/// degraded members.
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
    assert!(!mmcs.quality().session_is_good(session));
    let degraded = mmcs.quality().degraded(session);
    assert_eq!(degraded.len(), 1);
    assert_eq!(degraded[0].0, "bob-h323");
}

/// XGSP notifications translate per the bound endpoint kind: SIP users
/// get NOTIFY, IM users get stanzas, H.323 users get nothing (their
/// state rides the call signaling).
#[test]
fn notifications_translate_per_endpoint_kind() {
    use mmcs::global_mmcs::system::{Egress, EndpointKind};
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
    // alice (the SIP creator, unbound) plus the four above are members.
    assert_eq!(
        mmcs.session_server().session(session).unwrap().member_count(),
        5
    );
    // A floor grant notifies every member; check the translations via a
    // fresh event that fans out.
    let outputs = mmcs.handle_xgsp(
        Some("sip-user"),
        XgspMessage::Floor {
            session,
            op: mmcs::xgsp::message::FloorOp::Request,
            user: "sip-user".into(),
        },
    );
    // Count raw notifications: all five members.
    let notify_count = outputs
        .iter()
        .filter(|o| matches!(o, mmcs::xgsp::server::ServerOutput::Notify { .. }))
        .count();
    assert_eq!(notify_count, 5);
    // The SIP-bound member's NOTIFY egress shape:
    if let Some(Egress::Sip(notify)) =
        test_support::egress_for(&mut mmcs, session, "sip-user")
    {
        assert_eq!(notify.method(), Some(mmcs::sip::message::SipMethod::Notify));
        assert_eq!(notify.header("Event"), Some("conference"));
    } else {
        panic!("sip-bound member must yield SIP egress");
    }
    if let Some(Egress::Stanza { to, .. }) =
        test_support::egress_for(&mut mmcs, session, "im-user")
    {
        assert_eq!(to, "im-user@mmcs");
    } else {
        panic!("im-bound member must yield stanza egress");
    }
    assert!(test_support::egress_for(&mut mmcs, session, "h323-user").is_none());
    assert!(test_support::egress_for(&mut mmcs, session, "unbound-user").is_none());
}

mod test_support {
    use mmcs::global_mmcs::system::{Egress, GlobalMmcs};
    use mmcs::xgsp::message::XgspMessage;
    use mmcs_util::id::SessionId;

    /// Produces one notification toward `user` and returns its egress
    /// translation, if any.
    pub fn egress_for(
        mmcs: &mut GlobalMmcs,
        session: SessionId,
        user: &str,
    ) -> Option<Egress> {
        mmcs.egress_for_notification(
            user,
            &XgspMessage::Notify {
                session,
                what: "probe".into(),
                user: user.into(),
            },
        )
    }
}
