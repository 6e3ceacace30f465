//! Scheduled mode end to end: reserve a virtual room over the web
//! services, let the calendar open the meeting at its start time (its
//! invitees are invited), join participants over SOAP, and stream and
//! archive the seminar — the paper's "formal and large scale
//! collaborations" flow (§2.1).
//!
//! Run with: `cargo run --example scheduled_seminar`

use mmcs::broker::event::EventClass;
use mmcs::broker::topic::Topic;
use mmcs::global_mmcs::system::{Egress, EndpointKind, GlobalMmcs};
use mmcs::rtp::source::{AudioCodec, AudioSource};
use mmcs::soap::envelope::SoapFault;
use mmcs::soap::service::SoapClient;
use mmcs_util::time::{SimDuration, SimTime};

/// Calls one SOAP operation and decodes its response (the first egress).
fn soap(
    mmcs: &mut GlobalMmcs,
    operation: &str,
    parts: &[(&str, &str)],
) -> Result<Vec<(String, String)>, SoapFault> {
    match mmcs.handle_soap(&SoapClient::request(operation, parts)).first() {
        Some(Egress::Soap(response)) => SoapClient::decode_response(operation, response),
        other => panic!("a SOAP request is answered first, got {other:?}"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mmcs = GlobalMmcs::new();
    // Two invitees are reachable: one over IM, one over SIP.
    mmcs.bind_endpoint("wu", EndpointKind::Im("wu@im.mmcs.example".into()));
    mmcs.bind_endpoint("uyar", EndpointKind::Sip("sip:uyar@ua.example".into()));

    // 1. The organizer books the room for 10:00, one hour.
    let reservation = soap(
        &mut mmcs,
        "schedule",
        &[
            ("room", "auditorium"),
            ("organizer", "gcf"),
            ("title", "Global-MMCS seminar"),
            ("startSecs", "36000"), // 10:00
            ("durationSecs", "3600"),
            ("invitees", "wu,uyar,bulut,pallickara"),
        ],
    )?;
    println!("booked reservation {}", reservation[0].1);

    // 2. A conflicting booking is refused.
    let clash = soap(
        &mut mmcs,
        "schedule",
        &[
            ("room", "auditorium"),
            ("organizer", "someone-else"),
            ("title", "clashing meeting"),
            ("startSecs", "37800"),
            ("durationSecs", "3600"),
        ],
    );
    match clash {
        Err(fault) => println!("conflicting booking refused: {}", fault.reason),
        Ok(_) => panic!("conflict should have been refused"),
    }

    // 3. Nothing opens before time…
    mmcs.set_now(SimTime::from_secs(35_999));
    assert!(mmcs.open_due_meetings().0.is_empty());
    // …and at 10:00 the calendar opens the session, chaired by gcf, and
    // invites every invitee who has a notification channel.
    mmcs.set_now(SimTime::from_secs(36_000));
    let (opened, invites) = mmcs.open_due_meetings();
    let session = opened[0];
    println!("meeting opened at 10:00 as {session}");
    for invite in &invites {
        match invite {
            Egress::Stanza { to, .. } => println!("  invite -> IM {to}"),
            Egress::Sip(notify) => {
                println!("  invite -> SIP {}", notify.header("To").unwrap_or("?"));
            }
            other => panic!("unexpected invite egress {other:?}"),
        }
    }
    assert_eq!(invites.len(), 2);

    // 4. Invitees join over the same web service.
    let session_id = session.value().to_string();
    let mut audio_topic = String::new();
    for user in ["wu", "uyar", "bulut", "pallickara"] {
        let topics = soap(
            &mut mmcs,
            "join",
            &[("sessionId", &session_id), ("user", user), ("terminal", "1")],
        )?;
        audio_topic = topics
            .iter()
            .find(|(k, _)| k == "topic-audio")
            .map(|(_, v)| v.clone())
            .expect("audio topic");
        println!("  {user} joined; audio topic {audio_topic}");
    }
    let meeting = mmcs.session_server().session(session).expect("meeting");
    assert_eq!(meeting.member_count(), 5);
    assert_eq!(meeting.chair(), Some("gcf"));
    println!(
        "session {} has {} members, chaired by {}",
        session,
        meeting.member_count(),
        meeting.chair().unwrap()
    );

    // 5. The seminar is streamed and archived: its topics got streaming
    // taps when the session opened, and gcf speaks for two seconds.
    assert!(mmcs.helix().stream_names().contains(&audio_topic.as_str()));
    mmcs.archive_mut().start(&audio_topic);
    // The clock is virtual, so each 20 ms tick waits for its packet to
    // reach the media tap before `pump()` stamps it.
    let speaker = mmcs.broker().attach();
    let topic = Topic::parse(&audio_topic)?;
    let mut source = AudioSource::new(AudioCodec::Pcmu, 0x5E41);
    for i in 0..100u64 {
        mmcs.set_now(SimTime::from_secs(36_060) + SimDuration::from_millis(20 * i));
        speaker.publish_class(topic.clone(), EventClass::Rtp, source.next_packet().encode());
        mmcs.broker().quiesce();
        mmcs.pump();
    }
    let streamed = mmcs.helix().fed_count(&audio_topic);
    let recorded = mmcs.archive_mut().recording(&audio_topic).expect("archived");
    println!(
        "helix streamed {streamed} chunks; the archive holds {} ({})",
        recorded.chunks().len(),
        recorded.duration()
    );
    assert_eq!((streamed, recorded.chunks().len()), (100, 100));

    // 6. The organizer ends the seminar.
    soap(
        &mut mmcs,
        "terminate",
        &[("sessionId", &session_id), ("user", "gcf")],
    )?;
    assert_eq!(mmcs.session_server().session_count(), 0);
    println!("seminar terminated; scheduled flow OK");
    Ok(())
}
