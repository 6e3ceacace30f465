//! Quickstart: create a conference, join two users, send audio, watch it
//! arrive — the smallest end-to-end tour of Global-MMCS.
//!
//! Run with: `cargo run --example quickstart`

use mmcs::broker::event::EventClass;
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs::rtp::source::{AudioCodec, AudioSource};
use mmcs::xgsp::media::{MediaDescription, MediaKind};
use mmcs::xgsp::message::{SessionMode, XgspMessage};

use mmcs::global_mmcs::system::{Egress, GlobalMmcs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mmcs = GlobalMmcs::new();

    // 1. Register users in the directory.
    let alice = mmcs.users_mut().create_user("alice", "Alice", "pw-a")?;
    let bob = mmcs.users_mut().create_user("bob", "Bob", "pw-b")?;
    let alice_terminal =
        mmcs.users_mut()
            .register_terminal(alice, "sip", "10.0.0.4:5060", vec!["audio/PCMU".into()])?;
    let bob_terminal =
        mmcs.users_mut()
            .register_terminal(bob, "sip", "10.0.0.5:5060", vec!["audio/PCMU".into()])?;
    println!("registered {} users", mmcs.users_mut().user_count());

    // 2. Create an ad-hoc session over the XGSP session server.
    let egress = mmcs.handle_xgsp(
        Some("alice"),
        XgspMessage::CreateSession {
            name: "quickstart".into(),
            mode: SessionMode::AdHoc,
            media: vec![MediaDescription::new(MediaKind::Audio, "PCMU")],
        },
    );
    let session = egress
        .iter()
        .find_map(|item| match item {
            Egress::Xgsp(XgspMessage::SessionCreated { session, .. }) => Some(*session),
            _ => None,
        })
        .expect("session created");
    println!("created {session}");

    // 3. Both users join; the JoinAck carries the broker topic.
    let mut audio_topic = String::new();
    for (user, terminal) in [("alice", alice_terminal), ("bob", bob_terminal)] {
        let egress = mmcs.handle_xgsp(
            Some(user),
            XgspMessage::Join {
                session,
                user: user.into(),
                terminal,
                media: vec![MediaDescription::new(MediaKind::Audio, "PCMU")],
            },
        );
        for item in &egress {
            if let Egress::Xgsp(XgspMessage::JoinAck { topics, .. }) = item {
                audio_topic = topics[0].1.clone();
            }
        }
        println!("{user} joined");
    }
    println!("audio topic: {audio_topic}");

    // 4. Media endpoints are broker clients: alice publishes, bob
    // subscribes to the session's audio topic.
    let alice_media = mmcs.broker().attach();
    let bob_media = mmcs.broker().attach();
    bob_media.subscribe(TopicFilter::parse(&audio_topic)?);

    // 5. Alice talks for one second (50 PCMU packets). A publish does
    // not wait for delivery; one barrier afterwards does.
    let topic = Topic::parse(&audio_topic)?;
    let mut source = AudioSource::new(AudioCodec::Pcmu, 0xA11CE);
    for _ in 0..50 {
        let packet = source.next_packet();
        alice_media.publish_class(topic.clone(), EventClass::Rtp, packet.encode());
    }
    mmcs.broker().quiesce();
    let mut delivered = Vec::new();
    let received_by_bob = bob_media.drain_into(&mut delivered);
    println!("bob received {received_by_bob}/50 audio packets");

    // 6. The media service tapped the topic too; pumping it feeds the
    // streaming side.
    mmcs.pump();
    println!(
        "helix ingested {} chunks on {}",
        mmcs.helix().fed_count(&audio_topic),
        audio_topic
    );

    assert_eq!(received_by_bob, 50);
    assert_eq!(mmcs.helix().fed_count(&audio_topic), 50);
    println!("quickstart OK");
    Ok(())
}
