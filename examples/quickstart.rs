//! Quickstart: create a conference, join two users, send audio, watch it
//! arrive — the smallest end-to-end tour of Global-MMCS.
//!
//! Run with: `cargo run --example quickstart`

use mmcs::rtp::source::{AudioCodec, AudioSource};
use mmcs::xgsp::media::{MediaDescription, MediaKind};
use mmcs::xgsp::message::{SessionMode, XgspMessage};
use mmcs_util::time::{SimDuration, SimTime};

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

    // 4. Attach media clients: alice publishes, bob subscribes.
    let alice_media = mmcs.attach_media_client(&audio_topic)?;
    let bob_media = mmcs.attach_media_client(&audio_topic)?;

    // 5. Alice talks for one second (50 PCMU packets).
    let mut source = AudioSource::new(AudioCodec::Pcmu, 0xA11CE);
    let mut received_by_bob = 0;
    for i in 0..50u64 {
        mmcs.set_now(SimTime::ZERO + SimDuration::from_millis(20 * i));
        let packet = source.next_packet();
        for egress in mmcs.publish_rtp(alice_media, &audio_topic, &packet)? {
            if let Egress::Media { client, .. } = egress {
                if client == bob_media {
                    received_by_bob += 1;
                }
                // (alice's own client also receives: she is subscribed.)
            }
        }
    }
    println!("bob received {received_by_bob}/50 audio packets");

    // 6. The media service also fed the streaming side automatically.
    println!(
        "helix ingested {} chunks on {}",
        mmcs.helix().fed_count(&audio_topic),
        audio_topic
    );

    assert_eq!(received_by_bob, 50);
    println!("quickstart OK");
    Ok(())
}
