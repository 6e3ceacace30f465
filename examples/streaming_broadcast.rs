//! Streaming: a conference's video is transcoded by the RealProducer,
//! served by the Helix-style server over RTSP, and archived for
//! time-shifted replay — the paper's "Real Servers" path.
//!
//! Run with: `cargo run --example streaming_broadcast`

use mmcs::broker::event::EventClass;
use mmcs::broker::topic::Topic;
use mmcs::rtp::source::{VideoSource, VideoSourceConfig};
use mmcs::streaming::rtsp::{RtspMethod, RtspRequest};
use mmcs::xgsp::media::{MediaDescription, MediaKind};
use mmcs::xgsp::message::{SessionMode, XgspMessage};
use mmcs_util::rng::DetRng;
use mmcs_util::time::SimTime;

use mmcs::global_mmcs::system::{Egress, GlobalMmcs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mmcs = GlobalMmcs::new();

    // A lecture session carrying video.
    let egress = mmcs.handle_xgsp(
        Some("lecturer"),
        XgspMessage::CreateSession {
            name: "streamed lecture".into(),
            mode: SessionMode::Scheduled,
            media: vec![MediaDescription::new(MediaKind::Video, "H263")],
        },
    );
    let session = egress
        .iter()
        .find_map(|item| match item {
            Egress::Xgsp(XgspMessage::SessionCreated { session, .. }) => Some(*session),
            _ => None,
        })
        .expect("created");
    let topic = format!("globalmmcs/session-{}/video", session.value());
    println!("lecture session: {session}, topic {topic}");

    // Start archiving the stream.
    mmcs.archive_mut().start(&topic);

    // An RTSP player tunes in: DESCRIBE -> SETUP -> PLAY.
    let describe = RtspRequest::new(RtspMethod::Describe, format!("rtsp://helix.mmcs/{topic}"), 1);
    let response = mmcs.helix_mut().handle_rtsp(&describe);
    println!("RTSP DESCRIBE -> {} ({} bytes of SDP)", response.code, response.body.len());
    let setup = RtspRequest::new(RtspMethod::Setup, format!("rtsp://helix.mmcs/{topic}"), 2);
    let response = mmcs.helix_mut().handle_rtsp(&setup);
    let rtsp_session = response.header("Session").expect("session id").to_owned();
    let play = RtspRequest::new(RtspMethod::Play, format!("rtsp://helix.mmcs/{topic}"), 3)
        .with_header("Session", &rtsp_session);
    assert_eq!(mmcs.helix_mut().handle_rtsp(&play).code, 200);
    println!("RTSP player {rtsp_session} is PLAYING");

    // The lecturer publishes 2 seconds of 600 Kbps video.
    // Each frame is streamed at its own (virtual) time: one barrier per
    // frame puts its packets in the media tap before `pump()` stamps them.
    let publisher = mmcs.broker().attach();
    let media_topic = Topic::parse(&topic)?;
    let mut source = VideoSource::new(VideoSourceConfig::default(), 0x1EC, DetRng::new(42));
    let mut clock = SimTime::ZERO;
    for _ in 0..50 {
        mmcs.set_now(clock);
        for packet in source.next_frame() {
            publisher.publish_class(media_topic.clone(), EventClass::Rtp, packet.encode());
        }
        mmcs.broker().quiesce();
        mmcs.pump();
        clock += source.frame_interval();
    }

    // The player received the transcoded chunks.
    let deliveries = mmcs.helix_mut().take_deliveries();
    let to_player = deliveries
        .iter()
        .filter(|d| d.session_id == rtsp_session)
        .count();
    println!("player received {to_player} Real chunks");
    assert!(to_player >= 48, "expected ~50 frames, got {to_player}");

    // And the archive can replay the lecture later, same pacing.
    let recording = mmcs
        .archive_mut()
        .recording(&topic)
        .expect("archived");
    let replay = recording.playback_schedule(SimTime::from_secs(3600));
    println!(
        "archive: {} chunks, {} of media, replay starts at t=3600s",
        recording.chunks().len(),
        recording.duration()
    );
    assert_eq!(replay.len(), recording.chunks().len());
    println!("streaming broadcast OK");
    Ok(())
}
