//! End-to-end streaming: conference RTP -> RealProducer -> Helix ->
//! RTSP players, plus archiving and replay.

use mmcs::broker::event::EventClass;
use mmcs::broker::sharded::ShardedClient;
use mmcs::broker::topic::Topic;
use mmcs::global_mmcs::system::{Egress, GlobalMmcs};
use mmcs::rtp::packet::RtpPacket;
use mmcs::rtp::source::{AudioCodec, AudioSource, VideoSource, VideoSourceConfig};
use mmcs::streaming::producer::ChunkKind;
use mmcs::streaming::rtsp::{RtspMethod, RtspRequest};
use mmcs::xgsp::media::{MediaDescription, MediaKind};
use mmcs::xgsp::message::{SessionMode, XgspMessage};
use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

fn session_with_media(mmcs: &mut GlobalMmcs, media: Vec<MediaDescription>) -> u64 {
    let egress = mmcs.handle_xgsp(
        Some("host"),
        XgspMessage::CreateSession {
            name: "pipeline".into(),
            mode: SessionMode::Scheduled,
            media,
        },
    );
    egress
        .iter()
        .find_map(|item| match item {
            Egress::Xgsp(XgspMessage::SessionCreated { session, .. }) => {
                Some(session.value())
            }
            _ => None,
        })
        .expect("created")
}

/// Publishes `packets` (one audio packet or one video frame) at `now`
/// and streams them: the barrier puts them in the media tap, and
/// `pump()` stamps them at `now`.
fn stream_at(
    mmcs: &mut GlobalMmcs,
    publisher: &ShardedClient,
    topic: &str,
    now: SimTime,
    packets: &[RtpPacket],
) {
    mmcs.set_now(now);
    let topic = Topic::parse(topic).unwrap();
    for packet in packets {
        publisher.publish_class(topic.clone(), EventClass::Rtp, packet.encode());
    }
    mmcs.broker().quiesce();
    mmcs.pump();
}

#[test]
fn video_pipeline_transcodes_frames_not_packets() {
    let mut mmcs = GlobalMmcs::new();
    let session = session_with_media(
        &mut mmcs,
        vec![MediaDescription::new(MediaKind::Video, "H263")],
    );
    let topic = format!("globalmmcs/session-{session}/video");
    let publisher = mmcs.broker().attach();

    // One RTSP player.
    let setup = RtspRequest::new(RtspMethod::Setup, format!("rtsp://h/{topic}"), 1);
    let rtsp_session = mmcs
        .helix_mut()
        .handle_rtsp(&setup)
        .header("Session")
        .unwrap()
        .to_owned();
    let play = RtspRequest::new(RtspMethod::Play, format!("rtsp://h/{topic}"), 2)
        .with_header("Session", &rtsp_session);
    assert_eq!(mmcs.helix_mut().handle_rtsp(&play).code, 200);

    // 25 frames of video, multiple RTP packets each.
    let mut source = VideoSource::new(VideoSourceConfig::default(), 7, DetRng::new(1));
    let mut clock = SimTime::ZERO;
    let mut rtp_packets = 0;
    for _ in 0..25 {
        let frame = source.next_frame();
        rtp_packets += frame.len();
        stream_at(&mut mmcs, &publisher, &topic, clock, &frame);
        clock += source.frame_interval();
    }
    assert!(rtp_packets > 25, "frames span multiple packets");

    // The producer reassembled frames: chunk count == frame count.
    let deliveries = mmcs.helix_mut().take_deliveries();
    let player_chunks: Vec<_> = deliveries
        .iter()
        .filter(|d| d.session_id == rtsp_session)
        .collect();
    assert_eq!(player_chunks.len(), 25);
    assert!(player_chunks
        .iter()
        .all(|d| d.chunk.kind == ChunkKind::Video));
    // Chunks are compressed relative to the raw frame bytes.
    assert!(player_chunks[0].chunk.data.starts_with(b"REAL"));
}

#[test]
fn pause_stops_chunks_and_archive_replays_with_pacing() {
    let mut mmcs = GlobalMmcs::new();
    let session = session_with_media(
        &mut mmcs,
        vec![MediaDescription::new(MediaKind::Audio, "PCMU")],
    );
    let topic = format!("globalmmcs/session-{session}/audio");
    let publisher = mmcs.broker().attach();
    mmcs.archive_mut().start(&topic);

    let setup = RtspRequest::new(RtspMethod::Setup, format!("rtsp://h/{topic}"), 1);
    let rtsp_session = mmcs
        .helix_mut()
        .handle_rtsp(&setup)
        .header("Session")
        .unwrap()
        .to_owned();
    let play = RtspRequest::new(RtspMethod::Play, format!("rtsp://h/{topic}"), 2)
        .with_header("Session", &rtsp_session);
    mmcs.helix_mut().handle_rtsp(&play);

    let mut source = AudioSource::new(AudioCodec::Pcmu, 1);
    for i in 0..10u64 {
        let now = SimTime::ZERO + SimDuration::from_millis(20 * i);
        stream_at(&mut mmcs, &publisher, &topic, now, &[source.next_packet()]);
    }
    assert_eq!(mmcs.helix_mut().take_deliveries().len(), 10);

    // Pause, publish more: no deliveries, but archive keeps recording.
    let pause = RtspRequest::new(RtspMethod::Pause, format!("rtsp://h/{topic}"), 3)
        .with_header("Session", &rtsp_session);
    assert_eq!(mmcs.helix_mut().handle_rtsp(&pause).code, 200);
    for i in 10..20u64 {
        let now = SimTime::ZERO + SimDuration::from_millis(20 * i);
        stream_at(&mut mmcs, &publisher, &topic, now, &[source.next_packet()]);
    }
    assert!(mmcs.helix_mut().take_deliveries().is_empty());

    let recording = mmcs.archive_mut().recording(&topic).unwrap();
    assert_eq!(recording.chunks().len(), 20);
    assert_eq!(recording.duration(), SimDuration::from_millis(380));
    let replay = recording.playback_schedule(SimTime::from_secs(100));
    assert_eq!(replay[0].0, SimTime::from_secs(100));
    assert_eq!(
        replay.last().unwrap().0,
        SimTime::from_secs(100) + SimDuration::from_millis(380)
    );
}

#[test]
fn multiple_players_independent_state() {
    let mut mmcs = GlobalMmcs::new();
    let session = session_with_media(
        &mut mmcs,
        vec![MediaDescription::new(MediaKind::Audio, "PCMU")],
    );
    let topic = format!("globalmmcs/session-{session}/audio");
    let publisher = mmcs.broker().attach();

    let mut sessions = Vec::new();
    for cseq in 0..3 {
        let setup =
            RtspRequest::new(RtspMethod::Setup, format!("rtsp://h/{topic}"), cseq * 10 + 1);
        let id = mmcs
            .helix_mut()
            .handle_rtsp(&setup)
            .header("Session")
            .unwrap()
            .to_owned();
        sessions.push(id);
    }
    // Only players 0 and 2 press play.
    for idx in [0usize, 2] {
        let play = RtspRequest::new(RtspMethod::Play, format!("rtsp://h/{topic}"), 99)
            .with_header("Session", &sessions[idx]);
        assert_eq!(mmcs.helix_mut().handle_rtsp(&play).code, 200);
    }
    let mut source = AudioSource::new(AudioCodec::Pcmu, 1);
    stream_at(&mut mmcs, &publisher, &topic, SimTime::ZERO, &[source.next_packet()]);
    let deliveries = mmcs.helix_mut().take_deliveries();
    let recipients: Vec<&str> = deliveries.iter().map(|d| d.session_id.as_str()).collect();
    assert!(recipients.contains(&sessions[0].as_str()));
    assert!(!recipients.contains(&sessions[1].as_str()));
    assert!(recipients.contains(&sessions[2].as_str()));
}
