//! Failure injection: the system under partial failure — a lossy link,
//! a crashing client, overload drops and protocol abuse.

use mmcs::broker::batch::CostModel;
use mmcs::broker::simdrv::BrokerProcess;
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs::rtp::packet::payload_type;
use mmcs::rtp::source::{VideoSource, VideoSourceConfig};
use mmcs::sim::net::NicConfig;
use mmcs::sim::{LinkConfig, Simulation};
use mmcs::sip::message::{SipMessage, SipMethod};
use mmcs::xgsp::message::XgspMessage;
use mmcs::xgsp::server::{ServerOutput, SessionServer};
use mmcs_bench::load::{Publisher, PublisherConfig, RtpReceiver};
use mmcs_util::id::{BrokerId, ClientId};
use mmcs_util::rate::Bandwidth;
use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

/// A lossy access link: receivers detect the loss via sequence gaps and
/// their RTCP-style stats agree with the simulator's drop counters.
#[test]
fn receivers_measure_injected_loss() {
    let mut sim = Simulation::new(11);
    let sender_host = sim.add_host("sender", NicConfig::default());
    let broker_host = sim.add_host("broker", NicConfig::default());
    let client_host = sim.add_host("client", NicConfig::default());
    // 10% loss between broker and the client machine.
    sim.set_link(
        broker_host,
        client_host,
        LinkConfig {
            latency: SimDuration::from_micros(200),
            loss: 0.10,
        },
    );
    let broker = sim.add_typed_process(
        broker_host,
        BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
    );
    let receiver = sim.add_typed_process(
        client_host,
        RtpReceiver::new(
            broker,
            ClientId::from_raw(2),
            TopicFilter::parse("s/video").unwrap(),
            payload_type::H263,
            SimDuration::from_micros(10),
        ),
    );
    let mut config = PublisherConfig::new(
        broker,
        ClientId::from_raw(1),
        Topic::parse("s/video").unwrap(),
    );
    config.max_packets = 1000;
    let source = VideoSource::new(VideoSourceConfig::default(), 1, DetRng::new(3));
    sim.add_typed_process(sender_host, Publisher::new(config, source));
    sim.run_until(SimTime::from_secs(60));

    let stats = sim.process_ref::<RtpReceiver>(receiver).unwrap().stats();
    let dropped = sim.counter("net.dropped.loss");
    assert!(dropped > 0, "loss should have occurred");
    // The receiver's sequence-gap estimate matches the true drops
    // exactly on an otherwise in-order path (trailing losses after the
    // last received packet are invisible to the estimator).
    assert!(
        stats.lost() <= dropped && stats.lost() + 15 >= dropped,
        "estimated {} vs injected {}",
        stats.lost(),
        dropped
    );
    assert!((0.05..0.20).contains(&stats.loss_fraction()));
}

/// Broker overload: a undersized relay NIC drops tail packets; the
/// system degrades (loss) instead of deadlocking.
#[test]
fn overload_degrades_with_queue_drops() {
    let mut sim = Simulation::new(5);
    let sender_host = sim.add_host("sender", NicConfig::default());
    let broker_host = sim.add_host(
        "broker",
        NicConfig {
            bandwidth: Bandwidth::from_kbps(400), // < 600 Kbps stream
            queue_bytes: 32 * 1024,
            ..NicConfig::default()
        },
    );
    let client_host = sim.add_host("client", NicConfig::default());
    let broker = sim.add_typed_process(
        broker_host,
        BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
    );
    let receiver = sim.add_typed_process(
        client_host,
        RtpReceiver::new(
            broker,
            ClientId::from_raw(2),
            TopicFilter::parse("s/video").unwrap(),
            payload_type::H263,
            SimDuration::from_micros(10),
        ),
    );
    let mut config = PublisherConfig::new(
        broker,
        ClientId::from_raw(1),
        Topic::parse("s/video").unwrap(),
    );
    config.max_packets = 500;
    let source = VideoSource::new(VideoSourceConfig::default(), 1, DetRng::new(9));
    sim.add_typed_process(sender_host, Publisher::new(config, source));
    sim.run_until(SimTime::from_secs(30));

    assert!(sim.counter("net.dropped.queue") > 0, "queue should overflow");
    let stats = sim.process_ref::<RtpReceiver>(receiver).unwrap().stats();
    assert!(stats.received() > 0, "some media still flows");
    assert!(stats.loss_fraction() > 0.2, "overload must be visible");
}

/// A client crash (detach) mid-session: XGSP cleans membership, the
/// floor is freed, and the broker withdraws interest.
#[test]
fn client_crash_cleans_up() {
    let mut server = SessionServer::new();
    let outputs = server.handle(
        None,
        XgspMessage::CreateSession {
            name: "fragile".into(),
            mode: mmcs::xgsp::message::SessionMode::Scheduled,
            media: vec![],
        },
    );
    let session = outputs
        .iter()
        .find_map(|o| match o {
            ServerOutput::Reply(XgspMessage::SessionCreated { session, .. }) => Some(*session),
            _ => None,
        })
        .unwrap();
    for user in ["alice", "bob"] {
        server.handle(
            Some(user),
            XgspMessage::Join {
                session,
                user: user.into(),
                terminal: 1.into(),
                media: vec![],
            },
        );
    }
    // Alice takes the floor, then "crashes" (the gateway reports Leave).
    server.handle(
        Some("alice"),
        XgspMessage::Floor {
            session,
            op: mmcs::xgsp::message::FloorOp::Request,
            user: "alice".into(),
        },
    );
    assert_eq!(server.session(session).unwrap().floor().holder(), Some("alice"));
    server.handle(
        Some("alice"),
        XgspMessage::Leave {
            session,
            user: "alice".into(),
        },
    );
    let remaining = server.session(session).unwrap();
    assert_eq!(remaining.member_count(), 1);
    assert_eq!(remaining.floor().holder(), None);
    assert_eq!(remaining.chair(), Some("bob"), "chair failed over");
}

/// Protocol abuse at the SIP gateway: garbage dialogs and unknown
/// conferences produce clean SIP errors, never panics.
#[test]
fn sip_gateway_rejects_abuse() {
    use mmcs::global_mmcs::system::{Egress, GlobalMmcs};
    let mut mmcs = GlobalMmcs::new();
    let status = |replies: Vec<Egress>| match replies.first() {
        Some(Egress::Sip(response)) => response.status(),
        _ => None,
    };
    // BYE for a dialog that never existed.
    let stray_bye = SipMessage::request(SipMethod::Bye, "sip:conf-1@mmcs.example")
        .with_header("Via", "SIP/2.0/UDP x;branch=z9hG4bK9")
        .with_header("Call-ID", "ghost")
        .with_header("CSeq", "1 BYE");
    assert_eq!(status(mmcs.handle_sip(&stray_bye)), Some(481));
    // INVITE to a dead conference id.
    let invite = SipMessage::request(SipMethod::Invite, "sip:conf-424242@mmcs.example")
        .with_header("Via", "SIP/2.0/UDP x;branch=z9hG4bKa")
        .with_header("From", "<sip:m@x>;tag=1")
        .with_header("To", "<sip:conf-424242@mmcs.example>")
        .with_header("Call-ID", "dead")
        .with_header("CSeq", "1 INVITE");
    assert_eq!(status(mmcs.handle_sip(&invite)), Some(404));
    // A REGISTER with no To header.
    let broken = SipMessage::request(SipMethod::Register, "sip:mmcs.example")
        .with_header("Via", "SIP/2.0/UDP x;branch=z9hG4bKb");
    assert_eq!(status(mmcs.handle_sip(&broken)), Some(400));
}
