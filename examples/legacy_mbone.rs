//! Legacy endpoints through a rendezvous agent: an MBONE tool in an
//! Access Grid venue, which speaks only raw RTP, joins a broker-carried
//! conference through the RTP agent Global-MMCS stands up at the venue's
//! rendezvous — "any RTP client … can publish its RTP messages through
//! RTP Proxies in the NaradaBrokering system" (§3.2). Runs on the live
//! broker.
//!
//! Run with: `cargo run --example legacy_mbone`

use bytes::Bytes;
use mmcs::broker::event::EventClass;
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs::global_mmcs::accessgrid::AccessGridService;
use mmcs::global_mmcs::system::{Egress, GlobalMmcs};
use mmcs::rtp::packet::{payload_type, RtpHeader, RtpPacket};
use mmcs::rtp::source::{AudioCodec, AudioSource};
use mmcs::sip::message::{SipMessage, SipMethod};

/// A SIP user calls `uri`; returns whether the call was accepted.
fn sip_call(mmcs: &mut GlobalMmcs, uri: &str, from: &str) -> bool {
    let invite = SipMessage::request(SipMethod::Invite, uri)
        .with_header("Via", "SIP/2.0/UDP ua;branch=z9hG4bK1")
        .with_header("From", format!("<{from}>;tag=1"))
        .with_header("To", format!("<{uri}>"))
        .with_header("Call-ID", format!("call-{from}"))
        .with_header("CSeq", "1 INVITE");
    matches!(
        mmcs.handle_sip(&invite).first(),
        Some(Egress::Sip(ok)) if ok.status() == Some(200)
    )
}

fn main() {
    let mut mmcs = GlobalMmcs::new();
    mmcs.bridge(Box::new(AccessGridService::new()));

    // Two SIP users meet; the session is mirrored into an Access Grid
    // venue, whose video group is the rendezvous.
    assert!(sip_call(&mut mmcs, "sip:new-conf@mmcs.example", "sip:alice@example.org"));
    let session = mmcs.session_server().session_ids().next().expect("conference exists");
    let uri = format!("sip:conf-{}@mmcs.example", session.value());
    assert!(sip_call(&mut mmcs, &uri, "sip:bob@example.org"));
    let agent = mmcs.agent("accessgrid.org", session).expect("the venue answered");
    println!("Access Grid venue bridged; RTP agent at {}", agent.remote());

    // Alice talks; bob (a native desktop client) listens on the topic.
    let topic = Topic::parse(&format!("globalmmcs/session-{}/audio", session.value())).unwrap();
    let alice = mmcs.broker().attach();
    let bob = mmcs.broker().attach();
    bob.subscribe(TopicFilter::exact(&topic));

    // The MBONE tool's raw RTP arrives at the rendezvous; alice's goes
    // out through the broker.
    let mut source = AudioSource::new(AudioCodec::Pcmu, 7);
    for seq in 0..100u16 {
        let rtp = RtpPacket::new(
            RtpHeader::new(payload_type::PCMU, seq, u32::from(seq) * 160, 0xB0E),
            Bytes::from(vec![0u8; 160]),
        );
        agent.inbound(rtp.encode()).expect("valid RTP");
        if seq < 80 {
            alice.publish_class(topic.clone(), EventClass::Rtp, source.next_packet().encode());
        }
    }
    mmcs.broker().quiesce();

    let mut heard = Vec::new();
    bob.drain_into(&mut heard);
    let from_alice = heard.iter().filter(|event| event.source == alice.id()).count();
    let mut back = Vec::new();
    agent.outbound(&mut back);
    println!(
        "native client received {} packets ({} legacy + {from_alice} native)",
        heard.len(),
        heard.len() - from_alice
    );
    println!(
        "legacy MBONE tool received {} packets back through the agent",
        back.len()
    );
    assert_eq!(heard.len(), 180);
    assert_eq!(back.len(), 80);
    println!("legacy interop OK: raw RTP joined the broker conference");
}
