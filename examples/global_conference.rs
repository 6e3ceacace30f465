//! The paper's flagship scenario: one conference spanning three
//! heterogeneous communities — a SIP endpoint, an H.323 terminal (via
//! gatekeeper + gateway) and the Admire community in China (via the
//! SOAP rendezvous flow) — with floor control over XGSP.
//!
//! Run with: `cargo run --example global_conference`

use mmcs::admire::service::AdmireService;
use mmcs::global_mmcs::system::{Egress, GlobalMmcs};
use mmcs::h323::endpoint::{EndpointState, H323Endpoint};
use mmcs::h323::msg::H323Message;
use mmcs::sip::message::{SipMessage, SipMethod};
use mmcs::xgsp::message::{FloorOp, XgspMessage};

/// One line naming where an egress item goes.
fn describe(egress: &Egress) -> String {
    match egress {
        Egress::Sip(message) => format!("SIP {}", message.header("To").unwrap_or("?")),
        Egress::Stanza { to, .. } => format!("IM {to}"),
        other => format!("{other:?}"),
    }
}

fn main() {
    let mut mmcs = GlobalMmcs::new();
    // The Admire community is bridged before anyone calls: every session
    // is mirrored into it over its web services.
    mmcs.bridge(Box::new(AdmireService::new("admire.cn", "rdv.admire.cn")));

    // --- A SIP user calls the conference factory URI. ---------------
    let invite = SipMessage::request(SipMethod::Invite, "sip:new-conf@mmcs.example")
        .with_header("Via", "SIP/2.0/UDP alice-ua;branch=z9hG4bK1")
        .with_header("From", "<sip:alice@example.org>;tag=1")
        .with_header("To", "<sip:new-conf@mmcs.example>")
        .with_header("Call-ID", "call-alice")
        .with_header("CSeq", "1 INVITE");
    let Some(Egress::Sip(ok)) = mmcs.handle_sip(&invite).into_iter().next() else {
        panic!("a SIP INVITE is answered first");
    };
    assert_eq!(ok.status(), Some(200));
    let session = mmcs
        .session_server()
        .session_ids()
        .next()
        .expect("conference exists");
    println!(
        "SIP: alice created and joined {session} (SDP answer targets {})",
        ok.body.lines().nth(3).unwrap_or("")
    );
    let agent = mmcs.agent("admire.cn", session).expect("Admire answered the rendezvous");
    println!(
        "Admire: conference mirrored over SOAP; our RTP agent meets Admire's at {}",
        agent.remote()
    );

    // --- An H.323 terminal walks the full RAS/Q.931/H.245 ladder. ---
    let mut h323 = H323Endpoint::new("bob-h323");
    let mut queue = vec![h323.start()];
    let mut admitted = false;
    while let Some(message) = queue.pop() {
        for egress in mmcs.handle_h323(&message) {
            match egress {
                Egress::H323(reply) => queue.extend(h323.on_message(&reply)),
                // alice, admitted over SIP, hears that bob joined.
                other => println!("H.323 join announced: {}", describe(&other)),
            }
        }
        if h323.state() == EndpointState::Registered && !admitted {
            admitted = true;
            queue.push(h323.place_call(format!("conf-{}", session.value()), 6400));
        }
    }
    assert_eq!(h323.state(), EndpointState::InCall);
    println!(
        "H.323: bob is in-call; media redirected to {}",
        h323.media_address().unwrap_or("?")
    );
    assert_eq!(
        mmcs.session_server().session(session).unwrap().member_count(),
        2
    );

    // --- Floor control across the federation. ------------------------
    let egress = mmcs.handle_xgsp(
        Some("sip:alice@example.org"),
        XgspMessage::Floor {
            session,
            op: FloorOp::Request,
            user: "sip:alice@example.org".into(),
        },
    );
    for item in &egress {
        println!("XGSP: floor grant announced: {}", describe(item));
    }
    println!(
        "XGSP: floor request produced {} notifications; holder = {:?}",
        egress.len(),
        mmcs.session_server()
            .session(session)
            .unwrap()
            .floor()
            .holder()
    );
    assert_eq!(
        mmcs.session_server()
            .session(session)
            .unwrap()
            .floor()
            .holder(),
        Some("sip:alice@example.org")
    );

    // --- Teardown: the H.323 side hangs up. ---------------------------
    for message in h323.hang_up() {
        if let H323Message::Ras(_) | H323Message::Q931(_) = message {
            mmcs.handle_h323(&message);
        }
    }
    assert_eq!(
        mmcs.session_server().session(session).unwrap().member_count(),
        1
    );
    // --- The chair ends the conference; Admire's side goes with it. ---
    let egress = mmcs.handle_xgsp(
        Some("sip:alice@example.org"),
        XgspMessage::TerminateSession { session },
    );
    assert!(egress.is_empty(), "{egress:?}");
    assert!(mmcs.agent("admire.cn", session).is_none());
    println!("teardown complete; global conference OK");
}
