//! Ad-hoc collaboration: presence shows who is online, a chat room
//! gathers the group, and one command escalates the conversation into
//! an A/V meeting with invitations — the paper's ad-hoc mode (§2.1).
//!
//! Run with: `cargo run --example adhoc_meeting`

use mmcs::im::stanza::{Show, Stanza};
use mmcs::global_mmcs::system::{Egress, GlobalMmcs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mmcs = GlobalMmcs::new();

    // Everyone comes online and joins the project chat room.
    for user in ["alice", "bob", "carol"] {
        mmcs.handle_stanza(Stanza::Presence {
            from: user.into(),
            show: Show::Available,
            status: "working".into(),
        });
        mmcs.handle_stanza(Stanza::Iq {
            from: user.into(),
            kind: "set".into(),
            query: "join-room".into(),
            arg: "project-x".into(),
        });
    }
    println!("room project-x occupants: {:?}", mmcs.im().occupants("project-x"));

    // Some chat.
    let relayed = mmcs.handle_stanza(Stanza::Message {
        from: "alice".into(),
        to: "project-x".into(),
        body: "this is easier to discuss over video — joining a conference".into(),
    });
    println!("chat relayed to {} occupants", relayed.len());

    // Escalate: the room becomes an ad-hoc XGSP session.
    let (escalated, invites) = mmcs.escalate_room("project-x", "alice")?;
    println!("escalated to {escalated} with {} invitations:", invites.len());
    for invite in &invites {
        if let Egress::Stanza { to, stanza: Stanza::Message { body, .. } } = invite {
            println!("  -> {to}: {body}");
        }
    }

    let session = mmcs
        .session_server()
        .session(escalated)
        .expect("session exists");
    assert_eq!(session.chair(), Some("alice"));
    assert_eq!(session.member_count(), 1);
    assert_eq!(invites.len(), 2);
    println!(
        "session {escalated} carries {} media streams; ad-hoc meeting OK",
        session.streams().len()
    );
    Ok(())
}
