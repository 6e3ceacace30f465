//! Ad-hoc meeting bootstrap: chat room → XGSP session.
//!
//! "Ad-hoc needs Instant Messenger to provide chat and remote presence
//! services" (§2.1). The bootstrap takes a room's occupants, creates an
//! ad-hoc XGSP session named after the room through the door its caller
//! hands in, joins the initiator, and produces chat invitations for
//! everyone else.

use mmcs_util::id::{SessionId, TerminalId};
use mmcs_xgsp::media::{MediaDescription, MediaKind};
use mmcs_xgsp::message::{SessionMode, XgspMessage};
use mmcs_xgsp::server::ServerOutput;

use crate::server::{ImServer, Outgoing};
use crate::stanza::Stanza;

/// The result of escalating a room to a meeting.
#[derive(Debug, Clone, PartialEq)]
pub struct Escalation {
    /// The new session.
    pub session: SessionId,
    /// Chat invitations to deliver to the other occupants.
    pub invites: Vec<Outgoing>,
}

/// Errors from the bootstrap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EscalateError {
    /// The initiator is not in the room.
    NotInRoom,
    /// Session creation failed on the XGSP side.
    CreateFailed,
}

impl std::fmt::Display for EscalateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EscalateError::NotInRoom => write!(f, "initiator is not a room occupant"),
            EscalateError::CreateFailed => write!(f, "xgsp session creation failed"),
        }
    }
}

impl std::error::Error for EscalateError {}

/// Escalates `room` into an ad-hoc A/V session, sending the XGSP
/// messages through `xgsp` (the door into the session server); the
/// session is initiated by `initiator`, who is joined immediately with
/// `terminal`.
///
/// # Errors
///
/// [`EscalateError::NotInRoom`] when the initiator is not an occupant;
/// [`EscalateError::CreateFailed`] if the XGSP server refuses.
pub fn escalate_room(
    im: &ImServer,
    mut xgsp: impl FnMut(Option<&str>, XgspMessage) -> Vec<ServerOutput>,
    room: &str,
    initiator: &str,
    terminal: TerminalId,
) -> Result<Escalation, EscalateError> {
    let occupants = im.occupants(room);
    if !occupants.iter().any(|occupant| occupant == initiator) {
        return Err(EscalateError::NotInRoom);
    }
    let media = vec![
        MediaDescription::new(MediaKind::Audio, "PCMU"),
        MediaDescription::new(MediaKind::Video, "H263"),
    ];
    let outputs = xgsp(
        Some(initiator),
        XgspMessage::CreateSession {
            name: format!("ad-hoc: {room}"),
            mode: SessionMode::AdHoc,
            media: media.clone(),
        },
    );
    let session = outputs
        .iter()
        .find_map(|output| match output {
            ServerOutput::Reply(XgspMessage::SessionCreated { session, .. }) => Some(*session),
            _ => None,
        })
        .ok_or(EscalateError::CreateFailed)?;
    let join_outputs = xgsp(
        Some(initiator),
        XgspMessage::Join {
            session,
            user: initiator.to_owned(),
            terminal,
            media,
        },
    );
    if !join_outputs
        .iter()
        .any(|o| matches!(o, ServerOutput::Reply(XgspMessage::JoinAck { .. })))
    {
        return Err(EscalateError::CreateFailed);
    }
    let invites = occupants
        .iter()
        .filter(|occupant| *occupant != initiator)
        .map(|occupant| Outgoing {
            to: occupant.clone(),
            stanza: Stanza::Message {
                from: initiator.to_owned(),
                to: occupant.clone(),
                body: format!(
                    "join me in conference session-{} (from {room})",
                    session.value()
                ),
            },
        })
        .collect();
    Ok(Escalation { session, invites })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stanza::Stanza;
    use mmcs_xgsp::server::SessionServer;

    fn room_with(server: &mut ImServer, room: &str, users: &[&str]) {
        for user in users {
            server.handle(Stanza::Iq {
                from: (*user).into(),
                kind: "set".into(),
                query: "join-room".into(),
                arg: room.into(),
            });
        }
    }

    #[test]
    fn escalation_creates_session_and_invites_occupants() {
        let mut im = ImServer::new();
        let mut xgsp = SessionServer::new();
        room_with(&mut im, "planning", &["alice", "bob", "carol"]);
        let escalation = escalate_room(
            &im,
            |from, m| xgsp.handle(from, m),
            "planning",
            "alice",
            TerminalId::from_raw(1),
        )
        .unwrap();
        assert_eq!(escalation.invites.len(), 2);
        assert!(escalation.invites.iter().all(|invite| matches!(
            &invite.stanza,
            Stanza::Message { to, body, .. }
                if *to == invite.to && body.contains("join me in conference")
        )));
        let session = xgsp.session(escalation.session).unwrap();
        assert_eq!(session.member_count(), 1);
        assert_eq!(session.chair(), Some("alice"));
        // The session carries both media.
        assert_eq!(session.streams().len(), 2);
    }

    #[test]
    fn initiator_must_be_in_the_room() {
        let mut im = ImServer::new();
        let mut xgsp = SessionServer::new();
        room_with(&mut im, "planning", &["bob"]);
        let result = escalate_room(
            &im,
            |from, m| xgsp.handle(from, m),
            "planning",
            "alice",
            TerminalId::from_raw(1),
        );
        assert_eq!(result, Err(EscalateError::NotInRoom));
        assert_eq!(xgsp.session_count(), 0);
    }

    #[test]
    fn solo_room_escalates_with_no_invites() {
        let mut im = ImServer::new();
        let mut xgsp = SessionServer::new();
        room_with(&mut im, "solo", &["alice"]);
        let door = |from: Option<&str>, m| xgsp.handle(from, m);
        let escalation =
            escalate_room(&im, door, "solo", "alice", TerminalId::from_raw(1)).unwrap();
        assert!(escalation.invites.is_empty());
        assert_eq!(xgsp.session_count(), 1);
    }
}
