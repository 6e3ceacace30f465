//! The XGSP web server: the SOAP facade and scheduled-meeting opening.
//!
//! "The XGSP Web Server … can invoke web-services provided by other
//! communities" and users "log into some web site … to make reservation
//! of some virtual meeting room" (§2.1, §3.2).
//! [`GlobalMmcs::handle_soap`] publishes the session operations over SOAP
//! (`createSession`, `join`, `leave`, `terminate`, `schedule`,
//! `listSessions`) and a bridged community's own operations (`control`,
//! through [`GlobalMmcs::community_mut`]), and
//! [`GlobalMmcs::open_due_meetings`] turns due calendar reservations
//! into live scheduled sessions. Both run on the
//! system's own calendar and only translate: every session operation
//! goes through [`GlobalMmcs::handle_xgsp`], the one door into the
//! system's session server, so a session made over the web gets its
//! streaming taps and its members hear about it like any other.

use mmcs_soap::envelope::SoapFault;
use mmcs_soap::rpc::RpcCall;
use mmcs_soap::service::respond;
use mmcs_util::id::{SessionId, TerminalId};
use mmcs_util::time::{SimDuration, SimTime};
use mmcs_xgsp::media::{MediaDescription, MediaKind};
use mmcs_xgsp::message::{SessionMode, XgspMessage};

use crate::system::{Egress, GlobalMmcs};

/// The media of every session created or joined over the web.
fn web_media() -> Vec<MediaDescription> {
    vec![
        MediaDescription::new(MediaKind::Audio, "PCMU"),
        MediaDescription::new(MediaKind::Video, "H263"),
    ]
}

fn fault(code: &str, reason: impl Into<String>) -> SoapFault {
    SoapFault {
        code: code.into(),
        reason: reason.into(),
    }
}

/// A part the call must carry.
fn part<'a>(call: &'a RpcCall, name: &str) -> Result<&'a str, SoapFault> {
    call.part(name)
        .ok_or_else(|| fault("Client", format!("missing part {name:?}")))
}

/// A part the call must carry as a number.
fn number(call: &RpcCall, name: &str) -> Result<u64, SoapFault> {
    part(call, name)?
        .parse()
        .map_err(|_| fault("Client", format!("bad {name}")))
}

impl GlobalMmcs {
    /// Serves one SOAP request document. Returns the response document
    /// (a fault included) as [`Egress::Soap`], then the egress of every
    /// notification the operation caused.
    pub fn handle_soap(&mut self, request_xml: &str) -> Vec<Egress> {
        let mut egress = Vec::new();
        let response = respond(request_xml, |call| self.soap_call(call, &mut egress));
        egress.insert(0, Egress::Soap(response));
        egress
    }

    /// Opens every reservation due at the system clock that is not open
    /// yet as a scheduled session: the organizer creates it, joins it
    /// (and so chairs it) and invites each invitee. Returns the new
    /// session ids and the invites' egress, each translated for the
    /// invitee's endpoint kind.
    pub fn open_due_meetings(&mut self) -> (Vec<SessionId>, Vec<Egress>) {
        let now = self.now();
        let due: Vec<_> = self.calendar_mut().due(now).into_iter().cloned().collect();
        let mut opened = Vec::new();
        let mut egress = Vec::new();
        for meeting in due {
            if !self.opened.insert(meeting.id) {
                continue;
            }
            let organizer = meeting.organizer.as_str();
            let create = XgspMessage::CreateSession {
                name: meeting.title.clone(),
                mode: SessionMode::Scheduled,
                media: web_media(),
            };
            let Ok(Some(XgspMessage::SessionCreated { session, .. })) =
                self.web_xgsp(organizer, create, &mut egress)
            else {
                continue;
            };
            let join = XgspMessage::Join {
                session,
                user: meeting.organizer.clone(),
                terminal: TerminalId::from_raw(1),
                media: vec![],
            };
            let invites = meeting.invitees.iter().map(|invitee| XgspMessage::Invite {
                session,
                from: meeting.organizer.clone(),
                to: invitee.clone(),
            });
            for message in std::iter::once(join).chain(invites) {
                // The organizer joins a fresh session and then invites as
                // its only member: none of these can be refused.
                let _ = self.web_xgsp(organizer, message, &mut egress);
            }
            opened.push(session);
        }
        (opened, egress)
    }

    /// Sends one message through the XGSP door for a web requester. The
    /// egress it caused joins `egress`; an error reply becomes a
    /// `Server` fault, and any other reply is returned.
    fn web_xgsp(
        &mut self,
        from: &str,
        message: XgspMessage,
        egress: &mut Vec<Egress>,
    ) -> Result<Option<XgspMessage>, SoapFault> {
        let mut reply = None;
        for item in self.handle_xgsp(Some(from), message) {
            match item {
                Egress::Xgsp(message) => reply = Some(message),
                other => egress.push(other),
            }
        }
        match reply {
            Some(XgspMessage::Error { code, detail }) => {
                Err(fault("Server", format!("{code}: {detail}")))
            }
            reply => Ok(reply),
        }
    }

    /// Runs one SOAP operation.
    fn soap_call(
        &mut self,
        call: &RpcCall,
        egress: &mut Vec<Egress>,
    ) -> Result<Vec<(String, String)>, SoapFault> {
        let status_ok = || vec![("status".to_owned(), "ok".to_owned())];
        match call.operation.as_str() {
            "createSession" => {
                let name = part(call, "name")?.to_owned();
                let mode = match part(call, "mode")? {
                    "adhoc" => SessionMode::AdHoc,
                    "scheduled" => SessionMode::Scheduled,
                    other => return Err(fault("Client", format!("bad mode {other:?}"))),
                };
                let organizer = part(call, "organizer")?;
                let create = XgspMessage::CreateSession {
                    name,
                    mode,
                    media: web_media(),
                };
                match self.web_xgsp(organizer, create, egress)? {
                    Some(XgspMessage::SessionCreated { session, .. }) => {
                        Ok(vec![("sessionId".into(), session.value().to_string())])
                    }
                    _ => Err(fault("Server", "creation failed")),
                }
            }
            "join" => {
                let session = SessionId::from_raw(number(call, "sessionId")?);
                let user = part(call, "user")?;
                let terminal = TerminalId::from_raw(number(call, "terminal")?);
                let join = XgspMessage::Join {
                    session,
                    user: user.to_owned(),
                    terminal,
                    media: web_media(),
                };
                let topics = match self.web_xgsp(user, join, egress)? {
                    Some(XgspMessage::JoinAck { topics, .. }) => topics,
                    _ => Vec::new(),
                };
                Ok(topics
                    .into_iter()
                    .map(|(kind, topic)| (format!("topic-{kind}"), topic))
                    .collect())
            }
            "leave" => {
                let session = SessionId::from_raw(number(call, "sessionId")?);
                let user = part(call, "user")?;
                let leave = XgspMessage::Leave {
                    session,
                    user: user.to_owned(),
                };
                self.web_xgsp(user, leave, egress)?;
                Ok(status_ok())
            }
            "terminate" => {
                let session = SessionId::from_raw(number(call, "sessionId")?);
                let user = part(call, "user")?;
                self.web_xgsp(user, XgspMessage::TerminateSession { session }, egress)?;
                Ok(status_ok())
            }
            "schedule" => {
                let room = part(call, "room")?;
                let organizer = part(call, "organizer")?;
                let title = part(call, "title")?;
                let start = SimTime::from_secs(number(call, "startSecs")?);
                let duration = SimDuration::from_secs(number(call, "durationSecs")?);
                let invitees = call
                    .part("invitees")
                    .map(|list| {
                        list.split(',')
                            .filter(|invitee| !invitee.is_empty())
                            .map(str::to_owned)
                            .collect()
                    })
                    .unwrap_or_default();
                let reservation = self
                    .calendar_mut()
                    .book(room, organizer, invitees, start, duration, title)
                    .map_err(|e| fault("Server", e.to_string()))?;
                Ok(vec![("reservationId".into(), reservation.value().to_string())])
            }
            "control" => {
                let name = part(call, "community")?;
                let session = SessionId::from_raw(number(call, "sessionId")?);
                let operation = part(call, "operation")?.to_owned();
                let args: Vec<(String, String)> = call
                    .parts
                    .iter()
                    .filter(|(n, _)| !matches!(n.as_str(), "community" | "sessionId" | "operation"))
                    .cloned()
                    .collect();
                let community = self
                    .community_mut(name)
                    .ok_or_else(|| fault("Client", format!("unknown community {name:?}")))?;
                community
                    .control(session, &operation, &args)
                    .map_err(|e| fault("Server", e.to_string()))
            }
            "listSessions" => {
                let mut ids: Vec<u64> =
                    self.session_server().session_ids().map(|id| id.value()).collect();
                ids.sort_unstable();
                let list = ids.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
                Ok(vec![("sessions".into(), list)])
            }
            other => Err(fault("Client", format!("unknown operation {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcs_soap::service::SoapClient;

    /// Calls one SOAP operation on `mmcs` and decodes its response.
    fn soap(
        mmcs: &mut GlobalMmcs,
        operation: &str,
        parts: &[(&str, &str)],
    ) -> Result<Vec<(String, String)>, SoapFault> {
        let egress = mmcs.handle_soap(&SoapClient::request(operation, parts));
        let Some(Egress::Soap(response)) = egress.first() else {
            panic!("a SOAP request is answered first, got {egress:?}");
        };
        SoapClient::decode_response(operation, response)
    }

    #[test]
    fn soap_create_join_list_terminate_cycle() {
        let mut mmcs = GlobalMmcs::new();

        let parts = soap(
            &mut mmcs,
            "createSession",
            &[("name", "demo"), ("mode", "adhoc"), ("organizer", "alice")],
        )
        .unwrap();
        let session_id = parts[0].1.clone();

        let topics = soap(
            &mut mmcs,
            "join",
            &[("sessionId", &session_id), ("user", "alice"), ("terminal", "1")],
        )
        .unwrap();
        assert!(topics.iter().any(|(k, _)| k == "topic-audio"));
        assert!(topics.iter().any(|(k, v)| k == "topic-video" && v.contains("/video")));

        let sessions = soap(&mut mmcs, "listSessions", &[]).unwrap();
        assert_eq!(sessions[0].1, session_id);

        soap(
            &mut mmcs,
            "terminate",
            &[("sessionId", &session_id), ("user", "alice")],
        )
        .unwrap();
        assert_eq!(mmcs.session_server().session_count(), 0);
    }

    #[test]
    fn join_unknown_session_faults() {
        let mut mmcs = GlobalMmcs::new();
        let fault = soap(
            &mut mmcs,
            "join",
            &[("sessionId", "99"), ("user", "alice"), ("terminal", "1")],
        )
        .unwrap_err();
        assert!(fault.reason.contains("unknown-session"));
    }

    #[test]
    fn malformed_terminal_is_a_client_fault() {
        let mut mmcs = GlobalMmcs::new();
        let parts = soap(
            &mut mmcs,
            "createSession",
            &[("name", "demo"), ("mode", "adhoc"), ("organizer", "alice")],
        )
        .unwrap();
        let session_id = parts[0].1.clone();
        let fault = soap(
            &mut mmcs,
            "join",
            &[("sessionId", &session_id), ("user", "bob"), ("terminal", "one")],
        )
        .unwrap_err();
        assert_eq!((fault.code.as_str(), fault.reason.as_str()), ("Client", "bad terminal"));
        let session = SessionId::from_raw(session_id.parse().unwrap());
        let session = mmcs.session_server().session(session).unwrap();
        assert!(session.member("bob").is_none());
    }

    #[test]
    fn schedule_then_open_due_meetings() {
        let mut mmcs = GlobalMmcs::new();
        soap(
            &mut mmcs,
            "schedule",
            &[
                ("room", "room-a"),
                ("organizer", "prof-fox"),
                ("title", "grid seminar"),
                ("startSecs", "600"),
                ("durationSecs", "3600"),
                ("invitees", "wu,uyar,bulut"),
            ],
        )
        .unwrap();

        // Before start: nothing opens.
        mmcs.set_now(SimTime::from_secs(599));
        assert!(mmcs.open_due_meetings().0.is_empty());
        // At start: the session opens, chaired by the organizer.
        mmcs.set_now(SimTime::from_secs(600));
        let (opened, _) = mmcs.open_due_meetings();
        assert_eq!(opened.len(), 1);
        let session = mmcs.session_server().session(opened[0]).unwrap();
        assert_eq!(session.name(), "grid seminar");
        assert_eq!(session.chair(), Some("prof-fox"));
        // Idempotent: the same reservation does not reopen.
        mmcs.set_now(SimTime::from_secs(700));
        assert!(mmcs.open_due_meetings().0.is_empty());
    }

    #[test]
    fn opened_meetings_invite_each_invitee_by_endpoint_kind() {
        use crate::system::EndpointKind;
        use mmcs_im::stanza::Stanza;
        use mmcs_sip::message::SipMethod;

        let mut mmcs = GlobalMmcs::new();
        mmcs.bind_endpoint("wu", EndpointKind::Im("wu@im.example".into()));
        mmcs.bind_endpoint("uyar", EndpointKind::Sip("sip:uyar@ua.example".into()));
        mmcs.bind_endpoint("bulut", EndpointKind::H323);
        soap(
            &mut mmcs,
            "schedule",
            &[
                ("room", "room-a"),
                ("organizer", "prof-fox"),
                ("title", "grid seminar"),
                ("startSecs", "0"),
                ("durationSecs", "3600"),
                ("invitees", "wu,uyar,bulut,pallickara"),
            ],
        )
        .unwrap();

        let (opened, egress) = mmcs.open_due_meetings();
        assert_eq!(opened.len(), 1);
        // One invite per invitee with a notification channel: the IM
        // client gets a stanza, the SIP UA a NOTIFY; the H.323 terminal
        // and the unbound user have none.
        assert_eq!(egress.len(), 2, "{egress:?}");
        let invite = XgspMessage::Invite {
            session: opened[0],
            from: "prof-fox".into(),
            to: "wu".into(),
        };
        assert!(matches!(
            &egress[0],
            Egress::Stanza { to, stanza: Stanza::Message { body, .. } }
                if to == "wu@im.example" && *body == invite.to_xml()
        ));
        let Egress::Sip(notify) = &egress[1] else {
            panic!("a SIP invitee gets SIP egress, got {:?}", egress[1]);
        };
        assert_eq!(notify.method(), Some(SipMethod::Notify));
        assert_eq!(notify.header("To"), Some("<sip:uyar@ua.example>"));
        assert!(notify.body.contains("<to>uyar</to>"));
    }

    #[test]
    fn conflicting_schedule_faults() {
        let mut mmcs = GlobalMmcs::new();
        let mut book = |start: &str| {
            soap(
                &mut mmcs,
                "schedule",
                &[
                    ("room", "room-a"),
                    ("organizer", "x"),
                    ("title", "t"),
                    ("startSecs", start),
                    ("durationSecs", "3600"),
                ],
            )
        };
        book("0").unwrap();
        let fault = book("1800").unwrap_err();
        assert!(fault.reason.contains("reserved"));
    }

    #[test]
    fn bad_mode_faults() {
        let mut mmcs = GlobalMmcs::new();
        let response = soap(
            &mut mmcs,
            "createSession",
            &[("name", "x"), ("mode", "hybrid"), ("organizer", "a")],
        );
        assert!(response.is_err());
    }
}
