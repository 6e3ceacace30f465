//! The SIP → XGSP gateway.
//!
//! "The SIP Servers including a SIP Proxy, SIP Registrar and SIP Gateway
//! create a … SIP domain for SIP terminals and perform SIP translation"
//! (§3.2). This gateway is that translator: INVITE to a conference URI
//! becomes an XGSP `Join` (creating an ad-hoc session on demand), BYE
//! becomes `Leave`, MESSAGE becomes `AppData` (chat). It only
//! translates: each XGSP message goes through the door its caller hands
//! in, and the gateway reads only the replies. The notifications a
//! request causes stay with that caller, which delivers them to every
//! member in the member's own protocol.
//!
//! Conference URI convention: `sip:conf-<sessionid>@<domain>` joins an
//! existing session; `sip:new-conf@<domain>` creates an ad-hoc session
//! and joins it.

use std::collections::HashMap;

use mmcs_telemetry::CallSetupMetrics;
use mmcs_util::id::{SessionId, TerminalId};
use mmcs_xgsp::media::{MediaDescription, MediaKind};
use mmcs_xgsp::message::{SessionMode, XgspMessage};
use mmcs_xgsp::server::ServerOutput;

use crate::message::{extract_uri, SipMessage, SipMethod, StartLine};
use crate::sdp::{Sdp, SdpMedia};

/// One SIP dialog the gateway tracks (Call-ID → session membership).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Dialog {
    session: SessionId,
    user: String,
}

/// The SIP gateway. See the [module docs](self).
#[derive(Debug)]
pub struct SipGateway {
    domain: String,
    /// Address the SDP answers point media at (the RTP proxy in front of
    /// the broker).
    rtp_proxy_address: String,
    dialogs: HashMap<String, Dialog>,
    next_terminal: u64,
    /// Optional call-signaling telemetry (setup outcomes + latency).
    metrics: Option<CallSetupMetrics>,
}

impl SipGateway {
    /// Creates a gateway for `domain`, answering SDP with
    /// `rtp_proxy_address`.
    pub fn new(domain: impl Into<String>, rtp_proxy_address: impl Into<String>) -> Self {
        Self {
            domain: domain.into(),
            rtp_proxy_address: rtp_proxy_address.into(),
            dialogs: HashMap::new(),
            next_terminal: 1,
            metrics: None,
        }
    }

    /// Installs call-signaling telemetry: INVITE handling is timed with
    /// the bundle's clock (wall time under a real driver, manual time in
    /// tests) and setup/teardown outcomes are counted.
    pub fn set_metrics(&mut self, metrics: CallSetupMetrics) {
        self.metrics = Some(metrics);
    }

    /// Number of live dialogs.
    pub fn dialog_count(&self) -> usize {
        self.dialogs.len()
    }

    /// Whether a request URI targets this gateway's conference domain.
    pub fn is_conference_uri(&self, uri: &str) -> bool {
        let Some(rest) = uri.strip_prefix("sip:") else {
            return false;
        };
        let Some((user, host)) = rest.split_once('@') else {
            return false;
        };
        host.split(';').next() == Some(self.domain.as_str())
            && (user == "new-conf" || user.starts_with("conf-"))
    }

    /// Handles a SIP request, sending its XGSP translation through
    /// `xgsp` (the door into the session server); returns the response
    /// to the requester.
    pub fn handle_request(
        &mut self,
        request: &SipMessage,
        mut xgsp: impl FnMut(Option<&str>, XgspMessage) -> Vec<ServerOutput>,
    ) -> Vec<SipMessage> {
        let StartLine::Request { method, uri } = &request.start else {
            return vec![SipMessage::response_to(request, 400, "Not a request")];
        };
        match method {
            SipMethod::Invite => {
                // Clone the instrument bundle out (Arc clones) so the
                // span does not borrow `self` across the `&mut` call.
                let timing = self.metrics.clone();
                let span = timing.as_ref().map(|m| {
                    m.attempts.inc();
                    m.setup_span()
                });
                let replies = self.handle_invite(request, uri.clone(), &mut xgsp);
                if let Some(m) = &timing {
                    if let Some(span) = span {
                        span.finish();
                    }
                    if replies.first().and_then(|r| r.status()) == Some(200) {
                        m.setups.inc();
                    } else {
                        m.failures.inc();
                    }
                }
                replies
            }
            SipMethod::Ack => Vec::new(),
            SipMethod::Bye => {
                let replies = self.handle_bye(request, xgsp);
                if let Some(m) = &self.metrics {
                    if replies.first().and_then(|r| r.status()) == Some(200) {
                        m.teardowns.inc();
                    }
                }
                replies
            }
            SipMethod::Message => self.handle_message(request, xgsp),
            SipMethod::Options => {
                vec![SipMessage::response_to(request, 200, "OK")
                    .with_header("Allow", "INVITE, ACK, BYE, MESSAGE, OPTIONS")]
            }
            _ => vec![SipMessage::response_to(request, 405, "Method Not Allowed")],
        }
    }

    fn handle_invite(
        &mut self,
        request: &SipMessage,
        uri: String,
        mut xgsp: impl FnMut(Option<&str>, XgspMessage) -> Vec<ServerOutput>,
    ) -> Vec<SipMessage> {
        if !self.is_conference_uri(&uri) {
            return vec![SipMessage::response_to(request, 404, "Unknown conference")];
        }
        let Some(call_id) = request.header("Call-ID").map(str::to_owned) else {
            return vec![SipMessage::response_to(request, 400, "Missing Call-ID")];
        };
        let user = request
            .header("From")
            .map(extract_uri)
            .unwrap_or("sip:anonymous")
            .to_owned();

        // Media from the SDP offer (defaults to audio+video when absent).
        let media = match Sdp::parse(&request.body) {
            Ok(sdp) => sdp
                .media
                .iter()
                .filter_map(|m| match m.kind.as_str() {
                    "audio" => Some(MediaDescription::new(MediaKind::Audio, "PCMU")),
                    "video" => Some(MediaDescription::new(MediaKind::Video, "H263")),
                    _ => None,
                })
                .collect(),
            Err(_) => vec![
                MediaDescription::new(MediaKind::Audio, "PCMU"),
                MediaDescription::new(MediaKind::Video, "H263"),
            ],
        };

        // Resolve or create the session.
        let conf_user = uri
            .strip_prefix("sip:")
            .and_then(|r| r.split('@').next())
            .unwrap_or_default();
        let session = if conf_user == "new-conf" {
            let outputs = xgsp(
                Some(&user),
                XgspMessage::CreateSession {
                    name: format!("sip ad-hoc by {user}"),
                    mode: SessionMode::AdHoc,
                    media: media.clone(),
                },
            );
            let Some(session) = outputs.iter().find_map(|o| match o {
                ServerOutput::Reply(XgspMessage::SessionCreated { session, .. }) => Some(*session),
                _ => None,
            }) else {
                return vec![SipMessage::response_to(request, 500, "Create failed")];
            };
            session
        } else {
            let Some(id) = conf_user
                .strip_prefix("conf-")
                .and_then(|raw| raw.parse::<u64>().ok())
            else {
                return vec![SipMessage::response_to(request, 404, "Bad conference id")];
            };
            SessionId::from_raw(id)
        };

        let terminal = TerminalId::from_raw(self.next_terminal);
        self.next_terminal += 1;
        let outputs = xgsp(
            Some(&user),
            XgspMessage::Join {
                session,
                user: user.clone(),
                terminal,
                media,
            },
        );

        let mut joined = false;
        for output in &outputs {
            match output {
                ServerOutput::Reply(XgspMessage::JoinAck { .. }) => joined = true,
                ServerOutput::Reply(XgspMessage::Error { code, detail }) => {
                    let status = if code == "unknown-session" { 404 } else { 486 };
                    return vec![SipMessage::response_to(request, status, detail.clone())];
                }
                _ => {}
            }
        }
        if !joined {
            return vec![SipMessage::response_to(request, 500, "Join failed")];
        }
        self.dialogs.insert(
            call_id,
            Dialog {
                session,
                user: user.clone(),
            },
        );

        // 200 OK with an SDP answer pointing media at the RTP proxy.
        let answer = Sdp::new("globalmmcs", self.rtp_proxy_address.clone())
            .with_media(SdpMedia::new("audio", 40000, vec![0]).with_rtpmap(0, "PCMU", 8000))
            .with_media(SdpMedia::new("video", 40002, vec![34]).with_rtpmap(34, "H263", 90000));
        vec![SipMessage::response_to(request, 200, "OK")
            .with_header("Contact", format!("<sip:conf-{}@{}>", session.value(), self.domain))
            .with_body("application/sdp", answer.to_wire())]
    }

    fn handle_bye(
        &mut self,
        request: &SipMessage,
        mut xgsp: impl FnMut(Option<&str>, XgspMessage) -> Vec<ServerOutput>,
    ) -> Vec<SipMessage> {
        let Some(call_id) = request.header("Call-ID") else {
            return vec![SipMessage::response_to(request, 400, "Missing Call-ID")];
        };
        let Some(dialog) = self.dialogs.remove(call_id) else {
            return vec![SipMessage::response_to(
                request,
                481,
                "Call/Transaction Does Not Exist",
            )];
        };
        xgsp(
            Some(&dialog.user),
            XgspMessage::Leave {
                session: dialog.session,
                user: dialog.user.clone(),
            },
        );
        vec![SipMessage::response_to(request, 200, "OK")]
    }

    fn handle_message(
        &mut self,
        request: &SipMessage,
        mut xgsp: impl FnMut(Option<&str>, XgspMessage) -> Vec<ServerOutput>,
    ) -> Vec<SipMessage> {
        let Some(dialog) = request
            .header("Call-ID")
            .and_then(|cid| self.dialogs.get(cid))
            .cloned()
        else {
            return vec![SipMessage::response_to(request, 481, "No conference dialog")];
        };
        xgsp(
            Some(&dialog.user),
            XgspMessage::AppData {
                session: dialog.session,
                user: dialog.user.clone(),
                body: request.body.clone(),
            },
        );
        vec![SipMessage::response_to(request, 200, "OK")]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcs_xgsp::server::SessionServer;

    fn invite(uri: &str, from: &str, call_id: &str) -> SipMessage {
        SipMessage::request(SipMethod::Invite, uri)
            .with_header("Via", "SIP/2.0/UDP ua;branch=z9hG4bK1")
            .with_header("From", format!("<{from}>;tag=1"))
            .with_header("To", format!("<{uri}>"))
            .with_header("Call-ID", call_id)
            .with_header("CSeq", "1 INVITE")
    }

    /// The member and message of a `Notify` output.
    fn notification(output: &ServerOutput) -> Option<(String, XgspMessage)> {
        match output {
            ServerOutput::Notify { user, message } => Some((user.clone(), message.clone())),
            _ => None,
        }
    }

    fn bye(call_id: &str) -> SipMessage {
        SipMessage::request(SipMethod::Bye, "sip:conf-1@mmcs.example")
            .with_header("Via", "SIP/2.0/UDP ua;branch=z9hG4bK2")
            .with_header("Call-ID", call_id)
            .with_header("CSeq", "2 BYE")
    }

    #[test]
    fn conference_uri_detection() {
        let gw = SipGateway::new("mmcs.example", "10.0.0.1");
        assert!(gw.is_conference_uri("sip:new-conf@mmcs.example"));
        assert!(gw.is_conference_uri("sip:conf-7@mmcs.example"));
        assert!(!gw.is_conference_uri("sip:alice@mmcs.example"));
        assert!(!gw.is_conference_uri("sip:conf-7@elsewhere.example"));
        assert!(!gw.is_conference_uri("mailto:conf-7@mmcs.example"));
    }

    #[test]
    fn invite_to_new_conf_creates_and_joins() {
        let mut gw = SipGateway::new("mmcs.example", "10.0.0.1");
        let mut server = SessionServer::new();
        let replies = gw.handle_request(
            &invite("sip:new-conf@mmcs.example", "sip:alice@ua.example", "cid-1"),
            |from, m| server.handle(from, m),
        );
        assert_eq!(replies[0].status(), Some(200));
        assert!(replies[0].body.contains("m=audio"));
        assert_eq!(server.session_count(), 1);
        assert_eq!(gw.dialog_count(), 1);
        let session = server.session_ids().next().unwrap();
        assert_eq!(
            server.session(session).unwrap().chair(),
            Some("sip:alice@ua.example")
        );
    }

    #[test]
    fn second_invite_joins_same_conf_and_notifies_first() {
        let mut gw = SipGateway::new("mmcs.example", "10.0.0.1");
        let mut server = SessionServer::new();
        gw.handle_request(
            &invite("sip:new-conf@mmcs.example", "sip:alice@ua", "cid-1"),
            |from, m| server.handle(from, m),
        );
        let session = server.session_ids().next().unwrap();
        let uri = format!("sip:conf-{}@mmcs.example", session.value());
        let mut notified = Vec::new();
        let replies = gw.handle_request(&invite(&uri, "sip:bob@ua", "cid-2"), |from, m| {
            let outputs = server.handle(from, m);
            notified.extend(outputs.iter().filter_map(notification));
            outputs
        });
        // The gateway answers the INVITE and makes no NOTIFY of its own:
        // alice's notification reaches the door's caller.
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].status(), Some(200));
        let [(user, message)] = notified.as_slice() else {
            panic!("one notification for alice, got {notified:?}");
        };
        assert_eq!(user, "sip:alice@ua");
        assert!(message.to_xml().contains("joined"));
        assert_eq!(server.session(session).unwrap().member_count(), 2);
    }

    #[test]
    fn invite_to_missing_conf_404s() {
        let mut gw = SipGateway::new("mmcs.example", "10.0.0.1");
        let mut server = SessionServer::new();
        let replies = gw.handle_request(
            &invite("sip:conf-99@mmcs.example", "sip:alice@ua", "cid-9"),
            |from, m| server.handle(from, m),
        );
        assert_eq!(replies[0].status(), Some(404));
        assert_eq!(gw.dialog_count(), 0);
    }

    #[test]
    fn bye_leaves_and_tears_down_adhoc() {
        let mut gw = SipGateway::new("mmcs.example", "10.0.0.1");
        let mut server = SessionServer::new();
        gw.handle_request(
            &invite("sip:new-conf@mmcs.example", "sip:alice@ua", "cid-1"),
            |from, m| server.handle(from, m),
        );
        let replies = gw.handle_request(&bye("cid-1"), |from, m| server.handle(from, m));
        assert_eq!(replies[0].status(), Some(200));
        // Last member left an ad-hoc session: it evaporated.
        assert_eq!(server.session_count(), 0);
        assert_eq!(gw.dialog_count(), 0);
        // A second BYE has no dialog.
        let replies = gw.handle_request(&bye("cid-1"), |from, m| server.handle(from, m));
        assert_eq!(replies[0].status(), Some(481));
    }

    #[test]
    fn message_relays_as_app_data() {
        let mut gw = SipGateway::new("mmcs.example", "10.0.0.1");
        let mut server = SessionServer::new();
        gw.handle_request(
            &invite("sip:new-conf@mmcs.example", "sip:alice@ua", "cid-1"),
            |from, m| server.handle(from, m),
        );
        let session = server.session_ids().next().unwrap();
        let uri = format!("sip:conf-{}@mmcs.example", session.value());
        gw.handle_request(&invite(&uri, "sip:bob@ua", "cid-2"), |from, m| server.handle(from, m));

        let chat = SipMessage::request(SipMethod::Message, uri)
            .with_header("Via", "SIP/2.0/UDP ua;branch=z9hG4bK3")
            .with_header("Call-ID", "cid-1")
            .with_header("CSeq", "2 MESSAGE")
            .with_body("text/plain", "hello everyone");
        let mut notified = Vec::new();
        let replies = gw.handle_request(&chat, |from, m| {
            let outputs = server.handle(from, m);
            notified.extend(outputs.iter().filter_map(notification));
            outputs
        });
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].status(), Some(200));
        let [(user, message)] = notified.as_slice() else {
            panic!("one notification for bob, got {notified:?}");
        };
        assert_eq!(user, "sip:bob@ua");
        assert!(message.to_xml().contains("hello everyone"));
    }

    #[test]
    fn telemetry_times_setup_and_counts_outcomes() {
        use mmcs_telemetry::{ManualClock, Registry};
        use mmcs_util::time::SimDuration;
        use std::sync::Arc;

        let registry = Registry::new();
        let clock = Arc::new(ManualClock::with_step(SimDuration::from_micros(250)));
        let metrics = CallSetupMetrics::register(&registry, "sip", clock);
        let mut gw = SipGateway::new("mmcs.example", "10.0.0.1");
        gw.set_metrics(metrics.clone());
        let mut server = SessionServer::new();

        gw.handle_request(
            &invite("sip:new-conf@mmcs.example", "sip:alice@ua", "cid-1"),
            |from, m| server.handle(from, m),
        );
        gw.handle_request(
            &invite("sip:conf-99@mmcs.example", "sip:alice@ua", "cid-2"),
            |from, m| server.handle(from, m),
        );
        gw.handle_request(&bye("cid-1"), |from, m| server.handle(from, m));

        assert_eq!(metrics.attempts.get(), 2);
        assert_eq!(metrics.setups.get(), 1);
        assert_eq!(metrics.failures.get(), 1);
        assert_eq!(metrics.teardowns.get(), 1);
        let latency = metrics.setup_latency.snapshot();
        assert_eq!(latency.count(), 2);
        // The stepping clock advances 250us per reading; each span reads
        // twice, so each recorded latency is exactly 250us.
        assert_eq!(latency.sum(), 2 * 250_000);
        let text = registry.render_prometheus();
        assert!(text.contains("sip_call_setups_total 1"));
    }

    #[test]
    fn unsupported_method_405s() {
        let mut gw = SipGateway::new("mmcs.example", "10.0.0.1");
        let mut server = SessionServer::new();
        let register = SipMessage::request(SipMethod::Register, "sip:conf-1@mmcs.example")
            .with_header("Via", "SIP/2.0/UDP ua;branch=z9hG4bK4");
        let replies = gw.handle_request(&register, |from, m| server.handle(from, m));
        assert_eq!(replies[0].status(), Some(405));
    }
}
