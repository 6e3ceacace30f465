//! A client-side H.323 endpoint (terminal) state machine.
//!
//! Drives the full ladder the examples and integration tests exercise:
//! gatekeeper discovery → registration → admission → Q.931 call setup →
//! H.245 capability/master-slave/logical-channel handshakes → media
//! address learned → disengage on hangup. Sans-IO: feed replies in,
//! collect requests out.

use crate::msg::{Capability, H245Message, H323Message, Q931Message, RasMessage};

/// Endpoint call/registration state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointState {
    /// Nothing sent yet.
    Idle,
    /// GRQ sent.
    Discovering,
    /// RRQ sent.
    Registering,
    /// Registered, no call.
    Registered,
    /// ARQ sent.
    Admitting,
    /// Setup sent.
    Calling,
    /// Connect received; H.245 in progress.
    Negotiating,
    /// Logical channels open; media flows.
    InCall,
    /// Call over, still registered.
    Released,
    /// A reject ended the attempt.
    Failed,
}

/// The endpoint. See the [module docs](self).
#[derive(Debug)]
pub struct H323Endpoint {
    alias: String,
    state: EndpointState,
    endpoint_id: Option<u32>,
    call_reference: u16,
    destination: Option<String>,
    media_address: Option<String>,
    next_channel: u16,
}

impl H323Endpoint {
    /// Creates an idle endpoint with the given alias.
    pub fn new(alias: impl Into<String>) -> Self {
        Self {
            alias: alias.into(),
            state: EndpointState::Idle,
            endpoint_id: None,
            call_reference: 0,
            destination: None,
            media_address: None,
            next_channel: 1,
        }
    }

    /// Current state.
    pub fn state(&self) -> EndpointState {
        self.state
    }

    /// The media (RTP proxy) address learned from OLC Ack, once in call.
    pub fn media_address(&self) -> Option<&str> {
        self.media_address.as_deref()
    }

    /// The gatekeeper-assigned id, once registered.
    pub fn endpoint_id(&self) -> Option<u32> {
        self.endpoint_id
    }

    /// Starts discovery + registration; returns the GRQ to send.
    ///
    /// # Panics
    ///
    /// Panics unless idle.
    pub fn start(&mut self) -> H323Message {
        assert_eq!(self.state, EndpointState::Idle, "endpoint already started");
        self.state = EndpointState::Discovering;
        H323Message::Ras(RasMessage::GatekeeperRequest {
            endpoint_alias: self.alias.clone(),
        })
    }

    /// Places a call once registered; returns the ARQ.
    ///
    /// # Panics
    ///
    /// Panics unless registered and call-idle.
    pub fn place_call(&mut self, destination: impl Into<String>, bandwidth: u32) -> H323Message {
        assert!(
            matches!(self.state, EndpointState::Registered | EndpointState::Released),
            "cannot place a call in state {:?}",
            self.state
        );
        self.destination = Some(destination.into());
        self.state = EndpointState::Admitting;
        H323Message::Ras(RasMessage::AdmissionRequest {
            endpoint_id: self.endpoint_id.expect("registered implies id"),
            destination: self.destination.clone().expect("just set"),
            bandwidth,
        })
    }

    /// Hangs up; returns ReleaseComplete and the DRQ.
    ///
    /// # Panics
    ///
    /// Panics unless in a call.
    pub fn hang_up(&mut self) -> Vec<H323Message> {
        assert!(
            matches!(self.state, EndpointState::InCall | EndpointState::Negotiating),
            "no call to hang up in state {:?}",
            self.state
        );
        self.state = EndpointState::Released;
        vec![
            H323Message::Q931(Q931Message::ReleaseComplete {
                call_reference: self.call_reference,
                cause: 16,
            }),
            H323Message::Ras(RasMessage::DisengageRequest {
                endpoint_id: self.endpoint_id.expect("in call implies registered"),
                call_reference: self.call_reference,
            }),
        ]
    }

    /// Feeds a message from the gatekeeper/gateway; returns follow-ups
    /// to send. Unknown/ignorable messages produce no output.
    pub fn on_message(&mut self, message: &H323Message) -> Vec<H323Message> {
        match (self.state, message) {
            (EndpointState::Discovering, H323Message::Ras(RasMessage::GatekeeperConfirm { .. })) => {
                self.state = EndpointState::Registering;
                vec![H323Message::Ras(RasMessage::RegistrationRequest {
                    endpoint_alias: self.alias.clone(),
                    signal_address: format!("{}:1720", self.alias),
                })]
            }
            (
                EndpointState::Registering,
                H323Message::Ras(RasMessage::RegistrationConfirm { endpoint_id }),
            ) => {
                self.endpoint_id = Some(*endpoint_id);
                self.state = EndpointState::Registered;
                Vec::new()
            }
            (
                EndpointState::Admitting,
                H323Message::Ras(RasMessage::AdmissionConfirm { .. }),
            ) => {
                self.call_reference = self.call_reference.wrapping_add(1).max(1);
                self.state = EndpointState::Calling;
                vec![H323Message::Q931(Q931Message::Setup {
                    call_reference: self.call_reference,
                    caller: self.alias.clone(),
                    callee: self.destination.clone().unwrap_or_default(),
                })]
            }
            (EndpointState::Calling, H323Message::Q931(Q931Message::Connect { .. })) => {
                self.state = EndpointState::Negotiating;
                vec![
                    H323Message::H245(H245Message::TerminalCapabilitySet {
                        sequence: 1,
                        capabilities: vec![
                            Capability {
                                kind: "audio".into(),
                                codec: "G.711".into(),
                            },
                            Capability {
                                kind: "video".into(),
                                codec: "H.263".into(),
                            },
                        ],
                    }),
                    H245Message::MasterSlaveDetermination {
                        terminal_type: 60,
                        determination_number: 1,
                    }
                    .into(),
                ]
            }
            (
                EndpointState::Negotiating,
                H323Message::H245(H245Message::TerminalCapabilitySetAck { .. }),
            ) => {
                let channel = self.next_channel;
                self.next_channel += 1;
                vec![H323Message::H245(H245Message::OpenLogicalChannel {
                    channel,
                    kind: "video".into(),
                    codec: "H.263".into(),
                })]
            }
            (
                EndpointState::Negotiating,
                H323Message::H245(H245Message::OpenLogicalChannelAck { media_address, .. }),
            ) => {
                self.media_address = Some(media_address.clone());
                self.state = EndpointState::InCall;
                Vec::new()
            }
            (
                _,
                H323Message::Ras(
                    RasMessage::GatekeeperReject { .. }
                    | RasMessage::RegistrationReject { .. }
                    | RasMessage::AdmissionReject { .. },
                ),
            ) => {
                self.state = EndpointState::Failed;
                Vec::new()
            }
            (_, H323Message::Q931(Q931Message::ReleaseComplete { .. })) => {
                if matches!(
                    self.state,
                    EndpointState::Calling | EndpointState::Negotiating | EndpointState::InCall
                ) {
                    self.state = EndpointState::Released;
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }
}

impl From<H245Message> for H323Message {
    fn from(message: H245Message) -> H323Message {
        H323Message::H245(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gatekeeper::Gatekeeper;
    use crate::gateway::H323Gateway;
    use mmcs_xgsp::server::SessionServer;

    /// Drives an endpoint against a gatekeeper + gateway until quiescent.
    fn pump(
        endpoint: &mut H323Endpoint,
        outbound: Vec<H323Message>,
        gk: &mut Gatekeeper,
        gw: &mut H323Gateway,
        server: &mut SessionServer,
    ) {
        let mut queue = outbound;
        while let Some(message) = queue.pop() {
            let replies = match &message {
                H323Message::Ras(ras) => vec![H323Message::Ras(gk.handle(ras))],
                other => gw.handle(other, |from, m| server.handle(from, m)),
            };
            for reply in replies {
                queue.extend(endpoint.on_message(&reply));
            }
        }
    }

    #[test]
    fn full_ladder_reaches_in_call_with_media_address() {
        let mut endpoint = H323Endpoint::new("alice-h323");
        let mut gk = Gatekeeper::new("gk", "gw:1720", 100_000);
        let mut gw = H323Gateway::new("gw:2720", "rtp-proxy:5004");
        let mut server = SessionServer::new();

        let grq = endpoint.start();
        pump(&mut endpoint, vec![grq], &mut gk, &mut gw, &mut server);
        assert_eq!(endpoint.state(), EndpointState::Registered);

        let arq = endpoint.place_call("new-conf", 6400);
        pump(&mut endpoint, vec![arq], &mut gk, &mut gw, &mut server);
        assert_eq!(endpoint.state(), EndpointState::InCall);
        assert_eq!(endpoint.media_address(), Some("rtp-proxy:5004"));
        assert_eq!(server.session_count(), 1);

        let bye = endpoint.hang_up();
        pump(&mut endpoint, bye, &mut gk, &mut gw, &mut server);
        assert_eq!(endpoint.state(), EndpointState::Released);
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn admission_reject_fails_the_endpoint() {
        let mut endpoint = H323Endpoint::new("alice-h323");
        let mut gk = Gatekeeper::new("gk", "gw:1720", 10); // tiny budget
        let mut gw = H323Gateway::new("gw:2720", "rtp:1");
        let mut server = SessionServer::new();
        let grq = endpoint.start();
        pump(&mut endpoint, vec![grq], &mut gk, &mut gw, &mut server);
        let arq = endpoint.place_call("new-conf", 6400);
        pump(&mut endpoint, vec![arq], &mut gk, &mut gw, &mut server);
        assert_eq!(endpoint.state(), EndpointState::Failed);
    }

    #[test]
    #[should_panic(expected = "already started")]
    fn double_start_panics() {
        let mut endpoint = H323Endpoint::new("x");
        endpoint.start();
        endpoint.start();
    }

    #[test]
    #[should_panic(expected = "cannot place a call")]
    fn call_before_registration_panics() {
        let mut endpoint = H323Endpoint::new("x");
        endpoint.place_call("conf-1", 100);
    }
}
