//! The H.323 → XGSP gateway.
//!
//! Accepts Q.931 call signaling and H.245 media control from admitted
//! endpoints and translates them into XGSP: a Setup addressed to a
//! conference alias (`conf-<id>` or `new-conf`) becomes a session
//! `Join`, Release Complete becomes `Leave`, and OpenLogicalChannel is
//! answered with the broker RTP proxy address so the endpoint's media
//! "RTP channels are redirected to the NaradaBrokering servers". It only
//! translates: each XGSP message goes through the door its caller hands
//! in, and the notifications it causes stay with that caller.

use std::collections::HashMap;

use mmcs_telemetry::CallSetupMetrics;
use mmcs_util::id::{SessionId, TerminalId};
use mmcs_xgsp::media::{MediaDescription, MediaKind};
use mmcs_xgsp::message::{SessionMode, XgspMessage};
use mmcs_xgsp::server::ServerOutput;

use crate::msg::{H245Message, H323Message, Q931Message};

/// Q.850 cause: normal call clearing.
pub const CAUSE_NORMAL: u8 = 16;
/// Q.850 cause: unallocated number (unknown conference).
pub const CAUSE_UNALLOCATED: u8 = 1;
/// Q.850 cause: call rejected.
pub const CAUSE_REJECTED: u8 = 21;

#[derive(Debug, Clone)]
struct Call {
    session: SessionId,
    user: String,
}

/// The H.323 gateway. See the [module docs](self).
#[derive(Debug)]
pub struct H323Gateway {
    h245_address: String,
    rtp_proxy_address: String,
    calls: HashMap<u16, Call>,
    next_terminal: u64,
    metrics: Option<CallSetupMetrics>,
}

impl H323Gateway {
    /// Creates a gateway; `h245_address` goes into Connect, and
    /// `rtp_proxy_address` into OpenLogicalChannelAck.
    pub fn new(h245_address: impl Into<String>, rtp_proxy_address: impl Into<String>) -> Self {
        Self {
            h245_address: h245_address.into(),
            rtp_proxy_address: rtp_proxy_address.into(),
            calls: HashMap::new(),
            next_terminal: 1,
            metrics: None,
        }
    }

    /// Installs call-setup telemetry. Every Q.931 Setup counts as an
    /// attempt; the span covers the Setup → Connect ladder, Release
    /// Complete counts a teardown.
    pub fn set_metrics(&mut self, metrics: CallSetupMetrics) {
        self.metrics = Some(metrics);
    }

    /// Live call count.
    pub fn call_count(&self) -> usize {
        self.calls.len()
    }

    /// The session a call joined, if live.
    pub fn session_of(&self, call_reference: u16) -> Option<SessionId> {
        self.calls.get(&call_reference).map(|c| c.session)
    }

    /// Handles a signaling message from an endpoint, sending its XGSP
    /// translation through `xgsp` (the door into the session server);
    /// returns the messages to send back on the same connection.
    pub fn handle(
        &mut self,
        message: &H323Message,
        xgsp: impl FnMut(Option<&str>, XgspMessage) -> Vec<ServerOutput>,
    ) -> Vec<H323Message> {
        match message {
            H323Message::Q931(q931) => self.handle_q931(q931, xgsp),
            H323Message::H245(h245) => self.handle_h245(h245),
            H323Message::Ras(_) => Vec::new(), // RAS belongs to the gatekeeper
        }
    }

    fn handle_q931(
        &mut self,
        message: &Q931Message,
        mut xgsp: impl FnMut(Option<&str>, XgspMessage) -> Vec<ServerOutput>,
    ) -> Vec<H323Message> {
        match message {
            Q931Message::Setup {
                call_reference,
                caller,
                callee,
            } => {
                // Clone the instrument bundle out (Arc clones) so the
                // span does not borrow `self` across the `&mut` call.
                let timing = self.metrics.clone();
                let span = timing.as_ref().map(|m| {
                    m.attempts.inc();
                    m.setup_span()
                });
                let replies = self.handle_setup(*call_reference, caller, callee, xgsp);
                if let Some(m) = &timing {
                    if let Some(span) = span {
                        span.finish();
                    }
                    let connected = replies.iter().any(|r| {
                        matches!(r, H323Message::Q931(Q931Message::Connect { .. }))
                    });
                    if connected {
                        m.setups.inc();
                    } else {
                        m.failures.inc();
                    }
                }
                replies
            }
            Q931Message::ReleaseComplete { call_reference, .. } => {
                if let Some(call) = self.calls.remove(call_reference) {
                    xgsp(
                        Some(&call.user),
                        XgspMessage::Leave {
                            session: call.session,
                            user: call.user.clone(),
                        },
                    );
                    if let Some(m) = &self.metrics {
                        m.teardowns.inc();
                    }
                }
                Vec::new()
            }
            // The gateway never receives its own ringing indications.
            Q931Message::CallProceeding { .. }
            | Q931Message::Alerting { .. }
            | Q931Message::Connect { .. } => Vec::new(),
        }
    }

    fn handle_setup(
        &mut self,
        call_reference: u16,
        caller: &str,
        callee: &str,
        mut xgsp: impl FnMut(Option<&str>, XgspMessage) -> Vec<ServerOutput>,
    ) -> Vec<H323Message> {
        let media = vec![
            MediaDescription::new(MediaKind::Audio, "G.711"),
            MediaDescription::new(MediaKind::Video, "H.263"),
        ];
        let session = if callee == "new-conf" {
            let outputs = xgsp(
                Some(caller),
                XgspMessage::CreateSession {
                    name: format!("h323 ad-hoc by {caller}"),
                    mode: SessionMode::AdHoc,
                    media: media.clone(),
                },
            );
            match outputs.iter().find_map(|o| match o {
                ServerOutput::Reply(XgspMessage::SessionCreated { session, .. }) => {
                    Some(*session)
                }
                _ => None,
            }) {
                Some(session) => session,
                None => {
                    return vec![release(call_reference, CAUSE_REJECTED)];
                }
            }
        } else {
            match callee
                .strip_prefix("conf-")
                .and_then(|raw| raw.parse::<u64>().ok())
            {
                Some(id) => SessionId::from_raw(id),
                None => return vec![release(call_reference, CAUSE_UNALLOCATED)],
            }
        };

        let terminal = TerminalId::from_raw(self.next_terminal);
        self.next_terminal += 1;
        let outputs = xgsp(
            Some(caller),
            XgspMessage::Join {
                session,
                user: caller.to_string(),
                terminal,
                media,
            },
        );
        let joined = outputs
            .iter()
            .any(|o| matches!(o, ServerOutput::Reply(XgspMessage::JoinAck { .. })));
        if !joined {
            let cause = if outputs.iter().any(|o| {
                matches!(
                    o,
                    ServerOutput::Reply(XgspMessage::Error { code, .. })
                        if code == "unknown-session"
                )
            }) {
                CAUSE_UNALLOCATED
            } else {
                CAUSE_REJECTED
            };
            return vec![release(call_reference, cause)];
        }
        self.calls.insert(
            call_reference,
            Call {
                session,
                user: caller.to_string(),
            },
        );
        vec![
            H323Message::Q931(Q931Message::CallProceeding { call_reference }),
            H323Message::Q931(Q931Message::Alerting { call_reference }),
            H323Message::Q931(Q931Message::Connect {
                call_reference,
                h245_address: self.h245_address.clone(),
            }),
        ]
    }

    fn handle_h245(&mut self, message: &H245Message) -> Vec<H323Message> {
        match message {
            H245Message::TerminalCapabilitySet { sequence, .. } => {
                vec![H323Message::H245(H245Message::TerminalCapabilitySetAck {
                    sequence: *sequence,
                })]
            }
            H245Message::MasterSlaveDetermination { .. } => {
                // The gateway (as the MCU-side entity, terminal type 240)
                // always wins master; the remote is slave.
                vec![H323Message::H245(H245Message::MasterSlaveDeterminationAck {
                    remote_is_master: false,
                })]
            }
            H245Message::OpenLogicalChannel { channel, .. } => {
                vec![H323Message::H245(H245Message::OpenLogicalChannelAck {
                    channel: *channel,
                    media_address: self.rtp_proxy_address.clone(),
                })]
            }
            H245Message::CloseLogicalChannel { .. } | H245Message::EndSession => Vec::new(),
            _ => Vec::new(),
        }
    }
}

fn release(call_reference: u16, cause: u8) -> H323Message {
    H323Message::Q931(Q931Message::ReleaseComplete {
        call_reference,
        cause,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcs_xgsp::server::SessionServer;

    fn setup(cr: u16, caller: &str, callee: &str) -> H323Message {
        H323Message::Q931(Q931Message::Setup {
            call_reference: cr,
            caller: caller.into(),
            callee: callee.into(),
        })
    }

    #[test]
    fn setup_to_new_conf_walks_the_q931_ladder() {
        let mut gw = H323Gateway::new("gw:2720", "rtp-proxy:5004");
        let mut server = SessionServer::new();
        let replies = gw.handle(&setup(1, "alice-h323", "new-conf"), |from, m| {
            server.handle(from, m)
        });
        assert!(matches!(
            replies[0],
            H323Message::Q931(Q931Message::CallProceeding { call_reference: 1 })
        ));
        assert!(matches!(
            replies[1],
            H323Message::Q931(Q931Message::Alerting { call_reference: 1 })
        ));
        assert!(matches!(
            &replies[2],
            H323Message::Q931(Q931Message::Connect { call_reference: 1, h245_address })
                if h245_address == "gw:2720"
        ));
        assert_eq!(server.session_count(), 1);
        assert_eq!(gw.call_count(), 1);
    }

    #[test]
    fn setup_to_unknown_conference_releases_with_unallocated() {
        let mut gw = H323Gateway::new("gw:2720", "rtp:1");
        let mut server = SessionServer::new();
        let replies = gw.handle(&setup(2, "alice-h323", "conf-99"), |from, m| {
            server.handle(from, m)
        });
        assert_eq!(
            replies,
            vec![H323Message::Q931(Q931Message::ReleaseComplete {
                call_reference: 2,
                cause: CAUSE_UNALLOCATED,
            })]
        );
        let replies = gw.handle(&setup(3, "alice-h323", "not-a-conf"), |from, m| {
            server.handle(from, m)
        });
        assert!(matches!(
            replies[0],
            H323Message::Q931(Q931Message::ReleaseComplete { cause: CAUSE_UNALLOCATED, .. })
        ));
    }

    #[test]
    fn h245_handshake_hands_out_rtp_proxy() {
        let mut gw = H323Gateway::new("gw:2720", "rtp-proxy:5004");
        let tcs_ack = gw.handle_h245(&H245Message::TerminalCapabilitySet {
            sequence: 3,
            capabilities: vec![],
        });
        assert!(matches!(
            tcs_ack[0],
            H323Message::H245(H245Message::TerminalCapabilitySetAck { sequence: 3 })
        ));
        let msd_ack = gw.handle_h245(&H245Message::MasterSlaveDetermination {
            terminal_type: 60,
            determination_number: 1,
        });
        assert!(matches!(
            msd_ack[0],
            H323Message::H245(H245Message::MasterSlaveDeterminationAck {
                remote_is_master: false
            })
        ));
        let olc_ack = gw.handle_h245(&H245Message::OpenLogicalChannel {
            channel: 5,
            kind: "video".into(),
            codec: "H.263".into(),
        });
        assert!(matches!(
            &olc_ack[0],
            H323Message::H245(H245Message::OpenLogicalChannelAck { channel: 5, media_address })
                if media_address == "rtp-proxy:5004"
        ));
    }

    #[test]
    fn release_complete_leaves_the_session() {
        let mut gw = H323Gateway::new("gw:2720", "rtp:1");
        let mut server = SessionServer::new();
        gw.handle(&setup(1, "alice-h323", "new-conf"), |from, m| server.handle(from, m));
        let session = server.session_ids().next().unwrap();
        assert_eq!(gw.session_of(1), Some(session));
        gw.handle(
            &H323Message::Q931(Q931Message::ReleaseComplete {
                call_reference: 1,
                cause: CAUSE_NORMAL,
            }),
            |from, m| server.handle(from, m),
        );
        assert_eq!(gw.call_count(), 0);
        // Ad-hoc session evaporated when the only member left.
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn telemetry_times_setup_and_counts_outcomes() {
        use std::sync::Arc;

        use mmcs_telemetry::{ManualClock, Registry};
        use mmcs_util::time::SimDuration;

        let registry = Registry::new();
        let clock = Arc::new(ManualClock::with_step(SimDuration::from_micros(400)));
        let metrics = CallSetupMetrics::register(&registry, "h323", clock);
        let mut gw = H323Gateway::new("gw:2720", "rtp:1");
        gw.set_metrics(metrics.clone());
        let mut server = SessionServer::new();

        gw.handle(&setup(1, "alice-h323", "new-conf"), |from, m| server.handle(from, m));
        gw.handle(&setup(2, "bob-h323", "conf-99"), |from, m| server.handle(from, m));
        gw.handle(
            &H323Message::Q931(Q931Message::ReleaseComplete {
                call_reference: 1,
                cause: CAUSE_NORMAL,
            }),
            |from, m| server.handle(from, m),
        );

        assert_eq!(metrics.attempts.get(), 2);
        assert_eq!(metrics.setups.get(), 1);
        assert_eq!(metrics.failures.get(), 1);
        assert_eq!(metrics.teardowns.get(), 1);
        let latency = metrics.setup_latency.snapshot();
        assert_eq!(latency.count(), 2);
        // Each span reads the stepping clock exactly twice: 400us apiece.
        assert_eq!(latency.sum(), 2 * 400_000);
        assert!(registry.render_prometheus().contains("h323_call_setups_total 1"));
    }

    #[test]
    fn two_endpoints_share_one_conference() {
        let mut gw = H323Gateway::new("gw:2720", "rtp:1");
        let mut server = SessionServer::new();
        gw.handle(&setup(1, "alice-h323", "new-conf"), |from, m| server.handle(from, m));
        let session = server.session_ids().next().unwrap();
        let callee = format!("conf-{}", session.value());
        gw.handle(&setup(2, "bob-h323", &callee), |from, m| server.handle(from, m));
        assert_eq!(server.session(session).unwrap().member_count(), 2);
        assert_eq!(gw.session_of(1), gw.session_of(2));
    }
}
