//! Model-based property on `GlobalMmcs`'s teardown: random scripts of
//! SIP, H.323 and XGSP creates, joins, leaves, video selections, audio
//! reports, RTCP receiver reports, media bursts (with `pump()`) and
//! terminations run against a system with Access Grid, Admire and
//! HearMe bridged; then every live session is terminated. Afterwards
//! nothing a session made through the door is left: no Helix stream
//! beyond a fresh system's, no A/V switch selection, no quality record,
//! no venue, conference or room in any community, no rendezvous agent,
//! and — once the script's own media handles are dropped — no more
//! broker subscriptions than a fresh system holds. While the script
//! runs, every live session has an agent in each community that
//! answers the rendezvous (Admire, Access Grid) and none in HearMe,
//! which refuses it, and the quality monitor holds a report only from a
//! current member of a live session.
//!
//! Out of scope, because they are durable by design: the archive, the
//! user and community directories, the SIP registrar and the H.323
//! gatekeeper's registrations.

use std::collections::HashSet;

use proptest::prelude::*;

use mmcs::admire::service::AdmireService;
use mmcs::broker::event::EventClass;
use mmcs::broker::sharded::ShardedClient;
use mmcs::broker::topic::{Topic, TopicFilter};
use mmcs::global_mmcs::accessgrid::AccessGridService;
use mmcs::global_mmcs::hearme::HearMeService;
use mmcs::global_mmcs::system::{Egress, GlobalMmcs};
use mmcs::h323::endpoint::{EndpointState, H323Endpoint};
use mmcs::rtp::rtcp::ReportBlock;
use mmcs::rtp::source::{AudioCodec, AudioSource};
use mmcs::sip::message::{SipMessage, SipMethod};
use mmcs::xgsp::message::{MediaOp, SessionMode, XgspMessage};
use mmcs::xgsp::wsdl_ci::CiError;
use mmcs_util::id::{SessionId, TerminalId};

const COMMUNITIES: [&str; 3] = ["admire.cn", "accessgrid.org", "hearme.example"];

#[derive(Debug, Clone, Copy)]
enum Via {
    Sip,
    H323,
    Xgsp,
}

#[derive(Debug, Clone)]
enum Op {
    /// A user creates a session (SIP and H.323 create ad-hoc rooms and
    /// join them; XGSP creates an ad-hoc or a scheduled session).
    Create(Via, usize, bool),
    /// A user joins the session in a slot.
    Join(Via, usize, usize),
    /// The k-th call in a slot leaves the way it joined.
    Leave(usize, usize),
    /// A member pins the video of the k-th member of a slot.
    Select(usize, usize),
    /// The k-th member of a slot (or a stranger) reports audio.
    Speak(usize, usize),
    /// The k-th member of a slot (or a stranger) sends an RTCP receiver
    /// report.
    Report(usize, usize),
    /// A media endpoint subscribes to a slot's topic and sends a burst
    /// of audio on it, its agents send one packet each, then a barrier
    /// and `pump()`.
    Publish(usize),
    /// The k-th member of a slot (or nobody in particular) terminates it.
    Terminate(Option<usize>, usize),
}

fn via() -> impl Strategy<Value = Via> {
    prop_oneof![Just(Via::Sip), Just(Via::H323), Just(Via::Xgsp)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (via(), 0usize..4, any::<bool>()).prop_map(|(v, u, adhoc)| Op::Create(v, u, adhoc)),
        4 => (via(), 0usize..4, 0usize..4).prop_map(|(v, u, s)| Op::Join(v, u, s)),
        3 => (0usize..4, 0usize..4).prop_map(|(k, s)| Op::Leave(k, s)),
        2 => (0usize..4, 0usize..4).prop_map(|(k, s)| Op::Select(k, s)),
        2 => (0usize..4, 0usize..4).prop_map(|(k, s)| Op::Speak(k, s)),
        2 => (0usize..4, 0usize..4).prop_map(|(k, s)| Op::Report(k, s)),
        2 => (0usize..4).prop_map(Op::Publish),
        1 => (prop::option::of(0usize..4), 0usize..4).prop_map(|(k, s)| Op::Terminate(k, s)),
    ]
}

/// How a member joined, so it can leave the same way.
enum Handle {
    Sip(String),
    H323(H323Endpoint),
    Xgsp,
}

struct Call {
    session: SessionId,
    user: String,
    handle: Handle,
}

/// The system under test and what the script has made on it.
struct Harness {
    mmcs: GlobalMmcs,
    sessions: Vec<SessionId>,
    calls: Vec<Call>,
    next_call: usize,
    source: AudioSource,
    /// The media endpoints `Publish` attached, held until the end.
    media: Vec<ShardedClient>,
    /// Who sent an RTCP report, for which session.
    reports: Vec<(SessionId, String)>,
}

fn sip_request(method: SipMethod, uri: &str, from: &str, call_id: &str) -> SipMessage {
    SipMessage::request(method, uri)
        .with_header("Via", "SIP/2.0/UDP ua;branch=z9hG4bK1")
        .with_header("From", format!("<{from}>;tag=1"))
        .with_header("To", format!("<{uri}>"))
        .with_header("Call-ID", call_id)
        .with_header("CSeq", "1 INVITE")
}

fn conference_uri(session: SessionId) -> String {
    format!("sip:conf-{}@mmcs.example", session.value())
}

impl Harness {
    fn new() -> Self {
        let mut mmcs = GlobalMmcs::new();
        mmcs.bridge(Box::new(AdmireService::new("admire.cn", "rdv.admire.cn")));
        mmcs.bridge(Box::new(AccessGridService::new()));
        mmcs.bridge(Box::new(HearMeService::new()));
        Self {
            mmcs,
            sessions: Vec::new(),
            calls: Vec::new(),
            next_call: 0,
            source: AudioSource::new(AudioCodec::Pcmu, 0x7E),
            media: Vec::new(),
            reports: Vec::new(),
        }
    }

    fn live(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self.mmcs.session_server().session_ids().collect();
        ids.sort();
        ids
    }

    fn members(&self, session: SessionId) -> Vec<String> {
        self.mmcs
            .session_server()
            .session(session)
            .map(|s| s.members().map(|m| m.user.clone()).collect())
            .unwrap_or_default()
    }

    /// Walks an H.323 terminal through RAS, Q.931 and H.245 toward
    /// `alias` (`new-conf` or `conf-<id>`).
    fn h323_call(&mut self, callee: String) -> H323Endpoint {
        self.next_call += 1;
        let mut endpoint = H323Endpoint::new(format!("h323-{}", self.next_call));
        let mut queue = vec![endpoint.start()];
        let mut placed = false;
        while let Some(message) = queue.pop() {
            for egress in self.mmcs.handle_h323(&message) {
                if let Egress::H323(reply) = egress {
                    queue.extend(endpoint.on_message(&reply));
                }
            }
            if endpoint.state() == EndpointState::Registered && !placed {
                placed = true;
                queue.push(endpoint.place_call(callee.clone(), 6400));
            }
        }
        endpoint
    }

    /// Joins (or, with `None`, creates and joins) a session by SIP or
    /// else H.323, recording the call when it is admitted.
    fn call_in(&mut self, sip: bool, user: usize, session: Option<SessionId>) {
        let before: HashSet<SessionId> = self.live().into_iter().collect();
        let handle = if sip {
            self.next_call += 1;
            let call_id = format!("call-{}", self.next_call);
            let uri = session.map_or("sip:new-conf@mmcs.example".to_owned(), conference_uri);
            let from = format!("sip:u{user}@example.org");
            let invite = sip_request(SipMethod::Invite, &uri, &from, &call_id);
            let ok = matches!(
                self.mmcs.handle_sip(&invite).first(),
                Some(Egress::Sip(reply)) if reply.status() == Some(200)
            );
            ok.then_some((from, Handle::Sip(call_id)))
        } else {
            let callee = session.map_or("new-conf".to_owned(), |s| format!("conf-{}", s.value()));
            let endpoint = self.h323_call(callee);
            (endpoint.state() == EndpointState::InCall)
                .then(|| (format!("h323-{}", self.next_call), Handle::H323(endpoint)))
        };
        let created = self.live().into_iter().find(|id| !before.contains(id));
        self.sessions.extend(created);
        if let (Some((user, handle)), Some(session)) = (handle, session.or(created)) {
            self.calls.push(Call { session, user, handle });
        }
    }

    fn apply(&mut self, op: Op) {
        let slot = |h: &Harness, s: usize| h.sessions.get(s).copied();
        match op {
            Op::Create(Via::Xgsp, user, adhoc) => {
                let mode = if adhoc { SessionMode::AdHoc } else { SessionMode::Scheduled };
                let create = XgspMessage::CreateSession {
                    name: format!("by u{user}"),
                    mode,
                    media: vec![mmcs::xgsp::media::MediaDescription::new(
                        mmcs::xgsp::media::MediaKind::Audio,
                        "PCMU",
                    )],
                };
                let egress = self.mmcs.handle_xgsp(Some(&format!("u{user}")), create);
                self.sessions.extend(egress.iter().find_map(|item| match item {
                    Egress::Xgsp(XgspMessage::SessionCreated { session, .. }) => Some(*session),
                    _ => None,
                }));
            }
            Op::Create(via, user, _) => self.call_in(matches!(via, Via::Sip), user, None),
            Op::Join(Via::Xgsp, user, s) => {
                let Some(session) = slot(self, s) else { return };
                let user = format!("u{user}");
                let join = XgspMessage::Join {
                    session,
                    user: user.clone(),
                    terminal: TerminalId::from_raw(1),
                    media: vec![],
                };
                let egress = self.mmcs.handle_xgsp(Some(&user), join);
                if matches!(egress.first(), Some(Egress::Xgsp(XgspMessage::JoinAck { .. }))) {
                    self.calls.push(Call { session, user, handle: Handle::Xgsp });
                }
            }
            Op::Join(via, user, s) => {
                if let Some(session) = slot(self, s) {
                    self.call_in(matches!(via, Via::Sip), user, Some(session));
                }
            }
            Op::Leave(k, s) => {
                let Some(session) = slot(self, s) else { return };
                let in_slot: Vec<usize> = (0..self.calls.len())
                    .filter(|&i| self.calls[i].session == session)
                    .collect();
                let Some(&index) = in_slot.get(k % in_slot.len().max(1)) else { return };
                let call = self.calls.remove(index);
                match call.handle {
                    Handle::Sip(call_id) => {
                        let uri = conference_uri(session);
                        self.mmcs.handle_sip(&sip_request(SipMethod::Bye, &uri, &call.user, &call_id));
                    }
                    Handle::H323(mut endpoint) => {
                        for message in endpoint.hang_up() {
                            self.mmcs.handle_h323(&message);
                        }
                    }
                    Handle::Xgsp => {
                        let leave = XgspMessage::Leave { session, user: call.user.clone() };
                        self.mmcs.handle_xgsp(Some(&call.user), leave);
                    }
                }
            }
            Op::Select(k, s) => {
                let Some(session) = slot(self, s) else { return };
                let members = self.members(session);
                // A non-member's selection is refused and must move nothing.
                let user = members.get(k).cloned().unwrap_or_else(|| "mallory".to_owned());
                let select = XgspMessage::MediaControl {
                    session,
                    user,
                    op: MediaOp::Select,
                    kind: "video".into(),
                };
                self.mmcs.handle_xgsp(members.first().map(String::as_str), select);
            }
            Op::Speak(k, s) => {
                let Some(session) = slot(self, s) else { return };
                let user = self.members(session).get(k).cloned();
                self.mmcs.report_audio_level(session, user.as_deref().unwrap_or("ghost"), 0.5);
            }
            Op::Report(k, s) => {
                let Some(session) = slot(self, s) else { return };
                let member = self.members(session).get(k).cloned();
                let user = member.clone().unwrap_or_else(|| "ghost".to_owned());
                let lossy = ReportBlock { fraction_lost: 80, ..ReportBlock::default() };
                self.mmcs.ingest_rtcp(session, &user, &lossy, 8000);
                let kept = self.mmcs.quality().member(session, &user).is_some();
                assert_eq!(kept, member.is_some(), "{user}'s report for {session}");
                self.reports.push((session, user));
            }
            Op::Publish(s) => {
                let Some(session) = slot(self, s) else { return };
                let topic = Topic::parse(&format!("globalmmcs/session-{}/audio", session.value()))
                    .expect("session topic");
                let speaker = self.mmcs.broker().attach();
                speaker.subscribe(TopicFilter::exact(&topic));
                for _ in 0..3 {
                    let packet = self.source.next_packet().encode();
                    speaker.publish_class(topic.clone(), EventClass::Rtp, packet);
                }
                for community in COMMUNITIES {
                    if let Some(agent) = self.mmcs.agent(community, session) {
                        agent.inbound(self.source.next_packet().encode()).expect("valid RTP");
                    }
                }
                self.mmcs.broker().quiesce();
                self.mmcs.pump();
                for community in COMMUNITIES {
                    if let Some(agent) = self.mmcs.agent(community, session) {
                        agent.outbound(&mut Vec::new());
                    }
                }
                self.media.push(speaker);
            }
            Op::Terminate(k, s) => {
                let Some(session) = slot(self, s) else { return };
                let from = k.and_then(|k| self.members(session).get(k).cloned());
                self.mmcs
                    .handle_xgsp(from.as_deref(), XgspMessage::TerminateSession { session });
            }
        }
    }

    /// Whether `community` still holds anything for `session`: a venue,
    /// a conference or a room answers a control operation with something
    /// other than "unknown session".
    fn community_holds(&mut self, community: &str, session: SessionId) -> bool {
        let server = self.mmcs.community_mut(community).expect("bridged");
        server.control(session, "rendezvous", &[]) != Err(CiError::UnknownSession(session))
    }
}

/// Live subscriptions across the broker's shards, after a barrier.
fn subscriptions(mmcs: &GlobalMmcs) -> i64 {
    mmcs.broker().quiesce();
    mmcs.broker_metrics().shards().map(|shard| shard.subscriptions.get()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn terminating_every_session_leaves_nothing_behind(
        ops in prop::collection::vec(op_strategy(), 0..40),
    ) {
        let mut h = Harness::new();
        for op in ops {
            h.apply(op);
            let live = h.live();
            for &session in &h.sessions {
                let is_live = live.contains(&session);
                prop_assert_eq!(h.mmcs.agent("admire.cn", session).is_some(), is_live);
                prop_assert_eq!(h.mmcs.agent("accessgrid.org", session).is_some(), is_live);
                prop_assert!(h.mmcs.agent("hearme.example", session).is_none());
            }
            for (session, user) in &h.reports {
                let kept = h.mmcs.quality().member(*session, user).is_some();
                prop_assert!(!kept || h.members(*session).contains(user), "{} keeps {}'s report", session, user);
            }
        }
        for session in h.live() {
            h.mmcs.handle_xgsp(None, XgspMessage::TerminateSession { session });
        }
        h.mmcs.broker().quiesce();
        h.mmcs.pump();

        prop_assert_eq!(h.mmcs.session_server().session_count(), 0);
        let fresh = GlobalMmcs::new();
        prop_assert_eq!(h.mmcs.helix().stream_names(), fresh.helix().stream_names());
        h.media.clear();
        prop_assert_eq!(subscriptions(&h.mmcs), subscriptions(&fresh));
        for (session, user) in &h.reports {
            prop_assert!(h.mmcs.quality().member(*session, user).is_none(), "{} keeps {}'s report", session, user);
        }
        let sessions = h.sessions.clone();
        for session in sessions {
            prop_assert_eq!(h.mmcs.selected_video(session), None);
            for community in COMMUNITIES {
                prop_assert!(!h.community_holds(community, session), "{} holds {}", community, session);
                prop_assert!(h.mmcs.agent(community, session).is_none());
            }
        }
    }
}
