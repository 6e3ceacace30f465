//! [`GlobalMmcs`]: the assembled system.
//!
//! One value owning every server in Figure 2 of the paper, with the
//! message routing between them:
//!
//! * protocol ingress: [`GlobalMmcs::handle_sip`],
//!   [`GlobalMmcs::handle_h323`], [`GlobalMmcs::handle_stanza`],
//!   [`GlobalMmcs::handle_xgsp`] and the web facade's
//!   [`GlobalMmcs::handle_soap`]; each returns the reply to its
//!   requester and every other delivery it caused as [`Egress`];
//! * one door into the XGSP session server: the SIP and H.323 gateways,
//!   IM escalation and the SOAP facade only translate, and every XGSP
//!   message they make goes through the same door. There each output is
//!   applied once, whichever ingress it came from: topic commands add
//!   and drop streaming taps (Helix streams and RealProducers), what the
//!   session server accepted moves the A/V switch and is mirrored into
//!   every bridged community ([`GlobalMmcs::bridge`]), and notifications
//!   and invites are translated for the recipient's [`EndpointKind`] (a
//!   user a gateway admits is bound to that gateway's kind);
//! * media plane: the live [`ShardedBroker`] behind
//!   [`GlobalMmcs::broker`], with one shard (every topic here starts
//!   with `globalmmcs/`, so one shard owns them all and a second would
//!   only add a ring hop). A media endpoint is a broker client: it
//!   subscribes to a session topic, publishes RTP and drains its own
//!   handle, and no signalling [`Egress`] carries media. The media
//!   service taps `globalmmcs/#`; [`GlobalMmcs::pump`] feeds what it
//!   has heard on live session topics to streaming and the archive. A
//!   bridged community's [`RendezvousAgent`] is one more such client.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mmcs_broker::metrics::ShardedBrokerMetrics;
use mmcs_broker::sharded::{ShardedBroker, ShardedClient};
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_directory::communities::CommunityDirectory;
use mmcs_directory::users::UserDirectory;
use mmcs_h323::gatekeeper::Gatekeeper;
use mmcs_h323::gateway::H323Gateway;
use mmcs_h323::msg::H323Message;
use mmcs_im::adhoc::EscalateError;
use mmcs_im::server::{ImServer, Outgoing};
use mmcs_im::stanza::Stanza;
use mmcs_rtp::packet::RtpPacket;
use mmcs_sip::gateway::SipGateway;
use mmcs_sip::message::{SipMessage, SipMethod, StartLine};
use mmcs_sip::presence::PresenceServer;
use mmcs_sip::proxy::{Proxy, ProxyAction};
use mmcs_sip::registrar::Registrar;
use mmcs_streaming::archive::Archive;
use mmcs_streaming::helix::HelixServer;
use mmcs_streaming::producer::RealProducer;
use mmcs_util::id::{ReservationId, SessionId, TerminalId};
use mmcs_util::time::SimTime;
use mmcs_util::xml::Element;
use mmcs_xgsp::calendar::Calendar;
use mmcs_xgsp::message::{MediaOp, XgspMessage};
use mmcs_xgsp::server::{BrokerCommand, ServerOutput, SessionServer};
use mmcs_xgsp::wsdl_ci::{CiError, CollaborationServer};

use crate::avs::MediaSwitch;
use crate::quality::QualityMonitor;
use crate::rendezvous::RendezvousAgent;

/// How a user's endpoint is reached (for notification translation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointKind {
    /// A SIP UA at this URI (notifications become SIP NOTIFY).
    Sip(String),
    /// An IM client (notifications become message stanzas).
    Im(String),
    /// An H.323 terminal (no notification channel; state arrives via
    /// H.245/Q.931 which the gateway already drives).
    H323,
}

/// An outbound signalling item produced while handling ingress: the reply
/// to the requester in its own protocol, or a delivery to another
/// endpoint. Media never travels here (see [`GlobalMmcs::broker`]).
#[derive(Debug, Clone)]
pub enum Egress {
    /// An XGSP reply toward the requester of [`GlobalMmcs::handle_xgsp`].
    Xgsp(XgspMessage),
    /// A SOAP response document toward the requester of
    /// [`GlobalMmcs::handle_soap`].
    Soap(String),
    /// A SIP message toward a UA.
    Sip(SipMessage),
    /// An IM stanza toward a JID.
    Stanza {
        /// Recipient JID.
        to: String,
        /// The stanza.
        stanza: Stanza,
    },
    /// An H.323 message toward a terminal.
    H323(H323Message),
    /// A bridged community failed or refused to mirror what the session
    /// server accepted.
    Community {
        /// The community's name.
        community: String,
        /// What it answered.
        error: CiError,
    },
}

/// A community registered with [`GlobalMmcs::bridge`].
struct Community {
    name: String,
    server: Box<dyn CollaborationServer>,
    /// The agent at each session's rendezvous, when the community
    /// answered one.
    agents: HashMap<SessionId, RendezvousAgent>,
}

/// The XGSP session server and every piece of state its outputs drive.
/// [`Xgsp::handle`] is the one door into the session server.
struct Xgsp {
    server: SessionServer,
    /// How each user's endpoint is reached.
    endpoints: HashMap<String, EndpointKind>,
    switch: MediaSwitch,
    /// RTCP receiver reports of the members of live sessions.
    quality: QualityMonitor,
    helix: HelixServer,
    /// The streaming tap of each live session topic, keyed by the topic
    /// parsed once when the session server created it.
    producers: HashMap<Topic, RealProducer>,
    communities: Vec<Community>,
}

impl Xgsp {
    /// The door: hands `message` to the session server and applies each
    /// output once. Topic commands add and drop streaming taps, a created
    /// session is established in every bridged community, and every
    /// notification and invite is translated for its recipient's endpoint
    /// into `egress`. Only a request the server accepted moves the A/V
    /// switch and the communities (see `accepted`). A gateway
    /// passes `admit`, the kind it binds each user it admits to. Returns
    /// the session server's outputs, whose replies are the caller's to
    /// read.
    fn handle(
        &mut self,
        broker: &ShardedBroker,
        from: Option<&str>,
        message: XgspMessage,
        admit: Option<fn(String) -> EndpointKind>,
        egress: &mut Vec<Egress>,
    ) -> Vec<ServerOutput> {
        let request = message.clone();
        let outputs = self.server.handle(from, message);
        for output in &outputs {
            match output {
                ServerOutput::Broker(BrokerCommand::CreateTopic(name)) => {
                    let stream: Arc<str> = name.as_str().into();
                    self.helix.add_stream(Arc::clone(&stream));
                    if let Ok(topic) = Topic::parse(name) {
                        self.producers
                            .entry(topic)
                            .or_insert_with(|| RealProducer::new(stream));
                    }
                }
                ServerOutput::Broker(BrokerCommand::RemoveTopic(name)) => {
                    self.helix.remove_stream(name);
                    if let Ok(topic) = Topic::parse(name) {
                        self.producers.remove(&topic);
                    }
                }
                ServerOutput::Reply(XgspMessage::SessionCreated { session, name }) => {
                    self.establish(broker, *session, name, egress);
                }
                ServerOutput::Reply(_) => {}
                ServerOutput::Notify { user, message }
                | ServerOutput::Invite { to: user, message } => {
                    egress.extend(self.translate(user, message));
                }
            }
        }
        let refused = outputs
            .iter()
            .any(|output| matches!(output, ServerOutput::Reply(XgspMessage::Error { .. })));
        if !refused {
            self.accepted(request, admit, egress);
        }
        outputs
    }

    /// Applies a request the session server accepted: a join binds an
    /// admitted user's endpoint and adds the member in every community,
    /// a leave clears the member from the switch, the quality monitor
    /// and the communities, a
    /// video selection pins the switch, and a session that is gone (by
    /// termination, or an ad-hoc room's last leave) is torn down.
    fn accepted(
        &mut self,
        request: XgspMessage,
        admit: Option<fn(String) -> EndpointKind>,
        egress: &mut Vec<Egress>,
    ) {
        match request {
            XgspMessage::Join {
                session,
                user,
                terminal,
                ..
            } => {
                self.mirror(egress, |c| c.server.add_member(session, &user, terminal));
                if let Some(kind) = admit {
                    self.endpoints.insert(user.clone(), kind(user));
                }
            }
            XgspMessage::Leave { session, user } => {
                self.switch.remove_member(session, &user);
                self.quality.forget_member(session, &user);
                self.mirror(egress, |c| c.server.remove_member(session, &user));
                if self.server.session(session).is_none() {
                    self.teardown(session, egress);
                }
            }
            XgspMessage::TerminateSession { session } => self.teardown(session, egress),
            XgspMessage::MediaControl {
                session,
                user,
                op: MediaOp::Select,
                kind,
            } if kind == "video" => self.switch.pin(session, Some(&user)),
            _ => {}
        }
    }

    /// Establishes a new session in every bridged community and trades
    /// rendezvous addresses with it; a community that answers gets a
    /// [`RendezvousAgent`] on `broker`.
    fn establish(
        &mut self,
        broker: &ShardedBroker,
        session: SessionId,
        name: &str,
        egress: &mut Vec<Egress>,
    ) {
        let proposed = [("proposedAddress".to_owned(), "rtp-proxy.mmcs.example:5004".to_owned())];
        self.mirror(egress, |community| {
            community.server.establish_session(session, name)?;
            let answer = community.server.control(session, "rendezvous", &proposed)?;
            let (_, remote) = answer
                .into_iter()
                .next()
                .ok_or_else(|| CiError::Refused("no rendezvous in the answer".into()))?;
            let agent = RendezvousAgent::new(broker, session, remote);
            community.agents.insert(session, agent);
            Ok(())
        });
    }

    /// Drops a session that is gone from the switch, the quality monitor
    /// and every community, detaching its agents.
    fn teardown(&mut self, session: SessionId, egress: &mut Vec<Egress>) {
        self.switch.remove_session(session);
        self.quality.forget_session(session);
        self.mirror(egress, |community| {
            community.agents.remove(&session);
            community.server.teardown_session(session)
        });
    }

    /// Applies `op` to every bridged community, reporting each failure.
    fn mirror(
        &mut self,
        egress: &mut Vec<Egress>,
        mut op: impl FnMut(&mut Community) -> Result<(), CiError>,
    ) {
        for community in &mut self.communities {
            if let Err(error) = op(community) {
                egress.push(Egress::Community {
                    community: community.name.clone(),
                    error,
                });
            }
        }
    }

    /// Translates one notification or invite for the recipient's
    /// endpoint: a NOTIFY toward a SIP UA, a message stanza toward an IM
    /// client. An H.323 terminal or an unbound user has no notification
    /// channel.
    fn translate(&self, user: &str, message: &XgspMessage) -> Option<Egress> {
        match self.endpoints.get(user) {
            Some(EndpointKind::Sip(uri)) => Some(Egress::Sip(
                SipMessage::request(SipMethod::Notify, uri.clone())
                    .with_header("Via", "SIP/2.0/UDP mmcs.example;branch=z9hG4bK-core")
                    .with_header("From", "<sip:mmcs@mmcs.example>")
                    .with_header("To", format!("<{uri}>"))
                    .with_header("Event", "conference")
                    .with_body("application/xgsp+xml", message.to_xml()),
            )),
            Some(EndpointKind::Im(jid)) => Some(Egress::Stanza {
                to: jid.clone(),
                stanza: Stanza::Message {
                    from: "mmcs".into(),
                    to: jid.clone(),
                    body: message.to_xml(),
                },
            }),
            Some(EndpointKind::H323) | None => None,
        }
    }
}

/// The assembled Global-MMCS. See the [module docs](self).
pub struct GlobalMmcs {
    xgsp: Xgsp,
    // The ingress translators, beside the door they call into.
    sip_gateway: SipGateway,
    h323_gateway: H323Gateway,
    im: ImServer,
    sip_proxy: Proxy,
    registrar: Registrar,
    presence: PresenceServer,
    gatekeeper: Gatekeeper,
    users: UserDirectory,
    communities: CommunityDirectory,
    calendar: Calendar,
    /// Reservations already opened as sessions (see [`crate::web`]).
    pub(crate) opened: HashSet<ReservationId>,
    archive: Archive,
    /// The media service's tap on `globalmmcs/#`.
    media_service: ShardedClient,
    /// Declared after the tap and the rendezvous agents (in `xgsp`), so
    /// they detach before the broker shuts down.
    broker: ShardedBroker,
    broker_metrics: Arc<ShardedBrokerMetrics>,
    now: SimTime,
}

impl GlobalMmcs {
    /// Assembles a system with one broker and default server settings.
    pub fn new() -> Self {
        let broker_metrics = ShardedBrokerMetrics::detached(1);
        let broker = ShardedBroker::spawn_with_metrics(Arc::clone(&broker_metrics));
        let media_service = broker.attach();
        media_service.subscribe(TopicFilter::parse("globalmmcs/#").expect("static filter"));
        Self {
            xgsp: Xgsp {
                server: SessionServer::new(),
                endpoints: HashMap::new(),
                switch: MediaSwitch::new(),
                quality: QualityMonitor::new(),
                helix: HelixServer::new(),
                producers: HashMap::new(),
                communities: Vec::new(),
            },
            sip_gateway: SipGateway::new("mmcs.example", "rtp-proxy.mmcs.example"),
            h323_gateway: H323Gateway::new("gw.mmcs.example:2720", "rtp-proxy.mmcs.example:5004"),
            im: ImServer::new(),
            sip_proxy: Proxy::new("proxy.mmcs.example"),
            registrar: Registrar::new(),
            presence: PresenceServer::new(),
            gatekeeper: Gatekeeper::new("gk.mmcs.example", "gw.mmcs.example:1720", 1_000_000),
            users: UserDirectory::new(),
            communities: CommunityDirectory::new(),
            calendar: Calendar::new(),
            opened: HashSet::new(),
            archive: Archive::new(),
            media_service,
            broker,
            broker_metrics,
            now: SimTime::ZERO,
        }
    }

    /// Advances the system clock (expiry checks use it).
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// The current system clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The XGSP session server (read access).
    pub fn session_server(&self) -> &SessionServer {
        &self.xgsp.server
    }

    /// The user/terminal directory.
    pub fn users_mut(&mut self) -> &mut UserDirectory {
        &mut self.users
    }

    /// The community directory.
    pub fn communities_mut(&mut self) -> &mut CommunityDirectory {
        &mut self.communities
    }

    /// The meeting calendar.
    pub fn calendar_mut(&mut self) -> &mut Calendar {
        &mut self.calendar
    }

    /// The IM server.
    pub fn im(&self) -> &ImServer {
        &self.im
    }

    /// The streaming server.
    pub fn helix(&self) -> &HelixServer {
        &self.xgsp.helix
    }

    /// Mutable streaming server (RTSP control path).
    pub fn helix_mut(&mut self) -> &mut HelixServer {
        &mut self.xgsp.helix
    }

    /// The archive.
    pub fn archive_mut(&mut self) -> &mut Archive {
        &mut self.archive
    }

    /// The RTCP-driven quality monitor.
    pub fn quality(&self) -> &QualityMonitor {
        &self.xgsp.quality
    }

    /// Ingests an RTCP receiver report forwarded by a member's RTP
    /// proxy. A report from anyone who is not a member of a live
    /// session is dropped.
    pub fn ingest_rtcp(
        &mut self,
        session: SessionId,
        member: &str,
        block: &mmcs_rtp::rtcp::ReportBlock,
        clock_rate: u32,
    ) {
        let known = self.xgsp.server.session(session).and_then(|s| s.member(member));
        if known.is_some() {
            let now = self.now;
            self.xgsp.quality.ingest(session, member, block, clock_rate, now);
        }
    }

    /// Authenticates a user against the directory and joins them to a
    /// session with their active terminal — the "unique user
    /// identifications help to authenticate valid users and bind the
    /// user to his media terminal" flow (§2.2).
    ///
    /// # Errors
    ///
    /// Returns the directory error as a string for bad credentials or a
    /// missing active terminal; XGSP-level failures come back in the
    /// returned egress like any other join.
    pub fn join_authenticated(
        &mut self,
        name: &str,
        password: &str,
        session: SessionId,
    ) -> Result<Vec<Egress>, String> {
        let user = self
            .users
            .authenticate(name, password)
            .map_err(|e| e.to_string())?;
        let terminal = self
            .users
            .active_terminal(user)
            .ok_or_else(|| format!("user {name} has no active terminal"))?;
        let terminal_id = terminal.id;
        let media = terminal
            .capabilities
            .iter()
            .filter_map(|capability| {
                let (kind, codec) = capability.split_once('/')?;
                let kind = mmcs_xgsp::media::MediaKind::from_str_opt(kind)?;
                Some(mmcs_xgsp::media::MediaDescription::new(kind, codec))
            })
            .collect();
        Ok(self.handle_xgsp(
            Some(name),
            XgspMessage::Join {
                session,
                user: name.to_owned(),
                terminal: terminal_id,
                media,
            },
        ))
    }

    /// The SIP registrar.
    pub fn registrar(&self) -> &Registrar {
        &self.registrar
    }

    /// Declares how a user's endpoint is reached, for notification
    /// translation.
    pub fn bind_endpoint(&mut self, user: impl Into<String>, kind: EndpointKind) {
        self.xgsp.endpoints.insert(user.into(), kind);
    }

    /// Registers a community: from now on every session created is
    /// established in it, and each join, leave and teardown the session
    /// server accepts is mirrored into it. The community is named by its
    /// descriptor. When it answers the rendezvous exchange, the door stands
    /// up a [`RendezvousAgent`] for the session; a refusal, like any
    /// community-side error, comes back as [`Egress::Community`]. Sessions
    /// already live are not mirrored.
    pub fn bridge(&mut self, server: Box<dyn CollaborationServer>) {
        self.xgsp.communities.push(Community {
            name: server.descriptor().community,
            server,
            agents: HashMap::new(),
        });
    }

    /// A bridged community's server, for its community-specific
    /// [`control`](CollaborationServer::control) operations.
    pub fn community_mut(&mut self, name: &str) -> Option<&mut dyn CollaborationServer> {
        let community = self.xgsp.communities.iter_mut().find(|c| c.name == name)?;
        Some(community.server.as_mut())
    }

    /// The agent at a session's rendezvous with a bridged community.
    pub fn agent(&self, community: &str, session: SessionId) -> Option<&RendezvousAgent> {
        let community = self.xgsp.communities.iter().find(|c| c.name == community)?;
        community.agents.get(&session)
    }

    /// The broker the media plane runs on. A media endpoint attaches
    /// here, subscribes to a session topic, publishes its RTP with
    /// [`EventClass::Rtp`](mmcs_broker::event::EventClass::Rtp) and drains
    /// its own handle. A publish does not wait for delivery;
    /// [`ShardedBroker::quiesce`] does.
    pub fn broker(&self) -> &ShardedBroker {
        &self.broker
    }

    /// The broker's instruments, one bundle per shard. Its
    /// `subscriptions` gauge counts every live subscription, the media
    /// tap's and the rendezvous agents' included; read it after
    /// [`ShardedBroker::quiesce`].
    pub fn broker_metrics(&self) -> &ShardedBrokerMetrics {
        &self.broker_metrics
    }

    /// Feeds the media-service tap to streaming without waiting on the
    /// broker: each RTP packet delivered to the tap so far on a live
    /// session topic goes to that topic's producer at
    /// [`now`](Self::now), and its chunks to Helix and the archive. A
    /// packet on any other topic is dropped. To stream every earlier
    /// publish, call `broker().quiesce()` first.
    pub fn pump(&mut self) {
        let mut events = Vec::new();
        self.media_service.drain_into(&mut events);
        for event in events {
            let Some(producer) = self.xgsp.producers.get_mut(&event.topic) else {
                continue;
            };
            let Ok(rtp) = RtpPacket::decode_shared(&event.payload) else {
                continue;
            };
            producer.ingest(&rtp, self.now);
            for chunk in producer.drain() {
                self.archive.observe(&chunk);
                self.xgsp.helix.feed(chunk);
            }
        }
    }

    /// The XGSP ingress (the path web services and XGSP-native clients
    /// take): sends `message` through the door into the session server.
    /// Returns the requester's reply as [`Egress::Xgsp`], then the egress
    /// of every notification and invite it caused.
    pub fn handle_xgsp(&mut self, from: Option<&str>, message: XgspMessage) -> Vec<Egress> {
        let mut egress = Vec::new();
        let outputs = self.xgsp.handle(&self.broker, from, message, None, &mut egress);
        let replies = outputs.into_iter().filter_map(|output| match output {
            ServerOutput::Reply(reply) => Some(Egress::Xgsp(reply)),
            _ => None,
        });
        replies.chain(egress).collect()
    }

    /// The currently selected (broadcast) video source for a session,
    /// driven by audio activity reports and chair pins.
    pub fn selected_video(&self, session: SessionId) -> Option<&str> {
        self.xgsp.switch.selected(session)
    }

    /// Reports a member's audio energy to the A/V switch (the RTP
    /// proxies do this from RTCP in the full deployment). A report for
    /// anyone who is not a member of a live session is dropped.
    pub fn report_audio_level(&mut self, session: SessionId, user: &str, level: f64) {
        let member = self.xgsp.server.session(session).and_then(|s| s.member(user));
        if member.is_some() {
            let now = self.now;
            self.xgsp.switch.report_audio(session, user, level, now);
        }
    }

    /// Handles a SIP request: REGISTER → registrar, SUBSCRIBE →
    /// presence, conference URIs → gateway (XGSP), anything else →
    /// proxy. Returns the SIP messages to send, then the egress of the
    /// notifications an XGSP translation caused; the gateway binds each
    /// user it admits to a SIP endpoint at their URI.
    pub fn handle_sip(&mut self, request: &SipMessage) -> Vec<Egress> {
        let StartLine::Request { method, uri } = &request.start else {
            // A response: route through the proxy's Via handling.
            return vec![Egress::Sip(proxy_message(self.sip_proxy.handle_response(request)))];
        };
        let mut egress = Vec::new();
        let replies = match method {
            SipMethod::Register => vec![self.registrar.handle_register(request, self.now)],
            SipMethod::Subscribe => self.presence.handle_subscribe(request, self.now),
            _ if self.sip_gateway.is_conference_uri(uri) => {
                let (xgsp, broker) = (&mut self.xgsp, &self.broker);
                self.sip_gateway.handle_request(request, |from, message| {
                    xgsp.handle(broker, from, message, Some(EndpointKind::Sip), &mut egress)
                })
            }
            _ => vec![proxy_message(
                self.sip_proxy.handle_request(request, &self.registrar, self.now),
            )],
        };
        replies.into_iter().map(Egress::Sip).chain(egress).collect()
    }

    /// Handles an H.323 message: RAS → gatekeeper, Q.931/H.245 →
    /// gateway (XGSP). Returns the H.323 messages to send back, then the
    /// egress of the notifications an XGSP translation caused; the
    /// gateway binds each user it admits to an H.323 endpoint.
    pub fn handle_h323(&mut self, message: &H323Message) -> Vec<Egress> {
        if let H323Message::Ras(ras) = message {
            return vec![Egress::H323(H323Message::Ras(self.gatekeeper.handle(ras)))];
        }
        let mut egress = Vec::new();
        let (xgsp, broker) = (&mut self.xgsp, &self.broker);
        let replies = self.h323_gateway.handle(message, |from, message| {
            xgsp.handle(broker, from, message, Some(|_| EndpointKind::H323), &mut egress)
        });
        replies.into_iter().map(Egress::H323).chain(egress).collect()
    }

    /// Handles an IM stanza.
    pub fn handle_stanza(&mut self, stanza: Stanza) -> Vec<Outgoing> {
        self.im.handle(stanza)
    }

    /// Escalates an IM room into an ad-hoc session, binding the initiator
    /// to an IM endpoint. Returns the session and the egress: whatever
    /// the XGSP messages caused, then the chat invitations to the other
    /// occupants.
    ///
    /// # Errors
    ///
    /// Propagates [`EscalateError`].
    pub fn escalate_room(
        &mut self,
        room: &str,
        initiator: &str,
    ) -> Result<(SessionId, Vec<Egress>), EscalateError> {
        let mut egress = Vec::new();
        let (xgsp, broker) = (&mut self.xgsp, &self.broker);
        let escalation = mmcs_im::adhoc::escalate_room(
            &self.im,
            |from, message| xgsp.handle(broker, from, message, Some(EndpointKind::Im), &mut egress),
            room,
            initiator,
            TerminalId::from_raw(1),
        )?;
        egress.extend(
            escalation
                .invites
                .into_iter()
                .map(|Outgoing { to, stanza }| Egress::Stanza { to, stanza }),
        );
        Ok((escalation.session, egress))
    }

    /// Renders the system's WSDL-CI directory as a web page-ish XML
    /// summary (the XGSP naming & directory server's listing).
    pub fn directory_listing(&self) -> Element {
        let mut root = Element::new("globalmmcs-directory");
        for community in self.communities.communities() {
            let mut community_el = Element::new("community").with_attr("name", &community.name);
            for server in &community.servers {
                community_el.push_child(
                    Element::new("server")
                        .with_attr("service", &server.service)
                        .with_attr("kind", &server.kind)
                        .with_attr("endpoint", &server.endpoint),
                );
            }
            root.push_child(community_el);
        }
        let mut sessions_el = Element::new("sessions");
        let mut ids: Vec<SessionId> = self.xgsp.server.session_ids().collect();
        ids.sort();
        for id in ids {
            if let Some(session) = self.xgsp.server.session(id) {
                sessions_el.push_child(
                    Element::new("session")
                        .with_attr("id", id.value().to_string())
                        .with_attr("name", session.name())
                        .with_attr("members", session.member_count().to_string()),
                );
            }
        }
        root.push_child(sessions_el);
        root
    }
}

impl Default for GlobalMmcs {
    fn default() -> Self {
        Self::new()
    }
}

/// The one message a proxy action sends.
fn proxy_message(action: ProxyAction) -> SipMessage {
    match action {
        ProxyAction::ForwardRequest { request, .. } => request,
        ProxyAction::ForwardResponse { response, .. } | ProxyAction::Respond(response) => response,
    }
}

impl std::fmt::Debug for GlobalMmcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalMmcs")
            .field("sessions", &self.xgsp.server.session_count())
            .field("users", &self.users.user_count())
            .field("now", &self.now)
            .finish()
    }
}
