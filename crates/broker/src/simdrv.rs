//! Simulator driver: broker and A/V client processes.
//!
//! This module plugs the sans-IO [`BrokerNode`] and the RTP source/sink
//! models into the deterministic simulator. It is the machinery behind
//! every experiment in `EXPERIMENTS.md`:
//!
//! * [`BrokerProcess`] — a broker on a host, charging CPU per the
//!   [`CostModel`] for routing and each outbound send (so fan-out to 400
//!   receivers serializes through the broker CPU and NIC).
//! * [`VideoPublisher`] / [`AudioPublisher`] — paced media sources that
//!   attach, then publish each RTP packet as a broker event.
//! * [`RtpReceiver`] — attaches, subscribes, decodes arriving RTP and
//!   maintains [`ReceiverStats`] (delay from `Event::published_at`,
//!   RFC 3550 jitter, loss).
//!
//! Wiring protocol: clients send [`BrokerMsg::Attach`] (carrying their
//! process id) and [`BrokerMsg::Subscribe`] at simulation start; media
//! flows after a configurable start delay, by which point subscriptions
//! have settled.

use std::collections::BTreeMap;
use std::sync::Arc;

use mmcs_rtp::packet::{RtpPacket, WireRtp};
use mmcs_rtp::recv::ReceiverStats;
use mmcs_rtp::source::{AudioSource, VideoSource};
use mmcs_sim::{Context, CounterId, Packet, Process, ProcessId};
use mmcs_util::id::{BrokerId, ClientId, IdMap};
use mmcs_util::time::SimDuration;

use crate::batch::CostModel;
use crate::event::{Event, EventClass};
use crate::liveness::FailureDetector;
use crate::metrics::BrokerMetrics;
use crate::node::{Action, BrokerNode, Input, Origin};
use crate::profile::TransportProfile;
use crate::topic::{Topic, TopicFilter};

/// Messages addressed to a [`BrokerProcess`].
#[derive(Debug, Clone)]
pub enum BrokerMsg {
    /// A client announces itself (and its process id for deliveries).
    Attach {
        /// The client id.
        client: ClientId,
        /// The client's simulator process.
        process: ProcessId,
        /// Its transport profile.
        profile: TransportProfile,
    },
    /// A client subscribes.
    Subscribe {
        /// The subscribing client.
        client: ClientId,
        /// The filter.
        filter: TopicFilter,
    },
    /// A client unsubscribes.
    Unsubscribe {
        /// The unsubscribing client.
        client: ClientId,
        /// The filter.
        filter: TopicFilter,
    },
    /// A client publishes an event.
    Publish {
        /// The publishing client.
        client: ClientId,
        /// The event.
        event: Arc<Event>,
    },
    /// A peer broker forwards an event.
    Forward {
        /// The sending broker.
        from: BrokerId,
        /// The event.
        event: Arc<Event>,
    },
    /// A peer broker's liveness heartbeat.
    Heartbeat {
        /// The beating broker.
        from: BrokerId,
        /// The sender's restart count. A jump tells the receiver the
        /// peer restarted (losing its interest table) even if the
        /// explicit `Hello` was dropped by a lossy link, so heartbeats
        /// double as a self-healing resync trigger.
        incarnation: u64,
    },
    /// A peer broker (re)announces itself after a restart. The receiver
    /// bounces the link (`LinkDown` + `LinkUp`) so every advert is
    /// re-sent — the restarted peer lost its remote interest table.
    Hello {
        /// The announcing broker.
        from: BrokerId,
    },
    /// A peer broker advertises interest.
    AdvertiseAdd {
        /// The advertising broker.
        from: BrokerId,
        /// The filter.
        filter: TopicFilter,
    },
    /// A peer broker withdraws interest.
    AdvertiseRemove {
        /// The withdrawing broker.
        from: BrokerId,
        /// The filter.
        filter: TopicFilter,
    },
}

/// Messages a broker sends to a client process.
#[derive(Debug, Clone)]
pub enum ClientMsg {
    /// An event matching one of the client's subscriptions.
    Deliver(Arc<Event>),
}

/// Control-plane message size on the wire (attach/subscribe/adverts).
const CONTROL_BYTES: usize = 96;

/// The broker's counters, resolved once per run so that a delivery
/// bumps them by index (see [`Context::counter_id`]).
#[derive(Clone, Copy)]
struct BrokerCounters {
    delivered: CounterId,
    forwarded: CounterId,
    unknown_client: CounterId,
    unknown_peer: CounterId,
    protocol_error: CounterId,
    bad_payload: CounterId,
    client_reattach: CounterId,
    peer_rejoined: CounterId,
    peer_resynced: CounterId,
}

impl BrokerCounters {
    fn resolve(ctx: &mut Context<'_>) -> Self {
        Self {
            delivered: ctx.counter_id("broker.delivered"),
            forwarded: ctx.counter_id("broker.forwarded"),
            unknown_client: ctx.counter_id("broker.deliver.unknown_client"),
            unknown_peer: ctx.counter_id("broker.forward.unknown_peer"),
            protocol_error: ctx.counter_id("broker.protocol_error"),
            bad_payload: ctx.counter_id("broker.bad_payload"),
            client_reattach: ctx.counter_id("broker.client_reattach"),
            peer_rejoined: ctx.counter_id("broker.peer_rejoined"),
            peer_resynced: ctx.counter_id("broker.peer_resynced"),
        }
    }
}

/// What one send's CPU charge depends on: whether it is the first send
/// of its action run, its wire size and the client's profile.
type SendKey = (bool, usize, TransportProfile);

/// A broker running inside the simulator.
pub struct BrokerProcess {
    node: BrokerNode,
    cost: CostModel,
    /// Looked up once per delivery, so hashed with one multiply.
    clients: IdMap<ClientId, (ProcessId, TransportProfile)>,
    /// Static configuration: every peer this broker is wired to, whether
    /// or not the node-level link is currently up. Ordered so heartbeat
    /// and resync send order is deterministic across process runs.
    peers: BTreeMap<BrokerId, ProcessId>,
    /// Heartbeat-based peer failure detection, when enabled.
    detector: Option<FailureDetector>,
    /// Liveness parameters, kept to rebuild the detector after a crash.
    liveness_cfg: Option<(SimDuration, SimDuration)>,
    /// This broker's restart count, stamped into heartbeats.
    incarnation: u64,
    /// Last incarnation seen per peer; a jump forces an advert resync.
    peer_incarnations: BTreeMap<BrokerId, u64>,
    /// Liveness ticks elapsed (drives the periodic advert refresh).
    ticks: u64,
    /// Whether this broker emits heartbeats (tests disable it to model
    /// a hung broker).
    heartbeats_enabled: bool,
    /// Interleaved history of peer suspicions and rejoins, in the order
    /// they happened (chaos-harness probe; survives simulated restarts —
    /// it belongs to the observer, not the broker state).
    peer_history: Vec<(BrokerId, PeerLinkEvent)>,
    /// Reused action buffer: the per-packet hot path allocates nothing
    /// once it has grown to the peak fan-out.
    scratch: Vec<Action>,
    /// The delivery charges computed so far in the current action run.
    /// [`CostModel::send_cost`] is pure and reads its index only as
    /// "first send or not", so a 400-way fan-out computes two charges
    /// and reuses them, bit for bit, for the other 398 sends.
    send_costs: Vec<(SendKey, SimDuration)>,
    /// Resolved on the first callback that bumps one.
    counters: Option<BrokerCounters>,
    /// Telemetry instruments, kept here (durable configuration, like
    /// `liveness_cfg`) so a restart reinstalls them on the fresh node.
    metrics: Option<Arc<BrokerMetrics>>,
    /// Durable copy of [`BrokerNode::set_local_adverts_only`], reapplied
    /// to the fresh node after a simulated restart.
    local_adverts_only: bool,
}

/// Timer token for the liveness tick.
const LIVENESS_TICK: u64 = 0xBEA7;

/// One entry in a broker's peer-link history (see
/// [`BrokerProcess::peer_history`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerLinkEvent {
    /// The failure detector declared the peer dead (one `LinkDown`).
    Suspected,
    /// The peer came back (heartbeat/`Hello` after a disconnect, one
    /// `LinkUp`).
    Rejoined,
}

impl BrokerProcess {
    /// Creates a broker process with the given cost model.
    pub fn new(id: BrokerId, cost: CostModel) -> Self {
        Self {
            node: BrokerNode::new(id),
            cost,
            clients: IdMap::default(),
            peers: BTreeMap::new(),
            detector: None,
            liveness_cfg: None,
            incarnation: 0,
            peer_incarnations: BTreeMap::new(),
            ticks: 0,
            heartbeats_enabled: true,
            peer_history: Vec::new(),
            scratch: Vec::new(),
            send_costs: Vec::new(),
            counters: None,
            metrics: None,
            local_adverts_only: false,
        }
    }

    /// One-hop mesh mode, builder style: adverts carry only local
    /// subscriber interest (see [`BrokerNode::set_local_adverts_only`]).
    /// Required whenever the peer graph has cycles — the full meshes of
    /// [`crate::simtopo`] — and durable across restarts.
    pub fn with_local_adverts_only(mut self) -> Self {
        self.node.set_local_adverts_only(true);
        self.local_adverts_only = true;
        self
    }

    /// Installs telemetry instruments on this broker: the node reports
    /// the hot-path metrics, and the driver reports failure-detector
    /// Suspected/Rejoined transitions. Survives simulated restarts.
    pub fn set_metrics(&mut self, metrics: Arc<BrokerMetrics>) {
        self.node.set_metrics(Arc::clone(&metrics));
        self.metrics = Some(metrics);
    }

    /// Enables heartbeat liveness detection on broker links: beats every
    /// `every`, disconnects peers silent for `timeout` (issuing the
    /// node's `LinkDown`, which withdraws their interest).
    pub fn with_liveness(mut self, every: SimDuration, timeout: SimDuration) -> Self {
        self.detector = Some(FailureDetector::new(every, timeout));
        self.liveness_cfg = Some((every, timeout));
        self
    }

    /// Stops this broker from emitting heartbeats (models a hang; it
    /// still routes traffic, so only liveness sees the failure).
    pub fn mute_heartbeats(&mut self) {
        self.heartbeats_enabled = false;
    }

    /// Re-enables heartbeats after [`BrokerProcess::mute_heartbeats`]
    /// (the chaos harness uses the pair to model a transient hang).
    pub fn unmute_heartbeats(&mut self) {
        self.heartbeats_enabled = true;
    }

    /// Interleaved suspicion/rejoin history, oldest first. The chaos
    /// harness checks that two suspicions of the same peer always have a
    /// rejoin between them (exactly one `LinkDown` per death).
    pub fn peer_history(&self) -> &[(BrokerId, PeerLinkEvent)] {
        &self.peer_history
    }

    /// Mutable access to the underlying node (the chaos harness calls
    /// [`BrokerNode::plan_for`], which memoizes, hence `&mut`).
    pub fn node_mut(&mut self) -> &mut BrokerNode {
        &mut self.node
    }

    /// Whether a peer link is currently up at the node level.
    pub fn has_peer_link(&self, peer: BrokerId) -> bool {
        self.node.peers().any(|p| p == peer)
    }

    /// Declares a peer broker reachable at `process` (links come up at
    /// simulation start; both sides must declare each other).
    pub fn add_peer(&mut self, peer: BrokerId, process: ProcessId) {
        self.peers.insert(peer, process);
    }

    /// Read access to the underlying node (e.g. counters).
    pub fn node(&self) -> &BrokerNode {
        &self.node
    }

    fn counters(&mut self, ctx: &mut Context<'_>) -> BrokerCounters {
        *self.counters.get_or_insert_with(|| BrokerCounters::resolve(ctx))
    }

    fn execute(&mut self, ctx: &mut Context<'_>, actions: &mut Vec<Action>) {
        let counters = self.counters(ctx);
        self.send_costs.clear();
        let mut send_index = 0usize;
        let mut delivered = 0u64;
        // A fan-out is a run of `Deliver`s carrying the same event: they
        // share one message, so 400 receivers cost one allocation.
        let mut fanout: Option<Arc<ClientMsg>> = None;
        for action in actions.drain(..) {
            match action {
                Action::Deliver {
                    client,
                    profile,
                    event,
                } => {
                    let Some(&(process, _)) = self.clients.get(&client) else {
                        ctx.bump(counters.unknown_client, 1);
                        continue;
                    };
                    let wire = event.wire_len() + profile.overhead_bytes();
                    let key = (send_index > 0, wire, profile);
                    let charge = match self.send_costs.iter().find(|(k, _)| *k == key) {
                        Some(&(_, charge)) => charge,
                        None => {
                            let charge = profile.scale_cost(self.cost.send_cost(send_index, wire));
                            self.send_costs.push((key, charge));
                            charge
                        }
                    };
                    ctx.spend_cpu(charge);
                    send_index += 1;
                    let message = match fanout.take() {
                        Some(message)
                            if matches!(&*message, ClientMsg::Deliver(last) if Arc::ptr_eq(last, &event)) =>
                        {
                            message
                        }
                        _ => Arc::new(ClientMsg::Deliver(event)),
                    };
                    ctx.send_shared(process, message.clone(), wire);
                    fanout = Some(message);
                    delivered += 1;
                }
                Action::Forward { peer, event } => {
                    let Some(process) = self.peers.get(&peer) else {
                        ctx.bump(counters.unknown_peer, 1);
                        continue;
                    };
                    let wire = event.wire_len() + TransportProfile::Tcp.overhead_bytes();
                    ctx.spend_cpu(self.cost.send_cost(send_index, wire));
                    send_index += 1;
                    ctx.send(
                        *process,
                        BrokerMsg::Forward {
                            from: self.node.id(),
                            event,
                        },
                        wire,
                    );
                    ctx.bump(counters.forwarded, 1);
                }
                Action::AdvertiseAdd { peer, filter } => {
                    if let Some(process) = self.peers.get(&peer) {
                        ctx.send(
                            *process,
                            BrokerMsg::AdvertiseAdd {
                                from: self.node.id(),
                                filter,
                            },
                            CONTROL_BYTES,
                        );
                    }
                }
                Action::AdvertiseRemove { peer, filter } => {
                    if let Some(process) = self.peers.get(&peer) {
                        ctx.send(
                            *process,
                            BrokerMsg::AdvertiseRemove {
                                from: self.node.id(),
                                filter,
                            },
                            CONTROL_BYTES,
                        );
                    }
                }
            }
        }
        if delivered > 0 {
            ctx.bump(counters.delivered, delivered);
        }
    }

    fn apply(&mut self, ctx: &mut Context<'_>, input: Input) {
        let mut actions = std::mem::take(&mut self.scratch);
        match self.node.handle_into(input, &mut actions) {
            Ok(()) => self.execute(ctx, &mut actions),
            Err(err) => {
                // Drivers drop protocol violations (e.g. racing a detach);
                // surface them as a counter for the harness.
                let _ = err;
                let counters = self.counters(ctx);
                ctx.bump(counters.protocol_error, 1);
            }
        }
        actions.clear();
        self.scratch = actions;
    }

    /// Brings a configured peer's link (back) up and starts watching it.
    fn rejoin_peer(&mut self, ctx: &mut Context<'_>, peer: BrokerId) {
        self.apply(ctx, Input::LinkUp { peer });
        if let Some(detector) = &mut self.detector {
            detector.watch(peer, ctx.now());
        }
        self.peer_history.push((peer, PeerLinkEvent::Rejoined));
        let counters = self.counters(ctx);
        ctx.bump(counters.peer_rejoined, 1);
        if let Some(m) = &self.metrics {
            m.peers_rejoined.inc();
        }
    }

    /// Bounces an up link so every advert is re-sent to a peer that lost
    /// its interest table (restart detected via `Hello` or an
    /// incarnation jump in its heartbeats).
    fn resync_peer(&mut self, ctx: &mut Context<'_>, peer: BrokerId) {
        self.apply(ctx, Input::LinkDown { peer });
        self.apply(ctx, Input::LinkUp { peer });
        if let Some(detector) = &mut self.detector {
            detector.watch(peer, ctx.now());
        }
        let counters = self.counters(ctx);
        ctx.bump(counters.peer_resynced, 1);
    }

    /// Re-sends every advert this node believes `peer` holds. Duplicate
    /// `RemoteSubscribe`s are no-ops at the peer, so this repairs advert
    /// packets a lossy link dropped.
    fn refresh_adverts(&mut self, ctx: &mut Context<'_>) {
        let linked: Vec<BrokerId> = {
            let mut l: Vec<BrokerId> = self.node.peers().collect();
            l.sort_unstable();
            l
        };
        let from = self.node.id();
        for peer in linked {
            let Some(process) = self.peers.get(&peer).copied() else {
                continue;
            };
            for filter in self.node.advertised_to(peer) {
                ctx.send(
                    process,
                    BrokerMsg::AdvertiseAdd { from, filter },
                    CONTROL_BYTES,
                );
            }
        }
    }
}

impl Process for BrokerProcess {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let peers: Vec<BrokerId> = self.peers.keys().copied().collect();
        for peer in &peers {
            self.apply(ctx, Input::LinkUp { peer: *peer });
        }
        if let Some(detector) = &mut self.detector {
            for peer in &peers {
                detector.watch(*peer, ctx.now());
            }
            ctx.set_timer(SimDuration::from_millis(250), LIVENESS_TICK);
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        // A broker restart loses all volatile state: the routing node
        // (subscriptions, remote interest, links) and the client table.
        // Configuration (id, cost model, wired peers, liveness params)
        // is durable. Suspicion/rejoin histories belong to the harness
        // observer and deliberately survive.
        self.node = BrokerNode::new(self.node.id());
        self.node.set_local_adverts_only(self.local_adverts_only);
        if let Some(m) = &self.metrics {
            self.node.set_metrics(Arc::clone(m));
        }
        self.clients.clear();
        self.detector = self
            .liveness_cfg
            .map(|(every, timeout)| FailureDetector::new(every, timeout));
        self.incarnation += 1;
        self.peer_incarnations.clear();
        self.ticks = 0;
        ctx.count("broker.restarted", 1);
        let peers: Vec<(BrokerId, ProcessId)> =
            self.peers.iter().map(|(b, p)| (*b, *p)).collect();
        let hello = BrokerMsg::Hello {
            from: self.node.id(),
        };
        for (peer, process) in &peers {
            self.apply(ctx, Input::LinkUp { peer: *peer });
            // Ask each peer to resync: they may still believe the link
            // is up and would otherwise never re-advertise.
            ctx.send(*process, hello.clone(), CONTROL_BYTES);
        }
        if let Some(detector) = &mut self.detector {
            for (peer, _) in &peers {
                detector.watch(*peer, ctx.now());
            }
            ctx.set_timer(SimDuration::from_millis(250), LIVENESS_TICK);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != LIVENESS_TICK {
            return;
        }
        if self.detector.is_none() {
            return;
        }
        let now = ctx.now();
        if let Some(detector) = &mut self.detector {
            if self.heartbeats_enabled && detector.should_send_heartbeat(now) {
                let from = self.node.id();
                let incarnation = self.incarnation;
                for process in self.peers.values() {
                    ctx.send(
                        *process,
                        BrokerMsg::Heartbeat { from, incarnation },
                        CONTROL_BYTES,
                    );
                }
            }
        }
        self.ticks += 1;
        if self.ticks.is_multiple_of(4) {
            // Periodic advert refresh (~1 s): repairs advert packets a
            // lossy link dropped. Duplicates are no-ops at the peer.
            self.refresh_adverts(ctx);
        }
        let suspects = match &mut self.detector {
            Some(detector) => detector.take_suspects(now),
            None => Vec::new(),
        };
        for peer in suspects {
            ctx.count("broker.peer_suspected", 1);
            if let Some(m) = &self.metrics {
                m.peers_suspected.inc();
            }
            self.peer_history.push((peer, PeerLinkEvent::Suspected));
            // The node link goes down (withdrawing the peer's interest)
            // but the peer stays in the static `peers` map: if it comes
            // back — restart or healed partition — its next heartbeat or
            // `Hello` rejoins it.
            self.apply(ctx, Input::LinkDown { peer });
        }
        ctx.set_timer(SimDuration::from_millis(250), LIVENESS_TICK);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let Some(msg) = packet.payload::<BrokerMsg>() else {
            let counters = self.counters(ctx);
            ctx.bump(counters.bad_payload, 1);
            return;
        };
        let msg = msg.clone();
        match msg {
            BrokerMsg::Attach {
                client,
                process,
                profile,
            } => {
                self.clients.insert(client, (process, profile));
                if self.node.has_client(client) {
                    // Periodic client refresh: already attached, nothing
                    // for the node to do.
                    let counters = self.counters(ctx);
                    ctx.bump(counters.client_reattach, 1);
                } else {
                    self.apply(ctx, Input::AttachClient { client, profile });
                }
            }
            BrokerMsg::Subscribe { client, filter } => {
                self.apply(ctx, Input::Subscribe { client, filter });
            }
            BrokerMsg::Unsubscribe { client, filter } => {
                self.apply(ctx, Input::Unsubscribe { client, filter });
            }
            BrokerMsg::Publish { client, event } => {
                ctx.spend_cpu(self.cost.routing);
                self.apply(
                    ctx,
                    Input::Publish {
                        origin: Origin::Client(client),
                        event,
                    },
                );
            }
            BrokerMsg::Heartbeat { from, incarnation } => {
                if self.peers.contains_key(&from) {
                    let linked = self.node.peers().any(|p| p == from);
                    let prev = self.peer_incarnations.insert(from, incarnation);
                    if !linked {
                        // A configured peer we had disconnected is
                        // talking again: bring the link back and ask it
                        // to resend its interest (we dropped our copy on
                        // LinkDown).
                        self.rejoin_peer(ctx, from);
                        if let Some(process) = self.peers.get(&from) {
                            let hello = BrokerMsg::Hello {
                                from: self.node.id(),
                            };
                            ctx.send(*process, hello, CONTROL_BYTES);
                        }
                    } else if prev.is_some_and(|p| p < incarnation) {
                        // The peer restarted (and its Hello may have
                        // been lost): re-send every advert.
                        self.resync_peer(ctx, from);
                    }
                }
                if let Some(detector) = &mut self.detector {
                    detector.on_heartbeat(from, ctx.now());
                }
            }
            BrokerMsg::Hello { from } => {
                if self.peers.contains_key(&from) {
                    if self.node.peers().any(|p| p == from) {
                        // Link never dropped on our side: bounce it so
                        // every advert is re-sent to the resynced peer.
                        self.resync_peer(ctx, from);
                    } else {
                        self.rejoin_peer(ctx, from);
                    }
                }
            }
            BrokerMsg::Forward { from, event } => {
                if self.peers.contains_key(&from) && !self.node.peers().any(|p| p == from) {
                    // Data from a peer we had disconnected: rejoin first
                    // so the event routes instead of erroring.
                    self.rejoin_peer(ctx, from);
                    if let Some(process) = self.peers.get(&from) {
                        let hello = BrokerMsg::Hello {
                            from: self.node.id(),
                        };
                        ctx.send(*process, hello, CONTROL_BYTES);
                    }
                }
                if let Some(detector) = &mut self.detector {
                    // Data traffic proves liveness too.
                    detector.on_heartbeat(from, ctx.now());
                }
                ctx.spend_cpu(self.cost.routing);
                self.apply(
                    ctx,
                    Input::Publish {
                        origin: Origin::Broker(from),
                        event,
                    },
                );
            }
            BrokerMsg::AdvertiseAdd { from, filter } => {
                self.apply(ctx, Input::RemoteSubscribe { peer: from, filter });
            }
            BrokerMsg::AdvertiseRemove { from, filter } => {
                self.apply(ctx, Input::RemoteUnsubscribe { peer: from, filter });
            }
        }
    }
}

/// Shared pacing/publishing configuration for media publishers.
#[derive(Debug, Clone)]
pub struct PublisherConfig {
    /// The broker process to publish through.
    pub broker: ProcessId,
    /// This client's id.
    pub client: ClientId,
    /// Topic to publish to.
    pub topic: Topic,
    /// Transport profile.
    pub profile: TransportProfile,
    /// Media starts flowing this long after simulation start (lets
    /// subscriptions settle).
    pub start_delay: SimDuration,
    /// Stop after this many RTP packets (`u64::MAX` = unlimited).
    pub max_packets: u64,
    /// Client-side CPU cost to emit one packet.
    pub send_cpu: SimDuration,
}

impl PublisherConfig {
    /// A sensible default: 100 ms start delay, unlimited packets, 5 µs
    /// send cost.
    pub fn new(broker: ProcessId, client: ClientId, topic: Topic) -> Self {
        Self {
            broker,
            client,
            topic,
            profile: TransportProfile::Udp,
            start_delay: SimDuration::from_millis(100),
            max_packets: u64::MAX,
            send_cpu: SimDuration::from_micros(5),
        }
    }
}

/// A paced video publisher (one frame per timer tick, every packet of the
/// frame published back to back — the paper's bursty 600 Kbps stream).
pub struct VideoPublisher {
    config: PublisherConfig,
    source: VideoSource,
    sent: u64,
    seq: u64,
    /// `publisher.rtp_sent`, resolved on the first publish.
    sent_counter: Option<CounterId>,
}

impl VideoPublisher {
    /// Creates a video publisher.
    pub fn new(config: PublisherConfig, source: VideoSource) -> Self {
        Self {
            config,
            source,
            sent: 0,
            seq: 0,
            sent_counter: None,
        }
    }

    /// RTP packets published so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn publish_packet(&mut self, ctx: &mut Context<'_>, rtp: RtpPacket) {
        ctx.spend_cpu(self.config.send_cpu);
        let event = Event::new(
            self.config.topic.clone(),
            self.config.client,
            self.seq,
            EventClass::Rtp,
            rtp.encode(),
        )
        .with_published_at(ctx.now())
        .into_shared();
        self.seq += 1;
        let wire = event.wire_len() + self.config.profile.overhead_bytes();
        ctx.send(
            self.config.broker,
            BrokerMsg::Publish {
                client: self.config.client,
                event,
            },
            wire,
        );
        self.sent += 1;
        let sent = *self
            .sent_counter
            .get_or_insert_with(|| ctx.counter_id("publisher.rtp_sent"));
        ctx.bump(sent, 1);
    }
}

impl Process for VideoPublisher {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(
            self.config.broker,
            BrokerMsg::Attach {
                client: self.config.client,
                process: ctx.me(),
                profile: self.config.profile,
            },
            CONTROL_BYTES,
        );
        ctx.set_timer(self.config.start_delay, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.sent >= self.config.max_packets {
            return;
        }
        let frame = self.source.next_frame();
        for rtp in frame {
            if self.sent >= self.config.max_packets {
                break;
            }
            self.publish_packet(ctx, rtp);
        }
        ctx.set_timer(self.source.frame_interval(), 0);
    }
}

/// A paced audio publisher (one packet per 20 ms tick).
pub struct AudioPublisher {
    config: PublisherConfig,
    source: AudioSource,
    sent: u64,
    seq: u64,
    /// `publisher.rtp_sent`, resolved on the first publish.
    sent_counter: Option<CounterId>,
}

impl AudioPublisher {
    /// Creates an audio publisher.
    pub fn new(config: PublisherConfig, source: AudioSource) -> Self {
        Self {
            config,
            source,
            sent: 0,
            seq: 0,
            sent_counter: None,
        }
    }

    /// RTP packets published so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl Process for AudioPublisher {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(
            self.config.broker,
            BrokerMsg::Attach {
                client: self.config.client,
                process: ctx.me(),
                profile: self.config.profile,
            },
            CONTROL_BYTES,
        );
        ctx.set_timer(self.config.start_delay, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.sent >= self.config.max_packets {
            return;
        }
        ctx.spend_cpu(self.config.send_cpu);
        let rtp = self.source.next_packet();
        let event = Event::new(
            self.config.topic.clone(),
            self.config.client,
            self.seq,
            EventClass::Rtp,
            rtp.encode(),
        )
        .with_published_at(ctx.now())
        .into_shared();
        self.seq += 1;
        let wire = event.wire_len() + self.config.profile.overhead_bytes();
        ctx.send(
            self.config.broker,
            BrokerMsg::Publish {
                client: self.config.client,
                event,
            },
            wire,
        );
        self.sent += 1;
        let sent = *self
            .sent_counter
            .get_or_insert_with(|| ctx.counter_id("publisher.rtp_sent"));
        ctx.bump(sent, 1);
        ctx.set_timer(self.source.frame_interval(), 0);
    }
}

/// An RTP-subscribing client measuring delivery quality.
pub struct RtpReceiver {
    broker: ProcessId,
    client: ClientId,
    filter: TopicFilter,
    profile: TransportProfile,
    recv_cpu: SimDuration,
    stats: ReceiverStats,
    /// `receiver.rtp_received`, `receiver.rtp_decode_error` and
    /// `receiver.bad_payload`, resolved on the first delivery (see
    /// [`Context::counter_id`]).
    counters: Option<(CounterId, CounterId, CounterId)>,
}

impl RtpReceiver {
    /// Creates a receiver that subscribes to `filter` on start.
    ///
    /// `payload_type` selects the RTP clock for jitter computation;
    /// `recv_cpu` is the per-packet processing cost at the client (this
    /// is what makes co-located receivers perturb each other).
    pub fn new(
        broker: ProcessId,
        client: ClientId,
        filter: TopicFilter,
        payload_type: u8,
        recv_cpu: SimDuration,
    ) -> Self {
        Self {
            broker,
            client,
            filter,
            profile: TransportProfile::Udp,
            recv_cpu,
            stats: ReceiverStats::new(0, payload_type),
            counters: None,
        }
    }

    /// Enables per-packet series capture (Figure 3 plotting).
    pub fn with_series_capture(mut self) -> Self {
        self.stats = self.stats.with_series_capture();
        self
    }

    /// Overrides the transport profile (default UDP), builder style.
    pub fn with_profile(mut self, profile: TransportProfile) -> Self {
        self.profile = profile;
        self
    }

    /// The receiver's quality statistics.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }
}

impl Process for RtpReceiver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(
            self.broker,
            BrokerMsg::Attach {
                client: self.client,
                process: ctx.me(),
                profile: self.profile,
            },
            CONTROL_BYTES,
        );
        ctx.send(
            self.broker,
            BrokerMsg::Subscribe {
                client: self.client,
                filter: self.filter.clone(),
            },
            CONTROL_BYTES,
        );
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let (received, decode_error, bad_payload) = *self.counters.get_or_insert_with(|| {
            (
                ctx.counter_id("receiver.rtp_received"),
                ctx.counter_id("receiver.rtp_decode_error"),
                ctx.counter_id("receiver.bad_payload"),
            )
        });
        let Some(ClientMsg::Deliver(event)) = packet.payload::<ClientMsg>() else {
            ctx.bump(bad_payload, 1);
            return;
        };
        let arrival = ctx.now();
        match WireRtp::parse(&event.payload) {
            Ok(rtp) => {
                self.stats.record_wire(&rtp, event.published_at, arrival);
                ctx.bump(received, 1);
            }
            Err(_) => ctx.bump(decode_error, 1),
        }
        ctx.spend_cpu(self.recv_cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcs_rtp::packet::payload_type;
    use mmcs_rtp::source::VideoSourceConfig;
    use mmcs_sim::net::NicConfig;
    use mmcs_sim::Simulation;
    use mmcs_util::rng::DetRng;
    use mmcs_util::time::SimTime;

    fn video_sim(seed: u64) -> (Simulation, ProcessId, Vec<ProcessId>) {
        let mut sim = Simulation::new(seed);
        let sender_host = sim.add_host("sender", NicConfig::default());
        let broker_host = sim.add_host("broker", NicConfig::default());
        let client_host = sim.add_host("clients", NicConfig::default());

        let broker = sim.add_typed_process(
            broker_host,
            BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
        );
        let mut receivers = Vec::new();
        for i in 0..3 {
            let host = if i == 0 { sender_host } else { client_host };
            let receiver = RtpReceiver::new(
                broker,
                ClientId::from_raw(100 + i),
                TopicFilter::parse("conf/1/video").unwrap(),
                payload_type::H263,
                SimDuration::from_micros(30),
            )
            .with_series_capture();
            receivers.push(sim.add_typed_process(host, receiver));
        }
        let mut config = PublisherConfig::new(
            broker,
            ClientId::from_raw(1),
            Topic::parse("conf/1/video").unwrap(),
        );
        config.max_packets = 100;
        let source = VideoSource::new(VideoSourceConfig::default(), 42, DetRng::new(seed));
        sim.add_typed_process(sender_host, VideoPublisher::new(config, source));
        (sim, broker, receivers)
    }

    #[test]
    fn video_flows_through_broker_to_all_receivers() {
        let (mut sim, broker, receivers) = video_sim(7);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.counter("publisher.rtp_sent"), 100);
        assert_eq!(sim.counter("receiver.rtp_received"), 300);
        for r in &receivers {
            let stats = sim.process_ref::<RtpReceiver>(*r).unwrap().stats();
            assert_eq!(stats.received(), 100);
            assert_eq!(stats.lost(), 0);
            assert!(stats.delay_ms().mean() > 0.0);
        }
        let node = sim.process_ref::<BrokerProcess>(broker).unwrap().node();
        assert_eq!(node.counters().deliveries, 300);
    }

    #[test]
    fn runs_are_deterministic() {
        fn digest(seed: u64) -> Vec<u64> {
            let (mut sim, _, receivers) = video_sim(seed);
            sim.run_until(SimTime::from_secs(10));
            receivers
                .iter()
                .map(|r| {
                    let s = sim.process_ref::<RtpReceiver>(*r).unwrap().stats();
                    (s.delay_ms().mean() * 1e9) as u64
                })
                .collect()
        }
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }

    #[test]
    fn audio_publisher_paces_at_50pps() {
        let mut sim = Simulation::new(1);
        let host = sim.add_host("all", NicConfig::default());
        let broker = sim.add_typed_process(
            host,
            BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
        );
        let receiver = sim.add_typed_process(
            host,
            RtpReceiver::new(
                broker,
                ClientId::from_raw(2),
                TopicFilter::parse("conf/1/audio").unwrap(),
                payload_type::PCMU,
                SimDuration::from_micros(10),
            ),
        );
        let config = PublisherConfig::new(
            broker,
            ClientId::from_raw(1),
            Topic::parse("conf/1/audio").unwrap(),
        );
        let source = AudioSource::new(mmcs_rtp::source::AudioCodec::Pcmu, 9);
        sim.add_typed_process(host, AudioPublisher::new(config, source));
        // 2 seconds of media after the 100 ms start delay: ~95 packets.
        sim.run_until(SimTime::from_secs(2));
        let stats = sim.process_ref::<RtpReceiver>(receiver).unwrap().stats();
        assert!((90..=96).contains(&stats.received()), "{}", stats.received());
        assert_eq!(stats.lost(), 0);
    }

    #[test]
    fn multi_broker_path_delivers() {
        let mut sim = Simulation::new(5);
        let h1 = sim.add_host("a", NicConfig::default());
        let h2 = sim.add_host("b", NicConfig::default());
        let b1 = sim.add_typed_process(
            h1,
            BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
        );
        let b2 = sim.add_typed_process(
            h2,
            BrokerProcess::new(BrokerId::from_raw(2), CostModel::narada()),
        );
        sim.process_mut::<BrokerProcess>(b1)
            .unwrap()
            .add_peer(BrokerId::from_raw(2), b2);
        sim.process_mut::<BrokerProcess>(b2)
            .unwrap()
            .add_peer(BrokerId::from_raw(1), b1);
        let receiver = sim.add_typed_process(
            h2,
            RtpReceiver::new(
                b2,
                ClientId::from_raw(2),
                TopicFilter::parse("conf/9/video").unwrap(),
                payload_type::H263,
                SimDuration::from_micros(10),
            ),
        );
        let mut config = PublisherConfig::new(
            b1,
            ClientId::from_raw(1),
            Topic::parse("conf/9/video").unwrap(),
        );
        config.max_packets = 50;
        let source = VideoSource::new(VideoSourceConfig::default(), 4, DetRng::new(2));
        sim.add_typed_process(h1, VideoPublisher::new(config, source));
        sim.run_until(SimTime::from_secs(10));
        let stats = sim.process_ref::<RtpReceiver>(receiver).unwrap().stats();
        assert_eq!(stats.received(), 50);
        // Two broker hops forwarded across hosts.
        assert!(sim.counter("broker.forwarded") >= 50);
    }

    /// Attaches with `profile`, subscribes to `topic`, and records each
    /// delivery as `(event seq, sent_at, wire bytes)`.
    struct Recorder {
        broker: ProcessId,
        client: ClientId,
        profile: TransportProfile,
        topic: Topic,
        got: Vec<(u64, SimTime, usize)>,
    }

    impl Process for Recorder {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let (client, profile) = (self.client, self.profile);
            let attach = BrokerMsg::Attach { client, process: ctx.me(), profile };
            ctx.send(self.broker, attach, CONTROL_BYTES);
            let filter = TopicFilter::exact(&self.topic);
            ctx.send(self.broker, BrokerMsg::Subscribe { client, filter }, CONTROL_BYTES);
        }

        fn on_packet(&mut self, _ctx: &mut Context<'_>, packet: Packet) {
            if let Some(ClientMsg::Deliver(event)) = packet.payload::<ClientMsg>() {
                self.got.push((event.seq, packet.sent_at, packet.wire_bytes));
            }
        }
    }

    /// Publishes one event per entry of `sizes`, back to back, at 50 ms.
    struct Burst {
        broker: ProcessId,
        client: ClientId,
        topic: Topic,
        sizes: Vec<usize>,
    }

    impl Process for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let attach = BrokerMsg::Attach {
                client: self.client,
                process: ctx.me(),
                profile: TransportProfile::Udp,
            };
            ctx.send(self.broker, attach, CONTROL_BYTES);
            ctx.set_timer(SimDuration::from_millis(50), 0);
        }

        fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}

        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
            for (seq, &size) in self.sizes.iter().enumerate() {
                let payload = bytes::Bytes::from(vec![0u8; size]);
                let event = Event::new(self.topic.clone(), self.client, seq as u64, EventClass::Rtp, payload)
                    .into_shared();
                let wire = event.wire_len() + TransportProfile::Udp.overhead_bytes();
                ctx.send(self.broker, BrokerMsg::Publish { client: self.client, event }, wire);
            }
        }
    }

    /// Every delivery of a fan-out leaves at the broker callback's start
    /// plus routing plus the prefix sum of its sends' charges, each
    /// computed straight from the cost model — whatever mix of profiles
    /// and event sizes the reused per-run charges have to tell apart.
    #[test]
    fn fanout_charges_match_the_cost_model_exactly() {
        let cost = CostModel::narada();
        let mut sim = Simulation::new(11);
        let sender_host = sim.add_host("sender", NicConfig::default());
        let broker_host = sim.add_host("broker", NicConfig::default());
        let client_host = sim.add_host("clients", NicConfig::default());
        let broker = sim.add_typed_process(broker_host, BrokerProcess::new(BrokerId::from_raw(1), cost));
        let topic = Topic::parse("conf/5/video").unwrap();
        let profiles = [
            TransportProfile::Udp,
            TransportProfile::Tcp,
            TransportProfile::Tcp,
            TransportProfile::Udp,
            TransportProfile::Udp,
            TransportProfile::Tcp,
        ];
        let recorders: Vec<ProcessId> = profiles
            .iter()
            .enumerate()
            .map(|(i, &profile)| {
                let recorder = Recorder {
                    broker,
                    client: ClientId::from_raw(100 + i as u64),
                    profile,
                    topic: topic.clone(),
                    got: Vec::new(),
                };
                sim.add_typed_process(client_host, recorder)
            })
            .collect();
        let sizes = vec![180, 1060];
        let publisher = sim.add_typed_process(
            sender_host,
            Burst {
                broker,
                client: ClientId::from_raw(1),
                topic,
                sizes: sizes.clone(),
            },
        );
        sim.set_trace_enabled(true);
        sim.run_until(SimTime::from_secs(1));

        // The broker's callback starts: its publisher-sent deliveries
        // after the attach, from the execution trace.
        let traces = sim.take_traces();
        let starts: Vec<SimTime> = traces[broker_host.0 as usize]
            .chunks(mmcs_sim::engine::TRACE_WORDS)
            .filter(|r| r[1] == broker.0 && r[3] == publisher.0)
            .map(|r| SimTime::from_nanos(r[0]))
            .filter(|&t| t >= SimTime::from_millis(50))
            .collect();
        assert_eq!(starts.len(), sizes.len());

        for (seq, start) in starts.into_iter().enumerate() {
            let mut sends: Vec<(SimTime, usize, TransportProfile)> = recorders
                .iter()
                .zip(profiles)
                .flat_map(|(id, profile)| {
                    let got = &sim.process_ref::<Recorder>(*id).unwrap().got;
                    got.iter()
                        .filter(|(s, _, _)| *s == seq as u64)
                        .map(move |&(_, sent_at, wire)| (sent_at, wire, profile))
                })
                .collect();
            assert_eq!(sends.len(), profiles.len(), "event {seq} reached every recorder once");
            sends.sort_unstable_by_key(|&(sent_at, _, _)| sent_at);
            let mut at = start + cost.routing;
            for (i, (sent_at, wire, profile)) in sends.into_iter().enumerate() {
                at += profile.scale_cost(cost.send_cost(i, wire));
                assert_eq!(sent_at, at, "event {seq} send {i} ({profile:?}, {wire} B)");
            }
        }
    }
}

/// A multicast relay: the broker delivers one copy per *machine*, and
/// the relay fans it out locally over the loopback — NaradaBrokering's
/// multicast transport ("one NIC transmission reaches every group
/// member on the same segment"). The relay attaches to the broker as a
/// single [`TransportProfile::Multicast`] client; its local receivers
/// get the event without touching the broker or its NIC again.
pub struct MulticastRelay {
    broker: ProcessId,
    client: ClientId,
    filter: TopicFilter,
    local_receivers: Vec<ProcessId>,
    relay_cpu: SimDuration,
    relayed: u64,
    /// `mcast.relayed`, resolved on the first relayed event.
    relayed_counter: Option<CounterId>,
}

impl MulticastRelay {
    /// Creates a relay subscribing to `filter` on `broker` as `client`.
    pub fn new(broker: ProcessId, client: ClientId, filter: TopicFilter) -> Self {
        Self {
            broker,
            client,
            filter,
            local_receivers: Vec::new(),
            relay_cpu: SimDuration::from_micros(4),
            relayed: 0,
            relayed_counter: None,
        }
    }

    /// Adds a receiver on this relay's machine (must live on the same
    /// simulated host for the loopback model to hold).
    pub fn add_local_receiver(&mut self, receiver: ProcessId) {
        self.local_receivers.push(receiver);
    }

    /// Events relayed so far.
    pub fn relayed(&self) -> u64 {
        self.relayed
    }
}

impl Process for MulticastRelay {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(
            self.broker,
            BrokerMsg::Attach {
                client: self.client,
                process: ctx.me(),
                profile: TransportProfile::Multicast,
            },
            CONTROL_BYTES,
        );
        ctx.send(
            self.broker,
            BrokerMsg::Subscribe {
                client: self.client,
                filter: self.filter.clone(),
            },
            CONTROL_BYTES,
        );
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let Some(ClientMsg::Deliver(event)) = packet.payload::<ClientMsg>() else {
            return;
        };
        ctx.spend_cpu(self.relay_cpu);
        let wire = event.wire_len();
        let message = Arc::new(ClientMsg::Deliver(Arc::clone(event)));
        for receiver in &self.local_receivers {
            // Loopback delivery: same host, no NIC serialization.
            ctx.send_shared(*receiver, message.clone(), wire);
        }
        self.relayed += 1;
        let relayed = *self
            .relayed_counter
            .get_or_insert_with(|| ctx.counter_id("mcast.relayed"));
        ctx.bump(relayed, 1);
    }
}

#[cfg(test)]
mod mcast_tests {
    use super::*;
    use mmcs_rtp::packet::payload_type;
    use mmcs_rtp::source::{VideoSource, VideoSourceConfig};
    use mmcs_sim::net::NicConfig;
    use mmcs_sim::Simulation;
    use mmcs_util::rng::DetRng;
    use mmcs_util::time::SimTime;

    #[test]
    fn relay_fans_out_locally_with_one_broker_send() {
        let mut sim = Simulation::new(2);
        let sender_host = sim.add_host("sender", NicConfig::default());
        let broker_host = sim.add_host("broker", NicConfig::default());
        let segment_host = sim.add_host("segment", NicConfig::default());

        let broker = sim.add_typed_process(
            broker_host,
            BrokerProcess::new(BrokerId::from_raw(1), crate::batch::CostModel::narada()),
        );
        let topic = Topic::parse("conf/9/video").unwrap();
        let filter = TopicFilter::exact(&topic);

        // 10 receivers behind one relay on the segment host.
        let mut receiver_ids = Vec::new();
        for i in 0..10 {
            let receiver = RtpReceiver::new(
                broker,
                ClientId::from_raw(100 + i),
                // Receivers do NOT subscribe at the broker: the relay
                // feeds them. Give them an unmatched filter.
                TopicFilter::parse("unused/topic").unwrap(),
                payload_type::H263,
                SimDuration::from_micros(10),
            );
            receiver_ids.push(sim.add_typed_process(segment_host, receiver));
        }
        let relay = sim.add_typed_process(
            segment_host,
            MulticastRelay::new(broker, ClientId::from_raw(50), filter),
        );
        for id in &receiver_ids {
            sim.process_mut::<MulticastRelay>(relay)
                .unwrap()
                .add_local_receiver(*id);
        }

        let mut config =
            PublisherConfig::new(broker, ClientId::from_raw(1), topic);
        config.max_packets = 60;
        let source = VideoSource::new(VideoSourceConfig::default(), 3, DetRng::new(4));
        sim.add_typed_process(sender_host, VideoPublisher::new(config, source));

        sim.run_until(SimTime::from_secs(10));

        // The broker delivered each packet exactly once (to the relay).
        assert_eq!(sim.counter("broker.delivered"), 60);
        assert_eq!(sim.counter("mcast.relayed"), 60);
        // Every local receiver still got all 60.
        for id in &receiver_ids {
            let stats = sim.process_ref::<RtpReceiver>(*id).unwrap().stats();
            assert_eq!(stats.received(), 60);
            assert_eq!(stats.lost(), 0);
        }
    }
}

#[cfg(test)]
mod liveness_tests {
    use super::*;
    use mmcs_rtp::packet::payload_type;
    use mmcs_rtp::source::{AudioCodec, AudioSource};
    use mmcs_sim::net::NicConfig;
    use mmcs_sim::Simulation;
    use mmcs_util::time::SimTime;

    /// A hung peer (no heartbeats) is detected and its link torn down;
    /// a healthy peer stays linked.
    #[test]
    fn hung_broker_is_disconnected() {
        let mut sim = Simulation::new(6);
        let h1 = sim.add_host("a", NicConfig::default());
        let h2 = sim.add_host("b", NicConfig::default());
        let every = SimDuration::from_millis(500);
        let timeout = SimDuration::from_millis(1600);
        let b1 = sim.add_typed_process(
            h1,
            BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada())
                .with_liveness(every, timeout),
        );
        let b2 = sim.add_typed_process(
            h2,
            BrokerProcess::new(BrokerId::from_raw(2), CostModel::narada())
                .with_liveness(every, timeout),
        );
        sim.process_mut::<BrokerProcess>(b1)
            .unwrap()
            .add_peer(BrokerId::from_raw(2), b2);
        sim.process_mut::<BrokerProcess>(b2)
            .unwrap()
            .add_peer(BrokerId::from_raw(1), b1);
        // Broker 2 is hung from the start.
        sim.process_mut::<BrokerProcess>(b2).unwrap().mute_heartbeats();

        sim.run_until(SimTime::from_secs(5));
        let b1_state = sim.process_ref::<BrokerProcess>(b1).unwrap();
        assert!(
            !b1_state.has_peer_link(BrokerId::from_raw(2)),
            "broker 1 must have dropped the hung peer"
        );
        assert!(sim.counter("broker.peer_suspected") >= 1);
    }

    /// With healthy heartbeats both directions, links stay up and media
    /// keeps flowing across the pair indefinitely.
    #[test]
    fn healthy_brokers_stay_linked_and_forwarding() {
        let mut sim = Simulation::new(8);
        let h1 = sim.add_host("a", NicConfig::default());
        let h2 = sim.add_host("b", NicConfig::default());
        let every = SimDuration::from_millis(500);
        let timeout = SimDuration::from_millis(1600);
        let b1 = sim.add_typed_process(
            h1,
            BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada())
                .with_liveness(every, timeout),
        );
        let b2 = sim.add_typed_process(
            h2,
            BrokerProcess::new(BrokerId::from_raw(2), CostModel::narada())
                .with_liveness(every, timeout),
        );
        sim.process_mut::<BrokerProcess>(b1)
            .unwrap()
            .add_peer(BrokerId::from_raw(2), b2);
        sim.process_mut::<BrokerProcess>(b2)
            .unwrap()
            .add_peer(BrokerId::from_raw(1), b1);

        let topic = Topic::parse("live/audio").unwrap();
        let receiver = sim.add_typed_process(
            h2,
            RtpReceiver::new(
                b2,
                ClientId::from_raw(2),
                TopicFilter::exact(&topic),
                payload_type::PCMU,
                SimDuration::from_micros(10),
            ),
        );
        let mut config = PublisherConfig::new(b1, ClientId::from_raw(1), topic);
        config.max_packets = 200; // 4 seconds of audio
        sim.add_typed_process(
            h1,
            AudioPublisher::new(config, AudioSource::new(AudioCodec::Pcmu, 1)),
        );
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.counter("broker.peer_suspected"), 0);
        let stats = sim.process_ref::<RtpReceiver>(receiver).unwrap().stats();
        assert_eq!(stats.received(), 200);
    }
}

/// A weighted receiver standing in for `weight` co-located clients — the
/// simulation-side analogue of [`MulticastRelay`]: the broker performs
/// one delivery per bundle (a [`TransportProfile::Multicast`] client when
/// `weight > 1`), and the bundle accounts for all `weight` clients behind
/// it — recording the delivery delay `weight` times into a shared
/// histogram pool and charging `weight ×` the per-client receive CPU.
///
/// This is what makes million-subscriber scenarios simulable: broker work
/// and simulator events scale with the number of *bundles*, while the
/// delay histogram and CPU accounting still reflect every individual
/// client. With `weight == 1` the bundle degenerates to an honest unicast
/// receiver (UDP profile, one delivery per client) for knee sweeps where
/// per-client broker cost must stay real.
///
/// The histogram pool is shared (`Arc`) so one pool per home shard can
/// absorb deliveries from thousands of bundles without per-receiver
/// snapshot merging — the "histogram pooling across shards" used by the
/// capacity-frontier harness.
pub struct ClientBundle {
    broker: ProcessId,
    client: ClientId,
    filter: TopicFilter,
    weight: u64,
    recv_cpu: SimDuration,
    delay_pool: Arc<mmcs_telemetry::Histogram>,
    received: u64,
    /// `bundle.delivered_clients` and `bundle.bad_payload`, resolved on
    /// the first delivery.
    counters: Option<(CounterId, CounterId)>,
}

impl ClientBundle {
    /// Creates a bundle of `weight` clients behind one delivery, homed at
    /// `broker`, subscribing to `filter` on start, pooling delay samples
    /// (one per represented client) into `delay_pool`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn new(
        broker: ProcessId,
        client: ClientId,
        filter: TopicFilter,
        weight: u64,
        recv_cpu: SimDuration,
        delay_pool: Arc<mmcs_telemetry::Histogram>,
    ) -> Self {
        assert!(weight > 0, "a bundle must represent at least one client");
        Self {
            broker,
            client,
            filter,
            weight,
            recv_cpu,
            delay_pool,
            received: 0,
            counters: None,
        }
    }

    /// Broker deliveries received (events, not per-client copies).
    pub fn received(&self) -> u64 {
        self.received
    }

    /// The number of clients this bundle represents.
    pub fn weight(&self) -> u64 {
        self.weight
    }
}

impl Process for ClientBundle {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let profile = if self.weight > 1 {
            TransportProfile::Multicast
        } else {
            TransportProfile::Udp
        };
        ctx.send(
            self.broker,
            BrokerMsg::Attach {
                client: self.client,
                process: ctx.me(),
                profile,
            },
            CONTROL_BYTES,
        );
        ctx.send(
            self.broker,
            BrokerMsg::Subscribe {
                client: self.client,
                filter: self.filter.clone(),
            },
            CONTROL_BYTES,
        );
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let (delivered_clients, bad_payload) = *self.counters.get_or_insert_with(|| {
            (
                ctx.counter_id("bundle.delivered_clients"),
                ctx.counter_id("bundle.bad_payload"),
            )
        });
        let Some(ClientMsg::Deliver(event)) = packet.payload::<ClientMsg>() else {
            ctx.bump(bad_payload, 1);
            return;
        };
        let delay = ctx.now().saturating_duration_since(event.published_at);
        self.delay_pool.record_n(delay.as_nanos(), self.weight);
        self.received += 1;
        ctx.bump(delivered_clients, self.weight);
        ctx.spend_cpu(self.recv_cpu * self.weight);
    }
}

#[cfg(test)]
mod bundle_tests {
    use super::*;
    use mmcs_rtp::source::{VideoSource, VideoSourceConfig};
    use mmcs_sim::net::NicConfig;
    use mmcs_sim::Simulation;
    use mmcs_telemetry::Histogram;
    use mmcs_util::rng::DetRng;
    use mmcs_util::time::SimTime;

    #[test]
    fn bundle_records_weight_samples_per_delivery() {
        let mut sim = Simulation::new(4);
        let broker_host = sim.add_host("broker", NicConfig::default());
        let segment_host = sim.add_host("segment", NicConfig::default());
        let broker = sim.add_typed_process(
            broker_host,
            BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
        );
        let topic = Topic::parse("conf/3/video").unwrap();
        let pool = Arc::new(Histogram::new());
        let bundle = sim.add_typed_process(
            segment_host,
            ClientBundle::new(
                broker,
                ClientId::from_raw(500),
                TopicFilter::exact(&topic),
                250,
                SimDuration::from_nanos(40),
                Arc::clone(&pool),
            ),
        );
        let mut config = PublisherConfig::new(broker, ClientId::from_raw(1), topic);
        config.max_packets = 30;
        let source = VideoSource::new(VideoSourceConfig::default(), 5, DetRng::new(6));
        sim.add_typed_process(broker_host, VideoPublisher::new(config, source));

        sim.run_until(SimTime::from_secs(10));
        let bundle_ref = sim.process_ref::<ClientBundle>(bundle).unwrap();
        assert_eq!(bundle_ref.received(), 30);
        // One broker delivery per event, but weight samples per delivery.
        assert_eq!(sim.counter("broker.delivered"), 30);
        assert_eq!(sim.counter("bundle.delivered_clients"), 30 * 250);
        let snap = pool.snapshot();
        assert_eq!(snap.count(), 30 * 250);
        assert!(snap.mean() > 0.0, "delays are positive");
    }

    #[test]
    fn weight_one_bundle_uses_unicast_profile_costs() {
        // Two sims: a weight-1 bundle vs an RtpReceiver-style unicast
        // client must cost the broker the same number of deliveries.
        let mut sim = Simulation::new(9);
        let host = sim.add_host("all", NicConfig::default());
        let broker = sim.add_typed_process(
            host,
            BrokerProcess::new(BrokerId::from_raw(1), CostModel::narada()),
        );
        let topic = Topic::parse("conf/8/audio").unwrap();
        let pool = Arc::new(Histogram::new());
        sim.add_typed_process(
            host,
            ClientBundle::new(
                broker,
                ClientId::from_raw(2),
                TopicFilter::exact(&topic),
                1,
                SimDuration::from_micros(10),
                Arc::clone(&pool),
            ),
        );
        let mut config = PublisherConfig::new(broker, ClientId::from_raw(1), topic);
        config.max_packets = 20;
        let source = mmcs_rtp::source::AudioSource::new(mmcs_rtp::source::AudioCodec::Pcmu, 3);
        sim.add_typed_process(host, AudioPublisher::new(config, source));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.counter("broker.delivered"), 20);
        assert_eq!(pool.snapshot().count(), 20);
    }
}
