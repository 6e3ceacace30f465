//! Simulator driver: a broker on a simulated host.
//!
//! [`BrokerProcess`] plugs the sans-IO [`BrokerNode`] into the
//! deterministic simulator, charging CPU per the [`CostModel`] for
//! routing and each outbound send (so fan-out to 400 receivers
//! serializes through the broker CPU and NIC). It is the broker behind
//! every experiment in `EXPERIMENTS.md`.
//!
//! The process, not the node, knows its peers, and peer interest
//! reaches a node the way it does on the live shard ring: one
//! [`BrokerMsg::RemoteSubscribe`] per client subscription. Each
//! subscription its node accepts goes to every peer in id order. An
//! event is routed straight from the node's route plan
//! ([`BrokerNode::publish_plan`]), the way the live shard worker does:
//! a send per local subscriber, then, for a client's event, one per
//! interested peer.
//!
//! Clients and peer brokers talk to it in [`BrokerMsg`]s; it answers
//! clients with [`ClientMsg::Deliver`]. A client calls [`join`] once,
//! at simulation start: it sends [`BrokerMsg::Attach`] (carrying its
//! process id) and, if it receives, [`BrokerMsg::Subscribe`]. Nothing
//! unsubscribes or attaches twice. The simulated A/V clients the
//! experiments use live in `mmcs-bench` (`mmcs_bench::load`).

use std::collections::BTreeMap;
use std::sync::Arc;

use mmcs_sim::{Context, CounterId, Packet, Payload, Process, ProcessId};
use mmcs_util::id::{BrokerId, ClientId, IdMap};
use mmcs_util::time::SimDuration;

use crate::batch::CostModel;
use crate::event::Event;
use crate::metrics::BrokerMetrics;
use crate::node::{BrokerNode, Input, Origin};
use crate::profile::TransportProfile;
use crate::topic::TopicFilter;

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
    /// One of a peer broker's clients subscribed.
    RemoteSubscribe {
        /// The subscriber's broker.
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

/// Control-plane message size on the wire (attach and subscriptions).
const CONTROL_BYTES: usize = 96;

/// Attaches `client` to `broker` and, given a filter, subscribes it: what
/// every simulated client does on start.
pub fn join(
    ctx: &mut Context<'_>,
    broker: ProcessId,
    client: ClientId,
    profile: TransportProfile,
    filter: Option<&TopicFilter>,
) {
    let attach = BrokerMsg::Attach {
        client,
        process: ctx.me(),
        profile,
    };
    ctx.send(broker, attach, CONTROL_BYTES);
    if let Some(filter) = filter {
        let filter = filter.clone();
        ctx.send(
            broker,
            BrokerMsg::Subscribe { client, filter },
            CONTROL_BYTES,
        );
    }
}

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
        }
    }
}

/// What one send's CPU charge depends on: whether it is the first send
/// of its fan-out, its wire size and the client's profile.
type SendKey = (bool, usize, TransportProfile);

/// A broker running inside the simulator.
pub struct BrokerProcess {
    node: BrokerNode,
    cost: CostModel,
    /// Each attached client's process, looked up once per delivery, so
    /// hashed with one multiply. The profile a send is charged by comes
    /// from the route plan.
    clients: IdMap<ClientId, ProcessId>,
    /// Every peer this broker is wired to, in id order: the order a
    /// subscription is sent in.
    peers: BTreeMap<BrokerId, ProcessId>,
    /// The delivery charges computed so far in the current fan-out.
    /// [`CostModel::send_cost`] is pure and reads its index only as
    /// "first send or not", so a 400-way fan-out computes two charges
    /// and reuses them, bit for bit, for the other 398 sends.
    send_costs: Vec<(SendKey, SimDuration)>,
    /// Resolved on the first callback that bumps one.
    counters: Option<BrokerCounters>,
}

impl BrokerProcess {
    /// Creates a broker process with the given cost model.
    pub fn new(id: BrokerId, cost: CostModel) -> Self {
        Self {
            node: BrokerNode::new(id),
            cost,
            clients: IdMap::default(),
            peers: BTreeMap::new(),
            send_costs: Vec::new(),
            counters: None,
        }
    }

    /// Installs the node's hot-path telemetry instruments.
    pub fn set_metrics(&mut self, metrics: Arc<BrokerMetrics>) {
        self.node.set_metrics(metrics);
    }

    /// Declares a peer broker reachable at `process`; both sides must
    /// declare each other before the first client subscribes.
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

    /// Routes an event by the node's plan, the way the live shard
    /// worker fans out: a send per `plan.local` client, then, for a
    /// client's event, one per `plan.remote` peer. Routing costs
    /// `cost.routing`; each send costs what [`CostModel::send_cost`]
    /// charges at its index in that order.
    fn route(&mut self, ctx: &mut Context<'_>, origin: Origin, event: Arc<Event>) {
        ctx.spend_cpu(self.cost.routing);
        let counters = self.counters(ctx);
        let Ok(plan) = self.node.publish_plan(origin, &event.topic) else {
            ctx.bump(counters.protocol_error, 1);
            return;
        };
        self.send_costs.clear();
        let mut send_index = 0usize;
        // Every delivery shares one message, so 400 receivers cost one
        // allocation and the engine holds one handle for them all.
        let mut fanout: Option<Payload> = None;
        for &(client, profile) in &plan.local {
            let Some(&process) = self.clients.get(&client) else {
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
            let message = fanout.get_or_insert_with(|| Arc::new(ClientMsg::Deliver(Arc::clone(&event))));
            ctx.send_shared(process, message, wire);
        }
        let delivered = send_index as u64;
        if delivered > 0 {
            ctx.bump(counters.delivered, delivered);
        }
        for peer in plan.forwards(origin) {
            let Some(&process) = self.peers.get(peer) else {
                ctx.bump(counters.unknown_peer, 1);
                continue;
            };
            let wire = event.wire_len() + TransportProfile::Tcp.overhead_bytes();
            ctx.spend_cpu(self.cost.send_cost(send_index, wire));
            send_index += 1;
            let from = self.node.id();
            ctx.send(process, BrokerMsg::Forward { from, event: Arc::clone(&event) }, wire);
            ctx.bump(counters.forwarded, 1);
        }
    }

    /// Applies a control input, which emits no action; returns whether
    /// the node accepted it. A rejected one is counted as
    /// `broker.protocol_error` for the harness.
    fn control(&mut self, ctx: &mut Context<'_>, input: Input) -> bool {
        let accepted = self.node.handle(input).is_ok();
        if !accepted {
            let counters = self.counters(ctx);
            ctx.bump(counters.protocol_error, 1);
        }
        accepted
    }
}

impl Process for BrokerProcess {
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
                if self.control(ctx, Input::AttachClient { client, profile }) {
                    self.clients.insert(client, process);
                }
            }
            BrokerMsg::Subscribe { client, filter } => {
                let subscribe = Input::Subscribe {
                    client,
                    filter: filter.clone(),
                };
                if self.control(ctx, subscribe) {
                    let from = self.node.id();
                    for &process in self.peers.values() {
                        let filter = filter.clone();
                        let msg = BrokerMsg::RemoteSubscribe { from, filter };
                        ctx.send(process, msg, CONTROL_BYTES);
                    }
                }
            }
            BrokerMsg::Publish { client, event } => self.route(ctx, Origin::Client(client), event),
            BrokerMsg::Forward { from, event } => self.route(ctx, Origin::Broker(from), event),
            BrokerMsg::RemoteSubscribe { from, filter } => {
                self.control(ctx, Input::RemoteSubscribe { peer: from, filter });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventClass;
    use crate::simtopo::{add_brokers, Links};
    use crate::topic::Topic;
    use mmcs_sim::net::NicConfig;
    use mmcs_sim::Simulation;
    use mmcs_util::rate::Bandwidth;
    use mmcs_util::time::SimTime;

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
            let filter = TopicFilter::exact(&self.topic);
            join(ctx, self.broker, self.client, self.profile, Some(&filter));
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
            join(ctx, self.broker, self.client, TransportProfile::Udp, None);
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

    /// Subscribes a client that never attached.
    struct Stray {
        broker: ProcessId,
        filter: TopicFilter,
    }

    impl Process for Stray {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let subscribe = BrokerMsg::Subscribe {
                client: ClientId::from_raw(99),
                filter: self.filter.clone(),
            };
            ctx.send(self.broker, subscribe, CONTROL_BYTES);
        }

        fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
    }

    /// Two linked brokers: a subscriber on B gets A's publish exactly
    /// once, and a subscription A rejects reaches no peer, so B
    /// forwards its own client's publish nowhere.
    #[test]
    fn a_subscription_reaches_every_peer_once_accepted() {
        let mut sim = Simulation::new(7);
        let nic = Bandwidth::from_mbps(100);
        let brokers = add_brokers(&mut sim, Links::ShardMesh(2), CostModel::narada(), nic);
        let (a, b) = (brokers[0], brokers[1]);
        let clients = sim.add_host("clients", NicConfig::default());
        let topic = Topic::parse("conf/1/audio").unwrap();
        let recorder = Recorder {
            broker: b,
            client: ClientId::from_raw(10),
            profile: TransportProfile::Udp,
            topic: topic.clone(),
            got: Vec::new(),
        };
        let recorder = sim.add_typed_process(clients, recorder);
        let stray = Stray {
            broker: a,
            filter: TopicFilter::exact(&topic),
        };
        sim.add_typed_process(clients, stray);
        for (broker, raw) in [(a, 1), (b, 2)] {
            let burst = Burst {
                broker,
                client: ClientId::from_raw(raw),
                topic: topic.clone(),
                sizes: vec![180],
            };
            sim.add_typed_process(clients, burst);
        }
        sim.run_until(SimTime::from_secs(1));

        let got = &sim.process_ref::<Recorder>(recorder).unwrap().got;
        assert_eq!(got.len(), 2, "A's publish and B's, once each");
        assert_eq!(sim.counter("broker.protocol_error"), 1);
        let forwards = |at| {
            let broker = sim.process_ref::<BrokerProcess>(at).unwrap();
            broker.node().counters().forwards
        };
        assert_eq!(forwards(a), 1, "A's publish crossed to B");
        assert_eq!(forwards(b), 0, "A holds no accepted subscriber");
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
