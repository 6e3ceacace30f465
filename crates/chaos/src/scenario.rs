//! The chaos scenario: topology, traffic, fault application, and the
//! post-run report.
//!
//! One scenario is a chain of four brokers (each on its own host,
//! re-sending its adverts every second so a lossy link cannot strand
//! one), three reliable client pairs spanning the chain, two churn
//! clients, and an XGSP membership applier fed by pair 0's delivered
//! stream. [`run`] executes the scenario under a fault
//! [`crate::schedule`] and returns a [`RunReport`] with everything the
//! [`crate::invariants`] checkers need — plus a fingerprint that is
//! bit-identical across replays of the same seed and schedule.

use std::sync::Arc;

use bytes::Bytes;
use mmcs_broker::batch::CostModel;
use mmcs_broker::event::{Event, EventClass};
use mmcs_broker::metrics::BrokerMetrics;
use mmcs_broker::profile::TransportProfile;
use mmcs_broker::reliable::{Ack, ReliableFrame, ReliableReceiver, ReliableSender};
use mmcs_broker::simdrv::{join, BrokerMsg, BrokerProcess, ClientMsg};
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_sim::{Context, CounterId, LinkConfig, NicConfig, Packet, Process, ProcessId, Simulation};
use mmcs_telemetry::Registry;
use mmcs_util::id::{BrokerId, ClientId, SessionId, TerminalId};
use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};
use mmcs_xgsp::session::Session;

use crate::schedule::{Fault, FaultKind, Target};

/// Brokers in the chain.
pub const BROKERS: usize = 4;
/// Edges in the chain.
pub const EDGES: usize = BROKERS - 1;
/// Churn clients.
pub const CHURN_CLIENTS: usize = 2;
/// Reliable pairs: (sender broker, receiver broker).
pub const PAIRS: [(usize, usize); 3] = [(0, 3), (3, 0), (1, 2)];

const OFFER_TOKEN: u64 = 1;
const TICK_TOKEN: u64 = 2;

/// Parameters of one chaos run. Everything else derives from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Master seed: drives the network RNG, the fault schedule, and the
    /// XGSP command stream.
    pub seed: u64,
    /// Faults and traffic all end by this virtual time (ms).
    pub horizon_ms: u64,
    /// Post-heal window (ms): quiescence must be reached within it.
    pub settle_ms: u64,
    /// Events each reliable pair offers.
    pub events_per_pair: u64,
    /// Chaos-bug injection: senders never retransmit. Any lossy schedule
    /// then strands frames, which the invariant checkers must catch.
    pub disable_retransmit: bool,
}

impl ScenarioConfig {
    /// The standard configuration for a seed (12 s fault horizon, 15 s
    /// settle window, 150 events per pair, retransmission on).
    pub fn for_seed(seed: u64) -> Self {
        Self {
            seed,
            horizon_ms: 12_000,
            settle_ms: 15_000,
            events_per_pair: 150,
            disable_retransmit: false,
        }
    }
}

/// One XGSP roster command carried (by index) on pair 0's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XgspCmd {
    /// `user` joins with the given terminal.
    Join {
        /// Directory user name.
        user: String,
        /// Terminal id raw value.
        terminal: u64,
    },
    /// `user` leaves.
    Leave {
        /// Directory user name.
        user: String,
    },
}

/// Generates a deterministic, always-valid command stream: every `Leave`
/// names a user the in-order prefix has joined and not yet removed.
pub fn generate_commands(seed: u64, n: u64) -> Vec<XgspCmd> {
    let mut rng = DetRng::new(seed ^ 0x9C5F_00D5_EED5_0115);
    let mut present: Vec<(String, u64)> = Vec::new();
    let mut next_user = 0u64;
    (0..n)
        .map(|_| {
            if present.is_empty() || rng.chance(0.65) {
                let user = format!("user-{next_user}");
                let terminal = next_user;
                next_user += 1;
                present.push((user.clone(), terminal));
                XgspCmd::Join { user, terminal }
            } else {
                let i = rng.range_usize(0, present.len());
                let (user, _) = present.remove(i);
                XgspCmd::Leave { user }
            }
        })
        .collect()
}

/// Applies pair-0 delivered indices to a live [`Session`].
pub struct XgspApplier {
    session: Session,
    commands: Vec<XgspCmd>,
    applied: u64,
    apply_errors: u64,
}

impl XgspApplier {
    /// Creates an applier for the seed's command stream.
    pub fn new(seed: u64, n: u64) -> Self {
        Self {
            session: Session::new(SessionId::from_raw(1), "chaos", &[]),
            commands: generate_commands(seed, n),
            applied: 0,
            apply_errors: 0,
        }
    }

    /// Applies the command at `index` (out-of-range indices are counted
    /// as errors — they mean the reliable channel delivered garbage).
    pub fn apply(&mut self, index: u64) {
        let Some(cmd) = self.commands.get(index as usize) else {
            self.apply_errors += 1;
            return;
        };
        let result = match cmd.clone() {
            XgspCmd::Join { user, terminal } => self
                .session
                .join(user, TerminalId::from_raw(terminal), Vec::new())
                .map(|_| ()),
            XgspCmd::Leave { user } => self.session.leave(&user),
        };
        if result.is_err() {
            self.apply_errors += 1;
        }
        self.applied += 1;
    }

    /// The live roster digest.
    pub fn digest(&self) -> u64 {
        self.session.membership_digest()
    }
}

/// Replays a delivered-index trace against a fresh model and returns the
/// roster digest it ends at — the oracle for the XGSP invariant.
pub fn replay_digest(seed: u64, n: u64, delivered: &[u64]) -> u64 {
    let mut model = XgspApplier::new(seed, n);
    for &index in delivered {
        model.apply(index);
    }
    model.digest()
}

/// Sender endpoint of a reliable pair: offers `total` events, paced,
/// retransmitting on a timer until everything is acked.
struct ChaosSender {
    broker: ProcessId,
    client: ClientId,
    topic: Topic,
    ack_filter: TopicFilter,
    sender: ReliableSender,
    offered: u64,
    total: u64,
    retransmit: bool,
    /// `chaos.frames_sent` and `chaos.retransmits`, resolved on first use
    /// (see [`Context::counter_id`]).
    counters: Option<(CounterId, CounterId)>,
}

impl ChaosSender {
    fn counters(&mut self, ctx: &mut Context<'_>) -> (CounterId, CounterId) {
        *self.counters.get_or_insert_with(|| {
            (
                ctx.counter_id("chaos.frames_sent"),
                ctx.counter_id("chaos.retransmits"),
            )
        })
    }

    fn publish_frames(&mut self, ctx: &mut Context<'_>, frames: Vec<ReliableFrame>) {
        let (frames_sent, _) = self.counters(ctx);
        for frame in frames {
            debug_assert_eq!(frame.seq, frame.event.seq, "frame seq rides Event::seq");
            let wire = frame.event.wire_len() + TransportProfile::Tcp.overhead_bytes();
            ctx.send(
                self.broker,
                BrokerMsg::Publish {
                    client: self.client,
                    event: frame.event,
                },
                wire,
            );
            ctx.bump(frames_sent, 1);
        }
    }
}

impl Process for ChaosSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let profile = TransportProfile::Tcp;
        join(ctx, self.broker, self.client, profile, Some(&self.ack_filter));
        ctx.set_timer(SimDuration::from_millis(500), OFFER_TOKEN);
        ctx.set_timer(SimDuration::from_millis(100), TICK_TOKEN);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let Some(ClientMsg::Deliver(event)) = packet.payload::<ClientMsg>() else {
            return;
        };
        let ack = Ack {
            next_expected: event.seq,
        };
        let released = self.sender.on_ack(ack, ctx.now());
        self.publish_frames(ctx, released);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            OFFER_TOKEN if self.offered < self.total => {
                let event = Event::new(
                    self.topic.clone(),
                    self.client,
                    self.offered,
                    EventClass::Data,
                    Bytes::from(self.offered.to_be_bytes().to_vec()),
                )
                .with_published_at(ctx.now())
                .into_shared();
                self.offered += 1;
                let frames = self.sender.send(event, ctx.now());
                self.publish_frames(ctx, frames);
                ctx.set_timer(SimDuration::from_millis(40), OFFER_TOKEN);
            }
            TICK_TOKEN => {
                if self.retransmit {
                    let frames = self.sender.on_tick(ctx.now());
                    if !frames.is_empty() {
                        let (_, retransmits) = self.counters(ctx);
                        ctx.bump(retransmits, frames.len() as u64);
                    }
                    self.publish_frames(ctx, frames);
                }
                ctx.set_timer(SimDuration::from_millis(100), TICK_TOKEN);
            }
            _ => {}
        }
    }
}

/// Receiver endpoint of a reliable pair: reassembles the stream, records
/// what surfaced past the [`ReliableReceiver`], acks cumulatively, and
/// (for pair 0) feeds the XGSP applier.
struct ChaosReceiver {
    broker: ProcessId,
    client: ClientId,
    data_filter: TopicFilter,
    ack_topic: Topic,
    receiver: ReliableReceiver,
    delivered: Vec<u64>,
    xgsp: Option<XgspApplier>,
    /// `chaos.delivered`, resolved on the first frame.
    delivered_counter: Option<CounterId>,
}

impl Process for ChaosReceiver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let profile = TransportProfile::Tcp;
        join(ctx, self.broker, self.client, profile, Some(&self.data_filter));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let Some(ClientMsg::Deliver(event)) = packet.payload::<ClientMsg>() else {
            return;
        };
        let frame = ReliableFrame {
            seq: event.seq,
            event: Arc::clone(event),
        };
        let (events, ack) = self.receiver.on_frame(frame);
        let delivered = *self
            .delivered_counter
            .get_or_insert_with(|| ctx.counter_id("chaos.delivered"));
        for event in events {
            let mut index_bytes = [0u8; 8];
            index_bytes.copy_from_slice(&event.payload[..8]);
            let index = u64::from_be_bytes(index_bytes);
            self.delivered.push(index);
            ctx.bump(delivered, 1);
            if let Some(xgsp) = &mut self.xgsp {
                xgsp.apply(index);
            }
        }
        let ack_event = Event::new(
            self.ack_topic.clone(),
            self.client,
            ack.next_expected,
            EventClass::Control,
            Bytes::new(),
        )
        .into_shared();
        let wire = ack_event.wire_len() + TransportProfile::Tcp.overhead_bytes();
        ctx.send(
            self.broker,
            BrokerMsg::Publish {
                client: self.client,
                event: ack_event,
            },
            wire,
        );
    }
}

/// A churn client: subscribes to pair 0's data topic and gets crashed
/// and restarted by the schedule; its job is to stress broker
/// (re-)attach paths, not to assert anything itself.
struct ChurnClient {
    broker: ProcessId,
    client: ClientId,
    filter: TopicFilter,
    /// `chaos.churn_received`, resolved on the first packet.
    received_counter: Option<CounterId>,
}

impl ChurnClient {
    fn attach(&self, ctx: &mut Context<'_>) {
        let profile = TransportProfile::Udp;
        join(ctx, self.broker, self.client, profile, Some(&self.filter));
    }
}

impl Process for ChurnClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.attach(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        self.attach(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, _packet: Packet) {
        let received = *self
            .received_counter
            .get_or_insert_with(|| ctx.counter_id("chaos.churn_received"));
        ctx.bump(received, 1);
    }
}

/// Per-pair outcome.
#[derive(Debug, Clone)]
pub struct PairReport {
    /// Events the sender offered.
    pub offered: u64,
    /// Payload indices surfaced past the receiver, in delivery order.
    pub delivered: Vec<u64>,
    /// Whether the sender reached idle (all offered events acked).
    pub sender_idle: bool,
    /// Frames still awaiting an ack at the end of the run.
    pub in_flight: usize,
    /// Events accepted but never transmitted at the end of the run.
    pub backlogged: usize,
    /// Retransmissions the sender performed.
    pub retransmissions: u64,
    /// Duplicate frames the receiver suppressed.
    pub duplicates: u64,
}

/// One route-plan comparison against the naive re-walk oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCheck {
    /// Broker chain index.
    pub broker: usize,
    /// Concrete topic checked.
    pub topic: String,
    /// Local subscriber ids the broker would deliver to.
    pub actual_local: Vec<u64>,
    /// Local subscriber ids the oracle expects.
    pub expected_local: Vec<u64>,
    /// Peer broker ids the broker would forward to.
    pub actual_remote: Vec<u64>,
    /// Peer broker ids the oracle expects.
    pub expected_remote: Vec<u64>,
}

/// Everything a run produced, in deterministic order.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The seed the run used.
    pub seed: u64,
    /// FNV-1a over counters, delivery traces and digests;
    /// bit-identical across replays of the same seed + schedule.
    pub fingerprint: u64,
    /// All simulator counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// One report per reliable pair (indexed like [`PAIRS`]).
    pub pairs: Vec<PairReport>,
    /// Route plans vs the oracle, for every broker × topic.
    pub plans: Vec<PlanCheck>,
    /// The live XGSP roster digest at the end of the run.
    pub xgsp_digest: u64,
    /// The digest a fresh model reaches replaying the delivered trace.
    pub xgsp_replay_digest: u64,
    /// Commands the live applier rejected (must be zero).
    pub xgsp_apply_errors: u64,
    /// JSON rendering of the run's telemetry registry (per-broker
    /// [`BrokerMetrics`] plus per-pair retransmit counters). Excluded
    /// from the fingerprint: it is observability output, not an
    /// invariant surface — though under the deterministic simulator it
    /// is in fact identical across replays of the same seed.
    pub metrics_json: String,
}

/// An operation compiled from a fault interval endpoint.
enum Op {
    Link(usize, LinkConfig),
    Crash(ProcessId),
    Restart(ProcessId),
}

fn data_topic(pair: usize) -> Topic {
    Topic::parse(&format!("chaos/rel/{pair}")).expect("static topic")
}

fn ack_topic(pair: usize) -> Topic {
    Topic::parse(&format!("chaos/relack/{pair}")).expect("static topic")
}

/// Runs the scenario under `schedule` and reports.
pub fn run(config: &ScenarioConfig, schedule: &[Fault]) -> RunReport {
    let mut sim = Simulation::new(config.seed);
    let registry = Registry::new();
    let hosts: Vec<_> = (0..BROKERS)
        .map(|i| sim.add_host(&format!("broker-{i}"), NicConfig::default()))
        .collect();
    let broker_pids: Vec<ProcessId> = (0..BROKERS)
        .map(|i| {
            sim.add_typed_process(
                hosts[i],
                BrokerProcess::new(BrokerId::from_raw(i as u64), CostModel::narada())
                    .with_advert_refresh(SimDuration::from_secs(1)),
            )
        })
        .collect();
    for i in 0..BROKERS {
        sim.process_mut::<BrokerProcess>(broker_pids[i])
            .expect("broker process")
            .set_metrics(BrokerMetrics::register(&registry, &format!("broker{i}")));
        for j in [i.wrapping_sub(1), i + 1] {
            if j < BROKERS && j != i {
                let peer = BrokerId::from_raw(j as u64);
                sim.process_mut::<BrokerProcess>(broker_pids[i])
                    .expect("broker process")
                    .add_peer(peer, broker_pids[j]);
            }
        }
    }

    let mut sender_pids = Vec::new();
    let mut receiver_pids = Vec::new();
    for (k, (s, r)) in PAIRS.iter().enumerate() {
        let mut reliable = ReliableSender::new(8, SimDuration::from_millis(300));
        reliable.set_retransmit_counter(registry.counter(
            &format!("pair{k}_retransmissions_total"),
            "Reliable frames retransmitted after ack timeout",
        ));
        let sender = ChaosSender {
            broker: broker_pids[*s],
            client: ClientId::from_raw(100 + k as u64),
            topic: data_topic(k),
            ack_filter: TopicFilter::exact(&ack_topic(k)),
            sender: reliable,
            offered: 0,
            total: config.events_per_pair,
            retransmit: !config.disable_retransmit,
            counters: None,
        };
        sender_pids.push(sim.add_typed_process(hosts[*s], sender));
        let receiver = ChaosReceiver {
            broker: broker_pids[*r],
            client: ClientId::from_raw(200 + k as u64),
            data_filter: TopicFilter::exact(&data_topic(k)),
            ack_topic: ack_topic(k),
            receiver: ReliableReceiver::new(),
            delivered: Vec::new(),
            xgsp: (k == 0).then(|| XgspApplier::new(config.seed, config.events_per_pair)),
            delivered_counter: None,
        };
        receiver_pids.push(sim.add_typed_process(hosts[*r], receiver));
    }
    let churn_brokers = [1usize, 2];
    let churn_pids: Vec<ProcessId> = (0..CHURN_CLIENTS)
        .map(|c| {
            let b = churn_brokers[c % churn_brokers.len()];
            sim.add_typed_process(
                hosts[b],
                ChurnClient {
                    broker: broker_pids[b],
                    client: ClientId::from_raw(300 + c as u64),
                    filter: TopicFilter::exact(&data_topic(0)),
                    received_counter: None,
                },
            )
        })
        .collect();

    // Compile the schedule into timed operations.
    let mut ops: Vec<(u64, usize, Op)> = Vec::new();
    for (i, fault) in schedule.iter().enumerate() {
        let (start_op, end_op) = match (fault.kind, fault.target) {
            (FaultKind::Partition, Target::Edge(e)) => (
                Op::Link(
                    e,
                    LinkConfig {
                        down: true,
                        ..LinkConfig::default()
                    },
                ),
                Op::Link(e, LinkConfig::default()),
            ),
            (FaultKind::Loss(p), Target::Edge(e)) => (
                Op::Link(
                    e,
                    LinkConfig {
                        loss: p,
                        ..LinkConfig::default()
                    },
                ),
                Op::Link(e, LinkConfig::default()),
            ),
            (
                FaultKind::Flaky {
                    jitter_ms,
                    duplicate,
                },
                Target::Edge(e),
            ) => (
                Op::Link(
                    e,
                    LinkConfig {
                        jitter: SimDuration::from_millis(jitter_ms),
                        duplicate,
                        ..LinkConfig::default()
                    },
                ),
                Op::Link(e, LinkConfig::default()),
            ),
            (FaultKind::ClientChurn, Target::Client(c)) => (
                Op::Crash(churn_pids[c % CHURN_CLIENTS]),
                Op::Restart(churn_pids[c % CHURN_CLIENTS]),
            ),
            // A kind paired with a foreign target is a schedule bug;
            // treat it as a no-op link refresh rather than panic.
            _ => (Op::Link(0, LinkConfig::default()), Op::Link(0, LinkConfig::default())),
        };
        ops.push((fault.start_ms, i * 2, start_op));
        ops.push((fault.end_ms, i * 2 + 1, end_op));
    }
    ops.sort_by_key(|(t, tie, _)| (*t, *tie));

    for (t_ms, _, op) in ops {
        sim.run_until(SimTime::from_millis(t_ms));
        match op {
            Op::Link(e, cfg) => sim.set_link(hosts[e], hosts[e + 1], cfg),
            Op::Crash(pid) => sim.crash_process(pid),
            Op::Restart(pid) => sim.restart_process(pid),
        }
    }
    sim.run_until(SimTime::from_millis(config.horizon_ms));
    // Belt and braces: every fault interval ends by the horizon, but a
    // hand-written schedule might not be well-formed. Heal everything.
    for e in 0..EDGES {
        sim.set_link(hosts[e], hosts[e + 1], LinkConfig::default());
    }
    for pid in &churn_pids {
        if sim.is_crashed(*pid) {
            sim.restart_process(*pid);
        }
    }
    sim.run_until(SimTime::from_millis(config.horizon_ms + config.settle_ms));

    collect(
        config,
        &mut sim,
        &registry,
        &broker_pids,
        &sender_pids,
        &receiver_pids,
    )
}

/// Where each topic's subscribers live: `(broker index, client raw id)`.
fn subscriber_map() -> Vec<(String, Vec<(usize, u64)>)> {
    let mut topics = Vec::new();
    for (k, (s, r)) in PAIRS.iter().enumerate() {
        let mut data_subs = vec![(*r, 200 + k as u64)];
        if k == 0 {
            // Churn clients also subscribe to pair 0's data topic.
            data_subs.push((1, 300));
            data_subs.push((2, 301));
        }
        data_subs.sort_unstable();
        topics.push((data_topic(k).to_string(), data_subs));
        topics.push((ack_topic(k).to_string(), vec![(*s, 100 + k as u64)]));
    }
    topics
}

/// The naive re-walk oracle: on the chain, broker `i` delivers locally
/// to its own subscribers and forwards toward any neighbor whose side
/// of the tree holds at least one subscriber.
fn expected_plan(subs: &[(usize, u64)], broker: usize) -> (Vec<u64>, Vec<u64>) {
    let mut local: Vec<u64> = subs
        .iter()
        .filter(|(b, _)| *b == broker)
        .map(|(_, c)| *c)
        .collect();
    local.sort_unstable();
    let mut remote = Vec::new();
    if broker > 0 && subs.iter().any(|(b, _)| *b < broker) {
        remote.push((broker - 1) as u64);
    }
    if broker + 1 < BROKERS && subs.iter().any(|(b, _)| *b > broker) {
        remote.push((broker + 1) as u64);
    }
    (local, remote)
}

fn collect(
    config: &ScenarioConfig,
    sim: &mut Simulation,
    registry: &Registry,
    broker_pids: &[ProcessId],
    sender_pids: &[ProcessId],
    receiver_pids: &[ProcessId],
) -> RunReport {
    let mut counters: Vec<(String, u64)> = sim
        .counters()
        .map(|(name, value)| (name.to_owned(), value))
        .collect();
    counters.sort();

    let mut pairs = Vec::new();
    for k in 0..PAIRS.len() {
        let sender = sim
            .process_ref::<ChaosSender>(sender_pids[k])
            .expect("sender process");
        let receiver = sim
            .process_ref::<ChaosReceiver>(receiver_pids[k])
            .expect("receiver process");
        pairs.push(PairReport {
            offered: sender.offered,
            delivered: receiver.delivered.clone(),
            sender_idle: sender.sender.is_idle(),
            in_flight: sender.sender.in_flight(),
            backlogged: sender.sender.backlogged(),
            retransmissions: sender.sender.retransmissions(),
            duplicates: receiver.receiver.duplicates(),
        });
    }

    let mut plans = Vec::new();
    for (topic_str, subs) in subscriber_map() {
        let topic = Topic::parse(&topic_str).expect("oracle topic");
        for (i, pid) in broker_pids.iter().enumerate() {
            let broker = sim
                .process_mut::<BrokerProcess>(*pid)
                .expect("broker process");
            let plan = broker.node_mut().plan_for(&topic);
            let actual_local: Vec<u64> = plan.local.iter().map(|(c, _)| c.value()).collect();
            let actual_remote: Vec<u64> = plan.remote.iter().map(|p| p.value()).collect();
            let (expected_local, expected_remote) = expected_plan(&subs, i);
            plans.push(PlanCheck {
                broker: i,
                topic: topic_str.clone(),
                actual_local,
                expected_local,
                actual_remote,
                expected_remote,
            });
        }
    }

    let receiver0 = sim
        .process_ref::<ChaosReceiver>(receiver_pids[0])
        .expect("receiver process");
    let applier = receiver0.xgsp.as_ref().expect("pair 0 carries XGSP");
    let xgsp_digest = applier.digest();
    let xgsp_apply_errors = applier.apply_errors;
    let xgsp_replay_digest = replay_digest(
        config.seed,
        config.events_per_pair,
        &pairs[0].delivered,
    );

    let fingerprint = fingerprint(&counters, &pairs, xgsp_digest, xgsp_replay_digest);
    RunReport {
        seed: config.seed,
        fingerprint,
        counters,
        pairs,
        plans,
        xgsp_digest,
        xgsp_replay_digest,
        xgsp_apply_errors,
        metrics_json: registry.render_json(),
    }
}

fn fingerprint(
    counters: &[(String, u64)],
    pairs: &[PairReport],
    xgsp_digest: u64,
    xgsp_replay_digest: u64,
) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    for (name, value) in counters {
        mix(name.as_bytes());
        mix(&value.to_be_bytes());
    }
    for pair in pairs {
        mix(&pair.offered.to_be_bytes());
        for d in &pair.delivered {
            mix(&d.to_be_bytes());
        }
        mix(&[u8::from(pair.sender_idle)]);
        mix(&pair.retransmissions.to_be_bytes());
        mix(&pair.duplicates.to_be_bytes());
    }
    mix(&xgsp_digest.to_be_bytes());
    mix(&xgsp_replay_digest.to_be_bytes());
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_stream_is_deterministic_and_valid() {
        let a = generate_commands(9, 100);
        assert_eq!(a, generate_commands(9, 100));
        // Replaying the full stream against a model never errors.
        let mut model = XgspApplier::new(9, 100);
        for i in 0..100 {
            model.apply(i);
        }
        assert_eq!(model.apply_errors, 0);
        assert_eq!(model.applied, 100);
    }

    #[test]
    fn fault_free_run_is_clean_and_reproducible() {
        let config = ScenarioConfig {
            events_per_pair: 40,
            horizon_ms: 4000,
            settle_ms: 5000,
            ..ScenarioConfig::for_seed(11)
        };
        let a = run(&config, &[]);
        for pair in &a.pairs {
            assert_eq!(pair.offered, 40);
            assert_eq!(pair.delivered, (0..40).collect::<Vec<_>>());
            assert!(pair.sender_idle);
        }
        assert_eq!(a.xgsp_digest, a.xgsp_replay_digest);
        let b = run(&config, &[]);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn oracle_matches_topology() {
        // Data topic 0: subscribers at brokers 1, 2 (churn) and 3
        // (receiver). Broker 0 forwards right only; broker 3 delivers
        // locally with a left edge only when someone is left of it.
        let subs = vec![(1, 300), (2, 301), (3, 200)];
        let (local, remote) = expected_plan(&subs, 0);
        assert!(local.is_empty());
        assert_eq!(remote, vec![1]);
        let (local, remote) = expected_plan(&subs, 2);
        assert_eq!(local, vec![301]);
        assert_eq!(remote, vec![1, 3]);
        let (local, remote) = expected_plan(&subs, 3);
        assert_eq!(local, vec![200]);
        // Subscribers exist left of broker 3, so it forwards left.
        assert_eq!(remote, vec![2]);
    }
}
