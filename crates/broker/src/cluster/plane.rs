//! One federation node's **data plane** ([`DataPlane`]): what any thread
//! calls. A publishing client fans its event out through it, a link
//! hands it every frame it receives — events and gossip alike — and
//! `Cluster::gossip_round` starts a gossip exchange and a failure
//! detector round through it. No node owns a thread. Also here: the
//! directed links it sends on ([`Link`]) and the in-process fault
//! switches ([`FaultPlane`]).
//! Transport-blind: link-level reliability (sequencing, acks,
//! retransmit) never reaches this file.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::Mutex;

use super::frame::{
    decode_event_frame, encode_frame, ClusterFrame, FrameKind, LinkFrame, MAX_HOPS,
};
use super::liveness::{FailureDetector, Verdict};
use super::route::RouteTable;
use crate::event::Event;
use crate::gossip::{self, GossipState, InterestEntry, NodeId};
use crate::metrics::ClusterNodeMetrics;
use crate::node::PLAN_CACHE_MAX;
use crate::sharded::ShardedBroker;
use crate::topic::{ParseTopicError, Topic};

/// Per-link fault switches for the in-process transport; the chaos
/// harness flips them at deterministic schedule points. A fault on
/// `a ↔ b` is symmetric: one switch, seen from both ends.
#[derive(Debug)]
pub(super) struct FaultPlane {
    nodes: usize,
    down: Vec<AtomicBool>,
    gossip_loss: Vec<AtomicBool>,
}

impl FaultPlane {
    pub(super) fn new(nodes: usize) -> Self {
        let plane = || (0..nodes * nodes).map(|_| AtomicBool::new(false)).collect();
        Self {
            nodes,
            down: plane(),
            gossip_loss: plane(),
        }
    }

    fn switch<'a>(&self, plane: &'a [AtomicBool], a: NodeId, b: NodeId) -> Option<&'a AtomicBool> {
        plane.get(a.min(b) as usize * self.nodes + a.max(b) as usize)
    }

    fn is_down(&self, a: NodeId, b: NodeId) -> bool {
        (self.switch(&self.down, a, b)).is_some_and(|f| f.load(Ordering::Relaxed))
    }

    fn drops_gossip(&self, a: NodeId, b: NodeId) -> bool {
        (self.switch(&self.gossip_loss, a, b)).is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Severs (or restores) `a ↔ b`: frames on it are dropped.
    pub(super) fn set_down(&self, a: NodeId, b: NodeId, down: bool) {
        if let Some(switch) = self.switch(&self.down, a, b) {
            switch.store(down, Ordering::Relaxed);
        }
    }

    /// Drops (or stops dropping) gossip frames on `a ↔ b`.
    pub(super) fn set_gossip_loss(&self, a: NodeId, b: NodeId, on: bool) {
        if let Some(switch) = self.switch(&self.gossip_loss, a, b) {
            switch.store(on, Ordering::Relaxed);
        }
    }
}

/// A directed link to one peer, which any thread may send on. The link
/// encodes a [`LinkFrame::Event`] itself: in process into a frame it
/// hands to the peer's data plane, over TCP on the link sender's thread,
/// straight into the socket buffer. Either way the publishing thread
/// hands over an `Arc` and encodes nothing.
pub(super) type Link = Box<dyn Fn(LinkFrame) + Send + Sync>;

/// One node's data plane: its broker, its gossip state and its links,
/// called on whatever thread has a frame to move — the publishing
/// client's, a socket reader's, an in-process peer's, the one running a
/// gossip round. The gossip and topic locks are taken briefly, never
/// together, and never held across a link send or an inject, so a chain
/// of in-process hops — a relay, or a push/pull gossip reply — never
/// nests two nodes' locks.
pub(super) struct DataPlane {
    pub(super) me: NodeId,
    pub(super) broker: Arc<ShardedBroker>,
    /// The local interest truth and the learned view of every peer.
    gossip: Mutex<GossipState>,
    /// Every topic an arriving event carried, by its text: a remote event
    /// on a topic seen before shares that topic instead of parsing it
    /// again. Cleared when it reaches `PLAN_CACHE_MAX`, like the route
    /// plans and gossip targets keyed by the same topics.
    topics: Mutex<HashMap<Box<str>, Topic>>,
    /// The directed link to each peer (`None` where the latency map has
    /// no direct link, and for `me`). Set once, when every node's plane
    /// exists: in process a link is a handle on the peer's plane.
    links: OnceLock<Vec<Option<Link>>>,
    routes: Arc<RouteTable>,
    faults: Arc<FaultPlane>,
    /// `heard[peer]`: something arrived from direct peer `peer` since
    /// the last detector round. Set with one relaxed store per frame
    /// received; the publish path never touches it.
    heard: Vec<AtomicBool>,
    detector: Mutex<FailureDetector>,
    /// Frames a link has taken from this plane, counted after each
    /// hand-off; `Cluster::quiesce` stops once a round moves none.
    sent: AtomicU64,
    pub(super) metrics: Arc<ClusterNodeMetrics>,
}

impl DataPlane {
    /// A plane for node `me` whose direct peers are `neighbours`.
    pub(super) fn new(
        me: NodeId,
        nodes: usize,
        neighbours: impl IntoIterator<Item = NodeId>,
        broker: Arc<ShardedBroker>,
        routes: Arc<RouteTable>,
        faults: Arc<FaultPlane>,
        metrics: Arc<ClusterNodeMetrics>,
    ) -> Self {
        Self {
            me,
            broker,
            gossip: Mutex::new(GossipState::new(me, nodes)),
            topics: Mutex::new(HashMap::new()),
            links: OnceLock::new(),
            routes,
            faults,
            heard: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            detector: Mutex::new(FailureDetector::new(neighbours)),
            sent: AtomicU64::new(0),
            metrics,
        }
    }

    /// Installs the links (the first call wins).
    pub(super) fn set_links(&self, links: Vec<Option<Link>>) {
        let _ = self.links.set(links);
    }

    fn links(&self) -> &[Option<Link>] {
        self.links.get().map_or(&[], Vec::as_slice)
    }

    /// The remote half of a local client's publish (the local half went
    /// into this node's broker as that client's publish): one frame per
    /// remote node with matching interest, along its shortest path. The
    /// next-hop link gets the event's `Arc` and encodes the frame itself.
    /// A node no trusted path reaches is not sent to: its frame is shed.
    pub(super) fn publish(&self, event: &Arc<Event>) {
        let targets = self.gossip.lock().targets_for(&event.topic);
        for &target in targets.iter().filter(|&&target| target != self.me) {
            let Some(next) = self.routes.next_hop(self.me, target) else {
                self.metrics.frames_shed.inc();
                continue;
            };
            let generation = self.gossip.lock().entry(target).generation;
            self.metrics.inter_node_forwards.inc();
            let frame = LinkFrame::Event {
                origin: self.me,
                dest: target,
                generation,
                event: Arc::clone(event),
            };
            self.send_direct(next, frame, false);
        }
    }

    /// Notes that something arrived from direct peer `peer`.
    pub(super) fn heard(&self, peer: NodeId) {
        if let Some(heard) = self.heard.get(peer as usize) {
            heard.store(true, Ordering::Relaxed);
        }
    }

    /// A frame off the in-process link from `peer`: validated here, then
    /// handled as [`DataPlane::on_frame`] does.
    pub(super) fn receive(&self, peer: NodeId, frame: Bytes) {
        self.heard(peer);
        match ClusterFrame::parse(&frame) {
            Ok(parsed) => self.on_frame(&frame, &parsed),
            Err(_) => {
                self.metrics.frames_in.inc();
                self.metrics.decode_errors.inc();
            }
        }
    }

    /// A validated frame off a link (`parsed` views `frame`'s bytes): an
    /// event for this node is decoded and injected into its broker, one
    /// for another node is relayed toward it, a gossip digest is answered
    /// and gossip entries are applied. Link control belongs to the TCP
    /// socket reader; a frame of it that gets here is stray input.
    pub(super) fn on_frame(&self, frame: &Bytes, parsed: &ClusterFrame<'_>) {
        self.metrics.frames_in.inc();
        match parsed.kind() {
            FrameKind::Event if parsed.dest() == self.me => self.arrive(frame, parsed),
            FrameKind::Event => self.relay(parsed),
            FrameKind::GossipDigest => match gossip::decode_digest(parsed.body()) {
                Ok(digest) => self.answer_digest(parsed.origin(), &digest),
                Err(_) => self.metrics.decode_errors.inc(),
            },
            FrameKind::GossipEntries => match gossip::decode_entries(parsed.body()) {
                Ok(entries) => {
                    let applied = self.change_interest(|gossip| gossip.apply(&entries));
                    if applied > 0 {
                        self.metrics.gossip_entries_applied.add(applied as u64);
                    }
                }
                Err(_) => self.metrics.decode_errors.inc(),
            },
            FrameKind::Ack | FrameKind::Flush | FrameKind::FlushAck => {
                self.metrics.decode_errors.inc();
            }
        }
    }

    fn arrive(&self, frame: &Bytes, parsed: &ClusterFrame<'_>) {
        self.metrics
            .hop_histogram
            .record(u64::from(parsed.hops()) + 1);
        let local = self.gossip.lock().local_generation();
        if parsed.generation() < local {
            self.metrics.stale_generation.inc();
        }
        // The one decode on the way in: from here on the event is an
        // `Arc`, its topic shared with every earlier event on it, and its
        // payload a slice of the cluster frame's storage. The topic lock
        // is released before the inject, which may wait on backpressure.
        match decode_event_frame(frame, |text| self.topic_of(text)) {
            Ok(event) => self.broker.inject(event.into_shared()),
            Err(_) => self.metrics.decode_errors.inc(),
        }
    }

    /// The shared [`Topic`] for `text`, parsed only the first time this
    /// node sees it.
    fn topic_of(&self, text: &str) -> Result<Topic, ParseTopicError> {
        let mut topics = self.topics.lock();
        if let Some(topic) = topics.get(text) {
            return Ok(topic.clone());
        }
        let topic = Topic::parse(text)?;
        if topics.len() >= PLAN_CACHE_MAX {
            topics.clear();
        }
        topics.insert(text.into(), topic.clone());
        Ok(topic)
    }

    fn relay(&self, parsed: &ClusterFrame<'_>) {
        let hops = parsed.hops().saturating_add(1);
        if hops >= MAX_HOPS {
            self.metrics.hop_limit_drops.inc();
            return;
        }
        let relay = encode_frame(
            FrameKind::Event,
            parsed.origin(),
            parsed.dest(),
            hops,
            parsed.generation(),
            parsed.body(),
        );
        let Some(next) = self.routes.next_hop(self.me, parsed.dest()) else {
            self.metrics.no_route_drops.inc();
            return;
        };
        self.metrics.relays.inc();
        self.send_direct(next, LinkFrame::Encoded(relay.freeze()), false);
    }

    /// Runs `change` on the gossip state, then refreshes the
    /// `interest_entries` gauge.
    pub(super) fn change_interest<R>(&self, change: impl FnOnce(&mut GossipState) -> R) -> R {
        let (out, entries) = {
            let mut gossip = self.gossip.lock();
            let out = change(&mut gossip);
            (out, gossip.interest_entries())
        };
        self.metrics.interest_entries.set(entries as i64);
        out
    }

    /// This node's gossip view: one entry per node, entry `me` being its
    /// local truth.
    pub(super) fn view(&self) -> Vec<InterestEntry> {
        let gossip = self.gossip.lock();
        (0..gossip.node_count())
            .map(|n| gossip.entry(n as NodeId).clone())
            .collect()
    }

    /// Starts one gossip round: a digest to every direct peer —
    /// suspected ones included, so a peer that comes back hears us and
    /// answers.
    pub(super) fn tick(&self) {
        self.metrics.gossip_rounds.inc();
        for (peer, link) in self.links().iter().enumerate() {
            if link.is_some() {
                self.send_digest(peer as NodeId);
            }
        }
    }

    /// Ends a round once its digests have landed: hands the failure
    /// detector which direct peers were heard since the last round and
    /// returns its verdicts for the caller to act on.
    pub(super) fn detect(&self) -> Vec<Verdict> {
        let heard = |peer: NodeId| {
            let flag = self.heard.get(peer as usize);
            flag.is_some_and(|heard| heard.swap(false, Ordering::Relaxed))
        };
        let verdicts = self.detector.lock().round(heard);
        for verdict in &verdicts {
            match verdict {
                Verdict::Suspected(_) => self.metrics.peers_suspected.inc(),
                Verdict::Rejoined(_) => self.metrics.peers_rejoined.inc(),
            }
        }
        verdicts
    }

    /// How many frames this plane has handed to a link so far. A reader
    /// that sees a hand-off counted also sees the frame in the link's
    /// queue: the count is bumped after the hand-off, with release
    /// ordering.
    pub(super) fn frames_sent(&self) -> u64 {
        self.sent.load(Ordering::Acquire)
    }

    /// Whether the failure detector trusts every direct peer.
    pub(super) fn trusts_all(&self) -> bool {
        self.detector.lock().suspects_none()
    }

    /// Push half: send `peer` the entries it is missing. Pull half:
    /// answer with our own digest only while strictly behind, so the
    /// exchange terminates.
    fn answer_digest(&self, peer: NodeId, digest: &[(NodeId, u64)]) {
        let (entries, behind) = {
            let gossip = self.gossip.lock();
            (gossip.entries_newer_than(digest), gossip.behind(digest))
        };
        if !entries.is_empty() {
            let mut body = Vec::new();
            gossip::encode_entries_into(&entries, &mut body);
            self.send_gossip(peer, FrameKind::GossipEntries, &body);
        }
        if behind {
            self.send_digest(peer);
        }
    }

    /// Sends `peer` this node's digest, which starts a push/pull
    /// exchange with it.
    pub(super) fn send_digest(&self, peer: NodeId) {
        let mut digest = Vec::new();
        self.gossip.lock().digest_into(&mut digest);
        let mut body = Vec::new();
        gossip::encode_digest_into(&digest, &mut body);
        self.send_gossip(peer, FrameKind::GossipDigest, &body);
    }

    fn send_gossip(&self, peer: NodeId, kind: FrameKind, body: &[u8]) {
        let generation = self.gossip.lock().local_generation();
        let frame = encode_frame(kind, self.me, peer, 0, generation, body);
        self.send_direct(peer, LinkFrame::Encoded(frame.freeze()), true);
    }

    /// Sends on the direct link to `peer`, honouring the fault plane.
    fn send_direct(&self, peer: NodeId, frame: LinkFrame, is_gossip: bool) {
        if self.faults.is_down(self.me, peer) {
            self.metrics.link_drops.inc();
            return;
        }
        if is_gossip && self.faults.drops_gossip(self.me, peer) {
            self.metrics.gossip_drops.inc();
            return;
        }
        match self.links().get(peer as usize) {
            Some(Some(link)) => {
                link(frame);
                self.sent.fetch_add(1, Ordering::Release);
            }
            _ => self.metrics.no_route_drops.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::frame::encode_event_frame;
    use crate::cluster::LatencyMap;
    use crate::event::EventClass;
    use crate::metrics::ClusterMetrics;
    use crate::topic::TopicFilter;
    use mmcs_util::id::ClientId;

    /// A peer that sends three times `PLAN_CACHE_MAX` distinct topics
    /// never grows node 1's topic table past the bound, and every event
    /// still reaches a `#` subscriber under its own topic. Two events on
    /// one topic arrive sharing one `Topic`.
    #[test]
    fn the_topic_table_stays_bounded_and_every_event_keeps_its_topic() {
        let latency = LatencyMap::full_mesh(2, 1);
        let plane = DataPlane::new(
            1,
            2,
            [0],
            Arc::new(ShardedBroker::spawn(1)),
            Arc::new(RouteTable::new(&latency)),
            Arc::new(FaultPlane::new(2)),
            Arc::clone(ClusterMetrics::detached(2).node(1)),
        );
        let subscriber = plane.broker.attach();
        subscriber.subscribe(TopicFilter::parse("#").expect("valid filter"));
        plane.broker.quiesce();

        let mut got = Vec::new();
        for round in 0..3 {
            for i in 0..PLAN_CACHE_MAX {
                let n = round * PLAN_CACHE_MAX + i;
                let topic = Topic::parse(&format!("peer/{n}/audio")).expect("valid topic");
                let payload = Bytes::from(n.to_be_bytes().to_vec());
                let event = Event::new(topic, ClientId::from_raw(7), n as u64, EventClass::Rtp, payload);
                plane.receive(0, encode_event_frame(0, 1, 0, 0, &event).freeze());
                assert!(plane.topics.lock().len() <= PLAN_CACHE_MAX, "after topic {n}");
            }
            plane.broker.quiesce();
            subscriber.drain_into(&mut got);
        }
        assert_eq!(got.len(), 3 * PLAN_CACHE_MAX);
        for event in &got {
            assert_eq!(event.topic.to_string(), format!("peer/{}/audio", event.seq));
            assert_eq!(event.payload[..], (event.seq as usize).to_be_bytes());
        }
        assert_eq!(plane.topics.lock().len(), PLAN_CACHE_MAX, "full again, not cleared");
        assert_eq!(plane.metrics.decode_errors.get(), 0);

        let again = Topic::parse("peer/again").expect("valid topic");
        for seq in 0..2 {
            let event = Event::new(again.clone(), ClientId::from_raw(7), seq, EventClass::Rtp, Bytes::new());
            plane.receive(0, encode_event_frame(0, 1, 0, 0, &event).freeze());
        }
        plane.broker.quiesce();
        got.clear();
        subscriber.drain_into(&mut got);
        let [first, second] = &got[..] else {
            panic!("two events arrive, got {}", got.len());
        };
        assert_eq!(first.topic, again);
        assert!(std::ptr::eq(first.topic.segments(), second.topic.segments()));
        assert!(!std::ptr::eq(first.topic.segments(), again.segments()), "parsed once, on arrival");
    }
}
