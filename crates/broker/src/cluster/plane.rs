//! One federation node's **data plane** ([`DataPlane`]): what any thread
//! calls. A publishing client fans its event out through it, a link
//! hands it every frame it receives — events and gossip alike — and
//! `Cluster::gossip_round` starts a gossip exchange through it. No node
//! owns a thread. Also here: the directed links it sends on ([`Link`])
//! and the in-process fault switches ([`FaultPlane`]).
//! Transport-blind: link-level reliability (sequencing, acks,
//! retransmit) never reaches this file.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use mmcs_util::pool;
use parking_lot::Mutex;

use super::frame::{
    decode_event_frame, encode_event_frame, encode_frame, ClusterFrame, FrameKind, MAX_HOPS,
};
use super::route::RouteTable;
use crate::event::Event;
use crate::gossip::{self, GossipState, InterestEntry, NodeId};
use crate::metrics::ClusterNodeMetrics;
use crate::sharded::ShardedBroker;

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

/// A directed link to one peer: hands a frame to the peer's data plane
/// (in-process) or to a TCP link sender's queue. Any thread may send.
pub(super) type Link = Box<dyn Fn(Bytes) + Send + Sync>;

/// One node's data plane: its broker, its gossip state and its links,
/// called on whatever thread has a frame to move — the publishing
/// client's, a socket reader's, an in-process peer's, the one running a
/// gossip round. The gossip lock is taken briefly and never held across
/// a link send or an inject, so a chain of in-process hops — a relay, or
/// a push/pull gossip reply — never nests two nodes' locks.
pub(super) struct DataPlane {
    pub(super) me: NodeId,
    pub(super) broker: Arc<ShardedBroker>,
    /// The local interest truth and the learned view of every peer.
    gossip: Mutex<GossipState>,
    /// The directed link to each peer (`None` where the latency map has
    /// no direct link, and for `me`). Set once, when every node's plane
    /// exists: in process a link is a handle on the peer's plane.
    links: OnceLock<Vec<Option<Link>>>,
    routes: Arc<RouteTable>,
    faults: Arc<FaultPlane>,
    pub(super) metrics: Arc<ClusterNodeMetrics>,
}

impl DataPlane {
    pub(super) fn new(
        me: NodeId,
        nodes: usize,
        broker: Arc<ShardedBroker>,
        routes: Arc<RouteTable>,
        faults: Arc<FaultPlane>,
        metrics: Arc<ClusterNodeMetrics>,
    ) -> Self {
        Self {
            me,
            broker,
            gossip: Mutex::new(GossipState::new(me, nodes)),
            links: OnceLock::new(),
            routes,
            faults,
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
    /// remote node with matching interest, along its shortest path.
    pub(super) fn publish(&self, event: &Event) {
        let targets = self.gossip.lock().targets_for(&event.topic);
        for &target in targets.iter().filter(|&&target| target != self.me) {
            let generation = self.gossip.lock().entry(target).generation;
            let frame = encode_event_frame(self.me, target, 0, generation, event).freeze();
            self.metrics.inter_node_forwards.inc();
            self.send_routed(target, frame);
        }
    }

    /// A frame off an in-process link: validated here, then handled as
    /// [`DataPlane::on_frame`] does.
    pub(super) fn receive(&self, frame: Bytes) {
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
        // `Arc`, and its payload a slice of the cluster frame's storage.
        match decode_event_frame(frame) {
            Ok(event) => self.broker.inject(event.into_shared()),
            Err(_) => self.metrics.decode_errors.inc(),
        }
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
        )
        .freeze();
        self.metrics.relays.inc();
        self.send_routed(parsed.dest(), relay);
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

    /// Starts one gossip round: a digest to every direct peer.
    pub(super) fn tick(&self) {
        self.metrics.gossip_rounds.inc();
        for (peer, link) in self.links().iter().enumerate() {
            if link.is_some() {
                self.send_digest(peer as NodeId);
            }
        }
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
            let mut body = pool::acquire(256);
            gossip::encode_entries_into(&entries, &mut body);
            self.send_gossip(peer, FrameKind::GossipEntries, &body);
        }
        if behind {
            self.send_digest(peer);
        }
    }

    fn send_digest(&self, peer: NodeId) {
        let mut digest = Vec::new();
        self.gossip.lock().digest_into(&mut digest);
        let mut body = pool::acquire(64);
        gossip::encode_digest_into(&digest, &mut body);
        self.send_gossip(peer, FrameKind::GossipDigest, &body);
    }

    fn send_gossip(&self, peer: NodeId, kind: FrameKind, body: &[u8]) {
        let generation = self.gossip.lock().local_generation();
        let frame = encode_frame(kind, self.me, peer, 0, generation, body).freeze();
        self.send_direct(peer, frame, true);
    }

    /// Hands `frame` to the next hop along the shortest path to `dest`.
    fn send_routed(&self, dest: NodeId, frame: Bytes) {
        let Some(next) = self.routes.next_hop(self.me, dest) else {
            self.metrics.no_route_drops.inc();
            return;
        };
        self.send_direct(next, frame, false);
    }

    /// Sends on the direct link to `peer`, honouring the fault plane.
    fn send_direct(&self, peer: NodeId, frame: Bytes, is_gossip: bool) {
        if self.faults.is_down(self.me, peer) {
            self.metrics.link_drops.inc();
            return;
        }
        if is_gossip && self.faults.drops_gossip(self.me, peer) {
            self.metrics.gossip_drops.inc();
            return;
        }
        match self.links().get(peer as usize) {
            Some(Some(link)) => link(frame),
            _ => self.metrics.no_route_drops.inc(),
        }
    }
}
