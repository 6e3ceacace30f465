//! One node's cluster-layer worker: the command set it drains
//! ([`NodeCmd`]), the directed links it sends on ([`Link`]), the
//! in-process fault switches ([`FaultPlane`]) and the event loop itself
//! ([`ClusterWorker`]). Transport-blind: link-level reliability
//! (sequencing, acks, retransmit) never reaches this file.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use bytes::Bytes;
use mmcs_util::pool;

use super::frame::{
    encode_event_frame, encode_frame, ClusterFrame, FrameKind, CLUSTER_HEADER_LEN, MAX_HOPS,
};
use super::route::RouteTable;
use crate::event::Event;
use crate::gossip::{self, GossipState, InterestEntry, NodeId};
use crate::metrics::ClusterNodeMetrics;
use crate::sharded::ShardedBroker;
use crate::topic::TopicFilter;
use crate::wire;

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

/// Commands into one node's cluster worker.
pub(super) enum NodeCmd {
    /// A frame off a link (either transport).
    Frame(Bytes),
    /// A publish from a locally-homed client.
    Publish(Arc<Event>),
    /// Interest bookkeeping for a locally-homed client subscription.
    Subscribe(TopicFilter),
    /// Reverse of `Subscribe`.
    Unsubscribe(TopicFilter),
    /// Start one gossip round: digest to every direct peer.
    GossipTick,
    /// Gateway restart: forget the learned view (and, with
    /// `lose_interest`, the local truth — the chaos bug hook).
    Restart { lose_interest: bool },
    /// Snapshot the gossip view (one entry per node).
    Inspect(Sender<Vec<InterestEntry>>),
    /// Flush everything ahead of this command, then ack.
    Barrier(Sender<()>),
    /// `peer`'s link flush, queued by the socket reader behind every
    /// frame that link released before it: answer with a `FlushAck`.
    Flush { peer: NodeId, token: u64 },
    Shutdown,
}

/// A directed link to one peer: hands a frame to the peer worker's
/// ingress (in-process) or to a TCP link sender's queue.
pub(super) type Link = Box<dyn Fn(Bytes) + Send>;

/// One node's cluster-layer event loop: drains the ingress queue and
/// reacts to frames, publishes, interest changes and gossip ticks.
/// This is the federation ingress loop in the analyzer's
/// panic-reachability and blocking-call root sets: everything reachable
/// from [`ClusterWorker::run`] must be panic-free and non-blocking
/// (the sanctioned ingress `recv` aside).
pub(super) struct ClusterWorker {
    pub(super) me: NodeId,
    pub(super) ingress: Receiver<NodeCmd>,
    /// The directed link to each peer (`None` where the latency map has
    /// no direct link, and for `me`).
    pub(super) links: Vec<Option<Link>>,
    pub(super) routes: Arc<RouteTable>,
    pub(super) faults: Arc<FaultPlane>,
    pub(super) gossip: GossipState,
    pub(super) broker: Arc<ShardedBroker>,
    pub(super) metrics: Arc<ClusterNodeMetrics>,
    pub(super) digest_scratch: Vec<(NodeId, u64)>,
}

impl ClusterWorker {
    pub(super) fn run(mut self) {
        while let Ok(cmd) = self.ingress.recv() {
            match cmd {
                NodeCmd::Frame(bytes) => self.frame(bytes),
                NodeCmd::Publish(event) => self.publish(&event),
                NodeCmd::Subscribe(filter) => {
                    self.gossip.subscribe(&filter);
                    self.interest_changed();
                }
                NodeCmd::Unsubscribe(filter) => {
                    self.gossip.unsubscribe(&filter);
                    self.interest_changed();
                }
                NodeCmd::GossipTick => self.tick(),
                NodeCmd::Restart { lose_interest } => {
                    self.gossip.restart();
                    if lose_interest {
                        self.gossip.wipe_local();
                    }
                    self.interest_changed();
                }
                NodeCmd::Inspect(tx) => {
                    let view: Vec<InterestEntry> = (0..self.gossip.node_count())
                        .map(|n| self.gossip.entry(n as NodeId).clone())
                        .collect();
                    let _ = tx.send(view);
                }
                NodeCmd::Barrier(ack) => {
                    let _ = ack.send(());
                }
                NodeCmd::Flush { peer, token } => self.answer_flush(peer, token),
                NodeCmd::Shutdown => break,
            }
        }
    }

    fn interest_changed(&self) {
        self.metrics
            .interest_entries
            .set(self.gossip.interest_entries() as i64);
    }

    /// Fan a locally-published event out: inject into the local broker
    /// (which owns intra-node delivery) and forward one frame per
    /// remote node with matching interest along its shortest path.
    fn publish(&mut self, event: &Arc<Event>) {
        let frame = wire::encode(event).freeze();
        if self.broker.inject(frame).is_err() {
            self.metrics.decode_errors.inc();
            return;
        }
        let targets = self.gossip.targets_for(&event.topic);
        for &target in targets.iter() {
            if target == self.me {
                continue;
            }
            let generation = self.gossip.entry(target).generation;
            let frame = encode_event_frame(self.me, target, 0, generation, event).freeze();
            self.metrics.inter_node_forwards.inc();
            self.send_routed(target, frame);
        }
    }

    /// Validates and dispatches a frame off a link.
    fn frame(&mut self, bytes: Bytes) {
        self.metrics.frames_in.inc();
        let Ok(parsed) = ClusterFrame::parse(&bytes) else {
            self.metrics.decode_errors.inc();
            return;
        };
        match parsed.kind() {
            FrameKind::Event => self.event_frame(&bytes, &parsed),
            FrameKind::GossipDigest => self.digest_frame(&parsed),
            FrameKind::GossipEntries => self.entries_frame(&parsed),
            // Link control is consumed by the TCP socket reader; a
            // frame of it that reaches a worker is stray input.
            FrameKind::Ack | FrameKind::Flush | FrameKind::FlushAck => {
                self.metrics.decode_errors.inc();
            }
        }
    }

    /// Everything `peer`'s link released ahead of its flush has been
    /// processed by now (one FIFO ingress), so the answer goes out. It
    /// is control, not data: the fault plane does not apply.
    fn answer_flush(&self, peer: NodeId, token: u64) {
        if let Some(Some(link)) = self.links.get(peer as usize) {
            link(encode_frame(FrameKind::FlushAck, self.me, peer, 0, token, &[]).freeze());
        }
    }

    fn event_frame(&mut self, bytes: &Bytes, parsed: &ClusterFrame<'_>) {
        if parsed.dest() == self.me {
            self.metrics
                .hop_histogram
                .record(u64::from(parsed.hops()) + 1);
            if parsed.generation() < self.gossip.local_generation() {
                self.metrics.stale_generation.inc();
            }
            // Zero-copy: the injected event frame is a subslice of the
            // cluster frame's own storage.
            if self.broker.inject(bytes.slice(CLUSTER_HEADER_LEN..)).is_err() {
                self.metrics.decode_errors.inc();
            }
            return;
        }
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

    fn digest_frame(&mut self, parsed: &ClusterFrame<'_>) {
        let Ok(digest) = gossip::decode_digest(parsed.body()) else {
            self.metrics.decode_errors.inc();
            return;
        };
        let peer = parsed.origin();
        let entries = self.gossip.entries_newer_than(&digest);
        if !entries.is_empty() {
            let mut body = pool::acquire(256);
            gossip::encode_entries_into(&entries, &mut body);
            self.send_gossip(peer, FrameKind::GossipEntries, &body);
        }
        // Pull half: answer with our own digest only while strictly
        // behind, so the exchange terminates.
        if self.gossip.behind(&digest) {
            self.send_digest(peer);
        }
    }

    fn entries_frame(&mut self, parsed: &ClusterFrame<'_>) {
        let Ok(entries) = gossip::decode_entries(parsed.body()) else {
            self.metrics.decode_errors.inc();
            return;
        };
        let applied = self.gossip.apply(&entries);
        if applied > 0 {
            self.metrics.gossip_entries_applied.add(applied as u64);
            self.interest_changed();
        }
    }

    fn tick(&mut self) {
        self.metrics.gossip_rounds.inc();
        for peer in 0..self.links.len() {
            if self
                .links
                .get(peer)
                .is_some_and(|link| link.is_some())
            {
                self.send_digest(peer as NodeId);
            }
        }
    }

    fn send_digest(&mut self, peer: NodeId) {
        self.gossip.digest_into(&mut self.digest_scratch);
        let mut body = pool::acquire(64);
        gossip::encode_digest_into(&self.digest_scratch, &mut body);
        self.send_gossip(peer, FrameKind::GossipDigest, &body);
    }

    fn send_gossip(&mut self, peer: NodeId, kind: FrameKind, body: &[u8]) {
        let generation = self.gossip.local_generation();
        let frame = encode_frame(kind, self.me, peer, 0, generation, body).freeze();
        self.send_direct(peer, frame, true);
    }

    /// Hands `frame` to the next hop along the shortest path to `dest`.
    fn send_routed(&mut self, dest: NodeId, frame: Bytes) {
        let Some(next) = self.routes.next_hop(self.me, dest) else {
            self.metrics.no_route_drops.inc();
            return;
        };
        self.send_direct(next, frame, false);
    }

    /// Sends on the direct link to `peer`, honouring the fault plane.
    fn send_direct(&mut self, peer: NodeId, frame: Bytes, is_gossip: bool) {
        if self.faults.is_down(self.me, peer) {
            self.metrics.link_drops.inc();
            return;
        }
        if is_gossip && self.faults.drops_gossip(self.me, peer) {
            self.metrics.gossip_drops.inc();
            return;
        }
        match self.links.get(peer as usize) {
            Some(Some(link)) => link(frame),
            _ => self.metrics.no_route_drops.inc(),
        }
    }
}
