//! One federation node, split in two. The **data plane**
//! ([`DataPlane`]) is what any thread calls: a publishing client fans
//! its event out through it, and a link hands it every frame it
//! receives. The **control loop** ([`ClusterWorker`]) keeps what must be
//! serialised per node — the gossip exchange, barriers and snapshots —
//! and never sees an event. Also here: the directed links both send on
//! ([`Link`]) and the in-process fault switches ([`FaultPlane`]).
//! Transport-blind: link-level reliability (sequencing, acks,
//! retransmit) never reaches this file.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use mmcs_util::pool;
use parking_lot::Mutex;

use super::frame::{
    encode_event_frame, encode_frame, ClusterFrame, FrameKind, CLUSTER_HEADER_LEN, MAX_HOPS,
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

/// Commands into one node's control loop.
pub(super) enum NodeCmd {
    /// A peer's gossip digest, decoded off a link by the data plane.
    Digest {
        peer: NodeId,
        digest: Vec<(NodeId, u64)>,
    },
    /// Gossip entries, decoded off a link by the data plane.
    Entries(Vec<(NodeId, InterestEntry)>),
    /// Start one gossip round: digest to every direct peer.
    GossipTick,
    /// Snapshot the gossip view (one entry per node).
    Inspect(Sender<Vec<InterestEntry>>),
    /// Ack once everything queued ahead of this command is handled.
    Barrier(Sender<()>),
    Shutdown,
}

/// A directed link to one peer: hands a frame to the peer's data plane
/// (in-process) or to a TCP link sender's queue. Any thread may send.
pub(super) type Link = Box<dyn Fn(Bytes) + Send + Sync>;

/// One node's data plane: its broker, its gossip state and its links,
/// called on whatever thread has an event to move — the publishing
/// client's, a socket reader's, an in-process peer's. The gossip lock
/// is taken briefly and never held across a link send or an inject, so
/// a chain of in-process hops never nests two nodes' locks.
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
    /// This node's control loop: gossip off a link is queued here.
    pub(super) control: Sender<NodeCmd>,
}

impl DataPlane {
    pub(super) fn new(
        me: NodeId,
        nodes: usize,
        broker: Arc<ShardedBroker>,
        routes: Arc<RouteTable>,
        faults: Arc<FaultPlane>,
        metrics: Arc<ClusterNodeMetrics>,
        control: Sender<NodeCmd>,
    ) -> Self {
        Self {
            me,
            broker,
            gossip: Mutex::new(GossipState::new(me, nodes)),
            links: OnceLock::new(),
            routes,
            faults,
            metrics,
            control,
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
    /// event for this node is injected into its broker, one for another
    /// node is relayed toward it, gossip goes to the control loop. Link
    /// control belongs to the TCP socket reader; a frame of it that gets
    /// here is stray input.
    pub(super) fn on_frame(&self, frame: &Bytes, parsed: &ClusterFrame<'_>) {
        self.metrics.frames_in.inc();
        match parsed.kind() {
            FrameKind::Event if parsed.dest() == self.me => self.arrive(frame, parsed),
            FrameKind::Event => self.relay(parsed),
            FrameKind::GossipDigest => match gossip::decode_digest(parsed.body()) {
                Ok(digest) => {
                    let peer = parsed.origin();
                    let _ = self.control.send(NodeCmd::Digest { peer, digest });
                }
                Err(_) => self.metrics.decode_errors.inc(),
            },
            FrameKind::GossipEntries => match gossip::decode_entries(parsed.body()) {
                Ok(entries) => {
                    let _ = self.control.send(NodeCmd::Entries(entries));
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
        // Zero-copy: the injected event frame is a subslice of the
        // cluster frame's own storage.
        if self
            .broker
            .inject(frame.slice(CLUSTER_HEADER_LEN..))
            .is_err()
        {
            self.metrics.decode_errors.inc();
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

/// One node's control loop: drains its queue and runs the gossip
/// exchange. This is the federation loop in the analyzer's
/// panic-reachability and blocking-call root sets: everything reachable
/// from [`ClusterWorker::run`] must be panic-free and non-blocking (the
/// sanctioned ingress `recv` aside).
pub(super) struct ClusterWorker {
    pub(super) plane: Arc<DataPlane>,
    pub(super) ingress: Receiver<NodeCmd>,
    pub(super) digest_scratch: Vec<(NodeId, u64)>,
}

impl ClusterWorker {
    pub(super) fn run(mut self) {
        while let Ok(cmd) = self.ingress.recv() {
            match cmd {
                NodeCmd::Digest { peer, digest } => self.digest(peer, &digest),
                NodeCmd::Entries(entries) => {
                    let applied = self.plane.change_interest(|gossip| gossip.apply(&entries));
                    if applied > 0 {
                        self.plane
                            .metrics
                            .gossip_entries_applied
                            .add(applied as u64);
                    }
                }
                NodeCmd::GossipTick => self.tick(),
                NodeCmd::Inspect(tx) => {
                    let view: Vec<InterestEntry> = {
                        let gossip = self.plane.gossip.lock();
                        (0..gossip.node_count())
                            .map(|n| gossip.entry(n as NodeId).clone())
                            .collect()
                    };
                    let _ = tx.send(view);
                }
                NodeCmd::Barrier(ack) => {
                    let _ = ack.send(());
                }
                NodeCmd::Shutdown => break,
            }
        }
    }

    /// Push half: send `peer` the entries it is missing. Pull half:
    /// answer with our own digest only while strictly behind, so the
    /// exchange terminates.
    fn digest(&mut self, peer: NodeId, digest: &[(NodeId, u64)]) {
        let (entries, behind) = {
            let gossip = self.plane.gossip.lock();
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

    fn tick(&mut self) {
        let plane = Arc::clone(&self.plane);
        plane.metrics.gossip_rounds.inc();
        for (peer, link) in plane.links().iter().enumerate() {
            if link.is_some() {
                self.send_digest(peer as NodeId);
            }
        }
    }

    fn send_digest(&mut self, peer: NodeId) {
        self.plane
            .gossip
            .lock()
            .digest_into(&mut self.digest_scratch);
        let mut body = pool::acquire(64);
        gossip::encode_digest_into(&self.digest_scratch, &mut body);
        self.send_gossip(peer, FrameKind::GossipDigest, &body);
    }

    fn send_gossip(&self, peer: NodeId, kind: FrameKind, body: &[u8]) {
        let generation = self.plane.gossip.lock().local_generation();
        let frame = encode_frame(kind, self.plane.me, peer, 0, generation, body).freeze();
        self.plane.send_direct(peer, frame, true);
    }
}
