//! Broker federation: N sharded broker nodes joined into one cluster.
//!
//! This is the paper's NaradaBrokering layout one level up from
//! [`crate::sharded`]: each **node** runs a whole [`ShardedBroker`]
//! (one process worth of cores), nodes exchange subscription interest
//! via the anti-entropy gossip of [`crate::gossip`], and events cross
//! nodes as [`ClusterFrame`]s — a 16-byte envelope around the PR-6
//! zero-copy [`crate::wire`] event frame. Clients are homed to the
//! nearest **zone gateway** by a static [`LatencyMap`] and stay there,
//! the way the paper homes a client on one broker; inter-node
//! routing follows latency-weighted shortest paths ([`RouteTable`],
//! Floyd–Warshall over the same map, minus the links a failure detector
//! suspects) with a hard hop bound ([`MAX_HOPS`]) so no forwarding loop
//! can survive.
//!
//! # Data path
//!
//! Each node is one **data plane**, which any thread calls; no node
//! owns a thread. Every frame — event or gossip — is handled on the
//! thread that receives it, and a gossip round runs on the thread that
//! calls [`Cluster::gossip_round`].
//!
//! A publish runs on the publishing client's own thread. It enters the
//! home node's sharded broker as that client's publish (local
//! deliveries plus the intra-node ring hop), and is then forwarded once
//! per *interested* node — the gossip view answers "who needs this
//! topic" from a generation-stamped cache — as an `Event` frame routed
//! hop-by-hop along the latency-weighted path. The publishing thread
//! encodes nothing: it hands the event's `Arc` to the next-hop link,
//! and the link encodes the frame — over TCP on the link thread,
//! straight into its socket buffer. Whoever receives a frame — a socket
//! reader, or the sending thread itself in process — hands it to the
//! receiving node's data plane: an intermediate node relays
//! it with the hop count bumped, the destination decodes the embedded
//! wire event once and injects the `Arc<Event>` into its broker
//! ([`ShardedBroker::inject`]). Each (publish, destination) pair
//! produces exactly one frame, and every
//! node delivers only to its local subscribers, so cluster-wide
//! delivery is exactly-once. Subscribes, unsubscribes and restarts
//! update the node's interest on the caller's thread too, so a frame
//! caused by a later publish always finds them. A gossip digest is
//! answered, and gossip entries applied, where the frame lands; in
//! process a round's whole push/pull exchange therefore runs on the
//! caller's thread, in node order, and is deterministic.
//!
//! # Transports
//!
//! Both link fabrics feed the same data plane:
//!
//! * **in-process** — a link is a handle on the peer's data plane; and
//! * **loopback TCP** ([`ClusterBuilder::tcp`]) — length-prefixed
//!   records over real sockets; event frames ride [`crate::reliable`]
//!   (sequence numbers, cumulative acks, RTO retransmit, dedup) and
//!   links reconnect with capped exponential backoff, so a node kill
//!   mid-stream still yields exactly-once delivery after the listener
//!   returns — unless the outage outlasts the failure detector, which
//!   sheds what the link held. [`Cluster::quiesce`] settles it with a link-level flush
//!   that rides the same sequence, never with a pause.
//!
//! Both honour one fault plane (down links, gossip loss), which the chaos
//! harness toggles at quiesce points; a seed delivers the same on both.
//!
//! # Failure detection
//!
//! Each node watches its direct peers with a failure detector clocked
//! in gossip rounds (`liveness.rs`). Every data frame a peer sends — an
//! event or gossip — marks it heard, with one relaxed store on the
//! receive path; link control (acks, flushes, a connection preamble)
//! does not. A round sends every peer a digest, so an idle link still
//! beats, and a down link ([`Cluster::set_link_down`], [`Cluster::crash`])
//! carries no data frame, so on both transports a peer across it goes
//! unheard. [`Cluster::gossip_round`] settles the round's digests and
//! then asks each node's detector: a peer unheard for [`SUSPECT_AFTER`]
//! rounds is suspected, a suspected one heard again rejoins. A verdict
//! rewrites the shared [`RouteTable`] in place around every suspected
//! link, so traffic takes a detour where one exists, and a publish
//! toward a node no trusted path reaches is shed at its source. A
//! suspicion also sheds the TCP link's unacked window instead of
//! retransmitting it into a dead peer, and a rejoin restarts gossip with
//! the peer and flushes the links before traffic resumes on the old
//! path. In process the verdicts are a pure function of the operation
//! sequence.
//!
//! Malformed frames at either edge are rejected by typed decode
//! errors ([`DecodeClusterError`]) and counted in telemetry — never
//! panicked on: the data plane's publish and frame entries, the
//! detector's round, the link sender and the socket reader are in the
//! analyzer's panic-reachability root set.

mod frame;
mod liveness;
mod plane;
mod route;
mod tcp;

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use mmcs_util::id::ClientId;

use crate::event::{Event, EventClass};
use crate::gossip::{GossipState, InterestEntry, NodeId};
use crate::metrics::ClusterMetrics;
use crate::sharded::{quiesce_all, ShardedBroker, ShardedClient};
use crate::topic::{Topic, TopicFilter};

pub use frame::{
    encode_event_frame, encode_event_frame_into, encode_frame, encode_header_into, ClusterFrame,
    DecodeClusterError, FrameKind, CLUSTER_HEADER_LEN, CLUSTER_VERSION, MAX_HOPS, OFF_DEST,
    OFF_GENERATION, OFF_HOPS, OFF_KIND, OFF_ORIGIN, OFF_RESERVED, OFF_VERSION,
};
pub use liveness::SUSPECT_AFTER;
pub use route::{LatencyMap, RouteTable};

use frame::LinkFrame;
use liveness::Verdict;
use plane::{DataPlane, FaultPlane, Link};
use tcp::TcpFabric;

/// Configures a [`Cluster`] before spawning it.
pub struct ClusterBuilder {
    latency: LatencyMap,
    shards: usize,
    metrics: Option<Arc<ClusterMetrics>>,
    tcp: bool,
}

impl ClusterBuilder {
    /// Starts configuring a cluster over `latency`'s topology with one
    /// shard per node broker.
    pub fn new(latency: LatencyMap) -> Self {
        Self {
            latency,
            shards: 1,
            metrics: None,
            tcp: false,
        }
    }

    /// Worker shards inside each node's broker.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Installs per-node telemetry; the bundle's node count must match
    /// the latency map's.
    pub fn metrics(mut self, metrics: Arc<ClusterMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Runs inter-node links over real loopback TCP sockets instead of
    /// in-process channels.
    pub fn tcp(mut self) -> Self {
        self.tcp = true;
        self
    }

    /// Spawns each node's broker (and, for TCP, listeners and links).
    ///
    /// # Panics
    ///
    /// Panics if an installed metrics bundle's node count mismatches
    /// the map, or if a TCP listener cannot bind on 127.0.0.1.
    pub fn spawn(self) -> Cluster {
        let n = self.latency.node_count();
        let metrics = self.metrics.unwrap_or_else(|| ClusterMetrics::detached(n));
        assert!(
            metrics.node_count() == n,
            "metrics bundle has {} nodes, cluster has {n}",
            metrics.node_count()
        );
        let faults = Arc::new(FaultPlane::new(n));
        let routes = Arc::new(RouteTable::new(&self.latency));
        let planes: Vec<Arc<DataPlane>> = (0..n)
            .map(|me| {
                let me = me as NodeId;
                let neighbours = (0..n as NodeId).filter(|&peer| self.latency.link(me, peer).is_some());
                Arc::new(DataPlane::new(
                    me,
                    n,
                    neighbours,
                    Arc::new(ShardedBroker::spawn(self.shards)),
                    Arc::clone(&routes),
                    Arc::clone(&faults),
                    Arc::clone(metrics.node(me as usize)),
                ))
            })
            .collect();
        let tcp = self
            .tcp
            .then(|| TcpFabric::spawn(&self.latency, &planes));
        if tcp.is_none() {
            for (me, plane) in planes.iter().enumerate() {
                let links = (0..n)
                    .map(|peer| {
                        let me = me as NodeId;
                        self.latency.link(me, peer as NodeId)?;
                        // Weak: the planes would otherwise own each other.
                        let peer = Arc::downgrade(&planes[peer]);
                        Some(Box::new(move |frame: LinkFrame| {
                            if let Some(peer) = peer.upgrade() {
                                peer.receive(me, frame.into_bytes());
                            }
                        }) as Link)
                    })
                    .collect();
                plane.set_links(links);
            }
        }
        Cluster {
            shared: Arc::new(ClusterShared {
                latency: self.latency,
                routes,
                metrics,
                faults,
                planes,
                next_client: AtomicU64::new(1),
            }),
            tcp,
        }
    }
}

/// One federation cluster: `n` nodes, each a [`ShardedBroker`] behind a
/// data plane, joined by gossip and the routed event plane. See the
/// [module docs](self).
pub struct Cluster {
    shared: Arc<ClusterShared>,
    /// The socket fabric; `Some` on the loopback-TCP transport.
    tcp: Option<TcpFabric>,
}

struct ClusterShared {
    latency: LatencyMap,
    routes: Arc<RouteTable>,
    metrics: Arc<ClusterMetrics>,
    faults: Arc<FaultPlane>,
    planes: Vec<Arc<DataPlane>>,
    next_client: AtomicU64,
}

impl ClusterShared {
    /// Node `node`'s data plane (`None` only for an id out of range).
    fn plane(&self, node: NodeId) -> Option<&DataPlane> {
        self.planes.get(node as usize).map(Arc::as_ref)
    }

    /// Runs `change` on `node`'s gossip state (see
    /// [`DataPlane::change_interest`]).
    fn change_interest(&self, node: NodeId, change: impl FnOnce(&mut GossipState)) {
        if let Some(plane) = self.plane(node) {
            plane.change_interest(change);
        }
    }
}

impl Cluster {
    /// Spawns an in-process cluster over `latency` with single-shard
    /// node brokers — the common test configuration.
    pub fn spawn(latency: LatencyMap) -> Cluster {
        ClusterBuilder::new(latency).spawn()
    }

    /// Starts configuring a cluster.
    pub fn builder(latency: LatencyMap) -> ClusterBuilder {
        ClusterBuilder::new(latency)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.shared.planes.len()
    }

    /// The per-node telemetry bundles.
    pub fn metrics(&self) -> &Arc<ClusterMetrics> {
        &self.shared.metrics
    }

    /// The route table: shortest paths over the links no failure
    /// detector suspects.
    pub fn routes(&self) -> &RouteTable {
        &self.shared.routes
    }

    /// The latency map this cluster was built from.
    pub fn latency(&self) -> &LatencyMap {
        &self.shared.latency
    }

    /// Node `index`'s inner broker (tests peek at shard placement).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn broker(&self, index: usize) -> &Arc<ShardedBroker> {
        &self.shared.planes[index].broker
    }

    /// Attaches a client homed to `zone`'s nearest gateway node, where it
    /// stays. Client ids are allocated at cluster scope, so they are
    /// unique across nodes.
    pub fn attach(&self, zone: usize) -> ClusterClient {
        let id = ClientId::from_raw(self.shared.next_client.fetch_add(1, Ordering::Relaxed));
        let node = self.shared.latency.home_node(zone);
        let plane = Arc::clone(&self.shared.planes[node as usize]);
        ClusterClient {
            inner: plane.broker.attach_as(id),
            plane,
            zone,
        }
    }

    /// Waits until everything published, subscribed or gossiped before
    /// this call — including multi-hop relays and intra-node ring
    /// forwards it generates — has been processed. A round is the same
    /// on both transports: flush every link, then barrier every node's
    /// broker, all shards of all nodes on one latch per barrier round.
    /// The call returns after the first round in which no data plane
    /// handed a link a frame; one round carries a frame one link hop,
    /// so `max(n,2)+2` rounds — the longest relay chain plus the gossip
    /// push-pull depth — stay the cap.
    ///
    /// In process a link *is* a call into the peer's data plane: an
    /// event has been injected (or relayed), and gossip answered or
    /// applied, by the time the send returns, so there is nothing to
    /// flush and the first round is quiet. Over TCP the flush is a
    /// protocol exchange on every directed link (see `cluster/tcp.rs`):
    /// it returns because the peer's socket reader has handled every
    /// frame the link carried before it — injected into its broker,
    /// handed to its next link, or gossip answered or applied — not
    /// because time has passed, and the same round's broker barriers
    /// drain what was injected. A relay or a gossip answer is handed on,
    /// and counted, before the flush behind the frame that caused it is
    /// answered, so a round that counts nothing new has left nothing on
    /// any link for a next round to flush. A link with nothing
    /// connected — a dropped listener at either end — is not waited
    /// for, so the call stays bounded and frames parked behind that
    /// link stay in flight until it reconnects. After
    /// [`Cluster::shutdown`] the readers still answer flushes and the
    /// closed brokers quiesce at once, so the call still returns.
    pub fn quiesce(&self) {
        let planes = &self.shared.planes;
        let sent = || planes.iter().map(|plane| plane.frames_sent()).sum::<u64>();
        let mut before = sent();
        for _ in 0..self.node_count().max(2) + 2 {
            if let Some(fabric) = &self.tcp {
                fabric.flush_links();
            }
            quiesce_all(planes.iter().map(|plane| plane.broker.as_ref()));
            let after = sent();
            if after == before {
                return;
            }
            before = after;
        }
    }

    /// Runs one gossip round — every node, in order, sends a digest to
    /// each direct peer — and settles it; then every node's failure
    /// detector judges which peers it heard since the last round, and
    /// the cluster acts on the verdicts. A live peer's digest of this
    /// very round has landed by then, so a peer that is back is trusted
    /// again after one round. The settle is [`Cluster::quiesce`], which
    /// runs only as many flush rounds as the push-pull exchange keeps
    /// sending: in process one, over TCP one more than the exchange's
    /// depth.
    pub fn gossip_round(&self) {
        for plane in &self.shared.planes {
            plane.tick();
        }
        self.quiesce();
        let mut changes = Vec::new();
        for plane in &self.shared.planes {
            changes.extend(plane.detect().into_iter().map(|verdict| match verdict {
                Verdict::Suspected(peer) => (plane.me, peer, true),
                Verdict::Rejoined(peer) => (plane.me, peer, false),
            }));
        }
        if !changes.is_empty() {
            self.reroute(&changes);
        }
    }

    /// Acts on one round's verdicts, `(node, peer, suspected)`. A rejoin
    /// restarts gossip with the peer and flushes every link, so what the
    /// detours still carry lands before traffic resumes on the old path.
    /// Then every plane's routes are rewritten around the links still
    /// suspected, and a newly suspected link sheds its unacked window
    /// instead of retransmitting it into the dead peer.
    fn reroute(&self, changes: &[(NodeId, NodeId, bool)]) {
        let mut rejoined = false;
        for &(node, peer, suspected) in changes {
            if let (false, Some(plane)) = (suspected, self.shared.plane(node)) {
                plane.send_digest(peer);
                rejoined = true;
            }
        }
        if let (true, Some(fabric)) = (rejoined, &self.tcp) {
            fabric.flush_links();
        }
        self.shared.routes.set_suspected(changes);
        for &(node, peer, suspected) in changes {
            if let (true, Some(fabric)) = (suspected, &self.tcp) {
                fabric.shed_link(node, peer);
            }
        }
    }

    /// Snapshots node `index`'s gossip view: one [`InterestEntry`] per
    /// node, entry `index` being its local truth (empty for an index out
    /// of range).
    pub fn snapshot(&self, index: usize) -> Vec<InterestEntry> {
        self.shared
            .planes
            .get(index)
            .map_or_else(Vec::new, |plane| plane.view())
    }

    /// Whether the cluster has healed: every failure detector trusts
    /// all of its direct peers, and every node's view of every other
    /// node matches that node's local truth — the gossip convergence
    /// invariant.
    pub fn converged(&self) -> bool {
        if !self.shared.planes.iter().all(|plane| plane.trusts_all()) {
            return false;
        }
        let n = self.node_count();
        let snapshots: Vec<Vec<InterestEntry>> = (0..n).map(|i| self.snapshot(i)).collect();
        for (holder, view) in snapshots.iter().enumerate() {
            if view.len() != n {
                return false;
            }
            for (subject, entry) in view.iter().enumerate() {
                let truth = snapshots
                    .get(subject)
                    .and_then(|view| view.get(subject));
                if truth != Some(entry) && holder != subject {
                    return false;
                }
            }
        }
        true
    }

    /// Gossips until [`Cluster::converged`] or `max_rounds` is spent;
    /// returns whether convergence was reached.
    pub fn converge(&self, max_rounds: usize) -> bool {
        for _ in 0..max_rounds {
            if self.converged() {
                return true;
            }
            self.gossip_round();
        }
        self.converged()
    }

    /// Severs or restores the symmetric link `a ↔ b`. A down link drops
    /// (and counts) every data frame sent on it, and over TCP a quiesce
    /// does not flush it, so neither end's failure detector hears the
    /// other: the same on both transports.
    pub fn set_link_down(&self, a: NodeId, b: NodeId, down: bool) {
        self.shared.faults.set_down(a, b, down);
    }

    /// Drops (or stops dropping) gossip frames on the symmetric link
    /// `a ↔ b` while event frames keep flowing — the gossip-loss
    /// chaos fault.
    pub fn set_gossip_loss(&self, a: NodeId, b: NodeId, on: bool) {
        self.shared.faults.set_gossip_loss(a, b, on);
    }

    /// Crashes node `index`'s gateway: every link to and from it drops
    /// frames until [`Cluster::restart`].
    pub fn crash(&self, index: NodeId) {
        for peer in (0..self.node_count() as u16).filter(|peer| *peer != index) {
            self.set_link_down(index, peer, true);
        }
    }

    /// Restores node `index` after [`Cluster::crash`]: links come back
    /// and the node's gossip view restarts empty (its local truth
    /// survives unless `lose_interest` injects the resync bug the
    /// chaos harness hunts for).
    pub fn restart(&self, index: NodeId, lose_interest: bool) {
        for peer in (0..self.node_count() as u16).filter(|peer| *peer != index) {
            self.set_link_down(index, peer, false);
        }
        self.shared.change_interest(index, |gossip| {
            gossip.restart();
            if lose_interest {
                gossip.wipe_local();
            }
        });
    }

    /// The loopback address node `index`'s listener is bound on, or
    /// `None` on the in-process transport (or out-of-range index).
    pub fn listener_addr(&self, index: usize) -> Option<SocketAddr> {
        Some(self.tcp.as_ref()?.nodes.get(index)?.addr)
    }

    /// Drops node `index`'s TCP listener and shuts every accepted
    /// connection — the mid-stream kill of the reconnect test. No-op
    /// on the in-process transport.
    pub fn drop_listener(&mut self, index: usize) {
        if let Some(node) = self.tcp.as_mut().and_then(|tcp| tcp.nodes.get_mut(index)) {
            node.stop();
        }
    }

    /// Rebinds node `index`'s listener on its original address and
    /// resumes accepting; peers' links reconnect with backoff and
    /// retransmit their unacked frames.
    ///
    /// # Panics
    ///
    /// Panics if the original address cannot be rebound after retries.
    pub fn restore_listener(&mut self, index: usize) {
        if let Some(node) = self.tcp.as_mut().and_then(|tcp| tcp.nodes.get_mut(index)) {
            node.restore();
        }
    }

    /// Stops every node broker (idempotent). A socket reader blocked on
    /// a full shard ingress is released by the broker's shutdown.
    pub fn shutdown(&self) {
        for plane in &self.shared.planes {
            plane.broker.shutdown();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
        // The TCP fabric, if any, tears itself down as the field drops.
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.node_count())
            .field("tcp", &self.tcp.is_some())
            .finish_non_exhaustive()
    }
}

/// A client of the federation: homed on the zone gateway it attached
/// at, for its whole life, publishing and receiving through that node.
pub struct ClusterClient {
    /// The client on its gateway's broker, which holds its filter list.
    inner: ShardedClient,
    /// The gateway's data plane.
    plane: Arc<DataPlane>,
    zone: usize,
}

impl ClusterClient {
    /// This client's cluster-unique id.
    pub fn id(&self) -> ClientId {
        self.inner.id()
    }

    /// The node homing this client.
    pub fn node(&self) -> NodeId {
        self.plane.me
    }

    /// The zone this client attached from.
    pub fn zone(&self) -> usize {
        self.zone
    }

    /// Subscribes to `filter`: locally on the home node's broker, and
    /// cluster-wide via the gossip interest plane. Duplicate
    /// subscriptions are a no-op, mirroring [`crate::node::BrokerNode`].
    pub fn subscribe(&self, filter: TopicFilter) {
        if self.inner.change_filter(filter.clone(), true) {
            self.plane.change_interest(|gossip| gossip.subscribe(&filter));
        }
    }

    /// Removes one subscription; a filter this client does not hold is
    /// a no-op.
    pub fn unsubscribe(&self, filter: &TopicFilter) {
        if self.inner.change_filter(filter.clone(), false) {
            self.plane.change_interest(|gossip| gossip.unsubscribe(filter));
        }
    }

    /// Publishes a data event through the home gateway.
    pub fn publish(&self, topic: Topic, payload: Bytes) {
        self.publish_class(topic, EventClass::Data, payload);
    }

    /// Publishes with an explicit class, on the calling thread: into the
    /// home node's broker as this client's publish, then one frame per
    /// interested remote node.
    pub fn publish_class(&self, topic: Topic, class: EventClass, payload: Bytes) {
        let event = self.inner.next_event(topic, class, payload);
        self.inner.publish_shared(Arc::clone(&event));
        self.plane.publish(&event);
    }

    /// Receives the next delivered event, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arc<Event>> {
        self.inner.recv_timeout(timeout)
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<Arc<Event>> {
        self.inner.try_recv()
    }

    /// Drains everything currently delivered into `sink`; returns how
    /// many events were appended.
    pub fn drain_into(&self, sink: &mut Vec<Arc<Event>>) -> usize {
        self.inner.drain_into(sink)
    }
}

impl Drop for ClusterClient {
    /// Withdraws the client's filters from its gateway's gossip interest.
    fn drop(&mut self) {
        let filters = self.inner.detach_filters();
        self.plane.change_interest(|gossip| {
            for filter in &filters {
                gossip.unsubscribe(filter);
            }
        });
    }
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("id", &self.id())
            .field("node", &self.node())
            .field("zone", &self.zone)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic(s: &str) -> Topic {
        Topic::parse(s).expect("valid topic")
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::parse(s).expect("valid filter")
    }

    #[test]
    fn a_stray_link_ack_is_counted_and_dropped_by_the_data_plane() {
        let cluster = Cluster::spawn(LatencyMap::full_mesh(2, 5));
        let ack = encode_frame(FrameKind::Ack, 1, 0, 0, 7, &[]).freeze();
        cluster.shared.planes[0].receive(1, ack);
        cluster.quiesce();
        assert_eq!(cluster.metrics().node(0).decode_errors.get(), 1);
        assert_eq!(cluster.metrics().node(0).frames_in.get(), 1);
    }

    #[test]
    fn malformed_frames_are_counted_not_crashed_on() {
        let cluster = Cluster::spawn(LatencyMap::full_mesh(2, 5));
        // Hand node 0 garbage the way a link would.
        for garbage in [
            &b"garbage"[..],
            &encode_frame(FrameKind::GossipDigest, 1, 0, 0, 0, b"x"),
        ] {
            cluster.shared.planes[0].receive(1, Bytes::copy_from_slice(garbage));
        }
        cluster.quiesce();
        assert_eq!(cluster.metrics().node(0).decode_errors.get(), 2);
        // Node survived: a real publish still flows.
        let client = cluster.attach(0);
        client.subscribe(filter("t/#"));
        cluster.converge(8);
        client.publish(topic("t/x"), Bytes::from_static(b"ok"));
        cluster.quiesce();
        let mut got = Vec::new();
        client.drain_into(&mut got);
        assert_eq!(got.len(), 1);
    }
}
