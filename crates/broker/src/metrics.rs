//! Telemetry instruments for the broker hot path.
//!
//! [`BrokerMetrics`] bundles every instrument a broker node and its
//! driver report into: publish-rate counters, the fan-out width
//! histogram, route-cache hit/miss (the PR 1 fast path), driver queue
//! depth and reliable-channel retransmissions. All instruments are relaxed atomics from
//! `mmcs-telemetry`, so an instrumented warm publish stays
//! **zero-allocation and lock-free** — `tests/route_alloc.rs` and the
//! benchmark's `telemetry.metrics_overhead_ratio` hold that line.
//!
//! Instrumentation is opt-in: [`node::BrokerNode`](crate::node) carries
//! an `Option<Arc<BrokerMetrics>>` and pays one branch per publish when
//! disabled.

use std::sync::Arc;

use mmcs_telemetry::{Counter, Gauge, Histogram, Registry};

/// Shared instruments for one broker (node + driver). See the
/// [module docs](self).
#[derive(Debug)]
pub struct BrokerMetrics {
    /// Events accepted from clients or peers (publish rate numerator).
    pub events_in: Arc<Counter>,
    /// Client deliveries emitted.
    pub deliveries: Arc<Counter>,
    /// Broker-to-broker forwards emitted.
    pub forwards: Arc<Counter>,
    /// Publishes that matched no subscriber anywhere.
    pub unroutable: Arc<Counter>,
    /// Route-plan cache hits (plan reused from the memo).
    pub route_cache_hits: Arc<Counter>,
    /// Route-plan cache misses (plan rebuilt from the tables).
    pub route_cache_misses: Arc<Counter>,
    /// Fan-out width per publish (deliveries + forwards emitted).
    pub fanout: Arc<Histogram>,
    /// Driver inbound queue depth (commands accepted but not yet
    /// processed by the broker loop).
    pub queue_depth: Arc<Gauge>,
    /// Reliable-channel retransmissions attributed to this broker's
    /// clients.
    pub retransmissions: Arc<Counter>,
    /// Commands drained per worker wakeup (sharded runtime ingress
    /// batches; stays empty under the one-command-per-recv drivers).
    pub batch_size: Arc<Histogram>,
    /// Events handed to a peer shard over the sharded runtime's
    /// forwarding ring, counted at the sending (topic-owner) shard.
    pub cross_shard_forwards: Arc<Counter>,
    /// Local `(client, filter)` subscriptions in the node's table, set
    /// on every subscribe, unsubscribe and detach that changes it.
    pub subscriptions: Arc<Gauge>,
}

impl BrokerMetrics {
    /// Registers the bundle under `{prefix}_…` names (e.g. prefix
    /// `broker0` gives `broker0_events_in_total`).
    pub fn register(registry: &Registry, prefix: &str) -> Arc<Self> {
        Arc::new(Self {
            events_in: registry.counter(
                &format!("{prefix}_events_in_total"),
                "events accepted from clients or peers",
            ),
            deliveries: registry.counter(
                &format!("{prefix}_deliveries_total"),
                "client deliveries emitted",
            ),
            forwards: registry.counter(
                &format!("{prefix}_forwards_total"),
                "broker-to-broker forwards emitted",
            ),
            unroutable: registry.counter(
                &format!("{prefix}_unroutable_total"),
                "publishes that matched no subscriber",
            ),
            route_cache_hits: registry.counter(
                &format!("{prefix}_route_cache_hits_total"),
                "route-plan cache hits",
            ),
            route_cache_misses: registry.counter(
                &format!("{prefix}_route_cache_misses_total"),
                "route-plan cache misses (plan rebuilt)",
            ),
            fanout: registry.histogram(
                &format!("{prefix}_fanout_width"),
                "actions emitted per publish (deliveries + forwards)",
            ),
            queue_depth: registry.gauge(
                &format!("{prefix}_queue_depth"),
                "driver commands accepted but not yet processed",
            ),
            retransmissions: registry.counter(
                &format!("{prefix}_retransmissions_total"),
                "reliable-channel retransmissions",
            ),
            batch_size: registry.histogram(
                &format!("{prefix}_batch_size"),
                "commands drained per worker wakeup",
            ),
            cross_shard_forwards: registry.counter(
                &format!("{prefix}_cross_shard_forwards_total"),
                "events forwarded to peer shards over the ring",
            ),
            subscriptions: registry.gauge(
                &format!("{prefix}_subscriptions"),
                "local (client, filter) subscriptions",
            ),
        })
    }

    /// Creates a detached bundle (in a private registry nothing reads)
    /// for benches and tests that only need the instruments themselves.
    pub fn detached() -> Arc<Self> {
        Self::register(&Registry::new(), "detached")
    }
}

/// One [`BrokerMetrics`] bundle per worker shard of a
/// [`crate::sharded::ShardedBroker`], registered under per-shard label
/// prefixes (`{prefix}_shard{i}_…`) so queue depth, batch sizes, and
/// cross-shard forwards can be read per shard and summed across them.
#[derive(Debug)]
pub struct ShardedBrokerMetrics {
    shards: Vec<Arc<BrokerMetrics>>,
}

impl ShardedBrokerMetrics {
    /// Registers `shards` per-shard bundles under
    /// `{prefix}_shard{i}_…` names.
    pub fn register(registry: &Registry, prefix: &str, shards: usize) -> Arc<Self> {
        Arc::new(Self {
            shards: (0..shards)
                .map(|i| BrokerMetrics::register(registry, &format!("{prefix}_shard{i}")))
                .collect(),
        })
    }

    /// Creates detached per-shard bundles (see
    /// [`BrokerMetrics::detached`]) for tests and benches.
    pub fn detached(shards: usize) -> Arc<Self> {
        Arc::new(Self {
            shards: (0..shards).map(|_| BrokerMetrics::detached()).collect(),
        })
    }

    /// Number of shard bundles.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The bundle for shard `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn shard(&self, index: usize) -> &Arc<BrokerMetrics> {
        &self.shards[index]
    }

    /// Iterates the per-shard bundles in shard order.
    pub fn shards(&self) -> impl Iterator<Item = &Arc<BrokerMetrics>> {
        self.shards.iter()
    }

    /// Sums one counter across all shards (e.g.
    /// `m.total(|s| s.deliveries.get())`).
    pub fn total(&self, read: impl Fn(&BrokerMetrics) -> u64) -> u64 {
        self.shards.iter().map(|s| read(s)).sum()
    }
}

/// Instruments for one federation node's cluster layer (the gossip
/// loop plus the inter-node forwarding plane of
/// [`crate::cluster::Cluster`]). One bundle per node, registered under
/// per-node label prefixes by [`ClusterMetrics`].
#[derive(Debug)]
pub struct ClusterNodeMetrics {
    /// Gossip rounds initiated (ticks processed).
    pub gossip_rounds: Arc<Counter>,
    /// Gossip entries accepted into the interest view.
    pub gossip_entries_applied: Arc<Counter>,
    /// Current `(node, filter)` interest entries known cluster-wide.
    pub interest_entries: Arc<Gauge>,
    /// Event frames sent toward other nodes, counted at the origin.
    pub inter_node_forwards: Arc<Counter>,
    /// Event frames relayed for other nodes (multi-hop middle legs).
    pub relays: Arc<Counter>,
    /// Links traversed by each event frame accepted at its destination.
    pub hop_histogram: Arc<Histogram>,
    /// Cluster frames received (before validation).
    pub frames_in: Arc<Counter>,
    /// Frames rejected by the typed cluster/gossip/event decoders (and
    /// link acks that strayed past the TCP socket edge into a data plane).
    pub decode_errors: Arc<Counter>,
    /// Event frames routed under an interest generation older than the
    /// destination's current one (harmless — counted for observability).
    pub stale_generation: Arc<Counter>,
    /// Frames dropped at the hop-count bound (would-be forwarding loop).
    pub hop_limit_drops: Arc<Counter>,
    /// Frames dropped on an administratively-down link (chaos faults).
    pub link_drops: Arc<Counter>,
    /// Gossip frames dropped by an injected gossip-loss fault.
    pub gossip_drops: Arc<Counter>,
    /// Frames dropped for lack of any route to their destination.
    pub no_route_drops: Arc<Counter>,
    /// Duplicate frames suppressed by the TCP link-sequence dedup.
    pub duplicate_frames: Arc<Counter>,
    /// TCP link re-establishments after a connection failure.
    pub reconnects: Arc<Counter>,
    /// Direct peers this node's failure detector suspected.
    pub peers_suspected: Arc<Counter>,
    /// Suspected direct peers this node heard from again.
    pub peers_rejoined: Arc<Counter>,
    /// Event frames given up on because their path is known dead: a
    /// suspected link's unacked window, and publishes toward a node no
    /// trusted path reaches.
    pub frames_shed: Arc<Counter>,
}

impl ClusterNodeMetrics {
    /// Registers the bundle under `{prefix}_…` names.
    pub fn register(registry: &Registry, prefix: &str) -> Arc<Self> {
        Arc::new(Self {
            gossip_rounds: registry.counter(
                &format!("{prefix}_gossip_rounds_total"),
                "gossip rounds initiated",
            ),
            gossip_entries_applied: registry.counter(
                &format!("{prefix}_gossip_entries_applied_total"),
                "gossip entries accepted into the interest view",
            ),
            interest_entries: registry.gauge(
                &format!("{prefix}_interest_entries"),
                "(node, filter) interest entries currently known",
            ),
            inter_node_forwards: registry.counter(
                &format!("{prefix}_inter_node_forwards_total"),
                "event frames sent toward other nodes",
            ),
            relays: registry.counter(
                &format!("{prefix}_relays_total"),
                "event frames relayed for other nodes",
            ),
            hop_histogram: registry.histogram(
                &format!("{prefix}_hops"),
                "links traversed per delivered event frame",
            ),
            frames_in: registry.counter(
                &format!("{prefix}_frames_in_total"),
                "cluster frames received",
            ),
            decode_errors: registry.counter(
                &format!("{prefix}_decode_errors_total"),
                "frames rejected by the typed decoders",
            ),
            stale_generation: registry.counter(
                &format!("{prefix}_stale_generation_total"),
                "event frames routed under an outdated interest generation",
            ),
            hop_limit_drops: registry.counter(
                &format!("{prefix}_hop_limit_drops_total"),
                "frames dropped at the hop-count bound",
            ),
            link_drops: registry.counter(
                &format!("{prefix}_link_drops_total"),
                "frames dropped on a down link",
            ),
            gossip_drops: registry.counter(
                &format!("{prefix}_gossip_drops_total"),
                "gossip frames dropped by an injected loss fault",
            ),
            no_route_drops: registry.counter(
                &format!("{prefix}_no_route_drops_total"),
                "frames dropped for lack of a route",
            ),
            duplicate_frames: registry.counter(
                &format!("{prefix}_duplicate_frames_total"),
                "duplicates suppressed by the TCP link dedup",
            ),
            reconnects: registry.counter(
                &format!("{prefix}_reconnects_total"),
                "TCP link re-establishments",
            ),
            peers_suspected: registry.counter(
                &format!("{prefix}_peers_suspected_total"),
                "direct peers the failure detector suspected",
            ),
            peers_rejoined: registry.counter(
                &format!("{prefix}_peers_rejoined_total"),
                "suspected direct peers heard from again",
            ),
            frames_shed: registry.counter(
                &format!("{prefix}_frames_shed_total"),
                "event frames given up on because their path is known dead",
            ),
        })
    }

    /// Creates a detached bundle (in a private registry nothing reads).
    pub fn detached() -> Arc<Self> {
        Self::register(&Registry::new(), "detached")
    }
}

/// One [`ClusterNodeMetrics`] bundle per federation node, registered
/// under `{prefix}_node{i}_…` labels — the cluster counterpart of
/// [`ShardedBrokerMetrics`].
#[derive(Debug)]
pub struct ClusterMetrics {
    nodes: Vec<Arc<ClusterNodeMetrics>>,
}

impl ClusterMetrics {
    /// Registers `nodes` per-node bundles under `{prefix}_node{i}_…`.
    pub fn register(registry: &Registry, prefix: &str, nodes: usize) -> Arc<Self> {
        Arc::new(Self {
            nodes: (0..nodes)
                .map(|i| ClusterNodeMetrics::register(registry, &format!("{prefix}_node{i}")))
                .collect(),
        })
    }

    /// Creates detached per-node bundles (see
    /// [`ClusterNodeMetrics::detached`]).
    pub fn detached(nodes: usize) -> Arc<Self> {
        Arc::new(Self {
            nodes: (0..nodes).map(|_| ClusterNodeMetrics::detached()).collect(),
        })
    }

    /// Number of node bundles.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The bundle for node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node(&self, index: usize) -> &Arc<ClusterNodeMetrics> {
        &self.nodes[index]
    }

    /// Iterates the per-node bundles in node order.
    pub fn nodes(&self) -> impl Iterator<Item = &Arc<ClusterNodeMetrics>> {
        self.nodes.iter()
    }

    /// Sums one counter across all nodes (e.g.
    /// `m.total(|n| n.relays.get())`).
    pub fn total(&self, read: impl Fn(&ClusterNodeMetrics) -> u64) -> u64 {
        self.nodes.iter().map(|n| read(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_names_follow_prefix() {
        let registry = Registry::new();
        let m = BrokerMetrics::register(&registry, "broker0");
        m.events_in.inc();
        m.fanout.record(3);
        let text = registry.render_prometheus();
        assert!(text.contains("broker0_events_in_total 1"));
        assert!(text.contains("broker0_fanout_width_count 1"));
        assert!(text.contains("broker0_queue_depth 0"));
        assert!(text.contains("broker0_batch_size_count 0"));
        assert!(text.contains("broker0_cross_shard_forwards_total 0"));
    }

    #[test]
    fn sharded_bundle_registers_per_shard_labels() {
        let registry = Registry::new();
        let m = ShardedBrokerMetrics::register(&registry, "b", 3);
        assert_eq!(m.shard_count(), 3);
        m.shard(0).events_in.add(2);
        m.shard(2).events_in.add(5);
        m.shard(1).cross_shard_forwards.inc();
        m.shard(1).batch_size.record(8);
        assert_eq!(m.total(|s| s.events_in.get()), 7);
        assert_eq!(m.total(|s| s.cross_shard_forwards.get()), 1);
        let text = registry.render_prometheus();
        assert!(text.contains("b_shard0_events_in_total 2"));
        assert!(text.contains("b_shard2_events_in_total 5"));
        assert!(text.contains("b_shard1_cross_shard_forwards_total 1"));
        assert!(text.contains("b_shard1_batch_size_count 1"));
        assert_eq!(m.shards().count(), 3);
    }

    #[test]
    fn cluster_bundle_registers_per_node_labels() {
        let registry = Registry::new();
        let m = ClusterMetrics::register(&registry, "fed", 2);
        assert_eq!(m.node_count(), 2);
        m.node(0).gossip_rounds.inc();
        m.node(1).inter_node_forwards.add(3);
        m.node(1).hop_histogram.record(2);
        m.node(0).interest_entries.set(5);
        assert_eq!(m.total(|n| n.inter_node_forwards.get()), 3);
        let text = registry.render_prometheus();
        assert!(text.contains("fed_node0_gossip_rounds_total 1"));
        assert!(text.contains("fed_node1_inter_node_forwards_total 3"));
        assert!(text.contains("fed_node1_hops_count 1"));
        assert!(text.contains("fed_node0_interest_entries 5"));
        assert_eq!(m.nodes().count(), 2);
    }
}
