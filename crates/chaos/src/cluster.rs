//! Seeded chaos for the federation runtime.
//!
//! Drives a **real** [`Cluster`] — live sharded node brokers, gossip
//! interest exchange, multi-hop frame routing, failure detection — with
//! a deterministic, seed-derived schedule of subscription flapping,
//! publish bursts, and federation faults: node
//! crashes, zone partitions (severed links), and gossip loss (interest
//! frames dropped while events still flow). Every fault toggle is
//! preceded by a cluster quiesce, and a gossip round runs on the calling
//! thread, so even though the shard workers, link threads and socket
//! readers are real threads the delivery outcome of a seed is
//! deterministic.
//!
//! Each seed runs twice: once in process and once over loopback TCP
//! ([`Transport`]). The TCP run is the determinism check: both runs must
//! hold every invariant and deliver the same multiset, so their FNV
//! fingerprints are equal.
//!
//! The schedule ends with a **heal**: every partition lifted, every
//! crashed node restarted, gossip run to convergence. On the
//! chain-plus-chord map ([`Topology::ChainChord`]) node 2 may be left
//! crashed: the heal then runs its full round budget, so the failure
//! detectors suspect node 2 and the routes take the chord around it.
//! Then a probe batch publishes from every client, and the probe
//! delivery multiset is compared against the single-loop [`Oracle`] —
//! with a node left crashed, only the deliveries whose publisher and
//! subscriber are on the same side of it. Invariants checked per run:
//!
//! 1. post-heal convergence (every failure detector trusts its peers,
//!    and every node's view of every other node matches that node's
//!    local truth; with a node left crashed, among the others),
//! 2. probe deliveries exactly equal the oracle multiset — exactly-once
//!    across the inter-node hop, nothing lost after heal,
//! 3. no duplicate delivery anywhere in the run (chaos window
//!    included),
//! 4. per-(receiver, source, topic) sequence monotonicity,
//! 5. hop counts bounded: zero hop-limit drops and no delivery
//!    travelling more links than the longest shortest path,
//! 6. no frame decode error.
//!
//! `--inject-bug` restarts crashed nodes with their local interest
//! truth wiped ([`lose_interest`]): generations go backwards, peers
//! never re-accept the node's adverts, and invariants 1–2 catch it —
//! the ddmin shrinker then reduces the schedule to the guilty crash.
//!
//! [`lose_interest`]: Cluster::restart

use std::collections::BTreeSet;

use bytes::Bytes;
use mmcs_broker::cluster::{Cluster, ClusterClient, LatencyMap};
use mmcs_broker::metrics::ClusterMetrics;
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_telemetry::Registry;
use mmcs_util::rng::DetRng;

use crate::oracle::{fingerprint, Delivery, Oracle, Recorder};
use crate::sharded::{random_filter, random_topic};
use crate::shrink::ddmin;

/// The link map of a cluster chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Every pair of nodes directly linked.
    Mesh,
    /// Nodes in a line: multi-hop relays, no detours.
    Chain,
    /// The four-node chain `0–1–2–3` at 5 ms plus a 20 ms chord `1–3`:
    /// paths to 3 run through 2 until node 2 is suspected, then over
    /// the chord. A schedule that ends with [`CHORD_BYPASSED`] crashed
    /// leaves it crashed through the heal and the probe.
    ChainChord,
}

/// The node the chain-plus-chord map can route around.
pub const CHORD_BYPASSED: usize = 2;

/// Parameters of one cluster chaos run, all derived from the seed.
#[derive(Debug, Clone)]
pub struct ClusterChaosConfig {
    /// The seed everything derives from.
    pub seed: u64,
    /// Federation size (2–4 by default, 4 on the chain-plus-chord map).
    pub nodes: usize,
    /// The link map.
    pub topology: Topology,
    /// Operations in the schedule.
    pub ops: usize,
    /// Clients attached before the schedule starts.
    pub clients: usize,
    /// Probe publishes per client after the heal.
    pub probes: usize,
    /// Restart crashed nodes with their local interest truth wiped —
    /// the injected resync bug the invariants must catch.
    pub lose_interest_on_restart: bool,
}

impl ClusterChaosConfig {
    /// The canonical configuration for a seed: seeds `5k + 3` run the
    /// chain-plus-chord map and may leave node 2 crashed; of the rest,
    /// the node count cycles 2–4, odd seeds run the chain topology (real
    /// multi-hop relays) and even seeds the full mesh.
    pub fn for_seed(seed: u64) -> Self {
        let chord = seed % 5 == 3;
        Self {
            seed,
            nodes: if chord { 4 } else { 2 + (seed % 3) as usize },
            topology: match (chord, seed % 2) {
                (true, _) => Topology::ChainChord,
                (false, 1) => Topology::Chain,
                (false, _) => Topology::Mesh,
            },
            ops: 80,
            clients: 4,
            probes: 2,
            lose_interest_on_restart: false,
        }
    }

    /// The latency map this configuration builds.
    pub fn latency(&self) -> LatencyMap {
        match self.topology {
            Topology::Mesh => LatencyMap::full_mesh(self.nodes, 5),
            Topology::Chain => LatencyMap::chain(self.nodes, 5),
            Topology::ChainChord => {
                let mut map = LatencyMap::chain(self.nodes, 5);
                map.set_link(1, 3, 20);
                map
            }
        }
    }

    /// The node the heal leaves crashed: [`CHORD_BYPASSED`] on the
    /// chain-plus-chord map, if `ops` ends with it down.
    pub fn left_crashed(&self, ops: &[ClusterOp]) -> Option<usize> {
        if self.topology != Topology::ChainChord {
            return None;
        }
        let last = ops.iter().rev().find(|op| {
            matches!(op, ClusterOp::Crash(n) | ClusterOp::Restore(n) if *n == CHORD_BYPASSED)
        });
        matches!(last, Some(ClusterOp::Crash(_))).then_some(CHORD_BYPASSED)
    }
}

/// One step of the deterministic schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterOp {
    /// Client `index` subscribes to the filter pattern.
    Subscribe(usize, String),
    /// Client `index` drops the filter pattern.
    Unsubscribe(usize, String),
    /// Client `index` publishes to the topic path.
    Publish(usize, String),
    /// Crash the node's gateway (no-op if already down).
    Crash(usize),
    /// Restart a crashed node (no-op if up).
    Restore(usize),
    /// Sever the symmetric link (no-op when `a == b`).
    Partition(usize, usize),
    /// Restore the symmetric link.
    HealLink(usize, usize),
    /// Start dropping gossip frames on the symmetric link.
    GossipLoss(usize, usize),
    /// Stop dropping gossip frames on the symmetric link.
    GossipHeal(usize, usize),
    /// Run one gossip round across the cluster.
    GossipRound,
}

/// Generates the operation schedule for a configuration. The real run,
/// the oracle, and the shrinker all consume exactly this list.
pub fn generate_cluster_ops(config: &ClusterChaosConfig) -> Vec<ClusterOp> {
    let mut rng = DetRng::new(config.seed ^ 0xC1D5_7E80_FEDE_1A7E);
    let n = config.nodes;
    let mut ops = Vec::with_capacity(config.ops);
    for _ in 0..config.ops {
        let roll = rng.range_u64(0, 94);
        let client = rng.range_usize(0, config.clients);
        let a = rng.range_usize(0, n);
        let b = rng.range_usize(0, n);
        let op = if roll < 18 {
            ClusterOp::Subscribe(client, random_filter(&mut rng))
        } else if roll < 28 {
            ClusterOp::Unsubscribe(client, random_filter(&mut rng))
        } else if roll < 34 {
            ClusterOp::Crash(a)
        } else if roll < 41 {
            ClusterOp::Restore(a)
        } else if roll < 46 {
            ClusterOp::Partition(a, b)
        } else if roll < 52 {
            ClusterOp::HealLink(a, b)
        } else if roll < 57 {
            ClusterOp::GossipLoss(a, b)
        } else if roll < 62 {
            ClusterOp::GossipHeal(a, b)
        } else if roll < 72 {
            ClusterOp::GossipRound
        } else {
            ClusterOp::Publish(client, random_topic(&mut rng))
        };
        ops.push(op);
    }
    ops
}

/// Deterministic probe topics: `probes` per client, drawn from the
/// same topic distribution the chaos publishes use.
fn probe_topics(config: &ClusterChaosConfig) -> Vec<Vec<String>> {
    let mut rng = DetRng::new(config.seed ^ 0x9E0B_E5C0_11AB_0DE5);
    (0..config.clients)
        .map(|_| (0..config.probes).map(|_| random_topic(&mut rng)).collect())
        .collect()
}

/// The link fabric a run federates its nodes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// A link is a call into the peer's data plane.
    InProcess,
    /// Loopback TCP: link sender threads, socket readers, sequenced
    /// records with acks and retransmits.
    Tcp,
}

impl Transport {
    /// Every seed runs on both, in this order.
    pub const BOTH: [Transport; 2] = [Transport::InProcess, Transport::Tcp];

    /// A file-name-safe name: `in-process` or `tcp`.
    pub fn slug(self) -> &'static str {
        match self {
            Transport::InProcess => "in-process",
            Transport::Tcp => "tcp",
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Transport::InProcess => "in process",
            Transport::Tcp => "over TCP",
        })
    }
}

/// Outcome of one cluster chaos run.
#[derive(Debug)]
pub struct ClusterRunReport {
    /// The configuration that produced this run.
    pub config: ClusterChaosConfig,
    /// The fabric it ran on.
    pub transport: Transport,
    /// Sorted delivery multiset of the whole run (chaos + probes).
    pub deliveries: Vec<Delivery>,
    /// Sorted delivery multiset of the post-heal probe batch alone.
    pub probe_deliveries: Vec<Delivery>,
    /// Whether the healed cluster's gossip views converged.
    pub converged: bool,
    /// Per-(receiver, source, topic) order violations (must be zero).
    pub order_violations: u64,
    /// Duplicate deliveries anywhere in the run (must be zero).
    pub duplicates: u64,
    /// Σ hop-limit drops across nodes (must be zero).
    pub hop_limit_drops: u64,
    /// Highest link count any delivered frame traversed.
    pub max_hop: u64,
    /// Σ frames decoded with errors across nodes.
    pub decode_errors: u64,
    /// FNV-1a fingerprint over the sorted run deliveries.
    pub fingerprint: u64,
    /// The run's telemetry registry as JSON: every node's federation
    /// counters, under `cluster_node{i}_…`.
    pub metrics_json: String,
}

fn drain_all(clients: &[ClusterClient], recorder: &mut Recorder) -> Vec<Delivery> {
    let mut deliveries = Vec::new();
    for client in clients {
        let mut batch = Vec::new();
        client.drain_into(&mut batch);
        deliveries.extend(batch.iter().map(|event| recorder.arrival(client.id(), event)));
    }
    deliveries
}

/// Executes `ops` against a real [`Cluster`] on `transport` and returns
/// the report. Fault toggles quiesce first, so the outcome is
/// deterministic, and the same on both transports.
pub fn run_cluster(
    config: &ClusterChaosConfig,
    ops: &[ClusterOp],
    transport: Transport,
) -> ClusterRunReport {
    let n = config.nodes;
    let registry = Registry::new();
    let metrics = ClusterMetrics::register(&registry, "cluster", n);
    let builder = Cluster::builder(config.latency()).metrics(std::sync::Arc::clone(&metrics));
    let cluster = match transport {
        Transport::InProcess => builder.spawn(),
        Transport::Tcp => builder.tcp().spawn(),
    };
    let clients: Vec<ClusterClient> = (0..config.clients)
        .map(|i| cluster.attach(i % (2 * n)))
        .collect();
    let mut crashed: BTreeSet<usize> = BTreeSet::new();
    let mut partitioned: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut gossip_lost: BTreeSet<(usize, usize)> = BTreeSet::new();
    cluster.quiesce();

    for op in ops {
        match op {
            ClusterOp::Subscribe(index, pattern) => {
                if let Ok(filter) = TopicFilter::parse(pattern) {
                    clients[*index].subscribe(filter);
                    cluster.quiesce();
                }
            }
            ClusterOp::Unsubscribe(index, pattern) => {
                if let Ok(filter) = TopicFilter::parse(pattern) {
                    clients[*index].unsubscribe(&filter);
                    cluster.quiesce();
                }
            }
            ClusterOp::Publish(index, path) => {
                if let Ok(topic) = Topic::parse(path) {
                    clients[*index].publish(topic, Bytes::new());
                    // Settle before the next op: a subscribe racing an
                    // in-flight inter-node frame would make delivery
                    // of this event timing-dependent.
                    cluster.quiesce();
                }
            }
            ClusterOp::Crash(node) => {
                if crashed.insert(*node) {
                    cluster.quiesce();
                    cluster.crash(*node as u16);
                }
            }
            ClusterOp::Restore(node) => {
                if crashed.remove(node) {
                    cluster.quiesce();
                    cluster.restart(*node as u16, config.lose_interest_on_restart);
                    cluster.quiesce();
                }
            }
            ClusterOp::Partition(a, b) => {
                if a != b && partitioned.insert((*a.min(b), *a.max(b))) {
                    cluster.quiesce();
                    cluster.set_link_down(*a as u16, *b as u16, true);
                }
            }
            ClusterOp::HealLink(a, b) => {
                if a != b && partitioned.remove(&(*a.min(b), *a.max(b))) {
                    cluster.quiesce();
                    cluster.set_link_down(*a as u16, *b as u16, false);
                }
            }
            ClusterOp::GossipLoss(a, b) => {
                if a != b && gossip_lost.insert((*a.min(b), *a.max(b))) {
                    cluster.quiesce();
                    cluster.set_gossip_loss(*a as u16, *b as u16, true);
                }
            }
            ClusterOp::GossipHeal(a, b) => {
                if a != b && gossip_lost.remove(&(*a.min(b), *a.max(b))) {
                    cluster.quiesce();
                    cluster.set_gossip_loss(*a as u16, *b as u16, false);
                }
            }
            ClusterOp::GossipRound => {
                // Run the round to the fixpoint of the current fault
                // graph: it is unique (apply is a newer-generation-wins
                // join), so the interest tables at the next publish do
                // not depend on how far one round carries knowledge.
                // One round is deterministic in process, but the op
                // stays n+2 rounds so recorded fingerprints still hold.
                for _ in 0..(n + 2) {
                    cluster.gossip_round();
                }
            }
        }
    }

    // Heal everything: links up, gossip flowing, crashed nodes back
    // but the one left crashed.
    cluster.quiesce();
    for (a, b) in partitioned {
        cluster.set_link_down(a as u16, b as u16, false);
    }
    for (a, b) in gossip_lost {
        cluster.set_gossip_loss(a as u16, b as u16, false);
    }
    let down = config.left_crashed(ops);
    for node in crashed.into_iter().filter(|node| Some(*node) != down) {
        cluster.restart(node as u16, config.lose_interest_on_restart);
    }
    let converged = match down {
        None => cluster.converge(2 * n + 6),
        Some(down) => {
            // A crash and a partition share the link switches: crash
            // again what lifting a partition of the node revived.
            cluster.crash(down as u16);
            for _ in 0..2 * n + 6 {
                cluster.gossip_round();
            }
            converged_around(&cluster, down)
        }
    };
    cluster.quiesce();

    let mut recorder = Recorder::default();
    let mut deliveries = drain_all(&clients, &mut recorder);

    // Probe batch: every client publishes its deterministic probes
    // into the healed cluster.
    for (index, topics) in probe_topics(config).iter().enumerate() {
        for path in topics {
            if let Ok(topic) = Topic::parse(path) {
                clients[index].publish(topic, Bytes::new());
            }
        }
    }
    cluster.quiesce();
    let mut probe_deliveries = drain_all(&clients, &mut recorder);
    probe_deliveries.sort_unstable();
    deliveries.extend(probe_deliveries.iter().cloned());
    deliveries.sort_unstable();
    let duplicates = deliveries.windows(2).filter(|w| w[0] == w[1]).count() as u64;

    ClusterRunReport {
        config: config.clone(),
        transport,
        fingerprint: fingerprint(&deliveries),
        converged,
        order_violations: recorder.order_violations,
        duplicates,
        hop_limit_drops: metrics.total(|m| m.hop_limit_drops.get()),
        max_hop: metrics
            .nodes()
            .map(|m| m.hop_histogram.snapshot().max().unwrap_or(0))
            .max()
            .unwrap_or(0),
        decode_errors: metrics.total(|m| m.decode_errors.get()),
        metrics_json: registry.render_json(),
        deliveries,
        probe_deliveries,
    }
}

/// Whether every node but `down` holds a view of every other node but
/// `down` that matches that node's local truth.
fn converged_around(cluster: &Cluster, down: usize) -> bool {
    let views: Vec<Vec<_>> = (0..cluster.node_count()).map(|i| cluster.snapshot(i)).collect();
    let live = |node: &usize| *node != down;
    (0..views.len()).filter(live).all(|holder| {
        (0..views.len())
            .filter(live)
            .all(|subject| views[holder].get(subject) == views[subject].get(subject))
    })
}

/// The probe delivery multiset of a healed, converged federation: the
/// [`Oracle`] replays the schedule's subscription changes and publishes,
/// forgets what the chaos window delivered, and publishes the probe
/// batch. With a node left crashed, a probe reaches only the subscribers
/// on its publisher's side of that node.
pub fn oracle_probes(config: &ClusterChaosConfig, ops: &[ClusterOp]) -> Vec<Delivery> {
    let latency = config.latency();
    let homes: Vec<usize> = (0..config.clients)
        .map(|i| latency.home_node(i % (2 * config.nodes)) as usize)
        .collect();
    let mut oracle = Oracle::new(config.clients);
    for op in ops {
        match op {
            ClusterOp::Subscribe(index, pattern) => {
                if let Ok(filter) = TopicFilter::parse(pattern) {
                    oracle.add_filter(*index, filter);
                }
            }
            ClusterOp::Unsubscribe(index, pattern) => {
                if let Ok(filter) = TopicFilter::parse(pattern) {
                    oracle.drop_filter(*index, filter);
                }
            }
            ClusterOp::Publish(index, path) => {
                if let Ok(topic) = Topic::parse(path) {
                    oracle.publish_next(*index, topic);
                }
            }
            _ => {}
        }
    }
    oracle.take_deliveries();
    for (index, topics) in probe_topics(config).iter().enumerate() {
        for path in topics {
            if let Ok(topic) = Topic::parse(path) {
                oracle.publish_next(index, topic);
            }
        }
    }
    let mut deliveries = oracle.take_deliveries();
    if let Some(down) = config.left_crashed(ops) {
        let cut_off = |client: u64| homes[client as usize - 1] == down;
        deliveries.retain(|(receiver, _, source, _)| cut_off(*receiver) == cut_off(*source));
    }
    deliveries
}

/// The invariants one run broke, given the oracle's probe multiset.
fn violations_of(report: &ClusterRunReport, expected: &[Delivery]) -> Vec<String> {
    let mut violations = Vec::new();
    if !report.converged {
        violations.push("gossip views did not re-converge after heal".to_owned());
    }
    if report.probe_deliveries != expected {
        violations.push(format!(
            "probe delivery multiset diverged from oracle: {} actual vs {} expected",
            report.probe_deliveries.len(),
            expected.len()
        ));
    }
    if report.duplicates > 0 {
        violations.push(format!(
            "{} duplicate delivery(ies) — exactly-once broken",
            report.duplicates
        ));
    }
    if report.order_violations > 0 {
        violations.push(format!(
            "{} per-topic sequence order violation(s)",
            report.order_violations
        ));
    }
    if report.hop_limit_drops > 0 {
        violations.push(format!(
            "{} hop-limit drop(s) — a frame looped",
            report.hop_limit_drops
        ));
    }
    let hop_bound = report.config.nodes.saturating_sub(1).max(1) as u64;
    if report.max_hop > hop_bound {
        violations.push(format!(
            "delivery traversed {} links, bound is {hop_bound}",
            report.max_hop
        ));
    }
    if report.decode_errors > 0 {
        violations.push(format!(
            "{} frame decode error(s) on clean links",
            report.decode_errors
        ));
    }
    violations
}

/// Runs `ops` once on each [`Transport`] and checks every federation
/// invariant on both runs, and that both delivered the same multiset
/// (equal fingerprints). Returns the two reports, in-process first, and
/// the violations (empty = clean), each naming its transport.
pub fn check_cluster(
    config: &ClusterChaosConfig,
    ops: &[ClusterOp],
) -> ([ClusterRunReport; 2], Vec<String>) {
    let expected = oracle_probes(config, ops);
    let reports = Transport::BOTH.map(|transport| run_cluster(config, ops, transport));
    let mut violations: Vec<String> = reports
        .iter()
        .flat_map(|report| {
            let transport = report.transport;
            violations_of(report, &expected)
                .into_iter()
                .map(move |v| format!("{transport}: {v}"))
        })
        .collect();
    let [local, tcp] = &reports;
    if local.fingerprint != tcp.fingerprint {
        violations.push(format!(
            "transports disagree: {} deliveries (fingerprint {:#018x}) in process, {} ({:#018x}) over TCP",
            local.deliveries.len(),
            local.fingerprint,
            tcp.deliveries.len(),
            tcp.fingerprint
        ));
    }
    (reports, violations)
}

/// Outcome of shrinking a failing schedule.
#[derive(Debug)]
pub struct ClusterShrink {
    /// The minimal failing schedule.
    pub ops: Vec<ClusterOp>,
    /// Violations the minimal schedule still produces.
    pub violations: Vec<String>,
    /// Chaos runs the shrink spent (each on both transports).
    pub runs: usize,
}

/// Minimizes a failing op schedule with [`ddmin`].
pub fn minimize_cluster(config: &ClusterChaosConfig, ops: &[ClusterOp]) -> ClusterShrink {
    let (ops, runs) = ddmin(ops, |candidate| !check_cluster(config, candidate).1.is_empty());
    let violations = check_cluster(config, &ops).1;
    ClusterShrink {
        ops,
        violations,
        runs,
    }
}

/// Renders a minimal schedule as a copy-pasteable `#[test]`.
pub fn render_cluster_test(config: &ClusterChaosConfig, shrunk: &ClusterShrink) -> String {
    let mut out = String::new();
    out.push_str("#[test]\n");
    out.push_str(&format!(
        "fn cluster_chaos_seed_{}_minimal_reproducer() {{\n",
        config.seed
    ));
    out.push_str("    use mmcs_chaos::cluster::*;\n");
    out.push_str(&format!(
        "    let config = ClusterChaosConfig {{ seed: {}, nodes: {}, topology: Topology::{:?}, ops: {}, clients: {}, probes: {}, lose_interest_on_restart: {} }};\n",
        config.seed,
        config.nodes,
        config.topology,
        config.ops,
        config.clients,
        config.probes,
        config.lose_interest_on_restart
    ));
    out.push_str("    let ops = vec![\n");
    for op in &shrunk.ops {
        out.push_str(&format!("        ClusterOp::{op:?},\n"));
    }
    out.push_str("    ];\n");
    out.push_str("    let (_, violations) = check_cluster(&config, &ops);\n");
    out.push_str(&format!(
        "    assert!(violations.is_empty(), \"{{violations:?}}\"); // fails: {}\n",
        shrunk.violations.join("; ")
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_generation_is_stable() {
        let config = ClusterChaosConfig::for_seed(5);
        let a = generate_cluster_ops(&config);
        let b = generate_cluster_ops(&config);
        assert_eq!(a, b);
    }
}
