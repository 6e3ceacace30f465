//! Seeded chaos for the federation runtime.
//!
//! Drives a **real** [`Cluster`] — live sharded node brokers, gossip
//! interest exchange, multi-hop frame routing — with a deterministic,
//! seed-derived schedule of subscription flapping, client zone moves,
//! publish bursts, and federation faults: node crashes, zone
//! partitions (severed links), and gossip loss (interest frames
//! dropped while events still flow). Every fault toggle is preceded by
//! a cluster quiesce, and a gossip round runs on the calling thread, so
//! even though the shard workers are real threads the delivery outcome
//! of a seed is deterministic and its FNV fingerprint is bit-identical
//! across runs.
//!
//! The schedule ends with a **heal**: every partition lifted, every
//! crashed node restarted, gossip run to convergence. Then a probe
//! batch publishes from every client, and the probe delivery multiset
//! is compared against the single-loop [`BrokerNode`] oracle fed the
//! final subscription state. Invariants checked per seed:
//!
//! 1. post-heal gossip convergence (every node's view of every other
//!    node matches that node's local truth),
//! 2. probe deliveries exactly equal the oracle multiset — exactly-once
//!    across the inter-node hop, nothing lost after heal,
//! 3. no duplicate delivery anywhere in the run (chaos window
//!    included),
//! 4. per-(receiver, source, topic) sequence monotonicity,
//! 5. hop counts bounded: zero hop-limit drops and no delivery
//!    travelling more links than the longest shortest path.
//!
//! `--inject-bug` restarts crashed nodes with their local interest
//! truth wiped ([`lose_interest`]): generations go backwards, peers
//! never re-accept the node's adverts, and invariants 1–2 catch it —
//! the ddmin shrinker then reduces the schedule to the guilty crash.
//!
//! [`lose_interest`]: Cluster::restart

use std::collections::{BTreeSet, HashMap};

use bytes::Bytes;
use mmcs_broker::cluster::{Cluster, ClusterClient, LatencyMap};
use mmcs_broker::event::{Event, EventClass};
use mmcs_broker::metrics::ClusterMetrics;
use mmcs_broker::node::{Action, BrokerNode, Input, Origin};
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_util::id::{BrokerId, ClientId};
use mmcs_util::rng::DetRng;

use crate::sharded::{fingerprint, random_filter, random_topic};
use crate::shrink::ddmin;

/// One delivery in sortable form: (receiver, topic, source, seq).
pub type ClusterDelivery = (u64, String, u64, u64);

/// Parameters of one cluster chaos run, all derived from the seed.
#[derive(Debug, Clone)]
pub struct ClusterChaosConfig {
    /// The seed everything derives from.
    pub seed: u64,
    /// Federation size (2–4 by default).
    pub nodes: usize,
    /// Chain topology (multi-hop relays) instead of a full mesh.
    pub chain: bool,
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
    /// The canonical configuration for a seed: node count cycles 2–4,
    /// odd seeds run the chain topology (real multi-hop relays), even
    /// seeds the full mesh.
    pub fn for_seed(seed: u64) -> Self {
        Self {
            seed,
            nodes: 2 + (seed % 3) as usize,
            chain: seed % 2 == 1,
            ops: 80,
            clients: 4,
            probes: 2,
            lose_interest_on_restart: false,
        }
    }

    /// The latency map this configuration builds.
    pub fn latency(&self) -> LatencyMap {
        if self.chain {
            LatencyMap::chain(self.nodes, 5)
        } else {
            LatencyMap::full_mesh(self.nodes, 5)
        }
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
    /// Client `index` rehomes to the zone.
    Move(usize, usize),
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
        let roll = rng.range_u64(0, 100);
        let client = rng.range_usize(0, config.clients);
        let a = rng.range_usize(0, n);
        let b = rng.range_usize(0, n);
        let op = if roll < 18 {
            ClusterOp::Subscribe(client, random_filter(&mut rng))
        } else if roll < 28 {
            ClusterOp::Unsubscribe(client, random_filter(&mut rng))
        } else if roll < 34 {
            ClusterOp::Move(client, rng.range_usize(0, 2 * n))
        } else if roll < 40 {
            ClusterOp::Crash(a)
        } else if roll < 47 {
            ClusterOp::Restore(a)
        } else if roll < 52 {
            ClusterOp::Partition(a, b)
        } else if roll < 58 {
            ClusterOp::HealLink(a, b)
        } else if roll < 63 {
            ClusterOp::GossipLoss(a, b)
        } else if roll < 68 {
            ClusterOp::GossipHeal(a, b)
        } else if roll < 78 {
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

/// Outcome of one cluster chaos run.
#[derive(Debug)]
pub struct ClusterRunReport {
    /// The configuration that produced this run.
    pub config: ClusterChaosConfig,
    /// Sorted delivery multiset of the whole run (chaos + probes).
    pub deliveries: Vec<ClusterDelivery>,
    /// Sorted delivery multiset of the post-heal probe batch alone.
    pub probe_deliveries: Vec<ClusterDelivery>,
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
}

fn drain_all(
    clients: &[ClusterClient],
    last_seq: &mut HashMap<(u64, u64, String), u64>,
    order_violations: &mut u64,
) -> Vec<ClusterDelivery> {
    let mut deliveries = Vec::new();
    for client in clients {
        let mut batch = Vec::new();
        client.drain_into(&mut batch);
        for event in batch {
            let key = (
                client.id().value(),
                event.source.value(),
                event.topic.to_string(),
            );
            if let Some(prev) = last_seq.get(&key) {
                if event.seq <= *prev {
                    *order_violations += 1;
                }
            }
            last_seq.insert(key, event.seq);
            deliveries.push((
                client.id().value(),
                event.topic.to_string(),
                event.source.value(),
                event.seq,
            ));
        }
    }
    deliveries
}

/// Executes `ops` against a real [`Cluster`] and returns the report.
/// Fault toggles quiesce first, so the outcome is deterministic.
pub fn run_cluster(config: &ClusterChaosConfig, ops: &[ClusterOp]) -> ClusterRunReport {
    let n = config.nodes;
    let metrics = ClusterMetrics::detached(n);
    let cluster = Cluster::builder(config.latency())
        .metrics(std::sync::Arc::clone(&metrics))
        .spawn();
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
            ClusterOp::Move(index, zone) => {
                cluster.quiesce();
                clients[*index].move_to_zone(*zone);
                cluster.quiesce();
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

    // Heal everything: links up, gossip flowing, crashed nodes back.
    cluster.quiesce();
    for (a, b) in partitioned {
        cluster.set_link_down(a as u16, b as u16, false);
    }
    for (a, b) in gossip_lost {
        cluster.set_gossip_loss(a as u16, b as u16, false);
    }
    for node in crashed {
        cluster.restart(node as u16, config.lose_interest_on_restart);
    }
    let converged = cluster.converge(2 * n + 6);
    cluster.quiesce();

    let mut last_seq: HashMap<(u64, u64, String), u64> = HashMap::new();
    let mut order_violations = 0u64;
    let mut deliveries = drain_all(&clients, &mut last_seq, &mut order_violations);

    // Probe batch: every client publishes its deterministic probes
    // into the healed cluster.
    let probes = probe_topics(config);
    for (index, topics) in probes.iter().enumerate() {
        for path in topics {
            if let Ok(topic) = Topic::parse(path) {
                clients[index].publish(topic, Bytes::new());
            }
        }
    }
    cluster.quiesce();
    let mut probe_deliveries = drain_all(&clients, &mut last_seq, &mut order_violations);
    probe_deliveries.sort_unstable();
    deliveries.extend(probe_deliveries.iter().cloned());
    deliveries.sort_unstable();

    let mut duplicates = 0u64;
    for window in deliveries.windows(2) {
        if window[0] == window[1] {
            duplicates += 1;
        }
    }

    ClusterRunReport {
        config: config.clone(),
        fingerprint: fingerprint(&deliveries),
        converged,
        order_violations,
        duplicates,
        hop_limit_drops: metrics.total(|m| m.hop_limit_drops.get()),
        max_hop: metrics
            .nodes()
            .map(|m| m.hop_histogram.snapshot().max().unwrap_or(0))
            .max()
            .unwrap_or(0),
        decode_errors: metrics.total(|m| m.decode_errors.get()),
        deliveries,
        probe_deliveries,
    }
}

/// Replays the schedule's *final subscription state* through the
/// single-loop oracle and publishes the probe batch: the expected
/// probe delivery multiset of a healed, converged federation.
pub fn oracle_probes(config: &ClusterChaosConfig, ops: &[ClusterOp]) -> Vec<ClusterDelivery> {
    let mut filters: Vec<BTreeSet<String>> = vec![BTreeSet::new(); config.clients];
    let mut published: Vec<u64> = vec![0; config.clients];
    for op in ops {
        match op {
            ClusterOp::Subscribe(index, pattern) if TopicFilter::parse(pattern).is_ok() => {
                filters[*index].insert(pattern.clone());
            }
            ClusterOp::Unsubscribe(index, pattern) if TopicFilter::parse(pattern).is_ok() => {
                filters[*index].remove(pattern);
            }
            ClusterOp::Publish(index, path) if Topic::parse(path).is_ok() => {
                published[*index] += 1;
            }
            _ => {}
        }
    }

    let mut node = BrokerNode::new(BrokerId::from_raw(9999));
    let client_ids: Vec<ClientId> = (0..config.clients)
        .map(|i| ClientId::from_raw(1 + i as u64))
        .collect();
    for (index, id) in client_ids.iter().enumerate() {
        let _ = node.handle(Input::AttachClient {
            client: *id,
            profile: Default::default(),
        });
        for pattern in &filters[index] {
            if let Ok(filter) = TopicFilter::parse(pattern) {
                let _ = node.handle(Input::Subscribe {
                    client: *id,
                    filter,
                });
            }
        }
    }

    let mut deliveries = Vec::new();
    let probes = probe_topics(config);
    for (index, topics) in probes.iter().enumerate() {
        for (k, path) in topics.iter().enumerate() {
            let Ok(topic) = Topic::parse(path) else {
                continue;
            };
            let event = Event::new(
                topic,
                client_ids[index],
                published[index] + k as u64,
                EventClass::Data,
                Bytes::new(),
            )
            .into_shared();
            if let Ok(actions) = node.handle(Input::Publish {
                origin: Origin::Client(client_ids[index]),
                event,
            }) {
                for action in actions {
                    if let Action::Deliver { client, event, .. } = action {
                        deliveries.push((
                            client.value(),
                            event.topic.to_string(),
                            event.source.value(),
                            event.seq,
                        ));
                    }
                }
            }
        }
    }
    deliveries.sort_unstable();
    deliveries
}

/// Runs `ops` and checks every federation invariant; returns the
/// report and the violations (empty = clean).
pub fn check_cluster(
    config: &ClusterChaosConfig,
    ops: &[ClusterOp],
) -> (ClusterRunReport, Vec<String>) {
    let report = run_cluster(config, ops);
    let expected = oracle_probes(config, ops);
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
    let hop_bound = config.nodes.saturating_sub(1).max(1) as u64;
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
    (report, violations)
}

/// Outcome of shrinking a failing schedule.
#[derive(Debug)]
pub struct ClusterShrink {
    /// The minimal failing schedule.
    pub ops: Vec<ClusterOp>,
    /// Violations the minimal schedule still produces.
    pub violations: Vec<String>,
    /// Chaos runs the shrink spent.
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
        "    let config = ClusterChaosConfig {{ seed: {}, nodes: {}, chain: {}, ops: {}, clients: {}, probes: {}, lose_interest_on_restart: {} }};\n",
        config.seed,
        config.nodes,
        config.chain,
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
    fn first_seeds_are_clean() {
        for seed in 0..4 {
            let config = ClusterChaosConfig::for_seed(seed);
            let ops = generate_cluster_ops(&config);
            let (report, violations) = check_cluster(&config, &ops);
            assert!(
                violations.is_empty(),
                "seed {seed} ({} nodes, chain={}): {violations:?}",
                report.config.nodes,
                report.config.chain
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let config = ClusterChaosConfig::for_seed(7);
        let ops = generate_cluster_ops(&config);
        let a = run_cluster(&config, &ops);
        let b = run_cluster(&config, &ops);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.deliveries, b.deliveries);
    }

    #[test]
    fn injected_interest_wipe_is_caught_and_shrinks_to_the_crash() {
        // Find a seed whose schedule crashes a node; with the resync
        // bug injected its restart loses local interest truth, which
        // the convergence invariant must catch and ddmin must reduce.
        let mut caught = false;
        for seed in 0..16 {
            let mut config = ClusterChaosConfig::for_seed(seed);
            config.lose_interest_on_restart = true;
            let ops = generate_cluster_ops(&config);
            let crashes = ops.iter().any(|op| matches!(op, ClusterOp::Crash(_)));
            if !crashes {
                continue;
            }
            let (_, violations) = check_cluster(&config, &ops);
            if violations.is_empty() {
                // A crash whose node held no interest can heal clean;
                // try the next seed.
                continue;
            }
            let shrunk = minimize_cluster(&config, &ops);
            assert!(!shrunk.violations.is_empty());
            assert!(
                shrunk.ops.len() < ops.len(),
                "shrink made no progress: {} ops",
                shrunk.ops.len()
            );
            assert!(
                shrunk
                    .ops
                    .iter()
                    .any(|op| matches!(op, ClusterOp::Crash(_))),
                "minimal schedule lost the crash: {:?}",
                shrunk.ops
            );
            let rendered = render_cluster_test(&config, &shrunk);
            assert!(rendered.contains("check_cluster"));
            caught = true;
            break;
        }
        assert!(caught, "no seed in 0..16 tripped the injected bug");
    }

    #[test]
    fn schedule_generation_is_stable() {
        let config = ClusterChaosConfig::for_seed(5);
        let a = generate_cluster_ops(&config);
        let b = generate_cluster_ops(&config);
        assert_eq!(a, b);
    }
}
