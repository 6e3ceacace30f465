//! Seeded chaos for the sharded broker runtime.
//!
//! Unlike the simulator-based network scenario, this variant drives a
//! **real** [`ShardedBroker`] — live OS threads, batched ingress
//! queues, the cross-shard forwarding ring — with a deterministic,
//! seed-derived operation schedule: client attach/detach churn,
//! subscribe/unsubscribe flapping, publish bursts, worker stalls, and
//! (on backpressure seeds) a tiny soft queue capacity so publishers
//! spin on full shards. Control operations are settled with
//! [`ShardedBroker::quiesce`], so the delivery outcome is deterministic
//! even though thread interleavings are not.
//!
//! The oracle is the single-loop [`BrokerNode`] state machine fed the
//! same schedule. Invariants checked per seed:
//!
//! 1. sorted delivery multisets identical to the oracle's,
//! 2. per-(receiver, source, topic) sequence monotonicity,
//! 3. metric identities — Σ `events_in` = accepted publishes +
//!    Σ `cross_shard_forwards`, Σ `deliveries` = events drained,
//! 4. every shard's queue depth reads zero after the final quiesce.
//!
//! The sorted deliveries fold into an FNV-1a fingerprint, so two runs
//! of one seed are comparable bit-for-bit exactly like the network
//! scenario's replay.

use std::time::Duration;

use bytes::Bytes;
use mmcs_broker::event::{Event, EventClass};
use mmcs_broker::metrics::ShardedBrokerMetrics;
use mmcs_broker::node::{Action, BrokerNode, Input, Origin};
use mmcs_broker::sharded::{ShardedBroker, ShardedClient};
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_util::id::{BrokerId, ClientId};
use mmcs_util::rng::DetRng;

/// One delivery in sortable form: (receiver, topic, source, seq).
pub type ShardedDelivery = (u64, String, u64, u64);

/// Parameters of one sharded chaos run, all derived from the seed.
#[derive(Debug, Clone)]
pub struct ShardedChaosConfig {
    /// The seed everything derives from.
    pub seed: u64,
    /// Worker shard count (1–4 by default).
    pub shards: usize,
    /// Operations in the schedule.
    pub ops: usize,
    /// Soft per-shard queue capacity; backpressure seeds use a tiny one.
    pub capacity: usize,
    /// Clients attached before the schedule starts (churn adds more).
    pub clients: usize,
}

impl ShardedChaosConfig {
    /// The canonical configuration for a seed: shard count cycles
    /// through 1–4, and every third seed runs with a capacity of 4 so
    /// publishers hit the soft backpressure spin.
    pub fn for_seed(seed: u64) -> Self {
        Self {
            seed,
            shards: 1 + (seed % 4) as usize,
            ops: 120,
            capacity: if seed.is_multiple_of(3) { 4 } else { 65_536 },
            clients: 4,
        }
    }
}

/// One step of the deterministic schedule.
#[derive(Debug, Clone)]
pub enum ShardedOp {
    /// Attach a fresh client (churn arrival).
    Attach,
    /// Detach client `index` (churn departure / crash; later ops that
    /// still reference it become no-ops on both sides).
    Detach(usize),
    /// Client `index` subscribes to the filter pattern.
    Subscribe(usize, String),
    /// Client `index` drops the filter pattern.
    Unsubscribe(usize, String),
    /// Client `index` publishes to the topic path.
    Publish(usize, String),
    /// Stall one shard's worker for some milliseconds (queue pile-up).
    Stall(usize, u64),
}

/// A random 1–3 segment topic over a six-name alphabet (shared with
/// the cluster harness, so both draw from one generator).
pub(crate) fn random_topic(rng: &mut DetRng) -> String {
    let depth = rng.range_usize(1, 4);
    let mut segments = Vec::with_capacity(depth);
    for _ in 0..depth {
        segments.push(format!("s{}", rng.range_u64(0, 6)));
    }
    segments.join("/")
}

/// A random filter over the same alphabet, with `*` and `#` wildcards.
pub(crate) fn random_filter(rng: &mut DetRng) -> String {
    let depth = rng.range_usize(1, 4);
    let mut segments = Vec::with_capacity(depth);
    for _ in 0..depth {
        if rng.chance(0.2) {
            segments.push("*".to_owned());
        } else {
            segments.push(format!("s{}", rng.range_u64(0, 6)));
        }
    }
    if rng.chance(0.3) {
        segments.push("#".to_owned());
    }
    segments.join("/")
}

/// Generates the operation schedule for a configuration. Both the real
/// run and the oracle consume exactly this list.
pub fn generate_ops(config: &ShardedChaosConfig) -> Vec<ShardedOp> {
    let mut rng = DetRng::new(config.seed ^ 0x5AAD_ED00_C0FF_EE00);
    let mut pool = config.clients;
    let mut ops = Vec::with_capacity(config.ops);
    for _ in 0..config.ops {
        let roll = rng.range_u64(0, 100);
        let op = if roll < 6 {
            pool += 1;
            ShardedOp::Attach
        } else if roll < 11 {
            ShardedOp::Detach(rng.range_usize(0, pool))
        } else if roll < 31 {
            ShardedOp::Subscribe(rng.range_usize(0, pool), random_filter(&mut rng))
        } else if roll < 42 {
            ShardedOp::Unsubscribe(rng.range_usize(0, pool), random_filter(&mut rng))
        } else if roll < 47 {
            ShardedOp::Stall(rng.range_usize(0, config.shards), rng.range_u64(1, 4))
        } else {
            ShardedOp::Publish(rng.range_usize(0, pool), random_topic(&mut rng))
        };
        ops.push(op);
    }
    ops
}

/// Outcome of one sharded chaos run.
#[derive(Debug)]
pub struct ShardedRunReport {
    /// The configuration that produced this run.
    pub config: ShardedChaosConfig,
    /// Sorted delivery multiset drained from every client.
    pub deliveries: Vec<ShardedDelivery>,
    /// Per-(receiver, source, topic) order violations seen while
    /// draining (must be zero).
    pub order_violations: u64,
    /// Σ `events_in` across shards.
    pub events_in: u64,
    /// Σ `cross_shard_forwards` across shards.
    pub cross_shard_forwards: u64,
    /// Σ `deliveries` across shards.
    pub deliveries_metric: u64,
    /// Each shard's queue depth after the final quiesce.
    pub queue_depths: Vec<i64>,
    /// FNV-1a fingerprint over the sorted deliveries.
    pub fingerprint: u64,
}

/// FNV-1a over the sorted delivery list: the run's fingerprint.
pub(crate) fn fingerprint(deliveries: &[ShardedDelivery]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (receiver, topic, source, seq) in deliveries {
        mix(&receiver.to_le_bytes());
        mix(topic.as_bytes());
        mix(&source.to_le_bytes());
        mix(&seq.to_le_bytes());
    }
    hash
}

/// Executes the schedule against a real [`ShardedBroker`].
pub fn run_sharded(config: &ShardedChaosConfig) -> ShardedRunReport {
    let ops = generate_ops(config);
    let metrics = ShardedBrokerMetrics::detached(config.shards);
    let broker = ShardedBroker::builder(config.shards)
        .capacity(config.capacity)
        .metrics(std::sync::Arc::clone(&metrics))
        .spawn();
    let mut clients: Vec<ShardedClient> = (0..config.clients).map(|_| broker.attach()).collect();
    broker.quiesce();
    for op in &ops {
        match op {
            ShardedOp::Attach => {
                clients.push(broker.attach());
                broker.quiesce();
            }
            ShardedOp::Detach(index) => {
                broker.quiesce();
                clients[*index].detach();
                broker.quiesce();
            }
            ShardedOp::Subscribe(index, pattern) => {
                if let Ok(filter) = TopicFilter::parse(pattern) {
                    clients[*index].subscribe(filter);
                    broker.quiesce();
                }
            }
            ShardedOp::Unsubscribe(index, pattern) => {
                if let Ok(filter) = TopicFilter::parse(pattern) {
                    clients[*index].unsubscribe(filter);
                    broker.quiesce();
                }
            }
            ShardedOp::Publish(index, path) => {
                if let Ok(topic) = Topic::parse(path) {
                    clients[*index].publish(topic, Bytes::new());
                }
            }
            ShardedOp::Stall(shard, millis) => {
                broker.stall_shard(*shard, Duration::from_millis(*millis));
            }
        }
    }
    broker.quiesce();

    let mut deliveries: Vec<ShardedDelivery> = Vec::new();
    let mut order_violations = 0u64;
    let mut last_seq: std::collections::HashMap<(u64, u64, String), u64> =
        std::collections::HashMap::new();
    for client in &clients {
        while let Some(event) = client.try_recv() {
            let key = (
                client.id().value(),
                event.source.value(),
                event.topic.to_string(),
            );
            if let Some(prev) = last_seq.get(&key) {
                if event.seq <= *prev {
                    order_violations += 1;
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
    deliveries.sort_unstable();
    let queue_depths: Vec<i64> = metrics.shards().map(|s| s.queue_depth.get()).collect();
    ShardedRunReport {
        config: config.clone(),
        fingerprint: fingerprint(&deliveries),
        deliveries,
        order_violations,
        events_in: metrics.total(|s| s.events_in.get()),
        cross_shard_forwards: metrics.total(|s| s.cross_shard_forwards.get()),
        deliveries_metric: metrics.total(|s| s.deliveries.get()),
        queue_depths,
    }
}

/// Replays the schedule through the single-loop oracle. Returns the
/// sorted delivery multiset plus the number of publishes the state
/// machine accepted (publishes from detached clients are rejected on
/// both sides).
pub fn oracle_sharded(config: &ShardedChaosConfig) -> (Vec<ShardedDelivery>, u64) {
    let ops = generate_ops(config);
    let mut node = BrokerNode::new(BrokerId::from_raw(7777));
    let mut next_id = 1u64;
    let mut attach = |node: &mut BrokerNode| {
        let id = ClientId::from_raw(next_id);
        next_id += 1;
        let _ = node.handle(Input::AttachClient {
            client: id,
            profile: Default::default(),
        });
        id
    };
    let mut clients: Vec<ClientId> = (0..config.clients).map(|_| attach(&mut node)).collect();
    let mut seqs: Vec<u64> = vec![0; config.clients];
    let mut accepted = 0u64;
    let mut deliveries: Vec<ShardedDelivery> = Vec::new();
    for op in &ops {
        match op {
            ShardedOp::Attach => {
                clients.push(attach(&mut node));
                seqs.push(0);
            }
            ShardedOp::Detach(index) => {
                let _ = node.handle(Input::DetachClient {
                    client: clients[*index],
                });
            }
            ShardedOp::Subscribe(index, pattern) => {
                if let Ok(filter) = TopicFilter::parse(pattern) {
                    let _ = node.handle(Input::Subscribe {
                        client: clients[*index],
                        filter,
                    });
                }
            }
            ShardedOp::Unsubscribe(index, pattern) => {
                if let Ok(filter) = TopicFilter::parse(pattern) {
                    let _ = node.handle(Input::Unsubscribe {
                        client: clients[*index],
                        filter,
                    });
                }
            }
            ShardedOp::Publish(index, path) => {
                if let Ok(topic) = Topic::parse(path) {
                    let seq = seqs[*index];
                    seqs[*index] += 1;
                    let event = Event::new(
                        topic,
                        clients[*index],
                        seq,
                        EventClass::Data,
                        Bytes::new(),
                    )
                    .into_shared();
                    if let Ok(actions) = node.handle(Input::Publish {
                        origin: Origin::Client(clients[*index]),
                        event,
                    }) {
                        accepted += 1;
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
            ShardedOp::Stall(..) => {}
        }
    }
    deliveries.sort_unstable();
    (deliveries, accepted)
}

/// Runs one seed and checks every invariant; returns the report and the
/// list of violations (empty = clean).
pub fn check_sharded(config: &ShardedChaosConfig) -> (ShardedRunReport, Vec<String>) {
    let report = run_sharded(config);
    let (expected, accepted) = oracle_sharded(config);
    let mut violations = Vec::new();
    if report.deliveries != expected {
        violations.push(format!(
            "delivery multiset diverged from oracle: {} actual vs {} expected",
            report.deliveries.len(),
            expected.len()
        ));
    }
    if report.order_violations > 0 {
        violations.push(format!(
            "{} per-topic sequence order violation(s)",
            report.order_violations
        ));
    }
    if report.events_in != accepted + report.cross_shard_forwards {
        violations.push(format!(
            "events_in identity broken: {} != {} accepted + {} forwards",
            report.events_in, accepted, report.cross_shard_forwards
        ));
    }
    if report.deliveries_metric != report.deliveries.len() as u64 {
        violations.push(format!(
            "deliveries metric {} != {} events drained",
            report.deliveries_metric,
            report.deliveries.len()
        ));
    }
    for (shard, depth) in report.queue_depths.iter().enumerate() {
        if *depth != 0 {
            violations.push(format!("shard {shard} queue depth {depth} after quiesce"));
        }
    }
    (report, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_seeds_are_clean() {
        for seed in 0..4 {
            let config = ShardedChaosConfig::for_seed(seed);
            let (report, violations) = check_sharded(&config);
            assert!(
                violations.is_empty(),
                "seed {seed} ({} shards): {violations:?}",
                report.config.shards
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let config = ShardedChaosConfig::for_seed(11);
        let a = run_sharded(&config);
        let b = run_sharded(&config);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.deliveries, b.deliveries);
    }

    #[test]
    fn backpressure_seed_uses_tiny_capacity() {
        let config = ShardedChaosConfig::for_seed(3);
        assert_eq!(config.capacity, 4);
        let (_, violations) = check_sharded(&config);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn schedule_generation_is_stable() {
        let config = ShardedChaosConfig::for_seed(5);
        let a = generate_ops(&config);
        let b = generate_ops(&config);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }
}
