//! A NaradaBrokering-style distributed publish/subscribe event broker.
//!
//! NaradaBrokering is the messaging middleware under Global-MMCS: all
//! group communication — XGSP signaling fan-out and, crucially, the RTP
//! audio/video itself — travels as events published to hierarchical
//! topics and routed through a distributed network of brokers. This crate
//! re-implements that middleware as a **sans-IO core** plus drivers:
//!
//! * [`event`] — the event model ([`event::Event`]): topic, source,
//!   sequence, payload, priority class.
//! * [`topic`] — hierarchical topic names (`session/42/video`) and
//!   wildcard filters (`session/42/*`, `session/#`) with a trie-backed
//!   subscription table.
//! * [`node`] — [`node::BrokerNode`], the pure broker state machine:
//!   client attach/detach, subscribe/unsubscribe, publish routing,
//!   broker-to-broker subscription propagation over a tree of links.
//! * [`network`] — [`network::BrokerNetwork`], an in-memory assembly of
//!   several nodes for direct (driver-less) use and unit tests.
//! * [`profile`] — transport profiles (TCP/UDP/Multicast/SSL/raw-RTP)
//!   with per-packet overheads, mirroring NaradaBrokering's pluggable
//!   transports.
//! * [`batch`] — the send-batching optimization the paper alludes to
//!   ("after we made some optimizations on the message transmission");
//!   the ablation benchmark toggles it.
//! * [`firewall`] — outbound-only tunnelling through a proxy for clients
//!   behind firewalls.
//! * [`reliable`] — positive-ack reliable delivery, generic over its
//!   payload: control-plane events, and the frames on the federation's
//!   TCP links; and [`ordering`] — per-source in-order release.
//! * [`liveness`] — heartbeat failure detection for broker links, and
//!   [`rtpproxy`] — the raw-RTP ⇄ event bridge for legacy endpoints.
//! * [`simdrv`] — drives a [`node::BrokerNode`] inside the deterministic
//!   simulator with a CPU cost model; used by every experiment.
//! * [`simtopo`] — rebuilds the live shard mesh or a federation's
//!   latency map out of simulated broker processes, for the capacity
//!   and figure harnesses.
//! * [`sharded`] — the live runtime on real OS threads: the topic space
//!   is partitioned across N shards (one is a plain single-loop
//!   broker), each with its own node slice and batched ingress queue,
//!   joined by a cross-shard forwarding ring.
//! * [`cluster`] — the federation: sharded brokers joined over
//!   in-process or loopback-TCP links, with [`gossip`] interest
//!   exchange; under `cluster/`: `frame` (codec), `route` (latency map,
//!   shortest paths), `plane` (the per-node data plane, gossip
//!   included), `tcp` (link senders and socket readers over
//!   [`reliable`]), `mod` (public surface).
//!
//! # Examples
//!
//! ```
//! use mmcs_broker::network::BrokerNetwork;
//! use mmcs_broker::topic::{Topic, TopicFilter};
//! use bytes::Bytes;
//!
//! let mut net = BrokerNetwork::new();
//! let a = net.add_broker();
//! let b = net.add_broker();
//! net.link(a, b)?;
//!
//! let alice = net.attach_client(a);
//! let bob = net.attach_client(b);
//! net.subscribe(bob, TopicFilter::parse("session/7/*")?)?;
//!
//! net.publish(alice, Topic::parse("session/7/video")?, Bytes::from_static(b"frame"));
//! let delivered = net.drain_deliveries();
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].client, bob);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

/// Send batching and the broker CPU cost model.
pub mod batch;
/// The broker event: topic, origin, sequence, class and payload.
pub mod event;
/// Federation runtime: N sharded brokers joined by gossip interest
/// exchange, hop-bounded inter-node routing and zone-homed clients.
pub mod cluster;
/// Firewall/NAT traversal modelling for client transports.
pub mod firewall;
/// Anti-entropy gossip of per-node subscription interest.
pub mod gossip;
/// Liveness tracking: heartbeats and failure suspicion for peers.
pub mod liveness;
/// Telemetry instruments for the broker hot path and its drivers.
pub mod metrics;
/// A synchronous in-process network of broker nodes for tests and sims.
pub mod network;
/// The sans-IO broker node state machine (`handle(Input) -> Actions`).
pub mod node;
/// Per-publisher sequence tracking and in-order delivery guards.
pub mod ordering;
/// Transport profiles (UDP/TCP/tunnelled) attached to clients.
pub mod profile;
/// Reliable-delivery layer: acknowledgements, retransmit and dedup.
pub mod reliable;
/// RTP proxying through the broker overlay for media topics.
pub mod rtpproxy;
/// A sharded multi-worker runtime: topic-partitioned node slices with
/// batched ingress and a cross-shard forwarding ring.
pub mod sharded;
/// Drives broker nodes from the discrete-event simulator clock.
pub mod simdrv;
/// The live topologies rebuilt inside the deterministic simulator: one
/// broker process per shard or cluster node, joined as a shard mesh or
/// along a latency map.
pub mod simtopo;
/// Flat zero-copy wire encoding for events over pooled frame buffers.
pub mod wire;
/// Hierarchical topics and wildcard topic filters.
pub mod topic;

pub use event::Event;
pub use node::BrokerNode;
pub use topic::{Topic, TopicFilter};
