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
//!   one-hop routing between brokers (an event crosses at most one
//!   broker link). A node never knows its peers and tells them
//!   nothing: it counts the interest its driver hands it, one remote
//!   subscription per client subscription on a peer, and only a
//!   publish emits actions.
//! * [`profile`] — transport profiles (TCP/UDP/Multicast/SSL/raw-RTP)
//!   with per-packet overheads, mirroring NaradaBrokering's pluggable
//!   transports.
//! * [`batch`] — the send-batching optimization the paper alludes to
//!   ("after we made some optimizations on the message transmission")
//!   and the broker CPU cost model; the ablation benchmark toggles it.
//! * [`reliable`] — positive-ack reliable delivery, generic over its
//!   payload: control-plane events, and the frames on the federation's
//!   TCP links.
//! * [`wire`] — the flat zero-copy event encoding used on links.
//! * [`metrics`] — telemetry instruments for the node and its drivers.
//!
//! Three drivers run a [`node::BrokerNode`]:
//!
//! * [`simdrv`] — inside the deterministic simulator, with a CPU cost
//!   model: a broker process keeps its peer list, sends each client
//!   subscription its node accepts to every peer and fans out from the
//!   route plan;
//!   [`simtopo`] rebuilds the live shard mesh or a full-mesh
//!   federation's latency map out of its broker processes. The
//!   simulated clients that load it live in `mmcs-bench`
//!   (`mmcs_bench::load`).
//! * [`sharded`] — the live runtime on real OS threads: the topic space
//!   is partitioned across N shards (one is a plain single-loop
//!   broker), each with its own node slice and batched ingress queue,
//!   joined by a cross-shard forwarding ring; a client is attached on
//!   its home shard alone, and its handle sends each subscription to
//!   the shards that may own a matching topic. Its workers and the TCP
//!   link senders of [`cluster`] wait on one queue type, the private
//!   `handoff` module's swap-whole `Handoff`.
//! * [`cluster`] — the federation: sharded brokers joined over
//!   in-process or loopback-TCP links, with [`gossip`] interest
//!   exchange; under `cluster/`: `frame` (codec), `route` (latency map,
//!   shortest paths around suspected links), `liveness` (the failure
//!   detector), `plane` (the per-node data plane, gossip included),
//!   `tcp` (link senders and socket readers over [`reliable`]), `mod`
//!   (public surface).
//!
//! # Examples
//!
//! ```
//! use mmcs_broker::sharded::ShardedBroker;
//! use mmcs_broker::topic::{Topic, TopicFilter};
//! use bytes::Bytes;
//!
//! let broker = ShardedBroker::spawn(1);
//! let alice = broker.attach();
//! let bob = broker.attach();
//! bob.subscribe(TopicFilter::parse("session/7/*")?);
//!
//! alice.publish(Topic::parse("session/7/video")?, Bytes::from_static(b"frame"));
//! broker.quiesce();
//! let delivered = bob.try_recv().expect("one delivery");
//! assert_eq!(delivered.source, alice.id());
//! assert!(bob.try_recv().is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod batch;
pub mod cluster;
pub mod event;
pub mod gossip;
mod handoff;
pub mod metrics;
pub mod node;
pub mod profile;
pub mod reliable;
pub mod sharded;
pub mod simdrv;
pub mod simtopo;
pub mod topic;
pub mod wire;

pub use event::Event;
pub use node::BrokerNode;
pub use topic::{Topic, TopicFilter};
