//! Deterministic chaos harness for the live broker runtimes.
//!
//! Every run derives from one `u64` seed: a seeded schedule of
//! operations and faults drives a real runtime — live OS threads — and
//! each control step is settled before the next, so the delivery outcome
//! of a seed is deterministic and folds into an FNV-1a fingerprint. What
//! the runtime delivered is checked against the single-loop [`oracle`].
//!
//! The [`cluster`] harness targets the live federation (`Cluster`),
//! failure detection included: seeded node-crash/zone-partition/
//! gossip-loss schedules interleave with subscription churn, client zone
//! moves and publish bursts, then the healed cluster — on the
//! chain-plus-chord map possibly with one node left crashed and routed
//! around — must re-converge and deliver a probe batch exactly as the
//! oracle predicts. Each seed runs once in process and once over
//! loopback TCP, and the two runs must deliver the same multiset. On a
//! violation, [`shrink`] reduces the schedule to a minimal reproducer,
//! rendered as a copy-pasteable `#[test]` (`mmcs-chaos cluster --seeds N`).
//!
//! The [`sharded`] harness targets one multi-worker `ShardedBroker`:
//! seeded attach/detach/subscribe/publish/stall schedules against live
//! shard threads, checked against the oracle and the per-shard metric
//! identities (`mmcs-chaos sharded --seeds N`).

pub mod cluster;
pub mod oracle;
pub mod sharded;
pub mod shrink;
