//! Deterministic chaos harness for the broker network.
//!
//! FoundationDB-style simulation testing: a seeded [`schedule`] of faults
//! (partitions, loss, jitter/duplication, client churn) drives a
//! multi-broker, multi-client [`scenario`] inside the deterministic
//! simulator, and a library of [`invariants`] checks the outcome —
//! exactly-once reliable delivery, route-table convergence against a
//! naive re-walk oracle, XGSP membership consistency, and post-heal
//! quiescence. On a violation, [`shrink`] bisects the fault schedule to
//! a minimal reproducer and renders it as a copy-pasteable `#[test]`.
//!
//! Everything — topology, traffic, faults, network randomness — derives
//! from one `u64` seed, so `mmcs-chaos replay <seed>` reproduces a run
//! bit-identically (same counters, same delivery trace, same
//! fingerprint).
//!
//! The [`sharded`] variant targets the real multi-worker
//! `ShardedBroker` runtime instead of the simulator: seeded
//! attach/detach/subscribe/publish/stall schedules run against live
//! shard threads and are checked against the single-loop oracle
//! (`mmcs-chaos sharded --seeds N`).
//!
//! The [`cluster`] variant targets the live federation runtime
//! (`Cluster`), failure detection included: seeded
//! node-crash/zone-partition/gossip-loss schedules interleave with
//! subscription churn, client zone moves and publish bursts, then the
//! healed cluster — on the chain-plus-chord map possibly with one node
//! left crashed and routed around — must re-converge and deliver a
//! probe batch exactly as the single-loop oracle predicts
//! (`mmcs-chaos cluster --seeds N`).

pub mod cluster;
pub mod invariants;
pub mod scenario;
pub mod schedule;
pub mod sharded;
pub mod shrink;

pub use invariants::{check, Violation};
pub use scenario::{run, RunReport, ScenarioConfig};
pub use schedule::{generate, Fault, FaultKind, Target};
