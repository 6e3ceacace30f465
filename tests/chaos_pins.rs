//! Pins the chaos fingerprints of four simulator seeds and four cluster
//! seeds.
//!
//! A simulator fingerprint hashes the run's sorted simulator counters,
//! every pair's delivery trace, the brokers' suspicion/rejoin histories
//! and the XGSP digests, so a change to the simulator or its processes
//! that keeps these four values has changed no counter, no delivery and
//! no fault reaction on these schedules. The values are what
//! `mmcs-chaos replay <seed>` prints.
//!
//! A cluster fingerprint hashes the sorted delivery multiset of a live
//! in-process federation run under crashes, partitions and gossip loss,
//! so a change to the federation that keeps these four values delivered
//! the same events to the same clients on these schedules. The values
//! are what `mmcs-chaos cluster` prints for the seed.

use mmcs_chaos::cluster::{generate_cluster_ops, run_cluster, ClusterChaosConfig};
use mmcs_chaos::scenario::{BROKERS, CHURN_CLIENTS, EDGES};
use mmcs_chaos::{generate, run, ScenarioConfig};

const PINS: [(u64, u64); 4] = [
    (3, 0x9fb3_c5a3_0720_c322),
    (7, 0x4993_93b5_d09f_aef6),
    (19, 0x4cc1_8bea_0587_1727),
    (42, 0x50d7_5930_549d_85ed),
];

/// Seed 7: 3-node chain (relays of hop 2); 20: 4-node mesh; 24: 2-node
/// mesh; 29: 4-node chain.
const CLUSTER_PINS: [(u64, u64); 4] = [
    (7, 0xb414_2bf7_8947_9382),
    (20, 0xfde2_6d22_5041_fb54),
    (24, 0xda6a_a452_5487_6b2c),
    (29, 0xa39a_4017_0638_9379),
];

#[test]
fn chaos_fingerprints_are_pinned() {
    for (seed, pinned) in PINS {
        let config = ScenarioConfig::for_seed(seed);
        let schedule = generate(seed, config.horizon_ms, EDGES, BROKERS, CHURN_CLIENTS);
        let report = run(&config, &schedule);
        assert_eq!(
            report.fingerprint, pinned,
            "seed {seed}: fingerprint {:#018x}, pinned {pinned:#018x}",
            report.fingerprint
        );
    }
}

#[test]
fn cluster_chaos_fingerprints_are_pinned() {
    for (seed, pinned) in CLUSTER_PINS {
        let config = ClusterChaosConfig::for_seed(seed);
        let report = run_cluster(&config, &generate_cluster_ops(&config));
        assert_eq!(
            report.fingerprint, pinned,
            "cluster seed {seed}: fingerprint {:#018x}, pinned {pinned:#018x}",
            report.fingerprint
        );
    }
}
