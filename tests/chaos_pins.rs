//! Pins the chaos fingerprints of four simulator seeds and six cluster
//! seeds.
//!
//! A simulator fingerprint hashes the run's sorted simulator counters,
//! every pair's delivery trace and the XGSP digests, so a change to the
//! simulator or its processes that keeps these four values has changed
//! no counter, no delivery and no fault reaction on these schedules. The
//! values are what `mmcs-chaos replay <seed>` prints.
//!
//! A cluster fingerprint hashes the sorted delivery multiset of a live
//! in-process federation run under crashes, partitions and gossip loss,
//! so a change to the federation that keeps these six values delivered
//! the same events to the same clients on these schedules. The values
//! are what `mmcs-chaos cluster` prints for the seed.

use mmcs_chaos::cluster::{generate_cluster_ops, run_cluster, ClusterChaosConfig};
use mmcs_chaos::scenario::{CHURN_CLIENTS, EDGES};
use mmcs_chaos::{generate, run, ScenarioConfig};

const PINS: [(u64, u64); 4] = [
    (3, 0x9c0f_cf9f_adb6_f85f),
    (7, 0x7ea4_dfda_faad_5d78),
    (19, 0x0e25_b55c_d1b9_6629),
    (42, 0x1a41_b9c4_3dea_ad29),
];

/// Seed 7: 3-node chain (relays of hop 2); 20: 4-node mesh; 24: 2-node
/// mesh; 29: 4-node chain; 8 and 63: the chain-plus-chord map with node
/// 2 left crashed, whose probes reach node 3 only over the chord.
const CLUSTER_PINS: [(u64, u64); 6] = [
    (7, 0xb414_2bf7_8947_9382),
    (20, 0xfde2_6d22_5041_fb54),
    (24, 0xda6a_a452_5487_6b2c),
    (29, 0xa39a_4017_0638_9379),
    (8, 0xa0f2_a5f4_a8fd_073e),
    (63, 0xd718_cc1a_2e76_5cdf),
];

#[test]
fn chaos_fingerprints_are_pinned() {
    for (seed, pinned) in PINS {
        let config = ScenarioConfig::for_seed(seed);
        let schedule = generate(seed, config.horizon_ms, EDGES, CHURN_CLIENTS);
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
