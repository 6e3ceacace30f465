//! Pins the chaos fingerprints of six cluster seeds, on both
//! transports.
//!
//! A cluster fingerprint hashes the sorted delivery multiset of a live
//! federation run under crashes, partitions and gossip loss, so a change
//! to the federation that keeps these six values delivered the same
//! events to the same clients on these schedules. The values are what
//! `mmcs-chaos cluster` prints for the seed, and a seed's run over
//! loopback TCP must reproduce its in-process value.

use mmcs_chaos::cluster::{generate_cluster_ops, run_cluster, ClusterChaosConfig, Transport};

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

fn pinned_on(transport: Transport) {
    for (seed, pinned) in CLUSTER_PINS {
        let config = ClusterChaosConfig::for_seed(seed);
        let report = run_cluster(&config, &generate_cluster_ops(&config), transport);
        assert_eq!(
            report.fingerprint, pinned,
            "cluster seed {seed} {transport}: fingerprint {:#018x}, pinned {pinned:#018x}",
            report.fingerprint
        );
    }
}

#[test]
fn cluster_chaos_fingerprints_are_pinned() {
    pinned_on(Transport::InProcess);
}

#[test]
fn cluster_chaos_fingerprints_are_pinned_over_tcp() {
    pinned_on(Transport::Tcp);
}
