//! End-to-end acceptance tests for the chaos harness itself: clean
//! seeds hold on both transports with equal fingerprints, and a
//! deliberately injected bug is caught on both and shrunk to a minimal
//! schedule.

use mmcs_chaos::cluster::{
    check_cluster, generate_cluster_ops, minimize_cluster, render_cluster_test, ClusterChaosConfig,
    ClusterOp, Transport,
};

#[test]
fn clean_seeds_hold_on_both_transports_with_equal_fingerprints() {
    for seed in 0..8 {
        let config = ClusterChaosConfig::for_seed(seed);
        let ops = generate_cluster_ops(&config);
        let ([local, tcp], violations) = check_cluster(&config, &ops);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        assert_eq!((local.transport, tcp.transport), (Transport::InProcess, Transport::Tcp));
        assert_eq!(local.fingerprint, tcp.fingerprint, "seed {seed}");
        assert_eq!(local.deliveries, tcp.deliveries, "seed {seed}");
    }
}

/// With the resync bug injected, a restarted node loses its local
/// interest: both runs of a schedule that crashes a node holding
/// interest must be caught, and ddmin must keep the guilty crash and
/// the failure on both transports.
#[test]
fn injected_interest_wipe_is_caught_and_shrunk_on_both_transports() {
    let named = |violations: &[String], transport: Transport| {
        violations.iter().any(|v| v.starts_with(&transport.to_string()))
    };
    let caught = (0..16).find_map(|seed| {
        let config = ClusterChaosConfig {
            lose_interest_on_restart: true,
            ..ClusterChaosConfig::for_seed(seed)
        };
        let ops = generate_cluster_ops(&config);
        let (_, violations) = check_cluster(&config, &ops);
        (!violations.is_empty()).then_some((config, ops, violations))
    });
    let (config, ops, violations) = caught.expect("a seed in 0..16 trips the injected bug");
    for transport in Transport::BOTH {
        assert!(named(&violations, transport), "not caught {transport}: {violations:?}");
    }

    let shrunk = minimize_cluster(&config, &ops);
    assert!(shrunk.ops.len() < ops.len(), "no progress: {:?}", shrunk.ops);
    assert!(
        shrunk.ops.iter().any(|op| matches!(op, ClusterOp::Crash(_))),
        "the minimal schedule lost the crash: {:?}",
        shrunk.ops
    );
    for transport in Transport::BOTH {
        assert!(
            named(&shrunk.violations, transport),
            "the minimal schedule no longer fails {transport}: {:?}",
            shrunk.violations
        );
    }
    let rendered = render_cluster_test(&config, &shrunk);
    assert!(rendered.contains(&format!("cluster_chaos_seed_{}_minimal_reproducer", config.seed)));
    assert!(rendered.contains("lose_interest_on_restart: true"));
}
