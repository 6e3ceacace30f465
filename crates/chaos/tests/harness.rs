//! End-to-end acceptance tests for the chaos harness itself: clean
//! seeds pass, replays are bit-identical, and a deliberately seeded bug
//! is caught and shrunk to a minimal schedule.

use mmcs_chaos::scenario::{self, ScenarioConfig, CHURN_CLIENTS, EDGES};
use mmcs_chaos::{check, generate, shrink};

/// Shorter horizon than the CLI default keeps the test suite fast while
/// still exercising every fault kind across the seed range.
fn quick_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        horizon_ms: 6000,
        settle_ms: 8000,
        events_per_pair: 60,
        ..ScenarioConfig::for_seed(seed)
    }
}

#[test]
fn clean_seeds_hold_all_invariants() {
    for seed in 0..8 {
        let config = quick_config(seed);
        let schedule = generate(seed, config.horizon_ms, EDGES, CHURN_CLIENTS);
        let report = scenario::run(&config, &schedule);
        let violations = check(&report);
        assert!(
            violations.is_empty(),
            "seed {seed} violated: {violations:?}"
        );
        for pair in &report.pairs {
            assert_eq!(pair.offered, 60);
            assert_eq!(pair.delivered.len(), 60);
        }
    }
}

#[test]
fn replay_is_bit_identical() {
    let config = quick_config(42);
    let schedule = generate(42, config.horizon_ms, EDGES, CHURN_CLIENTS);
    let a = scenario::run(&config, &schedule);
    let b = scenario::run(&config, &schedule);
    assert_eq!(a.fingerprint, b.fingerprint, "fingerprints diverged");
    assert_eq!(a.counters, b.counters, "counters diverged");
    for (pa, pb) in a.pairs.iter().zip(b.pairs.iter()) {
        assert_eq!(pa.delivered, pb.delivered, "delivery traces diverged");
        assert_eq!(pa.retransmissions, pb.retransmissions);
    }
    assert_eq!(a.xgsp_digest, b.xgsp_digest);
}

#[test]
fn seeded_bug_is_caught_and_shrunk() {
    // Disabling retransmission is the canonical seeded bug: any lossy
    // or partitioned interval strands in-flight frames forever, which
    // must surface as reliable-stream and quiescence violations.
    let mut caught = None;
    for seed in 0..10 {
        let config = ScenarioConfig {
            disable_retransmit: true,
            ..quick_config(seed)
        };
        let schedule = generate(seed, config.horizon_ms, EDGES, CHURN_CLIENTS);
        let violations = check(&scenario::run(&config, &schedule));
        if !violations.is_empty() {
            caught = Some((config, schedule, violations));
            break;
        }
    }
    let (config, schedule, violations) =
        caught.expect("a disabled-retransmit bug must be caught within 10 seeds");
    assert!(violations
        .iter()
        .any(|v| v.to_string().contains("reliable stream") || v.to_string().contains("quiescent")));

    let shrunk = shrink::minimize(&config, &schedule);
    assert!(
        !shrunk.violations.is_empty(),
        "minimal schedule must still fail"
    );
    assert!(
        shrunk.faults.len() <= schedule.len(),
        "shrinking must never grow the schedule"
    );
    // 1-minimality: removing any single fault from the minimal schedule
    // makes the failure disappear.
    if shrunk.faults.len() > 1 {
        for i in 0..shrunk.faults.len() {
            let mut probe = shrunk.faults.clone();
            probe.remove(i);
            let still_fails = !check(&scenario::run(&config, &probe)).is_empty();
            assert!(!still_fails, "fault {i} is removable; schedule not minimal");
        }
    }
    let rendered = shrink::render_test(&config, &shrunk);
    assert!(rendered.contains(&format!("chaos_seed_{}_minimal", config.seed)));
    assert!(rendered.contains("disable_retransmit: true"));
}
