//! Pins the chaos fingerprints of four seeds. A fingerprint hashes the
//! run's sorted simulator counters, every pair's delivery trace, the
//! brokers' suspicion/rejoin histories and the XGSP digests, so a change
//! to the simulator or its processes that keeps these four values has
//! changed no counter, no delivery and no fault reaction on these
//! schedules. The values are what `mmcs-chaos replay <seed>` prints.

use mmcs_chaos::scenario::{BROKERS, CHURN_CLIENTS, EDGES};
use mmcs_chaos::{generate, run, ScenarioConfig};

const PINS: [(u64, u64); 4] = [
    (3, 0x9fb3_c5a3_0720_c322),
    (7, 0x4993_93b5_d09f_aef6),
    (19, 0x4cc1_8bea_0587_1727),
    (42, 0x50d7_5930_549d_85ed),
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
