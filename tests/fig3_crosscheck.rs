//! Cross-checks the Figure 3 harness against the telemetry pipeline:
//! the bench-reported averages must equal the values derived from the
//! telemetry histogram snapshots it now records through — one
//! accounting code path, no drift between "what the bench prints" and
//! "what the metrics say".

use mmcs_bench::fig3::{run, run_jmf, run_narada, run_narada_sharded, Fig3Config, SystemResult};
use mmcs_telemetry::HistogramSnapshot;
use mmcs_util::rate::Bandwidth;

fn small_config() -> Fig3Config {
    Fig3Config {
        packets: 100,
        receivers: 10,
        measured: 2,
        relay_nic: Bandwidth::from_mbps(8),
        ..Fig3Config::default()
    }
}

fn crosscheck(side: &str, result: &SystemResult, measured: usize) {
    // The headline numbers are derived from the snapshots: equality is
    // exact, not approximate.
    assert_eq!(
        result.avg_delay_ms,
        result.delay_hist.mean() / 1e6,
        "{side}: avg delay must come from the delay histogram"
    );
    assert_eq!(
        result.avg_jitter_ms,
        result.jitter_hist.mean() / 1e6,
        "{side}: avg jitter must come from the jitter histogram"
    );
    // The snapshot mean is itself exact count-and-sum arithmetic.
    assert_eq!(
        result.delay_hist.mean(),
        result.delay_hist.sum() as f64 / result.delay_hist.count() as f64,
        "{side}: histogram mean must be exact sum/count"
    );
    // One jitter sample per measured receiver; delay samples pooled
    // across them.
    assert_eq!(result.jitter_hist.count(), measured as u64);
    assert!(result.delay_hist.count() >= result.received as u64);
    // The average sits inside the recorded range.
    let lo = result.delay_hist.min().expect("samples recorded") as f64 / 1e6;
    let hi = result.delay_hist.max().expect("samples recorded") as f64 / 1e6;
    assert!(
        (lo..=hi).contains(&result.avg_delay_ms),
        "{side}: avg {} outside [{lo}, {hi}]",
        result.avg_delay_ms
    );
}

#[test]
fn fig3_averages_equal_their_histogram_derivation() {
    let config = small_config();
    let result = run(&config);
    crosscheck("narada", &result.narada, config.measured);
    crosscheck("jmf", &result.jmf, config.measured);
    // Same seed, same code path: a second run reproduces the snapshots
    // bit-for-bit, histograms included.
    let again = run(&config);
    assert_eq!(result.narada.delay_hist, again.narada.delay_hist);
    assert_eq!(result.jmf.jitter_hist, again.jmf.jitter_hist);
}

#[test]
fn sharded_fig3_per_shard_pools_merge_to_the_system_histogram() {
    let config = small_config();
    for shards in [1usize, 3] {
        let result = run_narada_sharded(&config, shards);
        assert_eq!(result.shards, shards);
        assert_eq!(result.shard_delay.len(), shards);
        crosscheck("narada-sharded", &result.system, config.measured);
        // The per-home-shard pools are a *partition* of the measured
        // delay samples: merging them (in any order) reproduces the
        // system histogram exactly — count, sum, buckets and therefore
        // the exact mean. One accounting code path across shards.
        let merged = HistogramSnapshot::merge_all(&result.shard_delay);
        assert_eq!(
            merged, result.system.delay_hist,
            "{shards} shards: merged per-shard pools must equal the pooled histogram"
        );
        let mut reversed: Vec<HistogramSnapshot> = result.shard_delay.clone();
        reversed.reverse();
        assert_eq!(
            HistogramSnapshot::merge_all(&reversed).mean(),
            result.system.delay_hist.mean(),
            "merge order must not perturb the exact mean"
        );
        // And the second run is bit-identical, shard pools included.
        let again = run_narada_sharded(&config, shards);
        assert_eq!(result.shard_delay, again.shard_delay);
    }
}

/// Value pin: the full-scale NaradaBrokering side of Figure 3 (the
/// benchmark's `sim_fig3` workload) reproduces these exact numbers.
/// Any refactor of the simulator bridge or the bench runners must keep
/// them bit-for-bit.
#[test]
fn full_scale_narada_numbers_are_pinned() {
    let result = run_narada(&Fig3Config::default());
    assert_eq!(result.avg_delay_ms, 75.73765975399999);
    assert_eq!(result.avg_jitter_ms, 18.19718025);
    // Twelve receivers × 2000 packets, averaged as Σ 2000/12 in f64.
    assert_eq!(result.received, 2000.0000000000002);
    assert_eq!(result.loss_fraction, 0.0);
}

/// Value pin for the other half of the paper's headline ratio: the
/// full-scale JMF-reflector side. It drifted once unpinned (per-host
/// RNG streams moved it from 233 ms to 415 ms while EXPERIMENTS.md kept
/// quoting the old number); the next move fails here.
#[test]
fn full_scale_jmf_numbers_are_pinned() {
    let result = run_jmf(&Fig3Config::default());
    assert_eq!(result.avg_delay_ms, 414.80191512475);
    assert_eq!(result.avg_jitter_ms, 16.96665366666667);
    assert_eq!(result.received, 2000.0000000000002);
    assert_eq!(result.loss_fraction, 0.0);
}
