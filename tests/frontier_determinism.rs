//! Seed-determinism of the capacity-frontier harness: the whole
//! report — every sweep point, every scenario, the rendered
//! `BENCH_capacity.json` — must be byte-identical across two runs at
//! the same seed. This is what lets CI diff the artifact against a
//! committed baseline at all.

use mmcs_bench::frontier::{self, FrontierConfig, run_point};
use mmcs_bench::capacity::Media;
use mmcs_bench::json::Json;

#[test]
fn mini_report_renders_byte_identical_json_twice() {
    let first = frontier::mini_report().render_json();
    let second = frontier::mini_report().render_json();
    assert_eq!(first, second, "frontier JSON must be seed-deterministic");
    // And it is well-formed JSON with the pinned schema tag.
    let parsed = Json::parse(&first).expect("frontier JSON parses");
    assert_eq!(
        parsed.member("schema").and_then(Json::as_str),
        Some("mmcs.capacity.v1")
    );
    assert_eq!(parsed.member("mode").and_then(Json::as_str), Some("mini"));
}

#[test]
fn point_measurements_are_bitwise_reproducible() {
    let mut config = FrontierConfig::reduced(Media::Audio, 2, 30, 5);
    config.packets = 25;
    let a = run_point(&config);
    let b = run_point(&config);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.mean_delay_ms.to_bits(), b.mean_delay_ms.to_bits());
    assert_eq!(a.p99_delay_ms.to_bits(), b.p99_delay_ms.to_bits());
    assert_eq!(a.loss.to_bits(), b.loss.to_bits());
    assert_eq!(a.shard_delay, b.shard_delay);
}

#[test]
fn different_seed_changes_the_timeline_not_the_accounting() {
    let mut config = FrontierConfig::reduced(Media::Audio, 2, 30, 5);
    config.packets = 25;
    let a = run_point(&config);
    config.seed = 78;
    let b = run_point(&config);
    // Both healthy runs deliver everything regardless of seed.
    assert_eq!(a.delivered, a.expected);
    assert_eq!(b.delivered, b.expected);
}

/// Value pin: the federation scenario of the frontier report
/// reproduces these exact numbers. Any refactor of the simulator bridge
/// or the frontier runner must keep them bit-for-bit.
#[test]
fn federation_point_numbers_are_pinned() {
    let point = frontier::federation_point().point;
    assert_eq!(point.mean_delay_ms, 7.010820441666667);
    assert_eq!(point.p99_delay_ms, 12.648447);
    assert_eq!((point.delivered, point.expected), (7200, 7200));
    assert_eq!((point.spot_delivered, point.spot_expected), (120, 120));
}
