//! Golden-schema test for the frontier's machine-readable bench
//! artifact, `BENCH_capacity.json`. The golden pins the *schema* — key
//! names, key order, value kinds — not the measured numbers: the
//! document is parsed and normalized ([`Json::schema_normal`]: numbers →
//! 0, bools → false, arrays → first element) before comparison, so
//! timing noise never trips CI but a silently renamed or reordered field
//! does.
//!
//! To regenerate after an intentional schema change:
//! `UPDATE_GOLDEN=1 cargo test --test bench_json_golden`.

use std::path::Path;

use mmcs_bench::capacity::Media;
use mmcs_bench::frontier::{
    FrontierConfig, FrontierPoint, FrontierReport, ScenarioResult, SweepResult, SweepSpec,
};
use mmcs_bench::json::Json;
use mmcs_telemetry::HistogramSnapshot;

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; run with UPDATE_GOLDEN=1 if intentional"
    );
}

/// Normalizes a JSON document to its schema skeleton plus a newline.
fn normalize(document: &str) -> String {
    let parsed = Json::parse(document).expect("artifact parses as JSON");
    let mut out = parsed.schema_normal().render();
    out.push('\n');
    out
}

/// A synthetic frontier point with fixed nonzero numbers (all erased by
/// normalization anyway).
fn fixed_point(clients: u64) -> FrontierPoint {
    FrontierPoint {
        clients,
        shards: 2,
        fanout: 5,
        mean_delay_ms: 1.25,
        p99_delay_ms: 3.5,
        loss: 0.0,
        expected: clients * 10,
        delivered: clients * 10,
        spot_expected: 0,
        spot_delivered: 0,
        good: true,
        shard_delay: vec![HistogramSnapshot::empty(), HistogramSnapshot::empty()],
    }
}

#[test]
fn frontier_report_json_matches_golden_schema() {
    // Hand-assembled report: every schema element present (knee both
    // set and null, multiple points, one scenario) without paying for a
    // real sweep in a debug-mode test.
    let sweeps = vec![
        SweepResult {
            spec: SweepSpec {
                media: Media::Audio,
                shards: 2,
                fanout: 5,
                ladder: vec![10, 20],
            },
            points: vec![fixed_point(10), fixed_point(20)],
            knee: Some(20),
        },
        SweepResult {
            spec: SweepSpec {
                media: Media::Video,
                shards: 1,
                fanout: 5,
                ladder: vec![10],
            },
            points: vec![FrontierPoint {
                good: false,
                ..fixed_point(10)
            }],
            knee: None,
        },
    ];
    let config = FrontierConfig::new(Media::Video, 2, 1000, 1000);
    let mut point = fixed_point(1000);
    point.spot_expected = 30;
    point.spot_delivered = 30;
    let report = FrontierReport {
        mode: "reduced".to_owned(),
        seed: 77,
        sweeps,
        scenarios: vec![ScenarioResult {
            name: "broadcast_1m".to_owned(),
            config,
            point,
        }],
    };
    let json = report.render_json();
    // The renderer's output must round-trip through the parser.
    Json::parse(&json).expect("frontier JSON parses");
    check_golden("bench_capacity_schema.json", &normalize(&json));
}

#[test]
fn schema_normalization_erases_measurements_but_not_structure() {
    let a = r#"{"mean_ns": 17.5, "good": true, "id": "x"}"#;
    let b = r#"{"mean_ns": 9000.1, "good": false, "id": "x"}"#;
    let na = Json::parse(a).unwrap().schema_normal().render();
    let nb = Json::parse(b).unwrap().schema_normal().render();
    assert_eq!(na, nb, "differing measurements must normalize identically");
    let c = r#"{"mean_ns": 17.5, "renamed": true, "id": "x"}"#;
    let nc = Json::parse(c).unwrap().schema_normal().render();
    assert_ne!(na, nc, "a renamed key must change the schema skeleton");
}
