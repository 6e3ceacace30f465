//! The capacity frontier: clients × shards × fan-out on the sharded
//! broker, swept to the knee and written as `BENCH_capacity.json`.
//!
//! Modes (`MMCS_FRONTIER_MODE`):
//!
//! * `reduced` (default) — the CI sweep set: audio (CPU-bound, knee
//!   scales with shards) and video (NIC-bound, knee flat) at 1/2/4
//!   shards plus a fan-out axis, and both headline scenarios (the
//!   million-subscriber broadcast and the 100k-client conference).
//! * `mini` — the tiny configuration the determinism test runs.
//! * `full` — full-scale costs and the 10 Gbps cluster NIC (slow; not
//!   run in CI).
//!
//! If `MMCS_FRONTIER_BASELINE` names a baseline JSON file, the fresh
//! report is compared against it ([`frontier::compare_to_baseline`])
//! and the process exits 1 on any regression — this is the CI gate.

use std::process::ExitCode;

use mmcs_bench::frontier::{
    self, reduced_sweep_specs, run_sweep, FrontierConfig, FrontierReport,
};
use mmcs_bench::json::Json;
use mmcs_bench::report;

fn full_report() -> FrontierReport {
    let sweeps = reduced_sweep_specs()
        .iter()
        .map(|spec| {
            let mut spec = spec.clone();
            // Full-scale knees land ~10× higher than reduced ones.
            for rung in &mut spec.ladder {
                *rung *= 10;
            }
            run_sweep(&spec, |spec, clients| {
                FrontierConfig::new(spec.media, spec.shards, clients, spec.fanout)
            })
        })
        .collect();
    FrontierReport {
        mode: "full".to_owned(),
        seed: 77,
        sweeps,
        scenarios: vec![frontier::million_broadcast(), frontier::conference_100k()],
    }
}

fn main() -> ExitCode {
    let mode = std::env::var("MMCS_FRONTIER_MODE").unwrap_or_else(|_| "reduced".to_owned());
    eprintln!("frontier: running {mode} sweep set");
    let report = match mode.as_str() {
        "mini" => frontier::mini_report(),
        "full" => full_report(),
        "reduced" => frontier::reduced_report(),
        other => {
            eprintln!("frontier: unknown MMCS_FRONTIER_MODE {other:?} (reduced|mini|full)");
            return ExitCode::FAILURE;
        }
    };

    for (key, knee) in report.knee_summary() {
        match knee {
            Some(knee) => println!("{key}: knee at {knee} clients"),
            None => println!("{key}: no good point"),
        }
    }
    for scenario in &report.scenarios {
        let p = &scenario.point;
        println!(
            "{}: {} clients, p99 {:.2} ms, loss {:.4}%, spot {}/{}, good={}",
            scenario.name,
            p.clients,
            p.p99_delay_ms,
            p.loss * 100.0,
            p.spot_delivered,
            p.spot_expected,
            p.good
        );
    }

    let json = report.render_json();
    match report::write_results_file("BENCH_capacity.json", &json) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(err) => {
            eprintln!("could not write BENCH_capacity.json: {err}");
            return ExitCode::FAILURE;
        }
    }

    if let Ok(baseline_path) = std::env::var("MMCS_FRONTIER_BASELINE") {
        if !baseline_path.is_empty() {
            // Relative paths are relative to the workspace root: cargo
            // runs bench binaries with CWD = crates/bench.
            let resolved = if std::path::Path::new(&baseline_path).is_absolute() {
                std::path::PathBuf::from(&baseline_path)
            } else {
                report::workspace_root().join(&baseline_path)
            };
            let contents = match std::fs::read_to_string(&resolved) {
                Ok(contents) => contents,
                Err(err) => {
                    eprintln!("frontier: cannot read baseline {baseline_path}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let baseline = match Json::parse(&contents) {
                Ok(baseline) => baseline,
                Err(err) => {
                    eprintln!("frontier: baseline {baseline_path} is not valid JSON: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let regressions = frontier::compare_to_baseline(&report, &baseline);
            if regressions.is_empty() {
                println!("frontier: no regressions against {baseline_path}");
            } else {
                for regression in &regressions {
                    eprintln!("frontier: REGRESSION: {regression}");
                }
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
