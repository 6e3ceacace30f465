//! `mmcs-chaos` — fuzz the broker network with seeded fault schedules,
//! or replay a single seed bit-identically.
//!
//! ```text
//! mmcs-chaos fuzz --seeds 100 [--base 0] [--inject-bug] [--artifact PATH] [--metrics-dir DIR]
//! mmcs-chaos replay 42 [--inject-bug]
//! ```
//!
//! ```text
//! mmcs-chaos sharded --seeds N [--base 0] [--shards K]
//! mmcs-chaos cluster --seeds N [--base 0] [--inject-bug] [--artifact PATH]
//! ```
//!
//! `fuzz` runs seeds `base..base + seeds`; on the first invariant
//! violation it shrinks the schedule to a minimal reproducer, prints it
//! as a copy-pasteable `#[test]`, optionally writes it to `--artifact`,
//! and exits nonzero. Every run also dumps its telemetry registry as
//! `seed-N.json` under `--metrics-dir` (default `target/chaos-metrics`);
//! see TESTING.md for how to read one. `replay` executes one seed twice
//! and verifies the two runs are bit-identical (same fingerprint, same
//! counters). `sharded` drives the real multi-worker `ShardedBroker`
//! runtime (live OS threads) with seeded churn/stall schedules and
//! checks each run against the single-loop oracle plus the per-shard
//! metric identities. `cluster` drives the live federation runtime
//! (sharded node brokers, gossip, multi-hop routing, failure detection)
//! with seeded crash/partition/gossip-loss schedules, checks post-heal
//! convergence and oracle-exact probe delivery, verifies each run's fingerprint is
//! bit-identical across two executions, and ddmin-shrinks the first
//! failing schedule to a minimal reproducer.

use std::process::ExitCode;

use mmcs_chaos::scenario::{self, ScenarioConfig, CHURN_CLIENTS, EDGES};
use mmcs_chaos::{check, generate, shrink};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mmcs-chaos fuzz --seeds N [--base B] [--inject-bug] [--artifact PATH] [--metrics-dir DIR]\n  mmcs-chaos replay SEED [--inject-bug]\n  mmcs-chaos sharded --seeds N [--base B] [--shards K]\n  mmcs-chaos cluster --seeds N [--base B] [--inject-bug] [--artifact PATH]"
    );
    ExitCode::from(2)
}

fn config_for(seed: u64, inject_bug: bool) -> ScenarioConfig {
    ScenarioConfig {
        disable_retransmit: inject_bug,
        ..ScenarioConfig::for_seed(seed)
    }
}

fn schedule_for(config: &ScenarioConfig) -> Vec<mmcs_chaos::Fault> {
    generate(config.seed, config.horizon_ms, EDGES, CHURN_CLIENTS)
}

fn fuzz(
    seeds: u64,
    base: u64,
    inject_bug: bool,
    artifact: Option<&str>,
    metrics_dir: &str,
) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(metrics_dir) {
        eprintln!("cannot create metrics dir {metrics_dir}: {e}");
        return ExitCode::FAILURE;
    }
    let mut clean = 0u64;
    for seed in base..base + seeds {
        let config = config_for(seed, inject_bug);
        let schedule = schedule_for(&config);
        let report = scenario::run(&config, &schedule);
        let dump = format!("{metrics_dir}/seed-{seed}.json");
        if let Err(e) = std::fs::write(&dump, &report.metrics_json) {
            eprintln!("failed to write metrics dump {dump}: {e}");
        }
        let violations = check(&report);
        if violations.is_empty() {
            clean += 1;
            println!(
                "seed {seed}: ok ({} faults, fingerprint {:#018x})",
                schedule.len(),
                report.fingerprint
            );
            continue;
        }
        println!("seed {seed}: FAILED with {} violation(s):", violations.len());
        for v in &violations {
            println!("  - {v}");
        }
        println!("shrinking {} faults…", schedule.len());
        let shrunk = shrink::minimize(&config, &schedule);
        println!(
            "minimal schedule: {} fault(s) after {} runs",
            shrunk.faults.len(),
            shrunk.runs
        );
        for v in &shrunk.violations {
            println!("  - {v}");
        }
        let reproducer = shrink::render_test(&config, &shrunk);
        println!("\n{reproducer}");
        if let Some(path) = artifact {
            match std::fs::write(path, &reproducer) {
                Ok(()) => println!("reproducer written to {path}"),
                Err(e) => eprintln!("failed to write artifact {path}: {e}"),
            }
        }
        println!("replay with: mmcs-chaos replay {seed}");
        return ExitCode::FAILURE;
    }
    println!("all {clean} seed(s) clean; metrics dumps in {metrics_dir}/");
    ExitCode::SUCCESS
}

fn replay(seed: u64, inject_bug: bool) -> ExitCode {
    let config = config_for(seed, inject_bug);
    let schedule = schedule_for(&config);
    let a = scenario::run(&config, &schedule);
    let b = scenario::run(&config, &schedule);
    println!("seed {seed}: {} fault(s)", schedule.len());
    for fault in &schedule {
        println!("  {}", fault.to_literal());
    }
    println!("run A fingerprint: {:#018x}", a.fingerprint);
    println!("run B fingerprint: {:#018x}", b.fingerprint);
    if a.fingerprint != b.fingerprint || a.counters != b.counters {
        eprintln!("NONDETERMINISM: two in-process runs of seed {seed} diverged");
        for (ca, cb) in a.counters.iter().zip(b.counters.iter()) {
            if ca != cb {
                eprintln!("  counter {:?} vs {:?}", ca, cb);
            }
        }
        return ExitCode::FAILURE;
    }
    println!("bit-identical across two runs");
    for (k, p) in a.pairs.iter().enumerate() {
        println!(
            "pair {k}: offered {}, delivered {}, retransmissions {}, dup-suppressed {}",
            p.offered,
            p.delivered.len(),
            p.retransmissions,
            p.duplicates
        );
    }
    let violations = check(&a);
    if violations.is_empty() {
        println!("invariants: all hold");
        ExitCode::SUCCESS
    } else {
        println!("invariants: {} violation(s)", violations.len());
        for v in &violations {
            println!("  - {v}");
        }
        ExitCode::FAILURE
    }
}

fn sharded(seeds: u64, base: u64, shards: Option<usize>) -> ExitCode {
    let mut clean = 0u64;
    for seed in base..base + seeds {
        let mut config = mmcs_chaos::sharded::ShardedChaosConfig::for_seed(seed);
        if let Some(k) = shards {
            config.shards = k;
        }
        let (report, violations) = mmcs_chaos::sharded::check_sharded(&config);
        if violations.is_empty() {
            clean += 1;
            println!(
                "seed {seed}: ok ({} shards, capacity {}, {} deliveries, fingerprint {:#018x})",
                report.config.shards,
                report.config.capacity,
                report.deliveries.len(),
                report.fingerprint
            );
            continue;
        }
        println!("seed {seed}: FAILED with {} violation(s):", violations.len());
        for v in &violations {
            println!("  - {v}");
        }
        println!(
            "reproduce with: mmcs-chaos sharded --seeds 1 --base {seed} --shards {}",
            report.config.shards
        );
        return ExitCode::FAILURE;
    }
    println!("all {clean} sharded seed(s) clean");
    ExitCode::SUCCESS
}

fn cluster(seeds: u64, base: u64, inject_bug: bool, artifact: Option<&str>) -> ExitCode {
    use mmcs_chaos::cluster::{
        check_cluster, generate_cluster_ops, minimize_cluster, render_cluster_test, run_cluster,
        ClusterChaosConfig,
    };
    let mut clean = 0u64;
    for seed in base..base + seeds {
        let mut config = ClusterChaosConfig::for_seed(seed);
        config.lose_interest_on_restart = inject_bug;
        let ops = generate_cluster_ops(&config);
        let (report, violations) = check_cluster(&config, &ops);
        let second = run_cluster(&config, &ops);
        if report.fingerprint != second.fingerprint {
            eprintln!(
                "seed {seed}: NONDETERMINISM — fingerprints {:#018x} vs {:#018x} across two runs",
                report.fingerprint, second.fingerprint
            );
            return ExitCode::FAILURE;
        }
        if violations.is_empty() {
            clean += 1;
            println!(
                "seed {seed}: ok ({} nodes, {}{}, {} deliveries, max hop {}, fingerprint {:#018x} bit-identical on replay)",
                config.nodes,
                format!("{:?}", config.topology).to_lowercase(),
                match config.left_crashed(&ops) {
                    Some(node) => format!(", node {node} left crashed"),
                    None => String::new(),
                },
                report.deliveries.len(),
                report.max_hop,
                report.fingerprint
            );
            continue;
        }
        println!("seed {seed}: FAILED with {} violation(s):", violations.len());
        for v in &violations {
            println!("  - {v}");
        }
        println!("shrinking {} ops…", ops.len());
        let shrunk = minimize_cluster(&config, &ops);
        println!(
            "minimal schedule: {} op(s) after {} runs",
            shrunk.ops.len(),
            shrunk.runs
        );
        for v in &shrunk.violations {
            println!("  - {v}");
        }
        let reproducer = render_cluster_test(&config, &shrunk);
        println!("\n{reproducer}");
        if let Some(path) = artifact {
            match std::fs::write(path, &reproducer) {
                Ok(()) => println!("reproducer written to {path}"),
                Err(e) => eprintln!("failed to write artifact {path}: {e}"),
            }
        }
        println!("reproduce with: mmcs-chaos cluster --seeds 1 --base {seed}");
        return ExitCode::FAILURE;
    }
    println!("all {clean} cluster seed(s) clean, fingerprints bit-identical on replay");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    let Some(command) = iter.next() else {
        return usage();
    };
    let rest: Vec<&String> = iter.collect();
    let inject_bug = rest.iter().any(|a| a.as_str() == "--inject-bug");
    let flag_value = |name: &str| -> Option<&str> {
        rest.iter()
            .position(|a| a.as_str() == name)
            .and_then(|i| rest.get(i + 1))
            .map(|s| s.as_str())
    };
    match command.as_str() {
        "fuzz" => {
            let Some(seeds) = flag_value("--seeds").and_then(|v| v.parse().ok()) else {
                return usage();
            };
            let base = match flag_value("--base") {
                Some(v) => match v.parse() {
                    Ok(b) => b,
                    Err(_) => return usage(),
                },
                None => 0,
            };
            fuzz(
                seeds,
                base,
                inject_bug,
                flag_value("--artifact"),
                flag_value("--metrics-dir").unwrap_or("target/chaos-metrics"),
            )
        }
        "replay" => {
            let Some(seed) = rest
                .iter()
                .find(|a| !a.starts_with("--"))
                .and_then(|v| v.parse().ok())
            else {
                return usage();
            };
            replay(seed, inject_bug)
        }
        "sharded" => {
            let Some(seeds) = flag_value("--seeds").and_then(|v| v.parse().ok()) else {
                return usage();
            };
            let base = match flag_value("--base") {
                Some(v) => match v.parse() {
                    Ok(b) => b,
                    Err(_) => return usage(),
                },
                None => 0,
            };
            let shards = match flag_value("--shards") {
                Some(v) => match v.parse() {
                    Ok(k) => Some(k),
                    Err(_) => return usage(),
                },
                None => None,
            };
            sharded(seeds, base, shards)
        }
        "cluster" => {
            let Some(seeds) = flag_value("--seeds").and_then(|v| v.parse().ok()) else {
                return usage();
            };
            let base = match flag_value("--base") {
                Some(v) => match v.parse() {
                    Ok(b) => b,
                    Err(_) => return usage(),
                },
                None => 0,
            };
            cluster(seeds, base, inject_bug, flag_value("--artifact"))
        }
        _ => usage(),
    }
}
