//! `mmcs-chaos` — run seeded chaos schedules against the live broker
//! runtimes.
//!
//! ```text
//! mmcs-chaos cluster --seeds N [--base 0] [--inject-bug] [--artifact PATH]
//! mmcs-chaos sharded --seeds N [--base 0] [--shards K]
//! ```
//!
//! `cluster` drives the live federation runtime (sharded node brokers,
//! gossip, multi-hop routing, failure detection) with seeded
//! crash/partition/gossip-loss schedules over seeds `base..base + seeds`.
//! Each seed runs once in process and once over loopback TCP; it passes
//! when both runs hold every invariant (post-heal convergence,
//! oracle-exact probe delivery, exactly-once, per-topic order, hop
//! bound) and their delivery fingerprints are equal. The first failing
//! seed writes both runs' telemetry registries as JSON beside
//! `--artifact` (`seed-N-in-process.json`, `seed-N-tcp.json`; see
//! TESTING.md), is ddmin-shrunk to a minimal schedule, printed as a
//! copy-pasteable `#[test]` (also written to `--artifact`), and exits
//! nonzero. `--inject-bug` restarts crashed nodes with their interest
//! wiped, a bug the harness must catch.
//!
//! `sharded` drives the real multi-worker `ShardedBroker` runtime with
//! seeded churn/stall schedules and checks each run against the
//! single-loop oracle plus the per-shard metric identities.

use std::path::Path;
use std::process::ExitCode;

use mmcs_chaos::cluster::{
    check_cluster, generate_cluster_ops, minimize_cluster, render_cluster_test, ClusterChaosConfig,
};
use mmcs_chaos::sharded::{check_sharded, ShardedChaosConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mmcs-chaos cluster --seeds N [--base B] [--inject-bug] [--artifact PATH]\n  mmcs-chaos sharded --seeds N [--base B] [--shards K]"
    );
    ExitCode::from(2)
}

fn sharded(seeds: u64, base: u64, shards: Option<usize>) -> ExitCode {
    let mut clean = 0u64;
    for seed in base..base + seeds {
        let mut config = ShardedChaosConfig::for_seed(seed);
        if let Some(k) = shards {
            config.shards = k;
        }
        let (report, violations) = check_sharded(&config);
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

/// Writes `contents` to `path`, creating its directory, and says where
/// it went.
fn write(path: &Path, contents: &str, what: &str) {
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    let written = dir.map_or(Ok(()), std::fs::create_dir_all);
    match written.and_then(|()| std::fs::write(path, contents)) {
        Ok(()) => println!("{what} written to {}", path.display()),
        Err(e) => eprintln!("failed to write {what} {}: {e}", path.display()),
    }
}

fn cluster(seeds: u64, base: u64, inject_bug: bool, artifact: Option<&str>) -> ExitCode {
    let mut clean = 0u64;
    for seed in base..base + seeds {
        let mut config = ClusterChaosConfig::for_seed(seed);
        config.lose_interest_on_restart = inject_bug;
        let ops = generate_cluster_ops(&config);
        let (reports, violations) = check_cluster(&config, &ops);
        if violations.is_empty() {
            clean += 1;
            let report = &reports[0];
            println!(
                "seed {seed}: ok ({} nodes, {}{}, {} deliveries, max hop {}, fingerprint {:#018x} in process and over TCP)",
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
        let artifact = artifact.map(Path::new);
        if let Some(artifact) = artifact {
            for report in &reports {
                let name = format!("seed-{seed}-{}.json", report.transport.slug());
                write(&artifact.with_file_name(name), &report.metrics_json, "metrics");
            }
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
            write(path, &reproducer, "reproducer");
        }
        println!("reproduce with: mmcs-chaos cluster --seeds 1 --base {seed}");
        return ExitCode::FAILURE;
    }
    println!("all {clean} cluster seed(s) clean, fingerprints equal in process and over TCP");
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
    let Some(seeds) = flag_value("--seeds").and_then(|v| v.parse().ok()) else {
        return usage();
    };
    let base = match flag_value("--base").map(str::parse) {
        Some(Ok(b)) => b,
        Some(Err(_)) => return usage(),
        None => 0,
    };
    match command.as_str() {
        "sharded" => {
            let shards = match flag_value("--shards").map(str::parse) {
                Some(Ok(k)) => Some(k),
                Some(Err(_)) => return usage(),
                None => None,
            };
            sharded(seeds, base, shards)
        }
        "cluster" => cluster(seeds, base, inject_bug, flag_value("--artifact")),
        _ => usage(),
    }
}
