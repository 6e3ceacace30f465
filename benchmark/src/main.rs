//! Wall-clock benchmark of the live broker, the federation and the
//! simulator. See `benchmark/README.md`.
//!
//! ```text
//! mmcs-benchmark one --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mmcs-benchmark run [--seed <n>] [--seconds <s>] [--smoke]
//! mmcs-benchmark compare <a.json> <b.json>
//! ```
//!
//! `one` measures one workload in this process and prints a JSON result
//! as its last line (the form `BENCHMARK.json` names). `run` runs every
//! workload, each pass in a fresh child process of this binary, prints
//! every metric and writes `benchmark/out/run.json`. `compare` applies
//! the directions and bounds of `BENCHMARK.json` to two such files.

mod load;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use workloads::Args;

/// Where `run` and traced passes leave their files, from the repo root.
const OUT_DIR: &str = "benchmark/out";
/// Seconds a pass measures unless told otherwise; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Seconds per pass under `--smoke`: the same rounds, a tenth of a
/// second per phase.
const SMOKE_SECONDS: f64 = 1.0;

/// Value of `--name <value>` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot read {text:?}")),
        None => Ok(default),
    }
}

fn one(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("one: --workload <name> is required")?;
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let args = Args {
        workload: workload.to_string(),
        seed: parsed(args, "--seed", 1)?,
        seconds,
        trace: parsed::<u8>(args, "--trace", 0)? != 0,
    };
    let outcome = workloads::run(&args, Path::new(OUT_DIR))?;
    report::print_outcome(&args, &outcome);
    println!("DETAIL {}", report::detail(&args, &outcome).render());
    println!("{}", report::result_line(&outcome).render());
    Ok(ExitCode::SUCCESS)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let default = if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", default)?;
    let document = report::run_all(seed, seconds, smoke)?;
    let path = Path::new(OUT_DIR).join("run.json");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    std::fs::write(&path, document.json.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if document.all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare: expected <a.json> <b.json>".into());
    };
    let regressed = report::compare(Path::new("BENCHMARK.json"), Path::new(a), Path::new(b))?;
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) if command == "one" => one(rest),
        Some((command, rest)) if command == "run" => run(rest),
        Some((command, rest)) if command == "compare" => compare(rest),
        _ => Err("usage: mmcs-benchmark one|run|compare … (see benchmark/README.md)".into()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("mmcs-benchmark: {message}");
        ExitCode::from(2)
    })
}
