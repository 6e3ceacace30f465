//! What the benchmark prints and writes, and how two runs are compared.

use std::path::Path;
use std::process::Command;

use mmcs_bench::json::Json;

use crate::workloads::{Args, Outcome, WORKLOADS};

/// One-way mouth-to-ear budget of interactive conferencing (ITU-T
/// G.114, "IP Video Conferencing: A Tutorial"), in µs. Latencies are
/// also printed as a share of it.
const BUDGET_US: f64 = 150_000.0;

fn num(value: f64) -> Json {
    Json::Num(value)
}

fn text(value: &str) -> Json {
    Json::Str(value.to_string())
}

fn object(entries: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The last line of `one`: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric exactly a `value` and a `unit`.
pub fn result_line(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let record = object(vec![("value", num(m.value)), ("unit", text(m.unit))]);
            (m.name.to_string(), record)
        })
        .collect();
    object(vec![
        (
            "correct",
            Json::Bool(outcome.failed == 0 && outcome.attempted > 0),
        ),
        ("attempted", num(outcome.attempted.max(1) as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// What `run` wants beyond the result line: sample counts, within-run
/// spreads and the phases as they were run.
pub fn detail(args: &Args, outcome: &Outcome) -> Json {
    let phases = outcome
        .phases
        .iter()
        .map(|p| {
            let setting = if p.mode == "open" { "per_s" } else { "window" };
            object(vec![
                ("name", text(&p.name)),
                ("loop", text(p.mode)),
                (setting, num(p.setting)),
                ("seconds", num(p.seconds)),
            ])
        })
        .collect();
    let samples = outcome
        .metrics
        .iter()
        .map(|m| {
            let record = object(vec![
                ("samples", num(m.samples as f64)),
                ("spread", num(m.spread)),
            ]);
            (m.name.to_string(), record)
        })
        .collect();
    object(vec![
        ("workload", text(&args.workload)),
        ("traced", Json::Bool(args.trace)),
        ("loopback", Json::Bool(outcome.loopback)),
        ("phases", Json::Arr(phases)),
        ("samples", Json::Obj(samples)),
        ("failures", text(&outcome.failures)),
    ])
}

/// Every metric by name with its unit, for a person.
pub fn print_outcome(args: &Args, outcome: &Outcome) {
    println!(
        "{} (seed {}, {} s, {})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    for m in &outcome.metrics {
        let mut line = format!(
            "  {:<44} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
        if m.unit == "us" && m.name.contains("lat_") {
            line.push_str(&format!(
                "  ({:.4} % of the 150 ms budget)",
                m.value / BUDGET_US * 100.0
            ));
        }
        println!("{line}");
    }
    let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  fail_ratio {ratio} ({} failed of {} attempted) {}",
        outcome.failed, outcome.attempted, outcome.failures
    );
}

/// `run`'s document and whether every pass was correct.
pub struct Document {
    pub json: Json,
    pub all_correct: bool,
}

/// One pass in a fresh child process of this binary; returns its
/// `DETAIL` line and its result line.
fn child_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["one", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or("");
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix("DETAIL "))
        .unwrap_or("");
    for line in &lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let parse = |what: &str, raw: &str| {
        Json::parse(raw).map_err(|e| format!("{workload}: unreadable {what} line: {e}"))
    };
    Ok((parse("detail", detail)?, parse("result", result)?))
}

/// Joins a pass's values with their sample counts.
fn records(result: &Json, detail: &Json) -> Json {
    let Some(Json::Obj(metrics)) = result.member("metrics") else {
        return Json::Obj(Vec::new());
    };
    let joined = metrics
        .iter()
        .map(|(name, record)| {
            let mut entries = match record {
                Json::Obj(entries) => entries.clone(),
                _ => Vec::new(),
            };
            if let Some(Json::Obj(extra)) = detail.member("samples").and_then(|s| s.member(name)) {
                entries.extend(extra.iter().cloned());
            }
            (name.clone(), Json::Obj(entries))
        })
        .collect();
    Json::Obj(joined)
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs both passes of every workload and assembles `run.json`.
pub fn run_all(seed: u64, seconds: f64, smoke: bool) -> Result<Document, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let (detail, result) = child_pass(workload, seed, seconds, false)?;
        let (traced_detail, traced) = child_pass(workload, seed, seconds, true)?;
        let count = |json: &Json, key: &str| json.member(key).and_then(Json::as_f64).unwrap_or(0.0);
        let attempted = count(&result, "attempted") + count(&traced, "attempted");
        let failed = count(&result, "failed") + count(&traced, "failed");
        for pass in [&result, &traced] {
            all_correct &= pass.member("correct").and_then(Json::as_bool) == Some(true);
        }
        let mut phases = Vec::new();
        for pass in [&detail, &traced_detail] {
            phases.extend(
                pass.member("phases")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .cloned(),
            );
        }
        workloads.push(object(vec![
            ("name", text(workload)),
            (
                "loopback",
                detail.member("loopback").cloned().unwrap_or(Json::Null),
            ),
            ("phases", Json::Arr(phases)),
            ("attempted", num(attempted)),
            ("failed", num(failed)),
            ("fail_ratio", num(failed / attempted.max(1.0))),
            ("end_to_end", records(&result, &detail)),
            ("per_layer", records(&traced, &traced_detail)),
        ]));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let header = object(vec![
        ("nproc", num(nproc as f64)),
        (
            "profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", text(&commit())),
        ("seed", num(seed as f64)),
        ("seconds_per_pass", num(seconds)),
        ("smoke", Json::Bool(smoke)),
    ]);
    let json = object(vec![
        ("schema", text("mmcs.benchmark.v1")),
        ("header", header),
        ("workloads", Json::Arr(workloads)),
    ]);
    Ok(Document { json, all_correct })
}

fn load(path: &Path) -> Result<Json, String> {
    let raw =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&raw).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload<'a>(run: &'a Json, name: &str) -> Option<&'a Json> {
    run.member("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.member("name").and_then(Json::as_str) == Some(name))
}

/// Prints one row per workload × end-to-end metric of `b` against `a`
/// under the directions and bounds of the benchmark spec; returns
/// whether anything got worse. A metric is `worse` when it moved the
/// wrong way by more than its bound, `unresolved` when it did so but a
/// run's own slice-to-slice spread is wider than the bound (or a value
/// is missing), and `ok` otherwise.
pub fn compare(spec: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let spec = load(spec)?;
    let (a, b) = (load(a)?, load(b)?);
    let gated = spec
        .member("end_to_end")
        .and_then(Json::as_array)
        .ok_or("spec has no end_to_end list")?;
    let mut regressed = false;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    for name in WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(&a, name), workload(&b, name)) else {
            println!("{name:<18} missing from one file: unresolved");
            continue;
        };
        for metric in gated {
            let field = |key: &str| metric.member(key).and_then(Json::as_str).unwrap_or("");
            let metric_name = field("name");
            let bound = metric.member("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let read = |w: &Json, key: &str| {
                w.member("end_to_end")?
                    .member(metric_name)?
                    .member(key)?
                    .as_f64()
            };
            let verdict = match (read(wa, "value"), read(wb, "value")) {
                (Some(va), Some(vb)) if va > 0.0 && vb > 0.0 => {
                    let worse_by = if field("better") == "lower" {
                        (vb - va) / va
                    } else {
                        (va - vb) / va
                    };
                    let noisy = [wa, wb]
                        .iter()
                        .any(|w| read(w, "spread").unwrap_or(0.0) > bound);
                    let verdict = match (worse_by > bound, noisy) {
                        (false, _) => "ok",
                        (true, true) => "unresolved",
                        (true, false) => "worse",
                    };
                    println!(
                        "{name:<18} {metric_name:<16} {va:>14.4} {vb:>14.4} {:>8.4} {bound:>6.2}  {verdict}",
                        vb / va
                    );
                    verdict
                }
                _ => {
                    println!("{name:<18} {metric_name:<16} value missing or zero: unresolved");
                    "unresolved"
                }
            };
            regressed |= verdict == "worse";
        }
        let ratio = |w: &Json| w.member("fail_ratio").and_then(Json::as_f64).unwrap_or(0.0);
        let verdict = if ratio(wb) > ratio(wa) { "worse" } else { "ok" };
        println!(
            "{name:<18} {:<16} {:>14} {:>14} {:>8} {:>6}  {verdict}",
            "fail_ratio",
            ratio(wa),
            ratio(wb),
            "",
            "0"
        );
        regressed |= verdict == "worse";
    }
    Ok(regressed)
}
