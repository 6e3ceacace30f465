//! Schedule shrinking: one ddmin ([`ddmin`]) for every harness — the
//! simulator's fault list here, the federation's op list in
//! [`crate::cluster`].
//!
//! When a seed fails, the full generated schedule usually contains many
//! faults that are irrelevant to the violation. Because every fault is a
//! self-contained interval (see [`crate::schedule`]), *any* subset of
//! the schedule is a well-formed schedule, so delta debugging applies
//! directly: partition the fault list, try dropping complements, and
//! keep the smallest subset that still violates an invariant.

use crate::invariants;
use crate::scenario::{self, ScenarioConfig};
use crate::schedule::Fault;

/// Outcome of a shrinking pass.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimal fault subset that still fails.
    pub faults: Vec<Fault>,
    /// Violations the minimal schedule produces.
    pub violations: Vec<invariants::Violation>,
    /// Scenario executions the search spent.
    pub runs: usize,
}

/// True when running `faults` under `config` violates any invariant.
fn fails(config: &ScenarioConfig, faults: &[Fault]) -> bool {
    !invariants::check(&scenario::run(config, faults)).is_empty()
}

/// ddmin over any list whose every subset is well-formed: partition,
/// try dropping each chunk, keep the smallest subset on which `fails`
/// still holds. Returns that subset and how many times `fails` ran.
///
/// Precondition: `fails(items)`. Postcondition: the result still fails
/// and is 1-minimal — no single element can be removed from it without
/// the failure disappearing. The empty list is never tried.
pub fn ddmin<T: Clone>(items: &[T], mut fails: impl FnMut(&[T]) -> bool) -> (Vec<T>, usize) {
    let mut current: Vec<T> = items.to_vec();
    let mut runs = 0usize;
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            // Try the complement: everything except current[start..end].
            let mut candidate: Vec<T> = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            runs += 1;
            if fails(&candidate) {
                current = candidate;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    // Final 1-minimality sweep: drop single elements until none can go.
    let mut i = 0;
    while current.len() > 1 && i < current.len() {
        let mut candidate = current.clone();
        candidate.remove(i);
        runs += 1;
        if fails(&candidate) {
            current = candidate;
            i = 0;
        } else {
            i += 1;
        }
    }
    (current, runs)
}

/// Minimizes a failing fault schedule with [`ddmin`].
///
/// Precondition: `faults` fails under `config` (the caller observed the
/// violation).
pub fn minimize(config: &ScenarioConfig, faults: &[Fault]) -> Shrunk {
    let (faults, runs) = ddmin(faults, |candidate| fails(config, candidate));
    let violations = invariants::check(&scenario::run(config, &faults));
    Shrunk {
        faults,
        violations,
        runs,
    }
}

/// Renders a minimal failing schedule as a copy-pasteable `#[test]`.
pub fn render_test(config: &ScenarioConfig, shrunk: &Shrunk) -> String {
    let mut out = String::new();
    out.push_str("// Minimal reproducer found by `mmcs-chaos fuzz`; paste into a test\n");
    out.push_str("// file with `use mmcs_chaos::{invariants, scenario::ScenarioConfig,\n");
    out.push_str("// schedule::{Fault, FaultKind, Target}};`\n");
    out.push_str(&format!("#[test]\nfn chaos_seed_{}_minimal() {{\n", config.seed));
    out.push_str(&format!(
        "    let config = ScenarioConfig::for_seed({});\n",
        config.seed
    ));
    if config.disable_retransmit {
        out.push_str("    let config = ScenarioConfig { disable_retransmit: true, ..config };\n");
    }
    out.push_str("    let faults = vec![\n");
    for fault in &shrunk.faults {
        out.push_str(&format!("        {},\n", fault.to_literal()));
    }
    out.push_str("    ];\n");
    out.push_str("    let report = mmcs_chaos::scenario::run(&config, &faults);\n");
    out.push_str("    let violations = invariants::check(&report);\n");
    out.push_str("    assert!(violations.is_empty(), \"{violations:?}\");\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultKind, Target};

    #[test]
    fn render_mentions_seed_and_faults() {
        let config = ScenarioConfig::for_seed(77);
        let shrunk = Shrunk {
            faults: vec![Fault {
                kind: FaultKind::Partition,
                target: Target::Edge(1),
                start_ms: 2000,
                end_ms: 3000,
            }],
            violations: Vec::new(),
            runs: 0,
        };
        let text = render_test(&config, &shrunk);
        assert!(text.contains("chaos_seed_77_minimal"));
        assert!(text.contains("FaultKind::Partition"));
        assert!(text.contains("assert!(violations.is_empty()"));
    }

    #[test]
    fn minimize_finds_the_single_guilty_fault() {
        // With retransmission disabled, only the lossy fault can strand
        // frames; the partitions on other edges are red herrings that
        // ddmin must discard. Use a short horizon to keep this fast.
        let config = ScenarioConfig {
            horizon_ms: 4000,
            settle_ms: 4000,
            events_per_pair: 30,
            disable_retransmit: true,
            ..ScenarioConfig::for_seed(5)
        };
        let guilty = Fault {
            kind: FaultKind::Loss(0.4),
            target: Target::Edge(1),
            start_ms: 1000,
            end_ms: 3000,
        };
        let herrings = [
            Fault {
                kind: FaultKind::ClientChurn,
                target: Target::Client(0),
                start_ms: 1200,
                end_ms: 1600,
            },
            Fault {
                kind: FaultKind::ClientChurn,
                target: Target::Client(1),
                start_ms: 2000,
                end_ms: 2400,
            },
        ];
        let schedule = vec![herrings[0], guilty, herrings[1]];
        assert!(fails(&config, &schedule), "seeded bug must fail pre-shrink");
        let shrunk = minimize(&config, &schedule);
        assert!(!shrunk.violations.is_empty());
        assert!(shrunk.faults.contains(&guilty));
        assert!(
            shrunk.faults.len() < schedule.len(),
            "shrink must discard red herrings: {:?}",
            shrunk.faults
        );
    }
}
