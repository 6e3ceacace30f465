//! Seeded fault schedules.
//!
//! A schedule is a list of [`Fault`]s, each an *interval*: the fault
//! takes effect at `start_ms` and is healed at `end_ms`. Modelling
//! faults as paired intervals (rather than independent inject/heal
//! operations) keeps every subset of a schedule well-formed, which is
//! what lets the [`crate::shrink`] pass delete faults freely without
//! ever producing a crash-without-restart orphan.

use mmcs_util::rng::DetRng;

/// What a fault does while its interval is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Hard partition: every packet on the link is dropped.
    Partition,
    /// Independent per-packet loss with the given probability.
    Loss(f64),
    /// Jitter (reordering) plus duplication on the link.
    Flaky {
        /// Max uniform extra delay per packet, in milliseconds.
        jitter_ms: u64,
        /// Probability a surviving packet is delivered twice.
        duplicate: f64,
    },
    /// A churn client process crashes at `start_ms` and restarts at
    /// `end_ms`, re-attaching from scratch.
    ClientChurn,
}

/// The resource a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Edge `i` of the broker chain (between broker `i` and `i + 1`).
    Edge(usize),
    /// Churn-client index.
    Client(usize),
}

/// One scheduled fault, active on `[start_ms, end_ms)` of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What happens.
    pub kind: FaultKind,
    /// To which resource.
    pub target: Target,
    /// Virtual time the fault is injected, in ms.
    pub start_ms: u64,
    /// Virtual time the fault is healed, in ms.
    pub end_ms: u64,
}

impl Fault {
    /// Renders the fault as a Rust struct literal (for the reproducer
    /// `#[test]` the shrinker prints).
    pub fn to_literal(&self) -> String {
        let kind = match self.kind {
            FaultKind::Partition => "FaultKind::Partition".to_owned(),
            FaultKind::Loss(p) => format!("FaultKind::Loss({p:?})"),
            FaultKind::Flaky {
                jitter_ms,
                duplicate,
            } => format!("FaultKind::Flaky {{ jitter_ms: {jitter_ms}, duplicate: {duplicate:?} }}"),
            FaultKind::ClientChurn => "FaultKind::ClientChurn".to_owned(),
        };
        let target = match self.target {
            Target::Edge(i) => format!("Target::Edge({i})"),
            Target::Client(i) => format!("Target::Client({i})"),
        };
        format!(
            "Fault {{ kind: {kind}, target: {target}, start_ms: {}, end_ms: {} }}",
            self.start_ms, self.end_ms
        )
    }
}

/// Generates the seeded fault schedule for one run.
///
/// Per resource (edge, churn client) the generator emits zero or
/// more *non-overlapping* intervals inside `[1000, horizon_ms)`, so
/// healing an interval never stomps on a later one for the same
/// resource. Different resources may fault concurrently — that overlap
/// is where the interesting bugs live.
pub fn generate(seed: u64, horizon_ms: u64, edges: usize, clients: usize) -> Vec<Fault> {
    let mut rng = DetRng::new(seed ^ 0xC4A0_5CAB_1E5C_4ED5);
    let mut out = Vec::new();

    for e in 0..edges {
        for (start, end) in intervals(&mut rng, horizon_ms, 2) {
            let kind = match rng.range_u64(0, 3) {
                0 => FaultKind::Partition,
                1 => FaultKind::Loss(rng.range_f64(0.1, 0.5)),
                _ => FaultKind::Flaky {
                    jitter_ms: rng.range_u64(5, 40),
                    duplicate: rng.range_f64(0.05, 0.3),
                },
            };
            out.push(Fault {
                kind,
                target: Target::Edge(e),
                start_ms: start,
                end_ms: end,
            });
        }
    }
    for c in 0..clients {
        for (start, end) in intervals(&mut rng, horizon_ms, 2) {
            out.push(Fault {
                kind: FaultKind::ClientChurn,
                target: Target::Client(c),
                start_ms: start,
                end_ms: end,
            });
        }
    }
    out.sort_by_key(|f| (f.start_ms, f.end_ms));
    out
}

/// Up to `max` non-overlapping `(start, end)` intervals in
/// `[1000, horizon)`, each 300–2500 ms long, separated by ≥ 500 ms.
fn intervals(rng: &mut DetRng, horizon_ms: u64, max: usize) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cursor = 1000u64;
    for _ in 0..max {
        if !rng.chance(0.55) {
            continue;
        }
        let start = cursor + rng.range_u64(0, 3000);
        if start + 300 >= horizon_ms {
            break;
        }
        let end = (start + rng.range_u64(300, 2500)).min(horizon_ms);
        out.push((start, end));
        cursor = end + 500;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42, 12_000, 3, 2);
        let b = generate(42, 12_000, 3, 2);
        assert_eq!(a, b);
        assert_ne!(a, generate(43, 12_000, 3, 2));
    }

    #[test]
    fn intervals_are_well_formed_and_disjoint_per_resource() {
        for seed in 0..200 {
            let faults = generate(seed, 12_000, 3, 2);
            for f in &faults {
                assert!(f.start_ms < f.end_ms, "{f:?}");
                assert!(f.start_ms >= 1000);
                assert!(f.end_ms <= 12_000);
            }
            // Per-resource intervals never overlap.
            for (i, a) in faults.iter().enumerate() {
                for b in faults.iter().skip(i + 1) {
                    if a.target == b.target {
                        assert!(
                            a.end_ms <= b.start_ms || b.end_ms <= a.start_ms,
                            "overlap on {:?}: {a:?} vs {b:?}",
                            a.target
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn some_seeds_produce_each_kind() {
        let mut kinds = [false; 4];
        for seed in 0..100 {
            for f in generate(seed, 12_000, 3, 2) {
                let idx = match f.kind {
                    FaultKind::Partition => 0,
                    FaultKind::Loss(_) => 1,
                    FaultKind::Flaky { .. } => 2,
                    FaultKind::ClientChurn => 3,
                };
                kinds[idx] = true;
            }
        }
        assert!(kinds.iter().all(|k| *k), "kinds covered: {kinds:?}");
    }

    #[test]
    fn fault_literal_round_trips_visually() {
        let f = Fault {
            kind: FaultKind::Flaky {
                jitter_ms: 20,
                duplicate: 0.25,
            },
            target: Target::Edge(1),
            start_ms: 2000,
            end_ms: 3500,
        };
        let lit = f.to_literal();
        assert!(lit.contains("FaultKind::Flaky"));
        assert!(lit.contains("Target::Edge(1)"));
        assert!(lit.contains("start_ms: 2000"));
    }
}
