//! Invariant checkers over a [`RunReport`].
//!
//! Each checker examines the *final* state of a run — after every fault
//! interval has been healed and the settle window has elapsed — so the
//! invariants are eventual properties: the network is allowed arbitrary
//! disorder while faults are live, but must converge afterwards.

use crate::scenario::RunReport;

/// One invariant violation, carrying enough context to diagnose the run
/// without re-executing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A reliable pair's receiver surfaced the wrong event stream
    /// (loss, duplication or reordering leaked past `ReliableReceiver`).
    ReliableStream {
        /// Index into [`crate::scenario::PAIRS`].
        pair: usize,
        /// What went wrong, human-readable.
        detail: String,
    },
    /// A sender still had unacked or untransmitted events at the end of
    /// the settle window.
    NotQuiescent {
        /// Index into [`crate::scenario::PAIRS`].
        pair: usize,
        /// Frames awaiting an ack.
        in_flight: usize,
        /// Accepted events never yet transmitted.
        backlogged: usize,
    },
    /// A broker's route plan diverged from the naive re-walk oracle
    /// after healing.
    RouteDivergence {
        /// Broker chain index.
        broker: usize,
        /// The topic whose plan diverged.
        topic: String,
        /// What diverged, human-readable.
        detail: String,
    },
    /// The live XGSP roster diverged from a fresh model replaying the
    /// delivered command trace, or the live applier rejected commands.
    XgspInconsistent {
        /// What diverged, human-readable.
        detail: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ReliableStream { pair, detail } => {
                write!(f, "reliable stream broken on pair {pair}: {detail}")
            }
            Violation::NotQuiescent {
                pair,
                in_flight,
                backlogged,
            } => write!(
                f,
                "pair {pair} not quiescent after settle: {in_flight} in flight, {backlogged} backlogged"
            ),
            Violation::RouteDivergence {
                broker,
                topic,
                detail,
            } => write!(
                f,
                "route plan diverged from oracle at broker {broker} for {topic}: {detail}"
            ),
            Violation::XgspInconsistent { detail } => {
                write!(f, "XGSP membership inconsistent: {detail}")
            }
        }
    }
}

/// Runs every checker and returns all violations (empty = run passed).
pub fn check(report: &RunReport) -> Vec<Violation> {
    let mut violations = Vec::new();
    check_reliable(report, &mut violations);
    check_quiescence(report, &mut violations);
    check_routes(report, &mut violations);
    check_xgsp(report, &mut violations);
    violations
}

/// (a) Exactly-once, in-order delivery past `ReliableReceiver`: the
/// delivered payload indices must be exactly `0..offered`, in order.
fn check_reliable(report: &RunReport, out: &mut Vec<Violation>) {
    for (pair, p) in report.pairs.iter().enumerate() {
        let expected: Vec<u64> = (0..p.offered).collect();
        if p.delivered == expected {
            continue;
        }
        let detail = if p.delivered.len() < expected.len() {
            let missing: Vec<u64> = expected
                .iter()
                .filter(|e| !p.delivered.contains(e))
                .copied()
                .take(8)
                .collect();
            format!(
                "lost events: delivered {} of {} offered, first missing {missing:?}",
                p.delivered.len(),
                p.offered
            )
        } else {
            let mut seen = std::collections::BTreeSet::new();
            let dup = p.delivered.iter().find(|d| !seen.insert(**d));
            match dup {
                Some(d) => format!("duplicate event {d} surfaced past ReliableReceiver"),
                None => format!(
                    "out-of-order delivery: got {:?}…",
                    &p.delivered[..p.delivered.len().min(16)]
                ),
            }
        };
        out.push(Violation::ReliableStream { pair, detail });
    }
}

/// (d) Quiescence: every sender drained its window and backlog within
/// the post-heal settle window.
fn check_quiescence(report: &RunReport, out: &mut Vec<Violation>) {
    for (pair, p) in report.pairs.iter().enumerate() {
        if !p.sender_idle {
            out.push(Violation::NotQuiescent {
                pair,
                in_flight: p.in_flight,
                backlogged: p.backlogged,
            });
        }
    }
}

/// (b) Route convergence: after healing, every broker's plan for every
/// scenario topic must match the naive re-walk oracle.
fn check_routes(report: &RunReport, out: &mut Vec<Violation>) {
    for plan in &report.plans {
        let mut detail = String::new();
        if plan.actual_local != plan.expected_local {
            detail.push_str(&format!(
                "local {:?} != expected {:?}",
                plan.actual_local, plan.expected_local
            ));
        }
        if plan.actual_remote != plan.expected_remote {
            if !detail.is_empty() {
                detail.push_str("; ");
            }
            detail.push_str(&format!(
                "remote {:?} != expected {:?}",
                plan.actual_remote, plan.expected_remote
            ));
        }
        if !detail.is_empty() {
            out.push(Violation::RouteDivergence {
                broker: plan.broker,
                topic: plan.topic.clone(),
                detail,
            });
        }
    }
}

/// (c) XGSP membership: the live roster reached by applying delivered
/// commands must equal the roster a fresh model reaches replaying the
/// same delivered trace, and no command may have been rejected.
fn check_xgsp(report: &RunReport, out: &mut Vec<Violation>) {
    if report.xgsp_apply_errors > 0 {
        out.push(Violation::XgspInconsistent {
            detail: format!(
                "{} commands rejected by the live session",
                report.xgsp_apply_errors
            ),
        });
    }
    if report.xgsp_digest != report.xgsp_replay_digest {
        out.push(Violation::XgspInconsistent {
            detail: format!(
                "live digest {:#x} != replay digest {:#x}",
                report.xgsp_digest, report.xgsp_replay_digest
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PairReport, PlanCheck};

    fn clean_report() -> RunReport {
        RunReport {
            seed: 1,
            fingerprint: 0,
            counters: Vec::new(),
            pairs: vec![PairReport {
                offered: 3,
                delivered: vec![0, 1, 2],
                sender_idle: true,
                in_flight: 0,
                backlogged: 0,
                retransmissions: 0,
                duplicates: 0,
            }],
            plans: Vec::new(),
            xgsp_digest: 7,
            xgsp_replay_digest: 7,
            xgsp_apply_errors: 0,
            metrics_json: String::new(),
        }
    }

    #[test]
    fn clean_report_passes() {
        assert!(check(&clean_report()).is_empty());
    }

    #[test]
    fn lost_event_is_flagged() {
        let mut r = clean_report();
        r.pairs[0].delivered = vec![0, 2];
        let v = check(&r);
        assert!(matches!(v[0], Violation::ReliableStream { pair: 0, .. }));
        assert!(v[0].to_string().contains("lost events"));
    }

    #[test]
    fn duplicate_event_is_flagged() {
        let mut r = clean_report();
        r.pairs[0].delivered = vec![0, 1, 1, 2];
        let v = check(&r);
        assert!(v[0].to_string().contains("duplicate event 1"));
    }

    #[test]
    fn reorder_is_flagged() {
        let mut r = clean_report();
        r.pairs[0].delivered = vec![0, 2, 1];
        let v = check(&r);
        assert!(v[0].to_string().contains("out-of-order"));
    }

    #[test]
    fn non_idle_sender_is_flagged() {
        let mut r = clean_report();
        r.pairs[0].sender_idle = false;
        r.pairs[0].in_flight = 4;
        let v = check(&r);
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::NotQuiescent { pair: 0, in_flight: 4, .. })));
    }

    #[test]
    fn plan_divergence_is_flagged() {
        let mut r = clean_report();
        r.plans.push(PlanCheck {
            broker: 2,
            topic: "chaos/rel/0".into(),
            actual_local: vec![],
            expected_local: vec![301],
            actual_remote: vec![1],
            expected_remote: vec![1, 3],
        });
        let v = check(&r);
        let msg = v
            .iter()
            .find(|v| matches!(v, Violation::RouteDivergence { broker: 2, .. }))
            .expect("divergence reported")
            .to_string();
        assert!(msg.contains("local"));
        assert!(msg.contains("remote"));
    }

    #[test]
    fn xgsp_divergence_is_flagged() {
        let mut r = clean_report();
        r.xgsp_replay_digest = 8;
        assert!(check(&r)
            .iter()
            .any(|v| matches!(v, Violation::XgspInconsistent { .. })));
        let mut r = clean_report();
        r.xgsp_apply_errors = 2;
        assert!(check(&r)
            .iter()
            .any(|v| v.to_string().contains("rejected")));
    }
}
