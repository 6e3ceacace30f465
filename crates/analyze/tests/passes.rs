//! Fixture tests for the call-graph passes: exact `(pass, line)`
//! diagnostics over seeded inputs, fed under the workspace-relative
//! fake paths that put them in scope (roots are keyed by path suffix).

use mmcs_analyze::callgraph::CallGraph;
use mmcs_analyze::lint_sources;
use mmcs_analyze::passes::lock_order;
use mmcs_analyze::scan::SourceFile;

const LOCK_CYCLE: &str = include_str!("fixtures/lock_cycle.rs");
const PANIC_ROOTS: &str = include_str!("fixtures/panic_roots.rs");
const BLOCKING_WORKER: &str = include_str!("fixtures/blocking_worker.rs");

#[test]
fn seeded_lock_cycle_is_detected_statically() {
    let violations = lint_sources(&[("crates/broker/src/fixture.rs", LOCK_CYCLE)]);
    let got: Vec<(&str, usize)> = violations.iter().map(|v| (v.lint, v.line)).collect();
    assert_eq!(
        got,
        vec![("lock-order-cycle", 19)],
        "exactly the seeded inversion, anchored at the closing edge: {violations:#?}"
    );
    assert!(violations[0].message.contains("deadlock"));
    assert!(violations[0].message.contains('a') && violations[0].message.contains('b'));
}

#[test]
fn try_lock_closes_no_cycle() {
    // Drop `thread_two` from the fixture: only the consistent order and
    // the try-acquire remain (`b held, try_lock(a)` — the reverse of
    // thread_one's order, but non-blocking), so the pass must be silent.
    let trimmed: String = LOCK_CYCLE
        .lines()
        .take_while(|l| !l.starts_with("fn thread_two"))
        .chain(LOCK_CYCLE.lines().skip_while(|l| !l.starts_with("fn try_is_not")))
        .map(|l| l.to_string() + "\n")
        .collect();
    let violations = lint_sources(&[("crates/broker/src/fixture.rs", &trimmed)]);
    assert!(
        violations.is_empty(),
        "one consistent order plus a try_lock is not a cycle: {violations:#?}"
    );
}

#[test]
fn panic_constructs_reachable_from_roots_exact_lines() {
    let violations = lint_sources(&[("crates/broker/src/node.rs", PANIC_ROOTS)]);
    let got: Vec<(&str, usize)> = violations.iter().map(|v| (v.lint, v.line)).collect();
    assert_eq!(
        got,
        vec![
            ("panic-reachable-hot-path", 17), // .unwrap()
            ("panic-reachable-hot-path", 23), // frame[idx] dynamic index
            ("panic-reachable-hot-path", 25), // panic!
            ("panic-reachable-hot-path", 31), // .expect(..)
        ],
        "{violations:#?}"
    );
    // The diagnostic carries the call chain from the root.
    assert!(
        violations[0].message.contains("handle_into"),
        "chain must start at the root: {}",
        violations[0].message
    );
    // `cold_helper`'s unwrap (line 36) is unreachable: no finding.
    assert!(!got.iter().any(|&(_, line)| line > 31));
    // Const-indexed subscripts (frame[0], frame[HEADER_LEN..]) pass.
    assert!(!got.iter().any(|&(_, line)| line == 11 || line == 18));
}

#[test]
fn unrooted_file_reports_nothing() {
    // Same content under a path with no declared roots: the panic pass
    // has nowhere to start, so even `.unwrap()` stays silent.
    let violations = lint_sources(&[("crates/h323/src/fixture.rs", PANIC_ROOTS)]);
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn blocking_calls_in_worker_exact_lines() {
    let violations = lint_sources(&[("crates/broker/src/sharded.rs", BLOCKING_WORKER)]);
    let got: Vec<(&str, usize)> = violations.iter().map(|v| (v.lint, v.line)).collect();
    assert_eq!(
        got,
        vec![
            ("blocking-in-shard-worker", 34), // a second wait, in Mailbox::append
            ("blocking-in-shard-worker", 54), // thread::sleep in step
            ("blocking-in-shard-worker", 62), // recv_timeout in helper
        ],
        "{violations:#?}"
    );
    // The wait in `Ingress::take_all` (line 21) is the sanctioned park
    // point; `cold_join`'s `.join()` (line 66) is unreachable.
    assert!(!got.iter().any(|&(_, line)| line == 21 || line == 66));
}

#[test]
fn lock_graph_dot_renders_classes_and_edges() {
    let src = SourceFile::parse("crates/broker/src/fixture.rs", LOCK_CYCLE);
    let files = vec![mmcs_analyze::parse::parse_file(src)];
    let graph = CallGraph::build(&files, |_, _| true);
    let lg = lock_order::build(&files, &graph);
    let dot = lg.to_dot(&files);
    assert!(dot.starts_with("digraph"), "{dot}");
    assert!(
        dot.contains("\"a (crates/broker/src/fixture.rs)\""),
        "class nodes are labelled `name (file)`: {dot}"
    );
    assert!(
        dot.contains("-> \"b (crates/broker/src/fixture.rs)\" [label=\"line 14\"]")
            && dot.contains("-> \"a (crates/broker/src/fixture.rs)\" [label=\"line 19\"]"),
        "both inversion edges render with their acquisition lines: {dot}"
    );
}
