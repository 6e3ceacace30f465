//! Fixture tests for the lint engine: exact diagnostics over known-bad
//! and known-clean inputs, and the allowlist round trip. The self-check
//! of the real workspace lives in the root `tests/analyze_workspace.rs`.
//!
//! The fixtures live under `fixtures/` as plain `.rs` files (cargo does
//! not compile them; the workspace walker skips `fixtures` directories).
//! They are fed to the engine under scoped fake paths, because every
//! lint's coverage is keyed off the workspace-relative path.

use mmcs_analyze::allowlist::render_entry;
use mmcs_analyze::{apply_allowlist, lint_sources};

const KNOWN_BAD: &str = include_str!("fixtures/known_bad.rs");
const KNOWN_CLEAN: &str = include_str!("fixtures/known_clean.rs");
const SHIM_FIXTURE: &str = include_str!("fixtures/shim_fixture.rs");
const HOT_PATH_BAD: &str = include_str!("fixtures/hot_path_bad.rs");

/// The strictest scope: a broker library file is covered by every
/// per-file lint (panic reachability is a call-graph pass and fires
/// only on code reachable from the hot-path roots, so the bare
/// `.unwrap()`/`panic!` lines in the fixture stay silent here — see
/// `tests/passes.rs` for the reachable case).
const BROKER_PATH: &str = "crates/broker/src/fixture.rs";

#[test]
fn known_bad_produces_exact_diagnostics() {
    let violations = lint_sources(&[(BROKER_PATH, KNOWN_BAD)]);
    let got: Vec<(&str, usize)> = violations.iter().map(|v| (v.lint, v.line)).collect();
    assert_eq!(
        got,
        vec![
            ("no-std-sync-locks", 5),
            ("pub-item-doc-coverage", 7),
            ("pub-item-doc-coverage", 9),
            ("no-direct-instant-now", 11),
        ],
        "full diagnostic set over fixtures/known_bad.rs: {violations:#?}"
    );
    assert!(violations[1].message.contains("`Undocumented`"));
    assert!(violations[2].message.contains("`leaky`"));
    assert_eq!(violations[0].path, BROKER_PATH);
    // Snippets are whitespace-normalized source lines (allowlist keys).
    assert_eq!(violations[0].snippet, "use std::sync::Mutex;");
}

#[test]
fn scope_is_per_lint_not_global() {
    // The same bad file in a crate outside the panic-free and
    // doc-covered sets still trips the workspace-wide lock and clock
    // lints — and nothing else.
    let violations = lint_sources(&[("crates/util/src/fixture.rs", KNOWN_BAD)]);
    let got: Vec<(&str, usize)> = violations.iter().map(|v| (v.lint, v.line)).collect();
    assert_eq!(
        got,
        vec![("no-std-sync-locks", 5), ("no-direct-instant-now", 11)]
    );
}

#[test]
fn known_clean_is_silent() {
    let violations = lint_sources(&[(BROKER_PATH, KNOWN_CLEAN)]);
    assert!(
        violations.is_empty(),
        "known_clean.rs must produce no diagnostics: {violations:#?}"
    );
}

#[test]
fn shim_drift_depends_on_workspace_usage() {
    let shim = ("crates/shims/fake/src/lib.rs", SHIM_FIXTURE);
    // `orphan` unused by the rest of the workspace: drift.
    let violations = lint_sources(&[shim, ("crates/broker/src/user.rs", "fn f() { fake::used(); }\n")]);
    let got: Vec<(&str, usize)> = violations.iter().map(|v| (v.lint, v.line)).collect();
    assert_eq!(got, vec![("shim-api-drift", 6)]);
    assert!(violations[0].message.contains("`orphan`"));
    // Both exports exercised: silence.
    let violations = lint_sources(&[
        shim,
        ("crates/broker/src/user.rs", "fn f() { fake::used(); fake::orphan(); }\n"),
    ]);
    assert!(violations.is_empty(), "{violations:#?}");
    // Usage inside the shim itself does not count.
    let violations = lint_sources(&[
        shim,
        ("crates/shims/fake/src/extra.rs", "fn g() { crate::used(); crate::orphan(); }\n"),
    ]);
    assert_eq!(violations.len(), 2, "self-use is not workspace use");
    // A mention in a comment or a string is not a use.
    let violations = lint_sources(&[
        shim,
        ("crates/broker/src/user.rs", "// fake::orphan()\nfn f() { fake::used(\"orphan\"); }\n"),
    ]);
    let got: Vec<(&str, usize)> = violations.iter().map(|v| (v.lint, v.line)).collect();
    assert_eq!(got, vec![("shim-api-drift", 6)]);
    // The body of the shim's own exported macro expands in the caller's
    // crate, so a name used only there is in use.
    let violations = lint_sources(&[
        shim,
        ("crates/shims/fake/src/mac.rs", "#[macro_export]\nmacro_rules! call {\n    () => { $crate::orphan() };\n}\n"),
        ("crates/broker/src/user.rs", "fn f() { fake::used(); fake::call!(); }\n"),
    ]);
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn hot_path_copy_flagged_only_on_hot_path_modules() {
    // Fed under a real hot-path module path: exact diagnostics, with
    // comment mentions and `#[cfg(test)]` code skipped.
    let violations = lint_sources(&[("crates/broker/src/sharded.rs", HOT_PATH_BAD)]);
    let got: Vec<(&str, usize)> = violations.iter().map(|v| (v.lint, v.line)).collect();
    assert_eq!(
        got,
        vec![
            ("no-hot-path-payload-copy", 5),
            ("no-hot-path-payload-copy", 8),
            ("no-hot-path-payload-copy", 9),
        ],
        "{violations:#?}"
    );
    assert!(violations[0].message.contains("`.to_vec()`"));
    assert!(violations[1].message.contains("`Vec<Vec<u8>>`"));
    // The same file under a non-hot-path module is silent: scoping is
    // per-file, not per-crate.
    let violations = lint_sources(&[(BROKER_PATH, HOT_PATH_BAD)]);
    assert!(
        violations.is_empty(),
        "cold modules may copy freely: {violations:#?}"
    );
}

#[test]
fn allowlist_round_trip_suppresses_everything() {
    let violations = lint_sources(&[(BROKER_PATH, KNOWN_BAD)]);
    let count = violations.len();
    let allow: String = violations
        .iter()
        .map(|v| render_entry(v).replace("TODO justify", "fixture: reviewed") + "\n")
        .collect();
    let (kept, suppressed, stale, errors) = apply_allowlist(&allow, violations);
    assert!(kept.is_empty(), "every violation must be suppressed: {kept:#?}");
    assert_eq!(suppressed.len(), count);
    assert!(stale.is_empty());
    assert!(errors.is_empty());
}

#[test]
fn stale_allowlist_entries_are_reported() {
    // An entry whose code was fixed must surface as stale, not vanish.
    let allow = "panic-reachable-hot-path :: crates/broker/src/fixture.rs :: let gone = fixed.unwrap(); :: was fixed\n";
    let (kept, suppressed, stale, errors) =
        apply_allowlist(allow, lint_sources(&[(BROKER_PATH, KNOWN_CLEAN)]));
    assert!(kept.is_empty() && suppressed.is_empty() && errors.is_empty());
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].line, 1);
    assert_eq!(stale[0].snippet, "let gone = fixed.unwrap();");
}

#[test]
fn allowlist_requires_a_justification() {
    let allow = "panic-reachable-hot-path :: p.rs :: x.unwrap();\n\
                 panic-reachable-hot-path :: p.rs :: y.unwrap(); ::   \n";
    let (_, _, _, errors) = apply_allowlist(allow, Vec::new());
    assert_eq!(errors.len(), 2, "missing and blank justifications are errors");
}
