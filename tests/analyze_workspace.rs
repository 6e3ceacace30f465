//! `mmcs-analyze` over this repository: the workspace is clean under its
//! checked-in allowlist, and every root and park point the call-graph
//! passes declare still names a function.
//!
//! The passes find their roots by `(path suffix, name)`. A root that
//! names nothing is skipped without a word, so renaming
//! `ShardWorker::run` would quietly narrow the no-panic and no-blocking
//! guarantees; the second test makes that rename fail instead.

use std::path::Path;

use mmcs_analyze::passes::{blocking, panic_reach, Workspace};
use mmcs_analyze::{check_workspace, load_workspace};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn real_workspace_is_clean_under_checked_in_allowlist() {
    // `cargo test` itself enforces the lints: the repository must stay
    // clean with analyze.allow, and analyze.allow must carry no stale
    // entries or parse errors.
    let report = check_workspace(root()).expect("workspace scan");
    assert!(report.files_scanned > 100, "walker must see the workspace");
    assert!(
        report.is_clean(),
        "violations: {:#?}\nstale: {:#?}\nerrors: {:#?}",
        report.violations,
        report.stale,
        report.allowlist_errors
    );
}

#[test]
fn every_declared_root_resolves() {
    let files = load_workspace(root()).expect("workspace scan");
    let ws = Workspace::build(&files);
    // The graph holds only in-scope, non-test functions.
    let resolves = |path: &str, ty: Option<&str>, name: &str| {
        ws.graph.nodes.iter().any(|n| {
            let def = &files[n.file].fns[n.def];
            files[n.file].path.ends_with(path)
                && def.name == name
                && ty.is_none_or(|ty| def.self_type.as_deref() == Some(ty))
        })
    };
    let mut missing = Vec::new();
    for &(path, name) in panic_reach::ROOTS {
        if !resolves(path, None, name) {
            missing.push(format!("panic root {path} {name}"));
        }
    }
    for &(path, ty, name) in blocking::ROOTS.iter().chain(blocking::PARK_POINTS) {
        if !resolves(path, Some(ty), name) {
            missing.push(format!("blocking root or park point {path} {ty}::{name}"));
        }
    }
    assert!(missing.is_empty(), "declared but resolving to no function: {missing:#?}");
}
