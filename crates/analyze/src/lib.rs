//! `mmcs-analyze` — project-specific static analysis for the Global-MMCS
//! workspace.
//!
//! The broker network is a long-running concurrent service; the paper's
//! deployment story ("serve heavy traffic from millions of users") makes
//! two whole classes of defect unacceptable: **panics in library code**
//! and **lock-order inversions**. This crate is the static half of the
//! defense (the dynamic half is the instrumented `parking_lot` shim):
//!
//! | lint | guarantees |
//! |------|------------|
//! | `panic-reachable-hot-path` | no `.unwrap()`/`.expect()`/`panic!`/dynamic indexing reachable from the hot-path roots |
//! | `lock-order-cycle` | the static lock acquisition-order graph is acyclic |
//! | `blocking-in-shard-worker` | no blocking call reachable from a shard-worker loop outside the ingress drain |
//! | `no-std-sync-locks` | every lock goes through the instrumented `parking_lot` shim |
//! | `no-direct-instant-now` | no wall-clock reads outside `util::time` (determinism) |
//! | `pub-item-doc-coverage` | `broker` and `xgsp` public items are documented |
//! | `shim-api-drift` | vendored shims export nothing the workspace does not use |
//!
//! The engine is deliberately dependency-free and reads Rust once: a
//! hand-rolled lexer ([`lexer`]) and an item parser ([`parse`]) turn
//! each file into one [`ParsedFile`] — tokens, functions, consts, and
//! the `#[cfg(test)]` and `macro_rules!` spans. The line lints
//! ([`lints`]) match token sequences in it; the call-graph passes
//! ([`passes`]) build an intra-workspace call graph ([`callgraph`]) over
//! the same files and judge *reachability* instead of lines in
//! isolation. Deliberate violations live in a checked-in [`allowlist`]
//! (`analyze.allow`) whose entries require a justification and go stale
//! (error) the moment the code they cover changes.
//!
//! Run it as `cargo run -p mmcs-analyze -- check`; `-- graph --dot`
//! emits the call graph and the static lock-order graph in Graphviz
//! format.

pub mod allowlist;
pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod passes;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use allowlist::Entry;
use lints::Violation;
use parse::{parse_file, ParsedFile};

/// Default allowlist file name, resolved against the workspace root.
pub const ALLOWLIST_FILE: &str = "analyze.allow";

/// Outcome of a full workspace check.
#[derive(Debug)]
pub struct Report {
    /// Violations not covered by the allowlist.
    pub violations: Vec<Violation>,
    /// Violations suppressed by allowlist entries.
    pub suppressed: Vec<Violation>,
    /// Allowlist entries that matched nothing (errors).
    pub stale: Vec<Entry>,
    /// Problems parsing the allowlist file itself.
    pub allowlist_errors: Vec<allowlist::ParseError>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the check passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty() && self.allowlist_errors.is_empty()
    }
}

/// Lints a set of in-memory `(path, content)` sources — the same pipeline
/// `check_workspace` runs on disk files. Used by the fixture tests and
/// usable by other tooling.
pub fn lint_sources(sources: &[(&str, &str)]) -> Vec<Violation> {
    let files: Vec<ParsedFile> = sources
        .iter()
        .map(|(path, content)| parse_file(path, content))
        .collect();
    run_lints_and_passes(&files)
}

/// Runs the line lints and the call-graph passes over one file set,
/// merged and sorted by path, line, lint.
fn run_lints_and_passes(files: &[ParsedFile]) -> Vec<Violation> {
    let mut violations = lints::run_all(files);
    violations.extend(passes::run_all(files));
    violations.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.lint.cmp(b.lint))
    });
    violations
}

/// Applies an allowlist (by text) to a violation set, returning
/// `(kept, suppressed, stale_entries, parse_errors)`.
pub fn apply_allowlist(
    allow_text: &str,
    violations: Vec<Violation>,
) -> (
    Vec<Violation>,
    Vec<Violation>,
    Vec<Entry>,
    Vec<allowlist::ParseError>,
) {
    let (entries, errors) = allowlist::parse(allow_text);
    let (kept, suppressed, stale_idx) = allowlist::apply(&entries, violations);
    let stale = stale_idx.into_iter().map(|i| entries[i].clone()).collect();
    (kept, suppressed, stale, errors)
}

/// Runs every lint over the workspace rooted at `root`, applying the
/// allowlist at `root/analyze.allow` if present.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading sources.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let files = load_workspace(root)?;
    let violations = run_lints_and_passes(&files);
    let allow_path = root.join(ALLOWLIST_FILE);
    let allow_text = if allow_path.is_file() {
        fs::read_to_string(&allow_path)?
    } else {
        String::new()
    };
    let (kept, suppressed, stale, allowlist_errors) = apply_allowlist(&allow_text, violations);
    Ok(Report {
        violations: kept,
        suppressed,
        stale,
        allowlist_errors,
        files_scanned: files.len(),
    })
}

/// Reads and parses every workspace `.rs` file under `root`, in sorted
/// path order (the same file set `check_workspace` lints).
pub fn load_workspace(root: &Path) -> io::Result<Vec<ParsedFile>> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let content = fs::read_to_string(path)?;
        let rel = relative_slash(root, path);
        files.push(parse_file(&rel, &content));
    }
    Ok(files)
}

/// Builds the call graph and the static lock-order graph for the
/// workspace at `root` and returns their Graphviz DOT renderings as
/// `(call_graph, lock_order_graph)`.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading sources.
pub fn graph_dot(root: &Path) -> io::Result<(String, String)> {
    let files = load_workspace(root)?;
    let ws = passes::Workspace::build(&files);
    let lock = passes::lock_order::build(&files, &ws.graph);
    Ok((ws.graph.to_dot(&files), lock.to_dot(&files)))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` directories hold deliberately-bad lint inputs
            // (e.g. crates/analyze/tests/fixtures); they are data, not
            // workspace code.
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
