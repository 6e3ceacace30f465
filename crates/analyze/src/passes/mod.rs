//! Call-graph passes over the token-level IR.
//!
//! Where the line lints in [`crate::lints`] judge each line in
//! isolation, the passes here parse every file to the function level
//! ([`crate::parse`]), build the intra-workspace call graph
//! ([`crate::callgraph`]), and judge *reachability*: a panic site is a
//! finding only if the warm publish path can reach it, a blocking call
//! only if a shard worker loop can, a lock acquisition only as part of
//! the global acquisition-order graph.
//!
//! The pass scope is first-party library code (`crates/*/src`, `src/`)
//! with `#[cfg(test)]` regions excluded: integration tests under
//! `tests/` — including the deliberately inverted
//! `tests/lock_order_inversion.rs` — are exercise rigs for the runtime
//! detector, not production code, and never produce pass findings.

pub mod blocking;
pub mod lock_order;
pub mod panic_reach;

use crate::callgraph::CallGraph;
use crate::lints::Violation;
use crate::parse::ParsedFile;

/// Whether a path is in scope for the call-graph passes: first-party
/// library code, excluding the vendored shims.
pub fn pass_scope(path: &str) -> bool {
    !path.starts_with("crates/shims/")
        && (path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/")))
}

/// The parsed workspace plus its call graph — the shared input of every
/// pass, built once per `check`.
pub struct Workspace<'a> {
    /// Every scanned file.
    pub files: &'a [ParsedFile],
    /// Call graph over the in-scope, non-test functions.
    pub graph: CallGraph,
}

impl<'a> Workspace<'a> {
    /// Builds the pass-scoped call graph over `files`.
    pub fn build(files: &'a [ParsedFile]) -> Workspace<'a> {
        let graph = CallGraph::build(files, |path, is_test| pass_scope(path) && !is_test);
        Workspace { files, graph }
    }
}

/// Runs the three call-graph passes and returns their findings
/// (unsorted; the caller merges them with the line lints and sorts).
pub fn run_all(files: &[ParsedFile]) -> Vec<Violation> {
    let ws = Workspace::build(files);
    let mut out = Vec::new();
    lock_order::check(&ws, &mut out);
    panic_reach::check(&ws, &mut out);
    blocking::check(&ws, &mut out);
    out
}

/// Identifiers that never make an index expression dynamic: primitive
/// type names and cast keywords. Everything else outside the workspace
/// `const` set counts as a dynamic subscript.
pub(crate) const NON_DYNAMIC_IDENTS: &[&str] = &[
    "as", "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Keywords that can precede `[` without being an indexed expression
/// (`let [a, b] = ..`, `match x { [..] => .. }`).
pub(crate) const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "break", "if", "else", "match", "move", "static",
    "const", "pub", "use", "as", "box", "dyn", "impl", "fn", "where", "for", "while", "loop",
];
