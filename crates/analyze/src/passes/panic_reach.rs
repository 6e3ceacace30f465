//! `panic-reachable-hot-path`: call-graph reachability of panicking
//! constructs from the declared hot-path roots.
//!
//! The old `no-unwrap-in-lib` lint judged every line of nine crates the
//! same way, which made cold startup code (`thread::Builder::spawn`)
//! pay the same tax as the per-packet path and pushed fifteen entries
//! into the allowlist. This pass instead declares the warm roots — the
//! broker dispatch, the shard-worker loop, the wire codec, the buffer
//! pool — and walks the call graph: a panic site is a finding only if
//! one of those roots can actually reach it. Panicking constructs are
//! `.unwrap()`, `.expect(..)`, the panicking macros (`panic!`,
//! `unreachable!`, `todo!`, `unimplemented!`), and *dynamic* indexing —
//! a subscript containing any identifier that is not a workspace
//! `const` (so `frame[OFF_VERSION]` passes, `links[target]` does not).
//! `assert!`/`debug_assert!` are deliberately out of scope: an assert
//! states an invariant, the constructs above silently assume one.

use std::collections::BTreeSet;

use crate::lexer::TokKind;
use crate::lints::Violation;
use crate::parse::ParsedFile;

use super::{Workspace, NON_DYNAMIC_IDENTS, NON_INDEX_KEYWORDS};

/// The lint name this pass reports under.
pub const LINT: &str = "panic-reachable-hot-path";

/// The hot-path roots: `(path suffix, fn name)`. Kept deliberately
/// short and reviewed in DESIGN.md §12 — adding a root widens the
/// no-panic guarantee, removing one narrows it.
pub const ROOTS: &[(&str, &str)] = &[
    ("crates/broker/src/node.rs", "handle_into"),
    ("crates/broker/src/sharded.rs", "run"),
    ("crates/broker/src/cluster/plane.rs", "publish"),
    ("crates/broker/src/cluster/plane.rs", "receive"),
    ("crates/broker/src/cluster/plane.rs", "on_frame"),
    ("crates/broker/src/cluster/tcp.rs", "run_link"),
    ("crates/broker/src/cluster/tcp.rs", "run_reader"),
    ("crates/broker/src/cluster/tcp.rs", "next_record"),
    ("crates/broker/src/cluster/tcp.rs", "on_record"),
    ("crates/broker/src/cluster/tcp.rs", "release"),
    ("crates/broker/src/cluster/liveness.rs", "round"),
    ("crates/broker/src/sharded.rs", "process_batch"),
    ("crates/broker/src/wire.rs", "encode"),
    ("crates/broker/src/wire.rs", "encode_into"),
    ("crates/broker/src/wire.rs", "decode_shared"),
    ("crates/broker/src/wire.rs", "parse"),
    ("crates/core/src/rendezvous.rs", "inbound"),
    ("crates/util/src/pool.rs", "acquire"),
    ("crates/util/src/pool.rs", "release"),
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// One panicking construct found in a function body.
#[derive(Debug)]
pub(crate) struct PanicSite {
    pub line: u32,
    pub what: &'static str,
}

/// The check pass: BFS from every declared root, then scan each
/// reachable body for panicking constructs. Diagnostics carry the call
/// chain from the nearest root so the reader can judge the path.
pub fn check(ws: &Workspace, out: &mut Vec<Violation>) {
    let consts = workspace_consts(ws.files);
    let mut roots = Vec::new();
    for &(path, name) in ROOTS {
        roots.extend(ws.graph.find_all(ws.files, path, name));
    }
    let parent = ws.graph.reach(&roots);
    let mut ids: Vec<_> = parent.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let node = &ws.graph.nodes[id];
        let file = &ws.files[node.file];
        for site in panic_sites(file, file.fns[node.def].body.clone(), &consts) {
            out.push(Violation::new(
                LINT,
                file,
                site.line,
                format!(
                    "{} reachable from a hot-path root: {}",
                    site.what,
                    ws.graph.chain(ws.files, &parent, id)
                ),
            ));
        }
    }
}

/// Every `const`/`static` item name in the workspace — subscripts built
/// only from these (plus literals and casts) are compile-time offsets,
/// not dynamic indexing.
pub(crate) fn workspace_consts(files: &[ParsedFile]) -> BTreeSet<String> {
    files
        .iter()
        .flat_map(|f| f.consts.iter().cloned())
        .collect()
}

/// Scans one token range for panicking constructs.
pub(crate) fn panic_sites(
    file: &ParsedFile,
    body: std::ops::Range<usize>,
    consts: &BTreeSet<String>,
) -> Vec<PanicSite> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for i in body {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            let prev_dot = i >= 1 && toks[i - 1].is_punct(".");
            let next_open = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            if t.text == "unwrap"
                && prev_dot
                && next_open
                && toks.get(i + 2).is_some_and(|n| n.is_punct(")"))
            {
                out.push(PanicSite { line: t.line, what: "`.unwrap()`" });
            } else if t.text == "expect" && prev_dot && next_open {
                out.push(PanicSite { line: t.line, what: "`.expect(..)`" });
            } else if PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                out.push(PanicSite { line: t.line, what: "a panicking macro" });
            }
        } else if t.is_punct("[") {
            if let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) {
                let indexes_expr = (prev.kind == TokKind::Ident
                    && !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()))
                    || prev.is_punct(")")
                    || prev.is_punct("]");
                if indexes_expr && subscript_is_dynamic(file, i, consts) {
                    out.push(PanicSite { line: t.line, what: "dynamic indexing" });
                }
            }
        }
    }
    out
}

/// Whether the bracket group opening at `open` contains an identifier
/// that is not a workspace constant (and not a primitive-type cast):
/// such a subscript can be out of range at runtime.
fn subscript_is_dynamic(file: &ParsedFile, open: usize, consts: &BTreeSet<String>) -> bool {
    let toks = &file.toks;
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.kind == TokKind::Ident
            && !consts.contains(&t.text)
            && !NON_DYNAMIC_IDENTS.contains(&t.text.as_str())
        {
            return true;
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes;
    use crate::parse::parse_file;

    fn run(srcs: &[(&str, &str)]) -> Vec<(String, usize)> {
        let files: Vec<_> = srcs.iter().map(|(p, s)| parse_file(p, s)).collect();
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        check(&ws, &mut out);
        out.into_iter().map(|v| (v.path, v.line)).collect()
    }

    #[test]
    fn unwrap_in_unreachable_fn_is_silent() {
        let hits = run(&[(
            "crates/broker/src/node.rs",
            "pub fn handle_into() {}\npub fn cold_setup() { None::<u32>.unwrap(); }\n",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn unwrap_reachable_from_root_is_flagged_with_chain() {
        let hits = run(&[(
            "crates/broker/src/node.rs",
            "pub fn handle_into() { helper(); }\nfn helper() { None::<u32>.unwrap(); }\n",
        )]);
        assert_eq!(hits, vec![("crates/broker/src/node.rs".to_string(), 2)]);
    }

    #[test]
    fn const_offset_indexing_is_allowed_dynamic_is_not() {
        let hits = run(&[(
            "crates/broker/src/wire.rs",
            "const OFF: usize = 2;\npub fn parse(buf: &[u8], n: usize) -> u8 {\n    let a = buf[OFF];\n    let b = buf[n];\n    a + b\n}\n",
        )]);
        assert_eq!(hits, vec![("crates/broker/src/wire.rs".to_string(), 4)]);
    }

    #[test]
    fn unwrap_or_is_not_a_panic_site() {
        let hits = run(&[(
            "crates/broker/src/wire.rs",
            "pub fn decode(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn test_code_is_out_of_scope() {
        let hits = run(&[(
            "crates/broker/src/node.rs",
            "pub fn handle_into() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::handle_into(); None::<u32>.unwrap(); }\n}\n",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn scope_is_first_party_lib_only() {
        assert!(passes::pass_scope("crates/broker/src/node.rs"));
        assert!(passes::pass_scope("src/lib.rs"));
        assert!(!passes::pass_scope("crates/shims/parking_lot/src/lib.rs"));
        assert!(!passes::pass_scope("tests/lock_order_inversion.rs"));
    }
}
