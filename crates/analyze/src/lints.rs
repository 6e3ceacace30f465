//! The project-specific line lints.
//!
//! Every lint is a pure function from the [`ParsedFile`] set to a list
//! of [`Violation`]s. A lint matches token sequences, so text in
//! comments and literals never matches, and it skips `#[cfg(test)]` and
//! `macro_rules!` spans by token index. Scoping rules (which crates a
//! lint covers) live here, next to the lint logic, so the engine stays
//! generic.

use std::collections::{BTreeSet, HashSet};

use crate::allowlist::normalize_ws;
use crate::lexer::{Tok, TokKind};
use crate::parse::{skip_balanced, ParsedFile};

/// One diagnostic produced by a lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable lint name, e.g. `no-std-sync-locks`.
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Whitespace-normalized source line, used for allowlist matching.
    pub snippet: String,
}

impl Violation {
    pub(crate) fn new(lint: &'static str, file: &ParsedFile, line: u32, message: String) -> Violation {
        let line = line as usize;
        Violation {
            lint,
            path: file.path.clone(),
            line,
            message,
            snippet: normalize_ws(file.raw.get(line - 1).map_or("", String::as_str)),
        }
    }
}

/// Crates whose public items must be documented (`pub-item-doc-coverage`).
pub const DOC_COVERED_CRATES: &[&str] = &["broker", "telemetry", "xgsp"];

/// Per-packet hot-path modules (`no-hot-path-payload-copy`): every file
/// listed here sits on the path a media packet takes through the system,
/// where a payload copy is a per-packet allocator hit. Exact paths, not
/// whole crates, so cold control-plane modules keep their freedom.
pub const HOT_PATH_MODULES: &[&str] = &[
    "crates/broker/src/event.rs",
    "crates/broker/src/node.rs",
    "crates/broker/src/reliable.rs",
    "crates/broker/src/sharded.rs",
    "crates/broker/src/wire.rs",
    "crates/core/src/rendezvous.rs",
    "crates/rtp/src/packet.rs",
    "crates/streaming/src/helix.rs",
    "crates/streaming/src/producer.rs",
];

/// All lint names, in reporting order. The first three are the
/// call-graph passes in [`crate::passes`]; the rest are line lints.
pub const LINT_NAMES: &[&str] = &[
    "panic-reachable-hot-path",
    "lock-order-cycle",
    "blocking-in-shard-worker",
    "no-std-sync-locks",
    "no-direct-instant-now",
    "no-hot-path-payload-copy",
    "pub-item-doc-coverage",
    "shim-api-drift",
];

fn in_crate_src(path: &str, crates: &[&str]) -> bool {
    crates
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

fn is_shim(path: &str) -> bool {
    path.starts_with("crates/shims/")
}

/// Library source of any first-party crate (shims excluded), plus the
/// workspace facade crate under `src/`.
fn is_first_party_lib(path: &str) -> bool {
    !is_shim(path) && (path.starts_with("crates/") || path.starts_with("src/")) && {
        path.starts_with("src/") || path.contains("/src/")
    }
}

/// Runs every lint over the parsed files, returning diagnostics sorted by
/// path, line, lint.
pub fn run_all(files: &[ParsedFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        no_std_sync_locks(file, &mut out);
        no_direct_instant_now(file, &mut out);
        no_hot_path_payload_copy(file, &mut out);
        pub_item_doc_coverage(file, &mut out);
    }
    shim_api_drift(files, &mut out);
    out.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.lint.cmp(b.lint))
    });
    out
}

/// Whether the token texts from `i` on are exactly `pattern`.
fn at(toks: &[Tok], i: usize, pattern: &[&str]) -> bool {
    pattern
        .iter()
        .enumerate()
        .all(|(k, p)| toks.get(i + k).is_some_and(|t| t.text == *p))
}

/// Whether token `i` is the first on its line.
fn starts_line(toks: &[Tok], i: usize) -> bool {
    i == 0 || toks[i - 1].line < toks[i].line
}

const LOCK_PRIMITIVES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// `no-std-sync-locks`: first-party code must use the instrumented
/// `parking_lot` shim, never `std::sync` locks — otherwise the deadlock
/// detector is blind to the acquisition. A `std::sync::` path is
/// followed into its whole `{..}` use tree, over as many lines as it
/// spans.
fn no_std_sync_locks(file: &ParsedFile, out: &mut Vec<Violation>) {
    if !is_first_party_lib(&file.path) {
        return;
    }
    let toks = &file.toks;
    let mut hits = BTreeSet::new();
    for i in 0..toks.len() {
        if !at(toks, i, &["std", "::", "sync", "::"]) {
            continue;
        }
        let tail = i + 4;
        let end = if at(toks, tail, &["{"]) { skip_balanced(toks, tail, "{", "}") } else { tail + 1 };
        for t in toks.get(tail..end).unwrap_or_default() {
            if let Some(p) = LOCK_PRIMITIVES.iter().position(|p| t.is_ident(p)) {
                hits.insert((t.line, p));
            }
        }
    }
    for (line, p) in hits {
        let primitive = LOCK_PRIMITIVES[p];
        out.push(Violation::new(
            "no-std-sync-locks",
            file,
            line,
            format!(
                "std::sync::{primitive} bypasses the instrumented parking_lot \
                 shim (lock-order deadlock detection); use parking_lot::{primitive}"
            ),
        ));
    }
}

/// `no-direct-instant-now`: wall-clock reads outside `util::time` break
/// the deterministic-simulation contract; only the virtual clock (and the
/// vendored shims) may consult the OS.
fn no_direct_instant_now(file: &ParsedFile, out: &mut Vec<Violation>) {
    if !is_first_party_lib(&file.path) || file.path == "crates/util/src/time.rs" {
        return;
    }
    const CLOCKS: [[&str; 3]; 2] = [["Instant", "::", "now"], ["SystemTime", "::", "now"]];
    let mut hits = BTreeSet::new();
    for (i, t) in file.toks.iter().enumerate() {
        if let Some(c) = CLOCKS.iter().position(|c| at(&file.toks, i, c)) {
            if !file.in_test(i) {
                hits.insert((t.line, c));
            }
        }
    }
    for (line, c) in hits {
        let clock = CLOCKS[c].concat();
        out.push(Violation::new(
            "no-direct-instant-now",
            file,
            line,
            format!(
                "{clock}() in library code; simulation determinism requires \
                 mmcs_util::time (allowlist only for real-time drivers)"
            ),
        ));
    }
}

/// `no-hot-path-payload-copy`: in the modules a media packet actually
/// traverses ([`HOT_PATH_MODULES`]), `.to_vec()` and `Vec<Vec<u8>>` put
/// a payload copy (or a per-fragment allocation pattern) on the
/// per-packet cost path. Use pooled buffers (`mmcs_util::pool`) or
/// `Bytes::slice` views instead; a deliberate copy needs an allowlist
/// entry with a justification.
fn no_hot_path_payload_copy(file: &ParsedFile, out: &mut Vec<Violation>) {
    if !HOT_PATH_MODULES.contains(&file.path.as_str()) {
        return;
    }
    const COPIES: [(&[&str], &str); 2] = [
        (
            &[".", "to_vec", "(", ")"],
            "`.to_vec()` copies the payload on a per-packet hot path; use a \
             pooled buffer or a `Bytes::slice` view (or allowlist with a \
             justification)",
        ),
        (
            &["Vec", "<", "Vec", "<", "u8", ">", ">"],
            "`Vec<Vec<u8>>` allocates per fragment on a per-packet hot path; \
             use a single pooled frame or `Vec<Bytes>` slices (or allowlist \
             with a justification)",
        ),
    ];
    let mut hits = BTreeSet::new();
    for (i, t) in file.toks.iter().enumerate() {
        if let Some(c) = COPIES.iter().position(|(pattern, _)| at(&file.toks, i, pattern)) {
            if !file.in_test(i) && !file.in_macro(i) {
                hits.insert((t.line, c));
            }
        }
    }
    for (line, c) in hits {
        out.push(Violation::new("no-hot-path-payload-copy", file, line, COPIES[c].1.to_owned()));
    }
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// If token `i` is a `pub` that opens its line and declares an item,
/// returns the index of the item keyword. `pub use` and restricted
/// visibility (`pub(crate)` etc.) are skipped.
fn pub_item(toks: &[Tok], i: usize) -> Option<usize> {
    if !toks[i].is_ident("pub") || !starts_line(toks, i) {
        return None;
    }
    let is_keyword = |k: usize| {
        toks.get(k)
            .is_some_and(|t| t.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str()))
    };
    // Skip modifiers: `pub const fn`, `pub unsafe fn`, `pub async fn`,
    // `pub extern "C" fn`. A modifier keyword followed by a non-keyword
    // token is itself the item (`pub const MAX: usize`).
    let mut k = i + 1;
    loop {
        let t = toks.get(k).filter(|t| t.kind == TokKind::Ident)?;
        match t.text.as_str() {
            "const" | "static" | "unsafe" | "async" | "extern" => {
                let mut next = k + 1;
                if t.text == "extern" && toks.get(next).is_some_and(|n| n.kind == TokKind::Str) {
                    next += 1;
                }
                if !is_keyword(next) {
                    return is_keyword(k).then_some(k);
                }
                k = next;
            }
            _ => return is_keyword(k).then_some(k),
        }
    }
}

/// The item keyword at `k` as a static string, and the item's name.
fn keyword_and_name(toks: &[Tok], k: usize) -> (&'static str, Option<&str>) {
    let keyword = ITEM_KEYWORDS
        .iter()
        .find(|kw| toks[k].text == **kw)
        .copied()
        .unwrap_or("item");
    let name = toks
        .get(k + 1)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str());
    (keyword, name)
}

/// Whether the tokens on 1-based `line` end in `)]`: the close of a
/// multi-line attribute.
fn closes_attribute(toks: &[Tok], line: u32) -> bool {
    let end = toks.partition_point(|t| t.line <= line);
    end >= 2
        && toks[end - 2].line == line
        && toks[end - 2].is_punct(")")
        && toks[end - 1].is_punct("]")
}

/// `pub-item-doc-coverage`: every public item in the broker and XGSP
/// crates carries a `///` doc comment (these are the paper's two core
/// protocol surfaces; their rustdoc is the reference for integrators).
fn pub_item_doc_coverage(file: &ParsedFile, out: &mut Vec<Violation>) {
    if !in_crate_src(&file.path, DOC_COVERED_CRATES) {
        return;
    }
    let toks = &file.toks;
    for i in 0..toks.len() {
        let Some(k) = pub_item(toks, i) else {
            continue;
        };
        if file.in_test(i) || file.in_macro(i) {
            continue;
        }
        let (keyword, name) = keyword_and_name(toks, k);
        // A file module is documented by its own `//!` header. rustdoc
        // resolves a `///` line on `pub mod name;` in the parent's scope
        // and then the header's links there too, which breaks them.
        if keyword == "mod" && toks.get(k + 2).is_some_and(|t| t.is_punct(";")) {
            continue;
        }
        // Walk up over attribute lines to the line that should be a doc
        // comment.
        let mut j = toks[i].line as usize - 1;
        let documented = loop {
            if j == 0 {
                break false;
            }
            j -= 1;
            let above = file.raw[j].trim_start();
            if above.starts_with("#[") || above.starts_with("#!") || closes_attribute(toks, j as u32 + 1) {
                continue;
            }
            break above.starts_with("///")
                || above.starts_with("#[doc")
                || above.starts_with("/**")
                || above.ends_with("*/");
        };
        if !documented {
            out.push(Violation::new(
                "pub-item-doc-coverage",
                file,
                toks[i].line,
                format!("public {keyword} `{}` has no doc comment", name.unwrap_or("<unnamed>")),
            ));
        }
    }
}

/// `shim-api-drift`: the vendored shims under `crates/shims/` exist only
/// to satisfy the workspace's use of the real crates' APIs. Any `pub`
/// name a shim exports that no code outside the shim names is drift —
/// untested surface pretending to be the real crate. A use is an
/// identifier token, so a mention in a comment or a string does not
/// count; the shim's own `#[macro_export]` macro bodies do count, since
/// they expand in the caller's crate.
fn shim_api_drift(files: &[ParsedFile], out: &mut Vec<Violation>) {
    struct Export<'a> {
        shim_prefix: String, // "crates/shims/<name>/"
        file: &'a ParsedFile,
        line: u32,
        name: String,
        keyword: &'static str,
    }
    let mut exports: Vec<Export> = Vec::new();
    for file in files {
        let Some(shim_prefix) = shim_prefix(&file.path) else {
            continue;
        };
        let toks = &file.toks;
        for i in 0..toks.len() {
            if !starts_line(toks, i) || file.in_test(i) {
                continue;
            }
            let mut export = |name: &str, keyword| {
                exports.push(Export {
                    shim_prefix: shim_prefix.clone(),
                    file,
                    line: toks[i].line,
                    name: name.to_owned(),
                    keyword,
                })
            };
            // The `macro_rules` token opens its own macro span, so handle
            // it before the span skip.
            if at(toks, i, &["macro_rules", "!"]) {
                if let Some(name) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                    if is_macro_exported(toks, i) {
                        export(&name.text, "macro");
                    }
                }
                continue;
            }
            if file.in_macro(i) {
                continue;
            }
            if let Some(k) = pub_item(toks, i) {
                if let (keyword, Some(name)) = keyword_and_name(toks, k) {
                    export(name, keyword);
                }
            } else if at(toks, i, &["pub", "use"]) {
                for name in use_leaves(toks, i + 2) {
                    export(name, "use");
                }
            }
        }
    }
    // Deduplicate: a `pub use` re-exporting a `pub struct` is one name.
    exports.sort_by(|a, b| {
        (&a.shim_prefix, &a.name)
            .cmp(&(&b.shim_prefix, &b.name))
            .then(a.line.cmp(&b.line))
    });
    exports.dedup_by(|a, b| a.shim_prefix == b.shim_prefix && a.name == b.name);

    // Where each file names an export in code: anywhere outside its own
    // shim, or inside the shim's `#[macro_export]` macro bodies, which
    // expand in the caller's crate.
    let wanted: HashSet<&str> = exports.iter().map(|e| e.name.as_str()).collect();
    let named: Vec<(HashSet<&str>, HashSet<&str>)> = files
        .iter()
        .map(|f| {
            let bodies: Vec<_> = f
                .macro_spans
                .iter()
                .filter(|s| is_macro_exported(&f.toks, s.start))
                .map(|s| s.start + 3..s.end)
                .collect();
            let mut anywhere = HashSet::new();
            let mut expanded = HashSet::new();
            for (i, t) in f.toks.iter().enumerate() {
                if t.kind == TokKind::Ident && wanted.contains(t.text.as_str()) {
                    anywhere.insert(t.text.as_str());
                    if bodies.iter().any(|b| b.contains(&i)) {
                        expanded.insert(t.text.as_str());
                    }
                }
            }
            (anywhere, expanded)
        })
        .collect();
    for export in &exports {
        let used = files.iter().zip(&named).any(|(f, (anywhere, expanded))| {
            let names = if f.path.starts_with(&export.shim_prefix) { expanded } else { anywhere };
            names.contains(export.name.as_str())
        });
        if !used {
            out.push(Violation::new(
                "shim-api-drift",
                export.file,
                export.line,
                format!(
                    "shim export `{}` ({}) is used nowhere outside {}; \
                     shims may only mirror API the workspace exercises",
                    export.name,
                    export.keyword,
                    export.shim_prefix.trim_end_matches('/'),
                ),
            ));
        }
    }
}

/// Whether the `macro_rules` at `i` carries `#[macro_export]` among the
/// attributes right before it.
fn is_macro_exported(toks: &[Tok], mut i: usize) -> bool {
    while i >= 2 && toks[i - 1].is_punct("]") {
        // Walk back to the `[` that opens this attribute.
        let mut depth = 0i64;
        let mut open = i - 1;
        loop {
            if toks[open].is_punct("]") {
                depth += 1;
            } else if toks[open].is_punct("[") {
                depth -= 1;
            }
            if depth == 0 || open == 0 {
                break;
            }
            open -= 1;
        }
        if open == 0 || !toks[open - 1].is_punct("#") {
            return false;
        }
        if toks[open..i].iter().any(|t| t.is_ident("macro_export")) {
            return true;
        }
        i = open - 1;
    }
    false
}

/// `crates/shims/<name>/...` → `crates/shims/<name>/`.
fn shim_prefix(path: &str) -> Option<String> {
    let rest = path.strip_prefix("crates/shims/")?;
    let name = rest.split('/').next()?;
    Some(format!("crates/shims/{name}/"))
}

/// Names a `use` tree starting at `toks[i]` binds: the last segment of
/// each leaf, honoring `as` renames; globs and `self` bind nothing.
fn use_leaves(toks: &[Tok], i: usize) -> Vec<&str> {
    let mut names = Vec::new();
    let mut leaf = None;
    for t in toks.iter().skip(i) {
        match t.text.as_str() {
            "{" | "*" => leaf = None,
            "," | "}" | ";" => {
                names.extend(leaf.take().filter(|n| *n != "self"));
                if t.text == ";" {
                    break;
                }
            }
            "as" => {}
            name if t.kind == TokKind::Ident => leaf = Some(name),
            _ => {}
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::parse::parse_file as parse;

    fn lints_of(v: &[Violation]) -> Vec<(&'static str, usize)> {
        v.iter().map(|x| (x.lint, x.line)).collect()
    }

    #[test]
    fn std_sync_lock_flagged_including_import_lists() {
        let f = parse(
            "crates/util/src/x.rs",
            "use std::sync::{Arc, Mutex};\nuse std::sync::Arc;\nlet l = std::sync::RwLock::new(0);\n",
        );
        let mut out = Vec::new();
        no_std_sync_locks(&f, &mut out);
        assert_eq!(
            lints_of(&out),
            vec![("no-std-sync-locks", 1), ("no-std-sync-locks", 3)]
        );
        let multi_line = parse("crates/util/src/x.rs", "use std::sync::{\n    Arc,\n    Mutex,\n};\n");
        out.clear();
        no_std_sync_locks(&multi_line, &mut out);
        assert_eq!(lints_of(&out), vec![("no-std-sync-locks", 3)]);
    }

    #[test]
    fn instant_now_flagged_outside_util_time() {
        let f = parse("crates/rtp/src/x.rs", "fn f() { let t = Instant::now(); }\n");
        let mut out = Vec::new();
        no_direct_instant_now(&f, &mut out);
        assert_eq!(lints_of(&out), vec![("no-direct-instant-now", 1)]);
        let exempt = parse("crates/util/src/time.rs", "fn f() { Instant::now(); }\n");
        out.clear();
        no_direct_instant_now(&exempt, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn shims_exempt_from_clock_and_lock_lints() {
        let f = parse(
            "crates/shims/parking_lot/src/lib.rs",
            "fn f() { Instant::now(); std::sync::Mutex::new(0); }\n",
        );
        let mut out = Vec::new();
        no_direct_instant_now(&f, &mut out);
        no_std_sync_locks(&f, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn undocumented_pub_item_flagged() {
        let f = parse(
            "crates/xgsp/src/x.rs",
            "/// Documented.\npub fn good() {}\n\npub fn bad() {}\n#[derive(Debug)]\npub struct AlsoBad;\n",
        );
        let mut out = Vec::new();
        pub_item_doc_coverage(&f, &mut out);
        assert_eq!(
            lints_of(&out),
            vec![("pub-item-doc-coverage", 4), ("pub-item-doc-coverage", 6)]
        );
        assert!(out[0].message.contains("`bad`"));
        assert!(out[1].message.contains("`AlsoBad`"));
    }

    #[test]
    fn doc_above_attributes_is_honored() {
        let f = parse(
            "crates/broker/src/x.rs",
            "/// Docs.\n#[derive(Debug, Clone)]\npub struct Fine;\n",
        );
        let mut out = Vec::new();
        pub_item_doc_coverage(&f, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn pub_crate_items_and_file_modules_skipped() {
        let f = parse(
            "crates/broker/src/x.rs",
            "pub(crate) fn internal() {}\npub use foo::Bar;\npub mod file_module;\n",
        );
        let mut out = Vec::new();
        pub_item_doc_coverage(&f, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn shim_drift_detects_unused_export() {
        let shim = parse(
            "crates/shims/fake/src/lib.rs",
            "pub fn used_fn() {}\npub fn orphan_fn() {}\npub struct UsedType;\n",
        );
        let user = parse(
            "crates/broker/src/y.rs",
            "fn f() { fake::used_fn(); let _: UsedType = todo(); }\n",
        );
        let mut out = Vec::new();
        shim_api_drift(&[shim, user], &mut out);
        assert_eq!(lints_of(&out), vec![("shim-api-drift", 2)]);
        assert!(out[0].message.contains("orphan_fn"));
    }

    #[test]
    fn shim_drift_reexports_and_renames() {
        let shim = parse(
            "crates/shims/fake/src/lib.rs",
            "pub use inner::{Alpha, Beta as Gamma};\n",
        );
        let user = parse("src/lib.rs", "use fake::{Alpha, Gamma};\n");
        let mut out = Vec::new();
        shim_api_drift(&[shim.clone(), user], &mut out);
        assert!(out.is_empty());
        let loner = parse("src/lib.rs", "use fake::Alpha;\n");
        out.clear();
        shim_api_drift(&[shim, loner], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Gamma"));
    }

    #[test]
    fn hot_path_copies_flagged_by_exact_path() {
        let src = "fn f(b: &Bytes) { let v = b.to_vec(); }\n\
                   fn g() -> Vec<Vec<u8>> { Vec::new() }\n\
                   fn h() -> Vec< Vec<u8> > { Vec::new() }\n";
        let f = parse("crates/rtp/src/packet.rs", src);
        let mut out = Vec::new();
        no_hot_path_payload_copy(&f, &mut out);
        assert_eq!(
            lints_of(&out),
            vec![
                ("no-hot-path-payload-copy", 1),
                ("no-hot-path-payload-copy", 2),
                ("no-hot-path-payload-copy", 3),
            ]
        );
        // The same crate, a module off the hot path: silent.
        let cold = parse("crates/rtp/src/jitter.rs", src);
        out.clear();
        no_hot_path_payload_copy(&cold, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn hot_path_copy_skips_tests_and_near_misses() {
        let src = "fn f(b: &[u8]) { b.to_vec_like(); into_vec(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t(b: &[u8]) { b.to_vec(); }\n}\n";
        let f = parse("crates/broker/src/wire.rs", src);
        let mut out = Vec::new();
        no_hot_path_payload_copy(&f, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    fn pub_item_keyword(line: &str) -> Option<&'static str> {
        let f = parse("x.rs", line);
        pub_item(&f.toks, 0).map(|k| keyword_and_name(&f.toks, k).0)
    }

    #[test]
    fn pub_item_keyword_parses_modifiers() {
        assert_eq!(pub_item_keyword("pub fn f()"), Some("fn"));
        assert_eq!(pub_item_keyword("pub const fn f()"), Some("fn"));
        assert_eq!(pub_item_keyword("pub const MAX: usize = 1;"), Some("const"));
        assert_eq!(pub_item_keyword("pub unsafe fn f()"), Some("fn"));
        assert_eq!(pub_item_keyword("pub use foo::Bar;"), None);
        assert_eq!(pub_item_keyword("pub(crate) fn f()"), None);
        assert_eq!(pub_item_keyword("pub struct S;"), Some("struct"));
    }
}
