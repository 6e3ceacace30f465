//! The project-specific lints.
//!
//! Every lint is a pure function from the parsed [`SourceFile`] set to a
//! list of [`Violation`]s. Scoping rules (which crates a lint covers) live
//! here, next to the lint logic, so the engine stays generic.

use crate::scan::{contains_word, normalize_ws, SourceFile};

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
    pub(crate) fn new(lint: &'static str, file: &SourceFile, idx: usize, message: String) -> Violation {
        Violation {
            lint,
            path: file.path.clone(),
            line: idx + 1,
            message,
            snippet: normalize_ws(&file.raw[idx]),
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
    "crates/broker/src/rtpproxy.rs",
    "crates/broker/src/sharded.rs",
    "crates/broker/src/wire.rs",
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
pub fn run_all(files: &[SourceFile]) -> Vec<Violation> {
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

/// `no-std-sync-locks`: first-party code must use the instrumented
/// `parking_lot` shim, never `std::sync` locks — otherwise the deadlock
/// detector is blind to the acquisition.
fn no_std_sync_locks(file: &SourceFile, out: &mut Vec<Violation>) {
    if !is_first_party_lib(&file.path) {
        return;
    }
    for (i, line) in file.masked.iter().enumerate() {
        if !line.contains("std::sync::") {
            continue;
        }
        for primitive in ["Mutex", "RwLock", "Condvar"] {
            if contains_word(line, primitive) {
                out.push(Violation::new(
                    "no-std-sync-locks",
                    file,
                    i,
                    format!(
                        "std::sync::{primitive} bypasses the instrumented parking_lot \
                         shim (lock-order deadlock detection); use parking_lot::{primitive}"
                    ),
                ));
            }
        }
    }
}

/// `no-direct-instant-now`: wall-clock reads outside `util::time` break
/// the deterministic-simulation contract; only the virtual clock (and the
/// vendored shims) may consult the OS.
fn no_direct_instant_now(file: &SourceFile, out: &mut Vec<Violation>) {
    if !is_first_party_lib(&file.path) || file.path == "crates/util/src/time.rs" {
        return;
    }
    for (i, line) in file.masked.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for clock in ["Instant::now", "SystemTime::now"] {
            if line.contains(clock) {
                out.push(Violation::new(
                    "no-direct-instant-now",
                    file,
                    i,
                    format!(
                        "{clock}() in library code; simulation determinism requires \
                         mmcs_util::time (allowlist only for real-time drivers)"
                    ),
                ));
            }
        }
    }
}

/// `no-hot-path-payload-copy`: in the modules a media packet actually
/// traverses ([`HOT_PATH_MODULES`]), `.to_vec()` and `Vec<Vec<u8>>` put
/// a payload copy (or a per-fragment allocation pattern) on the
/// per-packet cost path. Use pooled buffers (`mmcs_util::pool`) or
/// `Bytes::slice` views instead; a deliberate copy needs an allowlist
/// entry with a justification.
fn no_hot_path_payload_copy(file: &SourceFile, out: &mut Vec<Violation>) {
    if !HOT_PATH_MODULES.contains(&file.path.as_str()) {
        return;
    }
    for (i, line) in file.masked.iter().enumerate() {
        if file.in_test[i] || file.in_macro[i] {
            continue;
        }
        if line.contains(".to_vec()") {
            out.push(Violation::new(
                "no-hot-path-payload-copy",
                file,
                i,
                "`.to_vec()` copies the payload on a per-packet hot path; use a \
                 pooled buffer or a `Bytes::slice` view (or allowlist with a \
                 justification)"
                    .to_owned(),
            ));
        }
        if line.replace(' ', "").contains("Vec<Vec<u8>>") {
            out.push(Violation::new(
                "no-hot-path-payload-copy",
                file,
                i,
                "`Vec<Vec<u8>>` allocates per fragment on a per-packet hot path; \
                 use a single pooled frame or `Vec<Bytes>` slices (or allowlist \
                 with a justification)"
                    .to_owned(),
            ));
        }
    }
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// If the masked line declares a `pub` item, returns the item keyword.
/// `pub use` and restricted visibility (`pub(crate)` etc.) are skipped.
fn pub_item_keyword(trimmed: &str) -> Option<&'static str> {
    let rest = trimmed.strip_prefix("pub ")?;
    let mut tokens = rest.split_whitespace().peekable();
    // Skip modifiers: `pub const fn`, `pub unsafe fn`, `pub async fn`,
    // `pub extern "C" fn`. A modifier keyword followed by a non-keyword
    // token is itself the item (`pub const MAX: usize`).
    let mut current = tokens.next()?;
    loop {
        match current {
            "use" => return None,
            "const" | "static" | "unsafe" | "async" | "extern" => {
                let next = tokens.next()?;
                if ITEM_KEYWORDS.contains(&next) {
                    current = next;
                } else if current == "extern" {
                    // `pub extern "C" fn name` — the ABI string was masked
                    // to `" "`; keep scanning.
                    current = next;
                    continue;
                } else {
                    return ITEM_KEYWORDS
                        .iter()
                        .find(|k| **k == current)
                        .copied();
                }
            }
            kw if ITEM_KEYWORDS.contains(&kw) => {
                return ITEM_KEYWORDS.iter().find(|k| **k == kw).copied()
            }
            _ => return None,
        }
    }
}

/// Extracts the identifier following the item keyword on a declaration
/// line, e.g. `fn` in `pub fn name<T>(..)` yields `name`.
fn item_name<'a>(trimmed: &'a str, keyword: &str) -> Option<&'a str> {
    let kw_pos = trimmed.find(&format!("{keyword} "))?;
    let after = &trimmed[kw_pos + keyword.len() + 1..];
    let name: &str = after
        .trim_start()
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .next()?;
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// `pub-item-doc-coverage`: every public item in the broker and XGSP
/// crates carries a `///` doc comment (these are the paper's two core
/// protocol surfaces; their rustdoc is the reference for integrators).
fn pub_item_doc_coverage(file: &SourceFile, out: &mut Vec<Violation>) {
    if !in_crate_src(&file.path, DOC_COVERED_CRATES) {
        return;
    }
    for (i, line) in file.masked.iter().enumerate() {
        if file.in_test[i] || file.in_macro[i] {
            continue;
        }
        let trimmed = line.trim_start();
        let Some(keyword) = pub_item_keyword(trimmed) else {
            continue;
        };
        // A file module is documented by its own `//!` header. rustdoc
        // resolves a `///` line on `pub mod name;` in the parent's scope
        // and then the header's links there too, which breaks them.
        if keyword == "mod" && trimmed.trim_end().ends_with(';') {
            continue;
        }
        // Walk up over attribute lines to the line that should be a doc
        // comment.
        let mut j = i;
        let documented = loop {
            if j == 0 {
                break false;
            }
            j -= 1;
            let above = file.raw[j].trim_start();
            if above.starts_with("#[") || above.starts_with("#!") {
                continue;
            }
            // Multi-line attributes: a masked line that closes an
            // attribute bracket, e.g. `)]`.
            if file.masked[j].trim_end().ends_with(")]") {
                continue;
            }
            break above.starts_with("///")
                || above.starts_with("#[doc")
                || above.starts_with("/**")
                || above.ends_with("*/");
        };
        if !documented {
            let name = item_name(trimmed, keyword).unwrap_or("<unnamed>");
            out.push(Violation::new(
                "pub-item-doc-coverage",
                file,
                i,
                format!("public {keyword} `{name}` has no doc comment"),
            ));
        }
    }
}

/// `shim-api-drift`: the vendored shims under `crates/shims/` exist only
/// to satisfy the workspace's use of the real crates' APIs. Any `pub`
/// name a shim exports that nothing outside the shim uses is drift —
/// untested surface pretending to be the real crate.
fn shim_api_drift(files: &[SourceFile], out: &mut Vec<Violation>) {
    // Collect exports per shim crate.
    struct Export {
        shim_prefix: String, // "crates/shims/<name>/"
        file_idx: usize,
        line_idx: usize,
        name: String,
        keyword: &'static str,
    }
    let mut exports: Vec<Export> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !is_shim(&file.path) {
            continue;
        }
        let Some(shim_prefix) = shim_prefix(&file.path) else {
            continue;
        };
        for (i, line) in file.masked.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            let trimmed = line.trim_start();
            // The `macro_rules!` trigger line is itself inside the macro
            // region, so handle it before the region skip.
            if trimmed.starts_with("macro_rules!") && was_macro_exported(file, i) {
                if let Some(name) = item_name(trimmed, "macro_rules!") {
                    exports.push(Export {
                        shim_prefix: shim_prefix.clone(),
                        file_idx: fi,
                        line_idx: i,
                        name: name.to_owned(),
                        keyword: "macro",
                    });
                }
                continue;
            }
            if file.in_macro[i] {
                continue;
            }
            if let Some(keyword) = pub_item_keyword(trimmed) {
                if let Some(name) = item_name(trimmed, keyword) {
                    exports.push(Export {
                        shim_prefix: shim_prefix.clone(),
                        file_idx: fi,
                        line_idx: i,
                        name: name.to_owned(),
                        keyword,
                    });
                }
            } else if trimmed.starts_with("pub use ") {
                for name in reexported_names(trimmed) {
                    exports.push(Export {
                        shim_prefix: shim_prefix.clone(),
                        file_idx: fi,
                        line_idx: i,
                        name,
                        keyword: "use",
                    });
                }
            }
        }
    }
    // Deduplicate: a `pub use` re-exporting a `pub struct` is one name.
    exports.sort_by(|a, b| {
        (&a.shim_prefix, &a.name)
            .cmp(&(&b.shim_prefix, &b.name))
            .then(a.line_idx.cmp(&b.line_idx))
    });
    exports.dedup_by(|a, b| a.shim_prefix == b.shim_prefix && a.name == b.name);

    for export in &exports {
        let used = files.iter().any(|f| {
            !f.path.starts_with(&export.shim_prefix)
                && f.raw.iter().any(|l| contains_word(l, &export.name))
        });
        if !used {
            let file = &files[export.file_idx];
            out.push(Violation::new(
                "shim-api-drift",
                file,
                export.line_idx,
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

/// `macro_rules!` at line `i` is exported if the preceding attribute
/// lines include `#[macro_export]`.
fn was_macro_exported(file: &SourceFile, i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let above = file.raw[j].trim_start();
        if above.starts_with("#[") {
            if above.contains("macro_export") {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

/// `crates/shims/<name>/...` → `crates/shims/<name>/`.
fn shim_prefix(path: &str) -> Option<String> {
    let rest = path.strip_prefix("crates/shims/")?;
    let name = rest.split('/').next()?;
    Some(format!("crates/shims/{name}/"))
}

/// Names introduced by a `pub use` line: last path segment of each leaf,
/// honoring `as` renames; glob re-exports contribute nothing.
fn reexported_names(trimmed: &str) -> Vec<String> {
    let Some(rest) = trimmed.strip_prefix("pub use ") else {
        return Vec::new();
    };
    let rest = rest.trim_end().trim_end_matches(';');
    let mut names = Vec::new();
    let leaves: Vec<&str> = if let Some(open) = rest.find('{') {
        let inner = rest[open + 1..].trim_end_matches('}');
        inner.split(',').collect()
    } else {
        vec![rest]
    };
    for leaf in leaves {
        let leaf = leaf.trim();
        if leaf.is_empty() || leaf.ends_with('*') {
            continue;
        }
        let name = if let Some((_, renamed)) = leaf.split_once(" as ") {
            renamed.trim()
        } else {
            leaf.rsplit("::").next().unwrap_or(leaf).trim()
        };
        if !name.is_empty() && name != "self" {
            names.push(name.to_owned());
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src)
    }

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
