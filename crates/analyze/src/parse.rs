//! The analyzer's one reader of Rust source: an item parser over the
//! lexed token stream.
//!
//! This is not an AST. [`parse_file`] lexes a file once and walks the
//! tokens once, tracking brace depth, the enclosing `impl` type, and
//! `macro_rules!` bodies (skipped entirely: macro matchers are not Rust
//! expressions). It records a [`FnDef`] per function with a
//! brace-matched body range, the `const`/`static` item names, and the
//! token spans of `#[cfg(test)]` items and `macro_rules!` definitions —
//! all that the line lints and the call-graph passes read.
//!
//! Resolution subtleties handled here:
//!
//! * `impl<'a> WireEvent<'a> { .. }` and `impl fmt::Display for Foo`
//!   both yield the *self type* (`WireEvent`, `Foo`) — the last
//!   identifier at angle-depth 0 before the opening brace.
//! * Trait method declarations without bodies (`fn f(&self);`) get no
//!   body range and therefore no call-graph edges.
//! * `const`/`static` item names are collected per file; the panic pass
//!   uses the workspace-wide set to tell constant-offset indexing
//!   (`frame[OFF_SEQ]`) from dynamic indexing (`links[target]`).
//! * A `#[cfg(..)]` whose group names `test` outside every `not(..)`
//!   starts a test span (`any(test, ..)` and `all(test, ..)` do;
//!   `not(test)` and `#[cfg_attr(test, ..)]` do not). The span runs from
//!   the `#` to the end of the item it gates: the brace-matched body, or
//!   the `;` of a body-less item (`#[cfg(test)] use x;`).

use std::ops::Range;

use crate::lexer::{lex, Tok, TokKind};

/// One function (or method) found in a file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` self type, if any (`BrokerNode` for methods).
    pub self_type: Option<String>,
    /// Trait being implemented, for `impl Trait for Type` blocks
    /// (`Sub`, `Display`). The call-graph resolver uses this to keep
    /// operator-trait methods out of `.method(..)` name resolution.
    pub trait_name: Option<String>,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_self: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, *excluding* the outer braces.
    /// Empty for bodiless declarations.
    pub body: Range<usize>,
    /// Whether the function sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// One source file as every lint and pass sees it.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Source lines, for diagnostic snippets and the doc-comment lookup.
    pub raw: Vec<String>,
    /// The full token stream.
    pub toks: Vec<Tok>,
    /// Every function found, in source order.
    pub fns: Vec<FnDef>,
    /// Names of `const` and `static` items declared in this file.
    pub consts: Vec<String>,
    /// Token ranges of `#[cfg(test)]` items, attribute included.
    pub test_spans: Vec<Range<usize>>,
    /// Token ranges of `macro_rules!` definitions, from `macro_rules`
    /// through the body's closing brace.
    pub macro_spans: Vec<Range<usize>>,
}

impl ParsedFile {
    /// Whether token `i` sits in a `#[cfg(test)]` item.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|s| s.contains(&i))
    }

    /// Whether token `i` sits in a `macro_rules!` definition.
    pub fn in_macro(&self, i: usize) -> bool {
        self.macro_spans.iter().any(|s| s.contains(&i))
    }
}

/// Lexes and parses one file.
pub fn parse_file(path: &str, content: &str) -> ParsedFile {
    let toks = lex(content);
    let mut fns = Vec::new();
    let mut consts = Vec::new();
    let mut test_spans: Vec<Range<usize>> = Vec::new();
    let mut macro_spans = Vec::new();

    // Stack of (brace depth *inside* the impl block, self type, trait).
    let mut impl_stack: Vec<(i64, Option<String>, Option<String>)> = Vec::new();
    let mut depth: i64 = 0;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.text == "{" => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct if t.text == "}" => {
                depth -= 1;
                while impl_stack.last().is_some_and(|(d, _, _)| *d > depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            TokKind::Punct if t.text == "#" && toks.get(i + 1).is_some_and(|n| n.is_punct("[")) => {
                let close = skip_balanced(&toks, i + 1, "[", "]");
                if cfg_names_test(toks.get(i + 2..close.saturating_sub(1)).unwrap_or_default()) {
                    test_spans.push(i..item_end(&toks, close));
                }
                i += 1;
            }
            TokKind::Ident if t.text == "macro_rules" && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) => {
                // Skip the whole definition: name, then the balanced
                // braces of the body.
                let start = i;
                i += 2;
                while i < toks.len() && !toks[i].is_punct("{") {
                    i += 1;
                }
                i = skip_balanced(&toks, i, "{", "}");
                macro_spans.push(start..i);
            }
            TokKind::Ident if t.text == "impl" => {
                let (trait_name, self_type, at_brace) = parse_impl_header(&toks, i + 1);
                i = at_brace;
                if toks.get(i).is_some_and(|t| t.is_punct("{")) {
                    depth += 1;
                    impl_stack.push((depth, self_type, trait_name));
                    i += 1;
                }
            }
            TokKind::Ident if t.text == "fn" => {
                // `fn` as a type (`Fn`/`fn(u32)`) still reads as `fn` +
                // punct; a real item has an identifier name next.
                let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    i += 1;
                    continue;
                };
                // `pub const fn`, `unsafe fn` etc. all end with `fn name`.
                let name = name_tok.text.clone();
                let line = toks[i].line;
                let (has_self, after_params) = parse_params(&toks, i + 2);
                let body = fn_body_range(&toks, after_params);
                let is_test = test_spans.iter().any(|s| s.contains(&i));
                fns.push(FnDef {
                    name,
                    self_type: impl_stack.last().and_then(|(_, t, _)| t.clone()),
                    trait_name: impl_stack.last().and_then(|(_, _, tr)| tr.clone()),
                    has_self,
                    line,
                    body: body.clone(),
                    is_test,
                });
                // Continue scanning *inside* the body so nested items
                // (rare, but possible) are still found; brace tracking
                // continues naturally.
                i += 2;
            }
            TokKind::Ident if (t.text == "const" || t.text == "static") => {
                // `const NAME: ...` / `static NAME: ...`; skip `const fn`
                // (handled by the `fn` arm) and `*const T` pointers.
                let prev_is_star = i > 0 && toks[i - 1].is_punct("*");
                if let Some(name_tok) = toks.get(i + 1) {
                    let next_is_item = name_tok.kind == TokKind::Ident
                        && name_tok.text != "fn"
                        && name_tok.text != "mut"
                        && !prev_is_star;
                    if next_is_item && toks.get(i + 2).is_some_and(|t| t.is_punct(":")) {
                        consts.push(name_tok.text.clone());
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    ParsedFile {
        path: path.to_owned(),
        raw: content.lines().map(str::to_owned).collect(),
        toks,
        fns,
        consts,
        test_spans,
        macro_spans,
    }
}

/// Whether the tokens inside `#[..]` are a `cfg(..)` that names `test`
/// outside every `not(..)` group.
fn cfg_names_test(attr: &[Tok]) -> bool {
    if !(attr.first().is_some_and(|t| t.is_ident("cfg")) && attr.get(1).is_some_and(|t| t.is_punct("("))) {
        return false;
    }
    let mut i = 2;
    while i < attr.len() {
        if attr[i].is_ident("not") && attr.get(i + 1).is_some_and(|t| t.is_punct("(")) {
            i = skip_balanced(attr, i + 1, "(", ")");
        } else if attr[i].is_ident("test") {
            return true;
        } else {
            i += 1;
        }
    }
    false
}

/// The end of the item an attribute closing just before `i` gates: just
/// past its brace-matched body or its `;`, whichever comes first outside
/// `(..)` and `[..]`; or the close of the enclosing group.
fn item_end(toks: &[Tok], mut i: usize) -> usize {
    let mut depth = 0i64;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_punct("{") {
            return skip_balanced(toks, i, "{", "}");
        } else if depth == 0 && t.is_punct(";") {
            return i + 1;
        }
        if depth < 0 || (depth == 0 && t.is_punct("}")) {
            return i;
        }
        i += 1;
    }
    toks.len()
}

/// Parses tokens after `impl`: skips generics, then finds the self type
/// — the last identifier at angle-depth 0 before the opening brace
/// (after `for`, if present) — and, for `impl Trait for Type`, the
/// trait name (the last identifier before `for`). Returns
/// `(trait_name, self_type, index_of_brace)`.
fn parse_impl_header(toks: &[Tok], mut i: usize) -> (Option<String>, Option<String>, usize) {
    let mut angle: i64 = 0;
    let mut last_ident: Option<String> = None;
    let mut trait_name: Option<String> = None;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.text == "<" => angle += 1,
            TokKind::Punct if t.text == ">" => angle -= 1,
            TokKind::Punct if t.text == "{" && angle <= 0 => break,
            TokKind::Punct if t.text == ";" => break, // `impl Trait for T;`? defensive
            TokKind::Ident if angle <= 0 && t.text == "for" => {
                trait_name = last_ident.take();
            }
            TokKind::Ident if angle <= 0 && t.text != "where" => {
                last_ident = Some(t.text.clone());
            }
            _ => {}
        }
        i += 1;
    }
    (trait_name, last_ident, i)
}

/// Scans a parameter list starting at (or just before) its `(`. Returns
/// whether the first parameter is a `self` receiver and the index just
/// past the closing `)`.
fn parse_params(toks: &[Tok], mut i: usize) -> (bool, usize) {
    // Skip generics between the name and `(`.
    let mut angle: i64 = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if t.is_punct("(") && angle <= 0 {
            break;
        } else if (t.is_punct("{") || t.is_punct(";")) && angle <= 0 {
            return (false, i); // malformed; bail before the body
        }
        i += 1;
    }
    let open = i;
    let close = skip_balanced(toks, open, "(", ")");
    // `self` appears before the first top-level comma iff this is a
    // method (`&self`, `&'a mut self`, `self`, `mut self: Pin<..>`).
    let mut has_self = false;
    let mut depth = 0i64;
    for t in toks.iter().take(close.saturating_sub(1)).skip(open + 1) {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(",") && depth == 0 {
            break;
        } else if t.kind == TokKind::Ident && t.text == "self" {
            has_self = true;
            break;
        }
    }
    (has_self, close)
}

/// From the end of a parameter list, finds the body braces (skipping a
/// return type and `where` clause) and returns the inner token range.
/// A `;` first means no body.
fn fn_body_range(toks: &[Tok], mut i: usize) -> Range<usize> {
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            let close = skip_balanced(toks, i, "{", "}");
            return (i + 1)..close.saturating_sub(1);
        }
        if t.is_punct(";") {
            return 0..0;
        }
        i += 1;
    }
    0..0
}

/// Given `toks[open]` is `open_text`, returns the index just past the
/// matching close token.
pub(crate) fn skip_balanced(toks: &[Tok], open: usize, open_text: &str, close_text: &str) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct(open_text) {
            depth += 1;
        } else if t.is_punct(close_text) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(path: &str, src: &str) -> ParsedFile {
        parse_file(path, src)
    }

    /// The 1-based lines holding a token of a test span.
    fn test_lines(src: &str) -> Vec<u32> {
        let f = parse("x.rs", src);
        let mut lines: Vec<u32> = (0..f.toks.len()).filter(|&i| f.in_test(i)).map(|i| f.toks[i].line).collect();
        lines.dedup();
        lines
    }

    #[test]
    fn free_fns_and_methods_are_classified() {
        let f = parse(
            "x.rs",
            "fn free(a: u32) -> u32 { a }\n\
             struct S;\n\
             impl S {\n    fn method(&self) {}\n    fn assoc() -> S { S }\n}\n\
             impl std::fmt::Display for S {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n}\n",
        );
        let names: Vec<(&str, Option<&str>, bool)> = f
            .fns
            .iter()
            .map(|d| (d.name.as_str(), d.self_type.as_deref(), d.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None, false),
                ("method", Some("S"), true),
                ("assoc", Some("S"), false),
                ("fmt", Some("S"), true),
            ]
        );
        assert_eq!(f.fns[3].trait_name.as_deref(), Some("Display"));
        assert_eq!(f.fns[1].trait_name, None);
    }

    #[test]
    fn impl_header_with_generics_and_for() {
        let f = parse(
            "x.rs",
            "impl<'a, T: Clone> Wrapper<'a, T> {\n    fn get(&self) {}\n}\n\
             impl<T> From<T> for Box<T> {\n    fn from(t: T) -> Box<T> { Box::new(t) }\n}\n",
        );
        assert_eq!(f.fns[0].self_type.as_deref(), Some("Wrapper"));
        assert_eq!(f.fns[1].self_type.as_deref(), Some("Box"));
    }

    #[test]
    fn body_ranges_are_brace_matched() {
        let f = parse(
            "x.rs",
            "fn outer() {\n    if x { y(); } else { z(); }\n}\nfn next() {}\n",
        );
        let outer = &f.fns[0];
        let body: Vec<&str> = f.toks[outer.body.clone()].iter().map(|t| t.text.as_str()).collect();
        assert!(body.contains(&"y"));
        assert!(body.contains(&"z"));
        assert!(!body.contains(&"next"));
    }

    #[test]
    fn bodiless_trait_methods_have_empty_bodies() {
        let f = parse("x.rs", "trait T {\n    fn must(&self) -> u32;\n    fn has(&self) -> u32 { 1 }\n}\n");
        assert!(f.fns[0].body.is_empty());
        assert!(!f.fns[1].body.is_empty());
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let f = parse(
            "x.rs",
            "macro_rules! m {\n    () => { fn phantom() {} };\n}\nfn real() {}\n",
        );
        let names: Vec<&str> = f.fns.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn const_and_static_names_collected() {
        let f = parse(
            "x.rs",
            "pub const OFF_SEQ: usize = 16;\nstatic HITS: u64 = 0;\nconst fn not_an_item() {}\nfn f(p: *const u8) {}\n",
        );
        assert_eq!(f.consts, vec!["OFF_SEQ", "HITS"]);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let f = parse(
            "x.rs",
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
        );
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
    }

    #[test]
    fn test_spans_follow_the_gated_item() {
        assert_eq!(test_lines("pub fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\npub fn c() {}\n"), vec![2, 3, 4, 5]);
        assert_eq!(test_lines("#[cfg(test)]\nuse foo::bar;\nfn real() {}\n"), vec![1, 2]);
        assert_eq!(test_lines("#[allow(dead_code)] #[cfg(test)]\nmod tests {\n}\nfn real() {}\n"), vec![1, 2, 3]);
        assert_eq!(test_lines("#[cfg(any(test, feature = \"x\"))]\nmod t {\n}\n"), vec![1, 2, 3]);
        assert_eq!(test_lines("#[cfg(all(test, unix))]\nmod t {\n}\n"), vec![1, 2, 3]);
    }

    #[test]
    fn negated_and_cfg_attr_test_start_no_span() {
        assert!(test_lines("#[cfg(not(test))]\nmod prod {\n    fn a() {}\n}\n").is_empty());
        assert!(test_lines("#[cfg(all(not(test), unix))]\nmod t {\n}\n").is_empty());
        assert!(test_lines("#[cfg_attr(test, derive(Debug))]\npub struct S;\n").is_empty());
        assert!(test_lines("// #[cfg(test)]\nconst S: &str = \"#[cfg(test)]\";\n").is_empty());
    }

    #[test]
    fn macro_spans_end_at_the_body_close() {
        let f = parse("x.rs", "macro_rules! m {\n    () => { r##\"quote \" }\"## };\n}\nfn real() {}\n");
        assert_eq!(f.macro_spans.len(), 1);
        let last = f.macro_spans[0].end - 1;
        assert!(f.toks[last].is_punct("}") && f.toks[last].line == 3);
        assert!(!f.in_macro(last + 1));
    }
}
