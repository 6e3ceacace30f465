//! The checked-in violation allowlist.
//!
//! Format (`analyze.allow` at the workspace root): one entry per line,
//! four fields separated by ` :: `:
//!
//! ```text
//! <lint> :: <path> :: <normalized snippet> :: <justification>
//! ```
//!
//! * The snippet is the offending source line with runs of whitespace
//!   collapsed, so re-indenting a file never stales an entry, while any
//!   semantic edit to the line does.
//! * An entry suppresses **every** occurrence of that exact line in that
//!   file under that lint.
//! * The justification is mandatory: an allowlist entry is a reviewed
//!   decision, not an escape hatch.
//! * Entries that match nothing are *stale* and reported as errors, so
//!   the file can only shrink as violations get fixed.
//!
//! `#`-prefixed lines and blank lines are comments.

use crate::lints::Violation;

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// 1-based line in the allowlist file.
    pub line: usize,
    /// Lint name the entry suppresses.
    pub lint: String,
    /// Workspace-relative path it applies to.
    pub path: String,
    /// Whitespace-normalized source line it matches.
    pub snippet: String,
    /// Why the violation is acceptable.
    pub justification: String,
}

/// A parse problem in the allowlist file itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line in the allowlist file.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

/// Parses the allowlist text. Malformed lines are collected as errors
/// rather than silently skipped: a typo must not un-suppress into CI
/// noise *or* silently suppress the wrong thing.
pub fn parse(text: &str) -> (Vec<Entry>, Vec<ParseError>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let Some((lint, rest)) = trimmed.split_once(" :: ") else {
            errors.push(ParseError {
                line,
                message: "expected `lint :: path :: snippet :: justification`".to_owned(),
            });
            continue;
        };
        let Some((path, rest)) = rest.split_once(" :: ") else {
            errors.push(ParseError {
                line,
                message: "missing path field".to_owned(),
            });
            continue;
        };
        // The snippet may itself contain `::` (it is Rust source); the
        // justification is everything after the *last* separator.
        let Some((snippet, justification)) = rest.rsplit_once(" :: ") else {
            errors.push(ParseError {
                line,
                message: "missing justification field (entries must say why)".to_owned(),
            });
            continue;
        };
        if justification.trim().is_empty() {
            errors.push(ParseError {
                line,
                message: "empty justification".to_owned(),
            });
            continue;
        }
        entries.push(Entry {
            line,
            lint: lint.trim().to_owned(),
            path: path.trim().to_owned(),
            snippet: normalize_ws(snippet),
            justification: justification.trim().to_owned(),
        });
    }
    (entries, errors)
}

/// Splits `violations` into (unsuppressed, suppressed) and returns the
/// indices of stale entries (entries that matched nothing).
pub fn apply(
    entries: &[Entry],
    violations: Vec<Violation>,
) -> (Vec<Violation>, Vec<Violation>, Vec<usize>) {
    let mut matched = vec![false; entries.len()];
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for violation in violations {
        let hit = entries.iter().enumerate().find(|(_, e)| {
            e.lint == violation.lint
                && e.path == violation.path
                && e.snippet == violation.snippet
        });
        match hit {
            Some((i, _)) => {
                matched[i] = true;
                suppressed.push(violation);
            }
            None => kept.push(violation),
        }
    }
    let stale = matched
        .iter()
        .enumerate()
        .filter_map(|(i, m)| (!m).then_some(i))
        .collect();
    (kept, suppressed, stale)
}

/// Collapses runs of whitespace to single spaces and trims: the canonical
/// form of a snippet, tolerant of re-indentation.
pub fn normalize_ws(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Renders a violation as a ready-to-paste allowlist line (with a
/// placeholder justification the author must replace).
pub fn render_entry(v: &Violation) -> String {
    format!(
        "{} :: {} :: {} :: TODO justify",
        v.lint, v.path, v.snippet
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(lint: &'static str, path: &str, snippet: &str) -> Violation {
        Violation {
            lint,
            path: path.to_owned(),
            line: 1,
            message: String::new(),
            snippet: snippet.to_owned(),
        }
    }

    #[test]
    fn parses_and_applies() {
        let text = "# comment\n\
                    no-unwrap-in-lib :: crates/a/src/x.rs :: foo.unwrap(); :: known init invariant\n";
        let (entries, errors) = parse(text);
        assert!(errors.is_empty());
        assert_eq!(entries.len(), 1);
        let vs = vec![
            violation("no-unwrap-in-lib", "crates/a/src/x.rs", "foo.unwrap();"),
            violation("no-unwrap-in-lib", "crates/a/src/y.rs", "bar.unwrap();"),
        ];
        let (kept, suppressed, stale) = apply(&entries, vs);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].path, "crates/a/src/y.rs");
        assert_eq!(suppressed.len(), 1);
        assert!(stale.is_empty());
    }

    #[test]
    fn snippet_may_contain_path_separators() {
        let text = "no-std-sync-locks :: src/l.rs :: let x = std::sync::Mutex::new(0); :: bootstrap only\n";
        let (entries, errors) = parse(text);
        assert!(errors.is_empty());
        assert_eq!(entries[0].snippet, "let x = std::sync::Mutex::new(0);");
        assert_eq!(entries[0].justification, "bootstrap only");
    }

    #[test]
    fn stale_entries_reported() {
        let text = "no-unwrap-in-lib :: crates/a/src/x.rs :: gone.unwrap(); :: was fixed\n";
        let (entries, _) = parse(text);
        let (_, _, stale) = apply(&entries, Vec::new());
        assert_eq!(stale, vec![0]);
    }

    #[test]
    fn malformed_lines_are_errors() {
        let (entries, errors) = parse("just some words\nlint :: path :: snippet\n");
        assert!(entries.is_empty());
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0].line, 1);
        assert!(errors[1].message.contains("justification"));
    }

    #[test]
    fn normalize_collapses_whitespace() {
        assert_eq!(normalize_ws("  a\t b   c "), "a b c");
    }

    #[test]
    fn round_trips_via_render() {
        let v = violation("pub-item-doc-coverage", "crates/broker/src/x.rs", "pub fn f() {");
        let rendered = render_entry(&v);
        let (entries, errors) = parse(&rendered);
        assert!(errors.is_empty());
        let (kept, suppressed, stale) = apply(&entries, vec![v]);
        assert!(kept.is_empty());
        assert_eq!(suppressed.len(), 1);
        assert!(stale.is_empty());
    }
}
