//! A hand-rolled Rust lexer: the analyzer's only reader of source text.
//!
//! Every lint and pass matches tokens, never raw text, so `Foo::bar(` or
//! `.unwrap()` is matched structurally and nothing inside a comment or
//! a literal can match. The lexer produces exactly the token stream the
//! parser ([`crate::parse`]) and the lints need and nothing more:
//!
//! * Comments (line, doc, and *nested* block comments) are skipped.
//! * String-ish literals — plain, raw (`r#".."#`), byte, byte-raw — are
//!   one [`TokKind::Str`] token each, so braces and keywords inside them
//!   can never confuse brace matching.
//! * `'a` lexes as a [`TokKind::Lifetime`], `'a'` as a [`TokKind::Char`]:
//!   the classic ambiguity is resolved by looking one character past the
//!   identifier run.
//! * Raw identifiers (`r#match`) lex as [`TokKind::Ident`] with the
//!   `r#` prefix stripped, so name-based matching sees `match`.
//! * Punctuation is one token per character, except the three glued
//!   pairs the parser needs as units: `::`, `->`, `=>`. In particular
//!   `Vec<Vec<u8>>` ends in two separate `>` tokens — nested generics
//!   never produce a shift token.
//!
//! Numeric literals are deliberately coarse (`0xFF_u64` is one token,
//! `1.5` is three) — no pass cares about numeric values beyond "this is
//! a literal, not an identifier".

/// Classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers are normalized).
    Ident,
    /// A `'name` lifetime (text keeps the quote).
    Lifetime,
    /// Numeric literal, including suffix (`0xFF`, `42u64`).
    Num,
    /// Any string-ish literal: `".."`, `r#".."#`, `b".."`, `br".."`.
    Str,
    /// A char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation: one char, or one of the glued pairs `::` `->` `=>`.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (raw identifiers normalized; literals keep their
    /// delimiters except [`TokKind::Str`], whose text is just `"`).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Whether this is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// Whether this is punctuation with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into a token vector. Unterminated literals and stray
/// bytes never abort the lex: the goal is a best-effort stream over real
/// workspace code, which rustc has already accepted.
pub fn lex(source: &str) -> Vec<Tok> {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if next == Some('/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                let mut depth = 1u32;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                i = skip_escaped_str(&chars, i + 1, &mut line);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: "\"".to_owned(),
                    line: start_line,
                });
            }
            'r' | 'b' if raw_or_byte_literal(&chars, i).is_some() => {
                let start_line = line;
                // Kind and position of the opening quote.
                let (lit, quote_at, hashes) =
                    raw_or_byte_literal(&chars, i).unwrap_or((LitStart::Str, i, 0));
                match lit {
                    LitStart::RawIdent => {
                        // `r#match`: strip the prefix, lex the identifier.
                        let mut j = i + 2;
                        while j < chars.len() && is_ident_continue(chars[j]) {
                            j += 1;
                        }
                        toks.push(Tok {
                            kind: TokKind::Ident,
                            text: chars[i + 2..j].iter().collect(),
                            line,
                        });
                        i = j;
                    }
                    LitStart::Str => {
                        // Raw string (hashes may be 0) or byte string.
                        i = quote_at + 1;
                        if hashes == 0 && chars.get(quote_at) == Some(&'"') && lit_is_escaped(&chars, i - 1)
                        {
                            // b"..": plain escapes apply.
                            i = skip_escaped_str(&chars, i, &mut line);
                        } else {
                            // Raw: ends at `"` followed by `hashes` hashes.
                            while i < chars.len() {
                                if chars[i] == '"' && closing_hashes(&chars, i + 1) >= hashes {
                                    i += 1 + hashes as usize;
                                    break;
                                }
                                if chars[i] == '\n' {
                                    line += 1;
                                }
                                i += 1;
                            }
                        }
                        toks.push(Tok {
                            kind: TokKind::Str,
                            text: "\"".to_owned(),
                            line: start_line,
                        });
                    }
                    LitStart::Char => {
                        // b'x' or b'\n'.
                        i = quote_at + 1;
                        while i < chars.len() {
                            match chars[i] {
                                '\\' => i += 2,
                                '\'' => {
                                    i += 1;
                                    break;
                                }
                                _ => i += 1,
                            }
                        }
                        toks.push(Tok {
                            kind: TokKind::Char,
                            text: "'".to_owned(),
                            line: start_line,
                        });
                    }
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && (is_ident_continue(chars[i])) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            '\'' => {
                // Lifetime vs char literal: `'a` + ident-run + `'` closes
                // a char; `'a` + ident-run + anything else is a lifetime.
                let is_char = match next {
                    Some('\\') => true,
                    Some(n) if is_ident_start(n) => {
                        let mut j = i + 2;
                        while j < chars.len() && is_ident_continue(chars[j]) {
                            j += 1;
                        }
                        chars.get(j) == Some(&'\'')
                    }
                    // `' '`: no lifetime starts with whitespace.
                    Some(n) if n.is_whitespace() => chars.get(i + 2) == Some(&'\''),
                    Some(n) if n != '\'' => true, // '(' etc.
                    _ => false,
                };
                if is_char {
                    i += 1;
                    while i < chars.len() {
                        match chars[i] {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: "'".to_owned(),
                        line,
                    });
                } else {
                    let start = i;
                    i += 1;
                    while i < chars.len() && is_ident_continue(chars[i]) {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: chars[start..i].iter().collect(),
                        line,
                    });
                }
            }
            _ => {
                // Punctuation: glue only the pairs the parser treats as
                // units. `>>` stays two tokens so nested generics close.
                let pair = match (c, next) {
                    (':', Some(':')) => Some("::"),
                    ('-', Some('>')) => Some("->"),
                    ('=', Some('>')) => Some("=>"),
                    _ => None,
                };
                match pair {
                    Some(p) => {
                        toks.push(Tok {
                            kind: TokKind::Punct,
                            text: p.to_owned(),
                            line,
                        });
                        i += 2;
                    }
                    None => {
                        toks.push(Tok {
                            kind: TokKind::Punct,
                            text: c.to_string(),
                            line,
                        });
                        i += 1;
                    }
                }
            }
        }
    }
    toks
}

/// From just past the opening `"` of an escape-processing string, returns
/// the index just past its closing `"`, counting every newline it spans
/// into `line` — including one an escape skips (`\` at a line end).
fn skip_escaped_str(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

#[derive(Clone, Copy)]
enum LitStart {
    /// `r#ident` — a raw identifier, not a literal at all.
    RawIdent,
    /// A string-ish literal; the opening quote is `"`.
    Str,
    /// A byte-char literal; the opening quote is `'`.
    Char,
}

/// If `chars[i..]` starts an `r`/`b`-prefixed literal (or raw
/// identifier), classifies it and returns `(kind, quote_index, hashes)`.
fn raw_or_byte_literal(chars: &[char], i: usize) -> Option<(LitStart, usize, u32)> {
    let mut j = i;
    let mut saw_b = false;
    let mut saw_r = false;
    if chars.get(j) == Some(&'b') {
        saw_b = true;
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        saw_r = true;
        j += 1;
    } else if chars.get(j) == Some(&'b') && !saw_b {
        saw_b = true;
        j += 1;
    }
    if !saw_b && !saw_r {
        return None;
    }
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    match chars.get(j) {
        Some('"') => Some((LitStart::Str, j, hashes)),
        Some('\'') if saw_b && !saw_r && hashes == 0 => Some((LitStart::Char, j, 0)),
        Some(c) if saw_r && !saw_b && hashes == 1 && is_ident_start(*c) => {
            Some((LitStart::RawIdent, j, 0))
        }
        _ => None,
    }
}

/// Whether the quote at `quote_at` opens an escape-processing literal
/// (`b".."`) rather than a raw one — i.e. no `r` appeared in the prefix.
fn lit_is_escaped(chars: &[char], quote_at: usize) -> bool {
    // The prefix is at most two chars (`br`); raw iff any of them is 'r'.
    let lo = quote_at.saturating_sub(2);
    !chars[lo..quote_at].contains(&'r')
}

fn closing_hashes(chars: &[char], from: usize) -> u32 {
    let mut n = 0u32;
    while chars.get(from + n as usize) == Some(&'#') {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds_and_texts(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds_and_texts("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; let s = ' '; }");
        assert!(toks.contains(&(TokKind::Lifetime, "'a".to_owned())));
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Char).count(),
            3,
            "{toks:?}"
        );
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
    }

    #[test]
    fn nested_generics_close_with_single_gt_tokens() {
        let toks = kinds_and_texts("let v: Vec<Vec<u8>> = Vec::new();");
        let gts = toks.iter().filter(|(k, t)| *k == TokKind::Punct && t == ">").count();
        assert_eq!(gts, 2, "`>>` must lex as two `>` tokens: {toks:?}");
        assert!(toks.contains(&(TokKind::Punct, "::".to_owned())));
    }

    #[test]
    fn raw_identifiers_normalize() {
        let toks = kinds_and_texts("let r#match = r#fn + 1;");
        assert!(toks.contains(&(TokKind::Ident, "match".to_owned())));
        assert!(toks.contains(&(TokKind::Ident, "fn".to_owned())));
    }

    #[test]
    fn raw_and_byte_strings_are_single_tokens() {
        let toks = kinds_and_texts(r####"let s = r#"{ "not code" }"#; let b = b"x\"y"; let c = b'z';"####);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Str).count(),
            2,
            "{toks:?}"
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
        // No brace tokens leaked out of the raw string.
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Punct && t == "{"));
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let toks = kinds_and_texts("a /* outer /* inner */ still comment */ b");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "a".to_owned()),
                (TokKind::Ident, "b".to_owned())
            ]
        );
    }

    #[test]
    fn escaped_newlines_count_as_lines() {
        let toks = lex("let s = \"a \\\n b\";\nx");
        assert_eq!(toks.last().map(|t| (t.text.as_str(), t.line)), Some(("x", 3)));
    }

    #[test]
    fn glued_pairs_and_lines() {
        let toks = lex("x::y\n-> =>");
        assert_eq!(toks[1].text, "::");
        assert_eq!(toks[3].text, "->");
        assert_eq!(toks[3].line, 2);
        assert_eq!(toks[4].text, "=>");
    }

    #[test]
    fn numbers_swallow_suffixes_not_ranges() {
        let toks = kinds_and_texts("0..10u64");
        assert_eq!(
            toks,
            vec![
                (TokKind::Num, "0".to_owned()),
                (TokKind::Punct, ".".to_owned()),
                (TokKind::Punct, ".".to_owned()),
                (TokKind::Num, "10u64".to_owned()),
            ]
        );
    }
}
