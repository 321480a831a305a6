//! A hand-rolled Rust lexer: enough of the language to lint it safely.
//!
//! The lexer's one job is to never mistake text inside a string, char,
//! or comment for code. It understands escapes in `"…"` and `'…'`
//! literals, raw strings (`r"…"`, `r#"…"#`, any hash depth, with `b`/`c`
//! prefixes), raw identifiers (`r#match`), lifetimes vs char literals,
//! and nested block comments. Everything else degrades to single-char
//! punctuation tokens, which is all the lints need.
//!
//! Line comments are scanned for `crh-lint: allow(...)` pragmas; the
//! suppressions are returned alongside the token stream.

use std::collections::BTreeMap;

/// What a token is. The lints only ever inspect identifiers and
/// punctuation; literal contents are deliberately opaque so an
/// `unwrap` spelled inside a string can never fire a lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`unwrap`, `fn`, `let`, …).
    Ident(String),
    /// Any string-like literal: `"…"`, raw, byte, or C string.
    Str,
    /// A character literal, escapes included.
    Char,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A numeric literal (`255`, `0xC1A5`, `1_000u64`, `2.5`).
    Num,
    /// A single punctuation character (`.`, `[`, `!`, …).
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub kind: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// One inline suppression: `// crh-lint: allow(<id>) — <justification>`.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// The lint ids being allowed.
    pub ids: Vec<String>,
    /// 1-based line the pragma comment sits on.
    pub line: u32,
}

/// A malformed pragma (missing justification, unparsable id list).
#[derive(Debug, Clone)]
pub struct BadPragma {
    /// 1-based line of the broken pragma.
    pub line: u32,
    /// Why it was rejected.
    pub reason: String,
}

/// The suppression table built from a file's comments.
#[derive(Debug, Default)]
pub struct Pragmas {
    /// line → lint ids allowed on that line (and the next).
    allows: BTreeMap<u32, Vec<String>>,
    /// Pragmas that failed to parse; reported as `bad-pragma` findings.
    pub bad: Vec<BadPragma>,
}

impl Pragmas {
    /// Whether `lint` is suppressed at `line`. A pragma covers its own
    /// line (trailing comment) and the line below it (comment above the
    /// offending statement).
    pub fn allows(&self, lint: &str, line: u32) -> bool {
        let hit = |l: u32| {
            self.allows
                .get(&l)
                .is_some_and(|ids| ids.iter().any(|i| i == lint))
        };
        hit(line) || (line > 1 && hit(line - 1))
    }

    fn record(&mut self, p: Pragma) {
        self.allows.entry(p.line).or_default().extend(p.ids);
    }
}

const PRAGMA_MARKER: &str = "crh-lint:";

/// Parse the body of a line comment as a pragma, if it is one.
///
/// A pragma must *start* the comment (after the doc-comment `/`/`!`
/// markers, if any). Prose that merely mentions the syntax — e.g. a doc
/// comment quoting `` `// crh-lint: allow(<id>)` `` mid-sentence — is
/// not a suppression and is not validated as one.
fn parse_pragma(comment: &str, line: u32, out: &mut Pragmas) {
    let body = comment
        .trim_start()
        .trim_start_matches(['/', '!'])
        .trim_start();
    let Some(rest) = body.strip_prefix(PRAGMA_MARKER) else {
        return;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        out.bad.push(BadPragma {
            line,
            reason: "expected `allow(<lint-id>)` after `crh-lint:`".into(),
        });
        return;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        out.bad.push(BadPragma {
            line,
            reason: "expected `(` after `allow`".into(),
        });
        return;
    };
    let Some(close) = rest.find(')') else {
        out.bad.push(BadPragma {
            line,
            reason: "unclosed `allow(` pragma".into(),
        });
        return;
    };
    let ids: Vec<String> = rest[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if ids.is_empty() {
        out.bad.push(BadPragma {
            line,
            reason: "empty lint-id list in `allow(...)`".into(),
        });
        return;
    }
    // A typo'd lint id would silently suppress nothing; reject it loudly
    // instead so the pragma gets fixed rather than trusted.
    let unknown: Vec<&str> = ids
        .iter()
        .filter(|id| !crate::lints::known_lint(id))
        .map(String::as_str)
        .collect();
    if !unknown.is_empty() {
        out.bad.push(BadPragma {
            line,
            reason: format!("unknown lint id(s) in pragma: {}", unknown.join(", ")),
        });
        return;
    }
    // The justification is mandatory: whatever follows the id list,
    // once separators are stripped, must be non-empty prose.
    let justification = rest[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '-', ':', '–'])
        .trim();
    if justification.is_empty() {
        out.bad.push(BadPragma {
            line,
            reason: format!(
                "pragma for `{}` has no justification; write \
                 `// crh-lint: allow(<id>) — <why this is safe>`",
                ids.join(", ")
            ),
        });
        return;
    }
    out.record(Pragma { ids, line });
}

/// Lex `src` into a token stream and its pragma table.
pub fn lex(src: &str) -> (Vec<Token>, Pragmas) {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut pragmas = Pragmas::default();
    let mut i = 0usize;
    let mut line = 1u32;

    // Consume a quoted run (string or char) starting at the opening
    // quote; handles \-escapes and counts newlines. Returns the index
    // one past the closing quote.
    fn skip_quoted(chars: &[char], mut i: usize, quote: char, line: &mut u32) -> usize {
        i += 1; // opening quote
        while i < chars.len() {
            match chars[i] {
                '\\' => i += 2,
                '\n' => {
                    *line += 1;
                    i += 1;
                }
                c if c == quote => return i + 1,
                _ => i += 1,
            }
        }
        i
    }

    // Consume a raw string starting at the first `#` or `"` after the
    // `r` prefix. Returns one past the closing delimiter.
    fn skip_raw_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
        let mut hashes = 0usize;
        while i < chars.len() && chars[i] == '#' {
            hashes += 1;
            i += 1;
        }
        if i >= chars.len() || chars[i] != '"' {
            return i; // not actually a raw string; caller re-lexes
        }
        i += 1;
        while i < chars.len() {
            if chars[i] == '\n' {
                *line += 1;
                i += 1;
            } else if chars[i] == '"' {
                let mut j = i + 1;
                let mut seen = 0usize;
                while seen < hashes && j < chars.len() && chars[j] == '#' {
                    seen += 1;
                    j += 1;
                }
                if seen == hashes {
                    return j;
                }
                i += 1;
            } else {
                i += 1;
            }
        }
        i
    }

    while i < chars.len() {
        let c = chars[i];
        let start_line = line;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let mut j = i + 2;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                let comment: String = chars[i + 2..j].iter().collect();
                parse_pragma(&comment, line, &mut pragmas);
                i = j;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // block comment, nesting-aware
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < chars.len() && depth > 0 {
                    if chars[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                i = skip_quoted(&chars, i, '"', &mut line);
                toks.push(Token {
                    kind: Tok::Str,
                    line: start_line,
                });
            }
            '\'' => {
                // lifetime vs char literal
                let next = chars.get(i + 1).copied();
                let after = chars.get(i + 2).copied();
                let is_lifetime =
                    matches!(next, Some(n) if n.is_alphabetic() || n == '_') && after != Some('\'');
                if is_lifetime {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    toks.push(Token {
                        kind: Tok::Lifetime,
                        line: start_line,
                    });
                } else {
                    i = skip_quoted(&chars, i, '\'', &mut line);
                    toks.push(Token {
                        kind: Tok::Char,
                        line: start_line,
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let word: String = chars[i..j].iter().collect();
                let next = chars.get(j).copied();
                match (word.as_str(), next) {
                    // raw string prefixes: r"…", r#"…"#, br"…", cr#"…"#
                    ("r" | "br" | "cr", Some('"')) => {
                        i = skip_raw_string(&chars, j, &mut line);
                        toks.push(Token {
                            kind: Tok::Str,
                            line: start_line,
                        });
                    }
                    ("r" | "br" | "cr", Some('#')) => {
                        // raw string with hashes — or a raw identifier
                        // (`r#match`). Peek past the hashes for a quote.
                        let mut k = j;
                        while k < chars.len() && chars[k] == '#' {
                            k += 1;
                        }
                        if chars.get(k) == Some(&'"') {
                            i = skip_raw_string(&chars, j, &mut line);
                            toks.push(Token {
                                kind: Tok::Str,
                                line: start_line,
                            });
                        } else {
                            // raw identifier: emit the bare name
                            let mut m = j + 1;
                            while m < chars.len() && (chars[m].is_alphanumeric() || chars[m] == '_')
                            {
                                m += 1;
                            }
                            toks.push(Token {
                                kind: Tok::Ident(chars[j + 1..m].iter().collect()),
                                line: start_line,
                            });
                            i = m;
                        }
                    }
                    // byte/C string with a simple prefix: `b"…"`, `c"…"`
                    ("b" | "c", Some('"')) => {
                        i = skip_quoted(&chars, j, '"', &mut line);
                        toks.push(Token {
                            kind: Tok::Str,
                            line: start_line,
                        });
                    }
                    ("b", Some('\'')) => {
                        i = skip_quoted(&chars, j, '\'', &mut line);
                        toks.push(Token {
                            kind: Tok::Char,
                            line: start_line,
                        });
                    }
                    _ => {
                        toks.push(Token {
                            kind: Tok::Ident(word),
                            line: start_line,
                        });
                        i = j;
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < chars.len() {
                    let d = chars[j];
                    if d.is_alphanumeric() || d == '_' {
                        j += 1;
                    } else if d == '.'
                        && chars.get(j + 1).is_some_and(|n| n.is_ascii_digit())
                        && chars.get(j.wrapping_sub(1)) != Some(&'.')
                    {
                        // decimal point, not a `0..4` range
                        j += 1;
                    } else {
                        break;
                    }
                }
                toks.push(Token {
                    kind: Tok::Num,
                    line: start_line,
                });
                i = j;
            }
            other => {
                toks.push(Token {
                    kind: Tok::Punct(other),
                    line: start_line,
                });
                i += 1;
            }
        }
    }
    (toks, pragmas)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(idents(r#"let x = "call unwrap() here";"#), vec!["let", "x"]);
        assert_eq!(
            idents(r##"let x = r#"unwrap() "quoted" "#;"##),
            vec!["let", "x"]
        );
        assert_eq!(idents(r#"let b = b"unwrap";"#), vec!["let", "b"]);
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        assert_eq!(
            idents("/* outer /* unwrap() */ still comment */ fn f() {}"),
            vec!["fn", "f"]
        );
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let (toks, _) = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = toks.iter().filter(|t| t.kind == Tok::Lifetime).count();
        let charlits = toks.iter().filter(|t| t.kind == Tok::Char).count();
        assert_eq!((lifetimes, charlits), (2, 1));
    }

    #[test]
    fn escaped_quote_in_char_literal() {
        assert_eq!(
            idents(r"let q = '\''; fn g() {}"),
            vec!["let", "q", "fn", "g"]
        );
    }

    #[test]
    fn raw_identifiers_emit_bare_name() {
        assert_eq!(idents("let r#match = 1;"), vec!["let", "match"]);
    }

    #[test]
    fn lines_are_tracked_through_multiline_literals() {
        let (toks, _) = lex("let s = \"a\nb\nc\";\nfn f() {}");
        let f = toks
            .iter()
            .find(|t| t.kind == Tok::Ident("fn".into()))
            .map(|t| t.line);
        assert_eq!(f, Some(4));
    }

    #[test]
    fn pragma_with_justification_parses() {
        let (_, p) =
            lex("x.unwrap(); // crh-lint: allow(panic-unwrap) — lock poisoning is fatal here\n");
        assert!(p.allows("panic-unwrap", 1));
        assert!(!p.allows("panic-expect", 1));
        assert!(p.bad.is_empty());
    }

    #[test]
    fn pragma_covers_next_line() {
        let (_, p) = lex("// crh-lint: allow(nondet-clock) — wall clock never feeds the digest\nlet t = now();\n");
        assert!(p.allows("nondet-clock", 2));
        assert!(!p.allows("nondet-clock", 3));
    }

    #[test]
    fn pragma_without_justification_is_bad() {
        let (_, p) = lex("// crh-lint: allow(panic-unwrap)\nx.unwrap();\n");
        assert!(!p.allows("panic-unwrap", 2));
        assert_eq!(p.bad.len(), 1);
    }

    #[test]
    fn byte_strings_hide_their_contents() {
        // Plain byte strings, with escapes, and raw byte strings at any
        // hash depth must all lex as one opaque `Str` token.
        assert_eq!(idents(r#"let x = b"lock() \" fsync";"#), vec!["let", "x"]);
        assert_eq!(
            idents(r###"let x = br##"sync_all() "quoted"# "##; fn f() {}"###),
            vec!["let", "x", "fn", "f"]
        );
        assert_eq!(idents(r#"let c = c"connect()";"#), vec!["let", "c"]);
    }

    #[test]
    fn byte_char_with_escape() {
        assert_eq!(
            idents(r"let b = b'\xff'; fn g() {}"),
            vec!["let", "b", "fn", "g"]
        );
    }

    #[test]
    fn raw_identifier_before_call_parens() {
        // `r#fn` is an identifier, not a raw-string start; the following
        // `(` must survive as punctuation so a parser sees a call.
        let (toks, _) = lex("r#fn(1); r#try()");
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.kind).collect();
        assert_eq!(kinds[0], &Tok::Ident("fn".into()));
        assert_eq!(kinds[1], &Tok::Punct('('));
        assert!(kinds.contains(&&Tok::Ident("try".into())));
    }

    #[test]
    fn numeric_literals_are_one_token_each() {
        let (toks, _) = lex("const A: u8 = 0xC1; let b = 1_000u64; let f = 2.5; 0..4");
        let nums = toks.iter().filter(|t| t.kind == Tok::Num).count();
        assert_eq!(nums, 5, "0xC1, 1_000u64, 2.5, and both ends of the range");
    }

    #[test]
    fn pragma_id_list() {
        let (_, p) = lex(
            "// crh-lint: allow(panic-unwrap, index-slice) — bounds checked on entry\ncode();\n",
        );
        assert!(p.allows("panic-unwrap", 2));
        assert!(p.allows("index-slice", 2));
    }
}
