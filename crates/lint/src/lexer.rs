//! The Rust lexer every rule runs on.
//!
//! [`tokenize`] produces a positioned token stream (identifiers,
//! literals, lifetimes, punctuation) with comments dropped and string,
//! char and numeric literals kept as single opaque tokens. The token
//! rules (R3–R6, R8, R13) match token sequences over it, and the
//! recursive-descent parser behind the AST rules (R2, R7, R9–R12) reads
//! the same stream.
//!
//! The lexer harvests `lint:` markers from comments: `lint:allow(rule,…)`
//! waives a rule at a site, `lint:mutator(Type,…)` declares a function
//! a sanctioned snapshot-mutation choke point (R9), and
//! `lint:root(determinism)` marks a function as a determinism-taint
//! root (R12).

use std::fmt;

/// A `lint:` marker harvested from a comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Marker {
    /// 1-based line the marker's comment starts on.
    pub line: usize,
    /// Marker kind: `allow`, `mutator`, or `root`.
    pub kind: MarkerKind,
    /// One entry per comma-separated argument.
    pub args: Vec<String>,
}

/// Which `lint:` marker family a comment carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkerKind {
    /// `lint:allow(rule)` — waive a rule at this site.
    Allow,
    /// `lint:mutator(Type)` — declared mutation choke point (R9).
    Mutator,
    /// `lint:root(determinism)` — taint-analysis root (R12).
    Root,
}

/// Harvests every `lint:<kind>(args)` marker from a comment body.
pub(crate) fn harvest_markers(body: &str, line: usize, out: &mut Vec<Marker>) {
    for (needle, kind) in [
        ("lint:allow(", MarkerKind::Allow),
        ("lint:mutator(", MarkerKind::Mutator),
        ("lint:root(", MarkerKind::Root),
    ] {
        let mut rest = body;
        while let Some(at) = rest.find(needle) {
            rest = &rest[at + needle.len()..];
            let Some(close) = rest.find(')') else { break };
            let args: Vec<String> = rest[..close]
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(str::to_string)
                .collect();
            if !args.is_empty() {
                out.push(Marker { line, kind, args });
            }
            rest = &rest[close..];
        }
    }
}

/// `r"`, `r#"`, `r##"`, ... (`br"` and `b"` arrive as an identifier
/// first; [`tokenize`] splices them).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i + 1;
    while j < chars.len() && chars[j] == '#' {
        j += 1;
    }
    j < chars.len() && chars[j] == '"'
}

/// Skips a string literal starting at `i`; returns its end index.
fn skip_string(chars: &[char], i: usize) -> usize {
    if chars[i] == 'r' {
        let mut hashes = 0;
        let mut j = i + 1;
        while j < chars.len() && chars[j] == '#' {
            hashes += 1;
            j += 1;
        }
        j += 1; // opening quote
        // Scan for `"` followed by `hashes` hashes.
        while j < chars.len() {
            if chars[j] == '"' && chars[j + 1..].iter().take_while(|&&c| c == '#').count() >= hashes
            {
                return j + 1 + hashes;
            }
            j += 1;
        }
        j.min(chars.len())
    } else {
        let mut j = i + 1;
        while j < chars.len() {
            match chars[j] {
                '\\' => j += 2,
                '"' => return j + 1,
                _ => j += 1,
            }
        }
        j.min(chars.len())
    }
}

/// Distinguishes `'a'` / `'\n'` char literals from `'a` lifetimes.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    if i + 2 >= chars.len() {
        return false;
    }
    if chars[i + 1] == '\\' {
        return true;
    }
    chars[i + 2] == '\'' && chars[i + 1] != '\''
}

fn skip_char_literal(chars: &[char], i: usize) -> usize {
    let mut j = i + 1;
    if j < chars.len() && chars[j] == '\\' {
        j += 2;
        // Escapes like \u{1F600} run until the closing quote.
        while j < chars.len() && chars[j] != '\'' {
            j += 1;
        }
        return (j + 1).min(chars.len());
    }
    while j < chars.len() && chars[j] != '\'' {
        j += 1;
    }
    (j + 1).min(chars.len())
}

/// Token classes produced by [`tokenize`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// `'a`-style lifetime.
    Lifetime,
    /// String, char, or numeric literal (contents opaque).
    Literal,
    /// Punctuation / operator (possibly multi-char, e.g. `::`, `=>`).
    Punct,
}

/// One positioned token.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text of the token (for literals: the raw literal text).
    pub text: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (in chars).
    pub col: usize,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:{}", self.text, self.line, self.col)
    }
}

impl Tok {
    /// True when the token is this exact punctuation text.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }

    /// True when the token is this exact identifier/keyword.
    pub fn is_ident(&self, id: &str) -> bool {
        self.kind == TokKind::Ident && self.text == id
    }
}

/// Multi-char operators, longest first so greedy matching is correct.
const JOINED: &[&str] = &[
    "..=", "...", "<<=", ">>=", "::", "->", "=>", "..", "==", "!=", "<=", ">=", "&&", "||", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Runs the lexer: comments skipped (markers harvested), string /
/// char / numeric literals kept as single opaque tokens, lifetimes
/// distinguished from char literals, multi-char operators joined.
pub fn tokenize(source: &str) -> (Vec<Tok>, Vec<Marker>) {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut markers = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    let bump = |c: char, line: &mut usize, col: &mut usize| {
        if c == '\n' {
            *line += 1;
            *col = 1;
        } else {
            *col += 1;
        }
    };
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            bump(c, &mut line, &mut col);
            i += 1;
        } else if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            let body: String = chars[start..i].iter().collect();
            harvest_markers(&body, line, &mut markers);
            // newline handled on next loop pass
            col += i - start;
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start = i;
            let start_line = line;
            let mut depth = 1;
            bump(chars[i], &mut line, &mut col);
            bump(chars[i + 1], &mut line, &mut col);
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump(chars[i], &mut line, &mut col);
                    bump(chars[i + 1], &mut line, &mut col);
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump(chars[i], &mut line, &mut col);
                    bump(chars[i + 1], &mut line, &mut col);
                    i += 2;
                } else {
                    bump(chars[i], &mut line, &mut col);
                    i += 1;
                }
            }
            let body: String = chars[start..i.min(chars.len())].iter().collect();
            harvest_markers(&body, start_line, &mut markers);
        } else if c == '"' || (c == 'r' && is_raw_string_start(&chars, i)) {
            let (tl, tc) = (line, col);
            let end = skip_string(&chars, i);
            let text: String = chars[i..end].iter().collect();
            for &sc in &chars[i..end] {
                bump(sc, &mut line, &mut col);
            }
            i = end;
            toks.push(Tok { kind: TokKind::Literal, text, line: tl, col: tc });
        } else if c == '\'' && is_char_literal(&chars, i) {
            let (tl, tc) = (line, col);
            let end = skip_char_literal(&chars, i);
            let text: String = chars[i..end].iter().collect();
            col += end - i;
            i = end;
            toks.push(Tok { kind: TokKind::Literal, text, line: tl, col: tc });
        } else if c == '\'' {
            // Lifetime: `'` + ident chars.
            let (tl, tc) = (line, col);
            let start = i;
            i += 1;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            col += i - start;
            toks.push(Tok { kind: TokKind::Lifetime, text, line: tl, col: tc });
        } else if c.is_ascii_digit() {
            // Numeric literal (including float / suffix / underscores;
            // tolerant: consume ident chars and at most one mid-number
            // `.` followed by a digit).
            let (tl, tc) = (line, col);
            let start = i;
            while i < chars.len()
                && (is_ident_char(chars[i])
                    || (chars[i] == '.'
                        && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                        && !chars[start..i].contains(&'.')))
            {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            col += i - start;
            toks.push(Tok { kind: TokKind::Literal, text, line: tl, col: tc });
        } else if is_ident_start(c) {
            let (tl, tc) = (line, col);
            let start = i;
            // Raw identifiers: `r#match`.
            if c == 'r' && chars.get(i + 1) == Some(&'#') && chars.get(i + 2).copied().is_some_and(is_ident_start) {
                i += 2;
            }
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            // `b"..."` byte strings: the `b` arrived first; splice.
            if (text == "b" || text == "br") && chars.get(i).is_some_and(|&q| q == '"' || q == '#') {
                // A raw byte string is scanned from its `r`.
                let end = skip_string(&chars, if text == "br" { i - 1 } else { i });
                let lit: String = chars[start..end].iter().collect();
                for &sc in &chars[i..end] {
                    bump(sc, &mut line, &mut col);
                }
                col += i - start;
                i = end;
                toks.push(Tok { kind: TokKind::Literal, text: lit, line: tl, col: tc });
                continue;
            }
            col += i - start;
            let text = text.strip_prefix("r#").unwrap_or(&text).to_string();
            toks.push(Tok { kind: TokKind::Ident, text, line: tl, col: tc });
        } else {
            // Punctuation, joining multi-char operators greedily.
            let (tl, tc) = (line, col);
            let mut matched = None;
            for op in JOINED {
                if op.chars().enumerate().all(|(k, oc)| chars.get(i + k) == Some(&oc)) {
                    matched = Some(*op);
                    break;
                }
            }
            let text = match matched {
                Some(op) => {
                    i += op.len();
                    col += op.len();
                    op.to_string()
                }
                None => {
                    i += 1;
                    col += 1;
                    c.to_string()
                }
            };
            toks.push(Tok { kind: TokKind::Punct, text, line: tl, col: tc });
        }
    }
    (toks, markers)
}

pub(crate) fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_idents_puncts_and_positions() {
        let (toks, _) = tokenize("fn f(a: u32) -> u32 {\n    a.g::<u8>()\n}");
        assert!(toks[0].is_ident("fn"));
        assert!(toks.iter().any(|t| t.is_punct("->")));
        assert!(toks.iter().any(|t| t.is_punct("::")));
        let a2 = toks.iter().find(|t| t.is_ident("a") && t.line == 2).expect("second a");
        assert_eq!(a2.col, 5);
    }

    #[test]
    fn tokenizer_skips_comments_and_harvests_markers() {
        let (toks, markers) =
            tokenize("x // lint:allow(no-panic-paths)\n/* lint:root(determinism) */ y");
        assert_eq!(toks.len(), 2);
        assert_eq!(markers.len(), 2);
        assert_eq!(markers[0].kind, MarkerKind::Allow);
        assert_eq!(markers[1].kind, MarkerKind::Root);
        assert_eq!(markers[1].line, 2);
    }

    #[test]
    fn tokenizer_handles_strings_chars_lifetimes() {
        let (toks, _) = tokenize("let s = \"a } b\"; let c = 'x'; fn g<'a>(x: &'a str) {}");
        assert!(toks.iter().any(|t| t.kind == TokKind::Literal && t.text.contains("a } b")));
        assert!(toks.iter().any(|t| t.kind == TokKind::Literal && t.text == "'x'"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
    }

    #[test]
    fn raw_byte_strings_and_unterminated_strings_are_single_literals() {
        let (toks, _) = tokenize("let b = br\"a\\\"; x");
        assert!(toks.iter().any(|t| t.kind == TokKind::Literal && t.text == "br\"a\\\""));
        assert!(toks.iter().any(|t| t.is_ident("x")), "the literal ends at its quote");
        let (toks, _) = tokenize("let s = \"abc\\");
        assert_eq!(toks.last().map(|t| t.kind), Some(TokKind::Literal));
    }

    #[test]
    fn tokenizer_floats_and_ranges() {
        let (toks, _) = tokenize("1.5 + x[1..3] + 0..=9");
        assert!(toks.iter().any(|t| t.kind == TokKind::Literal && t.text == "1.5"));
        assert!(toks.iter().any(|t| t.is_punct("..")));
        assert!(toks.iter().any(|t| t.is_punct("..=")));
    }
}
