//! A small, string/char/comment-aware Rust lexer.
//!
//! The invariant rules in [`crate::rules`] need token streams, not
//! grapheme soup: `x[i]` inside a string literal or a doc comment is
//! not an indexing expression, `'a` in `&'a str` is not an unclosed
//! char literal, and `1.0` must come out as *one float token* so that
//! `x == 1.0` is recognizable. That is all this lexer guarantees — it
//! does not build an AST, resolve macros, or validate syntax. Anything
//! it cannot classify is emitted as punctuation and ignored by the
//! rules.
//!
//! Comments are not discarded: they carry the `// lint: allow(...)`
//! annotations, so they are returned alongside the token stream with
//! their line numbers and whether they had code before them on the
//! same line.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An identifier or keyword (`foo`, `fn`, `self`).
    Ident,
    /// A lifetime or loop label (`'a`, `'outer`).
    Lifetime,
    /// An integer literal (`42`, `0xFF`, `10usize`).
    Int,
    /// A floating-point literal (`1.0`, `2e-3`, `0.5f32`).
    Float,
    /// A string or byte-string literal, raw or not.
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Any operator or delimiter (`::`, `==`, `[`, `.`).
    Punct,
}

/// One lexed token with its 1-based source line and byte span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lexeme class.
    pub kind: Kind,
    /// The token text. For [`Kind::Str`] and [`Kind::Char`] this is a
    /// placeholder, not the literal's contents — no rule looks inside.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
    /// Byte offset of the token's first byte in the source.
    pub start: usize,
    /// Byte offset one past the token's last byte. Invariants (fuzzed
    /// in `tests/fuzz.rs`): `start <= end <= src.len()`, and both fall
    /// on UTF-8 character boundaries.
    pub end: usize,
}

/// One `//` line comment (doc comments included), with position info
/// the allow-annotation parser needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Comment text after the `//`, untrimmed.
    pub text: String,
    /// 1-based line the comment is on.
    pub line: usize,
    /// Byte offset of the `//` that opens the comment.
    pub start: usize,
    /// True when a token precedes the comment on the same line
    /// (a *trailing* comment annotates its own line; an *own-line*
    /// comment annotates the next token-bearing line).
    pub trailing: bool,
}

/// The full result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// All `//` comments in source order.
    pub comments: Vec<Comment>,
}

/// Rust's strict and reserved keywords, minus `self`: the rules treat
/// `self[i]` as a real indexing expression, so `self` stays an
/// ordinary (indexable) identifier for their purposes.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "do", "dyn", "else",
    "enum", "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "macro", "match",
    "mod", "move", "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true",
    "try", "type", "union", "unsafe", "use", "where", "while", "yield",
];

/// True for every keyword that cannot be the tail of an expression
/// (see `KEYWORDS` for the deliberate `self` exception).
#[must_use]
pub fn is_keyword(ident: &str) -> bool {
    KEYWORDS.contains(&ident)
}

/// Character cursor over the source with safe lookahead.
struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    byte: usize,
}

impl Cursor {
    fn new(src: &str) -> Cursor {
        Cursor {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            byte: 0,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos.saturating_add(ahead)).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0);
        if let Some(ch) = c {
            self.pos = self.pos.saturating_add(1);
            self.byte = self.byte.saturating_add(ch.len_utf8());
            if ch == '\n' {
                self.line = self.line.saturating_add(1);
            }
        }
        c
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek(0) {
            if pred(c) {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
        out
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Multi-character operators, longest first so maximal munch works.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lexes `src` into tokens and comments. Total: never panics, never
/// fails — unrecognizable bytes come out as single-char punctuation.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();
    // Line of the most recently emitted token, to mark comments as
    // trailing when they share it.
    let mut last_token_line = 0usize;

    while let Some(c) = cur.peek(0) {
        let line = cur.line;
        let start = cur.byte;

        // Whitespace.
        if c.is_whitespace() {
            cur.bump();
            continue;
        }

        // Line comments, doc comments included.
        if c == '/' && cur.peek(1) == Some('/') {
            cur.bump();
            cur.bump();
            let text = cur.eat_while(|ch| ch != '\n');
            out.comments.push(Comment {
                text,
                line,
                start,
                trailing: last_token_line == line,
            });
            continue;
        }

        // Block comments, nested per Rust.
        if c == '/' && cur.peek(1) == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1usize;
            while depth > 0 {
                match (cur.peek(0), cur.peek(1)) {
                    (Some('/'), Some('*')) => {
                        cur.bump();
                        cur.bump();
                        depth = depth.saturating_add(1);
                    }
                    (Some('*'), Some('/')) => {
                        cur.bump();
                        cur.bump();
                        depth = depth.saturating_sub(1);
                    }
                    (Some(_), _) => {
                        cur.bump();
                    }
                    (None, _) => break,
                }
            }
            continue;
        }

        // Raw and byte strings: r"..", r#".."#, b"..", br#".."#. A raw
        // prefix only counts when hashes (if any) are followed by a
        // quote — `r#type` is a raw identifier, not a string.
        if matches!(c, 'r' | 'b') {
            let raw_quote_after = |start: usize| {
                let mut k = start;
                while cur.peek(k) == Some('#') {
                    k = k.saturating_add(1);
                }
                cur.peek(k) == Some('"')
            };
            let (skip, is_raw) = match (c, cur.peek(1)) {
                ('r', Some('"' | '#')) if raw_quote_after(1) => (1usize, true),
                ('b', Some('r')) if raw_quote_after(2) => (2, true),
                ('b', Some('"')) => (1, false),
                ('b', Some('\'')) => {
                    // Byte literal b'x': delegate to the char branch by
                    // consuming the `b` here.
                    cur.bump();
                    lex_char_literal(&mut cur);
                    out.tokens.push(Token {
                        kind: Kind::Char,
                        text: String::from("<byte>"),
                        line,
                        start,
                        end: cur.byte,
                    });
                    last_token_line = line;
                    continue;
                }
                _ => (0, false),
            };
            if skip > 0 {
                for _ in 0..skip {
                    cur.bump();
                }
                if is_raw {
                    let hashes = cur.eat_while(|ch| ch == '#').chars().count();
                    cur.bump(); // opening quote
                    lex_raw_string_body(&mut cur, hashes);
                } else {
                    cur.bump(); // opening quote
                    lex_string_body(&mut cur);
                }
                out.tokens.push(Token {
                    kind: Kind::Str,
                    text: String::from("<str>"),
                    line,
                    start,
                    end: cur.byte,
                });
                last_token_line = line;
                continue;
            }
        }

        // Identifiers and keywords (including the r/b that fell
        // through above).
        if is_ident_start(c) {
            let text = cur.eat_while(is_ident_continue);
            out.tokens.push(Token {
                kind: Kind::Ident,
                text,
                line,
                start,
                end: cur.byte,
            });
            last_token_line = line;
            continue;
        }

        // Numbers.
        if c.is_ascii_digit() {
            let after_dot = out
                .tokens
                .last()
                .is_some_and(|t| t.kind == Kind::Punct && t.text == ".");
            let kind = lex_number(&mut cur, after_dot);
            out.tokens.push(Token {
                kind,
                text: String::from("<num>"),
                line,
                start,
                end: cur.byte,
            });
            last_token_line = line;
            continue;
        }

        // Plain strings.
        if c == '"' {
            cur.bump();
            lex_string_body(&mut cur);
            out.tokens.push(Token {
                kind: Kind::Str,
                text: String::from("<str>"),
                line,
                start,
                end: cur.byte,
            });
            last_token_line = line;
            continue;
        }

        // Char literal or lifetime.
        if c == '\'' {
            let next = cur.peek(1);
            let is_lifetime = match next {
                Some(n) if is_ident_start(n) => {
                    // 'a' is a char, 'a is a lifetime: decide by the
                    // char after the identifier run.
                    let mut k = 2usize;
                    while cur.peek(k).is_some_and(is_ident_continue) {
                        k = k.saturating_add(1);
                    }
                    cur.peek(k) != Some('\'') || k > 2
                }
                _ => false,
            };
            if is_lifetime {
                cur.bump(); // the quote
                let name = cur.eat_while(is_ident_continue);
                out.tokens.push(Token {
                    kind: Kind::Lifetime,
                    text: name,
                    line,
                    start,
                    end: cur.byte,
                });
            } else {
                lex_char_literal(&mut cur);
                out.tokens.push(Token {
                    kind: Kind::Char,
                    text: String::from("<char>"),
                    line,
                    start,
                    end: cur.byte,
                });
            }
            last_token_line = line;
            continue;
        }

        // Multi-char operators, longest first.
        let matched = PUNCTS.iter().find(|p| {
            p.chars()
                .enumerate()
                .all(|(i, want)| cur.peek(i) == Some(want))
        });
        if let Some(p) = matched {
            for _ in 0..p.chars().count() {
                cur.bump();
            }
            out.tokens.push(Token {
                kind: Kind::Punct,
                text: (*p).to_owned(),
                line,
                start,
                end: cur.byte,
            });
            last_token_line = line;
            continue;
        }

        // Single-char punctuation (or anything unrecognized).
        cur.bump();
        out.tokens.push(Token {
            kind: Kind::Punct,
            text: c.to_string(),
            line,
            start,
            end: cur.byte,
        });
        last_token_line = line;
    }

    out
}

/// Consumes a string body after the opening quote, honoring `\`
/// escapes. Stops after the closing quote or at end of input.
fn lex_string_body(cur: &mut Cursor) {
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes a raw string body after the opening quote; `hashes` is the
/// number of `#` between the `r` and the quote.
fn lex_raw_string_body(cur: &mut Cursor, hashes: usize) {
    while let Some(c) = cur.bump() {
        if c == '"' {
            let mut seen = 0usize;
            while seen < hashes && cur.peek(0) == Some('#') {
                cur.bump();
                seen = seen.saturating_add(1);
            }
            if seen == hashes {
                break;
            }
        }
    }
}

/// Consumes a char/byte literal starting at the opening quote.
fn lex_char_literal(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '\'' => break,
            _ => {}
        }
    }
}

/// Consumes a numeric literal whose first digit is under the cursor
/// and classifies it as [`Kind::Int`] or [`Kind::Float`].
///
/// `after_dot` marks tuple-index position (`pair.0`): there the digits
/// are always an integer index and a following `.` belongs to the next
/// field access, never to a fraction.
fn lex_number(cur: &mut Cursor, after_dot: bool) -> Kind {
    // Radix prefixes are always integers.
    if cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x' | 'o' | 'b')) {
        cur.bump();
        cur.bump();
        cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
        return Kind::Int;
    }
    cur.eat_while(|c| c.is_ascii_digit() || c == '_');
    if after_dot {
        return Kind::Int;
    }
    let mut is_float = false;
    // Fractional part: a dot NOT followed by another dot (range) or an
    // identifier start (method call / tuple chain).
    if cur.peek(0) == Some('.') {
        let next = cur.peek(1);
        let fraction = match next {
            Some(n) => n.is_ascii_digit() || !(n == '.' || is_ident_start(n)),
            None => true,
        };
        if fraction {
            is_float = true;
            cur.bump();
            cur.eat_while(|c| c.is_ascii_digit() || c == '_');
        }
    }
    // Exponent.
    if matches!(cur.peek(0), Some('e' | 'E')) {
        let (s1, s2) = (cur.peek(1), cur.peek(2));
        let exp = match s1 {
            Some(d) if d.is_ascii_digit() => true,
            Some('+' | '-') => s2.is_some_and(|d| d.is_ascii_digit()),
            _ => false,
        };
        if exp {
            is_float = true;
            cur.bump(); // e
            cur.bump(); // sign or first digit
            cur.eat_while(|c| c.is_ascii_digit() || c == '_');
        }
    }
    // Type suffix.
    let suffix = cur.eat_while(is_ident_continue);
    if suffix.starts_with('f') {
        is_float = true;
    }
    if is_float {
        Kind::Float
    } else {
        Kind::Int
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Kind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let l = lex("let s = \"x[i].unwrap()\"; // y[j] == 1.0\n/* z[k] */ foo");
        assert!(l
            .tokens
            .iter()
            .all(|t| t.text != "unwrap" && t.text != "y" && t.text != "z"));
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments.first().unwrap().trailing);
    }

    #[test]
    fn raw_strings_with_hashes_terminate_correctly() {
        let l = lex("let s = r#\"a \" b [0]\"#; after");
        assert!(l.tokens.iter().any(|t| t.text == "after"));
        assert!(!l.tokens.iter().any(|t| t.text == "b"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> &'a str { x } 'x'");
        let lifetimes: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["a", "a", "a"]);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == Kind::Char).count(),
            1,
            "{:?}",
            l.tokens
        );
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        let got = kinds("1 1.0 1e9 2e-3 0.5f32 10usize 0xFF 1_000.5 7f64");
        let want_kinds = [
            Kind::Int,
            Kind::Float,
            Kind::Float,
            Kind::Float,
            Kind::Float,
            Kind::Int,
            Kind::Int,
            Kind::Float,
            Kind::Float,
        ];
        let got_kinds: Vec<Kind> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(got_kinds, want_kinds);
    }

    #[test]
    fn ranges_and_tuple_indices_are_not_floats() {
        let got = kinds("0..10 x.0 x.0.1 1.max(2)");
        assert!(
            got.iter().all(|(k, _)| *k != Kind::Float),
            "no float expected in {got:?}"
        );
    }

    #[test]
    fn operators_munch_maximally() {
        let got = kinds("a == b != c :: d => e -> f ..= g");
        let puncts: Vec<&str> = got
            .iter()
            .filter(|(k, _)| *k == Kind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "::", "=>", "->", "..="]);
    }

    #[test]
    fn own_line_vs_trailing_comments() {
        let l = lex("// own line\nlet x = 1; // trailing\n");
        assert_eq!(l.comments.len(), 2);
        assert!(!l.comments.first().unwrap().trailing);
        assert!(l.comments.get(1).unwrap().trailing);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let l = lex("/* one\ntwo */\nlet s = \"a\nb\";\nfoo");
        let foo = l.tokens.iter().find(|t| t.text == "foo").unwrap();
        assert_eq!(foo.line, 5);
    }
}
