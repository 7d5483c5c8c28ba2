//! A lightweight recursive-descent layer over the lexer that builds
//! the per-file [`FileIr`].
//!
//! The parser is a single forward pass with balanced-delimiter
//! tracking. It recognizes exactly the structure the rules need —
//! `impl` blocks, `trait` declarations, `fn` items with their bodies,
//! loops, and call expressions — and skips everything else. Like the
//! lexer it is **total**: any byte sequence produces *some* IR, never
//! a panic or an error (the fuzz tests in `tests/fuzz.rs` mutate every
//! workspace source file to defend this).
//!
//! Shared span helpers (`match_close`, `fn_body_span`, `test_spans`)
//! live here so the token-level rules and the parser agree on what a
//! body is.

use crate::ir::{CallIr, CallKind, FileIr, FnIr, ImplIr, LoopIr, TokSpan};
use crate::lexer::{is_keyword, Kind, Lexed, Token};

fn tok(tokens: &[Token], idx: usize) -> Option<&Token> {
    tokens.get(idx)
}

fn prev(tokens: &[Token], idx: usize) -> Option<&Token> {
    idx.checked_sub(1).and_then(|j| tokens.get(j))
}

pub(crate) fn is_punct(t: &Token, text: &str) -> bool {
    t.kind == Kind::Punct && t.text == text
}

pub(crate) fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == Kind::Ident && t.text == text
}

/// Index of the delimiter closing the one at `open_idx` (which must
/// hold `open`). Returns the last token index if unbalanced.
pub(crate) fn match_close(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open_idx;
    while let Some(t) = tok(tokens, i) {
        if is_punct(t, open) {
            depth = depth.saturating_add(1);
        } else if is_punct(t, close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i;
            }
        }
        i = i.saturating_add(1);
    }
    tokens.len().saturating_sub(1)
}

/// The `{`..`}` token span of the body of the `fn` at `fn_idx`, or
/// `None` for body-less declarations (trait methods, externs).
pub(crate) fn fn_body_span(tokens: &[Token], fn_idx: usize) -> Option<(usize, usize)> {
    let mut i = fn_idx.saturating_add(1);
    let mut paren_depth = 0usize;
    let mut angle_depth = 0usize;
    while let Some(t) = tok(tokens, i) {
        if t.kind == Kind::Punct {
            // `[` counts with `(`: an array return type `[T; N]` holds
            // a `;` that does not end the signature.
            match t.text.as_str() {
                "(" | "[" => paren_depth = paren_depth.saturating_add(1),
                ")" | "]" => paren_depth = paren_depth.saturating_sub(1),
                "<" => angle_depth = angle_depth.saturating_add(1),
                ">" => angle_depth = angle_depth.saturating_sub(1),
                ">>" => angle_depth = angle_depth.saturating_sub(2),
                "{" if paren_depth == 0 && angle_depth == 0 => {
                    return Some((i, match_close(tokens, i, "{", "}")));
                }
                ";" if paren_depth == 0 => return None,
                _ => {}
            }
        }
        i = i.saturating_add(1);
    }
    None
}

/// Token-index spans covered by `#[cfg(test)]` / `#[test]` items.
///
/// After a test attribute, every further attribute is skipped and the
/// span runs from the attribute to the end of the next braced block
/// (the `mod`/`fn` body). An attribute
/// mentioning `test` on a `mod tests;` external declaration has no
/// brace and contributes nothing.
pub(crate) fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while let Some(t) = tok(tokens, i) {
        if is_punct(t, "#") && tok(tokens, i.saturating_add(1)).is_some_and(|n| is_punct(n, "[")) {
            let attr_start = i.saturating_add(1);
            let attr_end = match_close(tokens, attr_start, "[", "]");
            let idents: Vec<&str> = tokens
                .get(attr_start..=attr_end)
                .unwrap_or_default()
                .iter()
                .filter(|t| t.kind == Kind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            // `#[test]` or a positive `#[cfg(... test ...)]` — but not
            // `#[cfg(not(test))]` (library code!) or `#[cfg_attr(...)]`.
            let mentions_test = match idents.split_first() {
                Some((&"test", rest)) => rest.is_empty(),
                Some((&"cfg", rest)) => rest.contains(&"test") && !rest.contains(&"not"),
                _ => false,
            };
            if mentions_test {
                // Skip any further attributes, then find the item body.
                let mut j = attr_end.saturating_add(1);
                while tok(tokens, j).is_some_and(|t| is_punct(t, "#"))
                    && tok(tokens, j.saturating_add(1)).is_some_and(|t| is_punct(t, "["))
                {
                    j = match_close(tokens, j.saturating_add(1), "[", "]").saturating_add(1);
                }
                let mut body_start = None;
                while let Some(t) = tok(tokens, j) {
                    if is_punct(t, "{") {
                        body_start = Some(j);
                        break;
                    }
                    if is_punct(t, ";") {
                        break;
                    }
                    j = j.saturating_add(1);
                }
                if let Some(start) = body_start {
                    // The span opens at the attribute, so the item's own
                    // signature (`#[cfg(test)] pub fn helper`) is in it.
                    let end = match_close(tokens, start, "{", "}");
                    spans.push((i, end));
                    i = end.saturating_add(1);
                    continue;
                }
            }
            i = attr_end.saturating_add(1);
            continue;
        }
        i = i.saturating_add(1);
    }
    spans
}

/// The braced body span of the loop whose `for`/`while`/`loop` keyword
/// sits at `kw_idx`: the first `{` at top delimiter depth after the
/// keyword (Rust bans bare struct literals in loop headers, so nothing
/// else opens a brace there). `None` when the header never closes.
pub(crate) fn loop_body_span(tokens: &[Token], kw_idx: usize) -> Option<(usize, usize)> {
    let mut j = kw_idx.saturating_add(1);
    let (mut paren, mut bracket) = (0usize, 0usize);
    while let Some(h) = tok(tokens, j) {
        if h.kind == Kind::Punct {
            match h.text.as_str() {
                "(" => paren = paren.saturating_add(1),
                ")" => paren = paren.saturating_sub(1),
                "[" => bracket = bracket.saturating_add(1),
                "]" => bracket = bracket.saturating_sub(1),
                "{" if paren == 0 && bracket == 0 => {
                    return Some((j, match_close(tokens, j, "{", "}")));
                }
                ";" if paren == 0 && bracket == 0 => return None,
                _ => {}
            }
        }
        j = j.saturating_add(1);
    }
    None
}

/// Parses one lexed file into its structural IR.
#[must_use]
pub fn parse(lexed: &Lexed) -> FileIr {
    let tokens = &lexed.tokens;
    let spans = test_spans(tokens);
    let in_test = |idx: usize| spans.iter().any(|&(a, b)| idx >= a && idx <= b);

    let mut ir = FileIr {
        impls: parse_impls(tokens),
        functions: Vec::new(),
    };

    // Pass 1: every `fn` with a body, innermost-aware via span sizes.
    let mut fns: Vec<FnIr> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !is_ident(t, "fn") {
            continue;
        }
        let Some(name_tok) = tok(tokens, i.saturating_add(1)) else {
            continue;
        };
        if name_tok.kind != Kind::Ident {
            continue;
        }
        let Some((body_start, body_end)) = fn_body_span(tokens, i) else {
            continue;
        };
        let owner = ir
            .impls
            .iter()
            .filter(|im| im.body.contains(i))
            .min_by_key(|im| im.body.len());
        fns.push(FnIr {
            name: name_tok.text.clone(),
            impl_type: owner.map(|im| im.type_name.clone()),
            line: t.line,
            public: is_public(tokens, i),
            in_trait: owner.is_some_and(|im| im.of_trait),
            body: TokSpan {
                start: body_start,
                end: body_end.saturating_add(1),
            },
            is_test: in_test(i),
            calls: Vec::new(),
            loops: Vec::new(),
        });
    }

    // Pass 2: attribute each call and loop to the *innermost* fn whose
    // body contains it (calls in a nested fn belong to the nested fn;
    // calls in closures belong to the closure's enclosing fn).
    fn owner_of(fns: &[FnIr], idx: usize) -> Option<usize> {
        fns.iter()
            .enumerate()
            .filter(|(_, f)| f.body.contains(idx))
            .min_by_key(|(_, f)| f.body.len())
            .map(|(k, _)| k)
    }

    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        // Loops.
        if matches!(t.text.as_str(), "for" | "while" | "loop") {
            if let Some(owner) = owner_of(&fns, i) {
                if let Some((start, end)) = loop_body_span(tokens, i) {
                    if let Some(f) = fns.get_mut(owner) {
                        f.loops.push(LoopIr {
                            line: t.line,
                            keyword: i,
                            body: TokSpan {
                                start,
                                end: end.saturating_add(1),
                            },
                        });
                    }
                }
            }
            continue;
        }
        // Calls: an identifier followed by `(` or a turbofish `::<`,
        // or a lower-case path used as a value (`.map(Self::rebuild)`).
        if is_keyword(&t.text) || t.text == "self" {
            continue;
        }
        let next = tok(tokens, i.saturating_add(1));
        let next_is_open = next.is_some_and(|n| is_punct(n, "("));
        let turbofish = next.is_some_and(|n| is_punct(n, "::"))
            && tok(tokens, i.saturating_add(2)).is_some_and(|n| is_punct(n, "<"));
        let path_value = prev(tokens, i).is_some_and(|p| is_punct(p, "::"))
            && t.text
                .starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
            && !next.is_some_and(|n| ["::", "!", "{", "("].iter().any(|s| is_punct(n, s)));
        if !(next_is_open || turbofish || path_value) {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if prev(tokens, i).is_some_and(|p| is_ident(p, "fn")) {
            continue;
        }
        let Some(owner) = owner_of(&fns, i) else {
            continue;
        };
        let (kind, path) = match prev(tokens, i) {
            Some(p) if is_punct(p, ".") => (CallKind::Method, Vec::new()),
            Some(p) if is_punct(p, "::") => {
                // Walk the leading `seg::`* chain backwards.
                let mut segs: Vec<String> = Vec::new();
                let mut k = i.saturating_sub(1); // the `::`
                while k >= 1 {
                    let Some(seg) = tokens.get(k.saturating_sub(1)) else {
                        break;
                    };
                    if seg.kind != Kind::Ident {
                        break;
                    }
                    // `Self::f` names the enclosing impl's type.
                    let self_type = (seg.text == "Self")
                        .then(|| fns.get(owner).and_then(|f| f.impl_type.clone()))
                        .flatten();
                    segs.push(self_type.unwrap_or_else(|| seg.text.clone()));
                    let Some(before) = k.checked_sub(2).and_then(|j| tokens.get(j)) else {
                        break;
                    };
                    if !is_punct(before, "::") {
                        break;
                    }
                    k = k.saturating_sub(2);
                }
                segs.reverse();
                (CallKind::Path, segs)
            }
            _ => (CallKind::Bare, Vec::new()),
        };
        if let Some(f) = fns.get_mut(owner) {
            f.calls.push(CallIr {
                name: t.text.clone(),
                path,
                kind,
                line: t.line,
                tok: i,
            });
        }
        if !next_is_open {
            continue;
        }
        // Callback edges: a bare identifier passed as a *direct*
        // argument to this call may be a function value the callee
        // invokes (`lookup_or_solve(…, solve_uncached)`). Record it so
        // reachability survives the indirection; plain variables
        // resolve to nothing downstream and are harmless.
        let open = i.saturating_add(1);
        let close = match_close(tokens, open, "(", ")");
        // A pattern (`let Some(x) = …`, `Some(x) =>`, `Err(e) if …`)
        // binds its identifiers; it passes nothing.
        let after = tok(tokens, close.saturating_add(1));
        if after.is_some_and(|n| is_punct(n, "=") || is_punct(n, "=>") || is_ident(n, "if")) {
            continue;
        }
        let mut depth = 0usize;
        let mut j = open.saturating_add(1);
        while j < close {
            let Some(a) = tok(tokens, j) else { break };
            if a.kind == Kind::Punct {
                match a.text.as_str() {
                    "(" | "[" | "{" => depth = depth.saturating_add(1),
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            let is_arg_ref = depth == 0
                && a.kind == Kind::Ident
                && !is_keyword(&a.text)
                && a.text != "self"
                && prev(tokens, j)
                    .is_some_and(|p| is_punct(p, "(") || is_punct(p, ",") || is_punct(p, "&"))
                && tok(tokens, j.saturating_add(1))
                    .is_some_and(|n| is_punct(n, ",") || is_punct(n, ")"));
            if is_arg_ref {
                if let Some(f) = fns.get_mut(owner) {
                    f.calls.push(CallIr {
                        name: a.text.clone(),
                        path: Vec::new(),
                        kind: CallKind::Callback,
                        line: a.line,
                        tok: j,
                    });
                }
            }
            j = j.saturating_add(1);
        }
    }

    ir.functions = fns;
    ir
}

/// Whether the `fn` at `fn_idx` is declared plain `pub`, looking back
/// over `const`/`async`/`unsafe`/`extern "abi"` qualifiers.
fn is_public(tokens: &[Token], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    while let Some(p) = prev(tokens, j) {
        let qualifier = p.kind == Kind::Str
            || ["const", "async", "unsafe", "extern"]
                .iter()
                .any(|q| is_ident(p, q));
        if !qualifier {
            return is_ident(p, "pub");
        }
        j = j.saturating_sub(1);
    }
    false
}

/// Collects every `impl` block with a nameable subject type, and every
/// `trait` declaration (its default bodies are trait items too).
fn parse_impls(tokens: &[Token]) -> Vec<ImplIr> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(t) = tok(tokens, i) {
        if is_ident(t, "trait") {
            let name = tok(tokens, i.saturating_add(1)).filter(|n| n.kind == Kind::Ident);
            let body = (i.saturating_add(2)..tokens.len())
                .find(|&j| tok(tokens, j).is_some_and(|b| is_punct(b, "{") || is_punct(b, ";")))
                .filter(|&j| tok(tokens, j).is_some_and(|b| is_punct(b, "{")));
            if let (Some(name), Some(start)) = (name, body) {
                out.push(ImplIr {
                    type_name: name.text.clone(),
                    of_trait: true,
                    line: t.line,
                    body: TokSpan {
                        start,
                        end: match_close(tokens, start, "{", "}").saturating_add(1),
                    },
                });
            }
            i = i.saturating_add(1);
            continue;
        }
        if !is_ident(t, "impl") {
            i = i.saturating_add(1);
            continue;
        }
        // Scan the header for the subject type: the last angle-depth-0
        // identifier before the body `{` — re-collected after `for`, so
        // `impl Display for Foo` and `impl Foo` both yield `Foo`.
        let mut j = i.saturating_add(1);
        let mut angle = 0usize;
        let mut subject: Option<String> = None;
        let mut of_trait = false;
        let mut body_start: Option<usize> = None;
        while let Some(h) = tok(tokens, j) {
            match h.kind {
                Kind::Punct => match h.text.as_str() {
                    "<" => angle = angle.saturating_add(1),
                    ">" => angle = angle.saturating_sub(1),
                    ">>" => angle = angle.saturating_sub(2),
                    "{" if angle == 0 => {
                        body_start = Some(j);
                        break;
                    }
                    ";" if angle == 0 => break,
                    _ => {}
                },
                Kind::Ident if angle == 0 => match h.text.as_str() {
                    "for" => {
                        subject = None;
                        of_trait = true;
                    }
                    "where" => {}
                    "dyn" | "mut" => {}
                    name if !is_keyword(name) => subject = Some(name.to_owned()),
                    _ => {}
                },
                _ => {}
            }
            j = j.saturating_add(1);
        }
        let (Some(type_name), Some(start)) = (subject, body_start) else {
            i = j.saturating_add(1);
            continue;
        };
        let end = match_close(tokens, start, "{", "}");
        out.push(ImplIr {
            type_name,
            of_trait,
            line: t.line,
            body: TokSpan {
                start,
                end: end.saturating_add(1),
            },
        });
        // Continue *inside* the impl body: nested impls are rare but
        // legal, and fns inside are discovered by the caller anyway.
        i = start.saturating_add(1);
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ir_of(src: &str) -> FileIr {
        parse(&lex(src))
    }

    #[test]
    fn fns_and_impls_are_found_with_subjects() {
        let ir = ir_of(
            "impl Processor { fn build(&self) {} }\n\
             impl std::fmt::Display for Report { fn fmt(&self) {} }\n\
             fn free() {}\n",
        );
        let names: Vec<(&str, Option<&str>)> = ir
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            [
                ("build", Some("Processor")),
                ("fmt", Some("Report")),
                ("free", None)
            ]
        );
    }

    #[test]
    fn calls_classify_method_path_bare() {
        let ir = ir_of(
            "fn f() { g(); x.h(); mcpat_obs::guard::check(); a::b::c(); mac!(no); }\nfn g() {}",
        );
        let f = ir.functions.first().unwrap();
        let got: Vec<(&str, CallKind, &[String])> = f
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.kind, c.path.as_slice()))
            .collect();
        assert_eq!(got.len(), 4, "{got:?}");
        assert_eq!(got[0].0, "g");
        assert_eq!(got[0].1, CallKind::Bare);
        assert_eq!(got[1].0, "h");
        assert_eq!(got[1].1, CallKind::Method);
        assert_eq!(got[2].0, "check");
        assert_eq!(got[2].2, ["mcpat_obs", "guard"]);
        assert_eq!(got[3].2, ["a", "b"]);
    }

    #[test]
    fn nested_fn_calls_do_not_leak_to_the_outer_fn() {
        let ir = ir_of("fn outer() { fn inner() { deep(); } inner(); }");
        let outer = ir.functions.iter().find(|f| f.name == "outer").unwrap();
        let inner = ir.functions.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(
            outer
                .calls
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            ["inner"]
        );
        assert_eq!(
            inner
                .calls
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            ["deep"]
        );
    }

    #[test]
    fn loops_are_attributed_with_bodies() {
        let ir = ir_of("fn f() { for i in 0..3 { solve(i); } while x { spin(); } }");
        let f = ir.functions.first().unwrap();
        assert_eq!(f.loops.len(), 2);
        let for_calls = f.calls_in(f.loops[0].body);
        let got: Vec<(&str, CallKind)> = for_calls
            .iter()
            .map(|c| (c.name.as_str(), c.kind))
            .collect();
        // `solve` is the call; its bare-ident argument `i` is recorded
        // as a potential callback edge.
        assert_eq!(got, [("solve", CallKind::Bare), ("i", CallKind::Callback)]);
    }

    /// The callback edges recorded for the first fn of `src`.
    fn callbacks(src: &str) -> Vec<String> {
        let ir = ir_of(src);
        let f = ir.functions.first().unwrap();
        let edges = f.calls.iter().filter(|c| c.kind == CallKind::Callback);
        edges.map(|c| c.name.clone()).collect()
    }

    #[test]
    fn bare_ident_arguments_become_callback_edges() {
        let got = callbacks(
            "fn f() { lookup_or_solve(tech, &spec, g(x), solve_uncached); t.h(Foo { a }, cb); }",
        );
        // Direct bare-ident args only: nested-call args (`x`) belong to
        // the nested call, struct-literal fields (`a`) are skipped.
        assert_eq!(got, ["tech", "spec", "solve_uncached", "x", "cb"]);
    }

    #[test]
    fn pattern_bindings_are_not_callback_edges() {
        let got = callbacks(
            "fn f() { let Some(active) = g() else { return }; \
             if let Ok(v) = h() {} match r { Some(x) => {} Err(e) if x == y => {} } \
             if Some(cb) == k { run(cb); } }",
        );
        // Bound names (`active`, `v`, `x`, `e`) are not passed; a
        // comparison (`==`) is not a pattern, so `cb` still counts twice.
        assert_eq!(got, ["cb", "cb"]);
    }

    #[test]
    fn fns_record_visibility_and_trait_membership() {
        let ir = ir_of(
            "pub fn a() {}\npub(crate) fn b() {}\npub const unsafe fn c() {}\n\
             impl Foo { pub fn d() {} }\nimpl Display for Foo { fn e() {} }\n\
             trait T { fn f(&self) { g(); } }\nfn h() -> [u8; 4] { k() }\n",
        );
        let by_name = |n: &str| ir.functions.iter().find(|f| f.name == n).unwrap();
        let public: Vec<&str> = ir
            .functions
            .iter()
            .filter(|f| f.public)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(public, ["a", "c", "d"]);
        assert!(!by_name("d").in_trait);
        assert!(by_name("e").in_trait);
        assert!(
            by_name("f").in_trait,
            "a trait's default body is a trait item"
        );
        // An array return type's `;` does not end the signature.
        assert_eq!(by_name("h").calls.len(), 1);
    }

    #[test]
    fn fn_paths_used_as_values_and_turbofish_calls_are_calls() {
        let ir = ir_of(
            "impl P { fn f(v: V) { v.map(Point::from_raw); v.map(Self::g); Kind::Ident; parse::<u8>(s); } }",
        );
        let f = ir.functions.first().unwrap();
        let got: Vec<(&str, &[String])> = f
            .calls
            .iter()
            .filter(|c| c.kind != CallKind::Callback)
            .map(|c| (c.name.as_str(), c.path.as_slice()))
            .collect();
        let (point, this) = (["Point".to_owned()], ["P".to_owned()]);
        // `map` twice, the two fn-path values (`Self` named as the
        // impl's type), `parse`; the `Kind::Ident` variant is not a fn.
        assert_eq!(
            got,
            [
                ("map", &[][..]),
                ("from_raw", &point[..]),
                ("map", &[][..]),
                ("g", &this[..]),
                ("parse", &[][..]),
            ]
        );
    }

    #[test]
    fn test_regions_mark_fns() {
        let ir = ir_of(
            "fn lib() {}\n#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }\n\
             #[cfg(test)]\n#[must_use]\npub fn narrowed() {}\n",
        );
        let by_name = |n: &str| ir.functions.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("lib").is_test);
        assert!(by_name("helper").is_test);
        assert!(by_name("t").is_test);
        assert!(
            by_name("narrowed").is_test,
            "the attribute covers the signature"
        );
    }

    #[test]
    fn parser_is_total_on_garbage() {
        let _ = ir_of("fn {{{ impl use :: }} for while ((( \"unterminated");
        let _ = ir_of("");
        let _ = ir_of("}}}}");
    }
}
