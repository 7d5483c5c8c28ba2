//! The per-file structural IR the parser ([`crate::parse`]) builds on
//! top of the token stream.
//!
//! PR 3's rules pattern-matched raw tokens; that was enough for "is
//! there a `[` after an identifier" but not for anything that needs to
//! know *which function* a token lives in, *what* a loop body calls, or
//! *where* a call might lead. This IR is the minimal structure those
//! questions need: items (functions, impls, traits),
//! loops, and call expressions, all carrying token-index spans back
//! into the lexed stream so rules can still drop down to tokens when
//! they want to.
//!
//! It is deliberately **not** an AST: expressions are not represented,
//! types are not resolved, and macros are opaque. Everything here is
//! recoverable by a single forward pass with balanced-delimiter
//! tracking, which keeps the parser total (it never fails, never
//! panics — malformed input just yields fewer items, a property the
//! fuzz tests in `tests/fuzz.rs` hammer on).

/// A half-open span of token indices into [`crate::lexer::Lexed::tokens`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokSpan {
    /// Index of the first token of the span.
    pub start: usize,
    /// Index one past the last token of the span.
    pub end: usize,
}

impl TokSpan {
    /// Whether `idx` falls inside the span.
    #[must_use]
    pub fn contains(&self, idx: usize) -> bool {
        idx >= self.start && idx < self.end
    }

    /// Number of tokens covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True when the span covers nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// How a call expression names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(...)` — a method call; the receiver's type is
    /// unknown, so resolution is by name with same-crate preference.
    Method,
    /// `a::b::name(...)` — a path call; `CallIr::path` carries the
    /// leading segments (e.g. `["mcpat_guard"]` for
    /// `mcpat_guard::check()`). A lower-case path used as a value
    /// (`.map(PointRepr::from_point)`) is recorded the same way: the
    /// callee may invoke it.
    Path,
    /// `name(...)` — a bare call, resolved by name.
    Bare,
    /// `f(..., name, ...)` — not a call at all, but a bare identifier
    /// passed as an argument: a *potential* callee handed to a
    /// higher-order function (`lookup_or_solve(…, solve_uncached)`).
    /// The call graph treats these as edges so checkpoint reachability
    /// survives function-pointer indirection; an argument that is
    /// merely a variable resolves to no workspace `fn` and contributes
    /// nothing.
    Callback,
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallIr {
    /// The callee's final path segment (`check`, `build`, `solve`).
    pub name: String,
    /// Leading path segments for [`CallKind::Path`] calls, innermost
    /// last (`a::b::f()` → `["a", "b"]`); empty otherwise.
    pub path: Vec<String>,
    /// Call shape (method / path / bare).
    pub kind: CallKind,
    /// 1-based line of the callee token.
    pub line: usize,
    /// Token index of the callee identifier.
    pub tok: usize,
}

/// One `for`/`while`/`loop` inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopIr {
    /// 1-based line of the loop keyword.
    pub line: usize,
    /// Token index of the loop keyword.
    pub keyword: usize,
    /// Token span of the braced body, `{` and `}` included.
    pub body: TokSpan,
}

/// One `fn` item, free or associated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnIr {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` type name, when the fn is an associated item
    /// (`impl Processor { fn build … }` → `Some("Processor")`).
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the fn is declared plain `pub` (`pub(crate)` and
    /// narrower are not public API).
    pub public: bool,
    /// Whether the fn sits in a trait impl or a trait declaration's
    /// default body: reached by dispatch, not by a nameable call.
    pub in_trait: bool,
    /// Token span of the braced body (`{`..`}` inclusive). Body-less
    /// declarations (trait methods, externs) are not represented.
    pub body: TokSpan,
    /// Whether the fn sits inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// Call expressions in the body, in source order. Calls inside
    /// closures belong to the enclosing fn; calls inside *nested fns*
    /// belong to the nested fn only.
    pub calls: Vec<CallIr>,
    /// Loops in the body, outermost and nested alike, in source order.
    pub loops: Vec<LoopIr>,
}

impl FnIr {
    /// The calls whose callee token sits inside `span` (used to ask
    /// "what does this loop body call?").
    #[must_use]
    pub fn calls_in(&self, span: TokSpan) -> Vec<&CallIr> {
        self.calls.iter().filter(|c| span.contains(c.tok)).collect()
    }
}

/// One `impl` block (inherent or trait) or `trait` declaration with
/// its subject type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplIr {
    /// The implementing type's name (`impl Foo` and
    /// `impl Trait for Foo` both yield `Foo`; `trait Foo` yields
    /// `Foo`).
    pub type_name: String,
    /// Whether this is `impl Trait for Foo` or `trait Foo` rather than
    /// an inherent `impl Foo`.
    pub of_trait: bool,
    /// 1-based line of the `impl` keyword.
    pub line: usize,
    /// Token span of the impl body.
    pub body: TokSpan,
}

/// The structural IR of one source file.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FileIr {
    /// Every `impl` block and `trait` declaration, in source order.
    pub impls: Vec<ImplIr>,
    /// Every `fn` with a body, in source order (nested fns included,
    /// each with its own entry).
    pub functions: Vec<FnIr>,
}
