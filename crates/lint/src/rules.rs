//! The project-invariant rules, L002–L005 and L007–L013.
//!
//! The generic panic-freedom invariants are clippy denies in the root
//! `Cargo.toml` (`indexing_slicing`, `unwrap_used`, `expect_used`,
//! `panic`, `todo`, `unimplemented`, `unreachable`); the rules here are
//! the project-specific ones clippy cannot express. L001 and L006 named
//! rules those denies replaced; rule ids are never reused.
//!
//! Most rules are pure functions over one file's token stream; L004
//! adds a per-crate accumulation step, and L008/L012/L013 run over the
//! cross-crate call graph ([`crate::callgraph`]) built from the
//! per-file IR ([`crate::parse`]). Rules never look inside strings or
//! comments — the lexer already hid those — and every rule skips
//! `#[cfg(test)]` / `#[test]` regions, where direct env manipulation
//! and global-counter assertions are legitimate.
//!
//! | Rule | Invariant |
//! |---|---|
//! | L002 | no raw `==`/`!=` against float literals |
//! | L003 | `std::env` reads confined to the `knobs` module |
//! | L004 | every `*Config`/`*Spec` field mentioned in a `validate()` |
//! | L005 | no `.lock()` guard bound in a scope that fans out |
//! | L007 | no before/after deltas over global `memo`/`pool` counters |
//! | L008 | solver/build loop calls only *opaque* callees and has no checkpoint |
//! | L009 | no per-iteration heap allocation in `lint: hot` regions |
//! | L010 | no mixing unit-suffixed identifiers across dimensions/scales |
//! | L011 | no hash-ordered iteration, thread-dependence, or unordered float reduction |
//! | L012 | solver/build loops *reach* an `mcpat-guard` checkpoint (call graph) |
//! | L013 | every `pub fn` is reachable from an entry point (call graph) |
//!
//! L008 and L012 split one invariant by evidence: a loop whose callees
//! resolve in the call graph but provably never reach a checkpoint
//! within [`crate::callgraph::MAX_CHECKPOINT_DEPTH`] frames is an
//! L012; a loop whose callees are all opaque (closures, std) falls
//! back to the old syntactic L008.
//!
//! A violation is silenced by `// lint: allow(L00n, reason)` — trailing
//! on the offending line, or on its own line immediately above (the
//! annotation then covers the next token-bearing line). The reason is
//! mandatory; an annotation that silences nothing is itself reported,
//! so stale allows cannot accumulate.

use crate::callgraph::{CallGraph, CallRef, BUDGET_CHECKS, MAX_CHECKPOINT_DEPTH};
use crate::ir::FileIr;
use crate::lexer::{is_keyword, Kind, Lexed, Token};
use crate::parse::{fn_body_span, match_close, test_spans};
use mcpat_diag::Severity;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Identifier of one invariant rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Raw float equality.
    L002,
    /// `std::env` read outside the knobs module.
    L003,
    /// `*Config`/`*Spec` field never mentioned in a `validate()`.
    L004,
    /// Lock guard bound in a scope that also fans out.
    L005,
    /// Before/after delta over the global `memo::stats()` /
    /// `pool::stats()` counters outside `mcpat-obs`.
    L007,
    /// A loop over candidates/probes/rungs (one calling solver or
    /// build APIs) whose callees are all opaque to the call graph and
    /// whose body has no syntactic budget checkpoint.
    L008,
    /// Heap allocation inside a `// lint: hot` region — the solver's
    /// per-candidate loops and other marked cold-path hot spots.
    L009,
    /// Unit-suffixed identifiers added/compared/assigned across
    /// incompatible physical dimensions or scales.
    L010,
    /// Nondeterminism hazard in result-affecting code: hash-ordered
    /// iteration, thread-count/thread-id dependence, or an unordered
    /// float reduction.
    L011,
    /// A solver/build loop whose resolved callees provably never reach
    /// an `mcpat-guard` checkpoint within the bounded call depth.
    L012,
    /// A `pub fn` that no entry point reaches over the call graph.
    L013,
    /// A `lint: allow` annotation that silenced nothing, or is
    /// malformed (missing its mandatory reason).
    Allowance,
}

impl Rule {
    /// Stable rule id as it appears in reports and annotations.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::L002 => "L002",
            Rule::L003 => "L003",
            Rule::L004 => "L004",
            Rule::L005 => "L005",
            Rule::L007 => "L007",
            Rule::L008 => "L008",
            Rule::L009 => "L009",
            Rule::L010 => "L010",
            Rule::L011 => "L011",
            Rule::L012 => "L012",
            Rule::L013 => "L013",
            Rule::Allowance => "allow",
        }
    }

    /// Parses a numbered rule id (`"L004"`); `None` for anything else,
    /// including the annotation pseudo-rule.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        match id {
            "L002" => Some(Rule::L002),
            "L003" => Some(Rule::L003),
            "L004" => Some(Rule::L004),
            "L005" => Some(Rule::L005),
            "L007" => Some(Rule::L007),
            "L008" => Some(Rule::L008),
            "L009" => Some(Rule::L009),
            "L010" => Some(Rule::L010),
            "L011" => Some(Rule::L011),
            "L012" => Some(Rule::L012),
            "L013" => Some(Rule::L013),
            _ => None,
        }
    }

    /// Violations of the numbered rules are errors; annotation hygiene
    /// problems are warnings.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Rule::Allowance => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Every rule, in report order (for SARIF tool metadata).
    #[must_use]
    pub fn all() -> &'static [Rule] {
        &[
            Rule::L002,
            Rule::L003,
            Rule::L004,
            Rule::L005,
            Rule::L007,
            Rule::L008,
            Rule::L009,
            Rule::L010,
            Rule::L011,
            Rule::L012,
            Rule::L013,
            Rule::Allowance,
        ]
    }

    /// One-line invariant statement (SARIF `shortDescription`).
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::L002 => "no raw float equality",
            Rule::L003 => "environment reads confined to the knobs module",
            Rule::L004 => "every Config/Spec field mentioned in a validate()",
            Rule::L005 => "no lock guard bound in a scope that fans out",
            Rule::L007 => "no before/after deltas over global memo/pool counters",
            Rule::L008 => "solver/build loop with opaque callees needs a syntactic checkpoint",
            Rule::L009 => "no per-iteration heap allocation in lint:hot regions",
            Rule::L010 => "no mixing unit-suffixed identifiers across dimensions or scales",
            Rule::L011 => "no hash-ordered iteration or thread-dependent values in results",
            Rule::L012 => "solver/build loops must reach an mcpat-guard checkpoint",
            Rule::L013 => "every pub fn is reachable from an entry point",
            Rule::Allowance => "lint allow annotations must be well-formed and in use",
        }
    }
}

/// One rule violation (or annotation-hygiene warning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which invariant was violated.
    pub rule: Rule,
    /// Error or warning, from [`Rule::severity`].
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the violation.
    pub line: usize,
    /// Alternate line an allow annotation may sit on (for L004, the
    /// `struct` line waives every field at once).
    pub alt_line: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

/// One parsed `// lint: allow(RULE, reason)` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The silenced rule.
    pub rule: Rule,
    /// Mandatory justification text.
    pub reason: String,
    /// The line whose findings this annotation covers.
    pub target_line: usize,
    /// The line the annotation itself sits on (for reporting).
    pub comment_line: usize,
}

/// Everything one file contributes: raw findings, allow annotations,
/// and its share of the cross-file state (L004 validation facts,
/// L008/L012 function summaries).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FileAnalysis {
    /// Raw findings, before allow suppression (L004 excluded — that
    /// rule needs the whole crate).
    pub findings: Vec<Finding>,
    /// Parsed allow annotations.
    pub allows: Vec<Allow>,
    /// Malformed-annotation warnings (already final).
    pub annotation_warnings: Vec<Finding>,
    /// `*Config`/`*Spec` structs defined in this file.
    pub structs: Vec<StructDef>,
    /// Identifiers mentioned inside `validate*` function bodies.
    pub validate_idents: BTreeSet<String>,
    /// Whether the file defines any `validate*` function.
    pub has_validate: bool,
    /// Function summaries for the call-graph passes (L008/L012).
    pub fns: Vec<FnFact>,
}

/// One loop inside a function, summarized for the reachability pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopFact {
    /// 1-based line of the loop keyword.
    pub line: usize,
    /// Budgeted (solver/build) callee names seen in the body.
    pub budgeted: Vec<String>,
    /// Whether the body syntactically calls a checkpoint.
    pub direct_checkpoint: bool,
    /// Every call in the body, for reachability resolution.
    pub calls: Vec<CallRef>,
}

/// One function, summarized for the call graph. Derived from the
/// structural IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFact {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, if associated.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the fn lives in a test region.
    pub is_test: bool,
    /// Whether the fn is declared plain `pub`.
    pub public: bool,
    /// Whether the fn is a trait item (impl method or default body).
    pub in_trait: bool,
    /// Every call expression in the body.
    pub calls: Vec<CallRef>,
    /// Loops in the body.
    pub loops: Vec<LoopFact>,
}

/// A `*Config`/`*Spec` struct definition found by the light parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// Line of the `struct` keyword.
    pub line: usize,
    /// Named fields with their lines.
    pub fields: Vec<(String, usize)>,
}

/// Per-file exemptions the caller derives from the file's location.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// The designated knobs module — exempt from L003 (it is *where*
    /// environment knobs are declared).
    pub knobs_file: bool,
    /// The `mcpat-obs` crate — exempt from L007 (scoped attribution is
    /// implemented there, so it legitimately reconciles the globals).
    pub obs_crate: bool,
    /// The `mcpat-par` crate — exempt from L011's thread checks
    /// (sizing the worker pool is its job).
    pub par_crate: bool,
}

/// Analyzes one lexed+parsed file against every single-file rule and
/// collects the raw material for the cross-file passes: the L004
/// struct/validate facts and the L008/L012 function summaries.
#[must_use]
pub fn analyze(rel_path: &str, lexed: &Lexed, ir: &FileIr, opts: AnalyzeOptions) -> FileAnalysis {
    let tokens = &lexed.tokens;
    let test_spans = test_spans(tokens);
    let in_test = |idx: usize| test_spans.iter().any(|&(a, b)| idx >= a && idx <= b);

    let mut out = FileAnalysis::default();
    parse_allows(rel_path, lexed, &mut out);

    check_float_eq(rel_path, tokens, &in_test, &mut out.findings);
    if !opts.knobs_file {
        check_env_reads(rel_path, tokens, &in_test, &mut out.findings);
    }
    check_lock_across_fanout(rel_path, tokens, &in_test, &mut out.findings);
    if !opts.obs_crate {
        check_global_deltas(rel_path, tokens, &in_test, &mut out.findings);
    }
    check_hot_allocs(rel_path, lexed, &in_test, &mut out.findings);
    check_unit_mixing(rel_path, tokens, &in_test, &mut out.findings);
    check_determinism(
        rel_path,
        tokens,
        &in_test,
        opts.par_crate,
        &mut out.findings,
    );

    collect_structs(rel_path, tokens, &in_test, &mut out.structs);
    collect_validate_idents(tokens, &mut out);
    out.fns = collect_fn_facts(ir);

    dedupe(&mut out.findings);
    out
}

/// Drops repeated findings of the same rule on the same line (e.g.
/// two `.clone()` calls on one hot line are one annotatable site, not
/// two).
fn dedupe(findings: &mut Vec<Finding>) {
    let mut seen: HashSet<(Rule, String, usize)> = HashSet::new();
    findings.retain(|f| seen.insert((f.rule, f.file.clone(), f.line)));
}

fn tok(tokens: &[Token], idx: usize) -> Option<&Token> {
    tokens.get(idx)
}

fn prev(tokens: &[Token], idx: usize) -> Option<&Token> {
    idx.checked_sub(1).and_then(|j| tokens.get(j))
}

fn is_punct(t: &Token, text: &str) -> bool {
    t.kind == Kind::Punct && t.text == text
}

fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == Kind::Ident && t.text == text
}

/// L002 — `==`/`!=` with a float literal on either side.
fn check_float_eq(
    file: &str,
    tokens: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Punct || (t.text != "==" && t.text != "!=") || in_test(i) {
            continue;
        }
        let prev_float = prev(tokens, i).is_some_and(|p| p.kind == Kind::Float);
        let next = tok(tokens, i.saturating_add(1));
        let next_float = match next {
            Some(n) if n.kind == Kind::Float => true,
            Some(n) if is_punct(n, "-") => {
                tok(tokens, i.saturating_add(2)).is_some_and(|nn| nn.kind == Kind::Float)
            }
            _ => false,
        };
        if prev_float || next_float {
            findings.push(Finding {
                rule: Rule::L002,
                severity: Rule::L002.severity(),
                file: file.to_owned(),
                line: t.line,
                alt_line: None,
                message: String::from(
                    "raw float equality; compare canonical bits (to_bits) or use a tolerance \
                     — or justify with `// lint: allow(L002, reason)`",
                ),
            });
        }
    }
}

/// Environment accessors whose use outside the knobs module L003 bans.
const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];

/// L003 — `env::var`-family access outside the designated knobs module.
fn check_env_reads(
    file: &str,
    tokens: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if !is_ident(t, "env") || in_test(i) {
            continue;
        }
        let path_read = tok(tokens, i.saturating_add(1)).is_some_and(|n| is_punct(n, "::"))
            && tok(tokens, i.saturating_add(2))
                .is_some_and(|n| n.kind == Kind::Ident && ENV_READS.contains(&n.text.as_str()));
        if path_read {
            findings.push(Finding {
                rule: Rule::L003,
                severity: Rule::L003.severity(),
                file: file.to_owned(),
                line: t.line,
                alt_line: None,
                message: String::from(
                    "environment variable access outside the knobs module; declare the knob \
                     in mcpat_par::knobs instead",
                ),
            });
        }
    }
}

/// Fan-out entry points a held lock guard must not overlap with: the
/// public `mcpat_par` fan-outs plus the persistent pool's submission
/// seams (`submit`/`help_until` and the pooled wrappers). A guard held
/// across pool submission can deadlock against a worker that needs the
/// same lock to make progress.
const FANOUT_CALLS: &[&str] = &[
    "par_map",
    "join2",
    "join4",
    "join6",
    "par_map_pooled",
    "join2_pooled",
    "join4_pooled",
    "join6_pooled",
    "submit",
    "help_until",
];

/// L005 — a `let`-bound `.lock()` guard in a function whose body also
/// fans out (`par_map`/`join*`) or submits to the persistent pool
/// (`submit`/`help_until`/`*_pooled`). Conservative by design: the
/// guard may be dropped before the fan-out, but proving that needs an
/// AST, so such code carries an allow annotation with the argument
/// spelled out.
fn check_lock_across_fanout(
    file: &str,
    tokens: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let mut i = 0usize;
    while let Some(t) = tok(tokens, i) {
        if !is_ident(t, "fn") || in_test(i) {
            i = i.saturating_add(1);
            continue;
        }
        let Some((body_start, body_end)) = fn_body_span(tokens, i) else {
            i = i.saturating_add(1);
            continue;
        };
        let body = tokens.get(body_start..=body_end).unwrap_or_default();
        let fans_out = body
            .iter()
            .any(|t| t.kind == Kind::Ident && FANOUT_CALLS.contains(&t.text.as_str()));
        if fans_out {
            for (j, bt) in body.iter().enumerate() {
                let lock_call = is_ident(bt, "lock")
                    && j.checked_sub(1)
                        .and_then(|k| body.get(k))
                        .is_some_and(|p| is_punct(p, "."))
                    && body
                        .get(j.saturating_add(1))
                        .is_some_and(|n| is_punct(n, "("));
                if lock_call && stmt_has_let(body, j) {
                    findings.push(Finding {
                        rule: Rule::L005,
                        severity: Rule::L005.severity(),
                        file: file.to_owned(),
                        line: bt.line,
                        alt_line: None,
                        message: String::from(
                            "lock guard bound in a scope that also fans out (par_map/join*) \
                             or submits to the thread pool (submit/help_until); holding a \
                             shard across a fan-out risks deadlock/contention — drop the \
                             guard first or justify with `// lint: allow(L005, reason)`",
                        ),
                    });
                }
            }
        }
        // Continue after the signature, not the body: nested fns are
        // re-scanned in their own right.
        i = body_start.saturating_add(1);
    }
}

/// Whether the statement containing token `idx` (scanning back to the
/// nearest `;`, `{` or `}`) starts with `let` — i.e. binds a name.
fn stmt_has_let(body: &[Token], idx: usize) -> bool {
    let mut j = idx;
    while let Some(k) = j.checked_sub(1) {
        let Some(t) = body.get(k) else { break };
        if is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}") {
            break;
        }
        if is_ident(t, "let") {
            return true;
        }
        j = k;
    }
    false
}

/// L007 — a before/after delta over the process-global counter
/// accessors: a function body that both calls `memo::stats()` or
/// `pool::stats()` and computes a `saturating_sub` is attributing
/// process-wide traffic to itself. Concurrent callers cross-bill each
/// other's cache misses, steals and allocations; scoped attribution
/// lives in `mcpat-obs` (enter a `Collector`, read its snapshot), the
/// one crate exempt from this rule. Tests are exempt too: a test that
/// serializes itself may legitimately assert on the globals.
fn check_global_deltas(
    file: &str,
    tokens: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let mut i = 0usize;
    while let Some(t) = tok(tokens, i) {
        if !is_ident(t, "fn") || in_test(i) {
            i = i.saturating_add(1);
            continue;
        }
        let Some((body_start, body_end)) = fn_body_span(tokens, i) else {
            i = i.saturating_add(1);
            continue;
        };
        let body = tokens.get(body_start..=body_end).unwrap_or_default();
        let subtracts = body.iter().any(|bt| is_ident(bt, "saturating_sub"));
        if subtracts {
            for (j, bt) in body.iter().enumerate() {
                let stats_call = is_ident(bt, "stats")
                    && j.checked_sub(1)
                        .and_then(|k| body.get(k))
                        .is_some_and(|p| is_punct(p, "::"))
                    && j.checked_sub(2)
                        .and_then(|k| body.get(k))
                        .is_some_and(|p| is_ident(p, "memo") || is_ident(p, "pool"))
                    && body
                        .get(j.saturating_add(1))
                        .is_some_and(|n| is_punct(n, "("));
                if stats_call {
                    findings.push(Finding {
                        rule: Rule::L007,
                        severity: Rule::L007.severity(),
                        file: file.to_owned(),
                        line: bt.line,
                        alt_line: None,
                        message: String::from(
                            "before/after delta over the global memo/pool counters; concurrent \
                             callers cross-bill each other — enter an mcpat_obs::Collector scope \
                             and read its snapshot, or justify with `// lint: allow(L007, reason)`",
                        ),
                    });
                }
            }
        }
        // Continue after the signature, not the body: nested fns are
        // re-scanned in their own right.
        i = body_start.saturating_add(1);
    }
}

/// Solver/build entry points whose call inside a loop body marks that
/// loop as iterating candidates, probes, or rungs — the long-running
/// sweeps that must stay responsive to deadlines and cancellation.
const BUDGETED_CALLS: &[&str] = &[
    "solve",
    "solve_fixed",
    "solve_uncached",
    "lookup_or_solve",
    "evaluate_raw",
    "sweep_cell",
    "rebuild_with",
    "config_at",
    "build",
    "build_inner",
];

/// Summarizes the structural IR into the function facts the
/// call-graph passes consume.
#[must_use]
pub fn collect_fn_facts(ir: &FileIr) -> Vec<FnFact> {
    let to_ref = |c: &crate::ir::CallIr| CallRef {
        name: c.name.clone(),
        path: c.path.clone(),
    };
    ir.functions
        .iter()
        .map(|f| {
            let loops = f
                .loops
                .iter()
                .map(|l| {
                    let body_calls = f.calls_in(l.body);
                    LoopFact {
                        line: l.line,
                        budgeted: body_calls
                            .iter()
                            .filter(|c| BUDGETED_CALLS.contains(&c.name.as_str()))
                            .map(|c| c.name.clone())
                            .collect(),
                        direct_checkpoint: body_calls
                            .iter()
                            .any(|c| BUDGET_CHECKS.contains(&c.name.as_str())),
                        calls: body_calls.iter().map(|c| to_ref(c)).collect(),
                    }
                })
                .collect();
            FnFact {
                name: f.name.clone(),
                impl_type: f.impl_type.clone(),
                line: f.line,
                is_test: f.is_test,
                public: f.public,
                in_trait: f.in_trait,
                calls: f.calls.iter().map(to_ref).collect(),
                loops,
            }
        })
        .collect()
}

/// L008/L012 — every solver/build loop must *reach* an `mcpat-guard`
/// checkpoint: syntactically in its body, or through its callees
/// within [`MAX_CHECKPOINT_DEPTH`] frames of the call graph. A loop
/// that fails splits by evidence:
///
/// * its budgeted calls **resolve** in the graph but provably never
///   reach a checkpoint → **L012** (interprocedural, hard evidence);
/// * its budgeted calls are all **opaque** (closures, trait objects,
///   vendored code) → **L008** (the old syntactic fallback).
///
/// Nested loops are judged independently: each iteration layer needs
/// its own checkpoint or a reaching callee.
pub fn check_loop_reachability(
    file: &str,
    crate_name: &str,
    fns: &[FnFact],
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) {
    for f in fns {
        if f.is_test {
            continue;
        }
        for l in &f.loops {
            if l.budgeted.is_empty() || l.direct_checkpoint {
                continue;
            }
            if l.calls
                .iter()
                .any(|c| graph.call_reaches_checkpoint(crate_name, c))
            {
                continue;
            }
            let budgeted_resolves = l
                .calls
                .iter()
                .filter(|c| BUDGETED_CALLS.contains(&c.name.as_str()))
                .any(|c| graph.resolves(crate_name, c));
            let (rule, message) = if budgeted_resolves {
                (
                    Rule::L012,
                    format!(
                        "loop's solver/build calls resolve in the call graph but none \
                         reaches an mcpat_guard checkpoint within {MAX_CHECKPOINT_DEPTH} \
                         frames; checkpoint inside the callee or the loop body so deadlines \
                         and cancellation stay responsive — or justify with \
                         `// lint: allow(L012, reason)`"
                    ),
                )
            } else {
                (
                    Rule::L008,
                    String::from(
                        "loop calls solver/build APIs that are opaque to the call graph \
                         and has no budget checkpoint; add an mcpat_guard::check() (or a \
                         wrapper forwarding to it) in the body so deadlines and \
                         cancellation stay responsive — or justify with \
                         `// lint: allow(L008, reason)`",
                    ),
                )
            };
            findings.push(Finding {
                rule,
                severity: rule.severity(),
                file: file.to_owned(),
                line: l.line,
                alt_line: None,
                message,
            });
        }
    }
}

/// L013 — every `pub fn` outside tests must be reachable from an
/// entry point: a binary's `main`, any fn of a root-only source
/// (examples, perfbench), or a trait item (reached by dispatch and
/// derive macros). The walk binds by name wherever the receiver type
/// is unknown ([`CallGraph::reachable`]), so it may miss dead code but
/// never flags a fn some root calls.
pub fn check_public_reachability(graph: &CallGraph, findings: &mut Vec<Finding>) {
    for (node, reached) in graph.nodes().iter().zip(graph.reachable()) {
        if !node.public || node.is_test || reached {
            continue;
        }
        let name = match &node.impl_type {
            Some(ty) => format!("{ty}::{}", node.name),
            None => node.name.clone(),
        };
        findings.push(Finding {
            rule: Rule::L013,
            severity: Rule::L013.severity(),
            file: node.file.clone(),
            line: node.line,
            alt_line: None,
            message: format!(
                "pub fn {name} is reached from no entry point (a binary's main, an example, \
                 perfbench, a trait item); delete it, narrow it to pub(crate) or \
                 #[cfg(test)], or justify with `// lint: allow(L013, reason)`"
            ),
        });
    }
}

/// Owning-container types whose `::new`/`::from`/`::with_capacity`
/// constructors hit the global allocator (or will on first push).
const ALLOC_OWNERS: &[&str] = &[
    "Vec", "VecDeque", "Box", "String", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];

/// Constructor idents that allocate when invoked on an owner above.
const ALLOC_CTORS: &[&str] = &["new", "from", "with_capacity"];

/// Method calls that copy into fresh heap storage.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "clone"];

/// Macros that expand to heap allocation.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// The `// lint: hot` … `// lint: hot end` line ranges of a file:
/// explicitly marked per-candidate regions (the solver sweep, batch
/// build inner loops) that L009 patrols for heap allocation. An
/// unclosed opener extends to end of file.
fn hot_ranges(lexed: &Lexed) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut open: Option<usize> = None;
    for c in &lexed.comments {
        let Some(at) = c.text.find("lint:") else {
            continue;
        };
        let rest = c
            .text
            .get(at.saturating_add(5)..)
            .unwrap_or_default()
            .trim_start();
        let Some(tail) = rest.strip_prefix("hot") else {
            continue;
        };
        if tail.trim() == "end" {
            if let Some(start) = open.take() {
                ranges.push((start, c.line));
            }
        } else if tail.trim().is_empty() {
            open = open.or(Some(c.line));
        }
    }
    if let Some(start) = open {
        ranges.push((start, usize::MAX));
    }
    ranges
}

/// L009 — heap allocation inside a `// lint: hot` region. Hot regions
/// mark per-candidate code (the solver's scoring sweep runs tens of
/// thousands of times per cold build), where a single `Vec::new` or
/// `.clone()` of a non-`Copy` value turns into allocator churn that
/// dominates the profile. Flags owning-container constructors,
/// copy-to-heap methods, and allocating macros; scratch should be a
/// fixed-size buffer hoisted out of the loop.
fn check_hot_allocs(
    file: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let ranges = hot_ranges(lexed);
    if ranges.is_empty() {
        return;
    }
    let tokens = &lexed.tokens;
    let in_hot = |line: usize| ranges.iter().any(|&(a, b)| line >= a && line <= b);
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident || !in_hot(t.line) || in_test(i) {
            continue;
        }
        let name = t.text.as_str();
        let next_is =
            |text: &str| tok(tokens, i.saturating_add(1)).is_some_and(|n| is_punct(n, text));
        // `Vec::new(`, `String::with_capacity(`, … — only on the known
        // owning containers, so `Multiplexer::new` and friends (plain
        // value constructors) pass untouched.
        let ctor = ALLOC_CTORS.contains(&name)
            && next_is("(")
            && prev(tokens, i).is_some_and(|p| is_punct(p, "::"))
            && i.checked_sub(2)
                .and_then(|j| tokens.get(j))
                .is_some_and(|o| o.kind == Kind::Ident && ALLOC_OWNERS.contains(&o.text.as_str()));
        // `.to_vec()`, `.to_owned()`, `.clone()` — copies into fresh
        // heap storage (a `Copy` scalar has no reason to be cloned, so
        // any `.clone()` in a hot region is worth an audited allow).
        let method = ALLOC_METHODS.contains(&name)
            && next_is("(")
            && prev(tokens, i).is_some_and(|p| is_punct(p, "."));
        // `vec![…]`, `format!(…)`.
        let mac = ALLOC_MACROS.contains(&name) && next_is("!");
        if ctor || method || mac {
            findings.push(Finding {
                rule: Rule::L009,
                severity: Rule::L009.severity(),
                file: file.to_owned(),
                line: t.line,
                alt_line: None,
                message: format!(
                    "heap allocation `{name}` inside a `lint: hot` region; hoist a \
                     fixed-size buffer out of the candidate loop — or justify with \
                     `// lint: allow(L009, reason)`"
                ),
            });
        }
    }
}

/// The physical-unit suffix table: `(suffix, dimension)`. An
/// identifier whose final `_`-separated segment appears here carries
/// that unit. Compatibility is *exact suffix* equality — `_w` against
/// `_mw` is a scale mismatch, `_w` against `_nj` a dimension mismatch,
/// and both are L010 findings. Bare `_f` is deliberately absent: it
/// collides with the feature-size idiom (`tech_f`), not farads.
const UNIT_SUFFIXES: &[(&str, &str)] = &[
    ("w", "power"),
    ("mw", "power"),
    ("uw", "power"),
    ("kw", "power"),
    ("j", "energy"),
    ("mj", "energy"),
    ("uj", "energy"),
    ("nj", "energy"),
    ("pj", "energy"),
    ("fj", "energy"),
    ("s", "time"),
    ("ms", "time"),
    ("us", "time"),
    ("ns", "time"),
    ("ps", "time"),
    ("mm2", "area"),
    ("um2", "area"),
    ("hz", "frequency"),
    ("khz", "frequency"),
    ("mhz", "frequency"),
    ("ghz", "frequency"),
    ("v", "voltage"),
    ("mv", "voltage"),
    ("ff", "capacitance"),
    ("pf", "capacitance"),
    ("nf", "capacitance"),
    ("ohm", "resistance"),
    ("kohm", "resistance"),
];

/// The unit an identifier carries, from its final `_`-suffix:
/// `leak_w` → `("w", "power")`. `None` when the name has no
/// underscore, an empty stem, or an unrecognized suffix.
fn unit_of(name: &str) -> Option<(&'static str, &'static str)> {
    let (stem, suffix) = name.rsplit_once('_')?;
    if stem.is_empty() {
        return None;
    }
    UNIT_SUFFIXES
        .iter()
        .find(|&&(s, _)| s == suffix)
        .map(|&(s, d)| (s, d))
}

/// Binary operators L010 patrols. Multiplication and division are
/// deliberately absent: they legitimately *change* dimension, so
/// `energy_nj = power_w * time_ns * 1e9` is the blessed conversion
/// seam (any operand adjacent to `*` or `/` is exempted below).
const UNIT_OPS: &[&str] = &["+", "-", "+=", "-=", "=", "==", "!=", "<", ">", "<=", ">="];

/// The first token of the `a.b::c.d` operand chain whose leaf sits at
/// `idx`, found by walking backwards over `.`/`::` joins.
fn chain_back(tokens: &[Token], idx: usize) -> usize {
    let mut k = idx;
    while let Some(p) = prev(tokens, k) {
        if !(is_punct(p, ".") || is_punct(p, "::")) {
            break;
        }
        let Some(before) = k.checked_sub(2).and_then(|j| tokens.get(j)) else {
            break;
        };
        if before.kind != Kind::Ident {
            break;
        }
        k = k.saturating_sub(2);
    }
    k
}

/// L010 — unit-suffixed identifiers mixed across incompatible
/// dimensions or scales in an addition, subtraction, comparison, or
/// assignment. Both operands must carry recognized suffixes (an
/// unsuffixed operand is unknowable and passes), and an operand
/// adjacent to `*` or `/` is inside a conversion expression whose
/// dimension the suffix no longer describes — exempt.
fn check_unit_mixing(
    file: &str,
    tokens: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Punct || !UNIT_OPS.contains(&t.text.as_str()) || in_test(i) {
            continue;
        }
        // Left operand: the identifier directly before the operator,
        // its unit read from the suffix, its chain root checked for an
        // adjacent `*`/`/`.
        let Some(lhs_idx) = i.checked_sub(1) else {
            continue;
        };
        let Some(lhs) = tokens.get(lhs_idx).filter(|p| p.kind == Kind::Ident) else {
            continue;
        };
        let Some((lsuf, ldim)) = unit_of(&lhs.text) else {
            continue;
        };
        let root = chain_back(tokens, lhs_idx);
        if prev(tokens, root).is_some_and(|p| is_punct(p, "*") || is_punct(p, "/")) {
            continue;
        }
        // Right operand: skip a unary minus, then walk the
        // `a.b::c`-style chain forward to its leaf identifier.
        let mut j = i.saturating_add(1);
        if tok(tokens, j).is_some_and(|n| is_punct(n, "-")) {
            j = j.saturating_add(1);
        }
        let mut leaf: Option<usize> = None;
        while let Some(n) = tok(tokens, j) {
            if n.kind != Kind::Ident {
                break;
            }
            leaf = Some(j);
            let joined = tok(tokens, j.saturating_add(1))
                .is_some_and(|p| is_punct(p, ".") || is_punct(p, "::"))
                && tok(tokens, j.saturating_add(2)).is_some_and(|q| q.kind == Kind::Ident);
            if !joined {
                break;
            }
            j = j.saturating_add(2);
        }
        let Some(leaf_idx) = leaf else { continue };
        let Some(rhs) = tokens.get(leaf_idx) else {
            continue;
        };
        let Some((rsuf, rdim)) = unit_of(&rhs.text) else {
            continue;
        };
        // Token after the right operand (past a call's argument list):
        // `*`/`/` there means the operand feeds a conversion product.
        let mut after_idx = leaf_idx.saturating_add(1);
        if tok(tokens, after_idx).is_some_and(|n| is_punct(n, "(")) {
            after_idx = match_close(tokens, after_idx, "(", ")").saturating_add(1);
        }
        if tok(tokens, after_idx).is_some_and(|n| is_punct(n, "*") || is_punct(n, "/")) {
            continue;
        }
        if lsuf == rsuf {
            continue;
        }
        let detail = if ldim == rdim {
            format!("both are {ldim} but at different scales")
        } else {
            format!("`_{lsuf}` is {ldim}, `_{rsuf}` is {rdim}")
        };
        findings.push(Finding {
            rule: Rule::L010,
            severity: Rule::L010.severity(),
            file: file.to_owned(),
            line: t.line,
            alt_line: None,
            message: format!(
                "unit mismatch: `{}` (_{lsuf}) {} `{}` (_{rsuf}) — {detail}; convert \
                 explicitly (multiplication/division seams are exempt) or rename — or \
                 justify with `// lint: allow(L010, reason)`",
                lhs.text, t.text, rhs.text
            ),
        });
    }
}

/// Owning hash containers whose iteration order is nondeterministic.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods whose call on a hash container observes its iteration
/// order. `retain` is included: its closure runs in hash order, so
/// any side effect inside is order-dependent.
const HASH_ITERS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Calls whose result depends on the host's thread configuration.
const THREAD_DEPENDENT_CALLS: &[&str] = &["available_parallelism", "thread_rng"];

/// Identifier names bound to a hash container in this file: typed
/// bindings/params/fields (`m: HashMap<…>`, `m: &mut HashSet<…>`) and
/// constructor assignments (`let m = HashMap::new()`).
fn hash_bound_names(tokens: &[Token]) -> HashSet<String> {
    let mut names = HashSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident || !HASH_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // `name : [&] [mut] HashMap` — walk back over the type prefix.
        let mut j = i;
        while let Some(p) = prev(tokens, j) {
            if is_punct(p, "&") || is_ident(p, "mut") {
                j = j.saturating_sub(1);
            } else {
                break;
            }
        }
        if prev(tokens, j).is_some_and(|p| is_punct(p, ":")) {
            if let Some(name) = j
                .checked_sub(2)
                .and_then(|k| tokens.get(k))
                .filter(|n| n.kind == Kind::Ident && !is_keyword(&n.text))
            {
                names.insert(name.text.clone());
            }
        }
        // `name = HashMap::new(…)` / `with_capacity` / `from`.
        if prev(tokens, i).is_some_and(|p| is_punct(p, "="))
            && tok(tokens, i.saturating_add(1)).is_some_and(|n| is_punct(n, "::"))
        {
            if let Some(name) = i
                .checked_sub(2)
                .and_then(|k| tokens.get(k))
                .filter(|n| n.kind == Kind::Ident && !is_keyword(&n.text))
            {
                names.insert(name.text.clone());
            }
        }
    }
    names
}

/// L011 — nondeterminism hazards in result-affecting code: iterating
/// a hash container (order varies run to run, so any fold, output, or
/// first-match over it is unstable) and thread-configuration-dependent
/// values (`available_parallelism`, `thread::current`). The `par`
/// crate is exempt from the thread checks — sizing a worker pool is
/// its job; results must still not depend on the answer, which the
/// hash check and the perf-identity suite patrol from the other side.
fn check_determinism(
    file: &str,
    tokens: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    par_crate: bool,
    findings: &mut Vec<Finding>,
) {
    let hash_names = hash_bound_names(tokens);
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident || in_test(i) {
            continue;
        }
        let name = t.text.as_str();
        // `m.iter()` / `m.values()` / … on a hash-bound name.
        if HASH_ITERS.contains(&name)
            && prev(tokens, i).is_some_and(|p| is_punct(p, "."))
            && tok(tokens, i.saturating_add(1)).is_some_and(|n| is_punct(n, "("))
        {
            let recv = i.checked_sub(2).and_then(|k| tokens.get(k));
            if let Some(r) = recv.filter(|r| hash_names.contains(&r.text)) {
                findings.push(Finding {
                    rule: Rule::L011,
                    severity: Rule::L011.severity(),
                    file: file.to_owned(),
                    line: t.line,
                    alt_line: None,
                    message: format!(
                        "hash-ordered iteration `{}.{name}()`; the visit order varies run \
                         to run — use a BTreeMap/BTreeSet, or collect and sort before \
                         consuming — or justify with `// lint: allow(L011, reason)`",
                        r.text
                    ),
                });
            }
            continue;
        }
        // `for x in m` / `for x in &mut m` on a hash-bound name.
        if hash_names.contains(name)
            && !tok(tokens, i.saturating_add(1)).is_some_and(|n| is_punct(n, "."))
        {
            let mut j = i;
            while let Some(p) = prev(tokens, j) {
                if is_punct(p, "&") || is_ident(p, "mut") {
                    j = j.saturating_sub(1);
                } else {
                    break;
                }
            }
            if prev(tokens, j).is_some_and(|p| is_ident(p, "in")) {
                findings.push(Finding {
                    rule: Rule::L011,
                    severity: Rule::L011.severity(),
                    file: file.to_owned(),
                    line: t.line,
                    alt_line: None,
                    message: format!(
                        "hash-ordered iteration over `{name}`; the visit order varies run \
                         to run — use a BTreeMap/BTreeSet, or collect and sort before \
                         consuming — or justify with `// lint: allow(L011, reason)`"
                    ),
                });
            }
            continue;
        }
        if par_crate {
            continue;
        }
        // `available_parallelism()` / `thread_rng()` and
        // `thread::current()` — host-configuration-dependent values.
        let thread_call = THREAD_DEPENDENT_CALLS.contains(&name)
            && tok(tokens, i.saturating_add(1)).is_some_and(|n| is_punct(n, "("));
        let thread_current = name == "current"
            && prev(tokens, i).is_some_and(|p| is_punct(p, "::"))
            && i.checked_sub(2)
                .and_then(|k| tokens.get(k))
                .is_some_and(|p| is_ident(p, "thread"));
        if thread_call || thread_current {
            findings.push(Finding {
                rule: Rule::L011,
                severity: Rule::L011.severity(),
                file: file.to_owned(),
                line: t.line,
                alt_line: None,
                message: format!(
                    "`{name}` depends on the host's thread configuration; results must \
                     not vary with worker count — confine it to mcpat-par's pool sizing \
                     or justify with `// lint: allow(L011, reason)`"
                ),
            });
        }
    }
}

/// Collects `*Config`/`*Spec` struct definitions (name, fields, lines)
/// for the per-crate L004 pass.
fn collect_structs(
    file: &str,
    tokens: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<StructDef>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if !is_ident(t, "struct") || in_test(i) {
            continue;
        }
        let Some(name_tok) = tok(tokens, i.saturating_add(1)) else {
            continue;
        };
        if name_tok.kind != Kind::Ident
            || !(name_tok.text.ends_with("Config") || name_tok.text.ends_with("Spec"))
        {
            continue;
        }
        if let Some(fields) = parse_named_fields(tokens, i.saturating_add(2)) {
            out.push(StructDef {
                name: name_tok.text.clone(),
                file: file.to_owned(),
                line: t.line,
                fields,
            });
        }
    }
}

/// From just after a struct's name, finds its `{ ... }` body (skipping
/// generics/where clauses) and extracts named fields. `None` for tuple
/// and unit structs.
fn parse_named_fields(tokens: &[Token], mut i: usize) -> Option<Vec<(String, usize)>> {
    let mut angle_depth = 0usize;
    let body_start = loop {
        let t = tok(tokens, i)?;
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "<" => angle_depth = angle_depth.saturating_add(1),
                ">" => angle_depth = angle_depth.saturating_sub(1),
                ">>" => angle_depth = angle_depth.saturating_sub(2),
                "{" if angle_depth == 0 => break i,
                "(" | ";" if angle_depth == 0 => return None,
                _ => {}
            }
        }
        i = i.saturating_add(1);
    };
    let body_end = match_close(tokens, body_start, "{", "}");
    let body = tokens.get(body_start.saturating_add(1)..body_end)?;

    let mut fields = Vec::new();
    let (mut brace, mut angle, mut paren, mut bracket) = (0usize, 0usize, 0usize, 0usize);
    let mut expecting = true;
    for (j, t) in body.iter().enumerate() {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "{" => brace = brace.saturating_add(1),
                "}" => brace = brace.saturating_sub(1),
                "<" => angle = angle.saturating_add(1),
                ">" => angle = angle.saturating_sub(1),
                ">>" => angle = angle.saturating_sub(2),
                "(" => paren = paren.saturating_add(1),
                ")" => paren = paren.saturating_sub(1),
                "[" => bracket = bracket.saturating_add(1),
                "]" => bracket = bracket.saturating_sub(1),
                "," if brace == 0 && angle == 0 && paren == 0 && bracket == 0 => {
                    expecting = true;
                }
                _ => {}
            }
            continue;
        }
        let at_top = brace == 0 && angle == 0 && paren == 0 && bracket == 0;
        if expecting
            && at_top
            && t.kind == Kind::Ident
            && !is_keyword(&t.text)
            && body
                .get(j.saturating_add(1))
                .is_some_and(|n| is_punct(n, ":"))
        {
            fields.push((t.text.clone(), t.line));
            expecting = false;
        }
    }
    Some(fields)
}

/// Adds every identifier inside `validate*` function bodies to the
/// file's mention set (L004's "is this field checked?" evidence).
fn collect_validate_idents(tokens: &[Token], out: &mut FileAnalysis) {
    for (i, t) in tokens.iter().enumerate() {
        let is_validate_fn = t.kind == Kind::Ident
            && t.text.starts_with("validate")
            && prev(tokens, i).is_some_and(|p| is_ident(p, "fn"));
        if !is_validate_fn {
            continue;
        }
        out.has_validate = true;
        if let Some((start, end)) = fn_body_span(tokens, i) {
            for bt in tokens.get(start..=end).unwrap_or_default() {
                if bt.kind == Kind::Ident && !is_keyword(&bt.text) {
                    out.validate_idents.insert(bt.text.clone());
                }
            }
        }
    }
}

/// Per-crate L004 state, merged from every file of the crate.
#[derive(Debug, Default)]
pub struct CrateValidation {
    /// All `*Config`/`*Spec` structs in the crate.
    pub structs: Vec<StructDef>,
    /// Union of identifiers mentioned in the crate's validate bodies.
    pub mentioned: BTreeSet<String>,
    /// Whether any validate function exists in the crate.
    pub has_validate: bool,
}

impl CrateValidation {
    /// Folds one file's contribution in.
    pub fn absorb(&mut self, analysis: &FileAnalysis) {
        self.structs.extend(analysis.structs.iter().cloned());
        self.mentioned
            .extend(analysis.validate_idents.iter().cloned());
        self.has_validate |= analysis.has_validate;
    }

    /// L004 — emits one finding per `*Config`/`*Spec` field that no
    /// validate body in the crate ever mentions. An allow annotation on
    /// the `struct` line waives the whole struct (`alt_line`).
    #[must_use]
    pub fn findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for def in &self.structs {
            if !self.has_validate {
                out.push(Finding {
                    rule: Rule::L004,
                    severity: Rule::L004.severity(),
                    file: def.file.clone(),
                    line: def.line,
                    alt_line: None,
                    message: format!(
                        "struct {} has no validate() anywhere in its crate; add one or \
                         justify with `// lint: allow(L004, reason)`",
                        def.name
                    ),
                });
                continue;
            }
            for (field, line) in &def.fields {
                if !self.mentioned.contains(field) {
                    out.push(Finding {
                        rule: Rule::L004,
                        severity: Rule::L004.severity(),
                        file: def.file.clone(),
                        line: *line,
                        alt_line: Some(def.line),
                        message: format!(
                            "field {}.{field} is never mentioned in any validate() of its \
                             crate; validate it or justify with `// lint: allow(L004, reason)`",
                            def.name
                        ),
                    });
                }
            }
        }
        out
    }
}

/// Parses every `lint: allow(RULE, reason)` annotation in the file's
/// comments; malformed ones become [`Rule::Allowance`] warnings.
fn parse_allows(rel_path: &str, lexed: &Lexed, out: &mut FileAnalysis) {
    // Sorted token lines, for resolving own-line annotations to the
    // next token-bearing line.
    let token_lines: Vec<usize> = {
        let set: std::collections::BTreeSet<usize> = lexed.tokens.iter().map(|t| t.line).collect();
        set.into_iter().collect()
    };
    for c in &lexed.comments {
        let Some(at) = c.text.find("lint:") else {
            continue;
        };
        let after = c.text.get(at..).unwrap_or_default();
        let Some(open) = after.find("allow(") else {
            continue;
        };
        let inner = after
            .get(open.saturating_add(6)..)
            .and_then(|rest| rest.rfind(')').and_then(|close| rest.get(..close)));
        let (id, reason) = match inner.map(|body| match body.split_once(',') {
            Some((id, reason)) => (id.trim().to_owned(), reason.trim().to_owned()),
            None => (body.trim().to_owned(), String::new()),
        }) {
            Some(parts) => parts,
            None => continue,
        };
        // Prose *about* the syntax (`allow(L00n, reason)` in docs) has
        // an unparseable rule id — skip it silently. A real rule id
        // with a missing reason is a genuine mistake and warns.
        let Some(rule) = Rule::from_id(&id) else {
            continue;
        };
        if reason.is_empty() {
            out.annotation_warnings.push(Finding {
                rule: Rule::Allowance,
                severity: Rule::Allowance.severity(),
                file: rel_path.to_owned(),
                line: c.line,
                alt_line: None,
                message: format!(
                    "lint annotation allow({id}) is missing its mandatory reason; \
                     write `lint: allow({id}, reason)`",
                ),
            });
            continue;
        }
        let target_line = if c.trailing {
            c.line
        } else {
            let pos = token_lines.partition_point(|&l| l <= c.line);
            token_lines.get(pos).copied().unwrap_or(c.line)
        };
        out.allows.push(Allow {
            rule,
            reason,
            target_line,
            comment_line: c.line,
        });
    }
}

/// Applies allow annotations to findings: suppressed findings are
/// removed, allowances that silenced nothing become warnings.
/// (`BTreeMap`s throughout — the unused-allow warnings come out of an
/// iteration, and L011 dogfoods this very file.)
#[must_use]
pub fn apply_allows(
    findings: Vec<Finding>,
    allows_by_file: &BTreeMap<String, Vec<Allow>>,
) -> Vec<Finding> {
    let mut used: BTreeMap<(String, Rule, usize), bool> = BTreeMap::new();
    for (file, allows) in allows_by_file {
        for a in allows {
            used.entry((file.clone(), a.rule, a.target_line))
                .or_insert(false);
        }
    }

    let mut kept = Vec::new();
    for f in findings {
        let mut covered = false;
        for line in std::iter::once(f.line).chain(f.alt_line) {
            if let Some(flag) = used.get_mut(&(f.file.clone(), f.rule, line)) {
                *flag = true;
                covered = true;
                break;
            }
        }
        if !covered {
            kept.push(f);
        }
    }

    // Deterministic order for the unused-allow warnings.
    let unused: BTreeMap<(String, usize), Rule> = used
        .into_iter()
        .filter_map(|((file, rule, line), was_used)| (!was_used).then_some(((file, line), rule)))
        .collect();
    for ((file, line), rule) in unused {
        kept.push(Finding {
            rule: Rule::Allowance,
            severity: Rule::Allowance.severity(),
            file,
            line,
            alt_line: None,
            message: format!(
                "unused lint annotation: allow({}) silences nothing on this line; remove it",
                rule.id()
            ),
        });
    }
    kept
}
