//! # mcpat-lint — the workspace invariant checker
//!
//! Clippy enforces the generic panic-freedom invariants (see the
//! `[workspace.lints.clippy]` deny table); this crate enforces the
//! project-specific ones clippy cannot express. It tokenizes every
//! `crates/*/src` file with a small hand-rolled lexer ([`lexer`]) — no
//! rustc plumbing, no network — builds a per-file structural IR
//! ([`parse`], [`ir`]: impls, traits, functions, loops, calls) and a
//! cross-crate call graph ([`callgraph`]), and checks
//! the project invariants as named rules ([`rules`]) with `file:line`
//! diagnostics that reuse [`mcpat_diag::Severity`].
//!
//! Run it as `cargo lint` (alias for `cargo run -p mcpat-lint`; exit
//! code 1 on violations). `--json`/`--sarif` emit machine-readable
//! reports. A violation that is genuinely fine carries a
//! `// lint: allow(L00n, reason)` annotation at the site; the reason is
//! mandatory and unused annotations are themselves reported, so the set
//! of exceptions stays audited.
//!
//! The pipeline has two stages. Per file: lex → parse → single-file
//! rules → *facts* (allow annotations, L004 struct/validate evidence,
//! L008/L012 function summaries). Globally: the per-crate L004 pass,
//! the call-graph build, the checkpoint-reachability and
//! public-API-reachability passes, allow application.
//!
//! See `DESIGN.md` § "Static analysis & invariants" for the rationale
//! behind each rule.

pub mod callgraph;
pub mod ir;
pub mod lexer;
pub mod parse;
pub mod rules;
mod sarif;

use callgraph::{CallGraph, FnNode};
use rules::{Allow, AnalyzeOptions, CrateValidation, FileAnalysis, Finding};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The result of linting a set of sources.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived allow suppression, sorted by file/line.
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when any finding is an error (exit code 1).
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.severity == mcpat_diag::Severity::Error)
    }

    /// Error findings only.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == mcpat_diag::Severity::Error)
            .count()
    }

    /// Warning findings only.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.findings.len().saturating_sub(self.error_count())
    }

    /// Renders the report as a JSON document (hand-rolled — the linter
    /// deliberately depends on nothing but `mcpat-diag`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"files_scanned\": {},\n  \"errors\": {},\n  \"warnings\": {},\n  \"findings\": [",
            self.files_scanned,
            self.error_count(),
            self.warning_count()
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
                 \"line\": {}, \"message\": \"{}\"}}",
                f.rule.id(),
                f.severity,
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders the report as a SARIF 2.1.0 document for code-scanning
    /// upload.
    #[must_use]
    pub fn to_sarif(&self) -> String {
        sarif::to_sarif(self)
    }

    /// Renders human-readable diagnostics, one per line, followed by a
    /// summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}[{}]: {}:{}: {}\n",
                f.severity,
                f.rule.id(),
                f.file,
                f.line,
                f.message
            ));
        }
        out.push_str(&format!(
            "mcpat-lint: {} error(s), {} warning(s) across {} file(s)\n",
            self.error_count(),
            self.warning_count(),
            self.files_scanned
        ));
        out
    }
}

/// Escapes `s` for use inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One in-memory source file: workspace-relative path, owning crate,
/// text.
#[derive(Debug, Clone)]
pub struct Source {
    /// Workspace-relative path (used in diagnostics).
    pub path: String,
    /// Crate the file belongs to (L004 merges validate() evidence per
    /// crate).
    pub crate_name: String,
    /// File contents.
    pub text: String,
    /// A caller outside the linted crates (examples, perfbench): its
    /// fns are L013 roots, and it is not itself linted or counted.
    pub root_only: bool,
}

/// Analyzes one source through the per-file stage:
/// lex → parse → single-file rules → facts. A root-only source
/// contributes its function summaries and nothing else.
fn analyze_one(src: &Source) -> FileAnalysis {
    let lexed = lexer::lex(&src.text);
    let file_ir = parse::parse(&lexed);
    if src.root_only {
        return FileAnalysis {
            fns: rules::collect_fn_facts(&file_ir),
            ..FileAnalysis::default()
        };
    }
    rules::analyze(
        &src.path,
        &lexed,
        &file_ir,
        AnalyzeOptions {
            knobs_file: src.path.ends_with("knobs.rs"),
            obs_crate: src.crate_name == "obs",
            par_crate: src.crate_name == "par",
        },
    )
}

/// Lints a set of in-memory sources. This is the whole pipeline:
/// per-file analysis, per-crate L004, the call-graph L008/L012/L013
/// passes, allow suppression. L013 runs only when the set has an entry
/// point (a `fn main` or a root-only source): a library linted alone
/// has nothing to be reachable from.
#[must_use]
pub fn lint_sources(sources: &[Source]) -> Report {
    let analyses: Vec<FileAnalysis> = sources.iter().map(analyze_one).collect();

    let mut findings: Vec<Finding> = Vec::new();
    let mut allows_by_file: BTreeMap<String, Vec<Allow>> = BTreeMap::new();
    let mut crates: BTreeMap<String, CrateValidation> = BTreeMap::new();

    for (src, analysis) in sources.iter().zip(&analyses) {
        findings.extend(analysis.findings.iter().cloned());
        findings.extend(analysis.annotation_warnings.iter().cloned());
        allows_by_file
            .entry(src.path.clone())
            .or_default()
            .extend(analysis.allows.iter().cloned());
        crates
            .entry(src.crate_name.clone())
            .or_default()
            .absorb(analysis);
    }

    let graph = graph_of(sources, &analyses);
    if graph.nodes().iter().any(|n| n.entry) {
        rules::check_public_reachability(&graph, &mut findings);
    }
    for (src, analysis) in sources.iter().zip(&analyses) {
        if src.root_only {
            continue;
        }
        rules::check_loop_reachability(
            &src.path,
            &src.crate_name,
            &analysis.fns,
            &graph,
            &mut findings,
        );
    }

    for validation in crates.values() {
        findings.extend(validation.findings());
    }

    let mut findings = rules::apply_allows(findings, &allows_by_file);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Report {
        findings,
        files_scanned: sources.iter().filter(|s| !s.root_only).count(),
    }
}

/// The workspace call graph over `sources`, with L013's roots marked:
/// what the DESIGN.md backing-symbol test walks.
#[must_use]
// lint: allow(L013, the DESIGN.md backing-symbol test asks it which symbols an entry point reaches)
pub fn call_graph(sources: &[Source]) -> CallGraph {
    let analyses: Vec<FileAnalysis> = sources.iter().map(analyze_one).collect();
    graph_of(sources, &analyses)
}

fn graph_of(sources: &[Source], analyses: &[FileAnalysis]) -> CallGraph {
    let mut nodes: Vec<FnNode> = Vec::new();
    for (src, analysis) in sources.iter().zip(analyses) {
        nodes.extend(analysis.fns.iter().map(|f| {
            // A binary's entry point: a free, non-test `fn main`.
            let main = f.name == "main" && f.impl_type.is_none() && !f.is_test;
            FnNode {
                crate_name: src.crate_name.clone(),
                file: src.path.clone(),
                name: f.name.clone(),
                impl_type: f.impl_type.clone(),
                line: f.line,
                is_test: f.is_test,
                public: f.public,
                entry: main || src.root_only,
                root: main || src.root_only || f.in_trait,
                calls: f.calls.clone(),
            }
        }));
    }
    CallGraph::build(nodes)
}

/// Lints one in-memory source as its own single-file crate — the
/// entry point the fixture tests use.
#[must_use]
// lint: allow(L013, the fixture and report-format tests lint single files through it)
pub fn lint_source(path: &str, text: &str) -> Report {
    lint_sources(&[Source {
        path: path.to_owned(),
        crate_name: String::from("fixture"),
        text: text.to_owned(),
        root_only: false,
    }])
}

/// Collects every `.rs` file under `crates/*/src` plus the umbrella
/// package's `src/`, then the root-only `examples/` and
/// `perfbench/src/`, in sorted (deterministic) order.
///
/// # Errors
///
/// An [`std::io::Error`] if a directory or file cannot be read.
pub fn collect_workspace_sources(root: &Path) -> std::io::Result<Vec<Source>> {
    let mut sources = Vec::new();

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let crate_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs_files(root, &src, &crate_name, false, &mut sources)?;
        }
    }

    for (dir, crate_name, root_only) in [
        ("src", "mcpat-suite", false),
        ("examples", "examples", true),
        ("perfbench/src", "perfbench", true),
    ] {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs_files(root, &dir, crate_name, root_only, &mut sources)?;
        }
    }

    Ok(sources)
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    root_only: bool,
    out: &mut Vec<Source>,
) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(root, &path, crate_name, root_only, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            out.push(Source {
                path: rel,
                crate_name: crate_name.to_owned(),
                text: std::fs::read_to_string(&path)?,
                root_only,
            });
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`.
///
/// # Errors
///
/// An [`std::io::Error`] if sources cannot be enumerated or read.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    Ok(lint_sources(&collect_workspace_sources(root)?))
}

/// The workspace root this crate was compiled in — the default lint
/// target for `cargo run -p mcpat-lint` and the self-run test.
#[must_use]
pub fn default_root() -> PathBuf {
    // crates/lint → crates → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn clean_source_yields_empty_report() {
        let report = lint_source(
            "clean.rs",
            "pub fn first(v: &[u32]) -> Option<u32> { v.iter().copied().next() }\n",
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(!report.has_errors());
        assert_eq!(report.files_scanned, 1);
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = lint_source("bad.rs", "pub fn f(x: f64) -> bool { x == 0.0 }\n");
        assert!(report.has_errors());
        let json = report.to_json();
        assert!(json.contains("\"rule\": \"L002\""), "{json}");
        assert!(json.contains("\"line\": 1"), "{json}");
        let human = report.render();
        assert!(human.contains("error[L002]: bad.rs:1:"), "{human}");
    }
}
