#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! The linter's two ground truths: every fixture trips exactly the rule
//! it demonstrates, and the workspace itself is clean under a self-run.

use mcpat_lint::callgraph::FnNode;
use mcpat_lint::{
    call_graph, collect_workspace_sources, default_root, lint_source, lint_workspace,
};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_fixture_trips_its_rule() {
    for (file, rule) in [
        ("l002_float_eq.rs", "L002"),
        ("l003_env_read.rs", "L003"),
        ("l004_unvalidated_field.rs", "L004"),
        ("l005_lock_across_fanout.rs", "L005"),
        ("l005_lock_across_pool_submit.rs", "L005"),
        ("l007_global_delta.rs", "L007"),
        ("l008_unguarded_loop.rs", "L008"),
        ("l009_hot_alloc.rs", "L009"),
        ("l010_unit_mix.rs", "L010"),
        ("l011_nondeterminism.rs", "L011"),
        ("l012_unreachable_checkpoint.rs", "L012"),
        ("l012_unguarded_dse_loop.rs", "L012"),
        ("l013_unreachable_pub_fn.rs", "L013"),
    ] {
        let report = lint_source(file, &fixture(file));
        assert!(
            report.findings.iter().any(|f| f.rule.id() == rule),
            "{file} should trip {rule}, got: {:?}",
            report.findings
        );
    }
}

#[test]
fn fixture_findings_name_their_lines() {
    let report = lint_source("l002_float_eq.rs", &fixture("l002_float_eq.rs"));
    let f = report
        .findings
        .iter()
        .find(|f| f.rule.id() == "L002")
        .expect("an L002 finding");
    assert_eq!(f.file, "l002_float_eq.rs");
    assert!(f.line >= 3, "float comparison is past the doc header");
}

#[test]
fn an_allow_with_reason_silences_the_fixture() {
    let annotated = fixture("l002_float_eq.rs").replace(
        "x == 0.0",
        "// lint: allow(L002, fixture demonstrates suppression)\n    x == 0.0",
    );
    let report = lint_source("l002_float_eq.rs", &annotated);
    assert!(
        !report.findings.iter().any(|f| f.rule.id() == "L002"),
        "allow should suppress: {:?}",
        report.findings
    );
}

#[test]
fn unit_mix_fires_only_on_additive_and_comparison_ops() {
    let report = lint_source("l010_unit_mix.rs", &fixture("l010_unit_mix.rs"));
    let l010_lines: Vec<usize> = report
        .findings
        .iter()
        .filter(|f| f.rule.id() == "L010")
        .map(|f| f.line)
        .collect();
    assert_eq!(l010_lines.len(), 3, "{:?}", report.findings);
    let src = fixture("l010_unit_mix.rs");
    for (n, line) in src.lines().enumerate() {
        if line.contains("// OK") || line.contains("_nj * ") || line.contains("read_nj + write_nj")
        {
            assert!(
                !l010_lines.contains(&(n + 1)),
                "conversion seams and same-unit math must stay clean: line {}",
                n + 1
            );
        }
    }
}

#[test]
fn new_rules_are_silenced_by_reasoned_allows() {
    for (file, rule, site) in [
        ("l010_unit_mix.rs", "L010", "leakage_w + dynamic_mw"),
        (
            "l011_nondeterminism.rs",
            "L011",
            "for (_, w) in parts.iter() {",
        ),
        (
            "l012_unreachable_checkpoint.rs",
            "L012",
            "for c in candidates {",
        ),
        (
            "l012_unguarded_dse_loop.rs",
            "L012",
            "while let Some(clock) = config_at(grid, cursor) {",
        ),
        (
            "l012_unguarded_dse_loop.rs",
            "L012",
            "for &clock in clocks {",
        ),
    ] {
        let count = |report: &mcpat_lint::Report| {
            report
                .findings
                .iter()
                .filter(|f| f.rule.id() == rule)
                .count()
        };
        let before = count(&lint_source(file, &fixture(file)));
        let allow = format!("// lint: allow({rule}, fixture demonstrates suppression)\n    {site}");
        let annotated = fixture(file).replace(site, &allow);
        let after = count(&lint_source(file, &annotated));
        assert_eq!(
            after,
            before - 1,
            "{file}: allow should suppress exactly the annotated {rule} site"
        );
    }
}

#[test]
fn l013_flags_exactly_the_unreached_pub_fns() {
    let file = "l013_unreachable_pub_fn.rs";
    let src = fixture(file);
    let flagged: Vec<usize> = lint_source(file, &src)
        .findings
        .iter()
        .filter(|f| f.rule.id() == "L013")
        .map(|f| f.line)
        .collect();
    // Each BAD marker sits on the line above the fn it names.
    let bad: Vec<usize> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("BAD (L013)"))
        .map(|(n, _)| n + 2)
        .collect();
    assert_eq!(flagged, bad, "{src}");
    // Without an entry point there is nothing to be reachable from.
    let library = src.replace("fn main()", "fn not_main()");
    let report = lint_source(file, &library);
    assert!(!report.findings.iter().any(|f| f.rule.id() == "L013"));
}

#[test]
fn the_linter_lints_its_own_sources() {
    let sources = collect_workspace_sources(&default_root()).unwrap();
    let own: Vec<&str> = sources
        .iter()
        .map(|s| s.path.as_str())
        .filter(|p| p.starts_with("crates/lint/src/"))
        .collect();
    for file in [
        "crates/lint/src/lib.rs",
        "crates/lint/src/lexer.rs",
        "crates/lint/src/parse.rs",
        "crates/lint/src/ir.rs",
        "crates/lint/src/callgraph.rs",
        "crates/lint/src/rules.rs",
        "crates/lint/src/sarif.rs",
        "crates/lint/src/main.rs",
    ] {
        assert!(own.contains(&file), "self-lint must cover {file}: {own:?}");
    }
}

#[test]
fn workspace_is_lint_clean() {
    let root = default_root();
    let report = lint_workspace(&root).unwrap();
    assert!(
        report.files_scanned > 50,
        "expected the whole workspace, scanned {} files",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "workspace must stay lint-clean (errors AND warnings):\n{}",
        report.render()
    );
}

/// Examples and perfbench are read for L013's roots only: they yield
/// root fns and are not counted as scanned. A moved
/// perfbench directory would otherwise let L013 delete what the frozen
/// benchmark calls.
#[test]
fn examples_and_perfbench_are_root_only_sources() {
    let sources = collect_workspace_sources(&default_root()).unwrap();
    let graph = call_graph(&sources);
    for dir in ["examples/", "perfbench/src/"] {
        let roots = graph
            .nodes()
            .iter()
            .filter(|n| n.entry && n.file.starts_with(dir))
            .count();
        assert!(roots > 0, "no root fn read from {dir}");
    }
    let report = mcpat_lint::lint_sources(&sources);
    let linted = sources.iter().filter(|s| !s.root_only).count();
    assert_eq!(report.files_scanned, linted);
    assert!(linted < sources.len());
}

/// Whether `node` backs the DESIGN.md symbol `sym`: a module path
/// (`mcpat::dvfs`, `mcpat_sim::trace`) names a file, `Type::f` a
/// method, and a bare name a free fn or a type with any method.
fn backs(node: &FnNode, sym: &str) -> bool {
    match sym.split_once("::") {
        Some((krate, module)) if krate.starts_with("mcpat") => {
            let dir = krate.strip_prefix("mcpat_").unwrap_or("core");
            node.file == format!("crates/{dir}/src/{module}.rs")
        }
        Some((ty, name)) => node.impl_type.as_deref() == Some(ty) && node.name == name,
        None => node.name == sym || node.impl_type.as_deref() == Some(sym),
    }
}

/// Every system DESIGN.md §3 calls modeled names its backing symbols,
/// and each must be reachable from L013's roots: deleting one fails
/// here instead of leaving the prose stale.
#[test]
fn every_modeled_system_has_reachable_backing_symbols() {
    let root = default_root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let graph = call_graph(&collect_workspace_sources(&root).unwrap());
    let live: Vec<&FnNode> = graph
        .nodes()
        .iter()
        .zip(graph.reachable())
        .filter_map(|(n, reached)| reached.then_some(n))
        .collect();
    let mut rows = 0;
    for line in design.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let Some(id) = cells.get(1).filter(|c| {
            c.strip_prefix('S')
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        }) else {
            continue;
        };
        rows += 1;
        let symbols: Vec<&str> = cells[4].split('`').skip(1).step_by(2).collect();
        assert!(!symbols.is_empty(), "{id} names no backing symbol");
        for sym in symbols {
            assert!(
                live.iter().any(|n| backs(n, sym)),
                "{id}: `{sym}` names no fn an entry point reaches"
            );
        }
    }
    assert!(rows >= 12, "found {rows} system rows in DESIGN.md");
}
