#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! The machine-readable reports: these tests parse `Report::to_json`
//! and `Report::to_sarif` back with `serde_json` and check the
//! documents' shape and string escaping.

use mcpat_lint::rules::{Finding, Rule};
use mcpat_lint::{lint_source, Report};
use serde_json::Value;

fn parse(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("invalid json ({e}):\n{text}"))
}

/// Follows `path` from `doc`: numeric steps index arrays, others are
/// object keys.
fn at<'a>(doc: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(doc, |v, step| {
        match step.parse::<usize>() {
            Ok(i) => v.as_seq().and_then(|s| s.get(i)),
            Err(_) => v.get(step),
        }
        .unwrap_or_else(|| panic!("no {step} on the path {path:?}"))
    })
}

#[test]
fn sarif_document_carries_findings_and_rule_table() {
    let report = lint_source("bad.rs", "pub fn f(x: f64) -> bool { x == 0.0 }\n");
    let doc = parse(&report.to_sarif());
    assert_eq!(at(&doc, &["version"]).as_str(), Some("2.1.0"));
    let results = at(&doc, &["runs", "0", "results"]).as_seq().unwrap();
    assert_eq!(results.len(), report.findings.len());
    let first = at(&doc, &["runs", "0", "results", "0"]);
    assert_eq!(at(first, &["ruleId"]).as_str(), Some("L002"));
    assert_eq!(at(first, &["level"]).as_str(), Some("error"));
    let line = at(
        first,
        &["locations", "0", "physicalLocation", "region", "startLine"],
    );
    assert_eq!(line.as_u64(), Some(1));
    let rules = at(&doc, &["runs", "0", "tool", "driver", "rules"]);
    assert_eq!(rules.as_seq().map(<[Value]>::len), Some(Rule::all().len()));
}

#[test]
fn empty_report_is_still_a_valid_run() {
    let report = lint_source("ok.rs", "pub fn ok() {}\n");
    let doc = parse(&report.to_sarif());
    let results = at(&doc, &["runs", "0", "results"]).as_seq();
    assert!(results.is_some_and(<[Value]>::is_empty));
}

#[test]
fn hostile_strings_round_trip_through_json_and_sarif() {
    let file = "dir \"q\"\\sub\nline\u{1}.rs";
    let message = "msg \"quoted\" back\\slash\nnext\u{1}end";
    let report = Report {
        findings: vec![Finding {
            rule: Rule::L002,
            severity: Rule::L002.severity(),
            file: file.to_owned(),
            line: 7,
            alt_line: None,
            message: message.to_owned(),
        }],
        files_scanned: 1,
    };

    let json = parse(&report.to_json());
    let finding = at(&json, &["findings", "0"]);
    assert_eq!(at(finding, &["file"]).as_str(), Some(file));
    assert_eq!(at(finding, &["message"]).as_str(), Some(message));

    let sarif = parse(&report.to_sarif());
    let result = at(&sarif, &["runs", "0", "results", "0"]);
    assert_eq!(at(result, &["message", "text"]).as_str(), Some(message));
    let uri = at(
        result,
        &[
            "locations",
            "0",
            "physicalLocation",
            "artifactLocation",
            "uri",
        ],
    );
    assert_eq!(uri.as_str(), Some(file));
}
