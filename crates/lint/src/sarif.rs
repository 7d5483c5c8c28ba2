//! SARIF 2.1.0 rendering (`--sarif FILE`) so CI can upload the lint
//! report as code-scanning annotations.
//!
//! The document is the minimal shape GitHub's `upload-sarif` action
//! accepts: one run, a tool driver carrying the rule table (id + one
//! line invariant), and one result per finding with a physical
//! location. Severities map 1:1 (`error` → `error`, warnings —
//! annotation hygiene — → `warning`). Built with `serde_json::json!`,
//! like [`Report::to_json`].

use crate::rules::Rule;
use crate::{pretty, Report};
use mcpat_diag::Severity;
use serde_json::{json, Value};

/// Renders a report as a SARIF 2.1.0 document.
#[must_use]
pub fn to_sarif(report: &Report) -> String {
    let rules: Vec<Value> = Rule::all()
        .iter()
        .map(|r| {
            json!({
                "id": r.id(),
                "shortDescription": {"text": r.summary()},
                "defaultConfiguration": {"level": level(r.severity())},
            })
        })
        .collect();
    let results: Vec<Value> = report
        .findings
        .iter()
        .map(|f| {
            json!({
                "ruleId": f.rule.id(),
                "level": level(f.severity),
                "message": {"text": f.message},
                "locations": [{"physicalLocation": {
                    "artifactLocation": {"uri": f.file, "uriBaseId": "%SRCROOT%"},
                    "region": {"startLine": f.line},
                }}],
            })
        })
        .collect();
    pretty(&json!({
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "mcpat-lint",
                "informationUri": "https://github.com/mcpat-rs/mcpat-rs",
                "rules": rules,
            }},
            "results": results,
        }],
    }))
}

fn level(severity: Severity) -> &'static str {
    match severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}
