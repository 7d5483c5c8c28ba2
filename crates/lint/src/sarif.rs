//! SARIF 2.1.0 rendering (`--sarif FILE`) so CI can upload the lint
//! report as code-scanning annotations.
//!
//! The document is the minimal shape GitHub's `upload-sarif` action
//! accepts: one run, a tool driver carrying the rule table (id + one
//! line invariant), and one result per finding with a physical
//! location. Severities map 1:1 (`error` → `error`, warnings —
//! annotation hygiene — → `warning`). Written with the same
//! `json_escape` + `format!` writer as [`Report::to_json`].

use crate::rules::Rule;
use crate::{json_escape, Report};
use mcpat_diag::Severity;

/// Renders a report as a SARIF 2.1.0 document.
#[must_use]
pub fn to_sarif(report: &Report) -> String {
    let rules: Vec<String> = Rule::all()
        .iter()
        .map(|r| {
            format!(
                "{{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
                 \"defaultConfiguration\": {{\"level\": \"{}\"}}}}",
                r.id(),
                json_escape(r.summary()),
                level(r.severity())
            )
        })
        .collect();
    let results: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "{{\"ruleId\": \"{}\", \"level\": \"{}\", \"message\": {{\"text\": \"{}\"}}, \
                 \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                 {{\"uri\": \"{}\", \"uriBaseId\": \"%SRCROOT%\"}}, \
                 \"region\": {{\"startLine\": {}}}}}}}]}}",
                f.rule.id(),
                level(f.severity),
                json_escape(&f.message),
                json_escape(&f.file),
                f.line
            )
        })
        .collect();
    format!(
        "{{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [{{\n    \"tool\": {{\"driver\": {{\
         \"name\": \"mcpat-lint\", \"informationUri\": \"https://github.com/mcpat-rs/mcpat-rs\", \
         \"rules\": [\n      {}\n    ]}}}},\n    \"results\": [{}]\n  }}]\n}}\n",
        rules.join(",\n      "),
        if results.is_empty() {
            String::new()
        } else {
            format!("\n      {}\n    ", results.join(",\n      "))
        }
    )
}

fn level(severity: Severity) -> &'static str {
    match severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}
