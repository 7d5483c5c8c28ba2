#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
//! Property tests for the lexer and parser: both are documented as
//! *total* — any byte sequence yields some tokens and some IR, never a
//! panic — and every recorded position stays inside the input.
//!
//! The corpus is every workspace source file, each run through a
//! deterministic mutation fuzzer (truncation, splicing, byte flips,
//! delimiter injection). The RNG is a seeded xorshift; set
//! `MCPAT_LINT_FUZZ_SEED=<n>` to replay a failing run, and widen
//! `MCPAT_LINT_FUZZ_ROUNDS=<n>` for longer soaks. Failures print the
//! seed so they reproduce exactly.

use mcpat_lint::{collect_workspace_sources, default_root, lexer, lint_source, parse};

/// Deterministic xorshift64* — no external RNG crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One random edit. All slicing is done on char boundaries so the
/// mutant stays valid UTF-8 (the linter only ever sees `&str`).
fn mutate(rng: &mut Rng, text: &str) -> String {
    let boundaries: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(text.len()))
        .collect();
    let at = |rng: &mut Rng| boundaries[rng.below(boundaries.len())];
    match rng.below(6) {
        // Truncate: unterminated strings, half-open braces.
        0 => {
            let cut = at(rng);
            text[..cut].to_owned()
        }
        // Delete a span.
        1 => {
            let (a, b) = (at(rng), at(rng));
            let (a, b) = (a.min(b), a.max(b));
            format!("{}{}", &text[..a], &text[b..])
        }
        // Duplicate a span somewhere else (confuses balanced-delimiter
        // tracking if anything will).
        2 => {
            let (a, b) = (at(rng), at(rng));
            let (a, b) = (a.min(b), a.max(b));
            let dest = at(rng);
            format!("{}{}{}", &text[..dest], &text[a..b], &text[dest..])
        }
        // Inject structure-bearing tokens at a random point.
        3 => {
            let noise = [
                "{",
                "}",
                "(",
                ")",
                "[",
                "]",
                "\"",
                "'",
                "//",
                "/*",
                "*/",
                "::",
                "fn ",
                "impl ",
                "use ",
                "for ",
                "#[",
                "b\"",
                "r#\"",
                "'\\u{",
                "¢",
                "日",
                "\u{10FFFF}",
            ];
            let dest = at(rng);
            let ins = noise[rng.below(noise.len())];
            format!("{}{}{}", &text[..dest], ins, &text[dest..])
        }
        // Replace one char with a random ASCII byte.
        4 => {
            let dest = at(rng);
            let c = char::from(32 + (rng.below(95) as u8));
            let mut out = String::with_capacity(text.len() + 1);
            out.push_str(&text[..dest]);
            out.push(c);
            let rest = &text[dest..];
            let skip = rest.chars().next().map_or(0, char::len_utf8);
            out.push_str(&rest[skip..]);
            out
        }
        // Swap two halves.
        _ => {
            let cut = at(rng);
            format!("{}{}", &text[cut..], &text[..cut])
        }
    }
}

/// The core property: lex and parse succeed, and every recorded
/// position is a valid char-boundary offset (tokens) or in-bounds
/// token index (IR spans).
fn check_total(text: &str, context: &str) {
    let lexed = lexer::lex(text);
    for t in &lexed.tokens {
        assert!(t.start <= t.end, "{context}: token start > end");
        assert!(t.end <= text.len(), "{context}: token end out of bounds");
        assert!(
            text.is_char_boundary(t.start) && text.is_char_boundary(t.end),
            "{context}: token offsets split a char"
        );
        assert!(t.line >= 1, "{context}: token line is 0");
    }
    for c in &lexed.comments {
        assert!(
            c.start <= text.len(),
            "{context}: comment start out of bounds"
        );
        assert!(
            text.is_char_boundary(c.start),
            "{context}: comment offset splits a char"
        );
    }
    let ir = parse::parse(&lexed);
    let n = lexed.tokens.len();
    for f in &ir.functions {
        assert!(f.body.end <= n, "{context}: fn body span out of bounds");
        for call in &f.calls {
            assert!(call.tok < n, "{context}: call token out of bounds");
        }
        for l in &f.loops {
            assert!(l.keyword < n, "{context}: loop keyword out of bounds");
            assert!(l.body.end <= n, "{context}: loop body span out of bounds");
        }
    }
    for im in &ir.impls {
        assert!(im.body.end <= n, "{context}: impl body span out of bounds");
    }
}

#[test]
fn every_workspace_source_fuzzes_clean() {
    let sources = collect_workspace_sources(&default_root()).expect("workspace sources");
    assert!(sources.len() > 50, "corpus unexpectedly small");
    let seed = env_u64("MCPAT_LINT_FUZZ_SEED", 0x9e37_79b9_7f4a_7c15);
    let rounds = env_u64("MCPAT_LINT_FUZZ_ROUNDS", 8) as usize;
    let mut rng = Rng(seed | 1);
    for src in &sources {
        check_total(&src.text, &src.path);
        let mut mutant = src.text.clone();
        for round in 0..rounds {
            mutant = mutate(&mut rng, &mutant);
            check_total(
                &mutant,
                &format!("{} (seed {seed:#x}, round {round})", src.path),
            );
        }
    }
}

#[test]
fn full_pipeline_survives_hostile_mutants() {
    // The whole lint pipeline — rules, call graph, allow parsing — on
    // deeply mutated versions of a structurally rich corpus slice.
    let sources = collect_workspace_sources(&default_root()).expect("workspace sources");
    let seed = env_u64("MCPAT_LINT_FUZZ_SEED", 0xdead_beef_cafe_f00d);
    let mut rng = Rng(seed | 1);
    for src in sources.iter().step_by(7) {
        let mut mutant = src.text.clone();
        for _ in 0..20 {
            mutant = mutate(&mut rng, &mutant);
        }
        // Must not panic; findings on garbage are fine, but both
        // machine-readable reports must parse and list every finding.
        let report = lint_source(&src.path, &mutant);
        let _ = report.render();
        let json: serde_json::Value = serde_json::from_str(&report.to_json())
            .unwrap_or_else(|e| panic!("{}: report JSON does not parse: {e}", src.path));
        let findings = json.get("findings").and_then(serde_json::Value::as_seq);
        assert_eq!(
            findings.map(<[_]>::len),
            Some(report.findings.len()),
            "{}",
            src.path
        );
        let sarif: serde_json::Value = serde_json::from_str(&report.to_sarif())
            .unwrap_or_else(|e| panic!("{}: SARIF does not parse: {e}", src.path));
        let results = sarif
            .get("runs")
            .and_then(serde_json::Value::as_seq)
            .and_then(<[_]>::first)
            .and_then(|run| run.get("results"))
            .and_then(serde_json::Value::as_seq);
        assert_eq!(
            results.map(<[_]>::len),
            Some(report.findings.len()),
            "{}",
            src.path
        );
    }
}

#[test]
fn adversarial_seeds_from_construction() {
    // Hand-built nasties the random mutator is unlikely to hit early.
    for (name, text) in [
        ("empty", String::new()),
        ("only_closers", "}}}])))\u{300}".to_owned()),
        ("unterminated_string", "fn f() { \"abc".to_owned()),
        ("unterminated_raw", "fn f() { r#\"abc".to_owned()),
        ("unterminated_block_comment", "/* fn f() {".to_owned()),
        ("lifetime_vs_char", "'a 'b' '\\'' 'unclosed".to_owned()),
        ("deep_nesting", "fn f() {".repeat(512) + &"}".repeat(512)),
        ("use_soup", "use ::{{{as as as}}};".to_owned()),
        ("impl_soup", "impl<for<'a>> for for {} impl {}".to_owned()),
        ("bom_and_controls", "\u{feff}fn\u{0}f(){\u{7f}}".to_owned()),
        ("just_attrs", "#[cfg(test)] #[test] #[".to_owned()),
        ("shebang", "#!/usr/bin/env rust\nfn f() {}".to_owned()),
    ] {
        check_total(&text, name);
        let _ = lint_source(name, &text);
    }
}
