//! Self-test of the benchmark: its correctness checks catch corrupted
//! outputs, and its result lines carry every metric `BENCHMARK.json`
//! names, each with its declared unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mcpat::{Metric, ParetoFrontier, Processor, ProcessorConfig};
use mcpat_serve::proto::{self, RequestPerf};
use perfbench::serve_mixed::{self, Op};
use perfbench::{dse_sweep, eval_cold, measure, Args, Outcome, Workload};
use serde_json::Value;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    v.get(list)
        .and_then(Value::as_seq)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Parses a result line and checks it carries exactly `expected`, each
/// with its unit and a number.
fn check_line(outcome: &Outcome, expected: &[(String, String)]) {
    let line = outcome.to_json();
    let v: Value = serde_json::from_str(&line).expect("result line is JSON");
    assert_eq!(
        v.get("correct").and_then(Value::as_bool),
        Some(true),
        "{line}"
    );
    assert!(v.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0), "{line}");
    let metrics = v.get("metrics").and_then(Value::as_map).expect("metrics");
    for (name, unit) in expected {
        let m = v
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("metric {name} missing from {line}"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{name} has no numeric value"
        );
    }
    assert_eq!(
        metrics.len(),
        expected.len(),
        "unexpected extra metrics in {line}"
    );
}

#[test]
fn corrupted_digests_and_forced_report_mismatches_are_caught() {
    // eval_cold: a later evaluation must reproduce the timed run's digest.
    let timed = [11, 22, 33];
    assert!(eval_cold::compare_digest(1, &timed, 22).is_ok());
    assert!(eval_cold::compare_digest(1, &timed, 23).is_err());

    // Reports: the model text must match byte for byte; the Build line
    // may differ in hit/miss split but not in lookups.
    let report = Processor::build(&ProcessorConfig::niagara())
        .expect("niagara builds")
        .report();
    assert!(measure::compare_reports("same", &report, &report).is_ok());
    let digit = report
        .find("Peak power: ")
        .map(|i| i + "Peak power: ".len())
        .expect("peak power line");
    let mut forged = report.clone().into_bytes();
    forged[digit] = if forged[digit] == b'9' { b'8' } else { b'9' };
    let forged = String::from_utf8(forged).expect("ascii edit");
    assert!(measure::compare_reports("forged", &forged, &report).is_err());
    let lookups = measure::build_lookups(&report).expect("Build line");
    let build_line = report
        .lines()
        .find(|l| l.trim_start().starts_with("Build:"))
        .expect("Build line");
    let threads = build_line.split_whitespace().nth(1).expect("thread count");
    let resplit = format!(
        "  Build: {threads} thread(s), solve cache {lookups} hit(s) / 0 miss(es) / 0 eviction(s)"
    );
    let warm = report.replace(build_line, &resplit);
    assert!(measure::compare_reports("warm", &warm, &report).is_ok());
    let short = report.replace(
        build_line,
        &resplit.replace(&format!("{lookups} hit"), &format!("{} hit", lookups + 1)),
    );
    assert!(measure::compare_reports("lookups", &short, &report).is_err());

    // serve_mixed: a daemon response is compared with an in-process build.
    let inputs = serve_mixed::Inputs::new(1).expect("inputs");
    let op = Op::Warm(0);
    let expected = Processor::build(&inputs.config(op))
        .expect("build")
        .report();
    let good = proto::evaluate_response(Some(0), &expected, &RequestPerf::default());
    assert!(serve_mixed::compare_response(&inputs, op, &good).is_ok());
    let bad = proto::evaluate_response(Some(0), &forged, &RequestPerf::default());
    assert!(serve_mixed::compare_response(&inputs, op, &bad).is_err());
    assert!(serve_mixed::check_outputs(&good).is_ok());
    assert!(serve_mixed::check_outputs(&good.replace("Peak power: ", "Peak power: -")).is_err());

    // dse_sweep: a frontier point off by one ulp fails the from-scratch
    // comparison and changes the digest.
    let grid = dse_sweep::grid(1);
    let result = mcpat::dse(
        &grid,
        &mcpat::DseOptions::default(),
        &mut mcpat::WorkloadModel::default(),
    )
    .expect("sweep");
    assert!(dse_sweep::verify_frontier(&grid, &result).is_empty());
    let f = &result.frontier;
    let mut points = f.points().to_vec();
    points[0].area = f64::from_bits(points[0].area.to_bits() + 1);
    let mut corrupted = result.clone();
    corrupted.frontier = ParetoFrontier::from_parts(
        points,
        f.winners().clone(),
        f.offered(),
        f.admitted(),
        f.evicted(),
    );
    assert!(!dse_sweep::verify_frontier(&grid, &corrupted).is_empty());
    assert_ne!(
        dse_sweep::frontier_digest(&result),
        dse_sweep::frontier_digest(&corrupted)
    );
    assert!(Metric::ALL.iter().any(|&m| f.best(m).is_some()));
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    // One short run per workload prints every end-to-end metric.
    let end_to_end = declared("end_to_end");
    for w in Workload::ALL {
        let args = Args {
            workload: w,
            seed: 5,
            seconds: 0.6,
            trace: false,
        };
        let outcome = perfbench::run(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(outcome.mismatches.is_empty(), "{:?}", outcome.mismatches);
        assert_eq!(outcome.digests.len(), 1, "{}: one digest", w.name());
        check_line(&outcome, &end_to_end);
    }

    // The traced run emits every per-layer metric.
    let args = Args {
        workload: Workload::EvalCold,
        seed: 6,
        seconds: 1.8,
        trace: true,
    };
    let outcome = perfbench::run(&args).expect("traced run");
    assert!(outcome.mismatches.is_empty(), "{:?}", outcome.mismatches);
    check_line(&outcome, &declared("per_layer"));
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| perfbench::parse_args(s.split_whitespace().map(str::to_owned));
    let ok = parse("--workload dse_sweep --seed 9 --seconds 2 --trace 1").expect("valid");
    assert_eq!(ok.workload, Workload::DseSweep);
    assert_eq!(ok.seed, 9);
    assert!(ok.trace);
    assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
    assert!(parse("--workload eval_cold --seed 1 --seconds 0 --trace 0").is_err());
    assert!(parse("--workload eval_cold --seed 1 --seconds 1 --trace 2").is_err());
    assert!(parse("--workload eval_cold --seconds 1").is_err());
}
