#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
//! Integration tests for the `mcpat` command-line front-end.
//!
//! Exit-code contract under test: 0 success, 2 usage error, 3 invalid
//! configuration, 4 infeasible model.

use std::process::Command;

fn mcpat_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcpat"))
}

fn exit_code(out: &std::process::Output) -> i32 {
    out.status.code().expect("CLI terminated by signal")
}

const PRESETS: [&str; 4] = ["niagara", "niagara2", "alpha21364", "tulsa"];

#[test]
fn every_preset_produces_a_report() {
    for preset in PRESETS {
        let out = mcpat_bin().args(["--preset", preset]).output().unwrap();
        assert_eq!(exit_code(&out), 0, "preset {preset}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("McPAT-rs report:"), "preset {preset}: {text}");
        assert!(text.contains("Peak power"), "preset {preset}");
        assert!(text.contains("Die area"), "preset {preset}");
    }
}

/// `MCPAT_THREADS` is read once, at process start-up, so its effect is
/// checked across processes: a forced-serial report must match the
/// default (pooled) one byte for byte, apart from the `Build:` line,
/// which names the thread count (and so proves the variable was read).
#[test]
fn mcpat_threads_one_report_equals_default() {
    fn report(preset: &str, threads: Option<&str>) -> (String, String) {
        let mut cmd = mcpat_bin();
        cmd.args(["--preset", preset]);
        match threads {
            Some(n) => cmd.env("MCPAT_THREADS", n),
            None => cmd.env_remove("MCPAT_THREADS"),
        };
        let out = cmd.output().unwrap();
        assert_eq!(exit_code(&out), 0, "preset {preset}");
        let text = String::from_utf8(out.stdout).unwrap();
        let (build, rest): (Vec<&str>, Vec<&str>) = text
            .lines()
            .partition(|l| l.trim_start().starts_with("Build:"));
        (build.concat(), rest.join("\n"))
    }
    for preset in PRESETS {
        let (serial_build, serial) = report(preset, Some("1"));
        let (_, default) = report(preset, None);
        assert!(
            serial_build.contains("Build: 1 thread(s)"),
            "preset {preset}: MCPAT_THREADS=1 was not honored: {serial_build}"
        );
        assert!(
            serial == default,
            "preset {preset}: MCPAT_THREADS=1 report differs from the default"
        );
    }
}

#[test]
fn every_preset_emit_config_round_trips_identically() {
    for preset in PRESETS {
        let out = mcpat_bin()
            .args(["--preset", preset, "--emit-config"])
            .output()
            .unwrap();
        assert_eq!(exit_code(&out), 0, "preset {preset}");
        let json = String::from_utf8(out.stdout).unwrap();
        // The emitted JSON must deserialize back into exactly the
        // preset it came from — no field lost, renamed, or defaulted.
        let parsed: mcpat::ProcessorConfig = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("emitted config for {preset} does not parse: {e}"));
        let original = match preset {
            "niagara" => mcpat::ProcessorConfig::niagara(),
            "niagara2" => mcpat::ProcessorConfig::niagara2(),
            "alpha21364" => mcpat::ProcessorConfig::alpha21364(),
            "tulsa" => mcpat::ProcessorConfig::tulsa(),
            _ => unreachable!(),
        };
        assert_eq!(parsed, original, "round-trip of {preset} is not identity");
    }
}

#[test]
fn emit_config_round_trips_through_a_file() {
    let out = mcpat_bin()
        .args(["--preset", "tulsa", "--emit-config"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"xeon-tulsa\""));

    let dir = std::env::temp_dir();
    let path = dir.join("mcpat-cli-test-config.json");
    std::fs::write(&path, &json).unwrap();
    let out2 = mcpat_bin().arg(&path).output().unwrap();
    assert_eq!(exit_code(&out2), 0);
    let text = String::from_utf8(out2.stdout).unwrap();
    assert!(text.contains("McPAT-rs report: xeon-tulsa"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_flag_writes_a_span_trace_and_reports_it() {
    let path = std::env::temp_dir().join("mcpat-cli-test-trace.json");
    let out = mcpat_bin()
        .args(["--preset", "niagara2", "--trace"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 0);
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(
        report.contains("Trace ("),
        "report lacks a trace section:\n{report}"
    );
    assert!(report.contains("build.core"), "{report}");

    let json = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let parsed: serde_json::Value = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("trace file is not valid JSON: {e}\n{json}"));
    assert_eq!(
        parsed.get("schema").and_then(serde_json::Value::as_str),
        Some("mcpat-trace-v1"),
        "{json}"
    );
    let spans = parsed
        .get("spans")
        .and_then(serde_json::Value::as_seq)
        .expect("trace has a spans array");
    assert!(
        spans
            .iter()
            .any(|s| { s.get("path").and_then(serde_json::Value::as_str) == Some("build") }),
        "trace lacks the root build span: {json}"
    );
}

#[test]
fn traced_cold_build_bills_real_allocations() {
    let path = std::env::temp_dir().join("mcpat-cli-test-trace-allocs.json");
    let out = mcpat_bin()
        .env("MCPAT_SOLVE_CACHE", "0")
        .args(["--preset", "niagara2", "--trace"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 0);
    let json = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    let allocs = parsed
        .get("totals")
        .and_then(|t| t.get("allocs"))
        .and_then(serde_json::Value::as_u64)
        .expect("trace totals carry allocs");
    assert!(
        allocs > 0,
        "the mcpat binary must install the counting allocator: {json}"
    );
}

#[test]
fn without_trace_flag_the_report_has_no_trace_section() {
    let out = mcpat_bin().args(["--preset", "niagara2"]).output().unwrap();
    assert_eq!(exit_code(&out), 0);
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(
        !report.contains("Trace ("),
        "tracing must stay off by default:\n{report}"
    );
}

#[test]
fn validate_mode_reports_a_valid_preset_without_building() {
    let out = mcpat_bin()
        .args(["--preset", "niagara", "--validate"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 0);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("configuration is valid"), "{text}");
    assert!(!text.contains("Peak power"), "must not build a report");
}

#[test]
fn validate_mode_lists_diagnostics_and_exits_3_on_errors() {
    let mut cfg = mcpat::ProcessorConfig::niagara();
    cfg.num_cores = 0;
    cfg.clock_hz = -1.0;
    let dir = std::env::temp_dir();
    let path = dir.join("mcpat-cli-test-invalid.json");
    std::fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
    let out = mcpat_bin().arg(&path).arg("--validate").output().unwrap();
    assert_eq!(exit_code(&out), 3);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("num_cores"), "{text}");
    assert!(text.contains("clock_hz"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn invalid_config_exits_3_with_located_diagnostics() {
    let mut cfg = mcpat::ProcessorConfig::niagara();
    cfg.num_cores = 0;
    let dir = std::env::temp_dir();
    let path = dir.join("mcpat-cli-test-zero-cores.json");
    std::fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
    let out = mcpat_bin().arg(&path).output().unwrap();
    assert_eq!(exit_code(&out), 3);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("num_cores"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn infeasible_model_exits_4() {
    // A set-aligned but absurdly large L2 passes validation yet cannot
    // be partitioned by the array solver even after relaxation.
    let mut cfg = mcpat::ProcessorConfig::niagara();
    cfg.l2.as_mut().unwrap().cache.capacity = (12u64 * 64) << 50;
    let dir = std::env::temp_dir();
    let path = dir.join("mcpat-cli-test-infeasible.json");
    std::fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
    let out = mcpat_bin().arg(&path).output().unwrap();
    assert_eq!(exit_code(&out), 4);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("array solver"), "{err}");
    assert!(err.contains("l2"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_preset_is_a_usage_error() {
    let out = mcpat_bin().args(["--preset", "pentium"]).output().unwrap();
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown preset"));
}

#[test]
fn malformed_json_config_exits_3() {
    let dir = std::env::temp_dir();
    let path = dir.join("mcpat-cli-test-garbage.json");
    std::fs::write(&path, "{ not json }").unwrap();
    let out = mcpat_bin().arg(&path).output().unwrap();
    assert_eq!(exit_code(&out), 3);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("not a valid config"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unreadable_config_path_exits_3() {
    let out = mcpat_bin()
        .arg("/nonexistent/mcpat-nope.json")
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 3);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = mcpat_bin().args(["--perset", "niagara"]).output().unwrap();
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag"), "{err}");
    assert!(err.contains("usage:"));
}

#[test]
fn missing_config_is_a_usage_error() {
    let out = mcpat_bin().arg("--floorplan").output().unwrap();
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("no configuration given"), "{err}");
}

#[test]
fn stray_second_path_is_a_usage_error() {
    // The old interface silently guessed a second bare path was a stats
    // file; it must now direct the user to --stats.
    let dir = std::env::temp_dir();
    let path = dir.join("mcpat-cli-test-second.json");
    std::fs::write(
        &path,
        serde_json::to_string(&mcpat::ProcessorConfig::niagara()).unwrap(),
    )
    .unwrap();
    let out = mcpat_bin().arg(&path).arg(&path).output().unwrap();
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--stats"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn help_flag_prints_usage() {
    let out = mcpat_bin().arg("--help").output().unwrap();
    assert_eq!(exit_code(&out), 0);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("usage: mcpat"));
}

#[test]
fn stats_flag_adds_runtime_section() {
    // Build a stats file from the library, then feed it to the CLI.
    let cfg = mcpat::ProcessorConfig::niagara();
    let stats = mcpat::ChipStats::peak(1e-3, 8, cfg.clock_hz, 1, 1);
    let dir = std::env::temp_dir();
    let cfg_path = dir.join("mcpat-cli-test-n.json");
    let stats_path = dir.join("mcpat-cli-test-s.json");
    std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();
    std::fs::write(&stats_path, serde_json::to_string(&stats).unwrap()).unwrap();
    let out = mcpat_bin()
        .arg(&cfg_path)
        .arg("--stats")
        .arg(&stats_path)
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 0);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Runtime power"), "{text}");
    let _ = std::fs::remove_file(&cfg_path);
    let _ = std::fs::remove_file(&stats_path);
}

#[test]
fn malformed_stats_file_exits_3() {
    let dir = std::env::temp_dir();
    let cfg_path = dir.join("mcpat-cli-test-cfg-ok.json");
    let stats_path = dir.join("mcpat-cli-test-stats-bad.json");
    std::fs::write(
        &cfg_path,
        serde_json::to_string(&mcpat::ProcessorConfig::niagara()).unwrap(),
    )
    .unwrap();
    std::fs::write(&stats_path, "][").unwrap();
    let out = mcpat_bin()
        .arg(&cfg_path)
        .arg("--stats")
        .arg(&stats_path)
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 3);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("not a valid stats file"), "{err}");
    let _ = std::fs::remove_file(&cfg_path);
    let _ = std::fs::remove_file(&stats_path);
}

#[test]
fn serve_without_listen_is_a_usage_error() {
    let out = mcpat_bin().arg("serve").output().unwrap();
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--listen is required"), "{err}");
    assert!(err.contains("usage: mcpat serve"), "{err}");
}

#[test]
fn serve_with_unparseable_cap_is_a_usage_error() {
    let out = mcpat_bin()
        .args(["serve", "--listen", "127.0.0.1:0", "--max-inflight", "lots"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("is not a number"), "{err}");
}
