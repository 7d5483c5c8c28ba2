#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Integration tests for the serve daemon: protocol behavior,
//! admission control, deadlines, coalescing, drain, and the
//! byte-identity contract between a wire `report` and the one-shot
//! CLI's stdout for the same configuration.

use mcpat::ProcessorConfig;
use mcpat_serve::{ServeOptions, Server, ServerHandle};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes tests that touch the process-global eval-hold hook.
static HOLD_LOCK: Mutex<()> = Mutex::new(());

/// Resets the eval hold even if the owning test fails an assert.
struct HoldReset;
impl Drop for HoldReset {
    fn drop(&mut self) {
        mcpat_serve::set_eval_hold_ms(0);
    }
}

/// Starts an in-process server on an ephemeral loopback port.
fn start_server(max_inflight: usize) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server =
        Server::bind("127.0.0.1:0", &ServeOptions { max_inflight }).expect("bind loopback");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (handle, join)
}

/// One client connection with line-oriented send/receive.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("send");
        self.stream.write_all(b"\n").expect("send newline");
        self.stream.flush().expect("flush");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        serde_json::from_str(&line).expect("response is valid JSON")
    }

    fn roundtrip(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }
}

fn status(v: &Value) -> &str {
    v.get("status").and_then(Value::as_str).expect("status")
}

fn error_kind(v: &Value) -> &str {
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        .expect("error.kind")
}

fn report(v: &Value) -> &str {
    v.get("report").and_then(Value::as_str).expect("report")
}

fn perf_u64(v: &Value, field: &str) -> u64 {
    v.get("perf")
        .and_then(|p| p.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("perf.{field} missing: {v:?}"))
}

fn perf_bool(v: &Value, field: &str) -> bool {
    v.get("perf")
        .and_then(|p| p.get(field))
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("perf.{field} missing: {v:?}"))
}

fn evaluate_line(cfg: &ProcessorConfig, id: u64) -> String {
    format!(
        "{{\"type\":\"evaluate\",\"id\":{id},\"config\":{}}}",
        serde_json::to_string(cfg).unwrap()
    )
}

/// A config no other test (or CLI preset default) builds, so hold-based
/// tests own their coalesce key.
fn distinct_config(name: &str, clock_hz: f64) -> ProcessorConfig {
    let mut cfg = ProcessorConfig::niagara();
    cfg.name = name.to_owned();
    cfg.clock_hz = clock_hz;
    cfg
}

#[test]
fn ping_stats_and_invalid_envelopes() {
    let (handle, join) = start_server(4);
    let mut c = Client::connect(&handle);

    let pong = c.roundtrip("{\"type\":\"ping\",\"id\":11}");
    assert_eq!(status(&pong), "ok");
    assert_eq!(pong.get("type").and_then(Value::as_str), Some("pong"));
    assert_eq!(pong.get("id").and_then(Value::as_u64), Some(11));

    // The stats envelope is well-defined even before any evaluation:
    // hit_rate must be a finite JSON number (satellite: no NaN on the
    // zero-lookup path).
    let stats = c.roundtrip("{\"type\":\"stats\"}");
    assert_eq!(status(&stats), "ok");
    let sc = stats
        .get("stats")
        .and_then(|s| s.get("solve_cache"))
        .expect("solve_cache block");
    let rate = sc
        .get("hit_rate")
        .and_then(Value::as_f64)
        .expect("hit_rate");
    assert!(rate.is_finite() && (0.0..=1.0).contains(&rate), "{rate}");
    let srv = stats
        .get("stats")
        .and_then(|s| s.get("server"))
        .expect("server block");
    assert_eq!(srv.get("max_inflight").and_then(Value::as_u64), Some(4));

    let bad = c.roundtrip("this is not json");
    assert_eq!(status(&bad), "error");
    assert_eq!(error_kind(&bad), "InvalidRequest");

    let unknown = c.roundtrip("{\"type\":\"evaluate\",\"preset\":\"pentium\"}");
    assert_eq!(error_kind(&unknown), "InvalidConfig");

    let invalid = {
        let mut cfg = ProcessorConfig::niagara();
        cfg.num_cores = 0;
        c.roundtrip(&evaluate_line(&cfg, 5))
    };
    assert_eq!(status(&invalid), "error");
    assert_eq!(error_kind(&invalid), "InvalidConfig");
    assert_eq!(invalid.get("id").and_then(Value::as_u64), Some(5));

    handle.request_drain();
    join.join().unwrap();
}

#[test]
fn evaluate_report_is_byte_identical_to_the_one_shot_cli() {
    let (handle, join) = start_server(4);
    let mut c = Client::connect(&handle);

    // Preset path: the wire report plus the CLI's trailing newline must
    // equal the one-shot process's stdout exactly.
    let resp = c.roundtrip("{\"type\":\"evaluate\",\"id\":1,\"preset\":\"tulsa\"}");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mcpat"))
        .args(["--preset", "tulsa"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let wire = format!("{}\n", report(&resp));
    assert_eq!(
        wire.as_bytes(),
        out.stdout.as_slice(),
        "wire report differs from one-shot CLI stdout"
    );

    // Config-object path, including a renamed config through the warm
    // cache: still byte-identical to a fresh CLI run of that file.
    let mut cfg = ProcessorConfig::niagara2();
    cfg.name = "renamed-niagara2".into();
    let resp = c.roundtrip(&evaluate_line(&cfg, 2));
    assert_eq!(status(&resp), "ok", "{resp:?}");
    let path = std::env::temp_dir().join("mcpat-serve-byte-identity.json");
    std::fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mcpat"))
        .arg(&path)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success());
    let wire = format!("{}\n", report(&resp));
    assert_eq!(
        wire.as_bytes(),
        out.stdout.as_slice(),
        "renamed config wire report differs from one-shot CLI stdout"
    );

    handle.request_drain();
    join.join().unwrap();
}

#[test]
fn zero_deadline_trips_a_typed_deadline_error() {
    let (handle, join) = start_server(4);
    let mut c = Client::connect(&handle);
    // A zero deadline has already elapsed at the first cooperative
    // checkpoint — deterministic even with a warm cache.
    let line = r#"{"type":"evaluate","id":3,"preset":"niagara","deadline_ms":0}"#;
    let resp = c.roundtrip(line);
    assert_eq!(status(&resp), "error", "{resp:?}");
    assert_eq!(error_kind(&resp), "DeadlineExceeded");
    assert_eq!(resp.get("id").and_then(Value::as_u64), Some(3));
    // The failed request is still billed: the envelope carries perf.
    assert!(resp.get("perf").is_some(), "{resp:?}");

    // The budget trip must not poison the key: the same config without
    // a deadline builds fine.
    let ok = c.roundtrip("{\"type\":\"evaluate\",\"id\":4,\"preset\":\"niagara\"}");
    assert_eq!(status(&ok), "ok", "{ok:?}");

    let stats = c.roundtrip("{\"type\":\"stats\"}");
    let srv = stats.get("stats").and_then(|s| s.get("server")).unwrap();
    assert!(
        srv.get("deadline_exceeded")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1,
        "{stats:?}"
    );

    handle.request_drain();
    join.join().unwrap();
}

#[test]
fn over_cap_requests_get_a_typed_overloaded_rejection() {
    let _hold_lock = HOLD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = HoldReset;
    let (handle, join) = start_server(1);

    mcpat_serve::set_eval_hold_ms(400);
    let mut a = Client::connect(&handle);
    a.send(&evaluate_line(&distinct_config("overload-a", 1.21e9), 1));
    // Wait until A is admitted (stats bypasses admission, so it stays
    // answerable at the cap).
    let mut b = Client::connect(&handle);
    let t0 = Instant::now();
    loop {
        let stats = b.roundtrip("{\"type\":\"stats\"}");
        let in_flight = stats
            .get("stats")
            .and_then(|s| s.get("server"))
            .and_then(|s| s.get("in_flight"))
            .and_then(Value::as_u64)
            .unwrap();
        if in_flight >= 1 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "request A was never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let rejected = b.roundtrip(&evaluate_line(&distinct_config("overload-b", 1.22e9), 2));
    assert_eq!(status(&rejected), "error", "{rejected:?}");
    assert_eq!(error_kind(&rejected), "Overloaded");

    // A itself completes normally once the hold releases.
    let ok = a.recv();
    assert_eq!(status(&ok), "ok", "{ok:?}");
    mcpat_serve::set_eval_hold_ms(0);

    // With the slot free again, the previously rejected config passes.
    let retry = b.roundtrip(&evaluate_line(&distinct_config("overload-b", 1.22e9), 3));
    assert_eq!(status(&retry), "ok", "{retry:?}");

    let stats = b.roundtrip("{\"type\":\"stats\"}");
    let srv = stats.get("stats").and_then(|s| s.get("server")).unwrap();
    assert!(srv.get("overloaded").and_then(Value::as_u64).unwrap() >= 1);

    handle.request_drain();
    join.join().unwrap();
}

#[test]
fn identical_concurrent_requests_coalesce_onto_one_build() {
    let _hold_lock = HOLD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = HoldReset;
    let (handle, join) = start_server(8);

    // Distinct clock so no other test pre-warmed these solves; the hold
    // keeps A's build in flight long enough for B to provably overlap.
    let cfg_a = distinct_config("herd-a", 1.19e9);
    let cfg_b = distinct_config("herd-b", 1.19e9);
    mcpat_serve::set_eval_hold_ms(400);
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);
    a.send(&evaluate_line(&cfg_a, 1));
    // B must arrive while A holds the coalesce key; admission happens
    // before the hold, so in_flight ≥ 1 guarantees the key is claimed.
    let mut probe = Client::connect(&handle);
    let t0 = Instant::now();
    loop {
        let stats = probe.roundtrip("{\"type\":\"stats\"}");
        let in_flight = stats
            .get("stats")
            .and_then(|s| s.get("server"))
            .and_then(|s| s.get("in_flight"))
            .and_then(Value::as_u64)
            .unwrap();
        if in_flight >= 1 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "request A was never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    b.send(&evaluate_line(&cfg_b, 2));
    let resp_a = a.recv();
    let resp_b = b.recv();
    mcpat_serve::set_eval_hold_ms(0);
    assert_eq!(status(&resp_a), "ok", "{resp_a:?}");
    assert_eq!(status(&resp_b), "ok", "{resp_b:?}");

    // Exactly one side ran the build; the other coalesced and paid no
    // solve misses of its own.
    assert!(perf_bool(&resp_a, "built"), "{resp_a:?}");
    assert!(!perf_bool(&resp_a, "coalesced"), "{resp_a:?}");
    assert!(perf_bool(&resp_b, "coalesced"), "{resp_b:?}");
    assert!(!perf_bool(&resp_b, "built"), "{resp_b:?}");
    assert!(perf_u64(&resp_a, "solve_cache_misses") > 0, "{resp_a:?}");
    assert_eq!(perf_u64(&resp_b, "solve_cache_misses"), 0, "{resp_b:?}");

    // Each report carries its own name in the header.
    assert!(report(&resp_a).contains("McPAT-rs report: herd-a"));
    assert!(report(&resp_b).contains("McPAT-rs report: herd-b"));

    // The coalesced relabel is byte-exact: B's report is the builder's
    // report with only the name header rewritten (the trailing Build
    // line records the shared build, so it matches too).
    let expect_b = report(&resp_a).replacen("herd-a", "herd-b", 1);
    assert_eq!(report(&resp_b), expect_b, "relabeled report diverged");

    let stats = probe.roundtrip("{\"type\":\"stats\"}");
    let srv = stats.get("stats").and_then(|s| s.get("server")).unwrap();
    assert!(
        srv.get("coalesced_requests")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );

    handle.request_drain();
    join.join().unwrap();
}

/// Kills the child daemon if the owning test fails before it exits.
struct KillOnDrop(std::process::Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn mcpat_serve_bills_real_allocations_on_a_cold_evaluate() {
    let mut child = KillOnDrop(
        std::process::Command::new(env!("CARGO_BIN_EXE_mcpat"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap(),
    );
    // Kept open until the daemon exits: it logs the drain to stdout.
    let mut stdout = BufReader::new(child.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"));
    let stream = TcpStream::connect(addr).expect("connect");
    let mut c = Client {
        reader: BufReader::new(stream.try_clone().expect("clone stream")),
        stream,
    };

    // The daemon's first request runs against an empty solve cache.
    let resp = c.roundtrip("{\"type\":\"evaluate\",\"id\":1,\"preset\":\"niagara2\"}");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert!(perf_u64(&resp, "solve_cache_misses") > 0, "{resp:?}");
    assert!(
        perf_u64(&resp, "allocs") > 0,
        "the mcpat binary must install the counting allocator: {resp:?}"
    );

    let ack = c.roundtrip("{\"type\":\"shutdown\",\"id\":2}");
    assert_eq!(status(&ack), "ok");
    assert!(child.0.wait().unwrap().success());
}

#[test]
fn shutdown_envelope_drains_and_run_returns() {
    let (handle, join) = start_server(2);
    let mut c = Client::connect(&handle);
    let ok = c.roundtrip("{\"type\":\"evaluate\",\"id\":1,\"preset\":\"alpha21364\"}");
    assert_eq!(status(&ok), "ok");

    let ack = c.roundtrip("{\"type\":\"shutdown\",\"id\":2}");
    assert_eq!(status(&ack), "ok");
    assert_eq!(ack.get("draining").and_then(Value::as_bool), Some(true));

    // run() returns: in-flight work was answered, the listener closed.
    join.join().unwrap();
    assert_eq!(handle.in_flight(), 0);
}

/// Polls `stats` until at least one `evaluate` holds an admission slot.
fn wait_for_admission(probe: &mut Client) {
    let t0 = Instant::now();
    loop {
        let stats = probe.roundtrip("{\"type\":\"stats\"}");
        let in_flight = stats
            .get("stats")
            .and_then(|s| s.get("server"))
            .and_then(|s| s.get("in_flight"))
            .and_then(Value::as_u64)
            .unwrap();
        if in_flight >= 1 {
            return;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the first request was never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The report without its `Build:` line, which records cache traffic
/// rather than the model.
fn model_lines(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.trim_start().starts_with("Build:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn an_unnamed_request_does_not_coalesce_with_a_named_one() {
    let _hold_lock = HOLD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = HoldReset;
    let (handle, join) = start_server(8);

    // Validation warns about an empty name only, so the two configs,
    // identical apart from the name, render different warning sets.
    // The clock alone leaves niagara's array solves unchanged; its own
    // temperature keeps this test from warming the other hold tests'
    // solves.
    let mut unnamed = distinct_config("", 1.23e9);
    unnamed.temperature_k = 350.0;
    let mut named = unnamed.clone();
    named.name = "herd-named".to_owned();
    mcpat_serve::set_eval_hold_ms(400);
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);
    let mut probe = Client::connect(&handle);
    a.send(&evaluate_line(&unnamed, 1));
    wait_for_admission(&mut probe);
    b.send(&evaluate_line(&named, 2));
    let resp_a = a.recv();
    let resp_b = b.recv();
    mcpat_serve::set_eval_hold_ms(0);
    assert_eq!(status(&resp_a), "ok", "{resp_a:?}");
    assert_eq!(status(&resp_b), "ok", "{resp_b:?}");
    assert!(!perf_bool(&resp_b, "coalesced"), "{resp_b:?}");

    for (resp, cfg) in [(&resp_a, &unnamed), (&resp_b, &named)] {
        let fresh = mcpat::Processor::build(cfg).unwrap().report();
        assert_eq!(
            model_lines(report(resp)),
            model_lines(&fresh),
            "`{}`: the served report differs from a fresh build",
            cfg.name
        );
    }

    handle.request_drain();
    join.join().unwrap();
}
