//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order.
//! Requests are parsed leniently through [`serde_json::Value`] so
//! optional fields (`id`, `deadline_ms`, `preset`) stay optional;
//! responses are rendered by hand so field presence is explicit and
//! the output is one stable line regardless of the vendored
//! serializer's conventions.
//!
//! Request envelopes:
//!
//! ```json
//! {"type":"evaluate","id":7,"preset":"tulsa","deadline_ms":500}
//! {"type":"evaluate","config":{...ProcessorConfig...}}
//! {"type":"stats"}
//! {"type":"ping"}
//! {"type":"shutdown"}
//! ```
//!
//! Response envelopes (`id` echoed when the request carried one):
//!
//! ```json
//! {"id":7,"status":"ok","type":"evaluate","report":"...","perf":{...}}
//! {"id":7,"status":"error","error":{"kind":"DeadlineExceeded","message":"..."},"perf":{...}}
//! {"status":"ok","type":"stats","stats":{"solve_cache":{...},"pool":{...},"server":{...}}}
//! ```
//!
//! `error.kind` is a closed vocabulary: `InvalidRequest` (malformed
//! envelope), `InvalidConfig`, `Infeasible`, `DeadlineExceeded`,
//! `Cancelled`, `MemoryBudget` (budget trips, named by
//! [`mcpat::guard::GuardError::kind`]), and `Overloaded` (admission
//! cap).

use mcpat::array::memo::SolveCacheStats;
use mcpat::par::pool::PoolStats;
use mcpat::ProcessorConfig;
use serde_json::Value;
use std::fmt::Write as _;

/// Upper bound on one buffered request line; a client that streams
/// more than this without a newline is answered with `InvalidRequest`
/// and disconnected (a config envelope is a few KiB).
pub const MAX_REQUEST_BYTES: usize = 4 << 20;

/// A parsed request envelope.
#[derive(Debug)]
pub enum Request {
    /// Build the configuration and return its report.
    Evaluate(Box<EvaluateRequest>),
    /// Cumulative cache/pool/server counters.
    Stats {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Ask the server to drain and exit (the wire analog of SIGTERM).
    Shutdown {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
    },
}

/// An `evaluate` request.
#[derive(Debug)]
pub struct EvaluateRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// The configuration to model.
    pub config: ProcessorConfig,
    /// Per-request build deadline, milliseconds.
    pub deadline_ms: Option<u64>,
}

/// A request that could not be parsed into a [`Request`].
#[derive(Debug)]
pub struct ProtoError {
    /// Correlation id, when the envelope got far enough to carry one.
    pub id: Option<u64>,
    /// Wire error kind: `InvalidRequest` or `InvalidConfig`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    fn request(id: Option<u64>, message: impl Into<String>) -> ProtoError {
        ProtoError {
            id,
            kind: "InvalidRequest",
            message: message.into(),
        }
    }

    fn config(id: Option<u64>, message: impl Into<String>) -> ProtoError {
        ProtoError {
            id,
            kind: "InvalidConfig",
            message: message.into(),
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`ProtoError`] with kind `InvalidRequest` for a malformed envelope
/// and `InvalidConfig` for a well-formed envelope whose configuration
/// (inline or preset) is unusable.
pub fn parse(line: &str) -> Result<Request, ProtoError> {
    let v: Value = serde_json::from_str(line)
        .map_err(|e| ProtoError::request(None, format!("not valid JSON: {e}")))?;
    if v.as_map().is_none() {
        return Err(ProtoError::request(None, "request must be a JSON object"));
    }
    let id = v.get("id").and_then(Value::as_u64);
    let Some(typ) = v.get("type").and_then(Value::as_str) else {
        return Err(ProtoError::request(id, "missing `type` field"));
    };
    match typ {
        "evaluate" => {
            let deadline_ms = match v.get("deadline_ms") {
                None => None,
                Some(d) => Some(d.as_u64().ok_or_else(|| {
                    ProtoError::request(id, "`deadline_ms` must be a non-negative integer")
                })?),
            };
            let config = match (v.get("config"), v.get("preset")) {
                (Some(_), Some(_)) => {
                    return Err(ProtoError::request(
                        id,
                        "give `config` or `preset`, not both",
                    ));
                }
                (None, None) => {
                    return Err(ProtoError::request(
                        id,
                        "evaluate needs a `config` object or a `preset` name",
                    ));
                }
                (Some(c), None) => {
                    serde_json::from_value::<ProcessorConfig>(c.clone()).map_err(|e| {
                        ProtoError::config(
                            id,
                            format!("`config` is not a valid processor config: {e}"),
                        )
                    })?
                }
                (None, Some(p)) => {
                    let name = p
                        .as_str()
                        .ok_or_else(|| ProtoError::request(id, "`preset` must be a string"))?;
                    crate::preset(name)
                        .ok_or_else(|| ProtoError::config(id, format!("unknown preset `{name}`")))?
                }
            };
            Ok(Request::Evaluate(Box::new(EvaluateRequest {
                id,
                config,
                deadline_ms,
            })))
        }
        "stats" => Ok(Request::Stats { id }),
        "ping" => Ok(Request::Ping { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(ProtoError::request(
            id,
            format!("unknown request type `{other}`"),
        )),
    }
}

/// Per-request billing, returned in the `perf` field of an `evaluate`
/// response (success or typed failure): exactly the work this request
/// caused, observed by its own scoped collector.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestPerf {
    /// Wall-clock time spent serving the request, milliseconds.
    pub wall_ms: f64,
    /// This request ran the chip build itself.
    pub built: bool,
    /// This request coalesced onto another request's identical
    /// in-flight build instead of duplicating it.
    pub coalesced: bool,
    /// Solve-cache hits billed to this request.
    pub solve_cache_hits: u64,
    /// Solve-cache misses (full solves) billed to this request.
    pub solve_cache_misses: u64,
    /// Cache evictions observed while this request was active.
    pub solve_cache_evictions: u64,
    /// Pool tasks submitted by this request.
    pub pool_submitted: u64,
    /// Pool tasks of this request stolen by other workers.
    pub pool_steals: u64,
    /// Closures this request ran inline instead of submitting.
    pub pool_inline: u64,
    /// Heap allocations billed to this request (0 unless the binary
    /// installs `mcpat::obs::CountingAlloc`; the `mcpat` binary does).
    pub allocs: u64,
}

/// The server-side counters reported by a `stats` response.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStatsView {
    /// Requests received (any type, including rejected ones).
    pub requests: u64,
    /// Requests answered `"status":"ok"`.
    pub ok: u64,
    /// Requests answered `"status":"error"` (all kinds).
    pub errors: u64,
    /// Evaluations rejected at the admission cap.
    pub overloaded: u64,
    /// Evaluations that tripped their own deadline.
    pub deadline_exceeded: u64,
    /// Evaluations that coalesced onto an identical in-flight build.
    pub coalesced_requests: u64,
    /// Evaluations currently admitted and running.
    pub in_flight: u64,
    /// The admission cap (0 = unbounded).
    pub max_inflight: u64,
    /// Whether the server is draining.
    pub draining: bool,
}

/// Appends a JSON string literal (quoted, escaped) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends the leading `"id":N,` when the request carried an id.
fn push_id(out: &mut String, id: Option<u64>) {
    if let Some(id) = id {
        let _ = write!(out, "\"id\":{id},");
    }
}

/// Renders a finite, non-negative JSON number from an `f64` ratio;
/// non-finite values (which the guarded stat constructors never
/// produce) degrade to `0` rather than emitting invalid JSON.
fn push_ratio(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

fn push_perf(out: &mut String, p: &RequestPerf) {
    let _ = write!(
        out,
        "{{\"wall_ms\":{:.3},\"built\":{},\"coalesced\":{},\
         \"solve_cache_hits\":{},\"solve_cache_misses\":{},\
         \"solve_cache_evictions\":{},\
         \"pool_submitted\":{},\"pool_steals\":{},\"pool_inline\":{},\
         \"allocs\":{}}}",
        p.wall_ms,
        p.built,
        p.coalesced,
        p.solve_cache_hits,
        p.solve_cache_misses,
        p.solve_cache_evictions,
        p.pool_submitted,
        p.pool_steals,
        p.pool_inline,
        p.allocs,
    );
}

/// A successful `evaluate` response. The `report` field is exactly the
/// text the one-shot CLI prints for the same configuration.
#[must_use]
pub fn evaluate_response(id: Option<u64>, report: &str, perf: &RequestPerf) -> String {
    let mut out = String::with_capacity(report.len() + 320);
    out.push('{');
    push_id(&mut out, id);
    out.push_str("\"status\":\"ok\",\"type\":\"evaluate\",\"report\":");
    push_json_str(&mut out, report);
    out.push_str(",\"perf\":");
    push_perf(&mut out, perf);
    out.push('}');
    out
}

/// A typed error response; `perf` is attached when the request got far
/// enough to be billed (admitted evaluations).
#[must_use]
pub fn error_response(
    id: Option<u64>,
    kind: &str,
    message: &str,
    perf: Option<&RequestPerf>,
) -> String {
    let mut out = String::with_capacity(message.len() + 256);
    out.push('{');
    push_id(&mut out, id);
    out.push_str("\"status\":\"error\",\"error\":{\"kind\":");
    push_json_str(&mut out, kind);
    out.push_str(",\"message\":");
    push_json_str(&mut out, message);
    out.push('}');
    if let Some(p) = perf {
        out.push_str(",\"perf\":");
        push_perf(&mut out, p);
    }
    out.push('}');
    out
}

/// A `ping` response.
#[must_use]
pub fn pong_response(id: Option<u64>) -> String {
    let mut out = String::from("{");
    push_id(&mut out, id);
    out.push_str("\"status\":\"ok\",\"type\":\"pong\"}");
    out
}

/// A `shutdown` acknowledgment; the server drains after sending it.
#[must_use]
pub fn shutdown_response(id: Option<u64>) -> String {
    let mut out = String::from("{");
    push_id(&mut out, id);
    out.push_str("\"status\":\"ok\",\"type\":\"shutdown\",\"draining\":true}");
    out
}

/// A `stats` response: cumulative solve-cache, pool, and server
/// counters. The hit rate comes from
/// [`SolveCacheStats::hit_rate`], which is `0.0` (not NaN) when no
/// lookups have occurred.
#[must_use]
pub fn stats_response(
    id: Option<u64>,
    cache: &SolveCacheStats,
    pool: &PoolStats,
    server: &ServerStatsView,
) -> String {
    let mut out = String::with_capacity(512);
    out.push('{');
    push_id(&mut out, id);
    out.push_str("\"status\":\"ok\",\"type\":\"stats\",\"stats\":{");
    let _ = write!(
        out,
        "\"solve_cache\":{{\"hits\":{},\"misses\":{},\
         \"entries\":{},\"evictions\":{},\"bytes\":{},\"lookups\":{},\"hit_rate\":",
        cache.hits,
        cache.misses,
        cache.entries,
        cache.evictions,
        cache.bytes,
        cache.lookups(),
    );
    push_ratio(&mut out, cache.hit_rate());
    let _ = write!(
        out,
        "}},\"pool\":{{\"workers\":{},\"submitted\":{},\"steals\":{},\
         \"inline_execs\":{},\"workers_respawned\":{}}}",
        pool.workers, pool.submitted, pool.steals, pool.inline_execs, pool.workers_respawned,
    );
    let _ = write!(
        out,
        ",\"server\":{{\"requests\":{},\"ok\":{},\"errors\":{},\
         \"overloaded\":{},\"deadline_exceeded\":{},\"coalesced_requests\":{},\
         \"in_flight\":{},\"max_inflight\":{},\"draining\":{}}}",
        server.requests,
        server.ok,
        server.errors,
        server.overloaded,
        server.deadline_exceeded,
        server.coalesced_requests,
        server.in_flight,
        server.max_inflight,
        server.draining,
    );
    out.push_str("}}");
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_malformed_envelopes_with_typed_kinds() {
        assert_eq!(parse("not json").unwrap_err().kind, "InvalidRequest");
        assert_eq!(parse("[1,2]").unwrap_err().kind, "InvalidRequest");
        assert_eq!(parse("{\"id\":3}").unwrap_err().id, Some(3));
        assert_eq!(
            parse("{\"type\":\"evaluate\"}").unwrap_err().kind,
            "InvalidRequest"
        );
        assert_eq!(
            parse("{\"type\":\"evaluate\",\"preset\":\"no-such\"}")
                .unwrap_err()
                .kind,
            "InvalidConfig"
        );
        assert_eq!(
            parse("{\"type\":\"evaluate\",\"preset\":\"tulsa\",\"deadline_ms\":-1}")
                .unwrap_err()
                .kind,
            "InvalidRequest"
        );
        assert_eq!(
            parse("{\"type\":\"warp\"}").unwrap_err().message,
            "unknown request type `warp`"
        );
    }

    #[test]
    fn parse_accepts_presets_and_round_trips_configs() {
        let r =
            parse("{\"type\":\"evaluate\",\"id\":9,\"preset\":\"niagara\",\"deadline_ms\":250}")
                .unwrap();
        let Request::Evaluate(e) = r else {
            panic!("expected evaluate")
        };
        assert_eq!(e.id, Some(9));
        assert_eq!(e.deadline_ms, Some(250));
        assert_eq!(e.config.name, ProcessorConfig::niagara().name);

        let cfg = ProcessorConfig::tulsa();
        let line = format!(
            "{{\"type\":\"evaluate\",\"config\":{}}}",
            serde_json::to_string(&cfg).unwrap()
        );
        let Request::Evaluate(e) = parse(&line).unwrap() else {
            panic!("expected evaluate")
        };
        assert_eq!(e.config, cfg);
        assert!(matches!(
            parse("{\"type\":\"stats\"}").unwrap(),
            Request::Stats { id: None }
        ));
        assert!(matches!(
            parse("{\"type\":\"shutdown\",\"id\":1}").unwrap(),
            Request::Shutdown { id: Some(1) }
        ));
    }

    #[test]
    fn responses_are_single_line_json_with_escaped_reports() {
        let perf = RequestPerf {
            wall_ms: 1.25,
            built: true,
            ..RequestPerf::default()
        };
        let line = evaluate_response(Some(4), "two\nlines \"quoted\"", &perf);
        assert!(!line.contains('\n'), "{line}");
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            v.get("report").and_then(Value::as_str),
            Some("two\nlines \"quoted\"")
        );
        let p = v.get("perf").unwrap();
        assert_eq!(p.get("built").and_then(Value::as_bool), Some(true));
        assert_eq!(p.get("solve_cache_misses").and_then(Value::as_u64), Some(0));

        let err = error_response(None, "Overloaded", "cap", None);
        let v: Value = serde_json::from_str(&err).unwrap();
        assert!(v.get("id").is_none());
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("Overloaded")
        );
    }

    #[test]
    fn stats_response_is_well_defined_with_zero_lookups() {
        // The empty-cache path: no lookups at all must render a finite
        // hit_rate of 0, never NaN (which is not even valid JSON).
        let cache = SolveCacheStats::default();
        assert_eq!(cache.lookups(), 0);
        let line = stats_response(
            None,
            &cache,
            &PoolStats::default(),
            &ServerStatsView::default(),
        );
        let v: Value = serde_json::from_str(&line).unwrap();
        let sc = v.get("stats").and_then(|s| s.get("solve_cache")).unwrap();
        assert_eq!(
            sc.get("hit_rate").and_then(Value::as_f64).map(f64::to_bits),
            Some(0.0f64.to_bits())
        );
        assert_eq!(sc.get("lookups").and_then(Value::as_u64), Some(0));
        let srv = v.get("stats").and_then(|s| s.get("server")).unwrap();
        assert_eq!(srv.get("draining").and_then(Value::as_bool), Some(false));
    }
}
