//! `serve_mixed`: two long-lived loopback connections to an in-process
//! `mcpat_serve::Server`, each a closed loop, sending a seeded mix of
//! warm, cold and paired (coalescing) evaluations (see README.md for why
//! this workload exists).

use crate::eval_cold;
use crate::measure::{
    self, median, percentile, rng_at, secs, unique_temperature, Digest, HostIndex, Metrics,
    OpSample, Slice, Timed,
};
use crate::Outcome;
use mcpat::array::memo;
use mcpat::{Processor, ProcessorConfig};
use mcpat_serve::proto::{self, RequestPerf};
use mcpat_serve::{ServeOptions, Server, ServerHandle};
use serde_json::Value;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connections, each driven by its own client thread (at most `nproc`
/// on the 2-core reference host).
const CLIENTS: usize = 2;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Every `PAIR_EVERY`-th request index is a pair (10%); of the others,
/// 2 in 9 are cold (20% overall) and the rest warm (70%). The cold and
/// paired share (30%) keeps p50 inside the warm mode and p90 inside the
/// cold mode.
const PAIR_EVERY: u64 = 10;

/// Inline manycore configurations in the warm pool, beside the four
/// presets.
const WARM_INLINE: usize = 8;

/// A quarter of the requests carry this generous deadline, so the
/// budget path runs but never trips.
const DEADLINE_MS: u64 = 10_000;

/// One response in this many is kept and checked against an in-process
/// build after the timed phase.
const SAMPLE_EVERY: u64 = 97;

/// At most this many responses are kept per connection.
const KEPT_PER_CLIENT: usize = 100;

/// Requests replayed on one connection after the timed phase; their
/// digest is printed.
const VERIFY_REQUESTS: u64 = 32;

/// The traced phase starts its request indices here, so its cold
/// requests get temperatures no untraced request used.
const TRACED_FROM: u64 = 1 << 30;

/// Host-index readings taken on each side of a phase.
const SERVE_READINGS: u64 = 8;

/// A client gives up on a silent server after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Generator streams.
const PAIR_STREAM: u64 = 10;
const CLIENT_STREAM: u64 = 11;

/// The temperature that marks where a serialized config is split into a
/// template (exactly representable, so it prints as written).
const TEMPLATE_TEMP: f64 = 333.125;

/// Request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Warm,
    Cold,
    Pair,
}

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Entry of the warm pool.
    Warm(usize),
    /// A cold base at a fresh temperature index.
    Cold { base: usize, temp: u64 },
    /// Like `Cold`, sent by both connections at once.
    Pair { base: usize, temp: u64 },
}

impl Op {
    #[must_use]
    pub fn class(self) -> Class {
        match self {
            Op::Warm(_) => Class::Warm,
            Op::Cold { .. } => Class::Cold,
            Op::Pair { .. } => Class::Pair,
        }
    }
}

/// A cold base serialized once, split around its temperature.
struct Template {
    prefix: String,
    suffix: String,
    cfg: ProcessorConfig,
}

/// Seeded request inputs.
pub struct Inputs {
    seed: u64,
    /// `(request fragment, config)`: presets by name, then inline configs.
    warm: Vec<(String, ProcessorConfig)>,
    cold: Vec<Template>,
}

impl Inputs {
    /// # Errors
    ///
    /// A configuration that does not serialize into a template.
    pub fn new(seed: u64) -> Result<Inputs, String> {
        let bases: Vec<ProcessorConfig> = eval_cold::bases().into_iter().map(|b| b.cfg).collect();
        let mut warm: Vec<(String, ProcessorConfig)> =
            ["niagara", "niagara2", "alpha21364", "tulsa"]
                .iter()
                .filter_map(|&name| {
                    mcpat_serve::preset(name).map(|c| (format!("\"preset\":\"{name}\""), c))
                })
                .collect();
        let stride = (bases.len() - 4) / WARM_INLINE;
        for cfg in bases.iter().skip(4).step_by(stride).take(WARM_INLINE) {
            let json = serde_json::to_string(cfg).map_err(|e| e.to_string())?;
            warm.push((format!("\"config\":{json}"), cfg.clone()));
        }
        let cold = bases
            .into_iter()
            .map(|cfg| {
                let mut marked = cfg.clone();
                marked.temperature_k = TEMPLATE_TEMP;
                let json = serde_json::to_string(&marked).map_err(|e| e.to_string())?;
                let mark = format!("\"temperature_k\":{TEMPLATE_TEMP}");
                let Some((prefix, suffix)) = json
                    .split_once(&mark)
                    .filter(|_| json.matches(&mark).count() == 1)
                else {
                    return Err(format!("{}: no unique temperature in its JSON", cfg.name));
                };
                Ok(Template {
                    prefix: format!("{prefix}\"temperature_k\":"),
                    suffix: suffix.to_owned(),
                    cfg,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Inputs { seed, warm, cold })
    }

    /// Request `k` of connection `client`, and whether it carries a
    /// deadline. Pair indices are the same for both connections.
    #[must_use]
    pub fn op_at(&self, k: u64, client: usize) -> (Op, bool) {
        if k % PAIR_EVERY == PAIR_EVERY - 1 {
            let mut r = rng_at(self.seed, PAIR_STREAM, k);
            let op = Op::Pair {
                base: r.below(self.cold.len()),
                temp: 2 * k,
            };
            return (op, r.below(4) == 0);
        }
        let mut r = rng_at(self.seed, CLIENT_STREAM + client as u64, k);
        let op = if r.below(9) < 2 {
            Op::Cold {
                base: r.below(self.cold.len()),
                temp: 2 * k + client as u64,
            }
        } else {
            Op::Warm(r.below(self.warm.len()))
        };
        (op, r.below(4) == 0)
    }

    /// The request line (without its newline).
    #[must_use]
    pub fn line(&self, k: u64, op: Op, deadline: bool) -> String {
        let mut s = String::with_capacity(4096);
        let _ = write!(s, "{{\"type\":\"evaluate\",\"id\":{k},");
        if deadline {
            let _ = write!(s, "\"deadline_ms\":{DEADLINE_MS},");
        }
        match op {
            Op::Warm(i) => s.push_str(&self.warm[i].0),
            Op::Cold { base, temp } | Op::Pair { base, temp } => {
                let t = &self.cold[base];
                s.push_str("\"config\":");
                s.push_str(&t.prefix);
                let _ = write!(s, "{}", unique_temperature(self.seed, temp));
                s.push_str(&t.suffix);
            }
        }
        s.push('}');
        s
    }

    /// The configuration `op` describes, for in-process comparison.
    #[must_use]
    pub fn config(&self, op: Op) -> ProcessorConfig {
        match op {
            Op::Warm(i) => self.warm[i].1.clone(),
            Op::Cold { base, temp } | Op::Pair { base, temp } => {
                let mut cfg = self.cold[base].cfg.clone();
                cfg.temperature_k = unique_temperature(self.seed, temp);
                cfg
            }
        }
    }
}

/// The number after `tag` in `s`, up to the next character that cannot
/// be part of it.
fn number_after(s: &str, tag: &str) -> Option<f64> {
    let rest = &s[s.find(tag)? + tag.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Checks a successful response's model outputs: die area and peak
/// power as printed in the report must be finite and positive.
///
/// # Errors
///
/// The offending values.
pub fn check_outputs(response: &str) -> Result<(), String> {
    let area = number_after(response, "Die area: ").unwrap_or(f64::NAN);
    let power = number_after(response, "Peak power: ").unwrap_or(f64::NAN);
    if measure::positive(area) && measure::positive(power) {
        Ok(())
    } else {
        Err(format!(
            "serve response with area {area} mm^2, power {power} W"
        ))
    }
}

/// The server-side billing of one response (its `perf` envelope).
#[derive(Debug, Clone, Copy, Default)]
struct Perf {
    server_ms: f64,
    coalesced: bool,
    hits: f64,
    misses: f64,
    submitted: f64,
    inline: f64,
}

fn parse_perf(response: &str) -> Option<Perf> {
    let tail = &response[response.rfind("\"perf\":")?..];
    Some(Perf {
        server_ms: number_after(tail, "\"wall_ms\":")?,
        coalesced: tail.contains("\"coalesced\":true"),
        hits: number_after(tail, "\"solve_cache_hits\":")?,
        misses: number_after(tail, "\"solve_cache_misses\":")?,
        submitted: number_after(tail, "\"pool_submitted\":")?,
        inline: number_after(tail, "\"pool_inline\":")?,
    })
}

/// A successful request of the traced phase: class, client round trip
/// (ms) and the server's billing.
struct TracedSample {
    class: Class,
    ms: f64,
    perf: Perf,
}

/// What one client thread saw. The untraced phase keeps only
/// fixed-size samples and a bounded set of responses, so the
/// benchmark's own bookkeeping adds little to `peak_rss_mb`.
#[derive(Default)]
struct ClientOut {
    samples: Vec<OpSample>,
    traced: Vec<TracedSample>,
    kept: Vec<(Op, String)>,
    mismatches: Vec<String>,
}

/// The meeting point both clients reach before each pair. The stop
/// decision is taken once per meeting, so both clients leave the loop at
/// the same request index and neither waits for a partner that left.
struct Rendezvous {
    state: Mutex<(u64, usize, bool)>,
    cv: Condvar,
    deadline: Instant,
}

impl Rendezvous {
    fn new(deadline: Instant) -> Rendezvous {
        Rendezvous {
            state: Mutex::new((0, 0, false)),
            cv: Condvar::new(),
            deadline,
        }
    }

    /// Waits for the other client; true when the phase is over.
    fn meet(&self) -> bool {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (generation, broken) = (st.0, st.0 == u64::MAX);
        if broken {
            return true;
        }
        st.1 += 1;
        if st.1 == CLIENTS {
            st.1 = 0;
            st.0 += 1;
            st.2 = Instant::now() >= self.deadline;
            self.cv.notify_all();
            return st.2;
        }
        while st.0 == generation {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.0 == u64::MAX || st.2
    }

    /// Releases the partner of a client that failed.
    fn abandon(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.0 = u64::MAX;
        self.cv.notify_all();
    }
}

/// One request/response round trip.
fn round_trip(
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
    out: &mut String,
) -> io::Result<()> {
    conn.write_all(line.as_bytes())?;
    conn.write_all(b"\n")?;
    out.clear();
    if reader.read_line(out)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(())
}

/// The closed loop of one connection, from request index `from` until
/// the rendezvous says stop.
fn client(
    inputs: &Inputs,
    c: usize,
    conn: &TcpStream,
    from: u64,
    rv: &Rendezvous,
    start: Instant,
    traced: bool,
) -> io::Result<ClientOut> {
    let mut conn = conn.try_clone()?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut out = ClientOut::default();
    let mut resp = String::new();
    let mut k = from;
    loop {
        let (op, deadline) = inputs.op_at(k, c);
        if op.class() == Class::Pair && rv.meet() {
            break;
        }
        let line = inputs.line(k, op, deadline);
        let ok_prefix = format!("{{\"id\":{k},\"status\":\"ok\"");
        let t0 = Instant::now();
        round_trip(&mut conn, &mut reader, &line, &mut resp)?;
        let ok = resp.starts_with(&ok_prefix);
        let sample = OpSample::now(start, t0, ok.then_some(1.0));
        out.samples.push(sample);
        if ok {
            if let Err(e) = check_outputs(&resp) {
                out.mismatches.push(format!("request {k}: {e}"));
            }
            if (k + c as u64).is_multiple_of(SAMPLE_EVERY) && out.kept.len() < KEPT_PER_CLIENT {
                out.kept.push((op, resp.trim_end().to_owned()));
            }
            if let Some(perf) = traced.then(|| parse_perf(&resp)).flatten() {
                out.traced.push(TracedSample {
                    class: op.class(),
                    ms: sample.ms,
                    perf,
                });
            }
        } else {
            eprintln!("serve_mixed: request {k} failed: {}", resp.trim_end());
        }
        k += 1;
    }
    Ok(out)
}

/// A running server with its client connections.
struct Running {
    handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
    conns: Vec<TcpStream>,
}

impl Running {
    /// Binds, connects the clients, and starts the accept loop. The
    /// clients connect before the loop starts, so their handshakes wait
    /// in the listen backlog and the first accepts find them without the
    /// loop's idle poll.
    fn start() -> io::Result<Running> {
        let server = Server::bind("127.0.0.1:0", &ServeOptions::default())?;
        let handle = server.handle();
        let conns = (0..CLIENTS)
            .map(|_| {
                let conn = TcpStream::connect(handle.addr())?;
                conn.set_nodelay(true)?;
                conn.set_read_timeout(Some(READ_TIMEOUT))?;
                Ok(conn)
            })
            .collect::<io::Result<Vec<_>>>()?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            handle,
            thread,
            conns,
        })
    }

    /// One request on connection 0, outside any timed phase.
    fn request(&self, line: &str) -> Result<String, String> {
        let mut conn = self.conns[0].try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        let mut out = String::new();
        round_trip(&mut conn, &mut reader, line, &mut out).map_err(|e| e.to_string())?;
        Ok(out.trim_end().to_owned())
    }

    /// Drains the server, closes the connections and joins the accept
    /// loop (which joins every connection thread).
    fn stop(self) -> Result<(), String> {
        self.handle.request_drain();
        drop(self.conns);
        match self.thread.join() {
            Ok(r) => r.map_err(|e| format!("serve: {e}")),
            Err(_) => Err("serve: accept loop panicked".to_owned()),
        }
    }
}

/// Set-up: bind and start until each connection's first `ping` is
/// answered, then one warm-up evaluate per warm-pool entry (the four
/// presets and the inline pool), from an empty solve cache. Repeated;
/// the last server stays up for the timed phase.
fn setup(inputs: &Inputs) -> Result<(Running, f64), String> {
    let mut samples = Vec::new();
    let mut last: Option<Running> = None;
    for _ in 0..SETUP_REPS {
        if let Some(r) = last.take() {
            r.stop()?;
        }
        memo::clear();
        let t = Instant::now();
        let r = Running::start().map_err(|e| format!("serve start: {e}"))?;
        for c in 0..CLIENTS {
            let mut conn = r.conns[c].try_clone().map_err(|e| e.to_string())?;
            let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
            let mut out = String::new();
            round_trip(&mut conn, &mut reader, "{\"type\":\"ping\"}", &mut out)
                .map_err(|e| format!("ping: {e}"))?;
            if !out.contains("\"pong\"") {
                return Err(format!("ping answered with {out}"));
            }
        }
        for (i, (fragment, _)) in inputs.warm.iter().enumerate() {
            let resp = r.request(&format!("{{\"type\":\"evaluate\",\"id\":{i},{fragment}}}"))?;
            if !resp.contains("\"status\":\"ok\"") {
                return Err(format!("warm-up evaluate failed: {resp}"));
            }
        }
        samples.push(secs(t));
        last = Some(r);
    }
    let running = last.ok_or("no set-up repetition ran")?;
    Ok((running, median(&samples)))
}

/// Runs both clients for `seconds` from request index `from`.
fn phase(
    inputs: &Inputs,
    running: &Running,
    from: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Timed, Vec<ClientOut>), String> {
    // Two clients cannot both pause between slices without a barrier, so
    // the phase is one slice, with the host index read several times
    // before and after it.
    let host = HostIndex::default();
    let readings = |salt: u64| {
        median(
            &(0..SERVE_READINGS)
                .map(|k| host.measure(salt + k))
                .collect::<Vec<_>>(),
        )
    };
    let before = readings(0);
    let start = Instant::now();
    let (cpu0, steal0) = (measure::process_cpu_s(), measure::steal_ticks());
    let rv = Rendezvous::new(start + Duration::from_secs_f64(seconds));
    let results: Vec<io::Result<ClientOut>> = std::thread::scope(|s| {
        let rv = &rv;
        let handles: Vec<_> = running
            .conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let r = client(inputs, c, conn, from, rv, start, traced);
                    if r.is_err() {
                        rv.abandon();
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client panicked")))
            })
            .collect()
    });
    let (end_s, cpu_s) = (secs(start), measure::process_cpu_s() - cpu0);
    let steal = measure::steal_share(steal0, measure::steal_ticks());
    let slice = Slice {
        start_s: 0.0,
        end_s,
        cpu_s,
        index: (before * readings(SERVE_READINGS)).sqrt(),
        steal,
    };
    let mut t = Timed {
        slices: vec![slice],
        ..Timed::default()
    };
    let mut outs = Vec::new();
    for r in results {
        let mut out = r.map_err(|e| format!("serve client: {e}"))?;
        for s in out.samples.drain(..) {
            t.push(s);
        }
        outs.push(out);
    }
    Ok((t, outs))
}

/// Compares a daemon response with an in-process build of the same
/// configuration.
///
/// # Errors
///
/// Any difference in the model text or in the solve-cache lookups.
pub fn compare_response(inputs: &Inputs, op: Op, response: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(response).map_err(|e| format!("response: {e}"))?;
    let report = v
        .get("report")
        .and_then(Value::as_str)
        .ok_or("response without a report")?;
    let local = Processor::build(&inputs.config(op))
        .map_err(|e| format!("in-process build: {e}"))?
        .report();
    measure::compare_reports(&format!("serve {op:?}"), report, &local)
}

/// Checks the kept responses, then replays a fixed request prefix on one
/// connection and returns the digest of its model text.
fn verify(
    inputs: &Inputs,
    running: &Running,
    outs: &[ClientOut],
    mismatches: &mut Vec<String>,
) -> Result<u64, String> {
    for out in outs {
        mismatches.extend(out.mismatches.iter().cloned());
        for (op, resp) in &out.kept {
            if let Err(e) = compare_response(inputs, *op, resp) {
                mismatches.push(e);
            }
        }
    }
    let mut d = Digest::default();
    for k in 0..VERIFY_REQUESTS {
        let (op, deadline) = inputs.op_at(k, 0);
        let resp = running.request(&inputs.line(k, op, deadline))?;
        if let Err(e) = compare_response(inputs, op, &resp) {
            mismatches.push(e);
        }
        let v: Value = serde_json::from_str(&resp).map_err(|e| format!("response: {e}"))?;
        let report = v.get("report").and_then(Value::as_str).unwrap_or("");
        d.bytes(measure::model_text(report).as_bytes());
    }
    Ok(d.value())
}

/// `(overloaded, deadline_exceeded)` from the daemon's `stats`.
fn server_counters(running: &Running) -> Result<(u64, u64), String> {
    let resp = running.request("{\"type\":\"stats\"}")?;
    let v: Value = serde_json::from_str(&resp).map_err(|e| format!("stats: {e}"))?;
    let server = v
        .get("stats")
        .and_then(|s| s.get("server"))
        .ok_or("stats without server counters")?;
    let count = |k: &str| server.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
    Ok((count("overloaded"), count("deadline_exceeded")))
}

/// The untraced run.
///
/// # Errors
///
/// A set-up, connection or server failure.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = Inputs::new(seed)?;
    let (running, setup_s) = setup(&inputs)?;
    let (t, outs) = phase(&inputs, &running, 0, seconds, false)?;
    let mut mismatches = Vec::new();
    let digest = verify(&inputs, &running, &outs, &mut mismatches)?;
    running.stop()?;
    Ok(Outcome {
        attempted: t.attempted(),
        failed: t.failed,
        metrics: measure::end_to_end(setup_s, &t, measure::model_err_pct()?),
        mismatches,
        digests: vec![("serve_mixed", digest)],
        notes: vec![measure::host_note("serve_mixed", &t)],
    })
}

/// `f` of each traced sample matching `class` (all when `None`).
fn per_class(
    samples: &[&TracedSample],
    class: Option<Class>,
    f: impl Fn(&TracedSample) -> f64,
) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| class.is_none_or(|c| s.class == c))
        .map(|s| f(s))
        .collect()
}

/// The traced run: an untraced phase for half the time, then a phase
/// that reads every response's `perf` envelope, then bench-side timing
/// of the protocol's parse and render calls.
///
/// # Errors
///
/// A set-up, connection or server failure.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = Inputs::new(seed)?;
    let (running, _) = setup(&inputs)?;
    let (untraced, outs_u) = phase(&inputs, &running, 0, seconds / 2.0, false)?;
    let (traced, outs_t) = phase(&inputs, &running, TRACED_FROM, seconds / 2.0, true)?;
    let (overloaded, deadline_exceeded) = server_counters(&running)?;
    let mut mismatches = Vec::new();
    for outs in [&outs_u, &outs_t] {
        verify(&inputs, &running, outs, &mut mismatches)?;
    }
    running.stop()?;

    let samples: Vec<&TracedSample> = outs_t.iter().flat_map(|o| o.traced.iter()).collect();
    let n = samples.len().max(1) as f64;
    let total = |f: fn(&Perf) -> f64| samples.iter().map(|s| f(&s.perf)).sum::<f64>();

    let lines: Vec<String> = (0..256)
        .map(|k| {
            let (op, deadline) = inputs.op_at(k, (k % 2) as usize);
            inputs.line(k, op, deadline)
        })
        .collect();
    let parse_us: Vec<f64> = lines
        .iter()
        .map(|l| measure::time_us(|| proto::parse(l).is_ok()).1)
        .collect();
    let reports: Vec<String> = outs_t
        .iter()
        .flat_map(|o| o.kept.iter())
        .filter_map(|(_, resp)| {
            let v: Value = serde_json::from_str(resp).ok()?;
            v.get("report").and_then(Value::as_str).map(str::to_owned)
        })
        .collect();
    let render_us: Vec<f64> = reports
        .iter()
        .map(|r| {
            measure::time_us(|| proto::evaluate_response(Some(7), r, &RequestPerf::default())).1
        })
        .collect();

    let untraced_p50 = percentile(&untraced.sorted_latencies(), 0.5);
    let traced_p50 = percentile(&traced.sorted_latencies(), 0.5);
    let mut m = Metrics::default();
    let classes = [
        ("", None),
        (".warm", Some(Class::Warm)),
        (".cold", Some(Class::Cold)),
        (".pair", Some(Class::Pair)),
    ];
    // The envelope rounds `wall_ms` to the microsecond, so a median of it
    // would repeat exactly from run to run; report its mean.
    for (suffix, class) in classes {
        m.push(
            format!("serve.server_ms{suffix}"),
            measure::mean(&per_class(&samples, class, |s| s.perf.server_ms)),
            "ms",
        );
    }
    for (suffix, class) in classes {
        m.push(
            format!("serve.wire_ms{suffix}"),
            median(&per_class(&samples, class, |s| s.ms - s.perf.server_ms)),
            "ms",
        );
    }
    m.push("serve.parse_us", median(&parse_us), "us");
    m.push("serve.render_us", median(&render_us), "us");
    m.push(
        "serve.coalesced_ratio",
        total(|p| f64::from(u8::from(p.coalesced))) / n,
        "ratio",
    );
    m.push("serve.hits_per_request", total(|p| p.hits) / n, "count");
    m.push("serve.misses_per_request", total(|p| p.misses) / n, "count");
    m.push(
        "serve.pool_submitted_per_request",
        total(|p| p.submitted) / n,
        "count",
    );
    m.push(
        "serve.pool_inline_per_request",
        total(|p| p.inline) / n,
        "count",
    );
    m.push("serve.overloaded", overloaded as f64, "count");
    m.push("serve.deadline_exceeded", deadline_exceeded as f64, "count");
    m.push("serve_mixed.untraced_p50_ms", untraced_p50, "ms");
    m.push("serve_mixed.traced_p50_ms", traced_p50, "ms");
    m.push(
        "serve_mixed.trace_overhead_ratio",
        traced_p50 / untraced_p50,
        "ratio",
    );
    Ok(Outcome {
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed + traced.failed,
        metrics: m,
        mismatches,
        digests: Vec::new(),
        notes: Vec::new(),
    })
}
