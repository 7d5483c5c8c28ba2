//! The TCP server: admission, per-request governance and billing,
//! build coalescing, and drain.
//!
//! One thread per connection; requests on a connection are answered in
//! order (clients wanting concurrency open multiple connections, the
//! natural shape for a line-delimited protocol). The accept loop and
//! every connection's read loop poll with short timeouts so a drain
//! request — from SIGTERM via [`crate::request_drain`] or from a
//! `shutdown` envelope — is observed within tens of milliseconds:
//! in-flight requests finish and are answered, idle connections close,
//! and [`Server::run`] returns.
//!
//! **Coalescing.** Two concurrent `evaluate` requests whose configs
//! differ only in `name` are the same model; the second parks on the
//! first's in-flight build (the DSE engine's dedupe identity) and
//! re-labels a clone of the shared chip. The coalesce map holds the
//! canonical config JSON (name cleared, but whether it was empty kept)
//! — never a lock across the build itself.

use crate::proto::{self, EvaluateRequest, Request, RequestPerf, ServerStatsView};
use mcpat::guard::Budget;
use mcpat::obs::Collector;
use mcpat::{AtPath, McpatError, Processor, ProcessorConfig};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Read timeout per connection: the cadence at which an idle
/// connection notices a drain request.
const READ_POLL: Duration = Duration::from_millis(50);

/// Accept-loop poll cadence while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Heartbeat for requests parked on a coalesced in-flight build —
/// bounds both a missed wake-up and the latency of a waiter's own
/// budget check.
const WAIT_POLL: Duration = Duration::from_millis(10);

/// The default admission cap: far above a workstation's parallelism so
/// legitimate bursts pass, yet bounded, so a runaway client sees a
/// typed `Overloaded` instead of piling unbounded work onto the pool.
const DEFAULT_MAX_INFLIGHT: usize = 64;

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Maximum concurrently admitted `evaluate` requests; further ones
    /// are answered with a typed `Overloaded` error immediately
    /// (0 = unbounded). Defaults to 64; `mcpat serve --max-inflight`
    /// sets it.
    pub max_inflight: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_inflight: DEFAULT_MAX_INFLIGHT,
        }
    }
}

/// Monotonic server counters, exposed by the `stats` request.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    coalesced_requests: AtomicU64,
}

/// One in-flight coalesced build: the outcome slot and the condvar
/// waiters park on.
struct BuildSlot {
    done: Mutex<Option<Result<Arc<Processor>, McpatError>>>,
    cv: Condvar,
}

impl BuildSlot {
    fn new() -> BuildSlot {
        BuildSlot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }
}

/// State shared between the accept loop, connection threads, and
/// [`ServerHandle`]s.
struct Shared {
    max_inflight: usize,
    in_flight: AtomicUsize,
    drain: AtomicBool,
    counters: Counters,
    /// Canonical coalescing key ([`canonical_key`]) -> in-flight build.
    builds: Mutex<HashMap<String, Arc<BuildSlot>>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst) || crate::drain_requested()
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII admission token: holds one in-flight slot, released on drop.
struct Admit<'a> {
    shared: &'a Shared,
}

impl<'a> Admit<'a> {
    fn try_new(shared: &'a Shared) -> Option<Admit<'a>> {
        let cap = shared.max_inflight;
        shared
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                if cap == 0 || n < cap {
                    Some(n + 1)
                } else {
                    None
                }
            })
            .ok()
            .map(|_| Admit { shared })
    }
}

impl Drop for Admit<'_> {
    fn drop(&mut self) {
        self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// A cheap handle onto a running (or about-to-run) server, for tests
/// and embedders: the bound address, a drain trigger, and the
/// admission gauge.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the server is listening on (with the ephemeral port
    /// resolved, so `--listen 127.0.0.1:0` is usable in tests).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks this server to drain: in-flight requests finish, no new
    /// connections are accepted, and [`Server::run`] returns.
    pub fn request_drain(&self) {
        self.shared.drain.store(true, Ordering::SeqCst);
    }

    /// Currently admitted `evaluate` requests.
    #[must_use]
    // lint: allow(L013, the daemon tests wait on it to know a build is admitted)
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds the listener.
    ///
    /// # Errors
    ///
    /// The underlying `TcpListener::bind` / `local_addr` failure.
    pub fn bind(listen: &str, opts: &ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                max_inflight: opts.max_inflight,
                in_flight: AtomicUsize::new(0),
                drain: AtomicBool::new(false),
                counters: Counters::default(),
                builds: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The resolved listen address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle usable from other threads while `run` owns the server.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until a drain is requested (SIGTERM via
    /// [`crate::request_drain`], a `shutdown` envelope, or
    /// [`ServerHandle::request_drain`]), then joins every connection
    /// thread — in-flight requests finish and are answered — and
    /// returns.
    ///
    /// # Errors
    ///
    /// A fatal accept-loop I/O failure (transient `WouldBlock` /
    /// `Interrupted` conditions are retried).
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Responses are single small lines; without nodelay
                    // Nagle + delayed ACK adds ~40 ms per round trip.
                    let _ = stream.set_nodelay(true);
                    let shared = Arc::clone(&self.shared);
                    conns.push(std::thread::spawn(move || {
                        handle_connection(&shared, stream);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            conns.retain(|c| !c.is_finished());
        }
        // Drain: stop accepting, let every connection finish its
        // current request and observe the flag.
        drop(self.listener);
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    }
}

/// One connection: accumulate bytes, answer each complete line in
/// order, close on EOF, error, or drain.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut acc: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = acc.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            let response = handle_request(shared, text);
            if write_line(&mut stream, &response).is_err() {
                return;
            }
        }
        // Between requests only: an admitted request always finishes.
        if shared.draining() && acc.is_empty() {
            return;
        }
        if acc.len() > proto::MAX_REQUEST_BYTES {
            let response = proto::error_response(
                None,
                "InvalidRequest",
                "request line exceeds the size limit",
                None,
            );
            let _ = write_line(&mut stream, &response);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if let Some(bytes) = chunk.get(..n) {
                    acc.extend_from_slice(bytes);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Dispatches one parsed request line to its handler.
fn handle_request(shared: &Arc<Shared>, line: &str) -> String {
    shared.counters.requests.fetch_add(1, Ordering::SeqCst);
    match proto::parse(line) {
        Err(pe) => {
            shared.counters.errors.fetch_add(1, Ordering::SeqCst);
            proto::error_response(pe.id, pe.kind, &pe.message, None)
        }
        Ok(Request::Ping { id }) => {
            shared.counters.ok.fetch_add(1, Ordering::SeqCst);
            proto::pong_response(id)
        }
        Ok(Request::Stats { id }) => {
            shared.counters.ok.fetch_add(1, Ordering::SeqCst);
            stats_response(shared, id)
        }
        Ok(Request::Shutdown { id }) => {
            shared.counters.ok.fetch_add(1, Ordering::SeqCst);
            shared.drain.store(true, Ordering::SeqCst);
            proto::shutdown_response(id)
        }
        Ok(Request::Evaluate(req)) => handle_evaluate(shared, &req),
    }
}

/// The `stats` request bypasses admission (it must stay answerable at
/// the cap, so clients can observe an overloaded server).
fn stats_response(shared: &Shared, id: Option<u64>) -> String {
    let c = &shared.counters;
    let view = ServerStatsView {
        requests: c.requests.load(Ordering::SeqCst),
        ok: c.ok.load(Ordering::SeqCst),
        errors: c.errors.load(Ordering::SeqCst),
        overloaded: c.overloaded.load(Ordering::SeqCst),
        deadline_exceeded: c.deadline_exceeded.load(Ordering::SeqCst),
        coalesced_requests: c.coalesced_requests.load(Ordering::SeqCst),
        in_flight: shared.in_flight.load(Ordering::SeqCst) as u64,
        max_inflight: shared.max_inflight as u64,
        draining: shared.draining(),
    };
    proto::stats_response(
        id,
        &mcpat::array::memo::stats(),
        &mcpat::par::pool::stats(),
        &view,
    )
}

/// One admitted `evaluate`: its own budget scope, its own collector,
/// coalesced onto an identical in-flight build when one exists.
fn handle_evaluate(shared: &Arc<Shared>, req: &EvaluateRequest) -> String {
    let Some(_admit) = Admit::try_new(shared) else {
        shared.counters.overloaded.fetch_add(1, Ordering::SeqCst);
        shared.counters.errors.fetch_add(1, Ordering::SeqCst);
        return proto::error_response(
            req.id,
            "Overloaded",
            &format!(
                "server is at its admission cap ({} evaluation(s) in flight)",
                shared.max_inflight
            ),
            None,
        );
    };
    let start = Instant::now();
    let collector = Collector::new();
    let budget = req
        .deadline_ms
        .map(|ms| Budget::with_deadline(Duration::from_millis(ms)));
    let mut built = false;
    let mut coalesced = false;
    let outcome = {
        let _obs_scope = collector.enter();
        let _budget_scope = budget.as_ref().map(Budget::enter);
        evaluate(shared, &req.config, &mut built, &mut coalesced)
    };
    // The scope guard has dropped: the thread's allocation delta is
    // flushed and the snapshot below is this request's final bill.
    let snap = collector.snapshot();
    let perf = RequestPerf {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        built,
        coalesced,
        solve_cache_hits: snap.solve_cache_hits,
        solve_cache_misses: snap.solve_cache_misses,
        solve_cache_evictions: snap.solve_cache_evictions,
        pool_submitted: snap.pool_submitted,
        pool_steals: snap.pool_steals,
        pool_inline: snap.pool_inline,
        allocs: snap.allocs,
    };
    match outcome {
        Ok(report) => {
            shared.counters.ok.fetch_add(1, Ordering::SeqCst);
            proto::evaluate_response(req.id, &report, &perf)
        }
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::SeqCst);
            let kind = e.kind();
            if kind == "DeadlineExceeded" {
                shared
                    .counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::SeqCst);
            }
            proto::error_response(req.id, kind, &e.to_string(), Some(&perf))
        }
    }
}

/// The canonical coalescing key: the config's JSON with the name
/// cleared, so identical-modulo-name requests share one build. Whether
/// the name was empty stays in the key, because validation warns about
/// an unnamed configuration and the relabeled report must match a fresh
/// build. JSON rather than `==` on the config, because `-0.0 == 0.0`.
fn canonical_key(cfg: &ProcessorConfig) -> Result<String, McpatError> {
    let mut c = cfg.clone();
    c.name.clear();
    let json = serde_json::to_string(&c).map_err(|e| {
        McpatError::config(
            "serve.request.config",
            format!("configuration cannot be canonicalized: {e}"),
        )
    })?;
    let named = if cfg.name.is_empty() {
        "unnamed"
    } else {
        "named"
    };
    Ok(format!("{named}:{json}"))
}

enum Claim {
    Builder(Arc<BuildSlot>),
    Waiter(Arc<BuildSlot>),
}

/// Claims the key in the coalesce map: first requester builds, later
/// ones wait. The map lock is held only for the lookup/insert.
fn claim(shared: &Shared, key: &str) -> Claim {
    let mut builds = lock(&shared.builds);
    if let Some(slot) = builds.get(key) {
        Claim::Waiter(Arc::clone(slot))
    } else {
        let slot = Arc::new(BuildSlot::new());
        builds.insert(key.to_owned(), Arc::clone(&slot));
        Claim::Builder(slot)
    }
}

/// Publishes the build outcome and retires the key: waiters wake with
/// the shared result, and the *next* identical request goes straight
/// to the (now warm) solve cache instead of the coalesce map.
fn publish(
    shared: &Shared,
    key: &str,
    slot: &BuildSlot,
    outcome: Result<Arc<Processor>, McpatError>,
) {
    lock(&shared.builds).remove(key);
    *lock(&slot.done) = Some(outcome);
    slot.cv.notify_all();
}

/// Publishes a defensive error if the builder exits without publishing
/// (unreachable in the panic-free core; waiters must never hang).
struct PublishGuard<'a> {
    shared: &'a Shared,
    key: &'a str,
    slot: &'a BuildSlot,
    armed: bool,
}

impl Drop for PublishGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            publish(
                self.shared,
                self.key,
                self.slot,
                Err(McpatError::config(
                    "serve.coalesce",
                    "builder aborted before publishing an outcome",
                )),
            );
        }
    }
}

/// Parks on an in-flight identical build, checking this request's own
/// budget at every heartbeat so a waiter's deadline still trips while
/// someone else builds.
fn wait_for_build(slot: &BuildSlot) -> Result<Result<Arc<Processor>, McpatError>, McpatError> {
    let mut done = lock(&slot.done);
    loop {
        if let Some(outcome) = done.as_ref() {
            return Ok(outcome.clone());
        }
        mcpat::guard::check()
            .map_err(|g| McpatError::Budget(AtPath::new("serve.coalesce.wait", g)))?;
        let (guard, _) = slot
            .cv
            .wait_timeout(done, WAIT_POLL)
            .unwrap_or_else(PoisonError::into_inner);
        done = guard;
    }
}

/// Renders the report of a shared build re-labeled with this request's
/// own config name — the same relabel contract the solve cache and
/// the DSE engine honor, so the text is byte-identical to a fresh
/// build of the named config.
fn relabeled_report(chip: &Processor, cfg: &ProcessorConfig) -> String {
    let mut own = chip.clone();
    own.config.name.clone_from(&cfg.name);
    own.report()
}

/// Builds the config (or coalesces onto an identical in-flight build)
/// and renders its report.
fn evaluate(
    shared: &Shared,
    cfg: &ProcessorConfig,
    built: &mut bool,
    coalesced: &mut bool,
) -> Result<String, McpatError> {
    let key = canonical_key(cfg)?;
    match claim(shared, &key) {
        Claim::Builder(slot) => {
            *built = true;
            let hold = crate::eval_hold_ms();
            if hold > 0 {
                std::thread::sleep(Duration::from_millis(hold));
            }
            let mut guard = PublishGuard {
                shared,
                key: &key,
                slot: &slot,
                armed: true,
            };
            let outcome = Processor::build(cfg).map(Arc::new);
            guard.armed = false;
            drop(guard);
            publish(shared, &key, &slot, outcome.clone());
            Ok(outcome?.report())
        }
        Claim::Waiter(slot) => {
            shared
                .counters
                .coalesced_requests
                .fetch_add(1, Ordering::SeqCst);
            match wait_for_build(&slot)? {
                Ok(chip) => {
                    *coalesced = true;
                    Ok(relabeled_report(&chip, cfg))
                }
                Err(e) if e.guard_error().is_some() => {
                    // The *builder's* budget tripped — a fact about its
                    // circumstances, not this config (the solve cache
                    // draws the same line). Build it ourselves under
                    // our own budget.
                    *built = true;
                    Processor::build(cfg).map(|chip| chip.report())
                }
                Err(e) => {
                    // Deterministic failure: a fact about the config,
                    // shared like a successful build.
                    *coalesced = true;
                    Err(e)
                }
            }
        }
    }
}
