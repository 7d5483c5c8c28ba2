//! Tool-speed benchmark line: times the modeling stack itself (array
//! solves, core builds, chip builds, clock bisection, streaming DSE
//! sweeps) in three execution modes — serial,
//! thread-parallel, and warm solve-cache — and writes
//! `BENCH_toolspeed.json` for trend tracking in CI.
//!
//! Run with: `cargo run --release -p mcpat-bench --bin benchline
//! [--quick] [--out PATH] [--gate BASELINE.json]`
//!
//! `--render PATH` runs nothing: it prints the "Tool speed" section of
//! EXPERIMENTS.md rendered from the benchline JSON at `PATH`
//! ([`mcpat_bench::toolspeed`]).
//!
//! `--gate` turns the run into a regression check against a previously
//! committed JSON: on a multi-core host the 16-chip DSE sweep
//! (`dse_16_chips`) must not be slower in parallel than serially, and
//! when the baseline was
//! recorded on a host with the same CPU label *and* the same rep count
//! (`--quick` and full runs take different medians), no benchmark's
//! `serial_ms` may regress by more than 15% — tightened to 10% for the
//! cold `chip_build_*` rows, the floor under every sweep and daemon
//! scenario. Each row reports the heap allocations of one run in all
//! three modes (`allocs_serial`/`allocs_parallel`/`allocs_warm`), and
//! the `speedups` block carries `cold_build_speedup_vs_baseline`: the
//! geometric mean of the chip-build serial-median improvements over
//! the baseline JSON (0 when no same-label baseline is available).
//! A mismatched CPU label or
//! rep count skips the wall-clock comparison (the numbers are not
//! comparable) but still enforces the speedup invariant and two
//! host-independent overhead ceilings: a build inside an entered
//! `mcpat::obs::Collector` scope with tracing disabled must cost at
//! most 2% over a plain build, and a build inside an entered unbounded
//! `mcpat::guard::Budget` scope must cost at most 3% over a build
//! with no budget active. Two more host-independent gates cover the
//! design-space sweep: the streaming `mcpat::dse` engine must retire
//! candidates at least 5x faster than the naive per-candidate
//! full-build loop (both throughputs measured in this run, same serial
//! mode), and on a single-core host the parallel 16-chip sweep must
//! degrade to inline execution — zero worker-pool submissions and wall
//! clock within 25% of serial. Two more host-independent gates cover
//! the `mcpat serve` daemon's shared cache: every warm request over
//! loopback TCP must bill zero solve-cache misses, and its server-side
//! time must stay within a small multiple of an in-process warm build
//! of the same chip (the `serve` block records both, plus the ungated
//! warm-over-cold round-trip ratio). Another
//! host-independent gate counts pool wake-ups: a warm Niagara2 build,
//! every array a cache hit, must wake no worker (the `pool` block).
//! Full (non-`--quick`) runs additionally time one 10^5-candidate
//! streaming sweep end to end, recorded in the `dse` block.
//!
//! The JSON is stamped with the git revision and whether the tracked
//! files differed from it (`worktree`), and records the host's
//! available parallelism alongside every number: on a single-core
//! runner the parallel column necessarily matches serial, so compare
//! parallel speedups only across runs whose `host.available_parallelism`
//! agrees.

use mcpat::{
    max_clock_under_power_budget, AxisGrid, DseOptions, DsePerf, FrontierPoint, ParetoFrontier,
    Processor, ProcessorConfig, WorkloadModel,
};
use mcpat_array::{memo, ArraySpec, OptTarget};
use mcpat_mcore::config::CoreConfig;
use mcpat_mcore::core::CoreModel;
use mcpat_tech::{DeviceType, TechNode, TechParams};
use serde_json::json;
use std::time::Instant;

/// Counts each thread's heap allocations, so the benchmark can report
/// allocations per run — the direct measure of the enumeration loop's
/// cheapness — and traced spans carry real counts.
#[global_allocator]
static GLOBAL: mcpat::obs::CountingAlloc = mcpat::obs::CountingAlloc;

fn die(msg: &str) -> ! {
    eprintln!("benchline: {msg}");
    std::process::exit(1)
}

/// Median wall-clock milliseconds of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(f64::NAN)
}

/// The median of `a / b` over `pairs` pairs of runs, where `timed(true)`
/// times one run of A and `timed(false)` one run of B, in seconds. Both
/// runs of a pair are adjacent in time, so they share the host's
/// frequency and CPU-steal regime, and the median discards the pairs a
/// scheduling blip lands in. (A per-side `min` is not robust here: the
/// two minima come from different instants, so a brief fast window
/// covering only one side skews the ratio by several percent.) The
/// order within a pair alternates, because the second run sees warmer
/// caches and a fixed order would bake that bias into every ratio.
/// `empty` is returned when no pair timed B above zero.
fn paired_median_ratio(pairs: usize, empty: f64, mut timed: impl FnMut(bool) -> f64) -> f64 {
    let mut ratios: Vec<f64> = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let a_first = pair % 2 == 0;
        let first = timed(a_first);
        let second = timed(!a_first);
        let (a, b) = if a_first {
            (first, second)
        } else {
            (second, first)
        };
        if b > 0.0 {
            ratios.push(a / b);
        }
    }
    ratios.sort_by(f64::total_cmp);
    ratios.get(ratios.len() / 2).copied().unwrap_or(empty)
}

/// Short git revision of the checkout, or `"unknown"` outside one (or
/// without git on PATH). Restricted to alphanumeric characters so it
/// embeds in the hand-written JSON without escaping.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| {
            s.trim()
                .chars()
                .filter(char::is_ascii_alphanumeric)
                .collect::<String>()
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

/// Whether the checkout's tracked files match `HEAD`: `"clean"`,
/// `"modified"` (the run measured uncommitted code on top of the
/// revision), or `"unknown"` outside a checkout.
fn git_worktree() -> &'static str {
    std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown", |o| {
            if o.stdout.is_empty() {
                "clean"
            } else {
                "modified"
            }
        })
}

/// Allocations billed to one run of `f`: everything `f` allocates on
/// this thread, plus what pool workers allocate in the tasks it submits
/// (each task carries the submitter's scope chain).
fn allocs_of(mut f: impl FnMut()) -> u64 {
    let collector = mcpat::obs::Collector::new();
    {
        let _scope = collector.enter();
        f();
    }
    collector.snapshot().allocs
}

struct Row {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
    warm_cache_ms: f64,
    allocs_serial: u64,
    allocs_parallel: u64,
    allocs_warm: u64,
}

/// Times one workload in the three modes. `reps` runs per mode, median
/// reported. The solve cache is disabled for the serial and parallel
/// columns and pre-warmed for the warm column. Each mode also reports
/// the heap allocations of one run, so allocation changes on the cold
/// path are visible in every mode, not just serial.
fn bench(name: &'static str, reps: usize, mut work: impl FnMut()) -> Row {
    // Serial: one thread, no cache.
    memo::set_enabled(false);
    mcpat_par::set_thread_override(1);
    work(); // warm code/branch caches before timing
    let serial_ms = median_ms(reps, &mut work);
    let allocs_serial = allocs_of(&mut work);

    // Parallel: default thread count, no cache.
    mcpat_par::set_thread_override(0);
    let parallel_ms = median_ms(reps, &mut work);
    let allocs_parallel = allocs_of(&mut work);

    // Warm cache: content-addressed solve cache on and populated.
    memo::set_enabled(true);
    memo::clear();
    work(); // populate
    let warm_cache_ms = median_ms(reps, &mut work);
    let allocs_warm = allocs_of(&mut work);
    memo::set_auto();

    let row = Row {
        name,
        serial_ms,
        parallel_ms,
        warm_cache_ms,
        allocs_serial,
        allocs_parallel,
        allocs_warm,
    };
    eprintln!(
        "{name:<22} serial {serial_ms:>9.3} ms | parallel {parallel_ms:>9.3} ms | warm {warm_cache_ms:>9.3} ms | allocs {allocs_serial}/{allocs_parallel}/{allocs_warm}",
    );
    row
}

/// Runs behind each `dse_16_chips` median, and interleaved pairs behind
/// its `explore_parallel_vs_serial` gate, whatever `--quick` says. A
/// sweep takes about 10 ms, so the extra runs cost little.
const DSE_16_CHIPS_REPS: usize = 9;

/// The `explore_parallel_vs_serial` gate's ratio: the median, over
/// [`DSE_16_CHIPS_REPS`] interleaved pairs of one serial and one
/// parallel 16-chip sweep (solve cache off), of serial over parallel
/// wall time. On a 2-vCPU host shared with other work the ratio of the
/// row's per-mode medians, each mode timed as one block, read below 1.0
/// in 5 of 10 `--quick` runs at one rep and 2 of 10 at five, when the
/// two blocks landed in different host phases; pairing times both
/// modes of each sample in the same phase ([`paired_median_ratio`]).
fn explore_parallel_vs_serial(grid: &AxisGrid) -> f64 {
    memo::set_enabled(false);
    let ratio = paired_median_ratio(DSE_16_CHIPS_REPS, 0.0, |serial| {
        mcpat_par::set_thread_override(if serial { 1 } else { 0 });
        let t = Instant::now();
        sweep(grid, "paired 16-chip dse sweep");
        t.elapsed().as_secs_f64()
    });
    memo::set_auto();
    mcpat_par::set_thread_override(0);
    ratio
}

/// Sixteen distinct chips, one clock each: the `dse_16_chips` row's
/// grid, where every candidate is its own row.
fn sixteen_chips() -> AxisGrid {
    AxisGrid::manycore(
        vec![TechNode::N32],
        vec![DeviceType::Hp],
        vec![2, 4, 6, 8],
        vec![1 << 20, 2 << 20, 3 << 20, 4 << 20],
        vec![1.4e9],
    )
}

/// One streaming sweep of `grid` with the default options and model.
fn sweep(grid: &AxisGrid, what: &str) -> mcpat::DseResult {
    mcpat::dse(grid, &DseOptions::default(), &mut WorkloadModel::default())
        .unwrap_or_else(|e| die(&format!("{what} failed: {e}")))
}

/// The pre-incremental clock bisection: every probe rebuilds the full
/// chip. Kept as the benchmark baseline `clock_bisection_incremental`
/// is measured against.
fn bisection_full_rebuild(
    config: &ProcessorConfig,
    budget_w: f64,
    lo_hz: f64,
    hi_hz: f64,
) -> Option<f64> {
    let power_at = |clock: f64| -> f64 {
        let mut cfg = config.clone();
        cfg.clock_hz = clock;
        cfg.core.clock_hz = clock;
        match Processor::build(&cfg) {
            Ok(chip) => chip.peak_power().total(),
            Err(e) => die(&format!("bisection build failed: {e}")),
        }
    };
    if power_at(lo_hz) > budget_w {
        return None;
    }
    if power_at(hi_hz) <= budget_w {
        return Some(hi_hz);
    }
    let (mut lo, mut hi) = (lo_hz, hi_hz);
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        if power_at(mid) <= budget_w {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Ceiling on the tracing-disabled observability overhead: a build
/// inside an entered collector (spans compiled in but inert, counters
/// billed per-scope) may cost at most 2% over the identical build with
/// no scope active. The median measures ~0.3%; the headroom absorbs
/// shared-runner noise on ~1 ms builds while still catching any
/// accidental per-event work on the disabled path.
const MAX_TRACE_DISABLED_OVERHEAD: f64 = 1.02;

/// Measures the marginal cost of the observability layer with tracing
/// disabled: the ratio of a cold-cache serial chip build run inside an
/// entered [`mcpat::obs::Collector`] scope to the same build with no
/// scope active. The solve cache is cleared before every sample so each
/// build does its full solver work — the representative workload the
/// overhead ceiling is about. (A warm-cache rebuild finishes in microseconds,
/// where per-event counter billing amplifies to a few percent relative
/// but only single-digit microseconds absolute; gating on that would
/// flake on timer noise without protecting anything real.) The probe
/// reports the median scoped/plain ratio of 100 interleaved pairs
/// ([`paired_median_ratio`]).
fn trace_disabled_overhead_ratio() -> f64 {
    mcpat::obs::set_tracing(false);
    let cfg = ProcessorConfig::niagara2();
    let build = || {
        if let Err(e) = Processor::build(&cfg) {
            die(&format!("overhead-probe build failed: {e}"));
        }
    };
    mcpat_par::set_thread_override(1);
    memo::set_enabled(true);
    memo::clear();
    build(); // warm the code paths (the cache is cleared per sample)
    let collector = mcpat::obs::Collector::new();
    let ratio = paired_median_ratio(100, 1.0, |scope| {
        memo::clear();
        let t = Instant::now();
        if scope {
            let _scope = collector.enter();
            build();
        } else {
            build();
        }
        t.elapsed().as_secs_f64()
    });
    memo::set_auto();
    mcpat_par::set_thread_override(0);
    ratio
}

/// Ceiling on the budget-checkpoint overhead: a build running inside an
/// entered (but unbounded) `mcpat::guard::Budget` scope — every
/// checkpoint live, none ever tripping — may cost at most 3% over the
/// identical build with no budget active (the disabled path, where a
/// checkpoint is a single thread-local load). The live chain walk
/// measures ~1% on a cold build, where the array solver checks once per
/// outer cell of its sweep; the gate exists to catch a
/// checkpoint accidentally growing O(n) work, not to litigate
/// nanoseconds under shared-runner noise.
const MAX_GUARD_DISABLED_OVERHEAD: f64 = 1.03;

/// Measures the marginal cost of budget checkpoints on the cold-build
/// path: the ratio of a cold-cache serial chip build inside an entered
/// unbounded [`mcpat::guard::Budget`] scope to the same build with no
/// budget active. Methodology matches [`trace_disabled_overhead_ratio`]:
/// the cache is cleared per sample so every checkpoint in the solver
/// sweep actually executes, and the reported number is the median of
/// 100 interleaved pairwise scoped/plain ratios.
fn guard_disabled_overhead_ratio() -> f64 {
    let cfg = ProcessorConfig::niagara2();
    let build = || {
        if let Err(e) = Processor::build(&cfg) {
            die(&format!("overhead-probe build failed: {e}"));
        }
    };
    mcpat_par::set_thread_override(1);
    memo::set_enabled(true);
    memo::clear();
    build(); // warm the code paths (the cache is cleared per sample)
    let budget = mcpat::guard::Budget::unbounded();
    let ratio = paired_median_ratio(100, 1.0, |scope| {
        memo::clear();
        let t = Instant::now();
        if scope {
            let _scope = budget.enter();
            build();
        } else {
            build();
        }
        t.elapsed().as_secs_f64()
    });
    memo::set_auto();
    mcpat_par::set_thread_override(0);
    ratio
}

/// Runs one tracing-enabled chip build and prints its per-phase span
/// summary, then disables tracing again. Purely informational: the
/// bit-identity of traced builds is asserted by `tests/perf_identity.rs`.
fn print_span_summary() {
    mcpat::obs::set_tracing(true);
    let collector = mcpat::obs::Collector::new();
    {
        let _scope = collector.enter();
        if let Err(e) = Processor::build(&ProcessorConfig::niagara2()) {
            die(&format!("traced build failed: {e}"));
        }
    }
    mcpat::obs::set_tracing(false);
    let trace = collector.trace();
    eprintln!(
        "benchline: traced niagara2 build, {} span(s):",
        trace.spans.len()
    );
    for s in &trace.spans {
        eprintln!(
            "benchline:   {:<18} {:>9.3} ms | cache {} hit(s) / {} miss(es) | {} alloc(s) | {} relaxation(s)",
            s.path,
            s.wall_s * 1e3,
            s.solve_cache_hits,
            s.solve_cache_misses,
            s.allocs,
            s.relaxations
        );
    }
}

/// Serial median of one named benchmark row in a baseline JSON.
fn baseline_serial_ms(baseline: &serde_json::Value, name: &str) -> Option<f64> {
    baseline
        .get("benchmarks")
        .and_then(serde_json::Value::as_seq)?
        .iter()
        .find_map(|b| {
            if b.get("name").and_then(serde_json::Value::as_str)? == name {
                b.get("serial_ms").and_then(serde_json::Value::as_f64)
            } else {
                None
            }
        })
}

/// Cold-build speedup of this run over a baseline JSON: the geometric
/// mean, across the `chip_build_*` rows, of baseline cold serial
/// median over this run's. Returns 0.0 (meaning "no comparable
/// baseline") when the baseline is absent, was recorded on a host with
/// a different CPU label, or shares no chip-build rows — wall-clock
/// medians from different hosts are not comparable.
fn cold_build_speedup_vs_baseline(
    baseline: Option<&serde_json::Value>,
    rows: &[Row],
    host_label: &str,
) -> f64 {
    let Some(baseline) = baseline else { return 0.0 };
    let base_label = baseline
        .get("host")
        .and_then(|h| h.get("label"))
        .and_then(serde_json::Value::as_str)
        .unwrap_or("");
    if base_label != host_label {
        return 0.0;
    }
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for row in rows {
        if !row.name.starts_with("chip_build_") || row.serial_ms <= 0.0 {
            continue;
        }
        let Some(base_ms) = baseline_serial_ms(baseline, row.name) else {
            continue;
        };
        if base_ms > 0.0 {
            log_sum += (base_ms / row.serial_ms).ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// Floor on the streaming DSE engine's throughput advantage over the
/// naive per-candidate full-build loop, measured within one run in the
/// same execution mode (so the ratio holds on any host).
const MIN_DSE_STREAMING_SPEEDUP: f64 = 5.0;

/// Floor on the share of `dse_10k_candidates`' grid that the streaming
/// DSE engine prunes before any probe: five points below the 0.836
/// measured with `WorkloadModel`'s dynamic-power floor. The share is a
/// deterministic count, so it holds on any host; a bound that loosens
/// (back toward leakage alone, 0.435) fails it.
const MIN_DSE_PRUNE_RATE: f64 = 0.786;

/// Ceiling on heap allocations per candidate of the streaming DSE
/// sweep (`dse_10k_candidates`, every mode). Clock probes retarget one
/// scratch chip per row in place, so what remains is per-row work (row
/// bases, scratch copies) and one name per frontier offer: about 2.1
/// in the worst (cold, serial) mode, so this leaves a margin of under
/// one allocation per candidate. A count, so it holds on any host.
const MAX_DSE_ALLOCS_PER_CANDIDATE: f64 = 3.0;

/// Ceiling on solve-cache misses billed to the serve probe's warm
/// requests, all of them together: a request whose configuration the
/// shared cache already holds must not run the solver. A count, so it
/// holds on any host.
const MAX_SERVE_WARM_MISSES: u64 = 0;

/// Ceiling on a warm serve request's server-side time (`perf.wall_ms`,
/// median) over an in-process warm `Processor::build` of the same chip
/// (median), both measured in this run. The request adds key hashing,
/// the coalesce map, report rendering and billing to the build: seven
/// `--quick` runs on a 2-vCPU host read 2.8–3.7x, while a request that
/// re-solves its arrays reads about 30x. A ratio of two timings on one
/// host, so it holds on any host, and it does not depend on how fast
/// the solver is.
const MAX_SERVE_WARM_VS_BUILD: f64 = 6.0;

/// Ceiling on pool wake-ups during one warm Niagara2 build at the
/// default thread count. Every array is a solve-cache hit, so no join
/// in it has work worth a second lane: the joins must stay quiet. A
/// count, so it holds on any host.
const MAX_WARM_BUILD_WAKEUPS: u64 = 0;

/// Pool wake-ups caused by one warm Niagara2 build at the default
/// thread count, with the solve cache on and populated.
fn warm_build_wakeups() -> u64 {
    let cfg = ProcessorConfig::niagara2();
    let build = || {
        if let Err(e) = Processor::build(&cfg) {
            die(&format!("warm wake-up probe build failed: {e}"));
        }
    };
    memo::set_enabled(true);
    mcpat_par::set_thread_override(0);
    // Populate the cache and spawn the workers, then let the workers
    // park, so any announcement reaches one and counts.
    build();
    std::thread::sleep(std::time::Duration::from_millis(10));
    let before = mcpat_par::pool::stats().wakeups;
    build();
    let wakeups = mcpat_par::pool::stats().wakeups - before;
    memo::set_auto();
    wakeups
}

/// Round trips behind each serve median, whatever `--quick` says: at 3
/// the warm/cold ratio wandered across its floor on a 2-vCPU host,
/// while 301 trips read the same ratio run after run.
const SERVE_ROUND_TRIPS: usize = 301;

/// What the serve probe measured against its in-process daemon.
struct ServeProbe {
    /// Median client round trip with the solve cache cleared before
    /// every request, ms.
    cold_ms: f64,
    /// Median client round trip with every solve resident, ms.
    warm_ms: f64,
    /// Median server-side `perf.wall_ms` of the warm requests, ms.
    warm_server_ms: f64,
    /// Median in-process warm `Processor::build` of the same chip, ms.
    warm_build_ms: f64,
    /// Solve-cache misses billed to all warm requests together.
    warm_misses: u64,
}

/// Drives an in-process `mcpat serve` daemon over real loopback TCP,
/// [`SERVE_ROUND_TRIPS`] round trips per mode. Cold clears the shared
/// solve cache before every request (each build does its full solver
/// work); warm leaves the cache populated, so the request pays only
/// lookup + relabel + render + the wire round trip, and each warm
/// response's own billing (`perf.wall_ms`, `perf.solve_cache_misses`)
/// is read back. Serial requests on one connection — the concurrency
/// story is covered by the daemon's own tests; this probe times the
/// cache seam.
fn serve_probe() -> ServeProbe {
    use std::io::{BufRead as _, BufReader, Write as _};

    let server = mcpat_serve::Server::bind(
        "127.0.0.1:0",
        &mcpat_serve::ServeOptions { max_inflight: 4 },
    )
    .unwrap_or_else(|e| die(&format!("serve probe: cannot bind loopback: {e}")));
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        if let Err(e) = server.run() {
            eprintln!("benchline: serve probe server error: {e}");
        }
    });

    let stream = std::net::TcpStream::connect(handle.addr())
        .unwrap_or_else(|e| die(&format!("serve probe: cannot connect: {e}")));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .unwrap_or_else(|e| die(&format!("serve probe: cannot clone stream: {e}"))),
    );
    let mut stream = stream;
    // Returns the response's `(perf.wall_ms, perf.solve_cache_misses)`.
    let mut roundtrip = |line: &str| -> (f64, u64) {
        // One write per request: a trailing-newline second write would
        // reintroduce the Nagle stall the daemon disables server-side.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        if stream.write_all(&buf).is_err() {
            die("serve probe: request write failed");
        }
        let mut resp = String::new();
        match reader.read_line(&mut resp) {
            Ok(n) if n > 0 => {}
            _ => die("serve probe: server closed the connection"),
        }
        if !resp.contains("\"status\":\"ok\"") {
            die(&format!("serve probe: request failed: {}", resp.trim()));
        }
        let v: serde_json::Value = serde_json::from_str(&resp)
            .unwrap_or_else(|e| die(&format!("serve probe: response is not JSON: {e}")));
        let perf = |key: &str| v.get("perf").and_then(|p| p.get(key));
        match (
            perf("wall_ms").and_then(serde_json::Value::as_f64),
            perf("solve_cache_misses").and_then(serde_json::Value::as_u64),
        ) {
            (Some(wall_ms), Some(misses)) => (wall_ms, misses),
            _ => die(&format!(
                "serve probe: response lacks perf billing: {}",
                resp.trim()
            )),
        }
    };
    let request = "{\"type\":\"evaluate\",\"preset\":\"niagara2\"}";

    mcpat_par::set_thread_override(0);
    memo::set_enabled(true);
    memo::clear();
    roundtrip(request); // warm code paths; leaves the cache populated
    let mut warm_server = Vec::with_capacity(SERVE_ROUND_TRIPS);
    let mut warm_misses = 0u64;
    let warm_ms = median_ms(SERVE_ROUND_TRIPS, || {
        let (wall_ms, misses) = roundtrip(request);
        warm_server.push(wall_ms);
        warm_misses += misses;
    });
    let cfg = ProcessorConfig::niagara2();
    let warm_build_ms = median_ms(SERVE_ROUND_TRIPS, || {
        if let Err(e) = Processor::build(&cfg) {
            die(&format!("serve probe: in-process warm build failed: {e}"));
        }
    });
    let cold_ms = median_ms(SERVE_ROUND_TRIPS, || {
        memo::clear();
        roundtrip(request);
    });
    memo::set_auto();

    handle.request_drain();
    let _ = join.join();
    warm_server.sort_by(f64::total_cmp);
    ServeProbe {
        cold_ms,
        warm_ms,
        warm_server_ms: warm_server
            .get(warm_server.len() / 2)
            .copied()
            .unwrap_or(f64::NAN),
        warm_build_ms,
        warm_misses,
    }
}

/// Regression gate: compares this run's rows against a committed
/// baseline JSON. Returns every violated invariant.
#[allow(clippy::too_many_arguments)]
fn gate_failures(
    baseline: &serde_json::Value,
    rows: &[Row],
    explore_parallel_speedup: f64,
    trace_overhead_ratio: f64,
    guard_overhead_ratio: f64,
    dse_streaming_vs_naive: f64,
    dse_prune_rate: f64,
    dse_allocs_per_candidate: f64,
    serve: &ServeProbe,
    explore_pool_submissions: u64,
    warm_wakeups: u64,
    host_threads: usize,
    host_label: &str,
    reps: usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    if host_threads > 1 && explore_parallel_speedup < 1.0 {
        failures.push(format!(
            "explore_parallel_vs_serial is {explore_parallel_speedup:.3} (< 1.0) on a \
             {host_threads}-way host: the parallel path must not lose to serial"
        ));
    }
    // Single-core hosts pin the other side of the same invariant: the
    // parallel path must degrade to inline execution — no pool
    // submissions, and wall clock no worse than serial beyond a 25%
    // noise allowance. The pathology this catches (a spawned-then-idle
    // pool round-tripping every task through the queue) cost ~2x, so
    // the wide margin keeps 3-rep quick runs on a busy host from
    // flaking while still failing loudly on the real regression; the
    // zero-submission check below is the exact half of the invariant.
    if host_threads == 1 {
        if explore_parallel_speedup < 1.0 / 1.25 {
            failures.push(format!(
                "explore_parallel_vs_serial is {explore_parallel_speedup:.3} on a single-core \
                 host: the parallel path must degrade to inline execution (>= 0.8)"
            ));
        }
        if explore_pool_submissions > 0 {
            failures.push(format!(
                "the 16-chip sweep submitted {explore_pool_submissions} task(s) to the worker pool on a \
                 single-core host: the parallel path must run inline"
            ));
        }
    }
    // Host-independent: both throughputs are measured in this run, in
    // the same serial memo-off mode.
    if dse_streaming_vs_naive < MIN_DSE_STREAMING_SPEEDUP {
        failures.push(format!(
            "dse streaming_vs_naive_speedup is {dse_streaming_vs_naive:.2} \
             (< {MIN_DSE_STREAMING_SPEEDUP}): the streaming engine must beat the naive \
             per-candidate full-build sweep by 5x"
        ));
    }
    if dse_prune_rate < MIN_DSE_PRUNE_RATE {
        failures.push(format!(
            "dse prune_rate is {dse_prune_rate:.4} (< {MIN_DSE_PRUNE_RATE}): the lower bound \
             must keep pruning the 10^4 grid before any probe"
        ));
    }
    if dse_allocs_per_candidate > MAX_DSE_ALLOCS_PER_CANDIDATE {
        failures.push(format!(
            "dse_10k_candidates makes {dse_allocs_per_candidate:.2} allocations per candidate \
             (> {MAX_DSE_ALLOCS_PER_CANDIDATE}): clock probes must not allocate"
        ));
    }
    // Host-independent: a count, and a ratio of two timings taken in
    // this run. The warm-over-cold round-trip ratio is not gated: its
    // cold side is the solver, so it would fail a faster solver.
    if serve.warm_misses > MAX_SERVE_WARM_MISSES {
        failures.push(format!(
            "serve warm requests billed {} solve-cache miss(es) (> {MAX_SERVE_WARM_MISSES}): \
             a request for a cached configuration must not run the solver",
            serve.warm_misses
        ));
    }
    let warm_vs_build = serve.warm_server_ms / serve.warm_build_ms;
    // A NaN ratio (no timing) fails too.
    if warm_vs_build.is_nan() || warm_vs_build > MAX_SERVE_WARM_VS_BUILD {
        failures.push(format!(
            "serve warm request takes {:.4} ms server-side, {warm_vs_build:.2}x an in-process \
             warm build ({:.4} ms; > {MAX_SERVE_WARM_VS_BUILD}x): a warm request must cost \
             little more than a warm build",
            serve.warm_server_ms, serve.warm_build_ms
        ));
    }
    if warm_wakeups > MAX_WARM_BUILD_WAKEUPS {
        failures.push(format!(
            "a warm niagara2 build woke the worker pool {warm_wakeups} time(s) \
             (> {MAX_WARM_BUILD_WAKEUPS}): joins over solve-cache hits must stay quiet"
        ));
    }
    // Host-independent: the ratio compares two builds on *this* host,
    // so it is enforced even when the wall-clock comparison is skipped.
    if trace_overhead_ratio > MAX_TRACE_DISABLED_OVERHEAD {
        failures.push(format!(
            "trace_disabled_overhead_ratio is {trace_overhead_ratio:.4} \
             (> {MAX_TRACE_DISABLED_OVERHEAD}): disabled tracing must cost <= 2%"
        ));
    }
    if guard_overhead_ratio > MAX_GUARD_DISABLED_OVERHEAD {
        failures.push(format!(
            "guard_disabled_overhead_ratio is {guard_overhead_ratio:.4} \
             (> {MAX_GUARD_DISABLED_OVERHEAD}): live budget checkpoints must cost <= 3%"
        ));
    }
    let base_label = baseline
        .get("host")
        .and_then(|h| h.get("label"))
        .and_then(serde_json::Value::as_str)
        .unwrap_or("");
    if base_label != host_label {
        eprintln!(
            "benchline: gate skipped: CPU-label mismatch (baseline host \"{base_label}\" \
             != \"{host_label}\"; wall-clock serial_ms is not comparable)"
        );
        return failures;
    }
    let base_reps = baseline
        .get("reps_per_mode")
        .and_then(serde_json::Value::as_f64)
        .unwrap_or(0.0);
    if base_reps != reps as f64 {
        eprintln!(
            "benchline: gate skips serial_ms comparison (baseline took the median of \
             {base_reps} reps, this run {reps}; medians are not comparable)"
        );
        return failures;
    }
    let base_rows = baseline
        .get("benchmarks")
        .and_then(serde_json::Value::as_seq)
        .unwrap_or(&[]);
    for row in rows {
        let base_ms = base_rows.iter().find_map(|b| {
            let name = b.get("name").and_then(serde_json::Value::as_str)?;
            if name == row.name {
                b.get("serial_ms").and_then(serde_json::Value::as_f64)
            } else {
                None
            }
        });
        // Rows the baseline predates are informational only.
        let Some(base_ms) = base_ms else { continue };
        // The cold chip builds are the floor under every sweep and
        // daemon scenario, so they get a tighter leash (10%) than the
        // blanket 15% noise allowance.
        let (limit, pct) = if row.name.starts_with("chip_build_") {
            (1.10, 10)
        } else {
            (1.15, 15)
        };
        if base_ms > 0.0 && row.serial_ms > base_ms * limit {
            failures.push(format!(
                "{}: serial {:.3} ms regressed more than {pct}% over baseline {:.3} ms",
                row.name, row.serial_ms, base_ms
            ));
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--render") {
        let path = args
            .get(i + 1)
            .unwrap_or_else(|| die("--render needs a benchline JSON path"));
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        let bench: serde_json::Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| die(&format!("{path} is not JSON: {e}")));
        match mcpat_bench::toolspeed::render(&bench) {
            Ok(section) => print!("{section}"),
            Err(e) => die(&format!("{path}: {e}")),
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_toolspeed.json", String::as_str);
    let gate_path = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1));
    let reps = if quick { 3 } else { 7 };

    // lint: allow(L011, host metadata recorded in the report header so runs are only compared across equal hosts; no result depends on it)
    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let revision = git_revision();
    let worktree = git_worktree();
    eprintln!(
        "benchline: revision {revision} ({worktree}), host parallelism {host_threads}, {reps} reps/mode{}",
        if quick { " (quick)" } else { "" }
    );

    let tech = TechParams::new(TechNode::N65, DeviceType::Hp, 360.0);
    let ok_or_die = |r: Result<mcpat_array::SolvedArray, mcpat_array::ArrayError>| {
        if let Err(e) = r {
            die(&format!("array solve failed: {e}"));
        }
    };

    let mut rows: Vec<Row> = Vec::new();
    for (name, kb) in [
        ("array_solve_32kb", 32u64),
        ("array_solve_2mb", 2048),
        ("array_solve_16mb", 16384),
    ] {
        let spec = ArraySpec::ram(kb * 1024, 64);
        rows.push(bench(name, reps, || {
            ok_or_die(spec.solve(&tech, OptTarget::EnergyDelay));
        }));
    }

    let ooo = CoreConfig::generic_ooo();
    rows.push(bench("core_build_ooo", reps, || {
        if let Err(e) = CoreModel::build(&tech, &ooo) {
            die(&format!("core build failed: {e}"));
        }
    }));

    for (name, cfg) in [
        ("chip_build_niagara2", ProcessorConfig::niagara2()),
        ("chip_build_tulsa", ProcessorConfig::tulsa()),
    ] {
        rows.push(bench(name, reps, || {
            if let Err(e) = Processor::build(&cfg) {
                die(&format!("chip build failed: {e}"));
            }
        }));
    }

    let chips16 = sixteen_chips();
    let explore_reps = if quick { 1 } else { 3 };
    rows.push(bench("dse_16_chips", DSE_16_CHIPS_REPS, || {
        sweep(&chips16, "16-chip dse sweep");
    }));

    let clk_cfg = ProcessorConfig::manycore(
        "clk",
        TechNode::N32,
        CoreConfig::generic_inorder(),
        4,
        2,
        1024 * 1024,
    );
    rows.push(bench("clock_bisection_full", explore_reps, || {
        if bisection_full_rebuild(&clk_cfg, 25.0, 0.5e9, 6.0e9).is_none() {
            die("full-rebuild bisection found no feasible clock");
        }
    }));
    rows.push(bench("clock_bisection_incremental", explore_reps, || {
        match max_clock_under_power_budget(&clk_cfg, 25.0, 0.5e9, 6.0e9) {
            Ok((Some(_), _)) => {}
            Ok((None, _)) => die("incremental bisection found no feasible clock"),
            Err(e) => die(&format!("incremental bisection failed: {e}")),
        }
    }));

    // Streaming DSE sweep vs the naive per-candidate full build. Both
    // rows walk the same axes; the naive baseline samples a 10-clock
    // slice (10^3 candidates) because building every candidate from
    // scratch at 10^4 scale would dominate the whole benchline run —
    // the gate compares candidates/sec, so the sample sizes need not
    // match.
    let dse_axes = |clocks: usize| {
        let step = 2.0e9 / (clocks.max(2) - 1) as f64;
        AxisGrid::manycore(
            vec![TechNode::N45, TechNode::N32],
            vec![DeviceType::Hp, DeviceType::Lop],
            vec![2, 4, 8, 12, 16],
            vec![512 * 1024, 1 << 20, 2 << 20, 4 << 20, 8 << 20],
            (0..clocks).map(|i| 1.0e9 + step * i as f64).collect(),
        )
    };
    let dse_grid = dse_axes(100); // 2 x 2 x 5 x 5 x 100 = 10^4 candidates
    let mut dse_perf = DsePerf::default();
    rows.push(bench(
        "dse_10k_candidates",
        explore_reps,
        || match mcpat::dse(
            &dse_grid,
            &DseOptions::default(),
            &mut WorkloadModel::default(),
        ) {
            Ok(r) => dse_perf = r.perf,
            Err(e) => die(&format!("streaming dse sweep failed: {e}")),
        },
    ));

    let naive_grid = dse_axes(10); // 10^3-candidate full-build sample
    rows.push(bench("dse_naive_1k_fullbuild", explore_reps, || {
        let mut frontier = ParetoFrontier::new();
        let eval = WorkloadModel::default();
        for cursor in 0..naive_grid.total() {
            if let Err(e) = mcpat::guard::check() {
                die(&format!("naive sweep budget error: {e}"));
            }
            let Some(cfg) = naive_grid.config_at(cursor) else {
                die("naive sweep enumerated past the grid");
            };
            let chip = match Processor::build(&cfg) {
                Ok(chip) => chip,
                Err(e) => die(&format!("naive sweep build failed: {e}")),
            };
            let metrics = eval.evaluate(&chip);
            frontier.offer(FrontierPoint {
                name: cfg.name,
                cursor,
                area: chip.die_area(),
                peak_power: chip.peak_power().total(),
                metrics,
            });
        }
    }));

    // The full 10^5-candidate sweep the issue's completion criterion is
    // about: run once at the host's default thread count, wall clock
    // only (a benched median would triple the cost for no extra
    // information). Skipped in quick mode.
    let (sweep_100k_ms, sweep_100k_cands) = if quick {
        (0.0, 0u64)
    } else {
        let grid = dse_axes(1000); // 2 x 2 x 5 x 5 x 1000 = 10^5
        memo::set_auto();
        mcpat_par::set_thread_override(0);
        let t = Instant::now();
        match mcpat::dse(&grid, &DseOptions::default(), &mut WorkloadModel::default()) {
            Ok(r) => {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                eprintln!(
                    "benchline: 10^5-candidate streaming sweep in {ms:.0} ms ({:.0} candidates/s): \
                     {} pruned, {} probes, {} full builds, frontier {}",
                    grid.total() as f64 / (ms / 1e3),
                    r.perf.pruned,
                    r.perf.probes,
                    r.perf.full_builds,
                    r.frontier.len()
                );
                (ms, grid.total())
            }
            Err(e) => die(&format!("10^5-candidate dse sweep failed: {e}")),
        }
    };

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let find = |n: &str| {
        rows.iter()
            .find(|r| r.name == n)
            .unwrap_or_else(|| die("missing benchmark row"))
    };
    let chip = find("chip_build_niagara2");
    let bisect_full = find("clock_bisection_full");
    let bisect_incr = find("clock_bisection_incremental");
    let chip_parallel_speedup = ratio(chip.serial_ms, chip.parallel_ms);
    let explore_parallel_speedup = explore_parallel_vs_serial(&chips16);
    let chip_warm_speedup = ratio(chip.serial_ms, chip.warm_cache_ms);
    let bisection_speedup = ratio(bisect_full.serial_ms, bisect_incr.serial_ms);

    // DSE throughput, compared within this run in the same mode
    // (serial, memo off) so the ratio is host-independent: how many
    // candidates per second the streaming engine retires vs the naive
    // loop that full-builds every candidate.
    let dse_row = find("dse_10k_candidates");
    let naive_row = find("dse_naive_1k_fullbuild");
    let dse_cands_per_sec = ratio(dse_grid.total() as f64, dse_row.serial_ms / 1e3);
    let naive_cands_per_sec = ratio(naive_grid.total() as f64, naive_row.serial_ms / 1e3);
    let dse_streaming_vs_naive = ratio(dse_cands_per_sec, naive_cands_per_sec);
    let dse_prune_rate = ratio(dse_perf.pruned as f64, dse_perf.candidates as f64);
    let dse_probe_vs_full = ratio(dse_perf.probes as f64, dse_perf.full_builds.max(1) as f64);
    // The worst of the three modes: memo-off runs re-solve every row
    // base, warm runs do not.
    let dse_allocs_per_candidate = ratio(
        dse_row
            .allocs_serial
            .max(dse_row.allocs_parallel)
            .max(dse_row.allocs_warm) as f64,
        dse_grid.total() as f64,
    );
    eprintln!(
        "benchline: dse streaming {dse_cands_per_sec:.0} candidates/s vs naive \
         {naive_cands_per_sec:.0} ({dse_streaming_vs_naive:.1}x); prune rate \
         {dse_prune_rate:.3}, {dse_probe_vs_full:.0} probes per full build, \
         {dse_allocs_per_candidate:.2} allocations per candidate"
    );

    // One parallel-mode 16-chip sweep with the pool's submission
    // counter bracketed around it. On a single-core host the parallel
    // path must degrade to fully inline execution — zero tasks handed
    // to the worker pool (the 1-CPU regression the explore gate below
    // pins); multi-core hosts record the count informationally.
    let explore_pool_submissions = {
        mcpat_par::set_thread_override(0);
        let before = mcpat_par::pool::stats().submitted;
        sweep(&chips16, "pool-probe dse sweep");
        mcpat_par::pool::stats().submitted - before
    };
    eprintln!(
        "benchline: parallel-mode 16-chip sweep submitted {explore_pool_submissions} pool \
         task(s) on this {host_threads}-way host; paired parallel-vs-serial ratio \
         {explore_parallel_speedup:.3}"
    );
    let warm_wakeups = warm_build_wakeups();
    eprintln!(
        "benchline: a warm niagara2 build woke the pool {warm_wakeups} time(s) \
         (gate ceiling {MAX_WARM_BUILD_WAKEUPS})"
    );

    // Baseline for the cold-build speedup row: the gate baseline when
    // one was named, else whatever JSON the out path currently holds
    // (the committed baseline, when regenerating in place). Read
    // before the write below replaces it.
    let baseline_for_speedup: Option<serde_json::Value> = gate_path
        .map(String::as_str)
        .into_iter()
        .chain(std::iter::once(out_path))
        .find_map(|p| {
            let text = std::fs::read_to_string(p).ok()?;
            serde_json::from_str(&text).ok()
        });
    let cold_build_speedup = cold_build_speedup_vs_baseline(
        baseline_for_speedup.as_ref(),
        &rows,
        &format!("{host_threads}cpu"),
    );
    if cold_build_speedup > 0.0 {
        eprintln!(
            "benchline: cold chip builds run {cold_build_speedup:.3}x the baseline's serial medians"
        );
    } else {
        eprintln!(
            "benchline: no comparable baseline for the cold-build speedup row (recorded as 0)"
        );
    }

    let trace_overhead_ratio = trace_disabled_overhead_ratio();
    eprintln!(
        "benchline: trace-disabled overhead ratio {trace_overhead_ratio:.4} \
         (scoped cold build vs plain; gate ceiling {MAX_TRACE_DISABLED_OVERHEAD})"
    );
    let guard_overhead_ratio = guard_disabled_overhead_ratio();
    eprintln!(
        "benchline: guard-disabled overhead ratio {guard_overhead_ratio:.4} \
         (budget-scoped cold build vs plain; gate ceiling {MAX_GUARD_DISABLED_OVERHEAD})"
    );

    // Serve daemon round-trip latency: cold (cache cleared per request)
    // vs warm (every solve resident in the shared cache), both over a
    // real loopback TCP connection to an in-process daemon.
    let serve = serve_probe();
    let serve_warm_vs_cold = ratio(serve.cold_ms, serve.warm_ms);
    let serve_warm_vs_build = ratio(serve.warm_server_ms, serve.warm_build_ms);
    eprintln!(
        "benchline: serve request cold {:.3} ms | warm shared-cache {:.3} ms \
         ({serve_warm_vs_cold:.1}x, ungated) | warm server-side {:.4} ms = \
         {serve_warm_vs_build:.2}x an in-process warm build of {:.4} ms (gate ceiling \
         {MAX_SERVE_WARM_VS_BUILD}x) | {} warm miss(es) (gate ceiling {MAX_SERVE_WARM_MISSES})",
        serve.cold_ms, serve.warm_ms, serve.warm_server_ms, serve.warm_build_ms, serve.warm_misses
    );
    print_span_summary();

    // Lint wall time: one full workspace self-lint.
    let lint_srcs = mcpat_lint::collect_workspace_sources(&mcpat_lint::default_root())
        .unwrap_or_else(|e| die(&format!("cannot enumerate lint sources: {e}")));
    let lint_cold_ms = median_ms(reps, || {
        let _ = mcpat_lint::lint_sources(&lint_srcs);
    });
    eprintln!(
        "benchline: workspace self-lint cold {lint_cold_ms:.3} ms ({} files)",
        lint_srcs.len()
    );

    let label = format!("{host_threads}cpu");
    let benchmarks: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            json!({
                "name": r.name,
                "serial_ms": r.serial_ms,
                "parallel_ms": r.parallel_ms,
                "warm_cache_ms": r.warm_cache_ms,
                "allocs_serial": r.allocs_serial,
                "allocs_parallel": r.allocs_parallel,
                "allocs_warm": r.allocs_warm,
            })
        })
        .collect();
    let record = json!({
        "schema": "mcpat-benchline-v1",
        "quick": quick,
        "reps_per_mode": reps,
        "revision": revision,
        "worktree": worktree,
        "host": {"available_parallelism": host_threads, "label": label},
        "units": "milliseconds, median of reps",
        "trace": {
            "disabled_overhead_ratio": trace_overhead_ratio,
            "max_allowed_ratio": MAX_TRACE_DISABLED_OVERHEAD,
        },
        "guard": {
            "disabled_overhead_ratio": guard_overhead_ratio,
            "max_allowed_ratio": MAX_GUARD_DISABLED_OVERHEAD,
        },
        "lint": {"files": lint_srcs.len(), "cold_ms": lint_cold_ms},
        "serve": {
            "cold_request_ms": serve.cold_ms,
            "warm_request_ms": serve.warm_ms,
            "warm_vs_cold_speedup": serve_warm_vs_cold,
            "warm_server_ms": serve.warm_server_ms,
            "warm_build_ms": serve.warm_build_ms,
            "warm_server_vs_build_ratio": serve_warm_vs_build,
            "max_allowed_server_vs_build_ratio": MAX_SERVE_WARM_VS_BUILD,
            "warm_misses": serve.warm_misses,
            "max_allowed_warm_misses": MAX_SERVE_WARM_MISSES,
            "round_trips": SERVE_ROUND_TRIPS,
        },
        "pool": {
            "warm_niagara2_build_wakeups": warm_wakeups,
            "max_allowed": MAX_WARM_BUILD_WAKEUPS,
        },
        "dse": {
            "candidates": dse_perf.candidates,
            "prune_rate": dse_prune_rate,
            "min_allowed_prune_rate": MIN_DSE_PRUNE_RATE,
            "probes": dse_perf.probes,
            "cache_rebuilds": dse_perf.cache_rebuilds,
            "full_builds": dse_perf.full_builds,
            "probe_vs_full_build_ratio": dse_probe_vs_full,
            "allocs_per_candidate": dse_allocs_per_candidate,
            "max_allowed_allocs_per_candidate": MAX_DSE_ALLOCS_PER_CANDIDATE,
            "candidates_per_sec_serial": dse_cands_per_sec,
            "naive_candidates_per_sec_serial": naive_cands_per_sec,
            "streaming_vs_naive_speedup": dse_streaming_vs_naive,
            "min_allowed_streaming_speedup": MIN_DSE_STREAMING_SPEEDUP,
            "explore_pool_submissions_on_host": explore_pool_submissions,
            "sweep_100k_candidates": sweep_100k_cands,
            "sweep_100k_wall_ms": sweep_100k_ms,
        },
        "benchmarks": benchmarks,
        "speedups": {
            "cold_build_speedup_vs_baseline": cold_build_speedup,
            "chip_build_parallel_vs_serial": chip_parallel_speedup,
            "explore_parallel_vs_serial": explore_parallel_speedup,
            "chip_build_warm_cache_vs_cold": chip_warm_speedup,
            "bisection_incremental_vs_full": bisection_speedup,
        },
    });
    let mut json = serde_json::to_string_pretty(&record).unwrap_or_default();
    json.push('\n');

    if let Err(e) = std::fs::write(out_path, &json) {
        die(&format!("cannot write {out_path}: {e}"));
    }
    eprintln!("benchline: wrote {out_path}");

    if let Some(gate_path) = gate_path {
        let text = std::fs::read_to_string(gate_path)
            .unwrap_or_else(|e| die(&format!("cannot read gate baseline {gate_path}: {e}")));
        let baseline: serde_json::Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| die(&format!("gate baseline {gate_path} is not JSON: {e}")));
        let failures = gate_failures(
            &baseline,
            &rows,
            explore_parallel_speedup,
            trace_overhead_ratio,
            guard_overhead_ratio,
            dse_streaming_vs_naive,
            dse_prune_rate,
            dse_allocs_per_candidate,
            &serve,
            explore_pool_submissions,
            warm_wakeups,
            host_threads,
            &label,
            reps,
        );
        if failures.is_empty() {
            eprintln!("benchline: gate passed against {gate_path}");
        } else {
            for f in &failures {
                eprintln!("benchline: GATE FAILURE: {f}");
            }
            die(&format!(
                "{} regression(s) against {gate_path}",
                failures.len()
            ));
        }
    }
}
