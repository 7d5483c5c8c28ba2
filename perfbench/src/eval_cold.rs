//! `eval_cold`: one caller, closed loop; each op is the one-shot
//! library path `Processor::build` → `runtime_power` → `report` on a
//! configuration no earlier op used, so every array solve misses the
//! solve cache (see README.md for why this workload exists).

use crate::measure::{
    self, median, rng_at, secs, time_us, unique_temperature, Digest, Metrics, OpSample, Timed,
};
use crate::Outcome;
use mcpat::array::memo;
use mcpat::interconnect::noc::NocConfig;
use mcpat::mcore::config::CoreConfig;
use mcpat::mcore::core::CoreModel;
use mcpat::par::pool;
use mcpat::tech::{DeviceType, TechNode, TechParams};
use mcpat::uncore::clock::ClockNetwork;
use mcpat::uncore::memctrl::MemCtrl;
use mcpat::uncore::shared_cache::SharedCache;
use mcpat::{ChipStats, McpatError, Processor, ProcessorConfig};
use mcpat_sim::{SystemModel, WorkloadProfile};
use std::time::{Duration, Instant};

/// Generator streams.
const OP_STREAM: u64 = 1;
const FILL_STREAM: u64 = 2;

/// Temperature-index regions: timed op `i` uses index `i`, its traced
/// component twin `TWIN + i`, and cache-fill op `j` uses `FILL + j`, so
/// no two of them share a solve-cache key.
const TWIN: u64 = 1 << 38;
const FILL: u64 = 1 << 39;

/// Cold ops run during set-up to fill the 4096-entry solve cache
/// (~22 entries per op), so timing starts in the steady state where
/// every insert also evicts.
const FILL_OPS: u64 = 200;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Index of the Tulsa preset in [`bases`].
const TULSA: usize = 3;

/// Ops re-evaluated after the timed phase. Their digest is printed: it
/// depends on the seed and the model, not on how many ops ran.
const VERIFY_OPS: u64 = 64;

/// A base configuration and its precomputed activity statistics.
pub struct Base {
    pub cfg: ProcessorConfig,
    pub stats: ChipStats,
}

/// The four validation presets plus `ProcessorConfig::manycore`
/// variants over node, device flavor, core count and L2 size, each with
/// statistics from the analytic simulator.
#[must_use]
pub fn bases() -> Vec<Base> {
    let mut cfgs = vec![
        ProcessorConfig::niagara(),
        ProcessorConfig::niagara2(),
        ProcessorConfig::alpha21364(),
        ProcessorConfig::tulsa(),
    ];
    for node in [TechNode::N90, TechNode::N65, TechNode::N45, TechNode::N32] {
        for device in [DeviceType::Hp, DeviceType::Lstp, DeviceType::Lop] {
            for cores in [4, 8, 16] {
                for l2_kib in [512u64, 1024, 2048] {
                    let mut cfg = ProcessorConfig::manycore(
                        &format!("mc{}", cfgs.len()),
                        node,
                        CoreConfig::generic_inorder(),
                        cores,
                        2,
                        l2_kib * 1024,
                    );
                    cfg.device_type = device;
                    cfgs.push(cfg);
                }
            }
        }
    }
    let profiles = [
        WorkloadProfile::balanced(),
        WorkloadProfile::server_transactional(),
        WorkloadProfile::compute_bound(),
        WorkloadProfile::memory_bound(),
    ];
    cfgs.into_iter()
        .zip(profiles.iter().cycle())
        .map(|(cfg, wl)| {
            let stats = SystemModel::new(&cfg).simulate(wl, 10_000_000).stats;
            Base { cfg, stats }
        })
        .collect()
}

/// Seeded op inputs.
pub struct Inputs {
    seed: u64,
    bases: Vec<Base>,
}

impl Inputs {
    #[must_use]
    pub fn new(seed: u64) -> Inputs {
        Inputs {
            seed,
            bases: bases(),
        }
    }

    /// A fifth of the ops build Tulsa, the largest and slowest chip, a
    /// fifth one of the other three presets, and the rest a manycore
    /// variant. So p90 falls in the middle of the Tulsa mode, not on the
    /// sparse edge between it and the rest, where host jitter moves it.
    fn base(&self, stream: u64, i: u64) -> &Base {
        let mut r = rng_at(self.seed, stream, i);
        let idx = match r.below(5) {
            0 => TULSA,
            1 => r.below(3),
            _ => 4 + r.below(self.bases.len() - 4),
        };
        &self.bases[idx]
    }

    fn at(&self, stream: u64, i: u64, temp_index: u64) -> (ProcessorConfig, &ChipStats) {
        let base = self.base(stream, i);
        let mut cfg = base.cfg.clone();
        cfg.temperature_k = unique_temperature(self.seed, temp_index);
        (cfg, &base.stats)
    }

    /// Timed op `i`.
    #[must_use]
    pub fn op(&self, i: u64) -> (ProcessorConfig, &ChipStats) {
        self.at(OP_STREAM, i, i)
    }
}

/// The op: build, runtime power, report.
fn op(cfg: &ProcessorConfig, stats: &ChipStats) -> Result<(Processor, f64, String), McpatError> {
    let chip = Processor::build(cfg)?;
    let runtime = chip.runtime_power(stats).total();
    let report = chip.report();
    Ok((chip, runtime, report))
}

/// Digest of one op's outputs, or the reason they are wrong.
fn check(chip: &Processor, runtime_w: f64, report: &str) -> Result<u64, String> {
    let peak = chip.peak_power().total();
    let area = chip.die_area_mm2();
    if !(measure::positive(peak) && measure::positive(area) && measure::positive(runtime_w)) {
        return Err(format!(
            "{}: non-positive output (peak {peak} W, runtime {runtime_w} W, area {area} mm^2)",
            chip.config.name
        ));
    }
    Ok(Digest::default()
        .f64(peak)
        .f64(area)
        .f64(runtime_w)
        .bytes(measure::model_text(report).as_bytes())
        .value())
}

/// Set-up: generate inputs, build the four presets cold (the first
/// repetition also pays lazy init and pool spawn), and fill the solve
/// cache with cold ops. Returns the inputs and the median set-up time.
fn setup(seed: u64) -> Result<(Inputs, f64), String> {
    let mut samples = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        memo::clear();
        let t = Instant::now();
        let inp = Inputs::new(seed);
        for base in inp.bases.iter().take(4) {
            Processor::build(&base.cfg).map_err(|e| format!("preset {}: {e}", base.cfg.name))?;
        }
        for j in 0..FILL_OPS {
            let (cfg, stats) = inp.at(FILL_STREAM, j, FILL + j);
            let (chip, runtime, report) = op(&cfg, stats).map_err(|e| format!("fill op: {e}"))?;
            check(&chip, runtime, &report)?;
        }
        samples.push(secs(t));
        inputs = Some(inp);
    }
    let inputs = inputs.ok_or("no set-up repetition ran")?;
    Ok((inputs, median(&samples)))
}

/// The untraced closed loop from op 0 for `seconds`. Returns the
/// observations and each op's output digest (0 for a failed op).
fn timed(inputs: &Inputs, seconds: f64, mismatches: &mut Vec<String>) -> (Timed, Vec<u64>) {
    let mut digests = Vec::new();
    let t = measure::closed_loop(seconds, |start| {
        let i = digests.len() as u64;
        let (cfg, stats) = inputs.op(i);
        let t0 = Instant::now();
        let out = op(&cfg, stats);
        let sample = OpSample::now(start, t0, out.as_ref().ok().map(|_| 1.0));
        let digest = match out {
            Ok((chip, runtime, report)) => check(&chip, runtime, &report),
            Err(e) => {
                eprintln!("eval_cold: op {i} failed: {e}");
                Ok(0)
            }
        };
        digests.push(digest.unwrap_or_else(|e| {
            mismatches.push(e);
            0
        }));
        sample
    });
    (t, digests)
}

/// Compares a later evaluation of op `i` with the timed run's digest.
///
/// # Errors
///
/// The mismatch, when the timed run recorded op `i` with other outputs.
pub fn compare_digest(i: u64, timed: &[u64], digest: u64) -> Result<(), String> {
    match timed.get(i as usize) {
        Some(&d) if d != digest => Err(format!(
            "eval_cold op {i}: outputs differ between runs ({d:016x} vs {digest:016x})"
        )),
        _ => Ok(()),
    }
}

/// Re-evaluates the first [`VERIFY_OPS`] ops, compares them with the
/// timed run, and returns their combined digest.
fn verify(inputs: &Inputs, timed: &[u64], mismatches: &mut Vec<String>) -> Result<u64, String> {
    let mut all = Digest::default();
    for i in 0..VERIFY_OPS {
        let (cfg, stats) = inputs.op(i);
        let (chip, runtime, report) = op(&cfg, stats).map_err(|e| format!("verify op {i}: {e}"))?;
        let d = check(&chip, runtime, &report)?;
        if let Err(e) = compare_digest(i, timed, d) {
            mismatches.push(e);
        }
        all.u64(d);
    }
    Ok(all.value())
}

/// The untraced run: set-up, timed loop, verification.
///
/// # Errors
///
/// A set-up or verification op that fails outright.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (inputs, setup_s) = setup(seed)?;
    let mut mismatches = Vec::new();
    let (t, digests) = timed(&inputs, seconds, &mut mismatches);
    let digest = verify(&inputs, &digests, &mut mismatches)?;
    Ok(Outcome {
        attempted: t.attempted(),
        failed: t.failed,
        metrics: measure::end_to_end(setup_s, &t, measure::model_err_pct()?),
        mismatches,
        digests: vec![("eval_cold", digest)],
        notes: vec![measure::host_note("eval_cold", &t)],
    })
}

/// Per-layer samples of the traced loop.
#[derive(Default)]
struct Layers {
    validate: Vec<f64>,
    derive: Vec<f64>,
    mcore: Vec<f64>,
    caches: Vec<f64>,
    mc: Vec<f64>,
    noc: Vec<f64>,
    clock: Vec<f64>,
    build: Vec<f64>,
    build_warm: Vec<f64>,
    runtime: Vec<f64>,
    report: Vec<f64>,
    op_ms: Vec<f64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    allocs: u64,
    submitted: u64,
    steals: u64,
    inline: u64,
}

/// Times each component layer on a twin of op `i` (same configuration
/// at a fresh temperature, so each call meets a cold cache, as the
/// timed op does), then op `i` itself with cache, pool and allocation
/// counts around its cold build. Returns op `i`'s output digest.
fn traced_op(inputs: &Inputs, i: u64, l: &mut Layers) -> Result<u64, String> {
    let err = |e: &dyn std::fmt::Display| format!("traced op {i}: {e}");
    let (twin, _) = inputs.at(OP_STREAM, i, TWIN + i);

    let (_, us) = time_us(|| twin.validate());
    l.validate.push(us);
    let (tech, us) = time_us(|| {
        TechParams::new(twin.node, twin.device_type, twin.temperature_k)
            .with_projection(twin.projection)
            .with_long_channel_leakage(twin.long_channel_leakage)
    });
    l.derive.push(us);
    let mut core_cfg = twin.core.clone();
    core_cfg.clock_hz = twin.clock_hz;
    let (core, us) = time_us(|| CoreModel::build(&tech, &core_cfg));
    l.mcore.push(us);
    let core = core.map_err(|e| err(&e))?;
    let ((l2, l3), us) = time_us(|| {
        (
            twin.l2.as_ref().map(|c| c.build(&tech)).transpose(),
            twin.l3.as_ref().map(|c| c.build(&tech)).transpose(),
        )
    });
    l.caches.push(us);
    let (l2, l3) = (l2.map_err(|e| err(&e))?, l3.map_err(|e| err(&e))?);
    let mc_area = match &twin.mc {
        Some(mc_cfg) => {
            let (mc, us) = time_us(|| MemCtrl::build(&tech, mc_cfg));
            l.mc.push(us);
            mc.map_err(|e| err(&e))?.area()
        }
        None => 0.0,
    };
    let l2_area = l2.as_ref().map_or(0.0, SharedCache::area);
    let noc_cfg = NocConfig {
        topology: twin.fabric.topology,
        flit_bits: twin.fabric.flit_bits,
        vcs_per_port: twin.fabric.vcs_per_port,
        buffers_per_vc: twin.fabric.buffers_per_vc,
        link_length: (core.area() * f64::from(twin.cores_per_cluster()) + l2_area)
            .max(1e-12)
            .sqrt(),
        clock_hz: twin.clock_hz,
    };
    let (noc, us) = time_us(|| noc_cfg.build(&tech));
    l.noc.push(us);
    let noc = noc.map_err(|e| err(&e))?;
    // The clock network over the die these components span, loaded as
    // `Processor::build` loads it (whitespace factor 1.25, per-core
    // latch load plus ~4 pF/mm² of periphery).
    let die_area = 1.25
        * (core.area() * f64::from(twin.num_cores)
            + l2_area * f64::from(twin.num_l2s)
            + l3.as_ref().map_or(0.0, SharedCache::area)
            + noc.area()
            + mc_area);
    let vdd = tech.device.vdd;
    let sink_cap = f64::from(twin.num_cores) * 2.0 * core.pipeline.clock_energy_per_cycle
        / (vdd * vdd)
        + 2e-6 * die_area;
    let edge = die_area.sqrt();
    let (_, us) = time_us(|| ClockNetwork::new(&tech, edge, edge, twin.clock_hz, sink_cap));
    l.clock.push(us);

    let (cfg, stats) = inputs.op(i);
    let (memo0, pool0) = (memo::stats(), pool::stats());
    measure::set_alloc_counting(true);
    let a0 = measure::allocs();
    let (chip, build_us) = time_us(|| Processor::build(&cfg));
    let a1 = measure::allocs();
    measure::set_alloc_counting(false);
    let (memo1, pool1) = (memo::stats(), pool::stats());
    let chip = chip.map_err(|e| err(&e))?;
    let (warm, warm_us) = time_us(|| Processor::build(&cfg));
    warm.map_err(|e| err(&e))?;
    measure::set_alloc_counting(true);
    let a2 = measure::allocs();
    let (runtime, runtime_us) = time_us(|| chip.runtime_power(stats).total());
    let (report, report_us) = time_us(|| chip.report());
    let a3 = measure::allocs();
    measure::set_alloc_counting(false);

    l.build.push(build_us);
    l.build_warm.push(warm_us);
    l.runtime.push(runtime_us);
    l.report.push(report_us);
    l.op_ms.push((build_us + runtime_us + report_us) / 1e3);
    l.hits += memo1.hits - memo0.hits;
    l.misses += memo1.misses - memo0.misses;
    l.evictions += memo1.evictions - memo0.evictions;
    l.allocs += (a1 - a0) + (a3 - a2);
    l.submitted += pool1.submitted - pool0.submitted;
    l.steals += pool1.steals - pool0.steals;
    l.inline += pool1.inline_execs - pool0.inline_execs;
    check(&chip, runtime, &report)
}

/// The traced run: an untraced loop for half the time, then the traced
/// loop over the same ops (from op 0) for the other half. Each traced
/// op must reproduce the untraced op's outputs exactly.
///
/// # Errors
///
/// A set-up or traced op that fails outright.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (inputs, _) = setup(seed)?;
    let mut mismatches = Vec::new();
    let (untraced, digests) = timed(&inputs, seconds / 2.0, &mut mismatches);

    let mut l = Layers::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    let mut i = 0u64;
    while Instant::now() < deadline && (i as usize) < digests.len() {
        let d = traced_op(&inputs, i, &mut l)?;
        if let Err(e) = compare_digest(i, &digests, d) {
            mismatches.push(e);
        }
        i += 1;
    }
    let ops = i.max(1) as f64;
    let per_op = |n: u64| n as f64 / ops;
    let build = median(&l.build);
    let untraced_p50 = measure::percentile(&untraced.sorted_latencies(), 0.5);
    let traced_p50 = median(&l.op_ms);

    let mut m = Metrics::default();
    m.push("core.validate_us", median(&l.validate), "us");
    m.push("tech.derive_us", median(&l.derive), "us");
    m.push("mcore.build_us", median(&l.mcore), "us");
    m.push("uncore.cache_build_us", median(&l.caches), "us");
    m.push("uncore.mc_build_us", median(&l.mc), "us");
    m.push("uncore.clock_us", median(&l.clock), "us");
    m.push("interconnect.noc_build_us", median(&l.noc), "us");
    m.push("core.build_us", build, "us");
    m.push("core.build_warm_us", median(&l.build_warm), "us");
    m.push(
        "array.solve_share",
        (build - median(&l.build_warm)) / build,
        "ratio",
    );
    m.push("array.misses_per_op", per_op(l.misses), "count");
    m.push("array.hits_per_op", per_op(l.hits), "count");
    m.push("array.evictions_per_op", per_op(l.evictions), "count");
    m.push(
        "array.hit_ratio",
        l.hits as f64 / (l.hits + l.misses).max(1) as f64,
        "ratio",
    );
    m.push("core.runtime_power_us", median(&l.runtime), "us");
    m.push("core.report_us", median(&l.report), "us");
    m.push("core.allocs_per_op", per_op(l.allocs), "count");
    m.push("par.submitted_per_op", per_op(l.submitted), "count");
    m.push("par.steals_per_op", per_op(l.steals), "count");
    m.push("par.inline_per_op", per_op(l.inline), "count");
    m.push("eval_cold.untraced_p50_ms", untraced_p50, "ms");
    m.push("eval_cold.traced_p50_ms", traced_p50, "ms");
    m.push(
        "eval_cold.trace_overhead_ratio",
        traced_p50 / untraced_p50,
        "ratio",
    );
    Ok(Outcome {
        attempted: untraced.attempted() + i,
        failed: untraced.failed,
        metrics: m,
        mismatches,
        digests: Vec::new(),
        notes: Vec::new(),
    })
}
