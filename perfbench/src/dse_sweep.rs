//! `dse_sweep`: one caller, closed loop; each op is one full streaming
//! `mcpat::dse` sweep of a fixed 20,000-candidate grid (see README.md
//! for why this workload exists).

use crate::measure::{self, median, rng_at, secs, time_us, Digest, Metrics, OpSample, Timed};
use crate::Outcome;
use mcpat::array::memo;
use mcpat::tech::{DeviceType, TechNode};
use mcpat::{
    AxisGrid, Delta, DseEvaluator, DseOptions, DseResult, FrontierPoint, McpatError, Metric,
    ParetoFrontier, Processor, WorkloadModel,
};
use std::time::Instant;

/// Clock points per row: 2 nodes × 2 flavors × 5 core counts × 5 L2
/// sizes × 200 clocks = 20,000 candidates.
const CLOCKS: usize = 200;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// The traced replay probes every `REPLAY_STRIDE`-th clock of each row.
const REPLAY_STRIDE: u64 = 4;

/// The grid, clock-innermost. The seed shifts the clock axis by up to
/// 1%, which changes the candidates but not the amount of work.
#[must_use]
pub fn grid(seed: u64) -> AxisGrid {
    let lo = 1.0e9 * (1.0 + 0.01 * rng_at(seed, 3, 0).unit());
    let step = 2.0e9 / (CLOCKS - 1) as f64;
    AxisGrid::manycore(
        vec![TechNode::N45, TechNode::N32],
        vec![DeviceType::Hp, DeviceType::Lop],
        vec![2, 4, 8, 12, 16],
        vec![512 * 1024, 1 << 20, 2 << 20, 4 << 20, 8 << 20],
        (0..CLOCKS).map(|i| lo + step * i as f64).collect(),
    )
}

fn sweep(grid: &AxisGrid) -> Result<DseResult, McpatError> {
    mcpat::dse(grid, &DseOptions::default(), &mut WorkloadModel::default())
}

/// Digest of a sweep's outcome: every frontier point's bits, the
/// per-metric winners, and the decision counters.
#[must_use]
pub fn frontier_digest(r: &DseResult) -> u64 {
    let mut d = Digest::default();
    for p in r.frontier.points() {
        d.u64(p.cursor)
            .f64(p.area)
            .f64(p.peak_power)
            .f64(p.metrics.delay)
            .f64(p.metrics.energy)
            .f64(p.metrics.area);
    }
    for m in Metric::ALL {
        d.u64(r.frontier.best(m).map_or(u64::MAX, |w| w.cursor));
    }
    d.u64(r.perf.candidates)
        .u64(r.perf.pruned)
        .u64(r.perf.rejected)
        .value()
}

/// Rebuilds every frontier point and per-metric winner from scratch and
/// lists each one whose area, peak power or metrics differ in any bit,
/// or are not positive.
#[must_use]
pub fn verify_frontier(grid: &AxisGrid, r: &DseResult) -> Vec<String> {
    let mut bad = Vec::new();
    let winners = Metric::ALL.iter().filter_map(|&m| r.frontier.best(m));
    for p in r.frontier.points().iter().chain(winners) {
        let Some(cfg) = grid.config_at(p.cursor) else {
            bad.push(format!("dse point {} is outside the grid", p.cursor));
            continue;
        };
        let chip = match Processor::build(&cfg) {
            Ok(chip) => chip,
            Err(e) => {
                bad.push(format!(
                    "dse point {}: from-scratch build failed: {e}",
                    p.cursor
                ));
                continue;
            }
        };
        let m = WorkloadModel::default().evaluate(&chip);
        let same = p.area.to_bits() == chip.die_area().to_bits()
            && p.peak_power.to_bits() == chip.peak_power().total().to_bits()
            && p.metrics.delay.to_bits() == m.delay.to_bits()
            && p.metrics.energy.to_bits() == m.energy.to_bits()
            && p.metrics.area.to_bits() == m.area.to_bits();
        if !same {
            bad.push(format!(
                "dse point {}: differs from a from-scratch build",
                p.cursor
            ));
        }
        if !(measure::positive(p.area) && measure::positive(p.peak_power)) {
            bad.push(format!(
                "dse point {}: non-positive area or power",
                p.cursor
            ));
        }
    }
    if r.frontier.is_empty() {
        bad.push("dse frontier is empty".to_owned());
    }
    bad
}

/// Set-up: the first sweep from an empty cache, repeated. Returns the
/// grid, the median set-up time, and the reference sweep.
fn setup(seed: u64) -> Result<(AxisGrid, f64, DseResult), String> {
    let grid = grid(seed);
    let mut samples = Vec::new();
    let mut reference: Option<DseResult> = None;
    for _ in 0..SETUP_REPS {
        memo::clear();
        let t = Instant::now();
        let r = sweep(&grid).map_err(|e| format!("set-up sweep: {e}"))?;
        samples.push(secs(t));
        if let Some(first) = &reference {
            if frontier_digest(first) != frontier_digest(&r) {
                return Err("set-up sweeps disagree".to_owned());
            }
        }
        reference = Some(r);
    }
    let reference = reference.ok_or("no set-up repetition ran")?;
    Ok((grid, median(&samples), reference))
}

/// The closed loop for `seconds`; every sweep must reproduce the
/// reference digest.
fn timed(grid: &AxisGrid, seconds: f64, reference: u64, mismatches: &mut Vec<String>) -> Timed {
    measure::closed_loop(seconds, |start| {
        let t0 = Instant::now();
        let r = sweep(grid);
        let sample = OpSample::now(start, t0, r.as_ref().ok().map(|r| r.perf.candidates as f64));
        match r {
            Ok(r) if frontier_digest(&r) != reference => {
                mismatches.push("dse sweep: frontier differs from the reference sweep".into());
            }
            Ok(_) => {}
            Err(e) => eprintln!("dse_sweep: sweep failed: {e}"),
        }
        sample
    })
}

/// The untraced run: set-up, timed loop, frontier verification.
///
/// # Errors
///
/// A set-up sweep that fails or disagrees with itself.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (grid, setup_s, reference) = setup(seed)?;
    let digest = frontier_digest(&reference);
    let mut mismatches = Vec::new();
    let t = timed(&grid, seconds, digest, &mut mismatches);
    mismatches.extend(verify_frontier(&grid, &reference));
    Ok(Outcome {
        attempted: t.attempted(),
        failed: t.failed,
        metrics: measure::end_to_end(setup_s, &t, measure::model_err_pct()?),
        mismatches,
        digests: vec![("dse_sweep", digest)],
        notes: vec![measure::host_note("dse_sweep", &t)],
    })
}

/// Per-candidate layer timings from a replay of the grid.
#[derive(Default)]
struct Replay {
    config_at: Vec<f64>,
    lower_bound: Vec<f64>,
    rebuild_clock: Vec<f64>,
    rebuild_cache: Vec<f64>,
    evaluate: Vec<f64>,
    offer: Vec<f64>,
}

/// Walks the grid the way the engine does — a row base per (node,
/// flavor, cores, L2), advanced by an L2 resize inside a group — and
/// times each public call the engine makes per candidate.
fn replay(grid: &AxisGrid) -> Result<Replay, String> {
    let err = |e: McpatError| format!("dse replay: {e}");
    let clocks = grid.clocks_hz.len() as u64;
    let l2_len = grid.l2_bytes.len() as u64;
    let mut eval = WorkloadModel::default();
    let mut frontier = ParetoFrontier::new();
    let mut r = Replay::default();
    let mut prev: Option<Processor> = None;
    for row in 0..grid.total() / clocks {
        let base_cfg = grid
            .config_at(row * clocks)
            .ok_or("dse replay: row outside grid")?;
        let base = match (prev.take(), &base_cfg.l2) {
            (Some(p), Some(l2)) if row % l2_len != 0 => {
                let (b, us) = time_us(|| p.rebuild_with(Delta::CacheSize(l2.cache.capacity)));
                r.rebuild_cache.push(us);
                b.map_err(err)?
            }
            _ => Processor::build(&base_cfg).map_err(err)?,
        };
        for c in (0..clocks).step_by(REPLAY_STRIDE as usize) {
            let cursor = row * clocks + c;
            let (cfg, us) = time_us(|| grid.config_at(cursor));
            r.config_at.push(us);
            let cfg = cfg.ok_or("dse replay: cursor outside grid")?;
            let (_, us) = time_us(|| eval.lower_bound(&base, &cfg));
            r.lower_bound.push(us);
            let (chip, us) = time_us(|| base.rebuild_with(Delta::Clock(cfg.clock_hz)));
            r.rebuild_clock.push(us);
            let chip = chip.map_err(err)?;
            let (metrics, us) = time_us(|| eval.evaluate(&chip));
            r.evaluate.push(us);
            let point = FrontierPoint {
                name: cfg.name,
                cursor,
                area: chip.die_area(),
                peak_power: chip.peak_power().total(),
                metrics,
            };
            let (_, us) = time_us(|| frontier.offer(point));
            r.offer.push(us);
        }
        prev = Some(base);
    }
    Ok(r)
}

/// The traced run: an untraced loop for half the time, then sweeps with
/// allocation counting for the other half, then one replay of the grid
/// with a span around each per-candidate call.
///
/// # Errors
///
/// A set-up sweep or replay call that fails.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (grid, _, reference) = setup(seed)?;
    let digest = frontier_digest(&reference);
    let mut mismatches = Vec::new();
    let untraced = timed(&grid, seconds / 2.0, digest, &mut mismatches);

    measure::set_alloc_counting(true);
    let a0 = measure::allocs();
    let traced = timed(&grid, seconds / 2.0, digest, &mut mismatches);
    let allocs = measure::allocs() - a0;
    measure::set_alloc_counting(false);
    let rp = replay(&grid)?;

    let perf = reference.perf;
    let cands = perf.candidates.max(1) as f64;
    let f = &reference.frontier;
    let untraced_p50 = measure::percentile(&untraced.sorted_latencies(), 0.5);
    let traced_p50 = measure::percentile(&traced.sorted_latencies(), 0.5);
    let mut m = Metrics::default();
    m.push("dse.sweep_ms", traced_p50, "ms");
    m.push("dse.prune_ratio", perf.pruned as f64 / cands, "ratio");
    m.push("dse.reject_ratio", perf.rejected as f64 / cands, "ratio");
    m.push("dse.probes_per_sweep", perf.probes as f64, "count");
    m.push(
        "dse.full_builds_per_sweep",
        perf.full_builds as f64,
        "count",
    );
    m.push(
        "dse.cache_rebuilds_per_sweep",
        perf.cache_rebuilds as f64,
        "count",
    );
    m.push("dse.deduped_per_sweep", perf.deduped as f64, "count");
    m.push(
        "dse.allocs_per_candidate",
        allocs as f64 / traced.samples.iter().map(|s| s.units).sum::<f64>().max(1.0),
        "count",
    );
    m.push("core.rebuild_clock_us", median(&rp.rebuild_clock), "us");
    m.push("core.rebuild_cache_us", median(&rp.rebuild_cache), "us");
    m.push("dse.config_at_us", median(&rp.config_at), "us");
    m.push("dse.evaluate_us", median(&rp.evaluate), "us");
    m.push("dse.lower_bound_us", median(&rp.lower_bound), "us");
    m.push("frontier.offer_us", median(&rp.offer), "us");
    m.push(
        "frontier.admit_ratio",
        f.admitted() as f64 / f.offered().max(1) as f64,
        "ratio",
    );
    m.push("frontier.points", f.len() as f64, "count");
    m.push("dse_sweep.untraced_p50_ms", untraced_p50, "ms");
    m.push("dse_sweep.traced_p50_ms", traced_p50, "ms");
    m.push(
        "dse_sweep.trace_overhead_ratio",
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
