#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Bit-identity guarantees of the parallel/memoized evaluation paths.
//!
//! The perf work (threaded array sweeps, chip-build fan-out, and the
//! content-addressed solve cache) must be *invisible* in the results:
//! every mode — serial, any thread count, warm cache — has to produce
//! bit-for-bit the same chip. These tests enforce that on the paper's
//! validation presets.
//!
//! All tests here flip process-global knobs (thread override, cache
//! mode), so they serialize on one mutex and restore the defaults
//! before releasing it.

mod support;

use mcpat::array::memo;
use mcpat::{
    dse, max_clock_under_power_budget, AxisGrid, DseOptions, Processor, ProcessorConfig,
    WorkloadModel,
};
use mcpat_mcore::config::CoreConfig;
use mcpat_tech::{DeviceType, TechNode};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Counts heap allocations so the allocation-ceiling test can bill a
/// cold sweep through a scoped collector.
#[global_allocator]
static GLOBAL: mcpat::obs::CountingAlloc = mcpat::obs::CountingAlloc;

/// Serializes every test that touches the global thread/cache knobs.
fn knob_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    lock.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores the default knobs when a test exits (even by panic).
struct KnobReset;
impl Drop for KnobReset {
    fn drop(&mut self) {
        mcpat::par::set_thread_override(0);
        memo::set_auto();
        mcpat::obs::set_tracing(false);
        mcpat::array::solve::set_reference_mode(false);
    }
}

fn presets() -> Vec<ProcessorConfig> {
    vec![
        ProcessorConfig::niagara(),
        ProcessorConfig::niagara2(),
        ProcessorConfig::alpha21364(),
        ProcessorConfig::tulsa(),
    ]
}

/// Every externally observable f64 of a built chip, as exact bit
/// patterns: peak-power breakdown, per-unit core detail, area
/// breakdown, timing roll-up, and die area. Names ride along so a
/// mismatch points at the component, not just an index.
fn fingerprint(chip: &Processor) -> Vec<(String, u64)> {
    let mut v = Vec::new();
    let power = chip.peak_power();
    for item in &power.items {
        v.push((format!("{}.dynamic", item.name), item.dynamic.to_bits()));
        v.push((
            format!("{}.sub", item.name),
            item.leakage.subthreshold.to_bits(),
        ));
        v.push((format!("{}.gate", item.name), item.leakage.gate.to_bits()));
    }
    for item in &power.core_detail.items {
        v.push((
            format!("core.{}.dynamic", item.name),
            item.dynamic.to_bits(),
        ));
        v.push((
            format!("core.{}.leak", item.name),
            item.leakage.total().to_bits(),
        ));
    }
    for item in chip.area_breakdown() {
        v.push((format!("area.{}", item.name), item.area.to_bits()));
    }
    let t = chip.timing();
    v.push(("timing.fo4".into(), t.fo4.to_bits()));
    v.push((
        "timing.core_max_clock".into(),
        t.core_max_clock_hz.to_bits(),
    ));
    v.push(("timing.l2_cycle".into(), t.l2_cycle_time.to_bits()));
    v.push(("die_area".into(), chip.die_area().to_bits()));
    v
}

fn assert_identical(a: &[(String, u64)], b: &[(String, u64)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: fingerprint lengths differ");
    for ((na, xa), (nb, xb)) in a.iter().zip(b) {
        assert_eq!(na, nb, "{what}: component order differs");
        assert_eq!(
            xa,
            xb,
            "{what}: `{na}` differs: {:e} vs {:e}",
            f64::from_bits(*xa),
            f64::from_bits(*xb)
        );
    }
}

/// Sixteen distinct chips, one clock each: the grid of benchline's
/// `dse_16_chips` row.
fn sixteen_chips() -> AxisGrid {
    AxisGrid::manycore(
        vec![TechNode::N32],
        vec![DeviceType::Hp],
        vec![2, 4, 6, 8],
        vec![1 << 20, 2 << 20, 3 << 20, 4 << 20],
        vec![1.4e9],
    )
}

#[test]
fn serial_and_parallel_builds_are_bit_identical() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    memo::set_enabled(false);
    for cfg in presets() {
        mcpat::par::set_thread_override(1);
        let serial = fingerprint(&Processor::build(&cfg).unwrap());
        mcpat::par::set_thread_override(4);
        let parallel = fingerprint(&Processor::build(&cfg).unwrap());
        assert_identical(&serial, &parallel, &cfg.name);
    }
}

#[test]
fn every_thread_count_is_bit_identical() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    memo::set_enabled(false);
    let cfg = ProcessorConfig::niagara2();
    mcpat::par::set_thread_override(1);
    let reference = fingerprint(&Processor::build(&cfg).unwrap());
    for threads in [2, 3, 8, 16] {
        mcpat::par::set_thread_override(threads);
        let fp = fingerprint(&Processor::build(&cfg).unwrap());
        assert_identical(&reference, &fp, &format!("{} threads", threads));
    }
}

#[test]
fn warm_cache_build_equals_cold_field_for_field() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    mcpat::par::set_thread_override(1);
    memo::set_enabled(true);
    memo::clear();
    for cfg in presets() {
        memo::clear();
        let cold_chip = Processor::build(&cfg).unwrap();
        assert!(
            cold_chip.perf.solve_cache_misses > 0,
            "{}: cold build should miss the empty cache",
            cfg.name
        );
        let warm_chip = Processor::build(&cfg).unwrap();
        assert!(
            warm_chip.perf.solve_cache_hits > 0,
            "{}: warm build should hit the populated cache",
            cfg.name
        );
        assert_eq!(
            warm_chip.perf.solve_cache_misses, 0,
            "{}: warm build should not miss",
            cfg.name
        );
        assert_identical(
            &fingerprint(&cold_chip),
            &fingerprint(&warm_chip),
            &cfg.name,
        );
    }
}

#[test]
fn cached_solve_equals_uncached_across_presets() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    mcpat::par::set_thread_override(1);
    for cfg in presets() {
        memo::set_enabled(false);
        let uncached = fingerprint(&Processor::build(&cfg).unwrap());
        memo::set_enabled(true);
        memo::clear();
        let _warmup = Processor::build(&cfg).unwrap();
        let cached = fingerprint(&Processor::build(&cfg).unwrap());
        assert_identical(&uncached, &cached, &cfg.name);
    }
}

#[test]
fn explore_is_bit_identical_across_pool_thread_counts() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    memo::set_enabled(false);
    let grid = sixteen_chips();
    let opts = DseOptions::default();
    mcpat::par::set_thread_override(1);
    let reference = support::per_candidate_sweep(&grid);
    assert_eq!(reference.perf.deduped, 0, "the sixteen chips are distinct");
    let ref_fp = support::sweep_fingerprint(&reference);
    for threads in [1, 2, 3, 8, 16] {
        mcpat::par::set_thread_override(threads);
        for prune in [true, false] {
            let opts = DseOptions { prune, ..opts };
            let engine = dse(&grid, &opts, &mut WorkloadModel::default()).unwrap();
            let what = format!("dse (prune {prune}) at {threads} pool threads");
            assert_eq!(engine.perf.deduped, 0, "{what}");
            assert_identical(&ref_fp, &support::sweep_fingerprint(&engine), &what);
        }
    }
}

#[test]
fn explore_batch_is_bit_identical_to_serial_explore() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    memo::set_enabled(false);
    // A repeated core count makes four candidates copies of earlier
    // ones, which exercises the dedup path against the serial reference.
    let grid = AxisGrid::manycore(
        vec![TechNode::N32],
        vec![DeviceType::Hp],
        vec![2, 4, 2],
        vec![1 << 20, 2 << 20, 3 << 20, 4 << 20],
        vec![1.4e9],
    );
    let opts = DseOptions {
        prune: false,
        ..DseOptions::default()
    };
    mcpat::par::set_thread_override(1);
    let reference = support::per_candidate_sweep(&grid);
    assert_eq!(reference.perf.candidates, 12);
    assert_eq!(reference.perf.deduped, 4, "each repeated chip must dedupe");
    let ref_fp = support::sweep_fingerprint(&reference);
    for threads in [1, 4] {
        mcpat::par::set_thread_override(threads);
        let batched = dse(&grid, &opts, &mut WorkloadModel::default()).unwrap();
        let what = format!("dse at {threads} pool threads");
        assert_eq!(batched.perf.candidates, 12, "{what}");
        assert_eq!(batched.perf.deduped, 4, "{what}: the copies must dedupe");
        assert_identical(&ref_fp, &support::sweep_fingerprint(&batched), &what);
    }
}

#[test]
fn incremental_bisection_equals_full_rebuild_bisection() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    memo::set_enabled(false);
    mcpat::par::set_thread_override(1);
    let cfg = ProcessorConfig::manycore(
        "clk",
        TechNode::N32,
        CoreConfig::generic_inorder(),
        4,
        2,
        1024 * 1024,
    );
    // The pre-incremental algorithm: rebuild the whole chip per probe.
    let power_at = |clock: f64| -> f64 {
        let mut c = cfg.clone();
        c.clock_hz = clock;
        c.core.clock_hz = clock;
        Processor::build(&c).unwrap().peak_power().total()
    };
    let (budget, lo_hz, hi_hz) = (25.0, 0.5e9, 6.0e9);
    assert!(power_at(lo_hz) <= budget && power_at(hi_hz) > budget);
    let (mut lo, mut hi) = (lo_hz, hi_hz);
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        if power_at(mid) <= budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let incremental = max_clock_under_power_budget(&cfg, budget, lo_hz, hi_hz)
        .unwrap()
        .0
        .expect("a feasible clock exists");
    assert_eq!(
        incremental.to_bits(),
        lo.to_bits(),
        "incremental bisection diverged: {incremental:e} vs {lo:e}"
    );
}

#[test]
fn traced_builds_are_bit_identical_across_presets() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    memo::set_enabled(false);
    mcpat::par::set_thread_override(1);
    for cfg in presets() {
        mcpat::obs::set_tracing(false);
        let off = Processor::build(&cfg).unwrap();
        assert!(
            off.trace.is_none(),
            "{}: a tracing-off build must not carry a trace",
            cfg.name
        );
        mcpat::obs::set_tracing(true);
        let on = Processor::build(&cfg).unwrap();
        mcpat::obs::set_tracing(false);
        let trace = on
            .trace
            .as_ref()
            .unwrap_or_else(|| panic!("{}: tracing-on build records a trace", cfg.name));
        assert!(
            trace.spans.iter().any(|s| s.path == "build"),
            "{}: trace is missing the root build span: {:?}",
            cfg.name,
            trace.spans
        );
        assert_identical(
            &fingerprint(&off),
            &fingerprint(&on),
            &format!("{}: traced vs untraced", cfg.name),
        );
    }
}

/// One lane against two on cold builds: the joins stay quiet and every
/// fan-out onto the second lane comes from the optimizer's wake, so this
/// covers that hand-off. (The `MCPAT_THREADS` variable is read once per
/// process; `crates/serve/tests/cli.rs` checks it on the `mcpat` binary.)
#[test]
fn thread_override_one_equals_two_on_cold_builds() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    memo::set_enabled(false);
    for cfg in presets() {
        mcpat::par::set_thread_override(1);
        let one = fingerprint(&Processor::build(&cfg).unwrap());
        mcpat::par::set_thread_override(2);
        let two = fingerprint(&Processor::build(&cfg).unwrap());
        assert_identical(&one, &two, &format!("{}: 1 vs 2 threads", cfg.name));
    }
}

#[test]
fn soa_sweep_matches_reference_solver_across_presets() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    memo::set_enabled(false);
    mcpat::par::set_thread_override(1);
    for cfg in presets() {
        mcpat::array::solve::set_reference_mode(true);
        let reference = fingerprint(&Processor::build(&cfg).unwrap());
        mcpat::array::solve::set_reference_mode(false);
        let soa = fingerprint(&Processor::build(&cfg).unwrap());
        assert_identical(
            &reference,
            &soa,
            &format!("{}: SoA sweep vs reference solver", cfg.name),
        );
    }
}

#[test]
fn soa_sweep_matches_reference_on_both_relaxation_rungs() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    memo::set_enabled(false);
    mcpat::par::set_thread_override(1);
    let tech = mcpat_tech::TechParams::new(TechNode::N32, mcpat_tech::DeviceType::Hp, 360.0);
    // Strict rung: feasible exactly as asked. Widened rung: a cycle
    // bound no geometry can meet forces the solver down its
    // relaxation ladder.
    let strict = mcpat::array::ArraySpec::ram(32 * 1024, 64);
    let widened = mcpat::array::ArraySpec::ram(1024 * 1024, 64).with_max_cycle_time(1e-12);
    for (rung, spec) in [("strict", &strict), ("widened", &widened)] {
        for target in [
            mcpat::array::OptTarget::EnergyDelay,
            mcpat::array::OptTarget::EnergyDelaySquared,
        ] {
            mcpat::array::solve::set_reference_mode(true);
            let r = spec.solve(&tech, target).unwrap();
            mcpat::array::solve::set_reference_mode(false);
            let s = spec.solve(&tech, target).unwrap();
            let what = format!("{rung} rung, {target:?}");
            assert_eq!(
                (r.nspd, r.ndwl, r.ndbl, r.rows_per_mat, r.cols_per_mat),
                (s.nspd, s.ndwl, s.ndbl, s.rows_per_mat, s.cols_per_mat),
                "{what}: organization"
            );
            assert_eq!(r.relaxation, s.relaxation, "{what}: relaxation");
            for (field, a, b) in [
                ("access_time", r.access_time, s.access_time),
                ("cycle_time", r.cycle_time, s.cycle_time),
                ("read_energy", r.read_energy, s.read_energy),
                ("write_energy", r.write_energy, s.write_energy),
                ("search_energy", r.search_energy, s.search_energy),
                ("area", r.area, s.area),
                ("height", r.height, s.height),
                ("width", r.width, s.width),
                ("leak.sub", r.leakage.subthreshold, s.leakage.subthreshold),
                ("leak.gate", r.leakage.gate, s.leakage.gate),
            ] {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what}: `{field}` differs: {a:e} vs {b:e}"
                );
            }
        }
    }
    assert!(
        widened
            .solve(&tech, mcpat::array::OptTarget::EnergyDelay)
            .unwrap()
            .relaxation
            .is_some(),
        "the widened spec must actually exercise the relaxation ladder"
    );
}

/// The committed pre-SoA baseline ran its 16-candidate exploration row
/// at 3870 serial allocations. The SoA sweep over stack-resident solver
/// scratch must hold a cold 16-candidate sweep at a ≥30% reduction,
/// ≤ 2709, now over sixteen distinct chips where that row built four.
const SIXTEEN_CHIP_ALLOC_CEILING: u64 = 2709;

#[test]
fn arena_reuse_holds_a_cold_sixteen_chip_sweep_under_the_alloc_ceiling() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    memo::set_enabled(false);
    mcpat::par::set_thread_override(1);
    // The benchline `dse_16_chips` workload, verbatim.
    let grid = sixteen_chips();
    let sweep = || dse(&grid, &DseOptions::default(), &mut WorkloadModel::default()).unwrap();
    // One warm-up sweep initializes the lazy statics and pool state;
    // the measured sweep is the steady state every sweep scenario
    // lives in.
    let _ = sweep();
    let collector = mcpat::obs::Collector::new();
    {
        let _scope = collector.enter();
        let _ = sweep();
    }
    let allocs = collector.snapshot().allocs;
    assert!(allocs > 0, "the counting allocator must be live");
    assert!(
        allocs <= SIXTEEN_CHIP_ALLOC_CEILING,
        "dse_16_chips ran {allocs} allocations; a cold sweep must stay at or below \
         {SIXTEEN_CHIP_ALLOC_CEILING} (>=30% under the committed baseline's 3870)"
    );
}

#[test]
fn build_perf_reports_thread_count() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    mcpat::par::set_thread_override(3);
    let chip = Processor::build(&ProcessorConfig::niagara()).unwrap();
    assert_eq!(chip.perf.threads, 3);
    assert!(chip.report().contains("3 thread(s)"));
}
