#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Chaos harness for `mcpat::guard` budgets and the worker pool.
//!
//! Injects the three failure modes the guard layer promises to survive —
//! worker-thread kills, forced solve-cache evictions, and mid-build
//! cancellations at randomized checkpoints — across all four validation
//! presets, then asserts the recovery invariants:
//!
//! * the pool keeps serving after every kill (dead lanes respawn),
//! * the solve cache never serves a partially materialized entry, and
//! * a rerun of the same configuration after any amount of chaos is
//!   bit-identical to a clean build.
//!
//! The seed is printed on every run and can be pinned with
//! `MCPAT_CHAOS_SEED` to replay a failure.

use std::sync::{Mutex, MutexGuard, OnceLock};

use mcpat::array::memo;
use mcpat::guard::{Budget, GuardError};
use mcpat::tech::{DeviceType, TechNode};
use mcpat::{
    dse_streaming, AxisGrid, DseCheckpoint, DseOptions, McpatError, ParetoFrontier, Processor,
    ProcessorConfig, WorkloadModel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serializes tests that flip process-global knobs (thread override,
/// memo mode, cache cap).
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
        memo::set_cap(None);
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

/// The replayable chaos seed, printed once per process.
fn chaos_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let seed = std::env::var("MCPAT_CHAOS_SEED")
            .ok()
            .and_then(|v| {
                let v = v.trim();
                v.strip_prefix("0x")
                    .map_or_else(|| v.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
            })
            .unwrap_or(0x4d63_5041_5443_4841); // "McPATCHA"
        eprintln!("chaos seed: {seed:#018x} (replay with MCPAT_CHAOS_SEED)");
        seed
    })
}

/// Every externally observable f64 of a built chip, as exact bit
/// patterns (same shape as `perf_identity.rs`): a single differing bit
/// after chaos is a failure.
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

/// Clean reference fingerprints for every preset, built with the cache
/// cleared so later (chaos-era) builds exercise the same solve paths.
fn clean_references() -> Vec<(ProcessorConfig, Vec<(String, u64)>)> {
    presets()
        .into_iter()
        .map(|cfg| {
            memo::clear();
            let chip = Processor::build(&cfg).expect("clean build");
            let fp = fingerprint(&chip);
            (cfg, fp)
        })
        .collect()
}

/// Mid-build cancellation at randomized checkpoints: every outcome is
/// either a complete bit-identical chip or a typed `GuardError`, and an
/// immediate budget-free rerun — over whatever partial cache the
/// cancelled attempt left behind — is bit-identical to the clean build.
#[test]
fn mid_build_cancellation_leaves_no_poisoned_state() {
    let _lock = knob_lock();
    let _reset = KnobReset;
    mcpat::par::set_thread_override(4);
    memo::set_enabled(true);
    let mut rng = StdRng::seed_from_u64(chaos_seed() ^ 0x00CA_9CE1);

    let refs = clean_references();
    let mut cancelled = 0u32;
    let mut completed = 0u32;
    for (cfg, clean) in &refs {
        for round in 0..10 {
            // Cold cache each round so the cancel lands inside live
            // solver sweeps, not on an all-hits fast path.
            memo::clear();
            let budget = Budget::unbounded();
            // Mostly early trips; one in five is generous enough to
            // cover the whole build and must then change nothing.
            let checks = if rng.gen_range(0u32..5) == 0 {
                u64::MAX
            } else {
                rng.gen_range(0..600)
            };
            budget.cancel_after_checks(checks);
            let outcome = {
                let _scope = budget.enter();
                Processor::build(cfg)
            };
            match outcome {
                Ok(chip) => {
                    completed += 1;
                    assert_identical(
                        clean,
                        &fingerprint(&chip),
                        &format!("{} survived cancel round {round}", cfg.name),
                    );
                }
                Err(e) => {
                    cancelled += 1;
                    let g = e.guard_error().unwrap_or_else(|| {
                        panic!("{}: non-guard error after cancel: {e}", cfg.name)
                    });
                    assert!(
                        matches!(g, GuardError::Cancelled { .. }),
                        "{}: expected Cancelled, got {g}",
                        cfg.name
                    );
                    // One representation: a cancel inside a solver sweep
                    // is the same budget error as one between stages.
                    assert!(
                        matches!(e, McpatError::Budget(_)),
                        "{}: a budget trip surfaced as {e:?}",
                        cfg.name
                    );
                    assert_eq!(e.kind(), "Cancelled", "{}", cfg.name);
                }
            }
            // Zero poisoned state: the very next unbudgeted build, on
            // top of whatever the cancelled attempt cached, matches the
            // clean reference bit for bit.
            let rerun = Processor::build(cfg)
                .unwrap_or_else(|e| panic!("{}: rerun failed after cancel: {e}", cfg.name));
            assert_identical(
                clean,
                &fingerprint(&rerun),
                &format!("{} rerun after cancel round {round}", cfg.name),
            );
        }
    }
    // Trip points below 600 against cold builds of roughly 400 to 750
    // checkpoints (niagara fewest, tulsa most): both arms must run.
    assert!(cancelled > 0, "chaos never cancelled a build");
    assert!(completed > 0, "chaos never let a build finish");
}

/// Worker kills: tasks that murder their host worker produce a typed
/// error at the submitter (never a hang, never an untyped panic), dead
/// lanes respawn, and the pool then serves clean work — including full
/// preset builds bit-identical to pre-chaos references.
#[test]
fn worker_kills_respawn_and_the_pool_keeps_serving() {
    let _lock = knob_lock();
    let _reset = KnobReset;
    mcpat::par::set_thread_override(4);
    memo::set_enabled(true);

    let refs = clean_references();
    let before = mcpat::par::pool::stats().workers_respawned;
    let mut kill_errors = 0u32;
    for round in 0..40 {
        let items: Vec<u64> = (0..64).collect();
        let result = mcpat::par::par_map(&items, 2, |_, &x| {
            // The sleep blocks whichever thread runs the task, so on a
            // single-CPU host the helping submitter cedes the core and
            // the notified resident workers provably pop part of the
            // batch — instant tasks can be drained entirely inline by
            // the submitter, and the kill below would never fire.
            std::thread::sleep(std::time::Duration::from_micros(100));
            // Dies only when running on a resident pool worker; inline
            // execution on the submitting thread is a no-op.
            mcpat::par::pool::chaos_kill_worker();
            x * x
        });
        match result {
            Ok(v) => assert_eq!(v.len(), items.len()),
            Err(e) => {
                kill_errors += 1;
                assert!(!e.to_string().is_empty(), "round {round}: empty error");
            }
        }
        if mcpat::par::pool::stats().workers_respawned > before {
            break;
        }
    }
    let stats = mcpat::par::pool::stats();
    assert!(
        stats.workers_respawned > before,
        "no worker was ever killed and respawned (respawned = {})",
        stats.workers_respawned
    );
    assert!(kill_errors > 0, "kills never surfaced as typed errors");

    // The pool still computes correct results...
    let items: Vec<u64> = (0..128).collect();
    let squares = mcpat::par::par_map(&items, 2, |_, &x| x * x).expect("pool serves after kills");
    assert!(squares
        .iter()
        .enumerate()
        .all(|(i, &s)| s == (i as u64) * (i as u64)));

    // ...and full builds over it are bit-identical to pre-chaos runs.
    for (cfg, clean) in &refs {
        memo::clear();
        let chip = Processor::build(cfg).expect("build after kills");
        assert_identical(
            clean,
            &fingerprint(&chip),
            &format!("{} after kills", cfg.name),
        );
    }
}

/// Forced evictions: a solve cache squeezed to near-nothing changes
/// throughput, never results. Eviction pressure must be visible both in
/// the global cache counters and in the per-build `BuildPerf` billing.
#[test]
fn forced_evictions_never_change_results() {
    let _lock = knob_lock();
    let _reset = KnobReset;
    mcpat::par::set_thread_override(4);
    memo::set_enabled(true);

    let refs = clean_references();
    memo::set_cap(Some(2));
    let evictions_before = memo::stats().evictions;
    let mut billed = 0u64;
    for (cfg, clean) in &refs {
        memo::clear();
        // Two passes: the second runs over whatever survived eviction.
        for pass in 0..2 {
            let chip = Processor::build(cfg).expect("build under eviction pressure");
            assert_identical(
                clean,
                &fingerprint(&chip),
                &format!("{} evict pass {pass}", cfg.name),
            );
            billed += chip.perf.solve_cache_evictions;
        }
    }
    let after = memo::stats();
    assert!(
        after.evictions > evictions_before,
        "cap 2 produced no evictions"
    );
    assert!(billed > 0, "BuildPerf never billed an eviction under cap 2");
    memo::set_cap(None);
}

/// Asserts two frontiers are the same down to the last bit: points,
/// order, names, cursors, and all six tracked winners.
fn assert_frontier_bits(a: &ParetoFrontier, b: &ParetoFrontier, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: frontier sizes differ");
    for (x, y) in a.points().iter().zip(b.points().iter()) {
        assert_eq!(x.name, y.name, "{what}: point name differs");
        assert_eq!(x.cursor, y.cursor, "{what}: point cursor differs");
        assert_eq!(x.area.to_bits(), y.area.to_bits(), "{what}: area bits");
        assert_eq!(
            x.peak_power.to_bits(),
            y.peak_power.to_bits(),
            "{what}: peak bits"
        );
        assert_eq!(
            x.metrics.delay.to_bits(),
            y.metrics.delay.to_bits(),
            "{what}: delay bits"
        );
        assert_eq!(
            x.metrics.energy.to_bits(),
            y.metrics.energy.to_bits(),
            "{what}: energy bits"
        );
    }
    for (wa, wb) in a.winners().iter().zip(b.winners().iter()) {
        match (wa, wb) {
            (Some(x), Some(y)) => {
                assert_eq!(x.cursor, y.cursor, "{what}: winner cursor differs");
                assert_eq!(
                    x.metrics.energy.to_bits(),
                    y.metrics.energy.to_bits(),
                    "{what}: winner energy bits"
                );
            }
            (None, None) => {}
            _ => panic!("{what}: winner presence differs"),
        }
    }
}

/// Cancelled sweeps resume losslessly: a DSE run killed by the guard's
/// cooperative cancel at a randomized checkpoint count, then resumed
/// from its last emitted checkpoint (possibly through several further
/// kills), converges on a frontier bit-identical to an uninterrupted
/// sweep's.
#[test]
fn cancelled_dse_sweeps_resume_to_a_bit_identical_frontier() {
    let _lock = knob_lock();
    let _reset = KnobReset;
    mcpat::par::set_thread_override(2);
    memo::set_enabled(true);
    let mut rng = StdRng::seed_from_u64(chaos_seed() ^ 0x0D5E_0D5E);

    let grid = AxisGrid::manycore(
        vec![TechNode::N45, TechNode::N22],
        vec![DeviceType::Hp],
        vec![2, 4],
        vec![1 << 20, 2 << 20],
        (0..20).map(|i| 1.0e9 + 0.1e9 * f64::from(i)).collect(),
    );
    let opts = DseOptions {
        checkpoint_every: 32,
        ..DseOptions::default()
    };
    let reference = dse_streaming(
        &grid,
        &opts,
        &mut WorkloadModel::default(),
        None,
        |_| Ok(()),
    )
    .expect("uninterrupted sweep");

    let mut kills = 0u32;
    for round in 0..8 {
        let mut last_cp: Option<DseCheckpoint> = None;
        // Kill the sweep after a random number of budget checks, then
        // keep resuming (each resume under a fresh random kill budget)
        // until one attempt runs to completion.
        let mut attempts = 0;
        let finished = loop {
            attempts += 1;
            assert!(attempts < 64, "round {round}: resume never converged");
            let budget = Budget::unbounded();
            // The whole warm sweep performs a few hundred budget
            // checks; trip points mostly land inside it, and the tail
            // of the range occasionally lets a run finish early.
            let checks = if attempts > 16 {
                u64::MAX // guarantee convergence in degenerate seeds
            } else {
                rng.gen_range(20..400)
            };
            budget.cancel_after_checks(checks);
            let resume_from = last_cp.clone();
            let mut newest: Option<DseCheckpoint> = None;
            let outcome = {
                let _scope = budget.enter();
                dse_streaming(
                    &grid,
                    &opts,
                    &mut WorkloadModel::default(),
                    resume_from.as_ref(),
                    |cp| {
                        newest = Some(cp.clone());
                        Ok(())
                    },
                )
            };
            if newest.is_some() {
                last_cp = newest;
            }
            match outcome {
                Ok(result) => break result,
                Err(e) => {
                    kills += 1;
                    let g = e
                        .guard_error()
                        .unwrap_or_else(|| panic!("round {round}: non-guard error: {e}"));
                    assert!(
                        matches!(g, GuardError::Cancelled { .. }),
                        "round {round}: expected Cancelled, got {g}"
                    );
                }
            }
        };
        assert_frontier_bits(
            &finished.frontier,
            &reference.frontier,
            &format!("round {round} ({attempts} attempt(s))"),
        );
        // Candidate accounting survives resume exactly; only the
        // full-vs-delta build split may shift at resume points.
        assert_eq!(finished.perf.candidates, reference.perf.candidates);
        assert_eq!(finished.perf.pruned, reference.perf.pruned);
        assert_eq!(finished.perf.rejected, reference.perf.rejected);
    }
    assert!(kills > 0, "chaos never cancelled a sweep");
}

/// The combined storm: randomized kills, cancels, and cache squeezes
/// interleaved across random presets — then, with knobs restored, every
/// preset rebuilds bit-identically and the pool answers a final sanity
/// fan-out.
#[test]
fn randomized_mixed_chaos_then_bit_identical_recovery() {
    let _lock = knob_lock();
    let _reset = KnobReset;
    mcpat::par::set_thread_override(4);
    memo::set_enabled(true);
    let mut rng = StdRng::seed_from_u64(chaos_seed() ^ 0x0057_0293);

    let refs = clean_references();
    for round in 0..24 {
        let (cfg, _) = &refs[rng.gen_range(0..refs.len())];
        match rng.gen_range(0u32..3) {
            0 => {
                // Kill storm through a plain fan-out.
                let items: Vec<u64> = (0..32).collect();
                let _ = mcpat::par::par_map(&items, 2, |_, &x| {
                    mcpat::par::pool::chaos_kill_worker();
                    x + 1
                });
            }
            1 => {
                // Mid-build cancel at a random checkpoint.
                memo::clear();
                let budget = Budget::unbounded();
                budget.cancel_after_checks(rng.gen_range(0..800));
                let _scope = budget.enter();
                if let Err(e) = Processor::build(cfg) {
                    assert!(
                        e.guard_error().is_some(),
                        "round {round}: non-guard chaos error: {e}"
                    );
                }
            }
            _ => {
                // Build under a randomly squeezed cache.
                memo::set_cap(Some(rng.gen_range(1..6)));
                memo::clear();
                Processor::build(cfg)
                    .unwrap_or_else(|e| panic!("round {round}: eviction-only build failed: {e}"));
                memo::set_cap(None);
            }
        }
    }

    // Recovery: defaults back, everything bit-identical, pool alive.
    memo::set_cap(None);
    for (cfg, clean) in &refs {
        memo::clear();
        let chip = Processor::build(cfg).expect("post-storm build");
        assert_identical(
            clean,
            &fingerprint(&chip),
            &format!("{} post-storm", cfg.name),
        );
    }
    let items: Vec<u64> = (0..64).collect();
    let doubled = mcpat::par::par_map(&items, 2, |_, &x| x * 2).expect("pool after storm");
    assert_eq!(doubled[63], 126);
}
