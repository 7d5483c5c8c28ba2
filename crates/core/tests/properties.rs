#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Property-based tests for the whole-chip assembly.

#[path = "../../../tests/support/mod.rs"]
mod support;

use mcpat::{
    dse, AxisGrid, ChipStats, Delta, DseEvaluator, DseOptions, DvfsPoint, FrontierPoint, MetricSet,
    ParetoFrontier, Processor, ProcessorConfig, RowCandidate, RowFacts, WorkloadModel,
};
use mcpat_circuit::metrics::StaticPower;
use mcpat_mcore::config::CoreConfig;
use mcpat_tech::{DeviceType, TechNode};
use proptest::prelude::*;
use support::{differs_from_full_build, per_candidate_sweep, sweep_fingerprint};

fn presets() -> Vec<ProcessorConfig> {
    vec![
        ProcessorConfig::niagara(),
        ProcessorConfig::niagara2(),
        ProcessorConfig::alpha21364(),
        ProcessorConfig::tulsa(),
    ]
}

/// The allocation-free roll-ups against sums taken item by item over
/// the itemized breakdowns.
fn assert_fast_totals_match_itemized(chip: &Processor) {
    let peak = chip.peak_power();
    let dynamic: f64 = peak.items.iter().map(|i| i.dynamic).sum();
    let leakage: StaticPower = peak.items.iter().map(|i| i.leakage).sum();
    let name = &chip.config.name;
    assert_eq!(
        chip.peak_power_total().to_bits(),
        (dynamic + leakage.total()).to_bits(),
        "{name}: peak power"
    );
    assert_eq!(
        chip.peak_power_total().to_bits(),
        peak.total().to_bits(),
        "{name}: peak power"
    );
    let fast = chip.total_leakage();
    assert_eq!(
        fast.subthreshold.to_bits(),
        leakage.subthreshold.to_bits(),
        "{name}"
    );
    assert_eq!(fast.gate.to_bits(), leakage.gate.to_bits(), "{name}");
    // Die area: the component sum, times the 1.25 layout overhead,
    // plus a 0.6 mm pad ring on each side.
    let components: f64 = chip.area_breakdown().iter().map(|i| i.area).sum();
    let edge = (components * 1.25).sqrt() + 2.0 * 0.6e-3;
    assert_eq!(
        chip.die_area().to_bits(),
        (edge * edge).to_bits(),
        "{name}: die area"
    );
}

#[test]
fn fast_totals_equal_itemized_sums_on_every_preset() {
    for mut cfg in presets() {
        assert_fast_totals_match_itemized(&Processor::build(&cfg).unwrap());
        // Power gating scales core leakage by duty: a separate path.
        cfg.power_gating = true;
        assert_fast_totals_match_itemized(&Processor::build(&cfg).unwrap());
    }
}

/// The four presets plus a 16-core LSTP manycore chip.
fn row_fact_configs() -> Vec<ProcessorConfig> {
    let mut lstp = ProcessorConfig::manycore(
        "manycore-lstp",
        TechNode::N32,
        CoreConfig::generic_inorder(),
        16,
        4,
        2 << 20,
    );
    lstp.device_type = DeviceType::Lstp;
    let mut configs = presets();
    configs.push(lstp);
    configs
}

/// The four presets, plus a Tulsa with a shared FPU: a chip with both
/// an L3 and shared FPUs.
fn bound_configs() -> Vec<ProcessorConfig> {
    let mut tulsa = ProcessorConfig::tulsa();
    tulsa.name = String::from("tulsa-shared-fpu");
    tulsa.num_shared_fpus = 1;
    let mut configs = presets();
    configs.push(tulsa);
    configs
}

/// A row of the prune-bound tests: `preset`, or an 8-core manycore
/// chip built from its core template, under `device`, with clock and
/// power gating as given.
fn bound_row(
    preset: ProcessorConfig,
    template: bool,
    device: DeviceType,
    clock_gating: bool,
    power_gating: bool,
) -> ProcessorConfig {
    let mut cfg = if template {
        ProcessorConfig::manycore("template", TechNode::N32, preset.core, 8, 2, 2 << 20)
    } else {
        preset
    };
    cfg.device_type = device;
    cfg.core.clock_gating = clock_gating;
    cfg.power_gating = power_gating;
    cfg
}

/// Runs the pruned and the unpruned engine over `grid` and compares both
/// with per-candidate full builds: the same frontier bits, winners,
/// `candidates`, `rejected` and `deduped`. A pruned candidate is never
/// probed, so where pruning fired the pruned engine's `deduped` may
/// only be lower.
fn assert_engines_match_full_builds(grid: &AxisGrid) {
    let reference = per_candidate_sweep(grid);
    let expected = sweep_fingerprint(&reference);
    for prune in [false, true] {
        let opts = DseOptions {
            prune,
            ..DseOptions::default()
        };
        let engine = dse(grid, &opts, &mut WorkloadModel::default()).unwrap();
        let what = format!("prune {prune}, {:?}", engine.perf);
        assert_eq!(sweep_fingerprint(&engine), expected, "{what}");
        if engine.perf.pruned == 0 {
            assert_eq!(engine.perf.deduped, reference.perf.deduped, "{what}");
        } else {
            assert!(engine.perf.deduped <= reference.perf.deduped, "{what}");
        }
    }
}

/// The in-order template, plain or under enforced timing, or the OoO
/// one.
fn template(kind: u8) -> CoreConfig {
    match kind {
        0 => CoreConfig::generic_inorder(),
        1 => CoreConfig::generic_ooo(),
        _ => {
            let mut core = CoreConfig::generic_inorder();
            core.enforce_timing = true;
            core
        }
    }
}

/// Small grids over every axis, the two outermost ones included.
/// Every drawn cluster size divides every drawn core count once capped,
/// and one clock list repeats a value, so the dedupe path runs.
fn any_small_grid() -> impl Strategy<Value = AxisGrid> {
    (
        (
            prop::sample::select(vec![vec![0u8], vec![1], vec![0, 1], vec![1, 2]]),
            prop::sample::select(vec![
                vec![1u32],
                vec![2],
                vec![4],
                vec![1, 4],
                vec![2, 4, 1],
            ]),
            any_node(),
        ),
        (
            prop::sample::select(vec![vec![2u32], vec![8], vec![2, 4], vec![8, 2]]),
            prop::sample::select(vec![vec![1u64 << 20], vec![512 << 10, 2 << 20]]),
            prop::sample::select(vec![
                vec![1.0e9],
                vec![2.0e9, 1.0e9],
                vec![1.5e9, 1.0e9, 1.5e9],
            ]),
        ),
    )
        .prop_map(
            |((templates, clusters, node), (cores, l2, clocks))| AxisGrid {
                core_templates: templates.into_iter().map(template).collect(),
                cores_per_cluster: clusters,
                ..AxisGrid::manycore(vec![node], vec![DeviceType::Hp], cores, l2, clocks)
            },
        )
}

#[test]
fn engines_match_full_builds_on_mixed_enforced_timing_templates() {
    let grid = AxisGrid {
        core_templates: vec![template(2), template(1)],
        cores_per_cluster: vec![2, 4],
        ..AxisGrid::manycore(
            vec![TechNode::N32],
            vec![DeviceType::Hp],
            vec![2, 4],
            vec![1 << 20, 2 << 20],
            vec![1.0e9, 2.0e9, 1.0e9],
        )
    };
    assert_engines_match_full_builds(&grid);
}

fn any_node() -> impl Strategy<Value = TechNode> {
    prop::sample::select(TechNode::SCALING_STUDY.to_vec())
}

fn any_manycore() -> impl Strategy<Value = ProcessorConfig> {
    (
        any_node(),
        prop::sample::select(vec![1u32, 2, 4, 8, 16]),
        prop::sample::select(vec![1u32, 2, 4]),
        prop::bool::ANY,
    )
        .prop_filter_map("cluster divides cores", |(node, cores, cluster, ooo)| {
            if !cores.is_multiple_of(cluster) {
                return None;
            }
            let core = if ooo {
                CoreConfig::generic_ooo()
            } else {
                CoreConfig::generic_inorder()
            };
            Some(ProcessorConfig::manycore(
                "prop-chip",
                node,
                core,
                cores,
                cluster,
                u64::from(cluster) * 1024 * 1024,
            ))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_manycore_config_builds_sanely(cfg in any_manycore()) {
        let chip = Processor::build(&cfg).unwrap();
        let p = chip.peak_power();
        prop_assert!(p.total() > 0.0 && p.total().is_finite());
        prop_assert!(p.dynamic() > 0.0);
        prop_assert!(p.leakage().total() > 0.0);
        prop_assert!(chip.die_area_mm2() > 1.0 && chip.die_area_mm2() < 3000.0);
        // The breakdown must sum to the total.
        let sum: f64 = p.items.iter().map(|i| i.dynamic + i.leakage.total()).sum();
        prop_assert!((sum - p.total()).abs() < 1e-9 * p.total());
    }

    #[test]
    fn area_breakdown_sums_below_die_area(cfg in any_manycore()) {
        let chip = Processor::build(&cfg).unwrap();
        let components: f64 = chip.area_breakdown().iter().map(|i| i.area).sum();
        // Die area includes overheads, so it strictly exceeds the sum;
        // the pad ring adds a fixed perimeter term that dominates tiny
        // dies, hence the constant allowance.
        prop_assert!(chip.die_area() > components);
        prop_assert!(chip.die_area() < components * 2.0 + 30e-6);
    }

    #[test]
    fn runtime_power_is_bounded_by_peak_scaled(cfg in any_manycore(), busy in 0.05..1.0f64) {
        let chip = Processor::build(&cfg).unwrap();
        let mut stats = ChipStats::peak(
            1e-3,
            cfg.num_cores,
            cfg.clock_hz,
            cfg.core.issue_width,
            cfg.core.fp_issue_width,
        );
        for core in &mut stats.cores {
            core.idle_cycles = ((1.0 - busy) * core.cycles as f64) as u64;
        }
        let p = chip.runtime_power(&stats);
        let peak = chip.peak_power();
        prop_assert!(p.total() <= peak.total() * 1.05);
        prop_assert!(p.total() >= p.leakage().total() * 0.5);
    }

    #[test]
    fn dvfs_total_power_is_monotone_in_voltage(cfg in any_manycore(), v in 0.6..0.95f64) {
        let chip = Processor::build(&cfg).unwrap();
        let stats = ChipStats::peak(
            1e-3,
            cfg.num_cores,
            cfg.clock_hz,
            cfg.core.issue_width,
            cfg.core.fp_issue_width,
        );
        let low = chip.runtime_power_at(&stats, DvfsPoint::ladder(v)).unwrap();
        let high = chip.runtime_power_at(&stats, DvfsPoint::ladder(v + 0.05)).unwrap();
        prop_assert!(high.power.total() > low.power.total());
    }

    #[test]
    fn dse_over_every_axis_equals_per_candidate_builds(grid in any_small_grid()) {
        assert_engines_match_full_builds(&grid);
    }

    #[test]
    fn rebuild_with_clock_equals_full_build(cfg in any_manycore(), scale in 0.5..2.0f64) {
        let base = Processor::build(&cfg).unwrap();
        let clock = cfg.clock_hz * scale;
        let fast = base.rebuild_with(Delta::Clock(clock)).unwrap();
        let mut patched = cfg.clone();
        patched.clock_hz = clock;
        patched.core.clock_hz = clock;
        let full = Processor::build(&patched).unwrap();
        prop_assert_eq!(
            fast.peak_power().total().to_bits(),
            full.peak_power().total().to_bits()
        );
        prop_assert_eq!(fast.die_area().to_bits(), full.die_area().to_bits());
        prop_assert_eq!(fast.warnings.len(), full.warnings.len());
    }

    /// A `rebuild_with` result must be indistinguishable — report bits,
    /// warning set and all — from a from-scratch build of the
    /// delta-patched configuration, on both delta axes and every
    /// shipped preset, with and without enforced timing.
    #[test]
    fn rebuild_with_delta_equals_full_build(
        preset in prop::sample::select(vec![
            ProcessorConfig::niagara(),
            ProcessorConfig::niagara2(),
            ProcessorConfig::alpha21364(),
            ProcessorConfig::tulsa(),
        ]),
        enforce_timing in prop::bool::ANY,
        clock_axis in prop::bool::ANY,
        l2_shift in 1u32..4,
        clock_scale in 0.5..2.0f64,
    ) {
        let mut preset = preset;
        preset.core.enforce_timing = enforce_timing;
        let delta = if clock_axis {
            Delta::Clock(preset.clock_hz * clock_scale)
        } else {
            // Scale the preset's own L2 capacity by a power of two so
            // non-power-of-two way counts (niagara is 12-way) keep a
            // whole number of sets.
            Delta::CacheSize(
                preset.l2.as_ref().map_or(1 << 20, |l2| l2.cache.capacity) << l2_shift,
            )
        };
        let base = Processor::build(&preset).unwrap();
        let fast = base.rebuild_with(delta).unwrap();
        let full = Processor::build(&delta.apply(&preset)).unwrap();
        prop_assert_eq!(
            fast.peak_power().total().to_bits(),
            full.peak_power().total().to_bits()
        );
        prop_assert_eq!(fast.die_area().to_bits(), full.die_area().to_bits());
        prop_assert_eq!(fast.total_leakage().total().to_bits(), full.total_leakage().total().to_bits());
        // Field-for-field: the rendered reports carry every modeled
        // quantity, so byte equality is the strongest practical check.
        // The `Build:` line reports how the chip was produced (solve
        // cache hits, threads), not what was modeled, so it is the one
        // line allowed to differ between a delta rebuild and a full
        // build.
        let modeled = |report: String| -> String {
            report
                .lines()
                .filter(|l| !l.trim_start().starts_with("Build:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        prop_assert_eq!(modeled(fast.report()), modeled(full.report()));
        prop_assert_eq!(fast.warnings.len(), full.warnings.len());
        for (a, b) in fast.warnings.iter().zip(full.warnings.iter()) {
            prop_assert_eq!(&a.path, &b.path);
            prop_assert_eq!(&a.message, &b.message);
        }
    }

    #[test]
    fn fast_totals_equal_itemized_sums(cfg in any_manycore(), gating in prop::bool::ANY) {
        let mut cfg = cfg;
        cfg.power_gating = gating;
        assert_fast_totals_match_itemized(&Processor::build(&cfg).unwrap());
    }

    /// One scratch chip retargeted in place through a clock walk — up,
    /// down, repeats, an LSTP clock above 1.5 GHz and a core clock
    /// above 10 GHz, so both clock advisories fire — equals a
    /// from-scratch build of its patched configuration after every
    /// step.
    #[test]
    fn retargeting_one_chip_equals_full_builds(
        preset in prop::sample::select(presets()),
        lstp in prop::bool::ANY,
        a in 0.4..2.5f64,
        b in 0.4..2.5f64,
    ) {
        let mut cfg = preset;
        if lstp {
            cfg.device_type = DeviceType::Lstp;
        }
        let mut chip = Processor::build(&cfg).unwrap();
        let f = cfg.clock_hz;
        for hz in [f * a, f * b, f * a, 1.8e9, 12.0e9, 12.0e9, f * b, f] {
            chip.retarget(Delta::Clock(hz)).unwrap();
            prop_assert_eq!(chip.config.clock_hz.to_bits(), hz.to_bits());
            prop_assert_eq!(chip.config.core.clock_hz.to_bits(), hz.to_bits());
            let diff = differs_from_full_build(&chip);
            prop_assert!(diff.is_none(), "{} at {:e} Hz: {:?}", cfg.name, hz, diff);
            let advised = |path: &str| chip.warnings.iter().any(|w| w.path == path);
            prop_assert_eq!(advised("core.clock_hz"), hz > 1.0e10);
            prop_assert_eq!(advised("device_type"), lstp && hz > 1.5e9);
        }
    }

    /// The premise behind the DSE engine's row facts: on every preset
    /// and a manycore LSTP chip, with and without power gating, a chip
    /// walked up and down a clock ladder in place keeps its row base's
    /// die area and total leakage bit for bit. The ladder reaches below
    /// 1 kHz, where the 1-ms peak window holds a single cycle.
    #[test]
    fn retargeting_keeps_row_facts_bit_identical(a in 0.4..2.5f64, b in 0.4..2.5f64) {
        for gating in [false, true] {
            for mut cfg in row_fact_configs() {
                cfg.power_gating = gating;
                let base = Processor::build(&cfg).unwrap();
                let facts = RowFacts::of(&base);
                let mut chip = base.clone();
                let f = cfg.clock_hz;
                for hz in [f * a, f * a * 2.0, 1.0, f * b, 500.0, f * b * 0.5, 999.0, 12.0e9, f * a, f] {
                    chip.retarget(Delta::Clock(hz)).unwrap();
                    let at = RowFacts::of(&chip);
                    let step = format!("{} (gating {gating}) at {hz:e} Hz", cfg.name);
                    prop_assert_eq!(at.area.to_bits(), facts.area.to_bits(), "area: {}", step);
                    prop_assert_eq!(
                        at.leakage.to_bits(),
                        facts.leakage.to_bits(),
                        "leakage: {}",
                        step
                    );
                }
            }
        }
    }

    /// The premise of the DSE engine's in-place row entry: one chip
    /// walked through interleaved clock and L2 retargets, on every
    /// preset and a manycore LSTP chip, with and without enforced
    /// timing, equals a full build of its own configuration after every
    /// step. Each L2 re-solve starts from whatever clock the walk left
    /// the chip at, as a row entered from the previous row's chip does.
    #[test]
    fn interleaved_clock_and_l2_retargets_equal_full_builds(
        a in 0.5..2.0f64,
        b in 0.5..2.0f64,
        l2_shift in 1u32..3,
    ) {
        for enforce_timing in [false, true] {
            for mut cfg in row_fact_configs() {
                cfg.core.enforce_timing = enforce_timing;
                let mut chip = Processor::build(&cfg).unwrap();
                let f = cfg.clock_hz;
                let l2 = cfg.l2.as_ref().map_or(1 << 20, |l2| l2.cache.capacity);
                let walk = [
                    Delta::Clock(f * a),
                    Delta::CacheSize(l2 << l2_shift),
                    Delta::Clock(f * b),
                    Delta::CacheSize(l2),
                    Delta::Clock(f * a),
                    Delta::CacheSize(l2 << l2_shift),
                    Delta::Clock(f),
                ];
                for delta in walk {
                    chip.retarget(delta).unwrap();
                    let step = format!("{} (timing {enforce_timing}) after {delta:?}", cfg.name);
                    prop_assert_eq!(differs_from_full_build(&chip), None, "{}", step);
                }
            }
        }
    }

    /// `WorkloadModel`'s prune bound is sound: on a row's candidates it
    /// never exceeds what `evaluate` gives each candidate's full build.
    /// Covered: the presets (one with an L3 and shared FPUs) and
    /// manycore chips built from their core templates, every device
    /// flavor, clock and power gating on and off, clocks up to 15 GHz.
    /// The row form decides as the bound does, against frontiers that
    /// the leakage-only bound, the floor or neither lets it prune.
    #[test]
    fn workload_bound_never_exceeds_evaluate(
        preset in prop::sample::select(bound_configs()),
        template in prop::bool::ANY,
        device in prop::sample::select(vec![DeviceType::Hp, DeviceType::Lop, DeviceType::Lstp]),
        clock_gating in prop::bool::ANY,
        power_gating in prop::bool::ANY,
        a in 0.3..3.0f64,
    ) {
        let cfg = bound_row(preset, template, device, clock_gating, power_gating);
        let base = Processor::build(&cfg).unwrap();
        let facts = RowFacts::of(&base);
        let model = WorkloadModel::default();
        for hz in [cfg.clock_hz * a, 12.0e9, 15.0e9] {
            let candidate = Delta::Clock(hz).apply(&cfg);
            let step = format!("{} ({device:?}) at {hz:e} Hz", cfg.name);
            let exact = WorkloadModel::default().evaluate(&Processor::build(&candidate).unwrap());
            let lb = model.lower_bound(&base, &candidate);
            prop_assert!(lb.is_some(), "no bound: {}", step);
            let lb = lb.unwrap();
            prop_assert!(lb.delay <= exact.delay, "delay: {}", step);
            prop_assert!(lb.energy <= exact.energy, "energy: {}", step);
            prop_assert!(lb.area <= exact.area, "area: {}", step);
            let leakage_only = facts.leakage * lb.delay;
            prop_assert!(lb.energy > leakage_only, "no uncore floor: {}", step);
            let row = RowCandidate { base: &base, facts, slowest_hz: hz, fastest_hz: hz };
            for energy in [leakage_only * 0.5, (leakage_only + lb.energy) / 2.0, lb.energy * 1.02] {
                let mut frontier = ParetoFrontier::new();
                frontier.offer(FrontierPoint {
                    name: String::from("incumbent"),
                    cursor: 0,
                    area: lb.area,
                    peak_power: energy / lb.delay,
                    metrics: MetricSet { delay: lb.delay * 0.99, energy, area: lb.area },
                });
                prop_assert_eq!(
                    model.prunes_in_row(&row, &frontier),
                    frontier.would_prune(&lb),
                    "decision at incumbent energy {:e}: {}",
                    energy,
                    step
                );
            }
        }
    }

    /// The certificate behind pruning clock runs: a row's peak-power
    /// floor exists at every clock and never falls as the clock rises.
    /// Covered: the rows of `workload_bound_never_exceeds_evaluate`, on
    /// a clock ladder from 1 Hz, where the 1-ms peak window holds a
    /// single cycle, up to 15 GHz, with the row taken at its own clock
    /// and at 500 Hz.
    #[test]
    fn peak_power_floor_never_falls_as_the_clock_rises(
        preset in prop::sample::select(bound_configs()),
        template in prop::bool::ANY,
        device in prop::sample::select(vec![DeviceType::Hp, DeviceType::Lop, DeviceType::Lstp]),
        clock_gating in prop::bool::ANY,
        power_gating in prop::bool::ANY,
        a in 0.3..3.0f64,
        b in 1.0e-3..1.0f64,
    ) {
        let cfg = bound_row(preset, template, device, clock_gating, power_gating);
        let mut ladder = vec![
            1.0, 250.0, 500.0, 999.0, 999.999_999, 1.0e3, 1.000_000_001e3, 2.0e3,
            1.0e6, 1.0e8, cfg.clock_hz * a, cfg.clock_hz * b, cfg.clock_hz, 12.0e9, 15.0e9,
        ];
        // Each clock's neighbors one ulp away, where rounding would
        // show first.
        let ulps: Vec<f64> = ladder.iter().flat_map(|&hz| [hz.next_down(), hz.next_up()]).collect();
        ladder.extend(ulps);
        ladder.sort_by(f64::total_cmp);
        for row_hz in [cfg.clock_hz, 500.0] {
            let base = Processor::build(&Delta::Clock(row_hz).apply(&cfg)).unwrap();
            let facts = RowFacts::of(&base);
            let step = format!("{} ({device:?}, gating {power_gating}) taken at {row_hz:e} Hz", cfg.name);
            let mut floors = Vec::with_capacity(ladder.len());
            for &hz in &ladder {
                let point = RowCandidate { base: &base, facts, slowest_hz: hz, fastest_hz: hz };
                let floor = point.peak_power_floor();
                prop_assert!(floor.is_some(), "no floor at {:e} Hz: {}", hz, step);
                floors.extend(floor.map(|floor| (hz, floor)));
            }
            for pair in floors.windows(2) {
                let [(lo_hz, lo), (hi_hz, hi)] = pair else { continue };
                prop_assert!(lo <= hi, "{:e} W at {:e} Hz > {:e} W at {:e} Hz: {}", lo, lo_hz, hi, hi_hz, step);
            }
        }
    }

    /// A run's prune decision implies each of its candidates' own, so
    /// the engine's runs decide exactly what one decision per candidate
    /// would. Runs of unsorted, repeated clocks on both sides of 1 kHz
    /// (below it the 1-ms peak window holds a single cycle), on the
    /// rows above taken at their own clock or at 500 Hz, against
    /// incumbents just under and over each candidate's bound and far
    /// under the run's.
    #[test]
    fn a_pruned_run_prunes_each_of_its_candidates(
        preset in prop::sample::select(bound_configs()),
        template in prop::bool::ANY,
        device in prop::sample::select(vec![DeviceType::Hp, DeviceType::Lop, DeviceType::Lstp]),
        clock_gating in prop::bool::ANY,
        power_gating in prop::bool::ANY,
        slow_row in prop::bool::ANY,
        run in prop::sample::select(vec![
            vec![1.0e9],
            vec![0.6e9, 1.5e9, 1.0e9],
            vec![3.0e9, 2.0e9, 1.0e9, 0.6e9],
            vec![1.0e9, 1.0e9, 2.0e9, 1.0e9],
            vec![500.0, 900.0],
            vec![900.0, 2.0e6, 1.0e9],
            vec![500.0, 15.0e9, 1.5e9, 500.0],
            vec![2.0e6, 15.0e9],
        ]),
        a in 0.3..3.0f64,
    ) {
        let cfg = bound_row(preset, template, device, clock_gating, power_gating);
        let mut clocks = run;
        clocks.push(cfg.clock_hz * a);
        let row_hz = if slow_row { 500.0 } else { cfg.clock_hz };
        let base = Processor::build(&Delta::Clock(row_hz).apply(&cfg)).unwrap();
        let facts = RowFacts::of(&base);
        let model = WorkloadModel::default();
        let slowest = clocks.iter().copied().fold(f64::INFINITY, f64::min);
        let fastest = clocks.iter().copied().fold(0.0, f64::max);
        let run = RowCandidate { base: &base, facts, slowest_hz: slowest, fastest_hz: fastest };
        let point = |hz: f64| RowCandidate { base: &base, facts, slowest_hz: hz, fastest_hz: hz };
        let bounds: Vec<MetricSet> = clocks
            .iter()
            .filter_map(|&hz| model.lower_bound(&base, &Delta::Clock(hz).apply(&base.config)))
            .collect();
        // The run's floor lies under each candidate's.
        if let Some(floor) = run.peak_power_floor() {
            for &hz in &clocks {
                let own = point(hz).peak_power_floor();
                prop_assert!(own.is_some_and(|own| floor <= own), "{:e} Hz: {:?} vs {:?}", hz, floor, own);
            }
        }
        let delay = model.work / (f64::from(cfg.num_cores) * fastest);
        let mut energies: Vec<f64> = bounds.iter().flat_map(|b| [b.energy * 0.999, b.energy * 1.001]).collect();
        energies.push(facts.leakage * delay * 0.5);
        let far_under = run.peak_power_floor().map(|floor| floor * delay * 0.5);
        energies.extend(far_under);
        let step = format!("{} ({device:?}, gating {power_gating}) at {row_hz:e} Hz, run {clocks:?}", cfg.name);
        for energy in energies {
            let mut frontier = ParetoFrontier::new();
            frontier.offer(FrontierPoint {
                name: String::from("incumbent"),
                cursor: 0,
                area: facts.area,
                peak_power: energy / delay,
                metrics: MetricSet { delay: delay * 0.99, energy, area: facts.area },
            });
            if model.prunes_in_row(&run, &frontier) {
                for &hz in &clocks {
                    prop_assert!(
                        model.prunes_in_row(&point(hz), &frontier),
                        "{:e} Hz not pruned alone at incumbent energy {:e}: {}",
                        hz,
                        energy,
                        step
                    );
                }
            } else {
                prop_assert!(Some(energy) != far_under, "run not pruned far under its bound: {}", step);
            }
        }
    }

    #[test]
    fn serde_round_trip_for_random_configs(cfg in any_manycore()) {
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ProcessorConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(cfg, back);
    }
}
