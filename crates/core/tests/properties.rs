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

/// Runs the pruned and the unpruned engine over `grid` in `chunk`-sized
/// chunks and compares both with per-candidate full builds: the same
/// frontier bits, winners, `candidates`, `rejected` and `deduped`. A
/// pruned candidate is never probed, so where pruning fired the pruned
/// engine's `deduped` may only be lower.
fn assert_engines_match_full_builds(grid: &AxisGrid, chunk: usize) {
    let reference = per_candidate_sweep(grid, chunk);
    let expected = sweep_fingerprint(&reference);
    for prune in [false, true] {
        let opts = DseOptions {
            chunk,
            prune,
            ..DseOptions::default()
        };
        let engine = dse(grid, &opts, &mut WorkloadModel::default()).unwrap();
        let what = format!("prune {prune}, chunk {chunk}, {:?}", engine.perf);
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
    for chunk in [256, 5, 3] {
        assert_engines_match_full_builds(&grid, chunk);
    }
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
    fn dse_over_every_axis_equals_per_candidate_builds(
        grid in any_small_grid(),
        chunk in prop::sample::select(vec![3usize, 256]),
    ) {
        assert_engines_match_full_builds(&grid, chunk);
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
    /// shipped preset.
    #[test]
    fn rebuild_with_delta_equals_full_build(
        preset in prop::sample::select(vec![
            ProcessorConfig::niagara(),
            ProcessorConfig::niagara2(),
            ProcessorConfig::alpha21364(),
            ProcessorConfig::tulsa(),
        ]),
        clock_axis in prop::bool::ANY,
        l2_shift in 1u32..4,
        clock_scale in 0.5..2.0f64,
    ) {
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
            chip.retarget_clock(hz).unwrap();
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
    /// die area and total leakage bit for bit.
    #[test]
    fn retargeting_keeps_row_facts_bit_identical(a in 0.4..2.5f64, b in 0.4..2.5f64) {
        for gating in [false, true] {
            for mut cfg in row_fact_configs() {
                cfg.power_gating = gating;
                let base = Processor::build(&cfg).unwrap();
                let facts = RowFacts::of(&base);
                let mut chip = base.clone();
                let f = cfg.clock_hz;
                for hz in [f * a, f * a * 2.0, f * b, f * b * 0.5, 12.0e9, f * a, f] {
                    chip.retarget_clock(hz).unwrap();
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
        let mut cfg = if template {
            ProcessorConfig::manycore("template", TechNode::N32, preset.core, 8, 2, 2 << 20)
        } else {
            preset
        };
        cfg.device_type = device;
        cfg.core.clock_gating = clock_gating;
        cfg.power_gating = power_gating;
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
            let row = RowCandidate { base: &base, facts, clock_hz: hz, cursor: 0 };
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

    #[test]
    fn serde_round_trip_for_random_configs(cfg in any_manycore()) {
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ProcessorConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(cfg, back);
    }
}
