#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Property-based tests for the whole-chip assembly.

#[path = "../../../tests/support/mod.rs"]
mod support;

use mcpat::{
    explore_batch, Budgets, ChipStats, Delta, DvfsPoint, MetricSet, Processor, ProcessorConfig,
};
use mcpat_circuit::metrics::StaticPower;
use mcpat_mcore::config::CoreConfig;
use mcpat_tech::{DeviceType, TechNode};
use proptest::prelude::*;
use support::{differs_from_full_build, per_candidate_reference};

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

fn batch_eval(chip: &Processor) -> MetricSet {
    let n = f64::from(chip.config.num_cores.max(1));
    MetricSet::from_power(10.0 * n, 1.0 / n, chip.die_area())
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
    fn explore_batch_equals_per_candidate_builds(
        a in any_manycore(),
        b in any_manycore(),
        take_second in prop::bool::ANY,
        dup_first in prop::bool::ANY,
    ) {
        let mut cands: Vec<ProcessorConfig> = vec![a];
        if take_second {
            cands.push(b);
        }
        for (i, c) in cands.iter_mut().enumerate() {
            c.name = format!("cand{i}");
        }
        if dup_first {
            if let Some(mut d) = cands.first().cloned() {
                d.name = String::from("cand-dup");
                cands.push(d);
            }
        }
        let (feasible, pareto) = per_candidate_reference(&cands, batch_eval);
        let (batched, perf) = explore_batch(&cands, Budgets::default(), batch_eval).unwrap();
        prop_assert_eq!(perf.candidates, cands.len());
        prop_assert!(perf.unique_builds + perf.deduped == cands.len());
        if dup_first {
            prop_assert!(perf.deduped >= 1);
        }
        prop_assert!(batched.rejected.is_empty());
        prop_assert_eq!(&pareto, &batched.pareto);
        prop_assert_eq!(feasible.len(), batched.feasible.len());
        for (a, b) in feasible.iter().zip(&batched.feasible) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.area.to_bits(), b.area.to_bits());
            prop_assert_eq!(a.peak_power.to_bits(), b.peak_power.to_bits());
            prop_assert_eq!(a.metrics.energy.to_bits(), b.metrics.energy.to_bits());
            prop_assert_eq!(a.metrics.delay.to_bits(), b.metrics.delay.to_bits());
            prop_assert_eq!(a.metrics.area.to_bits(), b.metrics.area.to_bits());
        }
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
    /// delta-patched configuration, on every delta axis and every
    /// shipped preset.
    #[test]
    fn rebuild_with_delta_equals_full_build(
        preset in prop::sample::select(vec![
            ProcessorConfig::niagara(),
            ProcessorConfig::niagara2(),
            ProcessorConfig::alpha21364(),
            ProcessorConfig::tulsa(),
        ]),
        which in 0..4usize,
        vdd_scale in 0.7..1.2f64,
        kelvin in 320.0..380.0f64,
        l2_shift in 1u32..4,
        clock_scale in 0.5..2.0f64,
    ) {
        let delta = match which {
            0 => Delta::Vdd(vdd_scale),
            1 => Delta::Temperature(kelvin),
            2 => Delta::Clock(preset.clock_hz * clock_scale),
            // Scale the preset's own L2 capacity by a power of two so
            // non-power-of-two way counts (niagara is 12-way) keep a
            // whole number of sets.
            _ => Delta::CacheSize(
                preset.l2.as_ref().map_or(1 << 20, |l2| l2.cache.capacity) << l2_shift,
            ),
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

    #[test]
    fn serde_round_trip_for_random_configs(cfg in any_manycore()) {
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ProcessorConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(cfg, back);
    }
}
