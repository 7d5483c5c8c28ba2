#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Integration test: the manycore case-study machinery — technology
//! scaling, clustering, in-order vs out-of-order tradeoffs, and the
//! area-aware metric flip that is the paper's headline result.

mod support;

use mcpat::metrics::{best_index, Metric, MetricSet};
use mcpat::tech::DeviceType;
use mcpat::{
    dse, AxisGrid, Budgets, ChipTotals, DseEvaluator, DseOptions, DsePerf, DseResult,
    FrontierPoint, ParetoFrontier, Processor, ProcessorConfig, WorkloadModel,
};
use mcpat_mcore::config::CoreConfig;
use mcpat_sim::{SimEvaluator, SystemModel, WorkloadProfile};
use mcpat_tech::TechNode;
use support::sweep_fingerprint;

fn manycore(kind: &str, node: TechNode, cores: u32, cluster: u32) -> ProcessorConfig {
    let core = match kind {
        "inorder" => CoreConfig::niagara2_like(),
        _ => CoreConfig::alpha21364_like(),
    };
    ProcessorConfig::manycore(
        &format!("{kind}-{cores}c-x{cluster}"),
        node,
        core,
        cores,
        cluster,
        u64::from(cluster) * 1024 * 1024,
    )
}

#[test]
fn scaling_shrinks_area_and_raises_leakage_fraction() {
    let mut last_area = f64::INFINITY;
    let mut last_leak_frac = 0.0;
    for node in [TechNode::N90, TechNode::N45, TechNode::N22] {
        let cfg = manycore("inorder", node, 8, 2);
        let chip = Processor::build(&cfg).unwrap();
        let p = chip.peak_power();
        let area = chip.die_area_mm2();
        let leak_frac = p.leakage().total() / p.total();
        assert!(area < last_area, "{node}: area {area}");
        assert!(leak_frac > last_leak_frac, "{node}: leak {leak_frac}");
        last_area = area;
        last_leak_frac = leak_frac;
    }
}

#[test]
fn ooo_wins_latency_inorder_wins_area_efficiency() {
    let node = TechNode::N22;
    let wl = WorkloadProfile::splash_like();
    let io_cfg = manycore("inorder", node, 16, 4);
    let ooo_cfg = manycore("ooo", node, 16, 4);
    let io_chip = Processor::build(&io_cfg).unwrap();
    let ooo_chip = Processor::build(&ooo_cfg).unwrap();
    let io_run = SystemModel::new(&io_cfg).simulate(&wl, 100_000_000);
    let ooo_run = SystemModel::new(&ooo_cfg).simulate(&wl, 100_000_000);

    // OoO finishes the fixed instruction budget sooner...
    assert!(ooo_run.seconds < io_run.seconds);
    // ...but the in-order chip delivers more throughput per unit area.
    let io_tpa = io_run.aggregate_ips / io_chip.die_area_mm2();
    let ooo_tpa = ooo_run.aggregate_ips / ooo_chip.die_area_mm2();
    assert!(
        io_tpa > 0.6 * ooo_tpa,
        "in-order throughput/area should be competitive: {io_tpa:.3e} vs {ooo_tpa:.3e}"
    );
}

#[test]
fn clustering_sweep_produces_distinct_designs() {
    let node = TechNode::N22;
    let mut areas = Vec::new();
    for cluster in [1u32, 2, 4, 8] {
        let cfg = manycore("inorder", node, 16, cluster);
        let chip = Processor::build(&cfg).unwrap();
        areas.push(chip.die_area_mm2());
    }
    // Fewer, larger L2s amortize controller overhead: area decreases
    // then flattens; all values positive and distinct from each other.
    for w in areas.windows(2) {
        assert!((w[0] - w[1]).abs() > 1e-6, "degenerate sweep: {areas:?}");
    }
}

#[test]
fn metric_choice_changes_the_selected_design() {
    // Construct a sweep where area varies strongly; assert EDAP/EDA2P
    // pick at least as small a design as ED2P does.
    let node = TechNode::N22;
    let wl = WorkloadProfile::splash_like();
    let mut points = Vec::new();
    let mut areas = Vec::new();
    for (kind, cores) in [("inorder", 16), ("inorder", 32), ("ooo", 16), ("ooo", 8)] {
        let cfg = manycore(kind, node, cores, 4);
        let chip = Processor::build(&cfg).unwrap();
        let run = SystemModel::new(&cfg).simulate(&wl, 100_000_000);
        let p = chip.runtime_power(&run.stats);
        points.push(MetricSet::from_power(
            p.total(),
            run.seconds,
            chip.die_area(),
        ));
        areas.push(chip.die_area());
    }
    let ed2p_pick = best_index(&points, Metric::Ed2p).unwrap();
    let eda2p_pick = best_index(&points, Metric::Eda2p).unwrap();
    assert!(
        areas[eda2p_pick] <= areas[ed2p_pick],
        "area-aware metric must not pick a bigger chip: {:?} vs {:?}",
        areas[eda2p_pick],
        areas[ed2p_pick]
    );
}

/// The streaming engine's headline contract: every chip on the final
/// frontier — and every per-metric winner — carries exactly the numbers
/// a from-scratch `Processor::build` of its configuration produces,
/// even though the sweep served it through pruning, dedupe, and
/// cache/clock delta rebuilds. Checked exhaustively over every
/// survivor, bit for bit.
#[test]
fn streaming_dse_survivors_are_bit_identical_to_from_scratch_builds() {
    let grid = AxisGrid::manycore(
        vec![TechNode::N45, TechNode::N22],
        vec![DeviceType::Hp, DeviceType::Lop],
        vec![4, 8],
        vec![1 << 20, 2 << 20],
        (0..8).map(|i| 1.0e9 + 0.25e9 * f64::from(i)).collect(),
    );
    let result =
        dse(&grid, &DseOptions::default(), &mut WorkloadModel::default()).expect("streaming sweep");
    assert!(!result.frontier.is_empty(), "sweep produced no frontier");
    assert_eq!(result.perf.candidates, grid.total());

    let survivors = result
        .frontier
        .points()
        .iter()
        .chain(result.frontier.winners().iter().flatten());
    let mut checked = 0;
    for point in survivors {
        let cfg = grid
            .config_at(point.cursor)
            .expect("survivor cursor in range");
        assert_eq!(point.name, cfg.name, "survivor name mismatch");
        let chip = Processor::build(&cfg).expect("from-scratch build");
        let metrics = WorkloadModel::default().evaluate(&chip);
        assert_eq!(point.area.to_bits(), chip.die_area().to_bits());
        assert_eq!(
            point.peak_power.to_bits(),
            chip.peak_power().total().to_bits()
        );
        assert_eq!(point.metrics.delay.to_bits(), metrics.delay.to_bits());
        assert_eq!(point.metrics.energy.to_bits(), metrics.energy.to_bits());
        assert_eq!(point.metrics.area.to_bits(), metrics.area.to_bits());
        checked += 1;
    }
    assert!(checked > 0);
    assert!(result.frontier.winners_are_pareto());
    // The streaming path must actually have streamed: delta probes are
    // the overwhelming majority of builds.
    assert!(
        result.perf.probes > result.perf.full_builds * 4,
        "sweep did not lean on delta rebuilds: {:?}",
        result.perf
    );
}

/// The case study's simulated scorer through the engine, with budgets
/// on, pruned or not: the same frontier bits, winners, `candidates`
/// and `rejected` as a naive loop that full-builds every candidate,
/// holds it to the same budgets, scores it with the same
/// `SimEvaluator` and offers it in cursor order.
#[test]
fn simulated_sweeps_match_a_naive_full_build_loop() {
    let grid = AxisGrid {
        core_templates: vec![CoreConfig::generic_inorder(), CoreConfig::generic_ooo()],
        cores_per_cluster: vec![2, 4],
        ..AxisGrid::manycore(
            vec![TechNode::N32],
            vec![DeviceType::Hp],
            vec![4, 8],
            vec![1 << 20],
            vec![1.5e9, 2.5e9],
        )
    };
    let mut sim = SimEvaluator {
        workload: WorkloadProfile::splash_like(),
        total_insts: 400_000_000,
    };
    let chips: Vec<Processor> = (0..grid.total())
        .map(|c| Processor::build(&grid.config_at(c).unwrap()).unwrap())
        .collect();
    // Budgets that each reject about a quarter of the grid.
    let upper_quartile = |of: fn(&Processor) -> f64| {
        let mut v: Vec<f64> = chips.iter().map(of).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() * 3 / 4]
    };
    let budgets = Budgets {
        max_area: upper_quartile(Processor::die_area),
        max_peak_power: upper_quartile(|c| c.peak_power().total()),
    };
    let mut naive = DseResult {
        frontier: ParetoFrontier::new(),
        perf: DsePerf::default(),
    };
    for (cursor, chip) in (0..).zip(&chips) {
        naive.perf.candidates += 1;
        let totals = ChipTotals {
            peak_power: chip.peak_power().total(),
            area: chip.die_area(),
        };
        if totals.area > budgets.max_area || totals.peak_power > budgets.max_peak_power {
            naive.perf.rejected += 1;
            continue;
        }
        naive.frontier.offer(FrontierPoint {
            name: chip.config.name.clone(),
            cursor,
            area: totals.area,
            peak_power: totals.peak_power,
            metrics: sim.evaluate_probe(chip, &totals),
        });
    }
    assert!(naive.perf.rejected > 0, "{:?}", naive.perf);
    assert!(
        naive.frontier.len() > 1,
        "a one-point frontier shows nothing"
    );
    for prune in [true, false] {
        let opts = DseOptions {
            budgets,
            prune,
            ..DseOptions::default()
        };
        let engine = dse(&grid, &opts, &mut sim).unwrap();
        assert_eq!(
            sweep_fingerprint(&engine),
            sweep_fingerprint(&naive),
            "prune: {prune}"
        );
    }
}

#[test]
fn more_cores_give_more_throughput_until_bandwidth_saturates() {
    let node = TechNode::N22;
    let wl = WorkloadProfile::memory_bound();
    let mut last_ips = 0.0;
    let mut speedups = Vec::new();
    for cores in [4u32, 16, 64] {
        let cfg = manycore("inorder", node, cores, 4);
        let run = SystemModel::new(&cfg).simulate(&wl, 10_000_000);
        if last_ips > 0.0 {
            speedups.push(run.aggregate_ips / last_ips);
        }
        last_ips = run.aggregate_ips;
    }
    // The second 4× core scaling must help less than the first.
    assert!(
        speedups[1] < speedups[0],
        "no bandwidth saturation visible: {speedups:?}"
    );
}
