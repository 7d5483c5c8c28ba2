//! The experiment functions, one per table/figure.

use crate::reference::published_chips;
use mcpat::metrics::{best_index, Metric, MetricSet};
use mcpat::{Processor, ProcessorConfig};
use mcpat_array::{ArraySpec, OptTarget};
use mcpat_circuit::repeater::RepeatedWire;
use mcpat_interconnect::router::{Router, RouterConfig};
use mcpat_mcore::config::CoreConfig;
use mcpat_mcore::core::CoreModel;
use mcpat_sim::{SystemModel, WorkloadProfile};
use mcpat_tech::{DeviceType, TechNode, TechParams, WireProjection, WireType};

// ---------------------------------------------------------------------------
// T-V1..T-V4: whole-chip validation tables
// ---------------------------------------------------------------------------

/// One row of a validation table.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Chip name.
    pub name: String,
    /// Published power, W.
    pub published_power_w: f64,
    /// Modeled peak power, W.
    pub modeled_power_w: f64,
    /// Published die area, mm².
    pub published_area_mm2: f64,
    /// Modeled die area, mm².
    pub modeled_area_mm2: f64,
    /// Per-component share comparison: (name, published, modeled).
    pub shares: Vec<(String, f64, f64)>,
}

impl ValidationRow {
    /// Relative power error.
    #[must_use]
    pub fn power_error(&self) -> f64 {
        (self.modeled_power_w - self.published_power_w) / self.published_power_w
    }

    /// Relative area error.
    #[must_use]
    pub fn area_error(&self) -> f64 {
        (self.modeled_area_mm2 - self.published_area_mm2) / self.published_area_mm2
    }
}

/// Runs T-V1..T-V4: models all four validation chips.
#[must_use]
pub fn validation_table() -> Vec<ValidationRow> {
    published_chips()
        .into_iter()
        .filter_map(|t| {
            let cfg = (t.config)();
            let chip = Processor::build(&cfg).ok()?;
            let p = chip.peak_power();
            let shares = t
                .power_shares
                .iter()
                .map(|&(name, published)| (name.to_owned(), published, p.share(name)))
                .collect();
            Some(ValidationRow {
                name: t.name.to_owned(),
                published_power_w: t.power_w,
                modeled_power_w: p.total(),
                published_area_mm2: t.area_mm2,
                modeled_area_mm2: chip.die_area_mm2(),
                shares,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// T-V5: runtime (typical) power vs peak
// ---------------------------------------------------------------------------

/// One row of the runtime-power validation.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Chip name.
    pub name: String,
    /// Modeled peak power, W.
    pub peak_w: f64,
    /// Modeled runtime power on the chip's design-target workload, W.
    pub runtime_w: f64,
    /// Published typical/max ratio for reference (Niagara: 63/79 ≈ 0.80).
    pub published_ratio: f64,
}

/// Runs T-V5: runtime power of the throughput chips on their
/// design-target workload (transactional server load) vs modeled peak.
#[must_use]
pub fn runtime_validation() -> Vec<RuntimeRow> {
    let wl = WorkloadProfile::server_transactional();
    [
        (ProcessorConfig::niagara(), 63.0 / 79.0),
        (ProcessorConfig::niagara2(), 84.0 / 103.0),
    ]
    .into_iter()
    .filter_map(|(cfg, published_ratio)| {
        let chip = Processor::build(&cfg).ok()?;
        let run = SystemModel::new(&cfg).simulate(&wl, 500_000_000);
        let runtime = chip.runtime_power(&run.stats).total();
        Some(RuntimeRow {
            name: cfg.name.clone(),
            peak_w: chip.peak_power().total(),
            runtime_w: runtime,
            published_ratio,
        })
    })
    .collect()
}

// ---------------------------------------------------------------------------
// F-CS1..F-CS4: manycore brawny-vs-wimpy case study
// ---------------------------------------------------------------------------

/// One evaluated manycore design point.
#[derive(Debug, Clone)]
pub struct CaseStudyPoint {
    /// Point label, e.g. `inorder-32c-x4`.
    pub name: String,
    /// `"inorder"` or `"ooo"`.
    pub kind: &'static str,
    /// Core count.
    pub cores: u32,
    /// Cores per shared L2.
    pub cluster: u32,
    /// Peak (TDP-style) power, W.
    pub peak_power_w: f64,
    /// Runtime power on the case-study workload, W.
    pub runtime_power_w: f64,
    /// Die area, mm².
    pub area_mm2: f64,
    /// Execution time of the fixed instruction budget, s.
    pub seconds: f64,
    /// Aggregate throughput, instructions/s.
    pub throughput_ips: f64,
    /// Composite metrics point.
    pub metrics: MetricSet,
}

/// The case-study core used for one side of the comparison, normalized
/// to the same clock for both machine types.
fn case_study_core(kind: &'static str, node: TechNode) -> CoreConfig {
    let clock = match node {
        TechNode::N90 | TechNode::N180 => 2.0e9,
        TechNode::N65 => 2.4e9,
        TechNode::N45 => 2.8e9,
        TechNode::N32 | TechNode::N22 => 3.0e9,
    };
    let mut core = match kind {
        "inorder" => {
            // A lean CMT core: dual-issue, 4 threads, small L1s — the
            // Niagara philosophy without the SPARC register windows.
            let mut c = CoreConfig::generic_inorder();
            c.name = "cs-inorder".into();
            c.threads = 4;
            c
        }
        _ => {
            // A 4-wide out-of-order core with full-size L1s.
            let mut c = CoreConfig::generic_ooo();
            c.name = "cs-ooo".into();
            c
        }
    };
    core.clock_hz = clock;
    core
}

/// Builds the design-point grid at `node` — 16- and 32-core in-order
/// chips vs a 16-core out-of-order chip, at clustering degrees
/// {1, 2, 4, 8} — under a workload offering `tlp` parallel software
/// threads, and evaluates power/area/performance on a fixed total
/// instruction budget.
#[must_use]
pub fn case_study_points_with_tlp(node: TechNode, tlp: f64) -> Vec<CaseStudyPoint> {
    let mut wl = WorkloadProfile::splash_like();
    if tlp.is_finite() {
        wl.tlp = tlp;
    }
    // Fixed total work so that delay/energy are comparable across points.
    let total_insts: u64 = 3_200_000_000;
    let total_l2: u64 = 16 * 1024 * 1024; // equal cache budget for all points
    let mut out = Vec::new();
    for (kind, cores) in [("inorder", 16u32), ("inorder", 32u32), ("ooo", 16u32)] {
        for cluster in [1u32, 2, 4, 8] {
            let core = case_study_core(kind, node);
            let cfg = ProcessorConfig::manycore(
                &format!("{kind}-{cores}c-x{cluster}"),
                node,
                core,
                cores,
                cluster,
                total_l2 * u64::from(cluster) / u64::from(cores),
            );
            let Ok(chip) = Processor::build(&cfg) else {
                continue;
            };
            let run = SystemModel::new(&cfg).simulate(&wl, total_insts / u64::from(cores));
            let power = chip.runtime_power(&run.stats);
            out.push(CaseStudyPoint {
                name: cfg.name.clone(),
                kind,
                cores,
                cluster,
                peak_power_w: chip.peak_power().total(),
                runtime_power_w: power.total(),
                area_mm2: chip.die_area_mm2(),
                seconds: run.seconds,
                throughput_ips: run.aggregate_ips,
                metrics: MetricSet::from_power(power.total(), run.seconds, chip.die_area()),
            });
        }
    }
    out
}

/// The winner of each composite metric over a set of case-study points
/// (F-CS3/F-CS4).
#[must_use]
pub fn case_study_metrics(points: &[CaseStudyPoint]) -> Vec<(Metric, String)> {
    let sets: Vec<MetricSet> = points.iter().map(|p| p.metrics).collect();
    Metric::ALL
        .iter()
        .filter_map(|&m| {
            best_index(&sets, m)
                .and_then(|i| points.get(i))
                .map(|p| (m, p.name.clone()))
        })
        .collect()
}

/// Runs the case study at several nodes and reports the EDA²P winner at
/// each — the paper's cross-node sweep showing whether the architectural
/// optimum is stable under scaling.
#[must_use]
pub fn case_study_across_nodes() -> Vec<(TechNode, String)> {
    [TechNode::N45, TechNode::N32, TechNode::N22]
        .into_iter()
        .map(|node| {
            let points = case_study_points_with_tlp(node, f64::INFINITY);
            let winners = case_study_metrics(&points);
            let eda2p = winners
                .into_iter()
                .find(|(m, _)| *m == Metric::Eda2p)
                .map(|(_, w)| w)
                .unwrap_or_default();
            (node, eda2p)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// F-TECH1: technology scaling
// ---------------------------------------------------------------------------

/// One row of the scaling figure.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Node.
    pub node: TechNode,
    /// Total peak power, W.
    pub total_w: f64,
    /// Dynamic component, W.
    pub dynamic_w: f64,
    /// Leakage component, W.
    pub leakage_w: f64,
    /// Die area, mm².
    pub area_mm2: f64,
}

/// Runs F-TECH1: a fixed Niagara2-like chip swept across nodes.
#[must_use]
pub fn tech_scaling() -> Vec<ScalingRow> {
    TechNode::SCALING_STUDY
        .iter()
        .filter_map(|&node| {
            let mut cfg = ProcessorConfig::niagara2();
            cfg.node = node;
            // Neutralize the FB-DIMM PHY standby so the figure shows the
            // silicon leakage trend, not a constant I/O floor.
            if let Some(mc) = cfg.mc.as_mut() {
                mc.phy_standby_override_w = None;
            }
            let chip = Processor::build(&cfg).ok()?;
            let p = chip.peak_power();
            Some(ScalingRow {
                node,
                total_w: p.total(),
                dynamic_w: p.dynamic(),
                leakage_w: p.leakage().total(),
                area_mm2: chip.die_area_mm2(),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// F-TECH2: device flavors
// ---------------------------------------------------------------------------

/// One row of the device-flavor figure.
#[derive(Debug, Clone, Copy)]
pub struct FlavorRow {
    /// Device flavor.
    pub flavor: DeviceType,
    /// FO4 delay, s.
    pub fo4: f64,
    /// 1 MB array read energy, J.
    pub array_read_j: f64,
    /// 1 MB array leakage, W.
    pub array_leakage_w: f64,
    /// In-order core peak power, W.
    pub core_peak_w: f64,
    /// In-order core leakage, W.
    pub core_leakage_w: f64,
}

/// Runs F-TECH2: HP vs LSTP vs LOP at 32 nm on an array and a core.
#[must_use]
pub fn device_flavors() -> Vec<FlavorRow> {
    DeviceType::ALL
        .iter()
        .filter_map(|&flavor| {
            let tech = TechParams::new(TechNode::N32, flavor, 360.0);
            let array = ArraySpec::ram(1024 * 1024, 64)
                .named("flavor-array")
                .solve(&tech, OptTarget::EnergyDelay)
                .ok()?;
            let mut core_cfg = CoreConfig::generic_inorder();
            core_cfg.clock_hz = 1.0e9; // LSTP cannot clock fast; normalize
            let core = CoreModel::build(&tech, &core_cfg).ok()?;
            let peak = core.peak_power();
            Some(FlavorRow {
                flavor,
                fo4: tech.fo4(),
                array_read_j: array.read_energy,
                array_leakage_w: array.leakage.total(),
                core_peak_w: peak.total(),
                core_leakage_w: peak.leakage().total(),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// F-WIRE1: interconnect projections
// ---------------------------------------------------------------------------

/// One row of the wire figure.
#[derive(Debug, Clone, Copy)]
pub struct WireRow {
    /// Node.
    pub node: TechNode,
    /// Projection.
    pub projection: WireProjection,
    /// Delay of an optimally repeated global wire, s/m.
    pub delay_s_per_m: f64,
    /// Energy per bit-transition, J/m.
    pub energy_j_per_m: f64,
}

/// Runs F-WIRE1: repeated global wire delay/energy across nodes and
/// projections.
#[must_use]
pub fn wire_projections() -> Vec<WireRow> {
    let mut rows = Vec::new();
    for &node in &TechNode::SCALING_STUDY {
        for projection in [WireProjection::Aggressive, WireProjection::Conservative] {
            let tech = TechParams::new(node, DeviceType::Hp, 360.0).with_projection(projection);
            let wire = RepeatedWire::delay_optimal(&tech, WireType::Global, 5e-3);
            rows.push(WireRow {
                node,
                projection,
                delay_s_per_m: wire.delay_per_m(),
                energy_j_per_m: wire.energy_per_m(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// F-NOC1: router sweep
// ---------------------------------------------------------------------------

/// One row of the router figure.
#[derive(Debug, Clone, Copy)]
pub struct NocRow {
    /// Flit width, bits.
    pub flit_bits: u32,
    /// Virtual channels per port.
    pub vcs: u32,
    /// Energy of one flit through the router, J.
    pub router_energy_j: f64,
    /// Router area, m².
    pub router_area_m2: f64,
    /// Router leakage, W.
    pub router_leakage_w: f64,
}

/// Runs F-NOC1: router cost vs flit width and VC count at 32 nm.
#[must_use]
pub fn noc_sweep() -> Vec<NocRow> {
    let tech = TechParams::new(TechNode::N32, DeviceType::Hp, 360.0);
    let mut rows = Vec::new();
    for flit_bits in [32u32, 64, 128, 256] {
        for vcs in [2u32, 4, 8] {
            let router = Router::build(
                &tech,
                &RouterConfig {
                    ports: 5,
                    vcs_per_port: vcs,
                    buffers_per_vc: 4,
                    flit_bits,
                },
            )
            .ok();
            let Some(router) = router else { continue };
            rows.push(NocRow {
                flit_bits,
                vcs,
                router_energy_j: router.energy_per_flit(),
                router_area_m2: router.area(),
                router_leakage_w: router.leakage().total(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// F-CLK1: clock network share
// ---------------------------------------------------------------------------

/// One row of the clock-share figure.
#[derive(Debug, Clone, Copy)]
pub struct ClockRow {
    /// Node.
    pub node: TechNode,
    /// Clock network share of total chip power.
    pub clock_share: f64,
}

/// Runs F-CLK1: clock-distribution share across nodes for a fixed chip.
#[must_use]
pub fn clock_fraction() -> Vec<ClockRow> {
    TechNode::SCALING_STUDY
        .iter()
        .filter_map(|&node| {
            let mut cfg = ProcessorConfig::niagara2();
            cfg.node = node;
            if let Some(mc) = cfg.mc.as_mut() {
                mc.phy_standby_override_w = None;
            }
            let chip = Processor::build(&cfg).ok()?;
            let p = chip.peak_power();
            Some(ClockRow {
                node,
                clock_share: p.share("clock"),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// A-ABL1: array partition optimizer ablation
// ---------------------------------------------------------------------------

/// One row of the optimizer ablation.
#[derive(Debug, Clone)]
pub struct ArrayAblationRow {
    /// Partitioning label.
    pub label: String,
    /// Access time, s.
    pub access_time: f64,
    /// Read energy, J.
    pub read_energy: f64,
    /// Area, m².
    pub area: f64,
}

/// Runs A-ABL1: a 2 MB L2 data array — unpartitioned and naively
/// partitioned layouts vs the optimizer's choice.
#[must_use]
pub fn array_ablation() -> Vec<ArrayAblationRow> {
    let tech = TechParams::new(TechNode::N45, DeviceType::Hp, 360.0);
    let spec = ArraySpec::ram(2 * 1024 * 1024, 64).named("abl-l2");
    let mut rows = Vec::new();
    // lint: allow(L012, ablation over three fixed layouts; solve_fixed is one closed-form evaluation with no search, so it never needs a checkpoint)
    for (label, ndwl, ndbl, nspd) in [
        ("monolithic 1x1", 1usize, 1usize, 1usize),
        ("naive 4x4", 4, 4, 1),
        ("naive 16x16", 16, 16, 1),
    ] {
        if let Ok(a) = mcpat_array::solve::solve_fixed(&tech, &spec, ndwl, ndbl, nspd) {
            rows.push(ArrayAblationRow {
                label: label.to_owned(),
                access_time: a.access_time,
                read_energy: a.read_energy,
                area: a.area,
            });
        }
    }
    if let Ok(opt) = spec.solve(&tech, OptTarget::EnergyDelay) {
        rows.push(ArrayAblationRow {
            label: format!("optimizer ({}x{} nspd {})", opt.ndwl, opt.ndbl, opt.nspd),
            access_time: opt.access_time,
            read_energy: opt.read_energy,
            area: opt.area,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// A-ABL2: gating ablation
// ---------------------------------------------------------------------------

/// One row of the gating ablation.
#[derive(Debug, Clone)]
pub struct GatingRow {
    /// Configuration label.
    pub label: String,
    /// Runtime power at 30% duty, W.
    pub runtime_w: f64,
}

/// Runs A-ABL2: clock gating and long-channel leakage reduction on a
/// lightly loaded chip.
#[must_use]
pub fn gating_ablation() -> Vec<GatingRow> {
    let wl = WorkloadProfile::server_transactional();
    let mut rows = Vec::new();
    for (label, clock_gating, long_channel) in [
        ("no gating, short-channel", false, false),
        ("clock gating only", true, false),
        ("long-channel only", false, true),
        ("both", true, true),
    ] {
        let mut cfg = ProcessorConfig::niagara2();
        cfg.core.clock_gating = clock_gating;
        cfg.long_channel_leakage = long_channel;
        let Ok(chip) = Processor::build(&cfg) else {
            continue;
        };
        let mut run = SystemModel::new(&cfg).simulate(&wl, 10_000_000);
        // Force a light-duty interval: 70% idle.
        for core in &mut run.stats.cores {
            core.idle_cycles = core.cycles * 7 / 10;
        }
        let p = chip.runtime_power(&run.stats);
        rows.push(GatingRow {
            label: label.to_owned(),
            runtime_w: p.total(),
        });
    }
    rows
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn validation_errors_are_within_band() {
        for row in validation_table() {
            assert!(
                row.power_error().abs() < 0.30,
                "{}: {}",
                row.name,
                row.power_error()
            );
            assert!(
                row.area_error().abs() < 0.30,
                "{}: {}",
                row.name,
                row.area_error()
            );
        }
    }

    #[test]
    fn runtime_power_ratio_is_in_the_published_band() {
        for row in runtime_validation() {
            let ratio = row.runtime_w / row.peak_w;
            assert!(
                ratio > 0.3 && ratio < 1.0,
                "{}: runtime/peak = {ratio}",
                row.name
            );
        }
    }

    #[test]
    fn case_study_shapes_hold() {
        let points = case_study_points_with_tlp(TechNode::N22, f64::INFINITY);
        assert_eq!(points.len(), 12);
        // In-order 32-core chips out-throughput OoO 16-core chips on TLP work.
        let io_best = points
            .iter()
            .filter(|p| p.kind == "inorder")
            .map(|p| p.throughput_ips)
            .fold(0.0, f64::max);
        let ooo_best = points
            .iter()
            .filter(|p| p.kind == "ooo")
            .map(|p| p.throughput_ips)
            .fold(0.0, f64::max);
        assert!(
            io_best > ooo_best * 0.9,
            "io {io_best:e} vs ooo {ooo_best:e}"
        );
        let winners = case_study_metrics(&points);
        assert_eq!(winners.len(), Metric::ALL.len());
    }

    /// Pins the F-CS3/F-CS4 winners that EXPERIMENTS.md and `repro`'s
    /// shape note describe: the regime flip, and D as the only metric
    /// whose limited-TLP winner departs from 4-core clusters.
    #[test]
    fn case_study_winners_flip_with_the_regime() {
        let winners = |tlp: f64| -> Vec<(Metric, String)> {
            case_study_metrics(&case_study_points_with_tlp(TechNode::N22, tlp))
        };
        let expect = |pick: fn(Metric) -> &'static str| -> Vec<(Metric, String)> {
            Metric::ALL
                .iter()
                .map(|&m| (m, pick(m).to_owned()))
                .collect()
        };
        assert_eq!(winners(f64::INFINITY), expect(|_| "inorder-32c-x8"));
        assert_eq!(
            winners(32.0),
            expect(|m| if m == Metric::Delay {
                "ooo-16c-x8"
            } else {
                "ooo-16c-x4"
            })
        );
    }

    #[test]
    fn cross_node_winners_exist_for_every_node() {
        let rows = case_study_across_nodes();
        assert_eq!(rows.len(), 3);
        for (node, winner) in rows {
            assert!(!winner.is_empty(), "{node} has no winner");
        }
    }

    #[test]
    fn scaling_rows_shrink_and_leak() {
        let rows = tech_scaling();
        for pair in rows.windows(2) {
            assert!(pair[1].area_mm2 < pair[0].area_mm2);
            let f0 = pair[0].leakage_w / pair[0].total_w;
            let f1 = pair[1].leakage_w / pair[1].total_w;
            assert!(f1 > f0, "leakage fraction must grow");
        }
    }

    #[test]
    fn lstp_leaks_orders_less_than_hp() {
        let rows = device_flavors();
        let hp = rows.iter().find(|r| r.flavor == DeviceType::Hp).unwrap();
        let lstp = rows.iter().find(|r| r.flavor == DeviceType::Lstp).unwrap();
        assert!(lstp.array_leakage_w < hp.array_leakage_w / 100.0);
        assert!(lstp.fo4 > hp.fo4);
    }

    #[test]
    fn conservative_wires_are_consistently_worse() {
        let rows = wire_projections();
        for chunk in rows.chunks(2) {
            assert!(chunk[1].delay_s_per_m > chunk[0].delay_s_per_m);
            assert!(chunk[1].energy_j_per_m > chunk[0].energy_j_per_m);
        }
    }

    #[test]
    fn router_energy_grows_with_flit_width() {
        let rows = noc_sweep();
        let narrow = rows
            .iter()
            .find(|r| r.flit_bits == 32 && r.vcs == 4)
            .unwrap();
        let wide = rows
            .iter()
            .find(|r| r.flit_bits == 256 && r.vcs == 4)
            .unwrap();
        assert!(wide.router_energy_j > 3.0 * narrow.router_energy_j);
    }

    #[test]
    fn optimizer_beats_naive_partitionings() {
        let rows = array_ablation();
        let opt = rows.last().unwrap();
        let mono = &rows[0];
        // The optimizer must beat the monolithic layout on energy·delay.
        assert!(
            opt.read_energy * opt.access_time < mono.read_energy * mono.access_time,
            "optimizer ED {} vs monolithic {}",
            opt.read_energy * opt.access_time,
            mono.read_energy * mono.access_time
        );
    }

    #[test]
    fn gating_saves_power_monotonically() {
        let rows = gating_ablation();
        let none = rows[0].runtime_w;
        let both = rows[3].runtime_w;
        assert!(both < none, "both {both} vs none {none}");
    }

    #[test]
    fn clock_share_is_double_digit_at_older_nodes() {
        let rows = clock_fraction();
        assert!(
            rows[0].clock_share > 0.10,
            "90nm share {}",
            rows[0].clock_share
        );
    }
}
