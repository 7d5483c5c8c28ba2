//! Streaming design-space exploration over a declarative axis grid.
//!
//! This is the paper's case-study workflow — build many chips, evaluate
//! each under the metrics, keep the Pareto-optimal ones — scaled to
//! 10^5–10^6-candidate sweeps. Four ideas keep it cheap:
//!
//! 1. **Lazy enumeration** — an [`AxisGrid`] describes the candidate
//!    set ({core template × cluster size × tech node × device flavor ×
//!    core count × L2 size × clock}) and candidates are generated from a
//!    cursor, never materialized.
//! 2. **In-place probes** — the clock axis is innermost and the L2 axis
//!    second-innermost, so the candidates of a row differ from its base
//!    chip only in the clock: the base itself is retargeted in place
//!    per candidate ([`Processor::retarget_clock`], no clone, no
//!    allocation), and consecutive rows advance the base by a
//!    [`Delta::CacheSize`] rebuild instead of a full build.
//! 3. **Lower-bound pruning** — before a candidate is built, the
//!    evaluator produces a certified lower bound on its metrics; if the
//!    incremental [`ParetoFrontier`] already dominates the bound, the
//!    build never runs (see [`ParetoFrontier::would_prune`] for the
//!    soundness argument).
//! 4. **Row facts** — die area and total leakage do not depend on the
//!    clock, so they are taken once per row from its base chip
//!    ([`RowFacts`]) and shared by every candidate of the row: the
//!    area budget check reads them, [`WorkloadModel`]'s lower bound
//!    adds the row's leakage to the uncore's dynamic power at the
//!    candidate's clock, and each probe walks only the dynamic terms
//!    of peak power, adds the row's leakage, and hands the total to the
//!    evaluator ([`ChipTotals`]).
//!
//! Work streams in bounded chunks, deduped by configuration identity up
//! to the name, so peak candidate storage is
//! O(frontier + chunk). Probes run serially: each costs about what a
//! pool task would, so fanning them out lost to walking the row in
//! place (DESIGN.md §12 has the measurements). The frontier
//! plus the generator cursor serialize to JSON ([`DseCheckpoint`]) at
//! chunk boundaries, so a sweep killed by the `mcpat-guard`
//! deadline/cancel machinery resumes where it stopped with a
//! bit-identical final frontier.

use crate::config::ProcessorConfig;
use crate::error::McpatError;
use crate::frontier::{FrontierPoint, ParetoFrontier};
use crate::metrics::{Metric, MetricSet};
use crate::processor::{checkpoint, clock_delta_rebuilds_fully, Delta, PeakLeakage, Processor};
use mcpat_diag::Diagnostics;
use mcpat_mcore::config::CoreConfig;
use mcpat_tech::{DeviceType, TechNode};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Physical budgets a candidate must respect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budgets {
    /// Maximum die area, m² (`f64::INFINITY` to disable).
    pub max_area: f64,
    /// Maximum peak power, W (`f64::INFINITY` to disable).
    pub max_peak_power: f64,
}

impl Default for Budgets {
    fn default() -> Budgets {
        Budgets {
            max_area: f64::INFINITY,
            max_peak_power: f64::INFINITY,
        }
    }
}

/// True if two configurations describe the same chip, ignoring the
/// report name.
pub(crate) fn eq_ignoring_name(a: &ProcessorConfig, b: &ProcessorConfig) -> bool {
    // Exhaustive destructure: adding a field to `ProcessorConfig`
    // breaks this compile, forcing the dedup key to be revisited — a
    // silently stale key would merge genuinely different candidates.
    let ProcessorConfig {
        name,
        node,
        device_type,
        temperature_k,
        projection,
        long_channel_leakage,
        clock_hz,
        num_cores,
        core,
        l2,
        num_l2s,
        l3,
        fabric,
        mc,
        io_bandwidth,
        num_shared_fpus,
        power_gating,
        vdd_scale,
    } = a;
    // An empty name changes validation warnings, so emptiness (though
    // not the name itself) must match for the builds to be identical.
    name.is_empty() == b.name.is_empty()
        && *node == b.node
        && *device_type == b.device_type
        && *temperature_k == b.temperature_k
        && *projection == b.projection
        && *long_channel_leakage == b.long_channel_leakage
        && *clock_hz == b.clock_hz
        && *num_cores == b.num_cores
        && *core == b.core
        && *l2 == b.l2
        && *num_l2s == b.num_l2s
        && *l3 == b.l3
        && *fabric == b.fabric
        && *mc == b.mc
        && *io_bandwidth == b.io_bandwidth
        && *num_shared_fpus == b.num_shared_fpus
        && *power_gating == b.power_gating
        && *vdd_scale == b.vdd_scale
}

/// A declarative candidate grid: the cross product of seven axes.
/// Candidates are enumerated lazily from a cursor with the core
/// template outermost, then the cluster size, and the clock axis
/// innermost with the L2 axis second-innermost — the order that lets
/// the streaming engine serve neighboring candidates with delta
/// rebuilds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisGrid {
    /// Core templates every candidate instantiates (the outermost
    /// axis). Each template's own clock is replaced by the clock axis.
    pub core_templates: Vec<CoreConfig>,
    /// Cores sharing each L2 bank; a value is capped at the candidate's
    /// core count, so `[2]` gives `cores.min(2)`.
    pub cores_per_cluster: Vec<u32>,
    /// Technology nodes.
    pub nodes: Vec<TechNode>,
    /// Device flavors (HP / LSTP / LOP).
    pub device_types: Vec<DeviceType>,
    /// Core counts.
    pub core_counts: Vec<u32>,
    /// L2 capacity per cluster, bytes.
    pub l2_bytes: Vec<u64>,
    /// Target clocks, Hz (the innermost axis).
    pub clocks_hz: Vec<f64>,
}

impl AxisGrid {
    /// A grid over [`ProcessorConfig::manycore`] chips built from a
    /// generic in-order core template, two cores to an L2 cluster.
    #[must_use]
    pub fn manycore(
        nodes: Vec<TechNode>,
        device_types: Vec<DeviceType>,
        core_counts: Vec<u32>,
        l2_bytes: Vec<u64>,
        clocks_hz: Vec<f64>,
    ) -> AxisGrid {
        AxisGrid {
            core_templates: vec![CoreConfig::generic_inorder()],
            cores_per_cluster: vec![2],
            nodes,
            device_types,
            core_counts,
            l2_bytes,
            clocks_hz,
        }
    }

    /// Total number of candidates the grid enumerates.
    #[must_use]
    pub fn total(&self) -> u64 {
        (self.core_templates.len() as u64)
            .saturating_mul(self.cores_per_cluster.len() as u64)
            .saturating_mul(self.nodes.len() as u64)
            .saturating_mul(self.device_types.len() as u64)
            .saturating_mul(self.core_counts.len() as u64)
            .saturating_mul(self.l2_bytes.len() as u64)
            .saturating_mul(self.clocks_hz.len() as u64)
    }

    /// Collecting validation pass over the axes themselves (each
    /// candidate configuration is additionally validated when built).
    #[must_use]
    pub fn validate(&self) -> Diagnostics {
        let mut d = Diagnostics::new();
        if self.core_templates.is_empty() {
            d.error(
                "dse.core_templates",
                "at least one core template is required",
            );
        }
        if self.cores_per_cluster.is_empty() {
            d.error(
                "dse.cores_per_cluster",
                "at least one cluster size is required",
            );
        }
        for (i, &cluster) in self.cores_per_cluster.iter().enumerate() {
            if cluster == 0 {
                d.error(
                    format!("dse.cores_per_cluster[{i}]"),
                    "a cluster holds at least one core",
                );
                continue;
            }
            // `config_at` caps the cluster at the core count; what is
            // left must tile the cores exactly. Otherwise the row's
            // clusters would not hold the size the grid names, and where
            // the L2 count does not divide the cores either (2 into 3),
            // the chip fails validation mid-sweep.
            let misfits: Vec<String> = self
                .core_counts
                .iter()
                .filter(|&&cores| !cores.is_multiple_of(cluster.min(cores)))
                .map(u32::to_string)
                .collect();
            if !misfits.is_empty() {
                d.error(
                    format!("dse.cores_per_cluster[{i}]"),
                    format!(
                        "cluster size {cluster} does not divide core count{} {}",
                        if misfits.len() > 1 { "s" } else { "" },
                        misfits.join(", ")
                    ),
                );
            }
        }
        if self.nodes.is_empty() {
            d.error("dse.nodes", "at least one tech node is required");
        }
        if self.device_types.is_empty() {
            d.error("dse.device_types", "at least one device flavor is required");
        }
        if self.core_counts.is_empty() {
            d.error("dse.core_counts", "at least one core count is required");
        }
        if self.l2_bytes.is_empty() {
            d.error("dse.l2_bytes", "at least one L2 size is required");
        }
        if self.clocks_hz.is_empty() {
            d.error("dse.clocks_hz", "at least one clock point is required");
        }
        for (i, &clock) in self.clocks_hz.iter().enumerate() {
            if !(clock.is_finite() && clock > 0.0) {
                d.error(
                    format!("dse.clocks_hz[{i}]"),
                    format!("clock must be a positive, finite frequency in Hz, got {clock}"),
                );
            }
        }
        d
    }

    /// Number of candidates per delta-rebuild row (the clock axis).
    fn clocks_len(&self) -> u64 {
        self.clocks_hz.len() as u64
    }

    /// The configuration at `cursor` (named `dse-<cursor>`), or `None`
    /// past the end of the grid.
    #[must_use]
    pub fn config_at(&self, cursor: u64) -> Option<ProcessorConfig> {
        if cursor >= self.total() {
            return None;
        }
        let clock = *self.clocks_hz.get((cursor % self.clocks_len()) as usize)?;
        let mut rest = cursor / self.clocks_len();
        let l2 = *self
            .l2_bytes
            .get((rest % self.l2_bytes.len() as u64) as usize)?;
        rest /= self.l2_bytes.len() as u64;
        let cores = *self
            .core_counts
            .get((rest % self.core_counts.len() as u64) as usize)?;
        rest /= self.core_counts.len() as u64;
        let device = *self
            .device_types
            .get((rest % self.device_types.len() as u64) as usize)?;
        rest /= self.device_types.len() as u64;
        let node = *self.nodes.get((rest % self.nodes.len() as u64) as usize)?;
        rest /= self.nodes.len() as u64;
        let cluster = *self
            .cores_per_cluster
            .get((rest % self.cores_per_cluster.len() as u64) as usize)?;
        rest /= self.cores_per_cluster.len() as u64;
        let template = self.core_templates.get(rest as usize)?;
        let mut cfg = ProcessorConfig::manycore(
            &format!("dse-{cursor}"),
            node,
            template.clone(),
            cores,
            cluster.min(cores),
            l2,
        );
        cfg.device_type = device;
        cfg.clock_hz = clock;
        cfg.core.clock_hz = clock;
        Some(cfg)
    }
}

/// Knobs of one [`dse`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseOptions {
    /// Physical budgets a candidate must respect to reach the frontier.
    pub budgets: Budgets,
    /// Candidates streamed per pool batch; peak candidate storage is
    /// O(frontier + chunk).
    pub chunk: usize,
    /// Emit a checkpoint to the sink roughly every this many candidates
    /// (rounded up to chunk boundaries); 0 disables periodic
    /// checkpoints.
    pub checkpoint_every: u64,
    /// Lower-bound pruning. Disable to build every candidate — the
    /// naive-throughput baseline and exhaustive verification runs.
    pub prune: bool,
}

impl Default for DseOptions {
    fn default() -> DseOptions {
        DseOptions {
            budgets: Budgets::default(),
            chunk: 256,
            checkpoint_every: 0,
            prune: true,
        }
    }
}

/// How a sweep spent its candidates. Serialized into checkpoints so a
/// resumed sweep's totals continue from the interrupted run's.
///
/// After a resume, `full_builds`/`cache_rebuilds` can differ slightly
/// from an uninterrupted run (the first row after the resume point
/// re-anchors with a full build instead of a cache delta); the frontier
/// and every decision-relevant counter (`candidates`, `pruned`,
/// `rejected`) stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DsePerf {
    /// Candidates enumerated (the cursor advanced past them).
    pub candidates: u64,
    /// Candidates discarded by the frontier's lower-bound prune before
    /// any build ran ([`DseEvaluator::prunes_in_row`]). Never counted
    /// on rows under [`CoreConfig::enforce_timing`], where nothing is
    /// pruned. With [`WorkloadModel`] the count depends on how tight
    /// its bound is, while the frontier and the `candidates` and
    /// `rejected` counts do not: a tighter bound moves candidates from
    /// `probes` to `pruned` only.
    pub pruned: u64,
    /// Candidates outside [`DseOptions::budgets`] (rejected before the
    /// build when the exact clock-invariant area already exceeds the
    /// area budget, after it otherwise; always after it under
    /// [`CoreConfig::enforce_timing`], where the row base's area is not
    /// the candidate's).
    pub rejected: u64,
    /// Candidates served by an in-place clock probe
    /// ([`Processor::retarget_clock`]) off a row base.
    pub probes: u64,
    /// Row bases advanced with an L2 resize ([`Delta::CacheSize`])
    /// instead of a full build.
    pub cache_rebuilds: u64,
    /// Full [`Processor::build`] runs (row-base anchors, plus probes
    /// forced through the fallback by `core.enforce_timing`).
    pub full_builds: u64,
    /// Candidates whose configuration (up to the name) an earlier
    /// candidate of the same chunk already probed: the same clock in a
    /// row whose base equals that candidate's row base. Counted here
    /// instead of in `probes`/`full_builds`.
    pub deduped: u64,
}

/// The outcome of a completed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DseResult {
    /// The incremental Pareto frontier with per-metric winners.
    pub frontier: ParetoFrontier,
    /// Build/prune accounting.
    pub perf: DsePerf,
}

impl DseResult {
    /// Serializes the finished sweep in the checkpoint format (cursor at
    /// the end of the grid), so the final frontier can be archived or
    /// diffed with the same tooling as in-flight checkpoints.
    #[must_use]
    pub fn final_checkpoint(&self, grid: &AxisGrid) -> DseCheckpoint {
        DseCheckpoint::capture(grid, grid.total(), &self.frontier, self.perf)
    }
}

/// The clock-invariant facts of one row, taken once from its base chip.
///
/// A row's candidates differ from its base only in the clock, and the
/// clock moves neither die area (the clock network sizes its drivers
/// from switched capacitance, not frequency) nor leakage: a probe
/// retargets the base's solved components in place, so both totals
/// keep the base's bits (property-tested per preset, with and without
/// power gating). Under [`CoreConfig::enforce_timing`] a probe is a
/// full build instead, which may re-partition arrays for the new cycle
/// time; there the facts are the row base's, not the candidate's, and
/// the engine neither rejects nor prunes on them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowFacts {
    /// Die area, m² ([`Processor::die_area`]).
    pub area: f64,
    /// Total leakage, W ([`Processor::total_leakage`]).
    pub leakage: f64,
    /// The base's peak leakage, which its retargeted probes share.
    peak: PeakLeakage,
}

impl RowFacts {
    /// The facts of `base`: two walks over the chip, made once per row.
    #[must_use]
    pub fn of(base: &Processor) -> RowFacts {
        let peak = base.peak_leakage();
        RowFacts {
            area: base.die_area(),
            leakage: peak.total,
            peak,
        }
    }
}

/// The totals the engine computed for a probed candidate before handing
/// it to [`DseEvaluator::evaluate_probe`]; each equals, bit for bit,
/// what the named [`Processor`] method returns on that chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipTotals {
    /// [`Processor::peak_power_total`], W, for the peak-power budget
    /// check: once per probe, the dynamic terms walked on the chip plus
    /// the row's leakage for a retargeted probe, the whole breakdown for
    /// a full build.
    pub peak_power: f64,
    /// [`Processor::die_area`], m²: the row's [`RowFacts::area`] for a
    /// retargeted probe, walked on the chip for a full build.
    pub area: f64,
}

/// An unbuilt candidate of a row, as the prune pass sees it
/// ([`DseEvaluator::prunes_in_row`]).
#[derive(Debug, Clone, Copy)]
pub struct RowCandidate<'a> {
    /// The row base: a built chip identical to the candidate except
    /// for the clock and the name.
    pub base: &'a Processor,
    /// The row's facts.
    pub facts: RowFacts,
    /// The candidate's clock, Hz.
    pub clock_hz: f64,
    /// The candidate's grid cursor.
    pub cursor: u64,
}

impl RowCandidate<'_> {
    /// The candidate's configuration, equal to [`AxisGrid::config_at`]
    /// of its cursor (name included): the row base's, renamed and
    /// retargeted. One clone per call; [`WorkloadModel`] never asks.
    #[must_use]
    pub fn config(&self) -> ProcessorConfig {
        let mut cfg = self.base.config.clone();
        write_candidate_name(&mut cfg.name, self.cursor);
        cfg.clock_hz = self.clock_hz;
        cfg.core.clock_hz = self.clock_hz;
        cfg
    }
}

/// Workload evaluation injected into the streaming engine.
///
/// Implementations must be deterministic: the frontier spot-check tests
/// and checkpoint/resume bit-identity both rely on `evaluate` producing
/// the same bits for the same chip.
///
/// An implementation writes the two `(&Processor, …)` forms. The engine
/// calls the two row forms, whose defaults forward to them; an
/// evaluator overrides a row form to use what the engine has already
/// computed. Per row, the engine walks the base chip once for its
/// [`RowFacts`] (die area and total leakage); per probe, it totals peak
/// power once for the budget check ([`ChipTotals`]). The probe's
/// totals are the exact bits the [`Processor`] methods return on the
/// probed chip. The row facts are the base's exact bits, and equal
/// the candidate's because a retarget leaves area and leakage alone;
/// under [`CoreConfig::enforce_timing`] a probe is a full build, so
/// [`ChipTotals::area`] is walked on it, and the engine asks for no
/// bound at all.
pub trait DseEvaluator {
    /// Workload metrics of a built chip.
    ///
    /// The engine hands over the row base retargeted in place
    /// ([`Processor::retarget_clock`]): its configuration
    /// (name included), components, warnings and every modeled number
    /// are those of a full build of the candidate, but its
    /// [`Processor::perf`] and [`Processor::trace`] describe the build
    /// of the row base. Prefer the allocation-free totals
    /// ([`Processor::peak_power_total`], [`Processor::die_area`]) on
    /// this per-candidate path.
    fn evaluate(&mut self, chip: &Processor) -> MetricSet;

    /// A certified lower bound on the metrics of the (unbuilt)
    /// candidate at `cfg`, given its row `base` — a built chip
    /// identical to the candidate except for the clock. Every field
    /// must be ≤ the value [`DseEvaluator::evaluate`] would produce,
    /// and positive. Return `None` to skip pruning for this candidate.
    fn lower_bound(&self, base: &Processor, cfg: &ProcessorConfig) -> Option<MetricSet>;

    /// What the engine calls for each probed candidate: the metrics of
    /// `chip` (the same full-fidelity candidate
    /// [`DseEvaluator::evaluate`] describes), given its `totals`. The
    /// default ignores the totals and calls `evaluate`.
    fn evaluate_probe(&mut self, chip: &Processor, totals: &ChipTotals) -> MetricSet {
        let _ = totals;
        self.evaluate(chip)
    }

    /// What the prune pass calls for each candidate: true if the
    /// frontier already beats it, that is, if
    /// [`ParetoFrontier::would_prune`] holds for its
    /// [`DseEvaluator::lower_bound`]. The default forwards the row base
    /// and the candidate's configuration to `lower_bound`. An override
    /// must decide exactly as that does; it may test cheaper, looser
    /// bounds first, because `would_prune` is monotone: a bound that
    /// prunes proves that every higher one does.
    fn prunes_in_row(&self, candidate: &RowCandidate<'_>, frontier: &ParetoFrontier) -> bool {
        self.lower_bound(candidate.base, &candidate.config())
            .is_some_and(|lb| frontier.would_prune(&lb))
    }
}

/// The default throughput-workload model: a fixed amount of work spread
/// perfectly over the cores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadModel {
    /// Total work, core-cycles: delay = work / (num_cores × clock).
    pub work: f64,
}

impl Default for WorkloadModel {
    fn default() -> WorkloadModel {
        WorkloadModel { work: 1e12 }
    }
}

impl WorkloadModel {
    fn delay(&self, num_cores: u32, clock_hz: f64) -> f64 {
        self.work / (f64::from(num_cores).max(1.0) * clock_hz)
    }

    /// The metrics of a chip with these totals, core count and clock.
    fn metrics(&self, peak_power: f64, area: f64, num_cores: u32, clock_hz: f64) -> MetricSet {
        MetricSet::from_power(peak_power, self.delay(num_cores, clock_hz), area)
    }

    /// The lower bound for the candidate at `clock_hz` of the row of
    /// `base`, whose facts are `facts`. Delay is exact. Area is
    /// clock-invariant, so the row's area is the candidate's exact
    /// area. Peak power is bounded by the probe's own walk at the
    /// candidate's clock with the cores' dynamic term priced at zero
    /// (the uncore's dynamic power plus the row's leakage; see
    /// [`Processor::peak_power_floor_at`]), and energy is that floor
    /// times the same delay, through the same multiplication as
    /// [`DseEvaluator::evaluate`]'s: monotone rounding keeps it a
    /// bound. `None` where the probe would not take that walk, under
    /// [`CoreConfig::enforce_timing`] and where the clock moves the
    /// cores' leakage scale (a power-gated chip below 1 kHz).
    fn bound(
        &self,
        base: &Processor,
        facts: &RowFacts,
        num_cores: u32,
        clock_hz: f64,
    ) -> Option<MetricSet> {
        let power = base.peak_power_floor_at(clock_hz, &facts.peak)?;
        Some(self.metrics(power, facts.area, num_cores, clock_hz))
    }
}

impl DseEvaluator for WorkloadModel {
    fn evaluate(&mut self, chip: &Processor) -> MetricSet {
        let c = &chip.config;
        self.metrics(
            chip.peak_power_total(),
            chip.die_area(),
            c.num_cores,
            c.clock_hz,
        )
    }

    fn lower_bound(&self, base: &Processor, cfg: &ProcessorConfig) -> Option<MetricSet> {
        self.bound(base, &RowFacts::of(base), cfg.num_cores, cfg.clock_hz)
    }

    fn evaluate_probe(&mut self, chip: &Processor, totals: &ChipTotals) -> MetricSet {
        let c = &chip.config;
        self.metrics(totals.peak_power, totals.area, c.num_cores, c.clock_hz)
    }

    fn prunes_in_row(&self, candidate: &RowCandidate<'_>, frontier: &ParetoFrontier) -> bool {
        let RowCandidate {
            base,
            facts,
            clock_hz,
            ..
        } = *candidate;
        let num_cores = base.config.num_cores;
        // Where the row's leakage alone lies under the floor, it is a
        // looser bound that needs no walk: try it first.
        if base.peak_leakage_is_clock_invariant()
            && frontier.would_prune(&self.metrics(facts.leakage, facts.area, num_cores, clock_hz))
        {
            return true;
        }
        self.bound(base, &facts, num_cores, clock_hz)
            .is_some_and(|lb| frontier.would_prune(&lb))
    }
}

/// Bit-exact JSON image of one frontier point: every float is stored as
/// its IEEE-754 bit pattern (a u64, which JSON integers carry exactly),
/// so a resumed frontier is indistinguishable from the serialized one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct PointRepr {
    name: String,
    cursor: u64,
    area_bits: u64,
    peak_power_bits: u64,
    delay_bits: u64,
    energy_bits: u64,
    metric_area_bits: u64,
}

impl PointRepr {
    fn from_point(p: &FrontierPoint) -> PointRepr {
        PointRepr {
            name: p.name.clone(),
            cursor: p.cursor,
            area_bits: p.area.to_bits(),
            peak_power_bits: p.peak_power.to_bits(),
            delay_bits: p.metrics.delay.to_bits(),
            energy_bits: p.metrics.energy.to_bits(),
            metric_area_bits: p.metrics.area.to_bits(),
        }
    }

    fn into_point(self) -> FrontierPoint {
        FrontierPoint {
            name: self.name,
            cursor: self.cursor,
            area: f64::from_bits(self.area_bits),
            peak_power: f64::from_bits(self.peak_power_bits),
            metrics: MetricSet {
                delay: f64::from_bits(self.delay_bits),
                energy: f64::from_bits(self.energy_bits),
                area: f64::from_bits(self.metric_area_bits),
            },
        }
    }
}

/// The checkpoint schema identifier. Version 2 added the core-template
/// and cluster-size axes to the grid echo.
const CHECKPOINT_SCHEMA: &str = "mcpat-dse-checkpoint-v2";

/// A resumable image of an in-flight sweep: the grid (echoed for
/// validation), the generator cursor (always a chunk boundary), the
/// counters, and the frontier with its tracked winners.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseCheckpoint {
    schema: String,
    grid: AxisGrid,
    cursor: u64,
    perf: DsePerf,
    offered: u64,
    admitted: u64,
    evicted: u64,
    frontier: Vec<PointRepr>,
    winners: Vec<Option<PointRepr>>,
}

impl DseCheckpoint {
    fn capture(
        grid: &AxisGrid,
        cursor: u64,
        frontier: &ParetoFrontier,
        perf: DsePerf,
    ) -> DseCheckpoint {
        DseCheckpoint {
            schema: CHECKPOINT_SCHEMA.to_owned(),
            grid: grid.clone(),
            cursor,
            perf,
            offered: frontier.offered(),
            admitted: frontier.admitted(),
            evicted: frontier.evicted(),
            frontier: frontier
                .points()
                .iter()
                .map(PointRepr::from_point)
                .collect(),
            winners: frontier
                .winners()
                .iter()
                .map(|w| w.as_ref().map(PointRepr::from_point))
                .collect(),
        }
    }

    /// The generator cursor the sweep will resume from.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The counters accumulated up to [`DseCheckpoint::cursor`].
    #[must_use]
    pub fn perf(&self) -> DsePerf {
        self.perf
    }

    /// Reconstructs the frontier exactly as serialized.
    #[must_use]
    pub fn frontier(&self) -> ParetoFrontier {
        let mut winners: [Option<FrontierPoint>; Metric::ALL.len()] = Default::default();
        for (slot, w) in winners.iter_mut().zip(self.winners.iter()) {
            *slot = w.clone().map(PointRepr::into_point);
        }
        ParetoFrontier::from_parts(
            self.frontier
                .iter()
                .cloned()
                .map(PointRepr::into_point)
                .collect(),
            winners,
            self.offered,
            self.admitted,
            self.evicted,
        )
    }

    /// Serializes the checkpoint as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// [`McpatError::Invalid`] if serialization fails (it cannot for
    /// this self-describing schema, but the error is surfaced rather
    /// than swallowed).
    pub fn to_json(&self) -> Result<String, McpatError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| McpatError::config("dse.checkpoint", format!("serialize: {e}")))
    }

    /// Parses a checkpoint produced by [`DseCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`McpatError::Invalid`] on malformed JSON, a schema mismatch, or
    /// a `winners` array without exactly one slot per [`Metric`].
    pub fn from_json(text: &str) -> Result<DseCheckpoint, McpatError> {
        let parse_error = |e| McpatError::config("dse.checkpoint", format!("parse: {e}"));
        let value: serde_json::Value = serde_json::from_str(text).map_err(parse_error)?;
        // The schema says how the rest reads, so it is checked first: an
        // older checkpoint fails here, not on whichever field it lacks.
        let schema = value
            .get("schema")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("no schema");
        if schema != CHECKPOINT_SCHEMA {
            return Err(McpatError::config(
                "dse.checkpoint.schema",
                format!("expected {CHECKPOINT_SCHEMA}, got {schema}"),
            ));
        }
        let cp: DseCheckpoint = serde_json::from_value(value).map_err(parse_error)?;
        if cp.winners.len() != Metric::ALL.len() {
            return Err(McpatError::config(
                "dse.checkpoint.winners",
                format!(
                    "expected one winner slot per metric ({}), got {}",
                    Metric::ALL.len(),
                    cp.winners.len()
                ),
            ));
        }
        Ok(cp)
    }
}

/// Runs a complete streaming sweep with no checkpointing; see
/// [`dse_streaming`].
///
/// # Errors
///
/// Propagates [`McpatError`] exactly like [`dse_streaming`].
pub fn dse<E: DseEvaluator>(
    grid: &AxisGrid,
    opts: &DseOptions,
    evaluator: &mut E,
) -> Result<DseResult, McpatError> {
    dse_streaming(grid, opts, evaluator, None, |_| Ok(()))
}

/// One in-flight candidate of a chunk, between enumeration and its
/// probe.
struct Pending {
    cursor: u64,
    clock_hz: f64,
    /// Index into the chunk's row table.
    row_slot: usize,
}

/// The base chip of one row of a chunk, with what every candidate of
/// the row shares.
struct RowBase {
    row: u64,
    chip: Processor,
    facts: RowFacts,
    /// Slot of the chunk's first row whose base configuration equals
    /// this one up to the name; candidates of rows in one class with
    /// the same clock are duplicates.
    class: usize,
}

/// Writes the name [`AxisGrid::config_at`] gives `cursor` into `name`,
/// reusing its buffer.
fn write_candidate_name(name: &mut String, cursor: u64) {
    name.clear();
    let _ = write!(name, "dse-{cursor}");
}

/// The streaming engine: enumerates `grid` from the resume cursor (or
/// 0) in `opts.chunk`-sized chunks, probes the candidates that survive
/// pruning, offers them to the incremental frontier, and emits a
/// [`DseCheckpoint`] to `on_checkpoint` at the configured cadence
/// (chunk-aligned, so a resumed sweep replays no partial chunk and its
/// final frontier is bit-identical to an uninterrupted run's).
///
/// # Errors
///
/// [`McpatError::Invalid`] for a malformed grid or a resume checkpoint
/// whose grid echo does not match; [`McpatError::Budget`] when the
/// active `mcpat-guard` budget trips (the sweep can be resumed from the
/// last emitted checkpoint); any build error from a candidate,
/// propagated in cursor order within the failing chunk.
pub fn dse_streaming<E, S>(
    grid: &AxisGrid,
    opts: &DseOptions,
    evaluator: &mut E,
    resume: Option<&DseCheckpoint>,
    mut on_checkpoint: S,
) -> Result<DseResult, McpatError>
where
    E: DseEvaluator,
    S: FnMut(&DseCheckpoint) -> Result<(), McpatError>,
{
    let _span = mcpat_obs::span("dse");
    grid.validate().into_result().map_err(McpatError::Invalid)?;
    let (mut cursor, mut frontier, mut perf) = match resume {
        Some(cp) => {
            if cp.grid != *grid {
                return Err(McpatError::config(
                    "dse.checkpoint.grid",
                    "checkpoint was taken over a different axis grid",
                ));
            }
            (cp.cursor, cp.frontier(), cp.perf)
        }
        None => (0, ParetoFrontier::new(), DsePerf::default()),
    };

    let total = grid.total();
    let chunk = opts.chunk.max(1) as u64;
    // Two candidates of one row are duplicates only if the clock axis
    // repeats a value.
    let mut clock_bits: Vec<u64> = grid.clocks_hz.iter().map(|c| c.to_bits()).collect();
    clock_bits.sort_unstable();
    let clocks_repeat = clock_bits.windows(2).any(|w| matches!(w, [a, b] if a == b));
    // Base chips always sit at the row's first clock point; within one
    // (node, flavor, cores) group consecutive rows differ only in L2
    // size, so the base advances by a CacheSize delta instead of a full
    // build. `(row, chip)`, carried across chunks.
    let mut last_base: Option<(u64, Processor)> = None;
    let mut since_checkpoint = 0u64;

    while cursor < total {
        checkpoint("dse")?;
        let end = (cursor + chunk).min(total);
        run_chunk(
            grid,
            opts,
            evaluator,
            cursor..end,
            clocks_repeat,
            &mut last_base,
            &mut frontier,
            &mut perf,
        )?;
        since_checkpoint += end - cursor;
        cursor = end;
        mcpat_guard::note_span();
        if opts.checkpoint_every > 0 && since_checkpoint >= opts.checkpoint_every {
            since_checkpoint = 0;
            on_checkpoint(&DseCheckpoint::capture(grid, cursor, &frontier, perf))?;
        }
    }
    Ok(DseResult { frontier, perf })
}

/// Streams one chunk in two passes. The first enumerates and prunes
/// every candidate against the frontier as it stood when the chunk
/// began; the second probes the survivors in cursor order by
/// retargeting their row base in place, and offers each to the
/// frontier. The base carried into the next chunk is moved back to its
/// row's first clock. `clocks_repeat` says whether the grid's clock
/// axis holds a value twice.
#[allow(clippy::too_many_arguments)]
fn run_chunk<E: DseEvaluator>(
    grid: &AxisGrid,
    opts: &DseOptions,
    evaluator: &mut E,
    range: std::ops::Range<u64>,
    clocks_repeat: bool,
    last_base: &mut Option<(u64, Processor)>,
    frontier: &mut ParetoFrontier,
    perf: &mut DsePerf,
) -> Result<(), McpatError> {
    let clocks_len = grid.clocks_len();
    let l2_len = grid.l2_bytes.len() as u64;
    let mut rows: Vec<RowBase> = Vec::new();
    let mut carried = last_base.take();
    let mut pending: Vec<Pending> = Vec::new();

    for cursor in range {
        checkpoint("dse.enumerate")?;
        perf.candidates += 1;
        let Some(&clock_hz) = grid.clocks_hz.get((cursor % clocks_len) as usize) else {
            continue;
        };
        let row = cursor / clocks_len;
        let row_slot = match rows.iter().position(|r| r.row == row) {
            Some(slot) => slot,
            None => {
                let chip = match carried.take() {
                    // A row that spans a chunk boundary carries its
                    // base over for free.
                    Some((prev_row, chip)) if prev_row == row => chip,
                    carried => {
                        let prev = rows
                            .last()
                            .map(|r| (r.row, &r.chip))
                            .or(carried.as_ref().map(|(r, chip)| (*r, chip)));
                        advance_base(grid, row, clocks_len, l2_len, prev, perf)?
                    }
                };
                let class = rows
                    .iter()
                    .find(|r| eq_ignoring_name(&r.chip.config, &chip.config))
                    .map_or(rows.len(), |r| r.class);
                rows.push(RowBase {
                    row,
                    facts: RowFacts::of(&chip),
                    chip,
                    class,
                });
                rows.len() - 1
            }
        };
        let Some(base) = rows.get(row_slot) else {
            continue;
        };
        // Where every probe is a full build, the row's facts are not the
        // candidate's: no early reject and no prune there.
        let full_build = clock_delta_rebuilds_fully(&base.chip.config);
        // Exact early budget rejection: die area is clock-invariant, so
        // the row's area IS this candidate's area.
        if !full_build && base.facts.area > opts.budgets.max_area {
            perf.rejected += 1;
            continue;
        }
        if opts.prune && !full_build {
            let candidate = RowCandidate {
                base: &base.chip,
                facts: base.facts,
                clock_hz,
                cursor,
            };
            if evaluator.prunes_in_row(&candidate, frontier) {
                perf.pruned += 1;
                continue;
            }
        }
        pending.push(Pending {
            cursor,
            clock_hz,
            row_slot,
        });
    }

    // Dedupe by configuration identity: configurations that match up
    // to the name are the same clock in rows of one class. The first
    // of them counts as a probe, the rest as deduped; each is still
    // retargeted, which costs no more than looking up a shared result.
    // Without a repeated clock or two rows of one class there is
    // nothing to find, so no set is built.
    let shared_class = rows.iter().enumerate().any(|(slot, r)| r.class != slot);
    let mut probed: Option<HashSet<(usize, u64)>> =
        (clocks_repeat || shared_class).then(|| HashSet::with_capacity(pending.len()));
    // Offer in cursor order so the frontier (ties, winners, counters)
    // is deterministic.
    for p in &pending {
        checkpoint("dse.probe")?;
        let row = rows.get_mut(p.row_slot).ok_or_else(|| {
            McpatError::config("dse.probe", "candidate references a missing row base")
        })?;
        let duplicate = probed
            .as_mut()
            .is_some_and(|set| !set.insert((row.class, p.clock_hz.to_bits())));
        let full_build = clock_delta_rebuilds_fully(&row.chip.config);
        if duplicate {
            perf.deduped += 1;
        } else if full_build {
            perf.full_builds += 1;
        } else {
            perf.probes += 1;
        }
        // The candidate's own name, then its clock: the row's chip is
        // now bit-identical to a full build of the candidate.
        let chip = &mut row.chip;
        write_candidate_name(&mut chip.config.name, p.cursor);
        if chip.config.clock_hz.to_bits() != p.clock_hz.to_bits() {
            chip.retarget_clock(p.clock_hz)?;
        }
        if !duplicate {
            mcpat_guard::note_candidate();
        }
        // A full build re-picks array partitions for the new cycle
        // time, so only a retargeted chip keeps the row's area and
        // leakage.
        let totals = if full_build {
            ChipTotals {
                peak_power: chip.peak_power_total(),
                area: chip.die_area(),
            }
        } else {
            ChipTotals {
                peak_power: chip.peak_power_total_with(&row.facts.peak),
                area: row.facts.area,
            }
        };
        if totals.area > opts.budgets.max_area || totals.peak_power > opts.budgets.max_peak_power {
            perf.rejected += 1;
            continue;
        }
        let metrics = evaluator.evaluate_probe(chip, &totals);
        frontier.offer(FrontierPoint {
            name: chip.config.name.clone(),
            cursor: p.cursor,
            area: totals.area,
            peak_power: totals.peak_power,
            metrics,
        });
    }
    *last_base = match rows.pop() {
        Some(RowBase { row, mut chip, .. }) => {
            reset_row_base(grid, row, &mut chip)?;
            Some((row, chip))
        }
        None => carried,
    };
    Ok(())
}

/// Moves `chip`, the base of `row` that probes retargeted in place,
/// back to the row's first clock and name: a retarget leaves the chip
/// bit-identical to a full build of its configuration.
fn reset_row_base(grid: &AxisGrid, row: u64, chip: &mut Processor) -> Result<(), McpatError> {
    write_candidate_name(&mut chip.config.name, row * grid.clocks_len());
    match grid.clocks_hz.first() {
        Some(&hz) if hz.to_bits() != chip.config.clock_hz.to_bits() => chip.retarget_clock(hz),
        _ => Ok(()),
    }
}

/// Produces the base chip for `row` (the row's configuration at its
/// first clock point) from `prev`, the base of an earlier row: a
/// [`Delta::CacheSize`] rebuild of it when only the L2 axis moved, a
/// full build otherwise.
fn advance_base(
    grid: &AxisGrid,
    row: u64,
    clocks_len: u64,
    l2_len: u64,
    prev: Option<(u64, &Processor)>,
    perf: &mut DsePerf,
) -> Result<Processor, McpatError> {
    let base_cfg = grid
        .config_at(row * clocks_len)
        .ok_or_else(|| McpatError::config("dse.base", format!("row {row} is outside the grid")))?;
    if let Some((prev_row, chip)) = prev {
        let same_group = l2_len > 0 && prev_row / l2_len == row / l2_len;
        if same_group && !base_cfg.core.enforce_timing {
            if let Some(l2) = &base_cfg.l2 {
                perf.cache_rebuilds += 1;
                return chip.rebuild_with(Delta::CacheSize(l2.cache.capacity));
            }
        }
    }
    perf.full_builds += 1;
    Processor::build(&base_cfg)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn tiny_grid() -> AxisGrid {
        AxisGrid::manycore(
            vec![TechNode::N45, TechNode::N32],
            vec![DeviceType::Hp],
            vec![2, 4],
            vec![1 << 20, 2 << 20],
            vec![1.0e9, 1.5e9, 2.0e9],
        )
    }

    #[test]
    fn cursor_enumeration_is_a_clock_innermost_cross_product() {
        let grid = tiny_grid();
        // nodes × cores × L2 sizes × clocks (one device flavor)
        assert_eq!(grid.total(), 2 * 2 * 2 * 3);
        let first = grid.config_at(0).expect("cursor 0");
        assert_eq!(first.name, "dse-0");
        assert_eq!(first.node, TechNode::N45);
        assert_eq!(first.num_cores, 2);
        assert!((first.clock_hz - 1.0e9).abs() < 1.0);
        // Adjacent cursors differ only in clock until the row rolls over.
        let second = grid.config_at(1).expect("cursor 1");
        assert!((second.clock_hz - 1.5e9).abs() < 1.0);
        assert_eq!(second.num_cores, first.num_cores);
        // The row after the clock axis rolls over moves the L2 axis.
        let next_row = grid.config_at(3).expect("cursor 3");
        assert_eq!(
            next_row.l2.as_ref().map(|l2| l2.cache.capacity),
            Some(2 << 20)
        );
        // Past the end there is nothing.
        assert!(grid.config_at(grid.total()).is_none());
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut grid = tiny_grid();
        grid.clocks_hz.clear();
        let d = grid.validate();
        assert!(d.has_errors());
        let mut bad = tiny_grid();
        bad.clocks_hz = vec![0.0];
        assert!(bad.validate().has_errors());
        let errors_at = |grid: &AxisGrid| -> Vec<String> {
            grid.validate().iter().map(|f| f.path.clone()).collect()
        };
        let mut no_templates = tiny_grid();
        no_templates.core_templates.clear();
        assert_eq!(errors_at(&no_templates), ["dse.core_templates"]);
        let mut no_clusters = tiny_grid();
        no_clusters.cores_per_cluster.clear();
        assert_eq!(errors_at(&no_clusters), ["dse.cores_per_cluster"]);
        let mut zero_cluster = tiny_grid();
        zero_cluster.cores_per_cluster = vec![2, 0];
        assert_eq!(errors_at(&zero_cluster), ["dse.cores_per_cluster[1]"]);
    }

    #[test]
    fn cluster_sizes_must_divide_every_capped_core_count() {
        let mut grid = tiny_grid();
        // 8 caps to every core count here, so it always fits; 2 leaves
        // a core over at 3 and 5, and 4 (capped to 3 at 3 cores) leaves
        // cores over at 5 and 6.
        grid.core_counts = vec![2, 3, 4, 5, 6];
        grid.cores_per_cluster = vec![1, 8, 2, 4];
        let errors: Vec<(String, String)> = grid
            .validate()
            .iter()
            .map(|f| (f.path.clone(), f.message.clone()))
            .collect();
        assert_eq!(
            errors,
            [
                (
                    "dse.cores_per_cluster[2]".to_owned(),
                    "cluster size 2 does not divide core counts 3, 5".to_owned()
                ),
                (
                    "dse.cores_per_cluster[3]".to_owned(),
                    "cluster size 4 does not divide core counts 5, 6".to_owned()
                ),
            ]
        );
        grid.core_counts = vec![3];
        assert_eq!(
            grid.validate()
                .iter()
                .map(|f| f.message.clone())
                .collect::<Vec<_>>(),
            ["cluster size 2 does not divide core count 3"]
        );
        grid.core_counts = vec![2, 4, 8];
        grid.cores_per_cluster = vec![1, 2, 8];
        assert!(!grid.validate().has_errors());
    }

    /// Two templates (one under enforced timing) and two cluster sizes,
    /// one of them above the smallest core count.
    fn two_template_grid() -> AxisGrid {
        let mut enforced = CoreConfig::generic_ooo();
        enforced.enforce_timing = true;
        AxisGrid {
            core_templates: vec![CoreConfig::generic_inorder(), enforced],
            cores_per_cluster: vec![2, 4],
            ..AxisGrid::manycore(
                vec![TechNode::N32],
                vec![DeviceType::Hp],
                vec![2, 4],
                vec![1 << 20, 2 << 20],
                vec![1.0e9, 2.0e9],
            )
        }
    }

    #[test]
    fn template_and_cluster_axes_are_outermost() {
        let grid = two_template_grid();
        assert_eq!(grid.total(), 2 * 2 * 2 * 2 * 2);
        // The innermost five axes enumerate exactly the one-template,
        // one-cluster grid, so existing grids keep their cursors.
        let mut inner = tiny_grid();
        inner.nodes = vec![TechNode::N32];
        inner.clocks_hz = grid.clocks_hz.clone();
        let block = inner.total();
        for cursor in 0..block {
            assert_eq!(grid.config_at(cursor), inner.config_at(cursor));
        }
        // The cluster axis moves next, capped at the core count: the
        // two-core rows of the x4 block are the x2 chips.
        let x4 = grid.config_at(block).unwrap();
        assert_eq!((x4.num_cores, x4.num_l2s), (2, 1));
        let x4 = grid.config_at(block + 4).unwrap();
        assert_eq!((x4.num_cores, x4.num_l2s), (4, 1));
        // The template axis moves last.
        for cursor in 0..grid.total() {
            let cfg = grid.config_at(cursor).unwrap();
            assert_eq!(cfg.core.enforce_timing, cursor >= 2 * block, "{cursor}");
            assert_eq!(cfg.core.clock_hz.to_bits(), cfg.clock_hz.to_bits());
        }
    }

    #[test]
    fn sweeps_over_templates_and_clusters_match_the_naive_reference() {
        let grid = two_template_grid();
        for chunk in [256, 5, 3] {
            for prune in [true, false] {
                let opts = DseOptions {
                    chunk,
                    prune,
                    ..DseOptions::default()
                };
                let (perf, _) =
                    assert_engine_matches_reference(&grid, &opts, WorkloadModel::default);
                // The capped x4 two-core rows repeat the x2 ones, and
                // are deduped only when both land in one chunk.
                assert_eq!(perf.deduped > 0, chunk == 256, "{perf:?}");
            }
        }
    }

    #[test]
    fn version_one_checkpoints_are_rejected_by_schema() {
        let grid = tiny_grid();
        let cp = dse(&grid, &DseOptions::default(), &mut WorkloadModel::default())
            .unwrap()
            .final_checkpoint(&grid);
        // The same sweep as version 1 wrote it: one `core` template in
        // the grid echo and no cluster axis.
        let mut v1: serde_json::Value = serde_json::from_str(&cp.to_json().unwrap()).unwrap();
        let Some(serde_json::Value::Map(echo)) = v1.get_mut("grid") else {
            panic!("the grid echo is a map");
        };
        echo.retain(|(key, _)| key != "core_templates" && key != "cores_per_cluster");
        let template = serde_json::to_value(&grid.core_templates[0]).unwrap();
        echo.push(("core".to_owned(), template));
        *v1.get_mut("schema").unwrap() = serde_json::Value::Str("mcpat-dse-checkpoint-v1".into());
        let err = DseCheckpoint::from_json(&serde_json::to_string(&v1).unwrap())
            .expect_err("a version-1 checkpoint must be rejected");
        assert!(matches!(err, McpatError::Invalid(_)), "{err:?}");
        let at_schema = matches!(&err, McpatError::Invalid(d)
            if d.iter().any(|f| f.path == "dse.checkpoint.schema"));
        assert!(at_schema, "{err}");
        assert!(err.to_string().contains(CHECKPOINT_SCHEMA), "{err}");
    }

    /// The naive reference: full-build every candidate in cursor order
    /// and offer it to a fresh frontier. The streaming engine must land
    /// on the exact same frontier bits.
    fn naive_frontier(grid: &AxisGrid, evaluator: &mut WorkloadModel) -> ParetoFrontier {
        let opts = DseOptions {
            prune: false,
            ..DseOptions::default()
        };
        reference_sweep(grid, &opts, evaluator).frontier
    }

    fn assert_frontiers_bit_identical(a: &ParetoFrontier, b: &ParetoFrontier) {
        assert_eq!(a.len(), b.len(), "frontier sizes differ");
        for (x, y) in a.points().iter().zip(b.points().iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.cursor, y.cursor);
            assert_eq!(x.area.to_bits(), y.area.to_bits());
            assert_eq!(x.peak_power.to_bits(), y.peak_power.to_bits());
            assert_eq!(x.metrics.delay.to_bits(), y.metrics.delay.to_bits());
            assert_eq!(x.metrics.energy.to_bits(), y.metrics.energy.to_bits());
            assert_eq!(x.metrics.area.to_bits(), y.metrics.area.to_bits());
        }
        for (metric, (wa, wb)) in Metric::ALL.iter().zip(a.winners().iter().zip(b.winners())) {
            match (wa, wb) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.cursor, y.cursor, "winner for {metric:?} differs");
                    assert_eq!(
                        metric.of(&x.metrics).to_bits(),
                        metric.of(&y.metrics).to_bits(),
                        "winning value for {metric:?} differs"
                    );
                }
                (None, None) => {}
                _ => panic!("winner presence for {metric:?} differs"),
            }
        }
    }

    #[test]
    fn streaming_sweep_matches_the_naive_full_build_sweep_bit_for_bit() {
        let grid = tiny_grid();
        let opts = DseOptions {
            chunk: 5, // force several chunks and base handoffs across them
            ..DseOptions::default()
        };
        let result = dse(&grid, &opts, &mut WorkloadModel::default()).expect("streaming sweep");
        assert_eq!(result.perf.candidates, grid.total());
        // Every candidate either pruned, rejected, or offered.
        assert_eq!(
            result.frontier.offered() + result.perf.pruned + result.perf.rejected,
            grid.total()
        );
        // Delta rebuilds did the bulk of the work: one full build per
        // (node, flavor, cores) group, cache deltas inside a group.
        assert_eq!(result.perf.full_builds, 4);
        assert_eq!(result.perf.cache_rebuilds, 4);
        let naive = naive_frontier(&grid, &mut WorkloadModel::default());
        assert_frontiers_bit_identical(&result.frontier, &naive);
        // With pruning disabled the frontier is identical too (pruning
        // only skips work, never changes the surviving set).
        let unpruned = dse(
            &grid,
            &DseOptions {
                prune: false,
                ..opts
            },
            &mut WorkloadModel::default(),
        )
        .expect("unpruned sweep");
        assert_eq!(unpruned.perf.pruned, 0);
        assert_frontiers_bit_identical(&unpruned.frontier, &naive);
    }

    #[test]
    fn frontier_survivors_are_bit_identical_to_from_scratch_builds() {
        let grid = tiny_grid();
        let result = dse(&grid, &DseOptions::default(), &mut WorkloadModel::default())
            .expect("streaming sweep");
        assert!(!result.frontier.is_empty());
        for point in result.frontier.points() {
            let cfg = grid.config_at(point.cursor).expect("survivor in range");
            let chip = Processor::build(&cfg).expect("from-scratch build");
            let metrics = WorkloadModel::default().evaluate(&chip);
            assert_eq!(point.area.to_bits(), chip.die_area().to_bits());
            assert_eq!(
                point.peak_power.to_bits(),
                chip.peak_power().total().to_bits()
            );
            assert_eq!(point.metrics.energy.to_bits(), metrics.energy.to_bits());
            assert_eq!(point.metrics.delay.to_bits(), metrics.delay.to_bits());
        }
    }

    #[test]
    fn checkpoints_round_trip_through_json_exactly() {
        let grid = tiny_grid();
        let mut checkpoints: Vec<DseCheckpoint> = Vec::new();
        let opts = DseOptions {
            chunk: 4,
            checkpoint_every: 8,
            ..DseOptions::default()
        };
        let result = dse_streaming(&grid, &opts, &mut WorkloadModel::default(), None, |cp| {
            checkpoints.push(cp.clone());
            Ok(())
        })
        .expect("sweep with checkpoints");
        assert!(!checkpoints.is_empty());
        for cp in &checkpoints {
            let json = cp.to_json().expect("serialize");
            let back = DseCheckpoint::from_json(&json).expect("parse");
            assert_eq!(*cp, back);
            assert_frontiers_bit_identical(&cp.frontier(), &back.frontier());
        }
        // Resuming the final run from each checkpoint converges on the
        // same frontier bits as the uninterrupted sweep.
        for cp in &checkpoints {
            let resumed = dse_streaming(
                &grid,
                &opts,
                &mut WorkloadModel::default(),
                Some(cp),
                |_| Ok(()),
            )
            .expect("resumed sweep");
            assert_frontiers_bit_identical(&resumed.frontier, &result.frontier);
            assert_eq!(resumed.perf.candidates, result.perf.candidates);
            assert_eq!(resumed.perf.pruned, result.perf.pruned);
            assert_eq!(resumed.perf.rejected, result.perf.rejected);
        }
    }

    #[test]
    fn resume_rejects_a_checkpoint_from_a_different_grid() {
        let grid = tiny_grid();
        let mut checkpoints = Vec::new();
        let opts = DseOptions {
            chunk: 6,
            checkpoint_every: 6,
            ..DseOptions::default()
        };
        dse_streaming(&grid, &opts, &mut WorkloadModel::default(), None, |cp| {
            checkpoints.push(cp.clone());
            Ok(())
        })
        .expect("sweep");
        let cp = checkpoints.first().expect("at least one checkpoint");
        let mut other = tiny_grid();
        other.clocks_hz.push(3.0e9);
        let err = dse_streaming(
            &other,
            &opts,
            &mut WorkloadModel::default(),
            Some(cp),
            |_| Ok(()),
        )
        .expect_err("grid mismatch must be rejected");
        assert!(err.to_string().contains("different axis grid"));
        // Schema guard: corrupted text and wrong schema both fail.
        assert!(DseCheckpoint::from_json("{").is_err());
        let wrong = cp.to_json().expect("json").replace(CHECKPOINT_SCHEMA, "v0");
        assert!(DseCheckpoint::from_json(&wrong).is_err());
        // Winner guard: one slot per metric, no more and no fewer.
        for len in [0, Metric::ALL.len() - 1, Metric::ALL.len() + 1] {
            let mut bad = cp.clone();
            bad.winners.resize(len, None);
            let err = DseCheckpoint::from_json(&bad.to_json().expect("json"))
                .expect_err("a malformed winners array must be rejected");
            let at_winners = matches!(&err, McpatError::Invalid(d)
                if d.iter().any(|f| f.path == "dse.checkpoint.winners"));
            assert!(at_winners, "{err}");
        }
    }

    #[test]
    fn budgets_reject_candidates_before_they_reach_the_frontier() {
        let grid = tiny_grid();
        let opts = DseOptions {
            budgets: Budgets {
                max_area: 1e-9, // everything is over budget
                max_peak_power: f64::INFINITY,
            },
            ..DseOptions::default()
        };
        let result = dse(&grid, &opts, &mut WorkloadModel::default()).expect("sweep");
        assert!(result.frontier.is_empty());
        assert_eq!(result.perf.rejected, grid.total());
        // The exact clock-invariant area bound rejects whole rows before
        // any probe runs: only the row bases were ever built.
        assert_eq!(result.perf.probes, 0);
    }

    #[test]
    fn duplicated_l2_rows_dedupe_across_rows() {
        let mut grid = tiny_grid();
        // Both L2 rows of every (node, cores) group describe the same
        // chip, so the second row's candidates duplicate the first's.
        grid.l2_bytes = vec![1 << 20, 1 << 20];
        let result =
            dse(&grid, &DseOptions::default(), &mut WorkloadModel::default()).expect("sweep");
        // One 256-candidate chunk, pruned against the empty frontier it
        // started with: nothing is pruned, and the 12 candidates of the
        // four duplicate rows are served by the first rows' probes.
        assert_eq!(
            result.perf,
            DsePerf {
                candidates: 24,
                pruned: 0,
                rejected: 0,
                probes: 12,
                cache_rebuilds: 4,
                full_builds: 4,
                deduped: 12,
            }
        );
        assert_frontiers_bit_identical(
            &result.frontier,
            &naive_frontier(&grid, &mut WorkloadModel::default()),
        );
    }

    #[test]
    fn patched_row_templates_equal_config_at() {
        let grid = tiny_grid();
        let clocks = grid.clocks_len();
        for cursor in 0..grid.total() {
            let base = Processor::build(&grid.config_at(cursor - cursor % clocks).unwrap())
                .expect("row base");
            let candidate = RowCandidate {
                base: &base,
                facts: RowFacts::of(&base),
                clock_hz: grid.clocks_hz[(cursor % clocks) as usize],
                cursor,
            };
            assert_eq!(
                Some(candidate.config()),
                grid.config_at(cursor),
                "cursor {cursor}"
            );
        }
    }

    /// The engine's decisions replayed naively: every row base and
    /// every candidate full-built from its own configuration, bounds
    /// and metrics from the `(&Processor, …)` forms, duplicates found
    /// by comparing configurations, chunk by chunk. The streaming
    /// engine must reach the same frontier and the same counters.
    fn reference_sweep<E: DseEvaluator>(
        grid: &AxisGrid,
        opts: &DseOptions,
        evaluator: &mut E,
    ) -> DseResult {
        let (clocks, l2_len) = (grid.clocks_len(), grid.l2_bytes.len() as u64);
        let budgets = opts.budgets;
        let mut frontier = ParetoFrontier::new();
        let mut perf = DsePerf::default();
        let mut prev_row: Option<u64> = None;
        let cursors: Vec<u64> = (0..grid.total()).collect();
        for chunk in cursors.chunks(opts.chunk.max(1)) {
            let mut survivors = Vec::new();
            for &cursor in chunk {
                perf.candidates += 1;
                let row = cursor / clocks;
                let base_cfg = grid.config_at(row * clocks).unwrap();
                let base = Processor::build(&base_cfg).unwrap();
                if prev_row != Some(row) {
                    let same_group = prev_row.is_some_and(|p| p / l2_len == row / l2_len);
                    if same_group && !base_cfg.core.enforce_timing {
                        perf.cache_rebuilds += 1;
                    } else {
                        perf.full_builds += 1;
                    }
                    prev_row = Some(row);
                }
                let cfg = grid.config_at(cursor).unwrap();
                // Where every probe is a full build, nothing is decided
                // on the row base.
                let on_base = !cfg.core.enforce_timing;
                if on_base && base.die_area() > budgets.max_area {
                    perf.rejected += 1;
                    continue;
                }
                let lb = (opts.prune && on_base)
                    .then(|| evaluator.lower_bound(&base, &cfg))
                    .flatten();
                if lb.is_some_and(|lb| frontier.would_prune(&lb)) {
                    perf.pruned += 1;
                    continue;
                }
                survivors.push((cursor, cfg));
            }
            let mut probed: Vec<ProcessorConfig> = Vec::new();
            for (cursor, cfg) in survivors {
                if probed.iter().any(|c| eq_ignoring_name(c, &cfg)) {
                    perf.deduped += 1;
                } else {
                    if cfg.core.enforce_timing {
                        perf.full_builds += 1;
                    } else {
                        perf.probes += 1;
                    }
                    probed.push(cfg.clone());
                }
                let chip = Processor::build(&cfg).unwrap();
                let (area, peak_power) = (chip.die_area(), chip.peak_power().total());
                if area > budgets.max_area || peak_power > budgets.max_peak_power {
                    perf.rejected += 1;
                    continue;
                }
                let metrics = evaluator.evaluate(&chip);
                frontier.offer(FrontierPoint {
                    name: cfg.name,
                    cursor,
                    area,
                    peak_power,
                    metrics,
                });
            }
        }
        DseResult { frontier, perf }
    }

    /// Runs the engine and the naive reference with fresh evaluators
    /// from `make` and requires the same frontier bits, winners and
    /// counters. Returns the engine's counters and evaluator.
    fn assert_engine_matches_reference<E: DseEvaluator>(
        grid: &AxisGrid,
        opts: &DseOptions,
        make: impl Fn() -> E,
    ) -> (DsePerf, E) {
        let mut evaluator = make();
        let engine = dse(grid, opts, &mut evaluator).expect("streaming sweep");
        let reference = reference_sweep(grid, opts, &mut make());
        assert_frontiers_bit_identical(&engine.frontier, &reference.frontier);
        assert_eq!(engine.perf, reference.perf);
        (engine.perf, evaluator)
    }

    /// Never bounds a candidate: nothing may be pruned.
    struct Unbounded;

    impl DseEvaluator for Unbounded {
        fn evaluate(&mut self, chip: &Processor) -> MetricSet {
            MetricSet::from_power(
                chip.peak_power().total(),
                1.0 / chip.config.clock_hz,
                chip.die_area(),
            )
        }

        fn lower_bound(&self, _: &Processor, _: &ProcessorConfig) -> Option<MetricSet> {
            None
        }
    }

    /// Scores a chip by its warnings and its name, and checks every
    /// configuration it is asked to bound against the grid.
    struct NameAndWarnings {
        grid: AxisGrid,
        wrong_configs: std::cell::Cell<u32>,
    }

    fn cursor_of(name: &str) -> u64 {
        name.strip_prefix("dse-")
            .and_then(|c| c.parse().ok())
            .unwrap()
    }

    impl DseEvaluator for NameAndWarnings {
        fn evaluate(&mut self, chip: &Processor) -> MetricSet {
            let m = WorkloadModel::default().evaluate(chip);
            let warned = chip.warnings.len() as f64;
            let tag = (cursor_of(&chip.config.name) % 5) as f64;
            MetricSet {
                delay: m.delay * (1.0 + 1e-3 * tag),
                energy: m.energy * (1.0 + 0.1 * warned),
                area: m.area,
            }
        }

        fn lower_bound(&self, base: &Processor, cfg: &ProcessorConfig) -> Option<MetricSet> {
            if self.grid.config_at(cursor_of(&cfg.name)).as_ref() != Some(cfg) {
                self.wrong_configs.set(self.wrong_configs.get() + 1);
            }
            WorkloadModel::default().lower_bound(base, cfg)
        }
    }

    #[test]
    fn custom_evaluators_see_what_a_naive_full_build_loop_sees() {
        let mut grid = tiny_grid();
        // LSTP above 1.5 GHz draws a device advisory and a core above
        // 10 GHz a calibrated-range one, so the warnings change along a
        // row in both directions, on both flavors.
        grid.device_types = vec![DeviceType::Hp, DeviceType::Lstp];
        grid.clocks_hz = vec![1.0e9, 12.0e9, 1.5e9, 2.0e9];
        // A peak-power budget that rejects about a quarter of the grid.
        let peak_budget = {
            let mut peaks: Vec<f64> = (0..grid.total())
                .map(|c| {
                    let cfg = grid.config_at(c).unwrap();
                    Processor::build(&cfg).unwrap().peak_power().total()
                })
                .collect();
            peaks.sort_by(f64::total_cmp);
            peaks[peaks.len() * 3 / 4]
        };
        for chunk in [256, 5] {
            for max_peak_power in [f64::INFINITY, peak_budget] {
                let opts = DseOptions {
                    chunk,
                    budgets: Budgets {
                        max_peak_power,
                        ..Budgets::default()
                    },
                    ..DseOptions::default()
                };
                let (perf, _) = assert_engine_matches_reference(&grid, &opts, || Unbounded);
                assert_eq!(perf.pruned, 0);
                let (perf, checked) =
                    assert_engine_matches_reference(&grid, &opts, || NameAndWarnings {
                        grid: grid.clone(),
                        wrong_configs: std::cell::Cell::new(0),
                    });
                assert_eq!(checked.wrong_configs.get(), 0);
                // A single chunk prunes against the empty frontier it
                // started with; smaller chunks must prune something.
                let single_chunk = chunk as u64 >= grid.total();
                assert!(single_chunk || perf.pruned > 0, "{perf:?}");
            }
        }
        let warned = (0..grid.total())
            .filter_map(|c| grid.config_at(c))
            .any(|cfg| !Processor::build(&cfg).unwrap().warnings.is_empty());
        assert!(warned, "the grid must exercise warnings");
    }

    #[test]
    fn dedupe_counts_equal_the_naive_reference() {
        let mut grid = tiny_grid();
        for (enforce_timing, l2, clocks) in [
            (false, vec![1 << 20, 1 << 20], vec![1.0e9, 1.5e9, 2.0e9]),
            (false, vec![1 << 20, 2 << 20], vec![1.0e9, 1.0e9, 2.0e9]),
            (false, vec![1 << 20, 1 << 20], vec![2.0e9, 1.0e9, 2.0e9]),
            // Every probe and every row base is a full build.
            (true, vec![1 << 20, 1 << 20], vec![2.0e9, 1.0e9, 2.0e9]),
        ] {
            grid.core_templates[0].enforce_timing = enforce_timing;
            grid.l2_bytes = l2;
            grid.clocks_hz = clocks;
            for chunk in [256, 5, 4] {
                let opts = DseOptions {
                    chunk,
                    ..DseOptions::default()
                };
                let (perf, _) =
                    assert_engine_matches_reference(&grid, &opts, WorkloadModel::default);
                assert!(perf.deduped > 0, "{perf:?}");
            }
        }
    }

    #[test]
    fn enforced_timing_probes_report_their_own_area() {
        // A generic OoO core at N32 meets 20 GHz and 50 GHz only with
        // other array partitions, so under enforced timing those
        // probes' die area moves away from their row base's.
        let mut grid = AxisGrid {
            core_templates: vec![CoreConfig::generic_ooo()],
            ..AxisGrid::manycore(
                vec![TechNode::N32],
                vec![DeviceType::Hp],
                vec![2, 4],
                vec![1 << 20],
                vec![1.0e9, 20.0e9, 50.0e9, 20.0e9],
            )
        };
        grid.core_templates[0].enforce_timing = true;
        let area_at = |cursor| {
            Processor::build(&grid.config_at(cursor).unwrap())
                .unwrap()
                .die_area()
        };
        assert_ne!(area_at(0).to_bits(), area_at(1).to_bits());
        for chunk in [256, 3] {
            let opts = DseOptions {
                chunk,
                ..DseOptions::default()
            };
            let (perf, _) = assert_engine_matches_reference(&grid, &opts, WorkloadModel::default);
            assert_eq!(perf.probes, 0, "{perf:?}");
        }
    }

    #[test]
    fn pruning_counts_and_dedupe_are_reported() {
        let mut grid = tiny_grid();
        // Duplicate clock points exercise the chunk dedupe.
        grid.clocks_hz = vec![1.0e9, 1.0e9, 2.0e9];
        let result =
            dse(&grid, &DseOptions::default(), &mut WorkloadModel::default()).expect("sweep");
        assert!(result.perf.deduped > 0);
        assert_eq!(
            result.frontier.offered() + result.perf.pruned + result.perf.rejected,
            grid.total()
        );
    }

    #[test]
    fn enforced_timing_rows_are_neither_rejected_nor_pruned_on_their_base() {
        // Under enforced timing die area is not monotone in the clock:
        // this row's base (30 GHz) is over the budget while four of its
        // candidates are under it.
        let mut grid = AxisGrid::manycore(
            vec![TechNode::N45],
            vec![DeviceType::Hp],
            vec![2],
            vec![1 << 20],
            vec![30.0e9, 1.0e9, 25.0e9, 2.0e9, 20.0e9, 3.0e9],
        );
        grid.core_templates[0].enforce_timing = true;
        let areas: Vec<f64> = (0..grid.total())
            .map(|c| {
                Processor::build(&grid.config_at(c).unwrap())
                    .unwrap()
                    .die_area()
            })
            .collect();
        let mm2 = |a: f64| (a * 1e8).round() / 100.0;
        assert_eq!(
            areas.iter().map(|&a| mm2(a)).collect::<Vec<_>>(),
            [55.40, 55.27, 55.44, 55.27, 55.29, 55.27]
        );
        let opts = DseOptions {
            budgets: Budgets {
                max_area: (areas[0] + areas[1]) / 2.0,
                ..Budgets::default()
            },
            ..DseOptions::default()
        };
        let admitted = areas.iter().filter(|&&a| a <= opts.budgets.max_area);
        assert_eq!(admitted.count(), 4);
        // The engine admits the same four: two rejected, none pruned.
        let (perf, _) = assert_engine_matches_reference(&grid, &opts, WorkloadModel::default);
        assert_eq!((perf.rejected, perf.pruned), (2, 0), "{perf:?}");
    }

    #[test]
    fn pruned_and_unpruned_perfbench_shaped_sweeps_agree() {
        // The axes of the perfbench `dse_sweep` grid. Delay ties across
        // its L2 rows (delay depends on cores × clock only), so the
        // Delay winner moves if a tie is pruned.
        let clocks = 200;
        let grid = AxisGrid::manycore(
            vec![TechNode::N45, TechNode::N32],
            vec![DeviceType::Hp, DeviceType::Lop],
            vec![2, 4, 8, 12, 16],
            vec![512 * 1024, 1 << 20, 2 << 20, 4 << 20, 8 << 20],
            (0..clocks)
                .map(|i| 1.004e9 + 2.0e9 / f64::from(clocks - 1) * f64::from(i))
                .collect(),
        );
        let pruned = dse(&grid, &DseOptions::default(), &mut WorkloadModel::default()).unwrap();
        let unpruned = dse(
            &grid,
            &DseOptions {
                prune: false,
                ..DseOptions::default()
            },
            &mut WorkloadModel::default(),
        )
        .unwrap();
        assert_frontiers_bit_identical(&pruned.frontier, &unpruned.frontier);
        assert!(
            pruned.perf.pruned * 10 > grid.total() * 8,
            "{:?}",
            pruned.perf
        );
        assert_eq!(pruned.perf.rejected, unpruned.perf.rejected);
    }
}
