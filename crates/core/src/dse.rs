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
//! 2. **One row chip, moved in place** — the clock axis is innermost and
//!    the L2 axis second-innermost, so the candidates of a row differ
//!    only in the clock: the sweep holds one chip and retargets it in
//!    place per candidate ([`Processor::retarget`], no clone, no
//!    allocation), and enters the next row of a (template, cluster,
//!    node, flavor, cores) group by a [`Delta::CacheSize`] retarget of
//!    the same chip instead of a full build.
//! 3. **Lower-bound pruning** — before a candidate is probed, the
//!    evaluator produces a certified lower bound on its metrics; if the
//!    live [`ParetoFrontier`] (every candidate offered before it)
//!    already dominates the bound, the probe never runs (see
//!    [`ParetoFrontier::would_prune`] for the soundness argument). Where
//!    a candidate prunes, one bound over a run of the clocks after it
//!    ([`RowCandidate`]) retires the whole run, its length doubling
//!    while the run still prunes.
//! 4. **Row facts** — die area and total leakage do not depend on the
//!    clock, so they are taken once per row from its chip
//!    ([`RowFacts`]) and shared by every candidate of the row: the
//!    area budget check reads them, [`WorkloadModel`]'s lower bound
//!    adds the row's leakage to the uncore's dynamic power at the
//!    candidate's clock, and each probe walks only the dynamic terms
//!    of peak power, adds the row's leakage, and hands the total to the
//!    evaluator ([`ChipTotals`]).
//!
//! The sweep is one pass in cursor order, so peak candidate storage is
//! O(frontier). Probes whose configuration repeats an earlier cursor's
//! up to the name are counted as deduped, decided from the axes alone;
//! every probe is still retargeted, evaluated and offered. Probes run
//! serially: each costs about what a pool task would, so fanning them
//! out lost to walking the row in place (DESIGN.md §12 has the
//! measurements). The frontier plus the generator cursor serialize to
//! JSON ([`DseCheckpoint`]) every [`DseOptions::checkpoint_every`]
//! candidates, so a sweep killed by the `mcpat_obs::guard`
//! deadline/cancel machinery resumes where it stopped with a
//! bit-identical final frontier.

use crate::config::ProcessorConfig;
use crate::error::McpatError;
use crate::frontier::{FrontierPoint, ParetoFrontier};
use crate::metrics::{Metric, MetricSet};
use crate::processor::{checkpoint, Delta, Processor, Retarget};
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

    /// The axis indices of `cursor`, outermost axis first (template,
    /// cluster size, node, flavor, core count, L2 size, clock), or
    /// `None` past the end of the grid.
    fn indices(&self, cursor: u64) -> Option<[usize; 7]> {
        if cursor >= self.total() {
            return None;
        }
        let lens = [
            self.core_templates.len(),
            self.cores_per_cluster.len(),
            self.nodes.len(),
            self.device_types.len(),
            self.core_counts.len(),
            self.l2_bytes.len(),
            self.clocks_hz.len(),
        ];
        let mut indices = [0; 7];
        let mut rest = cursor;
        for (index, len) in indices.iter_mut().zip(lens).rev() {
            *index = (rest % len as u64) as usize;
            rest /= len as u64;
        }
        Some(indices)
    }

    /// True if the row that holds `cursor` builds the same chip, up to
    /// the name and the clock, as an earlier row: exactly when one of
    /// its axis values (the template apart from its clock, which the
    /// clock axis replaces; the cluster size as capped at the row's
    /// core count) appears earlier on its axis. Moving that index back
    /// to the value's first position names such an earlier row; where
    /// every index is its value's first position, each row that builds
    /// the same chip has no lower index on any axis, so it comes later.
    fn row_repeats(&self, cursor: u64) -> bool {
        let Some([template, cluster, node, device, cores, l2, _]) = self.indices(cursor) else {
            return false;
        };
        let n = self.core_counts.get(cores).copied().unwrap_or(0);
        let same_template = |a: &CoreConfig, b: &CoreConfig| {
            CoreConfig {
                clock_hz: b.clock_hz,
                ..a.clone()
            } == *b
        };
        let same_cluster = |a: &u32, b: &u32| a.min(&n) == b.min(&n);
        repeats_earlier(&self.core_templates, template, same_template)
            || repeats_earlier(&self.cores_per_cluster, cluster, same_cluster)
            || repeats_earlier(&self.nodes, node, PartialEq::eq)
            || repeats_earlier(&self.device_types, device, PartialEq::eq)
            || repeats_earlier(&self.core_counts, cores, PartialEq::eq)
            || repeats_earlier(&self.l2_bytes, l2, PartialEq::eq)
    }

    /// The configuration at `cursor` (named `dse-<cursor>`), or `None`
    /// past the end of the grid.
    #[must_use]
    pub fn config_at(&self, cursor: u64) -> Option<ProcessorConfig> {
        let [template, cluster, node, device, cores, l2, clock] = self.indices(cursor)?;
        let template = self.core_templates.get(template)?;
        let cluster = *self.cores_per_cluster.get(cluster)?;
        let node = *self.nodes.get(node)?;
        let device = *self.device_types.get(device)?;
        let cores = *self.core_counts.get(cores)?;
        let l2 = *self.l2_bytes.get(l2)?;
        let clock = *self.clocks_hz.get(clock)?;
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
    /// Emit a checkpoint to the sink after every cursor that is a
    /// multiple of this many candidates; 0 disables periodic
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
            checkpoint_every: 0,
            prune: true,
        }
    }
}

/// How a sweep spent its candidates. Serialized into checkpoints so a
/// resumed sweep's totals continue from the interrupted run's.
///
/// Every candidate is rejected on its row's area, pruned, or probed:
/// retargeted to its clock ([`Delta::Clock`]), then rejected on its own
/// totals or offered to the frontier. `probes`, `cache_rebuilds` and
/// `full_builds` count each retarget and build by the path it took, so
/// they follow the work done. After a resume they can differ from an
/// uninterrupted run's (the resumed row is entered with a full build at
/// the resume cursor), while the frontier and `candidates`, `pruned`,
/// `rejected` and `deduped` stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DsePerf {
    /// Candidates enumerated (the cursor advanced past them).
    pub candidates: u64,
    /// Candidates discarded by the lower-bound prune before any build
    /// ran ([`DseEvaluator::prunes_in_row`]), against the live frontier:
    /// every candidate offered before them in cursor order. A pruned
    /// run of a row counts each of its candidates, exactly those one
    /// decision per candidate would prune. Never counted on rows whose
    /// facts do not hold across clocks, where nothing is pruned. With
    /// [`WorkloadModel`] the count depends on how tight its bound is,
    /// while the frontier and the `candidates` and `rejected` counts do
    /// not: a tighter bound moves candidates from `probes` to `pruned`
    /// only.
    pub pruned: u64,
    /// Candidates outside [`DseOptions::budgets`] (rejected before the
    /// probe when the exact clock-invariant area already exceeds the
    /// area budget, after it otherwise; always after it on rows whose
    /// facts do not hold across clocks, where the row's area is not the
    /// candidate's).
    pub rejected: u64,
    /// Retargets that [`Processor::retarget`] patched in place
    /// ([`Retarget::Patched`]): one per probe whose clock keeps the
    /// chip's geometry, deduped probes included.
    pub probes: u64,
    /// Rows entered by an L2 re-solve of the previous row's chip
    /// ([`Retarget::L2Resolved`]) instead of a full build.
    pub cache_rebuilds: u64,
    /// Full [`Processor::build`] runs: the first row of each (template,
    /// cluster, node, flavor, cores) group and the row a resumed sweep
    /// starts in, plus probes answered with [`Retarget::FullBuild`].
    pub full_builds: u64,
    /// Probes whose configuration, up to the name, repeats an earlier
    /// cursor's: decided from the axes, as a row whose values repeat an
    /// earlier row's or a clock whose bits appear earlier on the clock
    /// axis. A deduped probe is still retargeted, billed, evaluated and
    /// offered, so dedupe saves no work.
    pub deduped: u64,
}

impl DsePerf {
    /// Counts a build or a retarget by the path it took.
    fn bill(&mut self, how: Retarget) {
        match how {
            Retarget::Patched => self.probes += 1,
            Retarget::L2Resolved => self.cache_rebuilds += 1,
            Retarget::FullBuild => self.full_builds += 1,
        }
    }
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

/// The clock-invariant facts of one row, taken once from the row's chip
/// when the sweep enters the row.
///
/// A row's candidates differ from its chip only in the clock, and the
/// clock moves neither die area (the clock network sizes its drivers
/// from switched capacitance, not frequency) nor leakage: a probe
/// retargets the chip's solved components in place, so both totals
/// keep their bits (property-tested per preset, with and without
/// power gating). Under enforced timing a probe that moves the clock is
/// a full build instead, which may re-partition arrays for the new
/// cycle time; there the facts are those of the chip as the row was
/// entered, not the candidate's, and the engine neither rejects nor
/// prunes on them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowFacts {
    /// Die area, m² ([`Processor::die_area`]).
    pub area: f64,
    /// Total leakage, W ([`Processor::total_leakage`]).
    pub leakage: f64,
    /// True if the facts hold for every clock of the row
    /// ([`Processor::clock_keeps_geometry`] on the chip).
    hold_across_clocks: bool,
}

impl RowFacts {
    /// The facts of `base`: two walks over the chip, made once per row.
    #[must_use]
    pub fn of(base: &Processor) -> RowFacts {
        RowFacts {
            area: base.die_area(),
            leakage: base.total_leakage().total(),
            hold_across_clocks: base.clock_keeps_geometry(),
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

/// A run of consecutive unbuilt candidates of one row, as the prune
/// pass sees it ([`DseEvaluator::prunes_in_row`]): the row's chip and
/// facts, and the slowest and fastest clock among the run's
/// candidates. A single candidate is a run whose slowest and fastest
/// clocks are both its own.
#[derive(Debug, Clone, Copy)]
pub struct RowCandidate<'a> {
    /// The row's chip: a built chip identical to each candidate except
    /// for the clock and the name.
    pub base: &'a Processor,
    /// The row's facts.
    pub facts: RowFacts,
    /// The slowest clock of the run, Hz.
    pub slowest_hz: f64,
    /// The fastest clock of the run, Hz.
    pub fastest_hz: f64,
}

impl RowCandidate<'_> {
    /// A floor under the peak power of every candidate of the run, W:
    /// the probe's own walk at the slowest clock with the cores'
    /// dynamic term priced at zero, plus the row's leakage. That floor
    /// never falls as the clock rises: each uncore term is a
    /// non-negative constant times activity that grows with the clock,
    /// folded with monotone rounding. `None` unless every candidate's
    /// probe would take that dynamic-only walk: the row's geometry must
    /// survive clock moves.
    #[must_use]
    pub fn peak_power_floor(&self) -> Option<f64> {
        self.base
            .peak_power_floor_at(self.slowest_hz, self.facts.leakage)
    }
}

/// Workload evaluation injected into the streaming engine.
///
/// Implementations must be deterministic: the frontier spot-check tests
/// and checkpoint/resume bit-identity both rely on `evaluate_probe`
/// producing the same bits for the same chip.
///
/// The engine hands each method what it has already computed. Per row,
/// it walks the row's chip once for its [`RowFacts`] (die area and total
/// leakage); per probe, it totals peak power once for the budget check
/// ([`ChipTotals`]). The probe's totals are the exact bits the
/// [`Processor`] methods return on the probed chip. The row facts are
/// the row chip's exact bits, and equal the candidate's because a retarget
/// leaves area and leakage alone; where they do not hold across clocks
/// (enforced timing), [`ChipTotals::area`] is walked on the probe, and
/// the engine asks for no prune decision at all.
pub trait DseEvaluator {
    /// The workload metrics of a probed candidate, given its `totals`.
    ///
    /// The engine hands over the row's chip retargeted in place
    /// ([`Processor::retarget`]): its configuration
    /// (name included), components, warnings and every modeled number
    /// are those of a full build of the candidate, but its
    /// [`Processor::perf`] and [`Processor::trace`] describe the last
    /// full build the chip came from. Prefer `totals` to walking the
    /// chip again on this per-candidate path.
    fn evaluate_probe(&mut self, chip: &Processor, totals: &ChipTotals) -> MetricSet;

    /// What the prune pass calls for a run of consecutive candidates of
    /// one row: true only if the frontier already beats every candidate
    /// of the run, that is, if [`ParetoFrontier::would_prune`] holds for
    /// a certified lower bound on each candidate's metrics: every field
    /// ≤ the value [`DseEvaluator::evaluate_probe`] would produce, and
    /// positive. The engine asks first for a single candidate
    /// (`slowest_hz == fastest_hz`); where that prunes, it asks for
    /// longer runs from the same candidate on, doubling while they
    /// prune, and retires a pruned run at once. A true answer for a run
    /// must imply a true answer for each of its candidates alone, so
    /// that a sweep's decisions do not depend on how the engine groups
    /// them; a run may answer false where its candidates would each
    /// prune. An implementation may test cheaper, looser bounds first,
    /// because `would_prune` is monotone: a bound that prunes proves
    /// that every higher one does. The default never prunes.
    fn prunes_in_row(&self, candidate: &RowCandidate<'_>, frontier: &ParetoFrontier) -> bool {
        let _ = (candidate, frontier);
        false
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

    /// The lower bound under every candidate of `run`. Delay is that of
    /// the fastest clock, exact for the candidate there and below every
    /// other's. Area is clock-invariant, so the row's area is each
    /// candidate's exact area. Peak power is bounded by
    /// [`RowCandidate::peak_power_floor`], the floor at the slowest
    /// clock, and energy is that floor times the same delay, through the
    /// same multiplication as [`WorkloadModel::evaluate`]'s: monotone
    /// rounding keeps it a bound. For a single candidate this is its own
    /// exact delay and floor. `None` where the floor is.
    fn bound(&self, run: &RowCandidate<'_>) -> Option<MetricSet> {
        let power = run.peak_power_floor()?;
        let num_cores = run.base.config.num_cores;
        Some(self.metrics(power, run.facts.area, num_cores, run.fastest_hz))
    }

    /// The metrics of a built chip, walking its totals: the reference
    /// the engine's [`DseEvaluator::evaluate_probe`] must match bit for
    /// bit.
    #[must_use]
    pub fn evaluate(&self, chip: &Processor) -> MetricSet {
        let c = &chip.config;
        self.metrics(
            chip.peak_power_total(),
            chip.die_area(),
            c.num_cores,
            c.clock_hz,
        )
    }

    /// A certified lower bound on [`WorkloadModel::evaluate`] of the
    /// unbuilt candidate at `cfg`, given its row `base` (a built chip
    /// identical to the candidate except for the clock), walking the
    /// base's facts: the bound [`DseEvaluator::prunes_in_row`] decides a
    /// single candidate on, and that a run's bound lies under for each
    /// of its candidates.
    #[must_use]
    pub fn lower_bound(&self, base: &Processor, cfg: &ProcessorConfig) -> Option<MetricSet> {
        self.bound(&RowCandidate {
            base,
            facts: RowFacts::of(base),
            slowest_hz: cfg.clock_hz,
            fastest_hz: cfg.clock_hz,
        })
    }
}

impl DseEvaluator for WorkloadModel {
    fn evaluate_probe(&mut self, chip: &Processor, totals: &ChipTotals) -> MetricSet {
        let c = &chip.config;
        self.metrics(totals.peak_power, totals.area, c.num_cores, c.clock_hz)
    }

    fn prunes_in_row(&self, run: &RowCandidate<'_>, frontier: &ParetoFrontier) -> bool {
        let RowCandidate {
            base,
            facts,
            fastest_hz,
            ..
        } = *run;
        let num_cores = base.config.num_cores;
        // Where the row's leakage alone lies under the floor, it is a
        // looser bound that needs no walk: try it first.
        if facts.hold_across_clocks
            && frontier.would_prune(&self.metrics(facts.leakage, facts.area, num_cores, fastest_hz))
        {
            return true;
        }
        self.bound(run).is_some_and(|lb| frontier.would_prune(&lb))
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
/// validation), the generator cursor (the next candidate to retire), the
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

/// Writes the name [`AxisGrid::config_at`] gives `cursor` into `name`,
/// reusing its buffer.
fn write_candidate_name(name: &mut String, cursor: u64) {
    name.clear();
    let _ = write!(name, "dse-{cursor}");
}

/// True if `axis[i]` is `same` as a value before it on `axis`.
fn repeats_earlier<T>(axis: &[T], i: usize, same: impl Fn(&T, &T) -> bool) -> bool {
    let Some((earlier, [value, ..])) = axis.split_at_checked(i) else {
        return false;
    };
    earlier.iter().any(|e| same(e, value))
}

/// The chip of the row a sweep is walking. It is retargeted in place
/// from candidate to candidate, and carried into the next row of its
/// (template, cluster, node, flavor, cores) group.
struct RowChip {
    row: u64,
    chip: Processor,
    facts: RowFacts,
    /// The row repeats an earlier row ([`AxisGrid::row_repeats`]).
    repeats: bool,
}

impl RowChip {
    /// Enters the row that holds `cursor` from `prev`, the chip of the
    /// row before it: moved by an in-place [`Delta::CacheSize`]
    /// retarget when only the L2 axis moved and the chip's geometry
    /// survives the move to the clock at `cursor` (it keeps its geometry
    /// across clocks, or already sits at that clock), replaced by a full
    /// build of the candidate at `cursor` otherwise: an enforce-timing
    /// chip re-solved at another clock would be rebuilt by its first
    /// probe anyway. Takes the row's facts.
    fn enter(
        grid: &AxisGrid,
        cursor: u64,
        prev: Option<RowChip>,
        perf: &mut DsePerf,
    ) -> Result<RowChip, McpatError> {
        let row = cursor / grid.clocks_len();
        let l2_len = grid.l2_bytes.len() as u64;
        let l2 = grid.l2_bytes.get((row % l2_len) as usize);
        let clock = grid.clocks_hz.get((cursor % grid.clocks_len()) as usize);
        let resolves = prev.as_ref().is_some_and(|p| {
            p.row / l2_len == row / l2_len
                && (p.chip.clock_keeps_geometry()
                    || clock.is_some_and(|c| c.to_bits() == p.chip.config.clock_hz.to_bits()))
        });
        let chip = match (prev, l2) {
            (Some(RowChip { mut chip, .. }), Some(&bytes)) if resolves => {
                perf.bill(chip.retarget(Delta::CacheSize(bytes))?);
                chip
            }
            _ => {
                let cfg = grid.config_at(cursor).ok_or_else(|| {
                    McpatError::config("dse.row", format!("cursor {cursor} is outside the grid"))
                })?;
                perf.bill(Retarget::FullBuild);
                Processor::build(&cfg)?
            }
        };
        Ok(RowChip {
            row,
            facts: RowFacts::of(&chip),
            repeats: grid.row_repeats(cursor),
            chip,
        })
    }

    /// Retires candidates from `cursor` on, whose clocks are `clocks`
    /// (the rest of the row, cut at the next checkpoint): all of them,
    /// rejected on the row's area; a run at the front, pruned against
    /// the live frontier ([`pruned_run`]); or the candidate at `cursor`
    /// alone, retargeted to, evaluated and offered. Returns how many
    /// candidates it retired and whether it probed.
    fn retire<E: DseEvaluator>(
        &mut self,
        opts: &DseOptions,
        evaluator: &mut E,
        cursor: u64,
        clocks: &[f64],
        frontier: &mut ParetoFrontier,
        perf: &mut DsePerf,
    ) -> Result<(u64, bool), McpatError> {
        let facts = self.facts;
        let Some(&clock_hz) = clocks.first() else {
            return Ok((0, false));
        };
        // Where the row's facts are not the candidate's, neither reject
        // nor prune on them. Elsewhere die area is clock-invariant, so
        // the row's area IS each candidate's: an exact early reject.
        if facts.hold_across_clocks {
            if facts.area > opts.budgets.max_area {
                let run = clocks.len() as u64;
                perf.rejected += run;
                return Ok((run, false));
            }
            let run = if opts.prune {
                pruned_run(evaluator, &self.chip, facts, clocks, frontier)
            } else {
                0
            };
            if run > 0 {
                perf.pruned += run;
                return Ok((run, false));
            }
        }
        // The candidate's own name, then its clock: the row's chip is
        // now bit-identical to a full build of the candidate.
        let chip = &mut self.chip;
        write_candidate_name(&mut chip.config.name, cursor);
        perf.bill(chip.retarget(Delta::Clock(clock_hz))?);
        mcpat_obs::guard::note_candidate();
        // Where a clock move re-picks array partitions, the row's area
        // and leakage are not the candidate's.
        let totals = if facts.hold_across_clocks {
            ChipTotals {
                peak_power: chip.peak_power_total_with(facts.leakage),
                area: facts.area,
            }
        } else {
            ChipTotals {
                peak_power: chip.peak_power_total(),
                area: chip.die_area(),
            }
        };
        if totals.area > opts.budgets.max_area || totals.peak_power > opts.budgets.max_peak_power {
            perf.rejected += 1;
            return Ok((1, true));
        }
        let metrics = evaluator.evaluate_probe(chip, &totals);
        frontier.offer(FrontierPoint {
            name: chip.config.name.clone(),
            cursor,
            area: totals.area,
            peak_power: totals.peak_power,
            metrics,
        });
        Ok((1, true))
    }
}

/// How many candidates at the front of `clocks`, consecutive candidates
/// of the row of `base`, `evaluator` prunes as runs: 0 if it does not
/// prune the first one alone. From there the run doubles, up to the end
/// of `clocks`, while the longer run still prunes. A run prunes only
/// where each of its candidates would alone, and nothing is offered
/// while a run is decided, so the count equals what one decision per
/// candidate would prune before the first candidate it probes.
fn pruned_run<E: DseEvaluator>(
    evaluator: &E,
    base: &Processor,
    facts: RowFacts,
    clocks: &[f64],
    frontier: &ParetoFrontier,
) -> u64 {
    let Some(&first) = clocks.first() else {
        return 0;
    };
    let run = |slowest_hz, fastest_hz| RowCandidate {
        base,
        facts,
        slowest_hz,
        fastest_hz,
    };
    if !evaluator.prunes_in_row(&run(first, first), frontier) {
        return 0;
    }
    let (mut len, mut slowest, mut fastest) = (1, first, first);
    while len < clocks.len() {
        let longer = len.saturating_mul(2).min(clocks.len());
        let (lo, hi) = clocks
            .iter()
            .take(longer)
            .skip(len)
            .fold((slowest, fastest), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        if !evaluator.prunes_in_row(&run(lo, hi), frontier) {
            break;
        }
        (len, slowest, fastest) = (longer, lo, hi);
    }
    len as u64
}

/// The streaming engine: walks `grid` in cursor order from the resume
/// cursor (or 0) on one held row chip ([`Processor::retarget`] moves
/// it from candidate to candidate and, inside a group, from row to
/// row), rejects over-budget rows and prunes runs of candidates
/// against the live frontier, probes and offers the rest, and emits a
/// [`DseCheckpoint`] to `on_checkpoint` after every multiple of
/// `opts.checkpoint_every` candidates; no run crosses a row's end or a
/// checkpoint. The guard is polled once per run or probe. A resumed
/// sweep's final frontier is bit-identical to an uninterrupted run's.
///
/// # Errors
///
/// [`McpatError::Invalid`] for a malformed grid or a resume checkpoint
/// whose grid echo does not match; [`McpatError::Budget`] when the
/// active `mcpat_obs::guard` budget trips (the sweep can be resumed from the
/// last emitted checkpoint); any build error from a candidate, at the
/// first failing cursor.
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
    let (start, mut frontier, mut perf) = match resume {
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
    // Per clock: its bits appear earlier on the clock axis. With a row
    // that repeats an earlier row, this decides whether a probe's
    // configuration repeats an earlier cursor's.
    let mut seen = HashSet::with_capacity(grid.clocks_hz.len());
    let clock_repeats: Vec<bool> = grid
        .clocks_hz
        .iter()
        .map(|c| !seen.insert(c.to_bits()))
        .collect();
    let (total, clocks, every) = (grid.total(), grid.clocks_len(), opts.checkpoint_every);
    let mut held: Option<RowChip> = None;
    let mut cursor = start;
    while cursor < total {
        checkpoint("dse")?;
        let row = match &mut held {
            Some(row) if row.row == cursor / clocks => row,
            slot => {
                let prev = slot.take();
                slot.insert(RowChip::enter(grid, cursor, prev, &mut perf)?)
            }
        };
        // A run stops at the row's end and at the next checkpoint.
        let clock = cursor % clocks;
        let mut len = clocks - clock;
        if every > 0 {
            len = len.min(every - cursor % every);
        }
        let run = grid
            .clocks_hz
            .get(clock as usize..(clock + len) as usize)
            .unwrap_or_default();
        let (retired, probed) =
            row.retire(opts, evaluator, cursor, run, &mut frontier, &mut perf)?;
        if retired == 0 {
            break;
        }
        let repeated_clock = clock_repeats.get(clock as usize).copied().unwrap_or(false);
        if probed && (row.repeats || repeated_clock) {
            perf.deduped += 1;
        }
        perf.candidates += retired;
        cursor += retired;
        if every > 0 && cursor % every == 0 {
            on_checkpoint(&DseCheckpoint::capture(grid, cursor, &frontier, perf))?;
        }
    }
    Ok(DseResult { frontier, perf })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::processor::tests::timing_closed;

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
        AxisGrid {
            core_templates: vec![
                CoreConfig::generic_inorder(),
                timing_closed(CoreConfig::generic_ooo()),
            ],
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
            let template = &grid.core_templates[usize::from(cursor >= 2 * block)];
            assert_eq!(cfg.core.name, template.name, "{cursor}");
            assert_eq!(cfg.core.clock_hz.to_bits(), cfg.clock_hz.to_bits());
        }
    }

    #[test]
    fn sweeps_over_templates_and_clusters_match_the_naive_reference() {
        let grid = two_template_grid();
        for prune in [true, false] {
            let opts = DseOptions {
                prune,
                ..DseOptions::default()
            };
            let perf = assert_engine_matches_reference(&grid, &opts, WorkloadModel::default);
            // The capped x4 two-core rows repeat the x2 ones.
            assert!(perf.deduped > 0, "{perf:?}");
            // Each of the eight groups enters its second row from its
            // first row's chip at 2 GHz. The in-order groups re-solve
            // the L2 there; the enforce-timing groups' second rows
            // start at 1 GHz, so they are entered by a full build,
            // whose first probe is a patch.
            assert_eq!(perf.cache_rebuilds, 4, "{perf:?}");
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
        reference_sweep(grid, &opts, evaluator, |_| ()).frontier
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
        let opts = DseOptions::default();
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
            checkpoint_every: 8,
            ..DseOptions::default()
        };
        dse_streaming(&grid, &opts, &mut WorkloadModel::default(), None, |cp| {
            checkpoints.push(cp.clone());
            Ok(())
        })
        .expect("sweep with checkpoints");
        assert_eq!(checkpoints.len(), 3);
        for cp in &checkpoints {
            let json = cp.to_json().expect("serialize");
            let back = DseCheckpoint::from_json(&json).expect("parse");
            assert_eq!(*cp, back);
            assert_frontiers_bit_identical(&cp.frontier(), &back.frontier());
        }
    }

    #[test]
    fn a_sweep_resumes_from_a_checkpoint_at_any_cursor() {
        // A repeated clock and an enforce-timing template: checkpoints
        // fall mid-row, on rows whose facts hold across clocks and on
        // rows whose facts do not.
        let mut grid = two_template_grid();
        grid.clocks_hz = vec![1.0e9, 2.0e9, 1.0e9];
        let whole = dse(&grid, &DseOptions::default(), &mut WorkloadModel::default()).unwrap();
        let decisions = |p: DsePerf| (p.candidates, p.pruned, p.rejected, p.deduped);
        for every in 1..=grid.total() {
            let opts = DseOptions {
                checkpoint_every: every,
                ..DseOptions::default()
            };
            // Stop at the first checkpoint, as a kill right after it
            // would.
            let mut first = None;
            let stopped = dse_streaming(&grid, &opts, &mut WorkloadModel::default(), None, |cp| {
                first = Some(cp.to_json()?);
                Err(McpatError::config("dse.test", "stopped"))
            });
            assert!(stopped.is_err(), "at {every}");
            let cp = DseCheckpoint::from_json(&first.unwrap()).unwrap();
            assert_eq!(cp.cursor(), every);
            let resumed = dse_streaming(
                &grid,
                &opts,
                &mut WorkloadModel::default(),
                Some(&cp),
                |_| Ok(()),
            )
            .unwrap();
            assert_frontiers_bit_identical(&resumed.frontier, &whole.frontier);
            assert_eq!(
                decisions(resumed.perf),
                decisions(whole.perf),
                "resumed at {every}: {:?} vs {:?}",
                resumed.perf,
                whole.perf
            );
        }
    }

    #[test]
    fn resume_rejects_a_checkpoint_from_a_different_grid() {
        let grid = tiny_grid();
        let mut checkpoints = Vec::new();
        let opts = DseOptions {
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
        // Unpruned, every candidate of the four duplicate rows is a
        // probe that repeats one of the first rows'. Pruned against the
        // live frontier, 11 candidates are never probed, and 4 of the
        // 13 probes lie in the duplicate rows.
        for (prune, probes, pruned, deduped) in [(false, 24, 0, 12), (true, 13, 11, 4)] {
            let opts = DseOptions {
                prune,
                ..DseOptions::default()
            };
            let result = dse(&grid, &opts, &mut WorkloadModel::default()).expect("sweep");
            assert_eq!(
                result.perf,
                DsePerf {
                    candidates: 24,
                    pruned,
                    rejected: 0,
                    probes,
                    cache_rebuilds: 4,
                    full_builds: 4,
                    deduped,
                }
            );
            assert_frontiers_bit_identical(
                &result.frontier,
                &naive_frontier(&grid, &mut WorkloadModel::default()),
            );
        }
    }

    /// The engine's decisions replayed naively, one cursor at a time:
    /// every row base and every candidate full-built from its own
    /// configuration, prune decisions asked on the from-scratch row
    /// base with its facts walked afresh, totals walked on the
    /// from-scratch candidate, duplicates found by comparing the
    /// configuration with every earlier cursor's. Builds are billed
    /// from configurations, never from a `Retarget`: a row entered from
    /// the previous row of its group is an L2 re-solve where the chip
    /// keeps its geometry across clocks or already sits at the row's
    /// first clock, any other row a full build, and a probe is a full
    /// build exactly where the row's facts do not hold and its clock
    /// differs from the one the row's chip was last moved to. Hands
    /// `on_checkpoint` a checkpoint after every multiple of
    /// `opts.checkpoint_every` candidates. The streaming engine must
    /// reach the same frontier, the same counters and the same
    /// checkpoints.
    fn reference_sweep<E: DseEvaluator>(
        grid: &AxisGrid,
        opts: &DseOptions,
        evaluator: &mut E,
        mut on_checkpoint: impl FnMut(&DseCheckpoint),
    ) -> DseResult {
        let (clocks, l2_len) = (grid.clocks_len(), grid.l2_bytes.len() as u64);
        let budgets = opts.budgets;
        let unnamed = |cursor| ProcessorConfig {
            name: String::new(),
            ..grid.config_at(cursor).unwrap()
        };
        let mut frontier = ParetoFrontier::new();
        let mut perf = DsePerf::default();
        // The row the chip holds, and the clock it was last moved to.
        let mut chip_at: Option<(u64, f64)> = None;
        for cursor in 0..grid.total() {
            'retire: {
                perf.candidates += 1;
                let row = cursor / clocks;
                let cfg = grid.config_at(cursor).unwrap();
                let keeps_geometry = !cfg.core.enforce_timing;
                let chip_clock = match chip_at {
                    Some((held, clock)) if held == row => clock,
                    // Inside one group the L2 is re-solved at the clock the
                    // chip already has, where that clock is kept or is the
                    // row's first.
                    Some((held, clock))
                        if held / l2_len == row / l2_len
                            && (keeps_geometry || clock.to_bits() == cfg.clock_hz.to_bits()) =>
                    {
                        perf.cache_rebuilds += 1;
                        clock
                    }
                    _ => {
                        perf.full_builds += 1;
                        cfg.clock_hz
                    }
                };
                chip_at = Some((row, chip_clock));
                let base = Processor::build(&grid.config_at(row * clocks).unwrap()).unwrap();
                let facts = RowFacts::of(&base);
                // Where the facts do not hold across clocks, nothing is
                // decided on the row base.
                let on_base = facts.hold_across_clocks;
                if on_base && base.die_area() > budgets.max_area {
                    perf.rejected += 1;
                    break 'retire;
                }
                let candidate = RowCandidate {
                    base: &base,
                    facts,
                    slowest_hz: cfg.clock_hz,
                    fastest_hz: cfg.clock_hz,
                };
                if opts.prune && on_base && evaluator.prunes_in_row(&candidate, &frontier) {
                    perf.pruned += 1;
                    break 'retire;
                }
                if (0..cursor).any(|earlier| unnamed(earlier) == unnamed(cursor)) {
                    perf.deduped += 1;
                }
                if !on_base && chip_clock.to_bits() != cfg.clock_hz.to_bits() {
                    perf.full_builds += 1;
                } else {
                    perf.probes += 1;
                }
                chip_at = Some((row, cfg.clock_hz));
                let chip = Processor::build(&cfg).unwrap();
                let totals = ChipTotals {
                    peak_power: chip.peak_power().total(),
                    area: chip.die_area(),
                };
                if totals.area > budgets.max_area || totals.peak_power > budgets.max_peak_power {
                    perf.rejected += 1;
                    break 'retire;
                }
                let metrics = evaluator.evaluate_probe(&chip, &totals);
                frontier.offer(FrontierPoint {
                    name: cfg.name,
                    cursor,
                    area: totals.area,
                    peak_power: totals.peak_power,
                    metrics,
                });
            }
            let done = cursor + 1;
            if opts.checkpoint_every > 0 && done % opts.checkpoint_every == 0 {
                on_checkpoint(&DseCheckpoint::capture(grid, done, &frontier, perf));
            }
        }
        DseResult { frontier, perf }
    }

    /// Runs the engine and the naive reference with fresh evaluators
    /// from `make` and requires the same frontier bits, winners,
    /// counters and checkpoint JSON. Returns the engine's counters.
    fn assert_engine_matches_reference<E: DseEvaluator>(
        grid: &AxisGrid,
        opts: &DseOptions,
        make: impl Fn() -> E,
    ) -> DsePerf {
        let json = |cp: &DseCheckpoint| cp.to_json().unwrap();
        let mut engine_checkpoints = Vec::new();
        let engine = dse_streaming(grid, opts, &mut make(), None, |cp| {
            engine_checkpoints.push(json(cp));
            Ok(())
        })
        .expect("streaming sweep");
        let mut reference_checkpoints = Vec::new();
        let reference = reference_sweep(grid, opts, &mut make(), |cp| {
            reference_checkpoints.push(json(cp));
        });
        assert_frontiers_bit_identical(&engine.frontier, &reference.frontier);
        assert_eq!(engine.perf, reference.perf);
        assert_eq!(engine_checkpoints, reference_checkpoints);
        engine.perf
    }

    /// Never bounds a candidate: nothing may be pruned.
    struct Unbounded;

    impl DseEvaluator for Unbounded {
        fn evaluate_probe(&mut self, chip: &Processor, totals: &ChipTotals) -> MetricSet {
            MetricSet::from_power(totals.peak_power, 1.0 / chip.config.clock_hz, totals.area)
        }
    }

    /// Scores a chip by its warnings and its name.
    struct NameAndWarnings;

    fn cursor_of(name: &str) -> u64 {
        name.strip_prefix("dse-")
            .and_then(|c| c.parse().ok())
            .unwrap()
    }

    impl DseEvaluator for NameAndWarnings {
        fn evaluate_probe(&mut self, chip: &Processor, totals: &ChipTotals) -> MetricSet {
            let m = WorkloadModel::default().evaluate_probe(chip, totals);
            let warned = chip.warnings.len() as f64;
            let tag = (cursor_of(&chip.config.name) % 5) as f64;
            MetricSet {
                delay: m.delay * (1.0 + 1e-3 * tag),
                energy: m.energy * (1.0 + 0.1 * warned),
                area: m.area,
            }
        }

        fn prunes_in_row(&self, candidate: &RowCandidate<'_>, frontier: &ParetoFrontier) -> bool {
            WorkloadModel::default().prunes_in_row(candidate, frontier)
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
        for max_peak_power in [f64::INFINITY, peak_budget] {
            let opts = DseOptions {
                budgets: Budgets {
                    max_peak_power,
                    ..Budgets::default()
                },
                ..DseOptions::default()
            };
            let perf = assert_engine_matches_reference(&grid, &opts, || Unbounded);
            assert_eq!(perf.pruned, 0);
            let perf = assert_engine_matches_reference(&grid, &opts, || NameAndWarnings);
            assert!(perf.pruned > 0, "{perf:?}");
        }
        let warned = (0..grid.total())
            .filter_map(|c| grid.config_at(c))
            .any(|cfg| !Processor::build(&cfg).unwrap().warnings.is_empty());
        assert!(warned, "the grid must exercise warnings");
    }

    #[test]
    fn dedupe_counts_equal_the_naive_reference() {
        let mut grid = tiny_grid();
        for (timed, l2, clocks) in [
            (false, vec![1 << 20, 1 << 20], vec![1.0e9, 1.5e9, 2.0e9]),
            (false, vec![1 << 20, 2 << 20], vec![1.0e9, 1.0e9, 2.0e9]),
            (false, vec![1 << 20, 1 << 20], vec![2.0e9, 1.0e9, 2.0e9]),
            // Every probe that moves the clock is a full build.
            (true, vec![1 << 20, 1 << 20], vec![2.0e9, 1.0e9, 2.0e9]),
        ] {
            let core = CoreConfig::generic_inorder();
            grid.core_templates = vec![if timed { timing_closed(core) } else { core }];
            grid.l2_bytes = l2;
            grid.clocks_hz = clocks;
            let perf = assert_engine_matches_reference(
                &grid,
                &DseOptions::default(),
                WorkloadModel::default,
            );
            assert!(perf.deduped > 0, "{perf:?}");
        }
        // Two templates that differ only in the clock the clock axis
        // replaces: every row of the second repeats one of the first.
        let mut fast = CoreConfig::generic_inorder();
        fast.clock_hz *= 2.0;
        grid.core_templates = vec![CoreConfig::generic_inorder(), fast];
        grid.l2_bytes = vec![1 << 20, 2 << 20];
        grid.clocks_hz = vec![1.0e9, 2.0e9];
        let opts = DseOptions {
            prune: false,
            ..DseOptions::default()
        };
        let perf = assert_engine_matches_reference(&grid, &opts, WorkloadModel::default);
        assert_eq!(perf.deduped, grid.total() / 2, "{perf:?}");
    }

    #[test]
    fn enforced_timing_probes_report_their_own_area() {
        // A generic OoO core at N32 meets 20 GHz and 50 GHz only with
        // other array partitions, so under enforced timing those
        // probes' die area moves away from their row base's.
        let grid = AxisGrid {
            core_templates: vec![timing_closed(CoreConfig::generic_ooo())],
            ..AxisGrid::manycore(
                vec![TechNode::N32],
                vec![DeviceType::Hp],
                vec![2, 4],
                vec![1 << 20],
                vec![1.0e9, 20.0e9, 50.0e9, 20.0e9],
            )
        };
        let area_at = |cursor| {
            Processor::build(&grid.config_at(cursor).unwrap())
                .unwrap()
                .die_area()
        };
        assert_ne!(area_at(0).to_bits(), area_at(1).to_bits());
        let perf =
            assert_engine_matches_reference(&grid, &DseOptions::default(), WorkloadModel::default);
        // Only the first candidate of each row keeps its chip's clock.
        assert_eq!(perf.probes, 2, "{perf:?}");
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
        grid.core_templates = vec![timing_closed(CoreConfig::generic_inorder())];
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
        let perf = assert_engine_matches_reference(&grid, &opts, WorkloadModel::default);
        assert_eq!((perf.rejected, perf.pruned), (2, 0), "{perf:?}");
    }

    /// `WorkloadModel`, counting the prune checks the engine asks for.
    #[derive(Default)]
    struct CountingChecks {
        checks: std::cell::Cell<u64>,
    }

    impl DseEvaluator for CountingChecks {
        fn evaluate_probe(&mut self, chip: &Processor, totals: &ChipTotals) -> MetricSet {
            WorkloadModel::default().evaluate_probe(chip, totals)
        }

        fn prunes_in_row(&self, run: &RowCandidate<'_>, frontier: &ParetoFrontier) -> bool {
            self.checks.set(self.checks.get() + 1);
            WorkloadModel::default().prunes_in_row(run, frontier)
        }
    }

    #[test]
    fn pruned_runs_equal_per_candidate_decisions_and_checkpoints() {
        let mut grid = AxisGrid::manycore(
            vec![TechNode::N45, TechNode::N32],
            vec![DeviceType::Hp],
            vec![2, 4, 8],
            vec![1 << 20, 2 << 20],
            Vec::new(),
        );
        let ascending: Vec<f64> = (0..40).map(|i| 1.0e9 + 5.0e7 * f64::from(i)).collect();
        let clock_axes = [
            // Descending: the pruned candidates end each row.
            ascending.iter().rev().copied().collect(),
            // Unsorted with repeats: a run's slowest and fastest clocks
            // lie inside it.
            vec![
                1.2e9, 0.6e9, 2.4e9, 0.6e9, 1.8e9, 0.9e9, 3.0e9, 1.2e9, 0.7e9,
            ],
            ascending,
        ];
        for clocks in clock_axes {
            grid.clocks_hz = clocks;
            // An area budget just under the largest row's area rejects
            // that row, and only that row.
            let mut areas: Vec<f64> = (0..grid.total() / grid.clocks_len())
                .map(|row| {
                    let cfg = grid.config_at(row * grid.clocks_len()).unwrap();
                    Processor::build(&cfg).unwrap().die_area()
                })
                .collect();
            areas.sort_by(f64::total_cmp);
            let [.., second, largest] = areas[..] else {
                panic!("at least two rows");
            };
            assert!(second < largest);
            for checkpoint_every in [1, 7, 37, 1024] {
                let opts = DseOptions {
                    budgets: Budgets {
                        max_area: (second + largest) / 2.0,
                        ..Budgets::default()
                    },
                    checkpoint_every,
                    ..DseOptions::default()
                };
                let perf = assert_engine_matches_reference(&grid, &opts, WorkloadModel::default);
                let what = format!("{:?} every {checkpoint_every}: {perf:?}", grid.clocks_hz);
                assert!(perf.pruned > 0, "{what}");
                assert!(perf.rejected >= grid.clocks_len(), "{what}");
                // On long monotone rows, runs take fewer checks than one
                // per candidate decided, rejects aside.
                let mut counting = CountingChecks::default();
                assert_eq!(dse(&grid, &opts, &mut counting).unwrap().perf, perf);
                if checkpoint_every >= 7 && grid.clocks_len() >= 40 {
                    let checks = counting.checks.get();
                    assert!(
                        checks < perf.pruned + perf.probes,
                        "{checks} checks, {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn power_gated_rows_retire_runs_as_per_candidate_decisions() {
        // A grid has no power-gating axis, so a power-gated row chip is
        // walked directly: clocks on both sides of 1 kHz (below it the
        // 1-ms peak window holds a single cycle), taken at either.
        let incumbent = |hz: f64| {
            let cfg = Delta::Clock(hz).apply(&tiny_grid().config_at(0).unwrap());
            let chip = Processor::build(&cfg).unwrap();
            FrontierPoint {
                name: String::from("incumbent"),
                cursor: u64::MAX,
                area: chip.die_area(),
                peak_power: chip.peak_power_total(),
                metrics: WorkloadModel::default().evaluate(&chip),
            }
        };
        let clock_axes = [
            vec![500.0, 2.0e9, 800.0, 1.0e9, 0.5e9, 600.0, 1.5e9],
            vec![3.0e9, 2.0e9, 1.0e9, 900.0, 700.0, 500.0],
            vec![400.0, 600.0, 800.0, 999.0, 1.0e3, 1.0e6, 1.0e9],
        ];
        let mut pruned_in_runs = 0;
        for clocks in clock_axes {
            let mut cfg = tiny_grid().config_at(0).unwrap();
            cfg.power_gating = true;
            let cfg = Delta::Clock(clocks[0]).apply(&cfg);
            let chip = Processor::build(&cfg).unwrap();
            let facts = RowFacts::of(&chip);
            let seeded = || {
                let mut frontier = ParetoFrontier::new();
                frontier.offer(incumbent(3.0e9));
                frontier
            };
            // One decision per candidate, each probe a full build.
            let mut frontier = seeded();
            let mut pruned = 0;
            for (cursor, &hz) in clocks.iter().enumerate() {
                let point = RowCandidate {
                    base: &chip,
                    facts,
                    slowest_hz: hz,
                    fastest_hz: hz,
                };
                if WorkloadModel::default().prunes_in_row(&point, &frontier) {
                    pruned += 1;
                    continue;
                }
                let probe = Processor::build(&ProcessorConfig {
                    name: format!("dse-{cursor}"),
                    ..Delta::Clock(hz).apply(&cfg)
                })
                .unwrap();
                frontier.offer(FrontierPoint {
                    name: probe.config.name.clone(),
                    cursor: cursor as u64,
                    area: probe.die_area(),
                    peak_power: probe.peak_power_total(),
                    metrics: WorkloadModel::default().evaluate(&probe),
                });
            }
            // The engine's row walk.
            let mut row = RowChip {
                row: 0,
                chip: chip.clone(),
                facts,
                repeats: false,
            };
            let mut engine = seeded();
            let mut perf = DsePerf::default();
            let (mut cursor, mut steps) = (0, 0);
            while cursor < clocks.len() {
                let (retired, _) = row
                    .retire(
                        &DseOptions::default(),
                        &mut CountingChecks::default(),
                        cursor as u64,
                        &clocks[cursor..],
                        &mut engine,
                        &mut perf,
                    )
                    .unwrap();
                cursor += retired as usize;
                steps += 1;
            }
            assert_eq!(perf.pruned, pruned, "{clocks:?}");
            assert_frontiers_bit_identical(&engine, &frontier);
            pruned_in_runs += perf.pruned + perf.probes + perf.full_builds - steps;
        }
        assert!(pruned_in_runs > 0, "no run of more than one candidate");
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
        let mut counting = CountingChecks::default();
        let pruned = dse(&grid, &DseOptions::default(), &mut counting).unwrap();
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
        // Each row's pruned candidates lead it, so runs decide them in
        // about a fifth of the checks one per candidate would take
        // (4,597 of 20,000).
        let checks = counting.checks.get();
        assert!(checks * 4 < grid.total(), "{checks} checks");
    }
}
