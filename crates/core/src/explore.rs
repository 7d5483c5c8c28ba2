//! Design-space exploration: feasibility filtering, Pareto fronts, and
//! per-metric winners over a set of candidate configurations.
//!
//! This is the workflow the McPAT paper's case study performs by hand —
//! build many chips, evaluate each under the metrics, and compare —
//! packaged as a reusable utility: [`explore_batch`] over a materialized
//! candidate list, with the streaming [`crate::dse`] engine for grids too
//! large to hold. Performance evaluation is injected as a closure so the
//! explorer does not depend on any particular performance simulator.

use crate::config::ProcessorConfig;
use crate::error::McpatError;
use crate::metrics::{best_index_of, Metric, MetricSet};
use crate::processor::{checkpoint, clock_delta_rebuilds_fully, worker_failure, Processor};

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

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Configuration name.
    pub name: String,
    /// Die area, m².
    pub area: f64,
    /// Peak power, W.
    pub peak_power: f64,
    /// The (energy, delay, area) triple from the injected evaluator.
    pub metrics: MetricSet,
}

/// The exploration result.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Candidates inside the budgets, in input order.
    pub feasible: Vec<Candidate>,
    /// Names of candidates rejected by the budgets.
    pub rejected: Vec<String>,
    /// Indices (into `feasible`) of the energy/delay/area Pareto front.
    pub pareto: Vec<usize>,
}

impl Exploration {
    /// The feasible candidate minimizing a metric.
    ///
    /// **Scaling note (soft-deprecated for large sweeps):** this scans
    /// the fully materialized `feasible` Vec, so it costs O(candidates)
    /// memory held for the whole exploration. For the 10^5+-candidate
    /// sweeps the paper's case study implies, use the streaming engine
    /// instead — [`crate::dse::dse`] keeps memory at
    /// O(frontier + chunk) and [`crate::frontier::ParetoFrontier::best`]
    /// answers the same question from tracked winners without a scan.
    #[must_use]
    pub fn best(&self, metric: Metric) -> Option<&Candidate> {
        best_index_of(self.feasible.iter().map(|c| &c.metrics), metric)
            .and_then(|i| self.feasible.get(i))
    }

    /// True if every per-metric winner lies on the Pareto front
    /// (a consistency invariant of correct dominance filtering).
    ///
    /// **Scaling note (soft-deprecated for large sweeps):** like
    /// [`Exploration::best`] this assumes the materialized `feasible`
    /// Vec; the streaming analog is
    /// [`crate::frontier::ParetoFrontier::winners_are_pareto`].
    #[must_use]
    pub fn winners_are_pareto(&self) -> bool {
        Metric::ALL.iter().all(|&m| {
            best_index_of(self.feasible.iter().map(|c| &c.metrics), m)
                .is_none_or(|i| self.pareto.contains(&i))
        })
    }
}

/// True if `a` dominates `b` (no worse on all axes, better on one).
fn dominates(a: &MetricSet, b: &MetricSet) -> bool {
    let le = a.energy <= b.energy && a.delay <= b.delay && a.area <= b.area;
    let lt = a.energy < b.energy || a.delay < b.delay || a.area < b.area;
    le && lt
}

/// Indices (into `feasible`) of the non-dominated points.
///
/// Dominance here is over the raw (energy, delay, area) axes, unlike
/// [`crate::frontier::ParetoFrontier`], which compares the four
/// composites (EDP, ED²P, EDAP, EDA²P). The fronts differ: (E 1, D 2,
/// A 1) and (E 2, D 1, A 1) are both raw-axis optimal, but the second
/// dominates the first on the composites (ED²P 2 < 4, the rest tie).
fn pareto_front(feasible: &[Candidate]) -> Vec<usize> {
    feasible
        .iter()
        .enumerate()
        .filter(|&(i, cand)| {
            !feasible
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && dominates(&other.metrics, &cand.metrics))
        })
        .map(|(i, _)| i)
        .collect()
}

/// How a [`explore_batch`] call performed: where its builds went and
/// what the caches and the thread pool did on its behalf.
///
/// The counters come from a scoped [`mcpat_obs::Collector`] entered for
/// the duration of the call, so each call reports exactly its own
/// traffic even when several run concurrently on separate threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExplorePerf {
    /// Worker threads the fan-out could use.
    pub threads: usize,
    /// Candidates submitted.
    pub candidates: usize,
    /// Distinct configurations actually built.
    pub unique_builds: usize,
    /// Candidates served by another candidate's build (identical
    /// configuration up to the name).
    pub deduped: usize,
    /// Array solves answered by the content-addressed cache.
    pub solve_cache_hits: u64,
    /// Array solves that ran the optimizer.
    pub solve_cache_misses: u64,
    /// Tasks stolen between pool workers while building.
    pub pool_steals: u64,
    /// Fan-out elements executed inline (serial cutoffs and nested
    /// calls that never reached the pool).
    pub pool_inline: u64,
    /// Heap allocations billed to the call (0 unless the binary installs
    /// [`mcpat_obs::CountingAlloc`]).
    pub allocs: u64,
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

/// Groups candidates by configuration identity (up to the name).
/// Returns each candidate's representative slot, and the
/// representatives' candidate indices in first-occurrence order. The
/// streaming DSE engine ([`crate::dse`]) dedupes with the same
/// [`eq_ignoring_name`] identity, applied once per row.
pub(crate) fn assign_duplicates(candidates: &[ProcessorConfig]) -> (Vec<usize>, Vec<usize>) {
    let mut reps: Vec<usize> = Vec::new();
    let assignment = candidates
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            reps.iter()
                .position(|&r| {
                    candidates
                        .get(r)
                        .is_some_and(|rep| eq_ignoring_name(rep, cfg))
                })
                .unwrap_or_else(|| {
                    reps.push(i);
                    reps.len() - 1
                })
        })
        .collect();
    (assignment, reps)
}

/// Builds and evaluates every candidate, filters by budgets, and
/// computes the Pareto front over (energy, delay, area).
///
/// `evaluate` receives the built chip and must return the workload
/// metrics (typically from `mcpat-sim`). Identical candidate
/// configurations (up to the name) are built once and shared: a
/// duplicate is re-labeled with its own candidate's name before the
/// evaluator sees it, so every result row is exactly what a
/// per-candidate [`Processor::build`] would give. Budget filtering, the
/// injected evaluator and error propagation all observe the candidates
/// in input order, whatever order the parallel builds finish in.
///
/// The second return value reports how the batch performed; see
/// [`ExplorePerf`].
///
/// # Errors
///
/// Propagates the first build failure ([`McpatError`]) in candidate
/// order; candidates that merely exceed the budgets are reported in
/// `rejected`, not errors.
pub fn explore_batch<F>(
    candidates: &[ProcessorConfig],
    budgets: Budgets,
    mut evaluate: F,
) -> Result<(Exploration, ExplorePerf), McpatError>
where
    F: FnMut(&Processor) -> MetricSet,
{
    // Scope the whole batch: builds fan out to pool workers, but every
    // task carries this scope's chain, so the counters below are this
    // call's own traffic — never a concurrent caller's.
    let collector = mcpat_obs::Collector::new();
    let result = {
        let _scope = collector.enter();
        let _span = mcpat_obs::span("explore_batch");
        explore_batch_scoped(candidates, budgets, &mut evaluate)
    };
    let snap = collector.snapshot();
    let (exploration, unique_builds) = result?;
    let perf = ExplorePerf {
        threads: mcpat_par::threads(),
        candidates: candidates.len(),
        unique_builds,
        deduped: candidates.len() - unique_builds,
        solve_cache_hits: snap.solve_cache_hits,
        solve_cache_misses: snap.solve_cache_misses,
        pool_steals: snap.pool_steals,
        pool_inline: snap.pool_inline,
        allocs: snap.allocs,
    };
    Ok((exploration, perf))
}

/// The body of [`explore_batch`], run inside its collector scope.
/// Returns the exploration plus the number of unique builds.
fn explore_batch_scoped<F>(
    candidates: &[ProcessorConfig],
    budgets: Budgets,
    evaluate: &mut F,
) -> Result<(Exploration, usize), McpatError>
where
    F: FnMut(&Processor) -> MetricSet,
{
    // Assign every candidate to the first candidate with the same
    // configuration; representatives build, the rest share.
    let (assignment, reps) = assign_duplicates(candidates);
    let unique: Vec<&ProcessorConfig> =
        reps.into_iter().filter_map(|i| candidates.get(i)).collect();

    let builds = mcpat_par::par_map(&unique, 2, |_, cfg| {
        // One budget checkpoint per representative candidate.
        checkpoint("explore")?;
        let r = Processor::build(cfg);
        if r.is_ok() {
            mcpat_guard::note_candidate();
        }
        r
    })
    .map_err(worker_failure("explore"))?;
    // Representatives are in first-occurrence order, and duplicates
    // of a failing config fail identically, so the first failing
    // representative is the first failing candidate.
    let mut chips = Vec::with_capacity(builds.len());
    for built in builds {
        chips.push(built?);
    }

    let mut feasible = Vec::new();
    let mut rejected = Vec::new();
    for (cfg, &slot) in candidates.iter().zip(assignment.iter()) {
        // Every slot indexes a built representative by construction.
        let Some(rep) = chips.get(slot) else { continue };
        // Duplicates get a re-labeled copy so the evaluator and the
        // result rows observe exactly the chip a per-candidate build
        // would give — same values, this candidate's name.
        let relabeled;
        let chip: &Processor = if rep.config.name == cfg.name {
            rep
        } else {
            let mut c = rep.clone();
            c.config.name.clone_from(&cfg.name);
            relabeled = c;
            &relabeled
        };
        let area = chip.die_area();
        let peak = chip.peak_power().total();
        if area > budgets.max_area || peak > budgets.max_peak_power {
            rejected.push(cfg.name.clone());
            continue;
        }
        let metrics = evaluate(chip);
        feasible.push(Candidate {
            name: cfg.name.clone(),
            area,
            peak_power: peak,
            metrics,
        });
    }

    let pareto = pareto_front(&feasible);
    Ok((
        Exploration {
            feasible,
            rejected,
            pareto,
        },
        unique.len(),
    ))
}

/// Probe accounting of [`max_clock_under_power_budget_with_perf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BisectionPerf {
    /// Full `Processor::build` runs: the anchoring base build, plus one
    /// per probe when `core.enforce_timing` forces the fallback.
    pub full_builds: u64,
    /// Probes served by the incremental clock-only rebuild
    /// ([`Processor::retarget_clock`], the body of a
    /// [`crate::Delta::Clock`] rebuild).
    pub incremental_probes: u64,
}

/// Finds the highest clock (within `lo..hi` Hz) at which the chip's
/// peak power stays within `budget_w`, by bisection (12 iterations,
/// ≈0.02% resolution). Returns `None` if even `lo` violates the budget.
///
/// This is the inverse question McPAT's integrated model makes cheap:
/// instead of "what does this clock cost", "what clock does this budget
/// buy". One full build anchors the clock-invariant array geometry;
/// every probe — `lo`, `hi`, and all midpoints — then retargets that
/// chip in place ([`Processor::retarget_clock`], the primitive behind
/// [`crate::Delta::Clock`]) instead of re-solving it.
///
/// # Errors
///
/// Propagates [`McpatError`] from the base build or any probe.
pub fn max_clock_under_power_budget(
    config: &ProcessorConfig,
    budget_w: f64,
    lo_hz: f64,
    hi_hz: f64,
) -> Result<Option<f64>, McpatError> {
    max_clock_under_power_budget_with_perf(config, budget_w, lo_hz, hi_hz).map(|(r, _)| r)
}

/// [`max_clock_under_power_budget`] with probe accounting; see
/// [`BisectionPerf`].
///
/// # Errors
///
/// Propagates [`McpatError`] from the base build or any probe.
pub fn max_clock_under_power_budget_with_perf(
    config: &ProcessorConfig,
    budget_w: f64,
    lo_hz: f64,
    hi_hz: f64,
) -> Result<(Option<f64>, BisectionPerf), McpatError> {
    let _span = mcpat_obs::span("clock_bisection");
    // One scratch chip, retargeted in place by every probe.
    let mut chip = Processor::build(config)?;
    let mut perf = BisectionPerf {
        full_builds: 1,
        incremental_probes: 0,
    };
    let mut power_at = |clock: f64| -> Result<f64, McpatError> {
        // One budget checkpoint per bisection probe.
        checkpoint("clock_bisection")?;
        if clock_delta_rebuilds_fully(config) {
            perf.full_builds += 1;
        } else {
            perf.incremental_probes += 1;
        }
        chip.retarget_clock(clock)?;
        Ok(chip.peak_power_total())
    };
    if power_at(lo_hz)? > budget_w {
        return Ok((None, perf));
    }
    if power_at(hi_hz)? <= budget_w {
        return Ok((Some(hi_hz), perf));
    }
    let (mut lo, mut hi) = (lo_hz, hi_hz);
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        if power_at(mid)? <= budget_w {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((Some(lo), perf))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_mcore::config::CoreConfig;
    use mcpat_tech::TechNode;

    fn candidates() -> Vec<ProcessorConfig> {
        [2u32, 4, 8]
            .into_iter()
            .map(|n| {
                ProcessorConfig::manycore(
                    &format!("m{n}"),
                    TechNode::N32,
                    CoreConfig::generic_inorder(),
                    n,
                    n.min(2),
                    1024 * 1024,
                )
            })
            .collect()
    }

    fn fake_eval(chip: &Processor) -> MetricSet {
        // Deterministic pseudo-workload: delay inversely proportional to
        // core count, power proportional.
        let n = f64::from(chip.config.num_cores);
        MetricSet::from_power(10.0 * n, 1.0 / n, chip.die_area())
    }

    #[test]
    fn budgets_reject_big_chips() {
        let cands = candidates();
        let tight = Budgets {
            max_area: 40e-6, // 40 mm²
            max_peak_power: f64::INFINITY,
        };
        let (ex, _) = explore_batch(&cands, tight, fake_eval).unwrap();
        assert!(!ex.rejected.is_empty());
        assert!(ex.feasible.len() < cands.len());
    }

    #[test]
    fn pareto_front_is_nonempty_and_contains_winners() {
        let cands = candidates();
        let (ex, _) = explore_batch(&cands, Budgets::default(), fake_eval).unwrap();
        assert!(!ex.pareto.is_empty());
        assert!(ex.winners_are_pareto());
    }

    #[test]
    fn dominated_points_are_excluded() {
        let a = MetricSet {
            energy: 1.0,
            delay: 1.0,
            area: 1.0,
        };
        let b = MetricSet {
            energy: 2.0,
            delay: 2.0,
            area: 2.0,
        };
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &a));
    }

    #[test]
    fn raw_axis_front_keeps_points_the_composite_frontier_drops() {
        let point = |energy: f64, delay: f64| MetricSet {
            energy,
            delay,
            area: 1.0,
        };
        let (a, b) = (point(1.0, 2.0), point(2.0, 1.0));
        assert!(!dominates(&a, &b) && !dominates(&b, &a));
        assert!(b.ed2p() < a.ed2p());
        let mut composite = crate::frontier::ParetoFrontier::new();
        for (cursor, metrics) in [(0, a), (1, b)] {
            composite.offer(crate::frontier::FrontierPoint {
                name: format!("p{cursor}"),
                cursor,
                area: 1.0,
                peak_power: 1.0,
                metrics,
            });
        }
        assert_eq!(composite.len(), 1, "b dominates a on the composites");
    }

    #[test]
    fn clock_bisection_respects_the_budget() {
        let cfg = ProcessorConfig::manycore(
            "clk",
            TechNode::N32,
            CoreConfig::generic_inorder(),
            4,
            2,
            1024 * 1024,
        );
        let budget = 25.0;
        let clock = max_clock_under_power_budget(&cfg, budget, 0.5e9, 6.0e9)
            .unwrap()
            .expect("a feasible clock exists");
        let mut at = cfg.clone();
        at.clock_hz = clock;
        at.core.clock_hz = clock;
        let p = Processor::build(&at).unwrap().peak_power().total();
        assert!(p <= budget * 1.001, "power {p} at {clock:e} Hz");
        // And the budget is actually *used*: 10% more clock violates it.
        let mut over = cfg.clone();
        over.clock_hz = clock * 1.1;
        over.core.clock_hz = clock * 1.1;
        let p_over = Processor::build(&over).unwrap().peak_power().total();
        assert!(p_over > budget, "budget not saturated: {p_over}");
    }

    /// The reference `explore_batch` must reproduce: every candidate
    /// built on its own, in input order, with no dedupe and no fan-out.
    fn per_candidate_reference(cands: &[ProcessorConfig]) -> Exploration {
        let feasible: Vec<Candidate> = cands
            .iter()
            .map(|cfg| {
                let chip = Processor::build(cfg).unwrap();
                Candidate {
                    name: cfg.name.clone(),
                    area: chip.die_area(),
                    peak_power: chip.peak_power().total(),
                    metrics: fake_eval(&chip),
                }
            })
            .collect();
        let pareto = pareto_front(&feasible);
        Exploration {
            feasible,
            rejected: Vec::new(),
            pareto,
        }
    }

    #[test]
    fn explore_batch_matches_per_candidate_builds_field_for_field() {
        let mut cands = candidates();
        let mut dup = cands[1].clone();
        dup.name = String::from("m4-copy");
        cands.push(dup);
        let serial = per_candidate_reference(&cands);
        let (batched, perf) = explore_batch(&cands, Budgets::default(), fake_eval).unwrap();
        assert_eq!(perf.candidates, 4);
        assert_eq!(perf.unique_builds, 3);
        assert_eq!(perf.deduped, 1);
        assert_eq!(serial.rejected, batched.rejected);
        assert_eq!(serial.pareto, batched.pareto);
        assert_eq!(serial.feasible.len(), batched.feasible.len());
        for (a, b) in serial.feasible.iter().zip(&batched.feasible) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.area.to_bits(), b.area.to_bits());
            assert_eq!(a.peak_power.to_bits(), b.peak_power.to_bits());
            assert_eq!(a.metrics.energy.to_bits(), b.metrics.energy.to_bits());
            assert_eq!(a.metrics.delay.to_bits(), b.metrics.delay.to_bits());
            assert_eq!(a.metrics.area.to_bits(), b.metrics.area.to_bits());
        }
    }

    #[test]
    fn deduped_candidates_are_relabeled_for_the_evaluator() {
        let mut cands = candidates();
        let mut dup = cands[0].clone();
        dup.name = String::from("m2-copy");
        cands.push(dup);
        let mut seen = Vec::new();
        let (ex, _) = explore_batch(&cands, Budgets::default(), |chip| {
            seen.push(chip.config.name.clone());
            fake_eval(chip)
        })
        .unwrap();
        assert_eq!(seen, ["m2", "m4", "m8", "m2-copy"]);
        assert_eq!(ex.feasible.len(), 4);
    }

    #[test]
    fn bisection_probes_are_incremental() {
        let cfg = ProcessorConfig::manycore(
            "clk",
            TechNode::N32,
            CoreConfig::generic_inorder(),
            4,
            2,
            1024 * 1024,
        );
        let (clock, perf) =
            max_clock_under_power_budget_with_perf(&cfg, 25.0, 0.5e9, 6.0e9).unwrap();
        assert!(clock.is_some());
        // One anchoring build; lo, hi, and all 12 midpoints re-evaluate
        // incrementally.
        assert_eq!(perf.full_builds, 1);
        assert_eq!(perf.incremental_probes, 14);
    }

    #[test]
    fn impossible_budget_returns_none() {
        let cfg = ProcessorConfig::manycore(
            "clk",
            TechNode::N32,
            CoreConfig::generic_inorder(),
            4,
            2,
            1024 * 1024,
        );
        assert_eq!(
            max_clock_under_power_budget(&cfg, 0.1, 0.5e9, 6.0e9).unwrap(),
            None
        );
    }

    #[test]
    fn best_metric_lookup_works() {
        let cands = candidates();
        let (ex, _) = explore_batch(&cands, Budgets::default(), fake_eval).unwrap();
        // Delay-optimal = the biggest chip; energy-optimal = the smallest.
        assert_eq!(ex.best(Metric::Delay).unwrap().name, "m8");
        assert_eq!(ex.best(Metric::Energy).unwrap().name, "m2");
    }
}
