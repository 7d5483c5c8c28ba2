//! Per-candidate references shared by the bit-identity suites
//! (`tests/perf_identity.rs`, `tests/design_space.rs`,
//! `crates/core/tests/properties.rs`): every
//! fast path — streaming exploration, delta rebuilds, in-place clock
//! retargeting — is checked against chips built one at a time from
//! scratch.
#![allow(dead_code)] // each suite uses a subset

use mcpat::{
    AxisGrid, DsePerf, DseResult, FrontierPoint, Metric, ParetoFrontier, Processor,
    ProcessorConfig, WorkloadModel,
};

/// What the streaming engine must reproduce with pruning off and the
/// default budgets: every candidate of `grid` built on its own with
/// `Processor::build` and scored by [`WorkloadModel`], offered to a
/// fresh frontier in cursor order. A candidate counts as deduped when
/// an earlier candidate has the same configuration up to the name, as
/// the engine counts an unpruned sweep's.
pub fn per_candidate_sweep(grid: &AxisGrid) -> DseResult {
    let mut frontier = ParetoFrontier::new();
    let mut perf = DsePerf::default();
    let mut seen: Vec<ProcessorConfig> = Vec::new();
    for cursor in 0..grid.total() {
        let cfg = grid.config_at(cursor).unwrap();
        perf.candidates += 1;
        let mut unnamed = cfg.clone();
        unnamed.name.clear();
        if seen.contains(&unnamed) {
            perf.deduped += 1;
        } else {
            seen.push(unnamed);
        }
        let chip = Processor::build(&cfg).unwrap();
        frontier.offer(FrontierPoint {
            name: cfg.name,
            cursor,
            area: chip.die_area(),
            peak_power: chip.peak_power().total(),
            metrics: WorkloadModel::default().evaluate(&chip),
        });
    }
    DseResult { frontier, perf }
}

/// A sweep's outcome as exact bit patterns: every frontier point in
/// order, each metric's winner, and the `candidates` and `rejected`
/// counters. (`deduped` counts only candidates that survive pruning,
/// so callers compare it on their own terms.)
pub fn sweep_fingerprint(r: &DseResult) -> Vec<(String, u64)> {
    let mut v = Vec::new();
    for p in r.frontier.points() {
        let m = &p.metrics;
        v.push((format!("{}.cursor", p.name), p.cursor));
        v.push((format!("{}.area", p.name), p.area.to_bits()));
        v.push((format!("{}.peak", p.name), p.peak_power.to_bits()));
        v.push((format!("{}.delay", p.name), m.delay.to_bits()));
        v.push((format!("{}.energy", p.name), m.energy.to_bits()));
        v.push((format!("{}.marea", p.name), m.area.to_bits()));
    }
    for metric in Metric::ALL {
        let best = r.frontier.best(metric);
        let what = format!("best {}", metric.name());
        v.push((what.clone(), best.map_or(u64::MAX, |w| w.cursor)));
        v.push((what, best.map_or(0, |w| metric.of(&w.metrics).to_bits())));
    }
    v.push(("candidates".to_owned(), r.perf.candidates));
    v.push(("rejected".to_owned(), r.perf.rejected));
    v
}

/// A chip's report without its `Build:` line, which describes how the
/// chip was produced (threads, solve-cache traffic), not what was
/// modeled.
pub fn modeled_report(chip: &Processor) -> String {
    chip.report()
        .lines()
        .filter(|l| !l.trim_start().starts_with("Build:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Compares `chip` with a from-scratch build of its own configuration:
/// die area, peak power and total leakage to the bit, the modeled
/// report byte for byte, and every warning's path and message. Returns
/// the first difference.
pub fn differs_from_full_build(chip: &Processor) -> Option<String> {
    let full = match Processor::build(&chip.config) {
        Ok(full) => full,
        Err(e) => return Some(format!("from-scratch build failed: {e}")),
    };
    let bits = [
        ("die area", chip.die_area(), full.die_area()),
        (
            "peak power",
            chip.peak_power().total(),
            full.peak_power().total(),
        ),
        (
            "total leakage",
            chip.total_leakage().total(),
            full.total_leakage().total(),
        ),
    ];
    for (what, a, b) in bits {
        if a.to_bits() != b.to_bits() {
            return Some(format!("{what}: {a:e} vs {b:e} from scratch"));
        }
    }
    if modeled_report(chip) != modeled_report(&full) {
        return Some("reports differ".to_owned());
    }
    let warnings = |c: &Processor| -> Vec<(String, String)> {
        c.warnings
            .iter()
            .map(|w| (w.path.clone(), w.message.clone()))
            .collect()
    };
    let (a, b) = (warnings(chip), warnings(&full));
    (a != b).then(|| format!("warnings {a:?} vs {b:?} from scratch"))
}
