//! Per-candidate references shared by the bit-identity suites
//! (`tests/perf_identity.rs`, `crates/core/tests/properties.rs`): every
//! fast path — batched exploration, delta rebuilds, in-place clock
//! retargeting — is checked against chips built one at a time from
//! scratch.
#![allow(dead_code)] // each suite uses a subset

use mcpat::{Candidate, MetricSet, Processor, ProcessorConfig};

/// What `explore_batch` must reproduce: every candidate built on its
/// own with `Processor::build`, in input order, with the raw (energy,
/// delay, area) Pareto front found by brute force.
pub fn per_candidate_reference(
    cands: &[ProcessorConfig],
    eval: impl Fn(&Processor) -> MetricSet,
) -> (Vec<Candidate>, Vec<usize>) {
    let feasible: Vec<Candidate> = cands
        .iter()
        .map(|cfg| {
            let chip = Processor::build(cfg).unwrap();
            Candidate {
                name: cfg.name.clone(),
                area: chip.die_area(),
                peak_power: chip.peak_power().total(),
                metrics: eval(&chip),
            }
        })
        .collect();
    let axes = |c: &Candidate| [c.metrics.energy, c.metrics.delay, c.metrics.area];
    let dominated = |c: &Candidate| {
        feasible.iter().any(|o| {
            let (o, c) = (axes(o), axes(c));
            o.iter().zip(&c).all(|(x, y)| x <= y) && o.iter().zip(&c).any(|(x, y)| x < y)
        })
    };
    let pareto = feasible
        .iter()
        .enumerate()
        .filter(|(_, c)| !dominated(c))
        .map(|(i, _)| i)
        .collect();
    (feasible, pareto)
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
