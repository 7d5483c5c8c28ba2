//! The inverse question McPAT's integrated model makes cheap: instead of
//! "what does this clock cost", "what clock does this power budget buy".

use crate::config::ProcessorConfig;
use crate::error::McpatError;
use crate::processor::{checkpoint, Delta, Processor, Retarget};

/// Probe accounting of [`max_clock_under_power_budget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BisectionPerf {
    /// Full `Processor::build` runs: the anchoring base build, plus one
    /// per probe that [`Processor::retarget`] answered with
    /// [`Retarget::FullBuild`] (under `core.enforce_timing`).
    pub full_builds: u64,
    /// Probes [`Processor::retarget`] served in place.
    pub incremental_probes: u64,
}

/// Finds the highest clock (within `lo..hi` Hz) at which the chip's
/// peak power stays within `budget_w`, by bisection (12 iterations,
/// ≈0.02% resolution). The clock is `None` if even `lo` violates the
/// budget; the [`BisectionPerf`] says how the probes were served.
///
/// One full build anchors the clock-invariant array geometry; every
/// probe — `lo`, `hi`, and all midpoints — then retargets that chip in
/// place (a [`Delta::Clock`] [`Processor::retarget`]) instead of
/// re-solving it.
///
/// # Errors
///
/// Propagates [`McpatError`] from the base build or any probe.
pub fn max_clock_under_power_budget(
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
        match chip.retarget(Delta::Clock(clock))? {
            Retarget::FullBuild => perf.full_builds += 1,
            Retarget::Patched | Retarget::L2Resolved => perf.incremental_probes += 1,
        }
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

    fn four_core_chip() -> ProcessorConfig {
        ProcessorConfig::manycore(
            "clk",
            TechNode::N32,
            CoreConfig::generic_inorder(),
            4,
            2,
            1024 * 1024,
        )
    }

    #[test]
    fn clock_bisection_respects_the_budget() {
        let cfg = four_core_chip();
        let budget = 25.0;
        let clock = max_clock_under_power_budget(&cfg, budget, 0.5e9, 6.0e9)
            .unwrap()
            .0
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

    #[test]
    fn bisection_probes_are_incremental() {
        let (clock, perf) =
            max_clock_under_power_budget(&four_core_chip(), 25.0, 0.5e9, 6.0e9).unwrap();
        assert!(clock.is_some());
        // One anchoring build; lo, hi, and all 12 midpoints re-evaluate
        // incrementally.
        assert_eq!(perf.full_builds, 1);
        assert_eq!(perf.incremental_probes, 14);
    }

    #[test]
    fn enforced_timing_bills_every_probe_as_a_full_build() {
        let mut cfg = four_core_chip();
        cfg.core.enforce_timing = true;
        let (clock, perf) = max_clock_under_power_budget(&cfg, 25.0, 0.5e9, 6.0e9).unwrap();
        assert!(clock.is_some());
        // The anchoring build, then lo, hi and all 12 midpoints rebuilt
        // from scratch: the retarget reports the path it took.
        assert_eq!(perf.full_builds, 15);
        assert_eq!(perf.incremental_probes, 0);
    }

    #[test]
    fn impossible_budget_returns_none() {
        let (clock, _) =
            max_clock_under_power_budget(&four_core_chip(), 0.1, 0.5e9, 6.0e9).unwrap();
        assert_eq!(clock, None);
    }
}
