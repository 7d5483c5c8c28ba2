//! Leakage–temperature convergence.
//!
//! Leakage grows exponentially with junction temperature, and junction
//! temperature grows with total power — a feedback loop the McPAT paper
//! notes (it defers detailed thermal maps to HotSpot, but the model's
//! leakage is temperature-parameterized precisely to close this loop).
//! This module runs the fixed-point iteration with a single lumped
//! junction-to-ambient thermal resistance.

use crate::config::ProcessorConfig;
use crate::error::McpatError;
use crate::power::ChipPower;
use crate::processor::Processor;
use crate::stats::ChipStats;

/// Lumped thermal environment of the package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalSpec {
    /// Ambient (heatsink inlet) temperature, K.
    pub ambient_k: f64,
    /// Junction-to-ambient thermal resistance, K/W.
    pub theta_ja: f64,
    /// Convergence tolerance on temperature, K.
    pub tolerance_k: f64,
    /// Iteration cap.
    pub max_iterations: u32,
}

impl Default for ThermalSpec {
    fn default() -> ThermalSpec {
        ThermalSpec {
            ambient_k: 318.0, // 45 °C in-case ambient
            theta_ja: 0.35,   // server heatsink class
            tolerance_k: 0.5,
            max_iterations: 12,
        }
    }
}

impl ThermalSpec {
    /// Full sanity validation of the thermal environment.
    ///
    /// [`converge`] refuses to iterate on a spec with errors; warnings
    /// flag operating points outside the leakage model's calibrated
    /// band.
    #[must_use]
    pub fn validate(&self) -> mcpat_diag::Diagnostics {
        let mut d = mcpat_diag::Diagnostics::new();
        d.require_positive("ambient_k", "ambient temperature", self.ambient_k);
        if self.ambient_k.is_finite()
            && self.ambient_k > 0.0
            && !(250.0..=450.0).contains(&self.ambient_k)
        {
            d.warning(
                "ambient_k",
                format!(
                    "ambient {} K is outside the modeled 250-450 K range",
                    self.ambient_k
                ),
            );
        }
        d.require_nonnegative("theta_ja", "junction-to-ambient resistance", self.theta_ja);
        d.require_positive("tolerance_k", "convergence tolerance", self.tolerance_k);
        if self.max_iterations == 0 {
            d.error(
                "max_iterations",
                "the fixed point needs at least one iteration",
            );
        }
        d
    }
}

/// The converged operating point.
#[derive(Debug, Clone)]
pub struct ThermalResult {
    /// The chip rebuilt at the converged temperature.
    pub chip: Processor,
    /// The converged power.
    pub power: ChipPower,
    /// The converged junction temperature, K.
    pub junction_k: f64,
    /// Iterations used.
    pub iterations: u32,
    /// Whether the loop met the tolerance (false = hit the cap, which
    /// indicates thermal runaway for this θ_JA).
    pub converged: bool,
}

/// Runs the leakage–temperature fixed point for a configuration under
/// the given activity.
///
/// # Errors
///
/// [`McpatError::Invalid`] if the thermal spec fails
/// [`ThermalSpec::validate`]; otherwise propagates [`McpatError`] from
/// any rebuild.
pub fn converge(
    config: &ProcessorConfig,
    stats: &ChipStats,
    thermal: ThermalSpec,
) -> Result<ThermalResult, McpatError> {
    let spec_diags = thermal.validate();
    if spec_diags.has_errors() {
        return Err(McpatError::Invalid(spec_diags));
    }
    let mut temp = thermal.ambient_k.max(config.temperature_k.min(400.0));
    let mut iterations = 0;
    let mut converged = false;
    let mut chip = Processor::build(config)?;
    let mut power = chip.runtime_power(stats);

    while iterations < thermal.max_iterations {
        // One budget checkpoint per thermal iteration: convergence can
        // take many full rebuilds, so deadlines must be able to stop it
        // between them.
        crate::processor::checkpoint("thermal")?;
        iterations += 1;
        let mut cfg = config.clone();
        cfg.temperature_k = temp;
        chip = Processor::build(&cfg)?;
        power = chip.runtime_power(stats);
        let next = thermal.ambient_k + thermal.theta_ja * power.total();
        // Damped update for stability near runaway.
        let next = 0.5 * (temp + next.min(450.0));
        if (next - temp).abs() < thermal.tolerance_k {
            temp = next;
            converged = true;
            break;
        }
        temp = next;
    }

    Ok(ThermalResult {
        chip,
        power,
        junction_k: temp,
        iterations,
        converged,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::ProcessorConfig;

    fn stats_for(cfg: &ProcessorConfig) -> ChipStats {
        ChipStats::peak(
            1e-3,
            cfg.num_cores,
            cfg.clock_hz,
            cfg.core.issue_width,
            cfg.core.fp_issue_width,
        )
    }

    #[test]
    fn converges_above_ambient() {
        let cfg = ProcessorConfig::niagara2();
        let stats = stats_for(&cfg);
        let r = converge(&cfg, &stats, ThermalSpec::default()).unwrap();
        assert!(r.converged, "did not converge in {} iters", r.iterations);
        assert!(r.junction_k > 318.0);
        assert!(r.junction_k < 450.0);
    }

    #[test]
    fn worse_heatsink_runs_hotter_and_leaks_more() {
        let cfg = ProcessorConfig::niagara2();
        let stats = stats_for(&cfg);
        let good = converge(
            &cfg,
            &stats,
            ThermalSpec {
                theta_ja: 0.2,
                ..Default::default()
            },
        )
        .unwrap();
        let bad = converge(
            &cfg,
            &stats,
            ThermalSpec {
                theta_ja: 0.6,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(bad.junction_k > good.junction_k);
        assert!(bad.power.leakage().total() > good.power.leakage().total());
    }

    #[test]
    fn broken_thermal_spec_is_rejected_with_located_findings() {
        let cfg = ProcessorConfig::niagara();
        let stats = stats_for(&cfg);
        let spec = ThermalSpec {
            ambient_k: f64::NAN,
            tolerance_k: 0.0,
            max_iterations: 0,
            ..Default::default()
        };
        let err = converge(&cfg, &stats, spec).unwrap_err();
        let crate::McpatError::Invalid(d) = &err else {
            panic!("a validation error, got {err}");
        };
        let paths: Vec<&str> = d.iter().map(|f| f.path.as_str()).collect();
        for p in ["ambient_k", "tolerance_k", "max_iterations"] {
            assert!(paths.contains(&p), "missing {p} in {paths:?}");
        }
    }

    #[test]
    fn converged_temperature_is_self_consistent() {
        let cfg = ProcessorConfig::niagara();
        let stats = stats_for(&cfg);
        let spec = ThermalSpec::default();
        let r = converge(&cfg, &stats, spec).unwrap();
        let implied = spec.ambient_k + spec.theta_ja * r.power.total();
        assert!(
            (implied - r.junction_k).abs() < 3.0 * spec.tolerance_k,
            "implied {implied} vs converged {}",
            r.junction_k
        );
    }
}
