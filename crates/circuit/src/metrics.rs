//! Uniform power/area/timing summaries shared by all circuit primitives
//! and re-used by the architectural layers above.

use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Static (leakage) power split into its two physical mechanisms, W.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StaticPower {
    /// Subthreshold (source–drain) leakage, W.
    pub subthreshold: f64,
    /// Gate-tunneling leakage, W.
    pub gate: f64,
}

impl StaticPower {
    /// A zero static power value.
    #[must_use]
    pub fn zero() -> StaticPower {
        StaticPower::default()
    }

    /// Constructs from the two components.
    #[must_use]
    pub fn new(subthreshold: f64, gate: f64) -> StaticPower {
        StaticPower { subthreshold, gate }
    }

    /// Total leakage, W.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.subthreshold + self.gate
    }

    /// Scales both components (e.g. by an instance count or a power-gating
    /// duty factor).
    #[must_use]
    pub fn scaled(&self, k: f64) -> StaticPower {
        StaticPower {
            subthreshold: self.subthreshold * k,
            gate: self.gate * k,
        }
    }
}

impl Add for StaticPower {
    type Output = StaticPower;
    fn add(self, rhs: StaticPower) -> StaticPower {
        StaticPower {
            subthreshold: self.subthreshold + rhs.subthreshold,
            gate: self.gate + rhs.gate,
        }
    }
}

impl AddAssign for StaticPower {
    fn add_assign(&mut self, rhs: StaticPower) {
        *self = *self + rhs;
    }
}

impl Sum for StaticPower {
    fn sum<I: Iterator<Item = StaticPower>>(iter: I) -> StaticPower {
        iter.fold(StaticPower::zero(), Add::add)
    }
}

/// The uniform result of evaluating any circuit structure.
///
/// * `area` — silicon area, m²;
/// * `delay` — critical-path latency of one operation, s;
/// * `energy_per_op` — dynamic energy of one operation, J;
/// * `leakage` — static power while idle, W.
///
/// # Examples
///
/// ```
/// use mcpat_circuit::CircuitMetrics;
/// let a = CircuitMetrics { area: 1e-9, delay: 1e-10, energy_per_op: 1e-12, ..Default::default() };
/// let b = CircuitMetrics { area: 2e-9, delay: 3e-10, energy_per_op: 1e-12, ..Default::default() };
/// let sum = a.in_series(&b);
/// assert!((sum.delay - 4e-10).abs() < 1e-18);     // delays add in series
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CircuitMetrics {
    /// Silicon area, m².
    pub area: f64,
    /// Critical-path delay of one operation, s.
    pub delay: f64,
    /// Dynamic energy per operation, J.
    pub energy_per_op: f64,
    /// Static power, W.
    pub leakage: StaticPower,
}

impl CircuitMetrics {
    /// A zero value, useful as an accumulator seed.
    #[must_use]
    pub fn zero() -> CircuitMetrics {
        CircuitMetrics::default()
    }

    /// Combines with a structure operating *in series* on the same path:
    /// areas, energies, and leakage add; delays add.
    #[must_use]
    pub fn in_series(&self, other: &CircuitMetrics) -> CircuitMetrics {
        CircuitMetrics {
            area: self.area + other.area,
            delay: self.delay + other.delay,
            energy_per_op: self.energy_per_op + other.energy_per_op,
            leakage: self.leakage + other.leakage,
        }
    }

    /// Dynamic power at an access rate of `ops_per_second`, W.
    #[must_use]
    pub fn dynamic_power(&self, ops_per_second: f64) -> f64 {
        self.energy_per_op * ops_per_second
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn sample(a: f64, d: f64, e: f64, l: f64) -> CircuitMetrics {
        CircuitMetrics {
            area: a,
            delay: d,
            energy_per_op: e,
            leakage: StaticPower::new(l, l / 10.0),
        }
    }

    #[test]
    fn series_adds_delay() {
        let x = sample(1.0, 2.0, 3.0, 4.0);
        let y = sample(10.0, 20.0, 30.0, 40.0);
        let s = x.in_series(&y);
        assert_eq!(s.area, 11.0);
        assert_eq!(s.delay, 22.0);
        assert_eq!(s.energy_per_op, 33.0);
        assert!((s.leakage.total() - 48.4).abs() < 1e-12);
    }

    #[test]
    fn static_power_sums() {
        let parts = vec![StaticPower::new(1.0, 0.5), StaticPower::new(2.0, 0.25)];
        let total: StaticPower = parts.into_iter().sum();
        assert!((total.total() - 3.75).abs() < 1e-12);
    }
}
