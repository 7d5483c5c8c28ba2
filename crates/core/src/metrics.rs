//! Composite figures of merit.
//!
//! Beyond energy and delay, the McPAT paper argues that **area** must
//! enter the objective when comparing manycore design points, and
//! introduces EDAP (energy·delay·area product) and EDA²P alongside the
//! classic EDP and ED²P. Lower is better for every metric here.

/// The full metric set for one (performance, energy, area) triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSet {
    /// Task execution time, s.
    pub delay: f64,
    /// Energy consumed over the task, J.
    pub energy: f64,
    /// Die area, m².
    pub area: f64,
}

impl MetricSet {
    /// Builds from runtime power and execution time.
    #[must_use]
    pub fn from_power(power_w: f64, delay_s: f64, area_m2: f64) -> MetricSet {
        MetricSet {
            delay: delay_s,
            energy: power_w * delay_s,
            area: area_m2,
        }
    }

    /// Energy-delay product, J·s.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy * self.delay
    }

    /// Energy-delay² product, J·s².
    #[must_use]
    pub fn ed2p(&self) -> f64 {
        self.energy * self.delay * self.delay
    }

    /// Energy-delay-area product, J·s·m².
    #[must_use]
    pub fn edap(&self) -> f64 {
        self.edp() * self.area
    }

    /// Energy-delay²-area product, J·s²·m².
    #[must_use]
    pub fn eda2p(&self) -> f64 {
        self.ed2p() * self.area
    }

    /// Which of two design points wins under a metric selector.
    #[must_use]
    pub fn better_than(&self, other: &MetricSet, metric: Metric) -> bool {
        metric.of(self) < metric.of(other)
    }
}

/// Selector for one of the composite metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Energy only.
    Energy,
    /// Delay only.
    Delay,
    /// Energy·delay.
    Edp,
    /// Energy·delay².
    Ed2p,
    /// Energy·delay·area.
    Edap,
    /// Energy·delay²·area.
    Eda2p,
}

impl Metric {
    /// All composite metrics in the paper's order.
    pub const ALL: [Metric; 6] = [
        Metric::Energy,
        Metric::Delay,
        Metric::Edp,
        Metric::Ed2p,
        Metric::Edap,
        Metric::Eda2p,
    ];

    /// Evaluates the metric on a point.
    #[must_use]
    pub fn of(self, m: &MetricSet) -> f64 {
        match self {
            Metric::Energy => m.energy,
            Metric::Delay => m.delay,
            Metric::Edp => m.edp(),
            Metric::Ed2p => m.ed2p(),
            Metric::Edap => m.edap(),
            Metric::Eda2p => m.eda2p(),
        }
    }

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::Energy => "E",
            Metric::Delay => "D",
            Metric::Edp => "EDP",
            Metric::Ed2p => "ED2P",
            Metric::Edap => "EDAP",
            Metric::Eda2p => "EDA2P",
        }
    }
}

/// Index of the best (minimum) point under a metric, over a slice or
/// any other stream of points; `None` for empty input. Ties resolve to
/// the last minimal point (per `Iterator::min_by`).
#[must_use]
pub fn best_index<'a, I>(points: I, metric: Metric) -> Option<usize>
where
    I: IntoIterator<Item = &'a MetricSet>,
{
    points
        .into_iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| metric.of(a).total_cmp(&metric.of(b)))
        .map(|(i, _)| i)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn m(d: f64, e: f64, a: f64) -> MetricSet {
        MetricSet {
            delay: d,
            energy: e,
            area: a,
        }
    }

    #[test]
    fn products_multiply() {
        let x = m(2.0, 3.0, 5.0);
        assert_eq!(x.edp(), 6.0);
        assert_eq!(x.ed2p(), 12.0);
        assert_eq!(x.edap(), 30.0);
        assert_eq!(x.eda2p(), 60.0);
    }

    #[test]
    fn area_aware_metric_can_flip_the_winner() {
        // A is faster but huge; B is slower but tiny.
        let a = m(1.0, 1.0, 100.0);
        let b = m(1.5, 1.0, 10.0);
        assert!(a.better_than(&b, Metric::Ed2p));
        assert!(b.better_than(&a, Metric::Eda2p));
    }

    #[test]
    fn from_power_integrates_energy() {
        let x = MetricSet::from_power(50.0, 2.0, 1e-4);
        assert_eq!(x.energy, 100.0);
    }

    #[test]
    fn best_index_finds_minimum() {
        let pts = vec![m(2.0, 2.0, 1.0), m(1.0, 1.0, 1.0), m(3.0, 1.0, 1.0)];
        assert_eq!(best_index(&pts, Metric::Edp), Some(1));
        assert_eq!(best_index(&[], Metric::Edp), None);
    }
}
