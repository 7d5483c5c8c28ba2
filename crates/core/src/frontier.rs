//! Incremental Pareto frontier over the paper's four composite metrics.
//!
//! The 10^5–10^6-candidate sweeps [`crate::dse`] streams cannot keep
//! every candidate. This module keeps only the *non-dominated* points —
//! dominance taken over the paper's four composite figures of merit
//! (EDP, ED²P, EDAP, EDA²P) — plus one tracked winner per [`Metric`],
//! so memory is O(frontier), not O(candidates). Composite dominance is
//! not dominance over the raw (energy, delay, area) axes: (E 1, D 2,
//! A 1) and (E 2, D 1, A 1) are both raw-axis optimal, but the second
//! dominates the first on the composites (ED²P 2 < 4, the rest tie).
//!
//! The frontier also answers the pruning question the streaming engine
//! asks before paying for a build: given a certified *lower bound* on a
//! candidate's metrics, can any frontier point already beat it
//! everywhere? See [`ParetoFrontier::would_prune`] for the soundness
//! argument (DESIGN.md §12 restates it).

use crate::metrics::{Metric, MetricSet};

/// One design point offered to the frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Candidate name (the DSE engine uses `dse-<cursor>`).
    pub name: String,
    /// The generator cursor that produced this point; doubles as the
    /// deterministic insertion-order key.
    pub cursor: u64,
    /// Die area, m².
    pub area: f64,
    /// Peak power, W.
    pub peak_power: f64,
    /// Workload metrics from the injected evaluator.
    pub metrics: MetricSet,
}

/// The four composite metrics, in the paper's order.
fn composites(m: &MetricSet) -> [f64; 4] {
    [m.edp(), m.ed2p(), m.edap(), m.eda2p()]
}

/// True if `a` dominates `b` over the four composites: no worse on all,
/// strictly better on at least one.
fn dominates(a: &MetricSet, b: &MetricSet) -> bool {
    let (a, b) = (composites(a), composites(b));
    let le = a.iter().zip(&b).all(|(x, y)| x <= y);
    let lt = a.iter().zip(&b).any(|(x, y)| x < y);
    le && lt
}

/// An incremental Pareto frontier with per-metric winner tracking.
///
/// Points are offered in a deterministic order (the DSE cursor order);
/// given the same offer sequence the frontier's state — point set,
/// point order, winners, and counters — is bit-identical, which is what
/// makes checkpoint/resume exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParetoFrontier {
    /// Non-dominated points in insertion (cursor) order.
    points: Vec<FrontierPoint>,
    /// Tracked winner per [`Metric::ALL`] entry, over every *offered*
    /// (built) candidate — including points later evicted from the
    /// frontier. `None` until the first offer.
    winners: [Option<FrontierPoint>; Metric::ALL.len()],
    /// Points offered (built candidates reaching the frontier).
    offered: u64,
    /// Offers admitted to the frontier (not dominated on arrival).
    admitted: u64,
    /// Previously admitted points evicted by a later dominating offer.
    evicted: u64,
}

impl ParetoFrontier {
    /// An empty frontier.
    #[must_use]
    pub fn new() -> ParetoFrontier {
        ParetoFrontier::default()
    }

    /// Offers a built, evaluated candidate. Returns `true` if the point
    /// was admitted (no existing point dominates it), evicting any
    /// points it dominates; `false` if it was dominated on arrival.
    ///
    /// Either way the per-metric winners are updated first, so
    /// [`ParetoFrontier::best`] ranges over every offered candidate —
    /// a min-energy point that is composite-dominated stays reachable
    /// as the [`Metric::Energy`] winner even though it never joins the
    /// frontier. Ties replace the incumbent (new ≤ current wins),
    /// matching [`crate::metrics::best_index`]'s last-minimal-wins
    /// resolution over the offer order.
    pub fn offer(&mut self, point: FrontierPoint) -> bool {
        self.offered += 1;
        for (slot, metric) in self.winners.iter_mut().zip(Metric::ALL) {
            let beaten = slot.as_ref().is_none_or(|w| {
                metric.of(&point.metrics).total_cmp(&metric.of(&w.metrics))
                    != std::cmp::Ordering::Greater
            });
            if beaten {
                *slot = Some(point.clone());
            }
        }
        if self
            .points
            .iter()
            .any(|p| dominates(&p.metrics, &point.metrics))
        {
            return false;
        }
        let before = self.points.len();
        self.points
            .retain(|p| !dominates(&point.metrics, &p.metrics));
        self.evicted += (before - self.points.len()) as u64;
        self.points.push(point);
        self.admitted += 1;
        true
    }

    /// True if a candidate whose metrics are bounded below by
    /// `lower_bound` can be discarded without building it.
    ///
    /// Soundness: `lower_bound` must satisfy `lb.energy ≤ energy`,
    /// `lb.delay ≤ delay`, `lb.area ≤ area` for the candidate's true
    /// (all-positive) metrics; products of positive lower bounds lower-
    /// bound all four composites. If some frontier point `P` is ≤ the
    /// bound on all four composites and strictly < on one, then `P` is
    /// ≤ the true metrics on all four, and on the strict coordinate
    /// `P < lb ≤ true` — so `P` dominates the true candidate and
    /// [`ParetoFrontier::offer`] would have rejected it anyway. The
    /// strictness is tested against the *bound*, not the true value, so
    /// a candidate that merely ties a frontier point everywhere is
    /// still built and offered (equal points are mutually non-dominated
    /// and both kept). Pruning against a stale frontier stays sound by
    /// transitivity: points are only ever evicted by points that
    /// dominate them.
    ///
    /// Delay-tie guard: a candidate whose delay bound does not strictly
    /// exceed the tracked [`Metric::Delay`] winner's delay is never
    /// pruned. Delay ties are common (a throughput workload's delay
    /// depends only on cores × clock), and a tie offered later takes
    /// the winner's slot, so pruning one would move the Delay winner to
    /// another of the tied candidates. With the guard every candidate
    /// of minimal delay is built, and the Delay winner is the one an
    /// unpruned sweep would pick.
    #[must_use]
    pub fn would_prune(&self, lower_bound: &MetricSet) -> bool {
        let fastest = self.best(Metric::Delay).map(|w| w.metrics.delay);
        fastest.is_some_and(|d| lower_bound.delay > d)
            && self
                .points
                .iter()
                .any(|p| dominates(&p.metrics, lower_bound))
    }

    /// The non-dominated points, in insertion (cursor) order.
    #[must_use]
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// The tracked winner under `metric`, over every offered candidate
    /// (see [`ParetoFrontier::offer`]). `None` until the first offer.
    ///
    /// For the four composite metrics the winning *value* always equals
    /// the minimum over all enumerated candidates, pruned ones
    /// included: a pruned candidate is ≥ some frontier point on every
    /// composite. So does the [`Metric::Delay`] winner, cursor
    /// included, given a delay bound that is exact on every candidate
    /// of minimal delay (as [`crate::WorkloadModel`]'s is): the
    /// delay-tie guard of [`ParetoFrontier::would_prune`] builds all of
    /// them. The [`Metric::Energy`] winner ranges over built candidates
    /// only.
    #[must_use]
    pub fn best(&self, metric: Metric) -> Option<&FrontierPoint> {
        Metric::ALL
            .iter()
            .position(|&m| m == metric)
            .and_then(|i| self.winners.get(i))
            .and_then(Option::as_ref)
    }

    /// True if every tracked composite-metric winner is itself
    /// non-dominated. Raw energy/delay winners may legitimately live off
    /// the frontier, so they are exempt.
    #[must_use]
    pub fn winners_are_pareto(&self) -> bool {
        [Metric::Edp, Metric::Ed2p, Metric::Edap, Metric::Eda2p]
            .iter()
            .all(|&m| {
                self.best(m).is_none_or(|w| {
                    !self
                        .points
                        .iter()
                        .any(|p| dominates(&p.metrics, &w.metrics))
                })
            })
    }

    /// Points offered so far.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Offers admitted so far.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Admitted points later evicted by dominating offers.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of points currently on the frontier.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no point has been admitted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Reconstructs a frontier from checkpointed state. The caller (the
    /// DSE checkpoint codec) is responsible for round-tripping floats
    /// exactly; given that, the rebuilt frontier is bit-identical to
    /// the one serialized, so a resumed sweep continues as if never
    /// interrupted.
    #[must_use]
    pub fn from_parts(
        points: Vec<FrontierPoint>,
        winners: [Option<FrontierPoint>; Metric::ALL.len()],
        offered: u64,
        admitted: u64,
        evicted: u64,
    ) -> ParetoFrontier {
        ParetoFrontier {
            points,
            winners,
            offered,
            admitted,
            evicted,
        }
    }

    /// The tracked winners, parallel to [`Metric::ALL`] (for the
    /// checkpoint codec).
    #[must_use]
    pub fn winners(&self) -> &[Option<FrontierPoint>; Metric::ALL.len()] {
        &self.winners
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn pt(cursor: u64, d: f64, e: f64, a: f64) -> FrontierPoint {
        FrontierPoint {
            name: format!("dse-{cursor}"),
            cursor,
            area: a,
            peak_power: e / d,
            metrics: MetricSet {
                delay: d,
                energy: e,
                area: a,
            },
        }
    }

    #[test]
    fn dominated_offers_are_rejected() {
        let mut f = ParetoFrontier::new();
        assert!(f.offer(pt(0, 1.0, 1.0, 1.0)));
        assert!(!f.offer(pt(1, 2.0, 2.0, 2.0)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.offered(), 2);
        assert_eq!(f.admitted(), 1);
    }

    #[test]
    fn dominating_offers_evict() {
        let mut f = ParetoFrontier::new();
        assert!(f.offer(pt(0, 2.0, 2.0, 2.0)));
        assert!(f.offer(pt(1, 1.0, 1.0, 1.0)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.evicted(), 1);
        assert_eq!(f.points()[0].cursor, 1);
    }

    #[test]
    fn incomparable_points_coexist() {
        let mut f = ParetoFrontier::new();
        // Fast-but-big vs slow-but-tiny: each wins some composite.
        assert!(f.offer(pt(0, 1.0, 1.0, 100.0)));
        assert!(f.offer(pt(1, 1.5, 1.0, 10.0)));
        assert_eq!(f.len(), 2);
        assert!(f.winners_are_pareto());
    }

    #[test]
    fn composites_drop_a_raw_axis_optimal_point() {
        // (E 1, D 2) and (E 2, D 1) at equal area: neither beats the
        // other on every raw axis, but the second has the lower ED²P
        // and ties the other composites.
        let mut f = ParetoFrontier::new();
        assert!(f.offer(pt(0, 2.0, 1.0, 1.0)));
        assert!(f.offer(pt(1, 1.0, 2.0, 1.0)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].cursor, 1);
    }

    #[test]
    fn equal_points_are_both_kept() {
        let mut f = ParetoFrontier::new();
        assert!(f.offer(pt(0, 1.0, 1.0, 1.0)));
        assert!(f.offer(pt(1, 1.0, 1.0, 1.0)));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn winner_ties_resolve_to_the_latest_offer() {
        let mut f = ParetoFrontier::new();
        f.offer(pt(0, 1.0, 1.0, 1.0));
        f.offer(pt(1, 1.0, 1.0, 1.0));
        assert_eq!(f.best(Metric::Edp).unwrap().cursor, 1);
    }

    #[test]
    fn energy_winner_survives_composite_eviction() {
        let mut f = ParetoFrontier::new();
        // Lowest energy but badly dominated on every composite.
        f.offer(pt(0, 30.0, 0.5, 1.0));
        f.offer(pt(1, 1.0, 1.0, 1.0));
        assert_eq!(f.len(), 1);
        assert_eq!(f.best(Metric::Energy).unwrap().cursor, 0);
        assert_eq!(f.best(Metric::Edp).unwrap().cursor, 1);
    }

    #[test]
    fn would_prune_requires_strict_improvement_over_the_bound() {
        let mut f = ParetoFrontier::new();
        f.offer(pt(0, 1.0, 1.0, 1.0));
        // A bound exactly tying the frontier point must NOT prune: the
        // true candidate could tie everywhere and belongs on the
        // frontier.
        let tie = MetricSet {
            delay: 1.0,
            energy: 1.0,
            area: 1.0,
        };
        assert!(!f.would_prune(&tie));
        // A bound the point strictly beats somewhere does prune.
        let worse = MetricSet {
            delay: 1.1,
            energy: 1.0,
            area: 1.0,
        };
        assert!(f.would_prune(&worse));
    }

    #[test]
    fn would_prune_keeps_delay_ties_with_the_delay_winner() {
        let mut f = ParetoFrontier::new();
        f.offer(pt(0, 1.0, 1.0, 1.0));
        // Dominated, but as fast as the Delay winner: offered, it would
        // take the winner's slot, so it must be built.
        let tie = MetricSet {
            delay: 1.0,
            energy: 2.0,
            area: 2.0,
        };
        assert!(!f.would_prune(&tie));
        let slower = MetricSet {
            delay: 1.0 + 1e-9,
            ..tie
        };
        assert!(f.would_prune(&slower));
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let mut f = ParetoFrontier::new();
        for (i, d) in [2.0, 1.0, 1.5, 3.0].iter().enumerate() {
            f.offer(pt(i as u64, *d, 1.0 / d, 1.0 + d));
        }
        let rebuilt = ParetoFrontier::from_parts(
            f.points().to_vec(),
            f.winners().clone(),
            f.offered(),
            f.admitted(),
            f.evicted(),
        );
        assert_eq!(rebuilt, f);
    }
}
