//! The simulation-backed DSE scorer: the paper's case-study metric,
//! a fixed amount of work simulated on each chip and priced by the
//! chip's runtime power.

use crate::system::{SimResult, SystemModel};
use crate::workload::WorkloadProfile;
use mcpat::{ChipPower, ChipTotals, DseEvaluator, MetricSet, Processor};

/// Scores a chip by simulating a fixed amount of work on it: delay is
/// the simulated time, energy the runtime power of the simulated
/// activity times that time. There is no cheap bound on a simulated
/// run, so the engine prunes nothing and probes every candidate.
#[derive(Debug, Clone, Copy)]
pub struct SimEvaluator {
    /// The workload run on every chip.
    pub workload: WorkloadProfile,
    /// Instructions retired per chip, split evenly over its cores.
    pub total_insts: u64,
}

impl SimEvaluator {
    /// Simulates the fixed work on `chip` and prices the simulated
    /// activity with [`Processor::runtime_power`].
    #[must_use]
    pub fn run(&self, chip: &Processor) -> (SimResult, ChipPower) {
        let cores = u64::from(chip.config.num_cores.max(1));
        let run = SystemModel::new(&chip.config).simulate(&self.workload, self.total_insts / cores);
        let power = chip.runtime_power(&run.stats);
        (run, power)
    }
}

impl DseEvaluator for SimEvaluator {
    fn evaluate_probe(&mut self, chip: &Processor, totals: &ChipTotals) -> MetricSet {
        let (run, power) = self.run(chip);
        MetricSet::from_power(power.total(), run.seconds, totals.area)
    }
}
