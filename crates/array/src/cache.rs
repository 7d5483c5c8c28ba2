//! Set-associative cache assembly: tag array + data array (+ banking).
//!
//! McPAT models a cache as separately solved tag and data arrays. Small
//! latency-critical caches read tag and data **in parallel** and discard
//! the losing ways; large caches read the tag first and only then the
//! selected data way (**sequential** access), trading latency for energy.

use crate::solve::{ArrayError, SolvedArray};
use crate::spec::{ArrayKind, ArraySpec, OptTarget, Ports};
use mcpat_circuit::comparator::TagComparator;
use mcpat_circuit::metrics::StaticPower;
use mcpat_tech::TechParams;

/// Tag/data access policy.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum AccessMode {
    /// Probe all ways' tags and data simultaneously (L1 style).
    #[default]
    Parallel,
    /// Probe tags first, then one data way (L2/L3 style).
    Sequential,
}

/// A cache specification.
///
/// # Examples
///
/// ```
/// use mcpat_array::cache::{CacheSpec, AccessMode};
/// use mcpat_array::OptTarget;
/// use mcpat_tech::{TechNode, DeviceType, TechParams};
///
/// let tech = TechParams::new(TechNode::N65, DeviceType::Hp, 360.0);
/// let l1 = CacheSpec::new("l1d", 32 * 1024, 64, 4).solve(&tech, OptTarget::EnergyDelay)?;
/// assert!(l1.hit_latency > 0.0);
/// # Ok::<(), mcpat_array::ArrayError>(())
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheSpec {
    /// Name for reporting.
    pub name: String,
    /// Total capacity, bytes.
    pub capacity: u64,
    /// Block (line) size, bytes.
    pub block_bytes: u32,
    /// Associativity (ways); must be ≥ 1.
    pub associativity: u32,
    /// Number of independently accessible banks.
    pub banks: u32,
    /// Ports on each bank.
    pub ports: Ports,
    /// Physical address width, bits.
    pub paddr_bits: u32,
    /// Extra state bits stored per tag (valid/dirty/coherence).
    pub state_bits: u32,
    /// Tag/data access policy.
    pub access_mode: AccessMode,
    /// Optional cycle-time constraint for both arrays, s.
    pub max_cycle_time: Option<f64>,
    /// Storage-cell kind of the data array (`Ram` SRAM by default;
    /// `Edram` for dense L3-class arrays, which adds refresh power).
    #[serde(default)]
    pub data_cell: ArrayKind,
}

impl CacheSpec {
    /// Creates a single-banked, single-ported cache spec.
    ///
    /// Zero `block_bytes`/`associativity` are clamped to 1;
    /// [`CacheSpec::validate_into`] reports degenerate or non-dividing
    /// geometries as findings.
    #[must_use]
    pub fn new(name: &str, capacity: u64, block_bytes: u32, associativity: u32) -> CacheSpec {
        let block_bytes = block_bytes.max(1);
        let associativity = associativity.max(1);
        CacheSpec {
            name: name.to_owned(),
            capacity,
            block_bytes,
            associativity,
            banks: 1,
            ports: Ports::single_rw(),
            paddr_bits: 40,
            state_bits: 2,
            access_mode: AccessMode::Parallel,
            max_cycle_time: None,
            data_cell: ArrayKind::Ram,
        }
    }

    /// Switches the data array to eDRAM cells.
    #[must_use]
    pub fn with_edram_data(mut self) -> CacheSpec {
        self.data_cell = ArrayKind::Edram;
        self
    }

    /// Sets the per-bank port configuration.
    #[must_use]
    pub fn with_ports(mut self, ports: Ports) -> CacheSpec {
        self.ports = ports;
        self
    }

    /// Sets the access policy.
    #[must_use]
    pub fn with_access_mode(mut self, mode: AccessMode) -> CacheSpec {
        self.access_mode = mode;
        self
    }

    /// Imposes a cycle-time constraint, s.
    #[must_use]
    pub fn with_max_cycle_time(mut self, t: f64) -> CacheSpec {
        self.max_cycle_time = Some(t);
        self
    }

    /// Reports every geometry problem of this spec into `diags`, with
    /// field paths rooted under `path`.
    pub fn validate_into(&self, path: &str, diags: &mut mcpat_diag::Diagnostics) {
        let at = |field: &str| mcpat_diag::join_path(path, field);
        if self.name.is_empty() {
            diags.warning(at("name"), "unnamed cache; reports will be ambiguous");
        }
        if self.capacity == 0 {
            diags.error(at("capacity"), "cache capacity must be positive");
        }
        if self.block_bytes == 0 {
            diags.error(at("block_bytes"), "block size must be positive");
        } else if !self.block_bytes.is_power_of_two() {
            diags.warning(
                at("block_bytes"),
                format!("block size {} is not a power of two", self.block_bytes),
            );
        }
        if self.associativity == 0 {
            diags.error(at("associativity"), "associativity must be >= 1");
        }
        if self.banks == 0 {
            diags.error(at("banks"), "need at least one bank");
        }
        if self.block_bytes > 0
            && self.associativity > 0
            && self.capacity > 0
            && !self
                .capacity
                .is_multiple_of(u64::from(self.block_bytes) * u64::from(self.associativity))
        {
            diags.error(
                at("capacity"),
                format!(
                    "capacity {} is not a whole number of sets ({} ways x {}-byte blocks)",
                    self.capacity, self.associativity, self.block_bytes
                ),
            );
        }
        if self.ports.total_ram() == 0 {
            diags.error(at("ports"), "cache needs at least one RAM port");
        }
        if self.paddr_bits == 0 || self.paddr_bits > 64 {
            diags.error(
                at("paddr_bits"),
                format!(
                    "physical address width {} must be in 1..=64",
                    self.paddr_bits
                ),
            );
        }
        if self.state_bits > 64 {
            diags.error(
                at("state_bits"),
                format!(
                    "{} state bits per line is outside the modeled range (<= 64)",
                    self.state_bits
                ),
            );
        }
        if self.access_mode == AccessMode::Parallel && self.data_cell == ArrayKind::Edram {
            diags.warning(
                at("access_mode"),
                "parallel tag/data probe reads every way of the slow eDRAM data \
                 array; sequential access is the intended pairing",
            );
        }
        if let Some(t) = self.max_cycle_time {
            diags.require_positive(at("max_cycle_time"), "cycle-time constraint", t);
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        // Division-safe even for degenerate field values (which
        // `validate_into` reports): clamp the divisor away from zero.
        let way_bytes = u64::from(self.block_bytes.max(1)) * u64::from(self.associativity.max(1));
        self.capacity / way_bytes
    }

    /// Tag width in bits (address bits minus set and block offsets, plus
    /// state bits). Saturating end to end: corrupted geometry fields
    /// (which `validate_into` reports) must degrade the estimate, not
    /// overflow the arithmetic.
    #[must_use]
    pub fn tag_bits(&self) -> u32 {
        let offset_bits = (f64::from(self.block_bytes)).log2().ceil() as u32;
        let index_bits = (self.sets().max(1) as f64).log2().ceil() as u32;
        self.paddr_bits
            .saturating_sub(offset_bits.saturating_add(index_bits))
            .saturating_add(self.state_bits)
    }

    /// Solves the tag and data arrays and assembles the cache.
    ///
    /// # Errors
    ///
    /// Propagates [`ArrayError`] from either array.
    pub fn solve(&self, tech: &TechParams, target: OptTarget) -> Result<CacheArray, ArrayError> {
        let sets = self.sets().max(1);
        let sets_per_bank = (sets / u64::from(self.banks)).max(1);
        let block_bits = self.block_bytes * 8;

        // Data array: one entry per set holding all ways; parallel reads
        // pull every way, sequential reads one.
        let data_entry_bits = block_bits * self.associativity;
        let data_access_bits = match self.access_mode {
            AccessMode::Parallel => data_entry_bits,
            AccessMode::Sequential => block_bits,
        };
        let mut data_spec = ArraySpec::table(sets_per_bank, data_entry_bits)
            .with_access_bits(data_access_bits)
            .with_ports(self.ports)
            .with_kind(self.data_cell)
            .named(format!("{}-data", self.name));
        if let Some(t) = self.max_cycle_time {
            data_spec = data_spec.with_max_cycle_time(t);
        }

        // Tag array: all ways' tags per set, always read together.
        let tag_entry_bits = self.tag_bits() * self.associativity;
        let mut tag_spec = ArraySpec::table(sets_per_bank, tag_entry_bits)
            .with_ports(self.ports)
            .named(format!("{}-tag", self.name));
        if let Some(t) = self.max_cycle_time {
            tag_spec = tag_spec.with_max_cycle_time(t);
        }

        // The two solves are independent; overlap them when threads are
        // available (data is the big one, tag rides along).
        let (data, tag) = mcpat_par::join2(
            || data_spec.solve(tech, target),
            || tag_spec.solve(tech, target),
        )
        .map_err(|e| ArrayError::Worker {
            name: self.name.clone(),
            detail: e.to_string(),
        })?;
        let (data, tag) = (data?, tag?);

        let cmp = TagComparator::new(tech, self.tag_bits());
        let cmp_m = cmp.metrics();
        let ways = f64::from(self.associativity);

        let (hit_latency, read_hit_energy) = match self.access_mode {
            AccessMode::Parallel => (
                tag.access_time.max(data.access_time) + cmp_m.delay,
                data.read_energy + tag.read_energy + ways * cmp_m.energy_per_op,
            ),
            AccessMode::Sequential => (
                tag.access_time + cmp_m.delay + data.access_time,
                data.read_energy + tag.read_energy + ways * cmp_m.energy_per_op,
            ),
        };
        let write_hit_energy = tag.read_energy + ways * cmp_m.energy_per_op + data.write_energy;
        let miss_energy = tag.read_energy + ways * cmp_m.energy_per_op;
        let fill_energy = tag.write_energy + data.write_energy;

        let banks = f64::from(self.banks);
        let mut leakage = (data.leakage + tag.leakage + cmp_m.leakage.scaled(ways)).scaled(banks);
        // eDRAM cells must be refreshed: every bit rewritten once per
        // retention period. Charged as equivalent static power.
        let refresh_power = if self.data_cell == ArrayKind::Edram {
            let cell = tech.edram_cell();
            let retention = cell.retention_at(tech.temperature).max(1e-6);
            let bits = self.capacity as f64 * 8.0;
            let e_bit = 0.5 * cell.c_storage * tech.device.vdd * tech.device.vdd;
            bits * e_bit / retention
        } else {
            0.0
        };
        leakage.subthreshold += refresh_power;
        let area = (data.area + tag.area + cmp_m.area * ways) * banks;

        let cycle_time = data.cycle_time.max(tag.cycle_time);
        Ok(CacheArray {
            spec: self.clone(),
            data,
            tag,
            hit_latency,
            cycle_time,
            read_hit_energy,
            write_hit_energy,
            miss_energy,
            fill_energy,
            leakage,
            area,
        })
    }
}

/// A solved cache: tag + data arrays and derived per-event energies.
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// The input spec.
    pub spec: CacheSpec,
    /// Solved per-bank data array.
    pub data: SolvedArray,
    /// Solved per-bank tag array.
    pub tag: SolvedArray,
    /// Load-to-use latency of a hit, s.
    pub hit_latency: f64,
    /// Bank cycle time, s.
    pub cycle_time: f64,
    /// Dynamic energy of a read hit, J.
    pub read_hit_energy: f64,
    /// Dynamic energy of a write hit, J.
    pub write_hit_energy: f64,
    /// Dynamic energy of a miss probe (tag check only), J.
    pub miss_energy: f64,
    /// Dynamic energy of a line fill, J.
    pub fill_energy: f64,
    /// Static power of all banks, W.
    pub leakage: StaticPower,
    /// Total area of all banks, m².
    pub area: f64,
}

impl CacheArray {
    /// Warning diagnostics for any of this cache's arrays the solver had
    /// to relax (see [`crate::solve::Relaxation`]).
    #[must_use]
    pub fn relaxation_warnings(&self) -> Vec<mcpat_diag::Diagnostic> {
        [&self.data, &self.tag]
            .into_iter()
            .filter_map(|a| a.relaxation_warning())
            .collect()
    }

    /// Runtime dynamic power given per-second event rates, W.
    #[must_use]
    pub fn dynamic_power(
        &self,
        read_hits_per_s: f64,
        write_hits_per_s: f64,
        misses_per_s: f64,
        fills_per_s: f64,
    ) -> f64 {
        read_hits_per_s * self.read_hit_energy
            + write_hits_per_s * self.write_hit_energy
            + misses_per_s * self.miss_energy
            + fills_per_s * self.fill_energy
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_tech::{DeviceType, TechNode};

    fn tech() -> TechParams {
        TechParams::new(TechNode::N65, DeviceType::Hp, 360.0)
    }

    #[test]
    fn l1_parallel_cache_solves() {
        let t = tech();
        let c = CacheSpec::new("l1d", 32 * 1024, 64, 4)
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        assert!(c.hit_latency < 3e-9);
        assert!(c.read_hit_energy > c.miss_energy, "miss probes skip data");
    }

    #[test]
    fn sequential_mode_saves_energy_costs_latency() {
        let t = tech();
        let par = CacheSpec::new("l2", 1024 * 1024, 64, 8)
            .with_access_mode(AccessMode::Parallel)
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        let seq = CacheSpec::new("l2", 1024 * 1024, 64, 8)
            .with_access_mode(AccessMode::Sequential)
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        assert!(seq.read_hit_energy < par.read_hit_energy);
        assert!(seq.hit_latency > par.hit_latency);
    }

    #[test]
    fn banking_multiplies_area_and_leakage() {
        let t = tech();
        let one = CacheSpec::new("l2", 2 * 1024 * 1024, 64, 8)
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        let four = CacheSpec {
            banks: 4,
            ..CacheSpec::new("l2", 2 * 1024 * 1024, 64, 8)
        }
        .solve(&t, OptTarget::EnergyDelay)
        .unwrap();
        // Four quarter-size banks: per-access energy drops, total area
        // stays within ~2×, leakage comparable.
        assert!(four.read_hit_energy < one.read_hit_energy);
        assert!(four.area < 2.0 * one.area);
    }

    #[test]
    fn tag_bits_accounting() {
        let c = CacheSpec::new("l1", 32 * 1024, 64, 4);
        // 40 - 6 (offset) - 7 (128 sets) + 2 state = 29
        assert_eq!(c.sets(), 128);
        assert_eq!(c.tag_bits(), 29);
    }

    #[test]
    fn higher_associativity_burns_more_in_parallel_mode() {
        let t = tech();
        let a2 = CacheSpec::new("x", 64 * 1024, 64, 2)
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        let a16 = CacheSpec::new("x", 64 * 1024, 64, 16)
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        assert!(a16.read_hit_energy > a2.read_hit_energy);
    }

    #[test]
    fn edram_l3_is_denser_but_pays_refresh() {
        let t = tech();
        let sram = CacheSpec::new("l3", 8 * 1024 * 1024, 64, 16)
            .with_access_mode(AccessMode::Sequential)
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        let edram = CacheSpec::new("l3", 8 * 1024 * 1024, 64, 16)
            .with_access_mode(AccessMode::Sequential)
            .with_edram_data()
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        assert!(edram.area < sram.area, "eDRAM must be denser");
        // Refresh power exists but is far below SRAM cell leakage.
        assert!(edram.leakage.total() < sram.leakage.total());
        assert!(edram.leakage.total() > 0.0);
    }

    #[test]
    fn dynamic_power_is_linear_in_rates() {
        let t = tech();
        let c = CacheSpec::new("l1", 16 * 1024, 32, 2)
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        let p1 = c.dynamic_power(1e9, 0.0, 0.0, 0.0);
        let p2 = c.dynamic_power(2e9, 0.0, 0.0, 0.0);
        assert!((p2 / p1 - 2.0).abs() < 1e-9);
    }
}
