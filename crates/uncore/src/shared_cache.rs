//! Shared (L2/L3) caches with their controllers.

use mcpat_array::cache::{AccessMode, CacheArray, CacheSpec};
use mcpat_array::{ArrayError, ArraySpec, OptTarget, Ports, SolvedArray};
use mcpat_circuit::metrics::StaticPower;
use mcpat_tech::TechParams;

/// Configuration of a shared cache.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SharedCacheConfig {
    /// Underlying cache geometry.
    pub cache: CacheSpec,
    /// Miss-status holding registers (outstanding misses).
    pub mshr_entries: u32,
    /// Writeback buffer entries.
    pub wb_buffer_entries: u32,
    /// Fill buffer entries.
    pub fill_buffer_entries: u32,
    /// Cores whose sharing state the directory tracks
    /// (0 disables the directory).
    pub directory_sharers: u32,
}

impl SharedCacheConfig {
    /// A sensible L2 configuration of the given capacity shared by
    /// `sharers` cores.
    #[must_use]
    pub fn l2(name: &str, capacity: u64, sharers: u32) -> SharedCacheConfig {
        SharedCacheConfig {
            cache: CacheSpec::new(name, capacity, 64, 8).with_access_mode(AccessMode::Sequential),
            mshr_entries: 16,
            wb_buffer_entries: 8,
            fill_buffer_entries: 8,
            directory_sharers: sharers,
        }
    }

    /// Reports every configuration problem into `diags`, with field
    /// paths rooted under `path`.
    pub fn validate_into(&self, path: &str, diags: &mut mcpat_diag::Diagnostics) {
        self.cache.validate_into(path, diags);
        let at = |field: &str| mcpat_diag::join_path(path, field);
        if self.mshr_entries == 0 {
            diags.warning(
                at("mshr_entries"),
                "no MSHRs configured; modeling a single blocking miss register",
            );
        }
        if self.wb_buffer_entries == 0 {
            diags.warning(
                at("wb_buffer_entries"),
                "no writeback buffer configured; modeling a single-entry buffer",
            );
        }
        if self.fill_buffer_entries == 0 {
            diags.warning(
                at("fill_buffer_entries"),
                "no fill buffer configured; modeling a single-entry buffer",
            );
        }
        if self.directory_sharers > 1024 {
            diags.error(
                at("directory_sharers"),
                format!(
                    "directory tracking {} sharers is outside the modeled range (<= 1024)",
                    self.directory_sharers
                ),
            );
        }
    }

    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Propagates [`ArrayError`].
    pub fn build(&self, tech: &TechParams) -> Result<SharedCache, ArrayError> {
        let addr_bits = self.cache.paddr_bits;
        let line_bits = self.cache.block_bytes * 8;
        let q_ports = Ports {
            rw: 0,
            read: 1,
            write: 1,
            search: 1,
        };

        // The big tag+data solve dominates; the controller's small
        // arrays (MSHR, buffers, directory) run alongside it.
        let (cache, small) = mcpat_par::join2(
            || self.cache.solve(tech, OptTarget::EnergyDelay),
            || -> Result<_, ArrayError> {
                let mshr = ArraySpec::cam(
                    u64::from(self.mshr_entries.max(1)),
                    addr_bits + 16,
                    addr_bits.saturating_sub(6),
                )
                .with_ports(q_ports)
                .named(format!("{}-mshr", self.cache.name))
                .solve(tech, OptTarget::EnergyDelay)?;

                let wb_buffer =
                    ArraySpec::table(u64::from(self.wb_buffer_entries.max(1)), line_bits)
                        .named(format!("{}-wb", self.cache.name))
                        .solve(tech, OptTarget::EnergyDelay)?;
                let fill_buffer =
                    ArraySpec::table(u64::from(self.fill_buffer_entries.max(1)), line_bits)
                        .named(format!("{}-fill", self.cache.name))
                        .solve(tech, OptTarget::EnergyDelay)?;

                let directory = if self.directory_sharers > 0 {
                    // One sharer bit-vector entry per cache line.
                    let lines = self.cache.capacity / u64::from(self.cache.block_bytes);
                    Some(
                        ArraySpec::table(lines.max(2), self.directory_sharers + 2)
                            .named(format!("{}-dir", self.cache.name))
                            .solve(tech, OptTarget::Energy)?,
                    )
                } else {
                    None
                };
                Ok((mshr, wb_buffer, fill_buffer, directory))
            },
        )
        .map_err(|e| ArrayError::Worker {
            name: self.cache.name.clone(),
            detail: e.to_string(),
        })?;
        let cache = cache?;
        let (mshr, wb_buffer, fill_buffer, directory) = small?;

        Ok(SharedCache {
            config: self.clone(),
            cache,
            mshr,
            wb_buffer,
            fill_buffer,
            directory,
        })
    }
}

/// Runtime event counts for one interval.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct SharedCacheStats {
    /// Interval length, s.
    pub interval_s: f64,
    /// Read accesses reaching this cache.
    pub reads: u64,
    /// Write/update accesses.
    pub writes: u64,
    /// Misses (allocate an MSHR, later fill).
    pub misses: u64,
    /// Writebacks of dirty lines.
    pub writebacks: u64,
    /// Coherence probes (directory lookups on behalf of other caches).
    #[serde(default)]
    pub snoops: u64,
}

/// A built shared cache.
#[derive(Debug, Clone)]
pub struct SharedCache {
    /// Configuration echoed.
    pub config: SharedCacheConfig,
    /// The tag+data arrays.
    pub cache: CacheArray,
    /// MSHR CAM.
    pub mshr: SolvedArray,
    /// Writeback buffer.
    pub wb_buffer: SolvedArray,
    /// Fill buffer.
    pub fill_buffer: SolvedArray,
    /// Sharer directory, if configured.
    pub directory: Option<SolvedArray>,
}

impl SharedCache {
    /// Warning diagnostics from every internal array the solver could
    /// only place by relaxing its constraints.
    #[must_use]
    pub fn relaxation_warnings(&self) -> mcpat_diag::Diagnostics {
        [
            &self.cache.data,
            &self.cache.tag,
            &self.mshr,
            &self.wb_buffer,
            &self.fill_buffer,
        ]
        .into_iter()
        .chain(&self.directory)
        .filter_map(SolvedArray::relaxation_warning)
        .collect()
    }

    /// Total area, m².
    #[must_use]
    pub fn area(&self) -> f64 {
        self.cache.area
            + self.mshr.area
            + self.wb_buffer.area
            + self.fill_buffer.area
            + self.directory.as_ref().map_or(0.0, |d| d.area)
    }

    /// Total leakage, W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        let mut l = self.cache.leakage
            + self.mshr.leakage
            + self.wb_buffer.leakage
            + self.fill_buffer.leakage;
        if let Some(d) = &self.directory {
            l += d.leakage;
        }
        l
    }

    /// Runtime dynamic power, W.
    #[must_use]
    #[inline]
    pub fn dynamic_power(&self, stats: &SharedCacheStats) -> f64 {
        if stats.interval_s <= 0.0 {
            return 0.0;
        }
        let dir_e = self.directory.as_ref().map_or(0.0, |d| d.read_energy);
        let read_e = self.cache.read_hit_energy + dir_e;
        let write_e = self.cache.write_hit_energy + dir_e;
        let miss_e = self.cache.miss_energy
            + self.mshr.search_energy
            + self.mshr.write_energy
            + self.fill_buffer.write_energy
            + self.fill_buffer.read_energy
            + self.cache.fill_energy;
        let wb_e = self.wb_buffer.write_energy + self.wb_buffer.read_energy;
        // Coherence probes hit the directory (or, without one, the tag
        // array) but not the data array.
        let snoop_e = self
            .directory
            .as_ref()
            .map_or(self.cache.miss_energy, |d| d.read_energy);
        let total = stats.reads as f64 * read_e
            + stats.writes as f64 * write_e
            + stats.misses as f64 * miss_e
            + stats.writebacks as f64 * wb_e
            + stats.snoops as f64 * snoop_e;
        total / stats.interval_s
    }

    /// Peak dynamic power at one access per `cycle_s`, W.
    #[must_use]
    pub fn peak_dynamic_power(&self, cycle_s: f64) -> f64 {
        self.cache.read_hit_energy / cycle_s.max(1e-12)
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
    fn l2_builds_with_controller() {
        let sc = SharedCacheConfig::l2("l2", 2 * 1024 * 1024, 8)
            .build(&tech())
            .unwrap();
        assert!(sc.directory.is_some());
        assert!(sc.area() > sc.cache.area);
        assert!(sc.leakage().total() > 0.0);
    }

    #[test]
    fn cache_array_dominates_area() {
        let sc = SharedCacheConfig::l2("l2", 4 * 1024 * 1024, 4)
            .build(&tech())
            .unwrap();
        assert!(sc.cache.area > 0.8 * sc.area());
    }

    #[test]
    fn dynamic_power_counts_miss_path() {
        let sc = SharedCacheConfig::l2("l2", 1024 * 1024, 2)
            .build(&tech())
            .unwrap();
        let hit_only = SharedCacheStats {
            interval_s: 1e-3,
            reads: 1_000_000,
            ..Default::default()
        };
        let with_misses = SharedCacheStats {
            misses: 500_000,
            ..hit_only
        };
        assert!(sc.dynamic_power(&with_misses) > sc.dynamic_power(&hit_only));
    }

    #[test]
    fn snoops_cost_directory_energy() {
        let sc = SharedCacheConfig::l2("l2", 1024 * 1024, 8)
            .build(&tech())
            .unwrap();
        let quiet = SharedCacheStats {
            interval_s: 1e-3,
            reads: 100_000,
            ..Default::default()
        };
        let snooped = SharedCacheStats {
            snoops: 500_000,
            ..quiet
        };
        assert!(sc.dynamic_power(&snooped) > sc.dynamic_power(&quiet));
    }

    #[test]
    fn no_directory_when_unshared() {
        let mut cfg = SharedCacheConfig::l2("l2", 512 * 1024, 0);
        cfg.directory_sharers = 0;
        let sc = cfg.build(&tech()).unwrap();
        assert!(sc.directory.is_none());
    }

    #[test]
    fn megabyte_l2_leakage_is_plausible_at_65nm() {
        // Published 65 nm chips leak a few watts in multi-MB L2s.
        let sc = SharedCacheConfig::l2("l2", 4 * 1024 * 1024, 8)
            .build(&tech())
            .unwrap();
        let w = sc.leakage().total();
        assert!(w > 0.2 && w < 20.0, "leak = {w}");
    }
}
