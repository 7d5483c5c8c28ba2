//! Human-readable report printing — the analog of McPAT's console
//! output tree.

use crate::processor::Processor;
use std::fmt::Write as _;

impl Processor {
    /// Renders the classic McPAT-style text report: technology summary,
    /// floorplan, peak power breakdown, and timing.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        let cfg = &self.config;
        let power = self.peak_power();
        let timing = self.timing();

        let _ = writeln!(out, "McPAT-rs report: {}", cfg.name);
        let _ = writeln!(
            out,
            "  Technology: {} {} @ {:.0} K, {} wires{}",
            cfg.node,
            cfg.device_type,
            cfg.temperature_k,
            cfg.projection,
            if cfg.long_channel_leakage {
                ", long-channel leakage reduction"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "  Clock: {:.2} GHz (core arrays support up to {:.2} GHz; FO4 = {:.1} ps)",
            cfg.clock_hz / 1e9,
            timing.core_max_clock_hz / 1e9,
            timing.fo4 * 1e12
        );
        let _ = writeln!(
            out,
            "  Organization: {} cores x {} ({}), {} L2 instance(s)",
            cfg.num_cores,
            cfg.core.name,
            match cfg.core.machine_type {
                mcpat_mcore::config::MachineType::InOrder => "in-order",
                mcpat_mcore::config::MachineType::OutOfOrder => "out-of-order",
            },
            cfg.num_l2s
        );

        let _ = writeln!(out, "  Die area: {:.1} mm^2", self.die_area_mm2());
        for item in self.area_breakdown() {
            let _ = writeln!(out, "    {:<12} {:>8.2} mm^2", item.name, item.area * 1e6);
        }

        let _ = writeln!(out, "  Peak power: {:.1} W", power.total());
        let _ = writeln!(
            out,
            "    dynamic {:.1} W | subthreshold {:.1} W | gate {:.1} W",
            power.dynamic(),
            power.leakage().subthreshold,
            power.leakage().gate
        );
        for item in &power.items {
            let _ = writeln!(
                out,
                "    {:<12} {:>7.2} W  (dyn {:>6.2}, leak {:>6.2})",
                item.name,
                item.total(),
                item.dynamic,
                item.leakage.total()
            );
        }

        let _ = writeln!(out, "  Core unit breakdown (one core):");
        for item in &power.core_detail.items {
            let _ = writeln!(
                out,
                "    {:<16} {:>7.3} W  (dyn {:>6.3}, leak {:>6.3})",
                item.name,
                item.total(),
                item.dynamic,
                item.leakage.total()
            );
        }

        let _ = writeln!(
            out,
            "  Build: {} thread(s), solve cache {} hit(s) / {} miss(es) / {} eviction(s)",
            self.perf.threads,
            self.perf.solve_cache_hits,
            self.perf.solve_cache_misses,
            self.perf.solve_cache_evictions
        );

        if let Some(trace) = &self.trace {
            let _ = writeln!(out, "  Trace ({} span(s)):", trace.spans.len());
            for s in &trace.spans {
                let _ = writeln!(
                    out,
                    "    {:<20} {:>9.3} ms  cache {} hit(s) / {} miss(es), {} relaxation(s)",
                    s.path,
                    s.wall_s * 1e3,
                    s.solve_cache_hits,
                    s.solve_cache_misses,
                    s.relaxations
                );
            }
        }

        if !self.warnings.is_empty() {
            let _ = writeln!(out, "  Warnings ({}):", self.warnings.len());
            for w in &self.warnings {
                let _ = writeln!(out, "    {w}");
            }
        }
        out
    }

    /// Renders the ASCII floorplan sketch (48×20 cells) with a legend.
    #[must_use]
    pub fn floorplan_sketch(&self) -> String {
        let plan = self.floorplan();
        let mut out = plan.render(48, 20);
        out.push_str(&format!(
            "C=core L=L2/L3 M=memctrl I=io+fabric   active {:.1} x {:.1} mm\n",
            plan.width * 1e3,
            plan.height * 1e3
        ));
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use crate::{Processor, ProcessorConfig};

    #[test]
    fn report_mentions_all_sections() {
        let chip = Processor::build(&ProcessorConfig::niagara()).unwrap();
        let r = chip.report();
        for needle in [
            "Technology",
            "Clock",
            "Die area",
            "Peak power",
            "ifu",
            "lsu",
        ] {
            assert!(r.contains(needle), "report missing `{needle}`:\n{r}");
        }
    }

    /// Benchmark harnesses read a build's solve-cache billing back from
    /// the report, so the `Build:` line's tokens are a format contract.
    #[test]
    fn build_line_bills_exactly_the_build_perf() {
        // A temperature no other test uses keeps every array key cold.
        let cfg = ProcessorConfig {
            temperature_k: 351.5,
            ..ProcessorConfig::niagara2()
        };
        mcpat_array::memo::set_enabled(true);
        let chip = Processor::build(&cfg).unwrap();
        mcpat_array::memo::set_auto();
        let p = chip.perf;
        assert!(p.solve_cache_misses > 0, "a cold build must solve");
        let want = format!(
            "Build: {} thread(s), solve cache {} hit(s) / {} miss(es) / {} eviction(s)",
            p.threads, p.solve_cache_hits, p.solve_cache_misses, p.solve_cache_evictions
        );
        let report = chip.report();
        let line = report
            .lines()
            .find(|l| l.trim_start().starts_with("Build:"));
        assert_eq!(line.map(str::trim_start), Some(want.as_str()));
    }
}
