//! A simple slicing floorplanner for the internal chip representation.
//!
//! McPAT keeps an internal chip representation with enough physical
//! structure to estimate global wire lengths; this module makes that
//! structure explicit: clusters (cores + their shared L2) are placed in
//! a near-square grid, the L3 (if any) as a strip below them, and the
//! memory controllers / I/O on the bottom edge — the classic
//! server-chip layout. The result backs the ASCII rendering in
//! reports (`mcpat --floorplan`).

use crate::processor::Processor;

/// One placed rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    /// Component name (`core0`, `l2-3`, `l3`, `mc`, `io`, ...).
    pub name: String,
    /// Left edge, m.
    pub x: f64,
    /// Bottom edge, m.
    pub y: f64,
    /// Width, m.
    pub w: f64,
    /// Height, m.
    pub h: f64,
}

impl Tile {
    /// Area, m².
    #[cfg(test)]
    #[must_use]
    pub fn area(&self) -> f64 {
        self.w * self.h
    }

    /// True if the interiors of two tiles overlap.
    #[cfg(test)]
    #[must_use]
    pub fn overlaps(&self, other: &Tile) -> bool {
        let eps = 1e-12;
        self.x + eps < other.x + other.w
            && other.x + eps < self.x + self.w
            && self.y + eps < other.y + other.h
            && other.y + eps < self.y + self.h
    }
}

/// A placed chip.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// All placed tiles.
    pub tiles: Vec<Tile>,
    /// Active-area width, m.
    pub width: f64,
    /// Active-area height, m.
    pub height: f64,
}

impl Floorplan {
    /// Finds a tile by name.
    #[cfg(test)]
    #[must_use]
    pub fn tile(&self, name: &str) -> Option<&Tile> {
        self.tiles.iter().find(|t| t.name == name)
    }

    /// Renders the plan as a coarse ASCII grid (`cols × rows`
    /// characters); each cell shows the initial of the tile covering its
    /// center.
    #[must_use]
    pub fn render(&self, cols: usize, rows: usize) -> String {
        let mut out = String::with_capacity((cols + 1) * rows);
        for r in (0..rows).rev() {
            for c in 0..cols {
                let x = (c as f64 + 0.5) / cols as f64 * self.width;
                let y = (r as f64 + 0.5) / rows as f64 * self.height;
                let ch = self
                    .tiles
                    .iter()
                    .find(|t| x >= t.x && x < t.x + t.w && y >= t.y && y < t.y + t.h)
                    .and_then(|t| t.name.chars().next())
                    .unwrap_or('.');
                out.push(ch.to_ascii_uppercase());
            }
            out.push('\n');
        }
        out
    }
}

impl Processor {
    /// Places the chip's components with the slicing heuristic described
    /// in the module docs.
    #[must_use]
    pub fn floorplan(&self) -> Floorplan {
        let c = &self.config;
        let core_area = self.core.area();
        let l2_area = self.l2.as_ref().map_or(0.0, |l| l.area());
        let l3_area = self.l3.as_ref().map_or(0.0, |l| l.area());
        let mc_area = self.mc.as_ref().map_or(0.0, |m| m.area());
        let io_area = self.io.area;

        let cores_per_cluster = c.cores_per_cluster().max(1);
        let num_clusters = c.num_l2s.max(1);
        let cluster_area = core_area * f64::from(cores_per_cluster) + l2_area;

        // Near-square cluster grid.
        let gx = (f64::from(num_clusters)).sqrt().ceil() as u32;
        let gy = num_clusters.div_ceil(gx);
        let cluster_width = cluster_area.sqrt();
        let cluster_h = cluster_area / cluster_width;
        let grid_width = f64::from(gx) * cluster_width;

        let mut tiles = Vec::new();
        let mut core_id = 0u32;
        for k in 0..num_clusters {
            let cx = f64::from(k % gx) * cluster_width;
            let cy = f64::from(k / gx) * cluster_h;
            // Cores in a column on the left, the L2 filling the right.
            let core_frac = (core_area * f64::from(cores_per_cluster) / cluster_area).min(1.0);
            let core_col_width = cluster_width * core_frac;
            let core_h = cluster_h / f64::from(cores_per_cluster);
            for i in 0..cores_per_cluster {
                tiles.push(Tile {
                    name: format!("core{core_id}"),
                    x: cx,
                    y: cy + f64::from(i) * core_h,
                    w: core_col_width,
                    h: core_h,
                });
                core_id += 1;
            }
            if l2_area > 0.0 {
                tiles.push(Tile {
                    name: format!("l2-{k}"),
                    x: cx + core_col_width,
                    y: cy,
                    w: cluster_width - core_col_width,
                    h: cluster_h,
                });
            }
        }

        let mut y_cursor = f64::from(gy) * cluster_h;
        let strip = |name: &str, area: f64, y: &mut f64| {
            if area <= 0.0 {
                return None;
            }
            let h = area / grid_width;
            let t = Tile {
                name: name.to_owned(),
                x: 0.0,
                y: *y,
                w: grid_width,
                h,
            };
            *y += h;
            Some(t)
        };
        if let Some(t) = strip("l3", l3_area, &mut y_cursor) {
            tiles.push(t);
        }
        if let Some(t) = strip("mc", mc_area, &mut y_cursor) {
            tiles.push(t);
        }
        if let Some(t) = strip("io", io_area + self.noc.area(), &mut y_cursor) {
            tiles.push(t);
        }

        Floorplan {
            tiles,
            width: grid_width,
            height: y_cursor,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::ProcessorConfig;

    fn plan_for(cfg: &ProcessorConfig) -> (Processor, Floorplan) {
        let chip = Processor::build(cfg).unwrap();
        let plan = chip.floorplan();
        (chip, plan)
    }

    #[test]
    fn tiles_do_not_overlap() {
        let (_, plan) = plan_for(&ProcessorConfig::niagara());
        for (i, a) in plan.tiles.iter().enumerate() {
            for b in &plan.tiles[i + 1..] {
                assert!(!a.overlaps(b), "{} overlaps {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn every_tile_fits_in_the_plan() {
        let (_, plan) = plan_for(&ProcessorConfig::tulsa());
        for t in &plan.tiles {
            assert!(t.x >= -1e-12 && t.y >= -1e-12, "{}", t.name);
            assert!(t.x + t.w <= plan.width + 1e-9, "{}", t.name);
            assert!(t.y + t.h <= plan.height + 1e-9, "{}", t.name);
        }
    }

    #[test]
    fn plan_area_matches_component_sum() {
        let (chip, plan) = plan_for(&ProcessorConfig::niagara2());
        let tile_area: f64 = plan.tiles.iter().map(Tile::area).sum();
        let c = &chip.config;
        let expected = chip.core.area() * f64::from(c.num_cores)
            + chip.l2.as_ref().map_or(0.0, |l| l.area()) * f64::from(c.num_l2s)
            + chip.l3.as_ref().map_or(0.0, |l| l.area())
            + chip.mc.as_ref().map_or(0.0, |m| m.area())
            + chip.io.area
            + chip.noc.area();
        assert!(
            (tile_area - expected).abs() < expected * 0.01,
            "tiles {tile_area:e} vs components {expected:e}"
        );
    }

    #[test]
    fn all_cores_and_l2s_are_placed() {
        let cfg = ProcessorConfig::niagara();
        let (_, plan) = plan_for(&cfg);
        for i in 0..cfg.num_cores {
            assert!(plan.tile(&format!("core{i}")).is_some(), "core{i} missing");
        }
        for k in 0..cfg.num_l2s {
            assert!(plan.tile(&format!("l2-{k}")).is_some(), "l2-{k} missing");
        }
    }

    #[test]
    fn ascii_render_shows_every_region() {
        let (_, plan) = plan_for(&ProcessorConfig::tulsa());
        let pic = plan.render(48, 20);
        assert!(pic.contains('C'), "cores missing:\n{pic}");
        assert!(pic.contains('L'), "caches missing:\n{pic}");
        assert!(pic.contains('I'), "io missing:\n{pic}");
        assert_eq!(pic.lines().count(), 20);
    }
}
