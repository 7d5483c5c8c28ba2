//! L012 fixture: DSE-style generator/pruning loops whose per-candidate
//! work (`config_at` enumeration + `rebuild_with` delta probe, or an
//! in-place `retarget`) resolves in the call graph and provably never
//! reaches an `mcpat_obs::guard` checkpoint. Million-candidate sweeps
//! iterate exactly these shapes, so a missing budget checkpoint here
//! means deadlines and cooperative cancellation cannot interrupt the
//! sweep.

pub struct Grid {
    pub clocks: Vec<f64>,
}

pub struct Chip {
    pub power: f64,
}

/// Resolvable but checkpoint-free enumeration.
pub fn config_at(grid: &Grid, cursor: usize) -> Option<f64> {
    grid.clocks.get(cursor).copied()
}

/// Resolvable but checkpoint-free delta probe.
pub fn rebuild_with(base: &Chip, clock: f64) -> Chip {
    Chip {
        power: base.power * clock / 1.0e9,
    }
}

/// Resolvable but checkpoint-free in-place move.
pub fn retarget(chip: &mut Chip, clock: f64) {
    chip.power = clock / 1.0e9;
}

pub fn sweep(grid: &Grid, base: &Chip) -> f64 {
    let mut best = f64::INFINITY;
    let mut cursor = 0;
    // BAD (L012): the generator loop's `config_at` and `rebuild_with`
    // both resolve to the checkpoint-free fns above — a deadline cannot
    // interrupt this candidate stream.
    while let Some(clock) = config_at(grid, cursor) {
        let probe = rebuild_with(base, clock);
        if probe.power < best {
            best = probe.power;
        }
        cursor += 1;
    }
    best
}

// BAD (L012): this probe loop moves one chip in place through the
// checkpoint-free `retarget` above.
pub fn sweep_in_place(clocks: &[f64], chip: &mut Chip) {
    for &clock in clocks {
        retarget(chip, clock);
    }
}
