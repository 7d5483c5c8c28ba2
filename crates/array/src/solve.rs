//! The array partition optimizer.
//!
//! This is McPAT's "engine + internal representation + optimizer" applied
//! to a single storage array: enumerate `Ndwl × Ndbl × Nspd`
//! partitionings, evaluate each candidate's power/area/timing with the
//! [`crate::mat::Mat`] and [`crate::htree::HTree`] models,
//! reject the ones that violate the cycle-time constraint, and return the
//! best under the requested objective.

use crate::htree::HTree;
use crate::mat::{Mat, MatColPart, MatInvariants, MatRowPart};
use crate::spec::{ArrayKind, ArraySpec, OptTarget};
use mcpat_circuit::metrics::StaticPower;
use mcpat_circuit::mux::{Multiplexer, MuxFamily};
use mcpat_circuit::repeater::RepeaterInvariants;
use mcpat_tech::{TechParams, WireType};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// Area overhead multiplying the raw mat+H-tree area: ECC bits,
/// row/column redundancy, BIST, and intra-array routing that the
/// idealized mat model does not capture.
const ARRAY_AREA_OVERHEAD: f64 = 1.55;

/// Errors from the array solver.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayError {
    /// The spec has zero entries or zero bits per entry.
    DegenerateSpec {
        /// Array name from the spec.
        name: String,
    },
    /// No enumerated partitioning met the constraints.
    NoFeasiblePartition {
        /// Array name from the spec.
        name: String,
        /// The cycle time demanded, if one was set, s.
        required_cycle: Option<f64>,
        /// The best cycle time any candidate achieved, s.
        best_cycle: f64,
    },
    /// A parallel sweep worker failed (a panic inside candidate
    /// evaluation, contained and surfaced as a typed error instead of
    /// unwinding across threads).
    Worker {
        /// Array name from the spec.
        name: String,
        /// Panic payload text from the failed worker.
        detail: String,
    },
    /// A resource budget tripped at one of the solver's cooperative
    /// checkpoints (deadline or cancellation — see `mcpat-guard`).
    /// Never cached: a timed-out solve is a fact about this call, not
    /// about the array. The `mcpat` crate converts it to its own budget
    /// error at the array's path, so it never surfaces as a solver
    /// failure.
    Budget {
        /// Array name from the spec.
        name: String,
        /// The budget violation, with partial-progress metadata.
        reason: mcpat_guard::GuardError,
    },
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayError::DegenerateSpec { name } => {
                write!(f, "array `{name}` has zero entries or zero width")
            }
            ArrayError::NoFeasiblePartition {
                name,
                required_cycle,
                best_cycle,
            } => match required_cycle {
                Some(req) => write!(
                    f,
                    "array `{name}`: no partitioning meets the {:.0} ps cycle constraint (best achieved {:.0} ps)",
                    req * 1e12,
                    best_cycle * 1e12
                ),
                None => write!(f, "array `{name}`: no valid partitioning found"),
            },
            ArrayError::Worker { name, detail } => {
                write!(f, "array `{name}`: solver worker failed: {detail}")
            }
            ArrayError::Budget { name, reason } => {
                write!(f, "array `{name}`: solve aborted: {reason}")
            }
        }
    }
}

impl std::error::Error for ArrayError {}

/// How far the solver had to degrade from the requested constraints to
/// find a partitioning (the *relaxation ladder*, tried in this order).
///
/// A solved array carrying a relaxation is still valid — every reported
/// number describes the organization actually chosen — but the original
/// request could not be honored exactly, which callers surface as a
/// warning diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Relaxation {
    /// Rung 1: the standard `Ndwl x Ndbl x Nspd` enumeration bounds
    /// found no candidate; widened bounds (more mats, taller/wider mats)
    /// did.
    WidenedBounds,
    /// Rung 2: the cycle-time constraint was relaxed by `factor`
    /// (1.1, 1.25, 1.5, then 2.0); `achieved` is the cycle time of the
    /// solution, s.
    CycleRelaxed {
        /// Multiplier applied to the requested cycle time.
        factor: f64,
        /// Cycle time actually achieved, s.
        achieved: f64,
    },
    /// Rung 3: the cycle-time constraint had to be dropped entirely;
    /// `achieved` is the unconstrained cycle time, s.
    CycleDropped {
        /// Cycle time actually achieved, s.
        achieved: f64,
    },
}

impl fmt::Display for Relaxation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relaxation::WidenedBounds => {
                write!(f, "solved only after widening the partition search bounds")
            }
            Relaxation::CycleRelaxed { factor, achieved } => write!(
                f,
                "cycle-time constraint relaxed {factor}x (achieved {:.0} ps)",
                achieved * 1e12
            ),
            Relaxation::CycleDropped { achieved } => write!(
                f,
                "cycle-time constraint dropped (best achievable {:.0} ps)",
                achieved * 1e12
            ),
        }
    }
}

/// A fully solved array: the chosen organization plus its
/// power/area/timing results.
#[derive(Debug, Clone)]
pub struct SolvedArray {
    /// Name echoed from the spec.
    pub name: String,
    /// Horizontal mat count (wordline divisions).
    pub ndwl: usize,
    /// Vertical mat count (bitline divisions).
    pub ndbl: usize,
    /// Entries packed per physical row.
    pub nspd: usize,
    /// Rows per mat.
    pub rows_per_mat: usize,
    /// Columns per mat.
    pub cols_per_mat: usize,
    /// End-to-end access latency, s.
    pub access_time: f64,
    /// Random-access cycle time (pipelined), s.
    pub cycle_time: f64,
    /// Dynamic energy per read, J.
    pub read_energy: f64,
    /// Dynamic energy per write, J.
    pub write_energy: f64,
    /// Dynamic energy per associative search (CAM only, else 0), J.
    pub search_energy: f64,
    /// Total static power, W.
    pub leakage: StaticPower,
    /// Total area including periphery and routing, m².
    pub area: f64,
    /// Layout height, m.
    pub height: f64,
    /// Layout width, m.
    pub width: f64,
    /// How far the solver degraded from the requested constraints
    /// (`None` = solved exactly as asked).
    pub relaxation: Option<Relaxation>,
}

impl SolvedArray {
    /// The warning diagnostic describing this array's relaxation, if the
    /// solver had to degrade. The path is the array's name.
    #[must_use]
    pub fn relaxation_warning(&self) -> Option<mcpat_diag::Diagnostic> {
        self.relaxation
            .map(|r| mcpat_diag::Diagnostic::warning(self.name.clone(), r.to_string()))
    }
}

fn pow2s_up_to(max: usize) -> impl Iterator<Item = usize> {
    (0..).map(|i| 1usize << i).take_while(move |&v| v <= max)
}

/// Scalar results of one candidate evaluation: everything a
/// [`SolvedArray`] carries except the (heap-allocated) name and the
/// relaxation tag, as plain `Copy` data. The enumeration loop works
/// entirely in these so the innermost sweep allocates nothing; the
/// winning candidate is materialized into a `SolvedArray` exactly once
/// per threshold, after the sweep.
#[derive(Clone, Copy, Default)]
struct RawEval {
    rows_per_mat: usize,
    cols_per_mat: usize,
    access_time: f64,
    cycle_time: f64,
    read_energy: f64,
    write_energy: f64,
    search_energy: f64,
    leakage: StaticPower,
    area: f64,
    height: f64,
    width: f64,
}

/// A scored candidate organization.
#[derive(Clone, Copy)]
struct Scored {
    score: f64,
    nspd: usize,
    ndwl: usize,
    ndbl: usize,
    eval: RawEval,
}

/// The solver's total order: lower score wins, and exact score ties
/// break on lexicographic `(nspd, ndwl, ndbl)`. Being a total order
/// over distinct organizations makes the best-reduce independent of
/// enumeration order and of how candidates are grouped across threads,
/// so serial and parallel sweeps pick bit-identical winners.
fn better(a: &Scored, b: &Scored) -> bool {
    a.score < b.score || (a.score == b.score && (a.nspd, a.ndwl, a.ndbl) < (b.nspd, b.ndwl, b.ndbl))
}

/// Folds a candidate into the per-threshold best slots.
fn reduce_into(best: &mut [Option<Scored>], thresholds: &[Option<f64>], cand: Scored) {
    for (slot, limit) in best.iter_mut().zip(thresholds) {
        let ok_cycle = limit.is_none_or(|req| cand.eval.cycle_time <= req);
        if ok_cycle && slot.is_none_or(|b| better(&cand, &b)) {
            *slot = Some(cand);
        }
    }
}

/// Builds the full `SolvedArray` for a winning candidate — the only
/// place the solver allocates per solve.
fn materialize(spec: &ArraySpec, s: Scored, relaxation: Option<Relaxation>) -> SolvedArray {
    SolvedArray {
        name: spec.name.clone(),
        ndwl: s.ndwl,
        ndbl: s.ndbl,
        nspd: s.nspd,
        rows_per_mat: s.eval.rows_per_mat,
        cols_per_mat: s.eval.cols_per_mat,
        access_time: s.eval.access_time,
        cycle_time: s.eval.cycle_time,
        read_energy: s.eval.read_energy,
        write_energy: s.eval.write_energy,
        search_energy: s.eval.search_energy,
        leakage: s.eval.leakage,
        area: s.eval.area,
        height: s.eval.height,
        width: s.eval.width,
        relaxation,
    }
}

/// One `(nspd, ndbl)` cell of the outer enumeration space — the unit of
/// work distributed across sweep threads. `geom_idx` points at the
/// pass's per-`nspd` column-geometry table, `row_idx` at the pass's
/// shared row part for `rows_per_mat`.
#[derive(Clone, Copy, Default)]
struct OuterCell {
    nspd: usize,
    ndbl: usize,
    rows_per_mat: usize,
    geom_idx: usize,
    row_idx: usize,
}

/// The `Ndwl × Ndbl × Nspd` enumeration limits for one search pass.
struct SearchBounds {
    nspd_options: &'static [usize],
    max_ndwl: usize,
    max_ndbl: usize,
    max_rows_per_mat: usize,
    max_cols_per_mat: usize,
}

/// Standard bounds — the original McPAT/CACTI-style search space.
const NORMAL_RAM: SearchBounds = SearchBounds {
    nspd_options: &[1, 2, 4, 8],
    max_ndwl: 64,
    max_ndbl: 128,
    max_rows_per_mat: 1024,
    max_cols_per_mat: 2048,
};

/// Widened bounds for relaxation rung 1: more mats and taller/wider
/// mats, so extreme geometries (very deep, very narrow, …) still map.
const WIDE_RAM: SearchBounds = SearchBounds {
    nspd_options: &[1, 2, 4, 8, 16],
    max_ndwl: 256,
    max_ndbl: 512,
    max_rows_per_mat: 4096,
    max_cols_per_mat: 8192,
};

// CAMs keep all search bits on one matchline: no horizontal split, no
// row packing.
const NORMAL_CAM: SearchBounds = SearchBounds {
    nspd_options: &[1],
    max_ndwl: 1,
    ..NORMAL_RAM
};
const WIDE_CAM: SearchBounds = SearchBounds {
    nspd_options: &[1],
    max_ndwl: 1,
    ..WIDE_RAM
};

/// Cycle-constraint multipliers tried, in order, on relaxation rung 2.
const CYCLE_RELAX_FACTORS: [f64; 4] = [1.1, 1.25, 1.5, 2.0];

/// Arrays at least this large (total storage bits) fan the outer
/// `nspd × ndbl` sweep out across threads. Smaller arrays solve in well
/// under a millisecond and are typically already being solved
/// concurrently by the core/chip build fan-out, where an extra level of
/// nested spawning only oversubscribes the machine.
const PAR_SWEEP_MIN_BITS: u64 = 1 << 20;

/// Maps a tripped budget to the solver's typed error for `spec`.
fn budget_check(spec: &ArraySpec) -> Result<(), ArrayError> {
    mcpat_guard::check().map_err(|reason| ArrayError::Budget {
        name: spec.name.clone(),
        reason,
    })
}

/// Upper bound on `ndwl` lanes per outer cell: `max_ndwl` never exceeds
/// 256 in any bounds table (9 powers of two), so 16 fixed lanes hold
/// every sweep without heap storage.
const MAX_LANES: usize = 16;

/// Upper bound on simultaneously tracked cycle thresholds: the strict
/// rung uses 1, the widened ladder pass uses
/// `1 + CYCLE_RELAX_FACTORS + 1 = 6`.
const MAX_THRESHOLDS: usize = 6;

/// Upper bound on `nspd` options per bounds table (the widest,
/// `WIDE_RAM`, has 5). Sizes the stack-resident geometry tables of one
/// enumeration pass.
const MAX_NSPD: usize = 5;

/// Upper bound on outer `(nspd, ndbl)` cells per enumeration pass:
/// `MAX_NSPD` options times the 10 powers of two up to the widest
/// `max_ndbl` (512).
const MAX_CELLS: usize = MAX_NSPD * 10;

/// Upper bound on distinct column parts per enumeration pass: one per
/// `(nspd, ndwl)` geometry.
const MAX_COL_PARTS: usize = MAX_NSPD * MAX_LANES;

/// The load every output column mux drives, F.
const MUX_LOAD: f64 = 20e-15;

/// Test-only escape hatch: routes [`solve_uncached`] through the
/// retained [`reference`] implementation so differential tests can
/// compare whole chip builds against the unhoisted path. Process-global
/// (not thread-local) so parallel build fan-outs inherit it.
static REFERENCE_MODE: AtomicBool = AtomicBool::new(false);

/// Selects the reference (unhoisted) solver for subsequent solves.
/// For differential tests only; solves remain bit-identical either way.
#[doc(hidden)]
// lint: allow(L013, differential tests build whole chips on the reference solver and compare bits)
pub fn set_reference_mode(enabled: bool) {
    REFERENCE_MODE.store(enabled, Ordering::SeqCst);
}

/// Everything about one solve that does not depend on the candidate
/// partitioning: the hoisted mat, repeater and mux invariants plus a
/// few spec-derived scalars. Built once per solve and shared by both
/// enumeration passes (and, read-only, by all sweep threads).
struct SolveInvariants {
    tech: TechParams,
    mat: MatInvariants,
    rep: RepeaterInvariants,
    /// Every output mux of the solve drives [`MUX_LOAD`], so one family
    /// sizes their buffer chain and select driver once.
    mux: MuxFamily,
    addr_bits: u32,
    /// `spec.access_bits.max(1)`, the mux/rollup form.
    access_bits: usize,
    /// Raw `spec.access_bits`, the H-tree data payload.
    data_bits: u32,
    is_cam: bool,
}

impl SolveInvariants {
    fn new(tech: &TechParams, spec: &ArraySpec) -> SolveInvariants {
        SolveInvariants {
            tech: *tech,
            mat: MatInvariants::new(tech, spec.kind, spec.ports, spec.search_bits),
            rep: RepeaterInvariants::new(tech, WireType::Intermediate),
            mux: MuxFamily::new(tech, MUX_LOAD),
            addr_bits: (spec.entries.max(2) as f64).log2().ceil() as u32,
            access_bits: spec.access_bits.max(1) as usize,
            data_bits: spec.access_bits,
            is_cam: spec.kind == ArrayKind::Cam,
        }
    }
}

/// A fixed-capacity stack table of mat parts keyed by one mat
/// dimension, so an enumeration pass builds each distinct
/// [`MatRowPart`] (keyed by `rows_per_mat`) and [`MatColPart`] (keyed
/// by `cols_per_mat`) once, however many candidates share it. A part
/// is a pure function of its key, so sharing it is exact.
struct PartTable<P, const N: usize> {
    n: usize,
    keys: [usize; N],
    parts: [Option<P>; N],
}

impl<P: Copy, const N: usize> PartTable<P, N> {
    fn new() -> Self {
        PartTable {
            n: 0,
            keys: [0; N],
            parts: [None; N],
        }
    }

    /// The slot of `key`'s part, built by `build` on first use. `None`
    /// only when the table is full, which the bounds tables rule out
    /// (`bounds_tables_fit_the_stack_scratch`).
    fn index_of(&mut self, key: usize, build: impl FnOnce() -> P) -> Option<usize> {
        let known = self.keys.get(..self.n).unwrap_or(&[]);
        if let Some(i) = known.iter().position(|&k| k == key) {
            return Some(i);
        }
        let i = self.n;
        let (slot_key, slot_part) = (self.keys.get_mut(i)?, self.parts.get_mut(i)?);
        *slot_key = key;
        *slot_part = Some(build());
        self.n = i + 1;
        Some(i)
    }

    fn get(&self, i: usize) -> Option<&P> {
        self.parts.get(i)?.as_ref()
    }
}

type RowParts = PartTable<MatRowPart, MAX_CELLS>;
type ColParts = PartTable<MatColPart, MAX_COL_PARTS>;

/// Column geometry for one `(nspd, ndwl)` pair, shared by every `ndbl`
/// cell at that `nspd`: the slot of its column part in the pass's
/// [`ColParts`], plus the output-mux metrics already scaled to the
/// access width.
#[derive(Clone, Copy, Default)]
struct ColGeom {
    ndwl: usize,
    cols_per_mat: usize,
    written_per_mat: usize,
    col_idx: usize,
    mux_delay: f64,
    /// `access_bits × mux energy`, the read-path rollup term.
    mux_read_energy: f64,
    /// Mux leakage already scaled by `access_bits`.
    mux_leak: StaticPower,
}

/// The per-`nspd` table of column geometries, one per evaluated `ndwl`.
#[derive(Clone, Copy)]
struct GeomSet {
    n: usize,
    geoms: [ColGeom; MAX_LANES],
}

impl GeomSet {
    /// Column geometries of one `nspd`, skipping the ones the bounds
    /// filter out; their column parts go into `cols`.
    fn build(
        inv: &SolveInvariants,
        bounds: &SearchBounds,
        cols_total: usize,
        cols: &mut ColParts,
    ) -> GeomSet {
        let mut set = GeomSet {
            n: 0,
            geoms: [ColGeom::default(); MAX_LANES],
        };
        // `max_ndwl` ≤ 256 in every bounds table, so the pow2 ladder
        // fits in MAX_LANES with headroom; `take` is a formality.
        for ndwl in pow2s_up_to(bounds.max_ndwl.min(cols_total)).take(MAX_LANES) {
            let cols_per_mat = cols_total.div_ceil(ndwl);
            if cols_per_mat > bounds.max_cols_per_mat {
                continue;
            }
            let (Some(col_idx), Some(slot)) = (
                cols.index_of(cols_per_mat, || inv.mat.cols_part(cols_per_mat)),
                set.geoms.get_mut(set.n),
            ) else {
                break;
            };
            let written_per_mat = inv.access_bits.div_ceil(ndwl).min(cols_per_mat);
            let mux_degree = ((cols_per_mat * ndwl) / inv.access_bits.max(1)).max(1);
            let mux_m = inv.mux.metrics(mux_degree);
            *slot = ColGeom {
                ndwl,
                cols_per_mat,
                written_per_mat,
                col_idx,
                mux_delay: mux_m.delay,
                mux_read_energy: inv.access_bits as f64 * mux_m.energy_per_op,
                mux_leak: mux_m.leakage.scaled(inv.access_bits as f64),
            };
            set.n += 1;
        }
        set
    }

    fn as_slice(&self) -> &[ColGeom] {
        self.geoms.get(..self.n).unwrap_or(&[])
    }
}

/// Fixed-size per-threshold best slots (at most [`MAX_THRESHOLDS`] are
/// ever live), replacing the reference path's per-cell `Vec`.
#[derive(Clone, Copy)]
struct BestSet {
    slots: [Option<Scored>; MAX_THRESHOLDS],
}

impl BestSet {
    fn empty() -> BestSet {
        BestSet {
            slots: [None; MAX_THRESHOLDS],
        }
    }
}

/// Struct-of-arrays candidate lanes for one outer cell's `ndwl` sweep.
/// The evaluation loop fills plain `f64` lanes; scoring then runs as a
/// single branch-light pass per objective (the `match` sits outside the
/// loop); the ordered reduce reads the lanes back in `ndwl` order so the
/// tie-break sequence is identical to the reference sweep's.
struct CellLanes {
    n: usize,
    ndwl: [usize; MAX_LANES],
    access: [f64; MAX_LANES],
    cycle: [f64; MAX_LANES],
    energy: [f64; MAX_LANES],
    area: [f64; MAX_LANES],
    score: [f64; MAX_LANES],
    evals: [RawEval; MAX_LANES],
}

impl CellLanes {
    fn new() -> CellLanes {
        CellLanes {
            n: 0,
            ndwl: [0; MAX_LANES],
            access: [0.0; MAX_LANES],
            cycle: [0.0; MAX_LANES],
            energy: [0.0; MAX_LANES],
            area: [0.0; MAX_LANES],
            score: [0.0; MAX_LANES],
            evals: [RawEval::default(); MAX_LANES],
        }
    }

    fn push(&mut self, ndwl: usize, eval: RawEval) {
        let k = self.n;
        let (Some(nd), Some(ac), Some(cy), Some(en), Some(ar), Some(ev)) = (
            self.ndwl.get_mut(k),
            self.access.get_mut(k),
            self.cycle.get_mut(k),
            self.energy.get_mut(k),
            self.area.get_mut(k),
            self.evals.get_mut(k),
        ) else {
            return;
        };
        *nd = ndwl;
        *ac = eval.access_time;
        *cy = eval.cycle_time;
        *en = eval.read_energy;
        *ar = eval.area;
        *ev = eval;
        self.n = k + 1;
    }

    /// One pass over the lanes per objective; no per-candidate dispatch.
    fn score(&mut self, target: OptTarget) {
        let n = self.n;
        match target {
            OptTarget::Delay => {
                for (s, a) in self.score.iter_mut().zip(&self.access).take(n) {
                    *s = *a;
                }
            }
            OptTarget::Energy => {
                for (s, e) in self.score.iter_mut().zip(&self.energy).take(n) {
                    *s = *e;
                }
            }
            OptTarget::EnergyDelay => {
                let lanes = self.score.iter_mut().zip(&self.energy).zip(&self.access);
                for ((s, e), a) in lanes.take(n) {
                    *s = *e * *a;
                }
            }
            OptTarget::EnergyDelaySquared => {
                let lanes = self.score.iter_mut().zip(&self.energy).zip(&self.access);
                for ((s, e), a) in lanes.take(n) {
                    *s = *e * *a * *a;
                }
            }
            OptTarget::Area => {
                for (s, ar) in self.score.iter_mut().zip(&self.area).take(n) {
                    *s = *ar;
                }
            }
        }
    }
}

/// The hoisted-path candidate evaluation: the same arithmetic as
/// [`evaluate_raw`] — identical operations in identical order, so the
/// results match bit for bit (see the differential tests) — with every
/// candidate-invariant term read from the tables instead of recomputed.
fn evaluate_fast(
    inv: &SolveInvariants,
    row: &MatRowPart,
    col: &MatColPart,
    geom: &ColGeom,
    cell: &OuterCell,
) -> RawEval {
    let m = inv.mat.evaluate(row, col, geom.written_per_mat);
    let ndwl = geom.ndwl;
    let ndbl = cell.ndbl;

    let path_length = HTree::path_length_of(ndwl, ndbl, m.width, m.height);
    let wire = inv.rep.energy_derated(path_length, 1.10);
    let ht = HTree::from_wire(
        &inv.tech,
        ndwl,
        ndbl,
        path_length,
        inv.addr_bits,
        inv.data_bits,
        wire,
    )
    .metrics();

    let n_mats = (ndwl * ndbl) as f64;
    let active = ndwl as f64;

    let read_energy = active * m.read_energy + geom.mux_read_energy + ht.energy_per_op;
    let write_energy = active * m.write_energy + ht.energy_per_op;
    let search_energy = if inv.is_cam {
        ndbl as f64 * m.search_energy + ht.energy_per_op
    } else {
        0.0
    };

    let access_time = 2.0 * ht.delay + m.read_delay + geom.mux_delay;
    let cycle_time = 1.2 * m.max_stage_delay.max(ht.delay);

    let area = (n_mats * m.area + ht.area) * ARRAY_AREA_OVERHEAD;
    // Aspect ratio from the mat grid; the overhead (ECC/redundancy/
    // routing) is apportioned as extra height so width × height = area.
    let width = ndwl as f64 * m.width;
    let height = area / width.max(1e-9);

    let leakage = m.leakage.scaled(n_mats) + ht.leakage + geom.mux_leak;

    RawEval {
        rows_per_mat: cell.rows_per_mat,
        cols_per_mat: geom.cols_per_mat,
        access_time,
        cycle_time,
        read_energy,
        write_energy,
        search_energy,
        leakage,
        area,
        height,
        width,
    }
}

/// Sweeps `ndwl` for one outer cell, reducing into per-threshold bests.
///
/// This is the structure-of-arrays fast path: the row and column parts
/// come from the pass's shared tables, candidates fill `f64` lanes,
/// scoring runs branch-light over the lanes, and the ordered reduce
/// replays the reference tie-break sequence exactly. The cell is the
/// guard's unit: one budget checkpoint before it and one batched
/// candidate count after it, so a deadline or cancellation stops the
/// sweep between cells (at most one cell, ≤ 9 candidates, late), never
/// mid-evaluation. The retained [`reference`] solver keeps its
/// per-candidate cadence.
#[allow(clippy::too_many_arguments)]
fn sweep_cell(
    inv: &SolveInvariants,
    spec: &ArraySpec,
    target: OptTarget,
    thresholds: &[Option<f64>],
    cell: &OuterCell,
    row: &MatRowPart,
    geoms: &[ColGeom],
    cols: &ColParts,
) -> Result<(BestSet, f64), ArrayError> {
    budget_check(spec)?;
    // lint: hot
    let mut lanes = CellLanes::new();
    for geom in geoms {
        let Some(col) = cols.get(geom.col_idx) else {
            continue;
        };
        lanes.push(geom.ndwl, evaluate_fast(inv, row, col, geom, cell));
    }
    mcpat_guard::note_candidates(lanes.n as u64);
    lanes.score(target);

    let mut best = BestSet::empty();
    let mut best_cycle_seen = f64::INFINITY;
    let scored = lanes
        .score
        .iter()
        .zip(&lanes.ndwl)
        .zip(&lanes.cycle)
        .zip(&lanes.evals);
    for (((&score, &ndwl), &cycle), eval) in scored.take(lanes.n) {
        // A non-finite score mirrors `evaluate_raw` returning `None`.
        if !score.is_finite() {
            continue;
        }
        best_cycle_seen = best_cycle_seen.min(cycle);
        reduce_into(
            &mut best.slots,
            thresholds,
            Scored {
                score,
                nspd: cell.nspd,
                ndwl,
                ndbl: cell.ndbl,
                eval: *eval,
            },
        );
    }
    // lint: hot end
    Ok((best, best_cycle_seen))
}

/// One enumeration pass. For each cycle-time threshold in `thresholds`
/// (`None` = unconstrained) the best-scoring candidate meeting it is
/// tracked independently, so the whole relaxation ladder needs at most
/// two passes. Also returns the fastest cycle time seen by any
/// candidate.
///
/// Everything a candidate shares with others is built once per pass
/// before the sweep: one column-geometry table per `nspd` (column
/// geometry depends only on `(nspd, ndwl)`), one [`MatRowPart`] per
/// distinct `rows_per_mat` and one [`MatColPart`] per distinct
/// `cols_per_mat` (different `(nspd, ndbl)` and `(nspd, ndwl)` pairs
/// often land on the same mat dimensions). Large arrays distribute the
/// outer `(nspd, ndbl)` cells across threads; because [`better`] is a
/// total order, merging the per-cell bests in any grouping yields the
/// same winner, so the parallel sweep is bit-identical to the serial
/// one.
fn enumerate(
    inv: &SolveInvariants,
    spec: &ArraySpec,
    target: OptTarget,
    bounds: &SearchBounds,
    thresholds: &[Option<f64>],
) -> Result<(BestSet, f64), ArrayError> {
    let entries = spec.entries as usize;
    let bits = spec.bits_per_entry as usize;

    // All enumeration scratch lives on the stack: the bounds tables cap
    // it at MAX_NSPD geometry tables, MAX_CELLS outer cells (and so row
    // parts) and MAX_COL_PARTS column parts, so a solve allocates
    // nothing here. Unused geometry slots stay `None` and are never
    // filled.
    let mut geom_sets: [Option<GeomSet>; MAX_NSPD] = [None; MAX_NSPD];
    let mut n_sets = 0usize;
    let mut rows = RowParts::new();
    let mut cols = ColParts::new();
    let mut cells_buf = [OuterCell::default(); MAX_CELLS];
    let mut n_cells = 0usize;
    for &nspd in bounds.nspd_options {
        budget_check(spec)?;
        if nspd > entries {
            continue;
        }
        let rows_total = entries.div_ceil(nspd);
        let cols_total = bits * nspd;
        let Some(slot) = geom_sets.get_mut(n_sets) else {
            break;
        };
        *slot = Some(GeomSet::build(inv, bounds, cols_total, &mut cols));
        let geom_idx = n_sets;
        n_sets += 1;
        for ndbl in pow2s_up_to(bounds.max_ndbl.min(rows_total)) {
            let rows_per_mat = rows_total.div_ceil(ndbl);
            if rows_per_mat > bounds.max_rows_per_mat {
                continue;
            }
            let (Some(row_idx), Some(cell)) = (
                rows.index_of(rows_per_mat, || inv.mat.rows_part(rows_per_mat)),
                cells_buf.get_mut(n_cells),
            ) else {
                break;
            };
            *cell = OuterCell {
                nspd,
                ndbl,
                rows_per_mat,
                geom_idx,
                row_idx,
            };
            n_cells += 1;
        }
    }
    let cells: &[OuterCell] = cells_buf.get(..n_cells).unwrap_or(&[]);

    let min_parallel = if spec.total_bits() >= PAR_SWEEP_MIN_BITS {
        2
    } else {
        usize::MAX
    };
    budget_check(spec)?;
    let sweeps = mcpat_par::par_map(cells, min_parallel, |_, cell| {
        let geoms = geom_sets
            .get(cell.geom_idx)
            .and_then(Option::as_ref)
            .map(GeomSet::as_slice)
            .unwrap_or(&[]);
        match rows.get(cell.row_idx) {
            Some(row) => sweep_cell(inv, spec, target, thresholds, cell, row, geoms, &cols),
            None => Ok((BestSet::empty(), f64::INFINITY)),
        }
    })
    .map_err(|e| ArrayError::Worker {
        name: spec.name.clone(),
        detail: e.to_string(),
    })?;

    let mut best = BestSet::empty();
    let mut best_cycle_seen = f64::INFINITY;
    // Surface per-cell budget trips in input order so the winning
    // error is deterministic regardless of how the sweep was
    // scheduled.
    for sweep in sweeps {
        let (partial, cycle) = sweep?;
        best_cycle_seen = best_cycle_seen.min(cycle);
        for (slot, cand) in best.slots.iter_mut().zip(partial.slots) {
            if let Some(c) = cand {
                if slot.is_none_or(|b| better(&c, &b)) {
                    *slot = Some(c);
                }
            }
        }
    }
    Ok((best, best_cycle_seen))
}

/// Runs the optimizer. Prefer [`ArraySpec::solve`].
///
/// If the standard search space yields no feasible partitioning, the
/// solver degrades gracefully along a relaxation ladder instead of
/// failing outright:
///
/// 1. widen the `Ndwl × Ndbl × Nspd` enumeration bounds
///    ([`Relaxation::WidenedBounds`]);
/// 2. relax the cycle-time constraint by ×1.1, ×1.25, ×1.5, then ×2.0
///    ([`Relaxation::CycleRelaxed`]);
/// 3. drop the cycle-time constraint entirely
///    ([`Relaxation::CycleDropped`]).
///
/// A solution found on any rung records it in
/// [`SolvedArray::relaxation`], which callers surface as a warning.
///
/// # Errors
///
/// See [`ArrayError`]. [`ArrayError::NoFeasiblePartition`] is returned
/// only when even the fully relaxed search finds no evaluable candidate.
pub fn solve(
    tech: &TechParams,
    spec: &ArraySpec,
    target: OptTarget,
) -> Result<SolvedArray, ArrayError> {
    crate::memo::lookup_or_solve(tech, spec, target, solve_uncached)
}

/// The actual optimizer behind [`solve`], bypassing the content-
/// addressed cache in [`crate::memo`].
pub(crate) fn solve_uncached(
    tech: &TechParams,
    spec: &ArraySpec,
    target: OptTarget,
) -> Result<SolvedArray, ArrayError> {
    // A real solve is worth a second lane: announce the join branches
    // queued around it. Waking here, not on the cache-miss path, also
    // covers cache-off builds.
    mcpat_par::wake();
    if REFERENCE_MODE.load(Ordering::Relaxed) {
        return reference::solve_reference(tech, spec, target);
    }
    if spec.entries == 0 || spec.bits_per_entry == 0 {
        return Err(ArrayError::DegenerateSpec {
            name: spec.name.clone(),
        });
    }

    let is_cam = spec.kind == ArrayKind::Cam;
    let normal = if is_cam { &NORMAL_CAM } else { &NORMAL_RAM };
    let wide = if is_cam { &WIDE_CAM } else { &WIDE_RAM };
    let req = spec.max_cycle_time;
    let inv = SolveInvariants::new(tech, spec);

    // Rung 0: the standard search, exactly as requested.
    budget_check(spec)?;
    let (strict, cycle_strict) = enumerate(&inv, spec, target, normal, &[req])?;
    if let Some(c) = strict.slots.first().copied().flatten() {
        return Ok(materialize(spec, c, None));
    }

    // Relaxation ladder: one widened pass tracks every rung at once.
    let [f1, f2, f3, f4] = CYCLE_RELAX_FACTORS;
    let (tvals, tlen): ([Option<f64>; MAX_THRESHOLDS], usize) = match req {
        Some(r) => (
            [
                Some(r),
                Some(r * f1),
                Some(r * f2),
                Some(r * f3),
                Some(r * f4),
                None,
            ],
            MAX_THRESHOLDS,
        ),
        None => ([None; MAX_THRESHOLDS], 1),
    };
    let thresholds = tvals.get(..tlen).unwrap_or(&[]);
    budget_check(spec)?;
    let (rungs, cycle_wide) = enumerate(&inv, spec, target, wide, thresholds)?;
    let last = tlen - 1;
    for (i, cand) in rungs.slots.iter().take(tlen).enumerate() {
        let Some(c) = *cand else { continue };
        let achieved = c.eval.cycle_time;
        let relaxation = Some(match (i, req) {
            (0, _) | (_, None) => Relaxation::WidenedBounds,
            (_, Some(_)) if i == last => Relaxation::CycleDropped { achieved },
            (_, Some(_)) => Relaxation::CycleRelaxed {
                // Rung i > 0 here, so i-1 indexes the factor that built
                // thresholds[i]; a mismatch falls back to the last rung.
                factor: i
                    .checked_sub(1)
                    .and_then(|j| CYCLE_RELAX_FACTORS.get(j))
                    .copied()
                    .unwrap_or(f64::INFINITY),
                achieved,
            },
        });
        return Ok(materialize(spec, c, relaxation));
    }

    let best_cycle = cycle_strict.min(cycle_wide);
    Err(ArrayError::NoFeasiblePartition {
        name: spec.name.clone(),
        required_cycle: req,
        best_cycle: if best_cycle.is_finite() {
            best_cycle
        } else {
            0.0
        },
    })
}

/// Evaluates one explicit `(Ndwl, Ndbl, Nspd)` partitioning without
/// searching — used by the optimizer-ablation experiment to quantify
/// what the search buys.
///
/// # Errors
///
/// Returns [`ArrayError::NoFeasiblePartition`] if the partitioning is
/// not evaluable (e.g. produces degenerate mats).
pub fn solve_fixed(
    tech: &TechParams,
    spec: &ArraySpec,
    ndwl: usize,
    ndbl: usize,
    nspd: usize,
) -> Result<SolvedArray, ArrayError> {
    if spec.entries == 0 || spec.bits_per_entry == 0 {
        return Err(ArrayError::DegenerateSpec {
            name: spec.name.clone(),
        });
    }
    let entries = spec.entries as usize;
    let bits = spec.bits_per_entry as usize;
    let rows_total = entries.div_ceil(nspd.max(1));
    let cols_total = bits * nspd.max(1);
    let rows_per_mat = rows_total.div_ceil(ndbl.max(1));
    let cols_per_mat = cols_total.div_ceil(ndwl.max(1));
    evaluate_raw(
        tech,
        spec,
        nspd.max(1),
        ndwl.max(1),
        ndbl.max(1),
        rows_per_mat,
        cols_per_mat,
        spec.access_bits.max(1) as usize,
        OptTarget::EnergyDelay,
    )
    .map(|c| materialize(spec, c, None))
    .ok_or(ArrayError::NoFeasiblePartition {
        name: spec.name.clone(),
        required_cycle: None,
        best_cycle: 0.0,
    })
}

#[allow(clippy::too_many_arguments)]
fn evaluate_raw(
    tech: &TechParams,
    spec: &ArraySpec,
    nspd: usize,
    ndwl: usize,
    ndbl: usize,
    rows_per_mat: usize,
    cols_per_mat: usize,
    access_bits: usize,
    target: OptTarget,
) -> Option<Scored> {
    let mat = Mat::new(tech, rows_per_mat, cols_per_mat, spec.kind, spec.ports);
    let written_per_mat = access_bits.div_ceil(ndwl).min(cols_per_mat);
    let m = mat.evaluate(cols_per_mat, written_per_mat, spec.search_bits);

    // Column select: the active stripe produces cols_total bits, the port
    // wants access_bits.
    let cols_total = cols_per_mat * ndwl;
    let mux_degree = (cols_total / access_bits.max(1)).max(1);
    let mux = Multiplexer::new(tech, mux_degree, MUX_LOAD);
    let mux_m = mux.metrics();

    let addr_bits = (spec.entries.max(2) as f64).log2().ceil() as u32;
    let htree = HTree::new(
        tech,
        ndwl,
        ndbl,
        m.width,
        m.height,
        addr_bits,
        spec.access_bits,
    );
    let ht = htree.metrics();

    let n_mats = (ndwl * ndbl) as f64;
    let active = ndwl as f64;

    let read_energy =
        active * m.read_energy + access_bits as f64 * mux_m.energy_per_op + ht.energy_per_op;
    let write_energy = active * m.write_energy + ht.energy_per_op;
    let search_energy = if spec.kind == ArrayKind::Cam {
        ndbl as f64 * m.search_energy + ht.energy_per_op
    } else {
        0.0
    };

    let access_time = 2.0 * ht.delay + m.read_delay + mux_m.delay;
    let cycle_time = 1.2 * m.max_stage_delay.max(ht.delay);

    let area = (n_mats * m.area + ht.area) * ARRAY_AREA_OVERHEAD;
    // Aspect ratio from the mat grid; the overhead (ECC/redundancy/
    // routing) is apportioned as extra height so width × height = area.
    let width = ndwl as f64 * m.width;
    let height = area / width.max(1e-9);

    let leakage = m.leakage.scaled(n_mats) + ht.leakage + mux_m.leakage.scaled(access_bits as f64);

    let score = match target {
        OptTarget::Delay => access_time,
        OptTarget::Energy => read_energy,
        OptTarget::EnergyDelay => read_energy * access_time,
        OptTarget::EnergyDelaySquared => read_energy * access_time * access_time,
        OptTarget::Area => area,
    };
    if !score.is_finite() {
        return None;
    }
    Some(Scored {
        score,
        nspd,
        ndwl,
        ndbl,
        eval: RawEval {
            rows_per_mat,
            cols_per_mat,
            access_time,
            cycle_time,
            read_energy,
            write_energy,
            search_energy,
            leakage,
            area,
            height,
            width,
        },
    })
}

/// The reference (unhoisted) solver, retained verbatim from before the
/// invariant-hoisting fast path: every candidate is rebuilt from scratch
/// through [`Mat`], [`Multiplexer`], and [`HTree::new`] via
/// `evaluate_raw`. The differential tests sweep both implementations
/// across specs, objectives, and relaxation rungs and require equal
/// bits; [`set_reference_mode`] routes whole chip builds through here
/// for the same comparison. Not part of the public API contract.
#[doc(hidden)]
pub mod reference {
    use super::{
        better, budget_check, evaluate_raw, materialize, pow2s_up_to, reduce_into, ArrayError,
        ArrayKind, ArraySpec, OptTarget, Relaxation, Scored, SearchBounds, SolvedArray, TechParams,
        CYCLE_RELAX_FACTORS, NORMAL_CAM, NORMAL_RAM, PAR_SWEEP_MIN_BITS, WIDE_CAM, WIDE_RAM,
    };

    #[derive(Clone, Copy)]
    struct SweepCell {
        nspd: usize,
        ndbl: usize,
        rows_per_mat: usize,
        cols_total: usize,
    }

    fn sweep_cell(
        tech: &TechParams,
        spec: &ArraySpec,
        target: OptTarget,
        bounds: &SearchBounds,
        thresholds: &[Option<f64>],
        cell: &SweepCell,
    ) -> Result<(Vec<Option<Scored>>, f64), ArrayError> {
        let access_bits = spec.access_bits.max(1) as usize;
        let mut best: Vec<Option<Scored>> = vec![None; thresholds.len()];
        let mut best_cycle_seen = f64::INFINITY;
        for ndwl in pow2s_up_to(bounds.max_ndwl.min(cell.cols_total)) {
            budget_check(spec)?;
            let cols_per_mat = cell.cols_total.div_ceil(ndwl);
            if cols_per_mat > bounds.max_cols_per_mat {
                continue;
            }
            if let Some(cand) = evaluate_raw(
                tech,
                spec,
                cell.nspd,
                ndwl,
                cell.ndbl,
                cell.rows_per_mat,
                cols_per_mat,
                access_bits,
                target,
            ) {
                best_cycle_seen = best_cycle_seen.min(cand.eval.cycle_time);
                reduce_into(&mut best, thresholds, cand);
            }
            mcpat_guard::note_candidate();
        }
        Ok((best, best_cycle_seen))
    }

    fn enumerate(
        tech: &TechParams,
        spec: &ArraySpec,
        target: OptTarget,
        bounds: &SearchBounds,
        thresholds: &[Option<f64>],
    ) -> Result<(Vec<Option<Scored>>, f64), ArrayError> {
        let entries = spec.entries as usize;
        let bits = spec.bits_per_entry as usize;

        let mut cells: Vec<SweepCell> = Vec::new();
        for &nspd in bounds.nspd_options {
            if nspd > entries {
                continue;
            }
            let rows_total = entries.div_ceil(nspd);
            let cols_total = bits * nspd;
            for ndbl in pow2s_up_to(bounds.max_ndbl.min(rows_total)) {
                let rows_per_mat = rows_total.div_ceil(ndbl);
                if rows_per_mat > bounds.max_rows_per_mat {
                    continue;
                }
                cells.push(SweepCell {
                    nspd,
                    ndbl,
                    rows_per_mat,
                    cols_total,
                });
            }
        }

        let min_parallel = if spec.total_bits() >= PAR_SWEEP_MIN_BITS {
            2
        } else {
            usize::MAX
        };
        budget_check(spec)?;
        let sweeps = mcpat_par::par_map(&cells, min_parallel, |_, cell| {
            sweep_cell(tech, spec, target, bounds, thresholds, cell)
        })
        .map_err(|e| ArrayError::Worker {
            name: spec.name.clone(),
            detail: e.to_string(),
        })?;

        let mut best: Vec<Option<Scored>> = vec![None; thresholds.len()];
        let mut best_cycle_seen = f64::INFINITY;
        for sweep in sweeps {
            let (partial, cycle) = sweep?;
            best_cycle_seen = best_cycle_seen.min(cycle);
            for (slot, cand) in best.iter_mut().zip(partial) {
                if let Some(c) = cand {
                    if slot.is_none_or(|b| better(&c, &b)) {
                        *slot = Some(c);
                    }
                }
            }
        }
        Ok((best, best_cycle_seen))
    }

    /// Solves `spec` with the unhoisted reference sweep. Same contract
    /// and same results, bit for bit, as `solve_uncached`.
    ///
    /// # Errors
    ///
    /// See [`ArrayError`]; identical failure behavior to the fast path.
    pub fn solve_reference(
        tech: &TechParams,
        spec: &ArraySpec,
        target: OptTarget,
    ) -> Result<SolvedArray, ArrayError> {
        if spec.entries == 0 || spec.bits_per_entry == 0 {
            return Err(ArrayError::DegenerateSpec {
                name: spec.name.clone(),
            });
        }

        let is_cam = spec.kind == ArrayKind::Cam;
        let normal = if is_cam { &NORMAL_CAM } else { &NORMAL_RAM };
        let wide = if is_cam { &WIDE_CAM } else { &WIDE_RAM };
        let req = spec.max_cycle_time;

        budget_check(spec)?;
        let (mut strict, cycle_strict) = enumerate(tech, spec, target, normal, &[req])?;
        if let Some(c) = strict.pop().flatten() {
            return Ok(materialize(spec, c, None));
        }

        let thresholds: Vec<Option<f64>> = match req {
            Some(r) => std::iter::once(Some(r))
                .chain(CYCLE_RELAX_FACTORS.iter().map(|f| Some(r * f)))
                .chain(std::iter::once(None))
                .collect(),
            None => vec![None],
        };
        budget_check(spec)?;
        let (rungs, cycle_wide) = enumerate(tech, spec, target, wide, &thresholds)?;
        let last = rungs.len() - 1;
        for (i, cand) in rungs.into_iter().enumerate() {
            let Some(c) = cand else { continue };
            let achieved = c.eval.cycle_time;
            let relaxation = Some(match (i, req) {
                (0, _) | (_, None) => Relaxation::WidenedBounds,
                (_, Some(_)) if i == last => Relaxation::CycleDropped { achieved },
                (_, Some(_)) => Relaxation::CycleRelaxed {
                    factor: i
                        .checked_sub(1)
                        .and_then(|j| CYCLE_RELAX_FACTORS.get(j))
                        .copied()
                        .unwrap_or(f64::INFINITY),
                    achieved,
                },
            });
            return Ok(materialize(spec, c, relaxation));
        }

        let best_cycle = cycle_strict.min(cycle_wide);
        Err(ArrayError::NoFeasiblePartition {
            name: spec.name.clone(),
            required_cycle: req,
            best_cycle: if best_cycle.is_finite() {
                best_cycle
            } else {
                0.0
            },
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::spec::Ports;
    use mcpat_tech::{DeviceType, TechNode};

    fn tech() -> TechParams {
        TechParams::new(TechNode::N65, DeviceType::Hp, 360.0)
    }

    /// The enumeration scratch is fixed-size: a bounds table wider than
    /// `MAX_NSPD` options or `MAX_CELLS` outer cells would silently cut
    /// the sweep short and could change the chosen partition.
    #[test]
    fn bounds_tables_fit_the_stack_scratch() {
        for (name, bounds) in [
            ("NORMAL_RAM", &NORMAL_RAM),
            ("WIDE_RAM", &WIDE_RAM),
            ("NORMAL_CAM", &NORMAL_CAM),
            ("WIDE_CAM", &WIDE_CAM),
        ] {
            let nspd = bounds.nspd_options.len();
            let cells = nspd * pow2s_up_to(bounds.max_ndbl).count();
            assert!(nspd <= MAX_NSPD, "{name}: {nspd} nspd options > MAX_NSPD");
            assert!(
                cells <= MAX_CELLS,
                "{name}: {cells} outer cells > MAX_CELLS"
            );
            let geoms = nspd * pow2s_up_to(bounds.max_ndwl).count();
            assert!(
                geoms <= MAX_COL_PARTS,
                "{name}: {geoms} column geometries > MAX_COL_PARTS"
            );
            assert!(
                pow2s_up_to(bounds.max_ndwl).count() <= MAX_LANES,
                "{name}: more ndwl options than MAX_LANES"
            );
        }
    }

    #[test]
    fn l1_sized_array_solves_fast_and_small() {
        let t = tech();
        let s = ArraySpec::ram(32 * 1024, 64).named("l1d");
        let a = s.solve(&t, OptTarget::EnergyDelay).unwrap();
        assert!(a.access_time < 2e-9, "access = {:e}", a.access_time);
        // A 32 KB array at 65 nm is well under 1 mm².
        assert!(a.area < 1e-6, "area = {:e} m²", a.area);
        assert!(a.read_energy > 1e-12 && a.read_energy < 1e-9);
    }

    #[test]
    fn bigger_arrays_are_slower_and_leakier() {
        let t = tech();
        let small = ArraySpec::ram(32 * 1024, 64)
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        let big = ArraySpec::ram(2 * 1024 * 1024, 64)
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        assert!(big.access_time > small.access_time);
        assert!(big.leakage.total() > 10.0 * small.leakage.total());
        assert!(big.area > 20.0 * small.area);
    }

    #[test]
    fn delay_target_beats_energy_target_on_delay() {
        let t = tech();
        let spec = ArraySpec::ram(1024 * 1024, 64);
        let fast = spec.solve(&t, OptTarget::Delay).unwrap();
        let frugal = spec.solve(&t, OptTarget::Energy).unwrap();
        assert!(fast.access_time <= frugal.access_time);
        assert!(frugal.read_energy <= fast.read_energy);
    }

    #[test]
    fn cycle_constraint_is_respected() {
        let t = tech();
        let spec = ArraySpec::ram(256 * 1024, 64).with_max_cycle_time(1.0 / 1.4e9);
        let a = spec.solve(&t, OptTarget::EnergyDelay).unwrap();
        assert!(a.cycle_time <= 1.0 / 1.4e9 + 1e-15);
    }

    #[test]
    fn impossible_cycle_constraint_degrades_gracefully() {
        // A 16 MB array cannot cycle in 1 ps; instead of failing, the
        // solver walks the relaxation ladder all the way to dropping the
        // constraint and says so.
        let t = tech();
        let spec = ArraySpec::ram(16 * 1024 * 1024, 64)
            .with_max_cycle_time(1e-12)
            .named("l3-bank");
        let a = spec.solve(&t, OptTarget::Delay).unwrap();
        match a.relaxation {
            Some(Relaxation::CycleDropped { achieved }) => {
                assert!(achieved > 1e-12);
                assert!((achieved - a.cycle_time).abs() < 1e-18);
            }
            other => panic!("expected the cycle constraint to be dropped, got {other:?}"),
        }
        let warn = a.relaxation_warning().expect("a relaxed solve must warn");
        assert_eq!(warn.path, "l3-bank");
        assert!(
            warn.message.contains("cycle-time constraint dropped"),
            "{warn}"
        );
    }

    #[test]
    fn unrelaxed_solves_carry_no_warning() {
        let t = tech();
        let a = ArraySpec::ram(32 * 1024, 64)
            .solve(&t, OptTarget::EnergyDelay)
            .unwrap();
        assert_eq!(a.relaxation, None);
        assert!(a.relaxation_warning().is_none());
    }

    #[test]
    fn deep_narrow_array_needs_widened_bounds() {
        // 2M entries × 8 bits: with nspd ≤ 8 and ndbl ≤ 128 every mat
        // would exceed 1024 rows, so the standard search space is empty.
        // The widened rung maps it.
        let t = tech();
        let spec = ArraySpec::table(2 * 1024 * 1024, 8).named("deep-table");
        let a = spec.solve(&t, OptTarget::EnergyDelay).unwrap();
        assert_eq!(a.relaxation, Some(Relaxation::WidenedBounds));
        let warn = a.relaxation_warning().expect("widened solve must warn");
        assert!(warn.message.contains("widening"), "{warn}");
    }

    #[test]
    fn mildly_tight_cycle_relaxes_by_a_bounded_factor() {
        // Find the fastest achievable cycle, then demand a bit better
        // than that: the ladder should settle on a small multiplier, not
        // drop the constraint.
        let t = tech();
        let free = ArraySpec::ram(1024 * 1024, 64)
            .solve(&t, OptTarget::Delay)
            .unwrap();
        let spec = ArraySpec::ram(1024 * 1024, 64)
            .with_max_cycle_time(free.cycle_time * 0.95)
            .named("l2-bank");
        let a = spec.solve(&t, OptTarget::Delay).unwrap();
        match a.relaxation {
            // Either the widened bounds found a faster organization…
            None | Some(Relaxation::WidenedBounds) => {}
            // …or a modest relaxation was enough: 0.95 × 1.25 > 1.
            Some(Relaxation::CycleRelaxed { factor, .. }) => assert!(factor <= 1.25),
            other => panic!("constraint should not be dropped for a 5% shortfall: {other:?}"),
        }
    }

    #[test]
    fn degenerate_spec_errors() {
        let t = tech();
        let spec = ArraySpec::table(0, 32);
        assert!(matches!(
            spec.solve(&t, OptTarget::Delay),
            Err(ArrayError::DegenerateSpec { .. })
        ));
    }

    #[test]
    fn register_file_with_many_ports_solves() {
        let t = tech();
        let spec = ArraySpec::table(128, 64)
            .with_ports(Ports::reg_file(6, 3))
            .named("int-rf");
        let a = spec.solve(&t, OptTarget::Delay).unwrap();
        assert!(a.access_time < 1e-9);
        assert!(a.read_energy > 0.0);
    }

    #[test]
    fn cam_solves_with_search_energy() {
        let t = tech();
        let spec = ArraySpec::cam(64, 64, 48).named("stq");
        let a = spec.solve(&t, OptTarget::EnergyDelay).unwrap();
        assert!(a.search_energy > 0.0);
        assert_eq!(a.ndwl, 1, "CAMs are not split horizontally");
    }

    #[test]
    fn narrow_access_reads_cost_less_than_full_block() {
        let t = tech();
        let full = ArraySpec::ram(512 * 1024, 64)
            .solve(&t, OptTarget::Energy)
            .unwrap();
        let narrow = ArraySpec::ram(512 * 1024, 64)
            .with_access_bits(128)
            .solve(&t, OptTarget::Energy)
            .unwrap();
        assert!(narrow.read_energy <= full.read_energy);
    }

    #[test]
    fn tie_break_is_a_total_order_independent_of_fold_order() {
        // Candidates with identical scores must reduce to the same
        // winner whatever order (or grouping) they are folded in — this
        // is what makes the parallel sweep bit-identical to serial.
        let raw = RawEval {
            rows_per_mat: 1,
            cols_per_mat: 1,
            access_time: 1.0,
            cycle_time: 1.0,
            read_energy: 1.0,
            write_energy: 1.0,
            search_energy: 0.0,
            leakage: StaticPower::default(),
            area: 1.0,
            height: 1.0,
            width: 1.0,
        };
        let mk = |score: f64, nspd: usize, ndwl: usize, ndbl: usize| Scored {
            score,
            nspd,
            ndwl,
            ndbl,
            eval: raw,
        };
        let cands = [
            mk(2.0, 1, 4, 4),
            mk(1.0, 2, 8, 1),
            mk(1.0, 2, 1, 8), // same score, lower (nspd, ndwl): must win
            mk(1.0, 4, 1, 1),
            mk(3.0, 1, 1, 1),
        ];
        // Fold in several shuffled orders, including split-and-merge
        // groupings that mimic per-thread partial reduces.
        let orders: [[usize; 5]; 4] = [
            [0, 1, 2, 3, 4],
            [4, 3, 2, 1, 0],
            [2, 0, 4, 1, 3],
            [1, 2, 0, 4, 3],
        ];
        for order in orders {
            let mut best: Option<Scored> = None;
            for &i in &order {
                if best.is_none_or(|b| better(&cands[i], &b)) {
                    best = Some(cands[i]);
                }
            }
            let w = best.unwrap();
            assert_eq!((w.score, w.nspd, w.ndwl, w.ndbl), (1.0, 2, 1, 8));
            // Split into two "threads" at every point and merge.
            for split in 1..order.len() {
                let reduce = |ix: &[usize]| {
                    let mut b: Option<Scored> = None;
                    for &i in ix {
                        if b.is_none_or(|x| better(&cands[i], &x)) {
                            b = Some(cands[i]);
                        }
                    }
                    b
                };
                let (lo, hi) = (reduce(&order[..split]), reduce(&order[split..]));
                let merged = match (lo, hi) {
                    (Some(a), Some(b)) => {
                        if better(&a, &b) {
                            a
                        } else {
                            b
                        }
                    }
                    (Some(a), None) | (None, Some(a)) => a,
                    (None, None) => panic!("non-empty inputs"),
                };
                assert_eq!(
                    (merged.score, merged.nspd, merged.ndwl, merged.ndbl),
                    (1.0, 2, 1, 8)
                );
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_bit_for_bit_across_rungs_and_targets() {
        // The hoisted SoA sweep, with its shared row/column parts, mux
        // family and deduplicated derating, must pick the same
        // organization and produce the same bits as the retained
        // reference sweep, on every objective, including specs that
        // exercise the strict rung, the widened-bounds rung, the
        // dropped-cycle rung, CAMs (one and two search ports), EDRAM,
        // narrow access widths, many-ported register files, and
        // geometries whose `nspd` passes share `cols_per_mat`.
        let t = tech();
        let shared_cols = ArraySpec::table(3000, 72).named("shared-cols");
        let specs = [
            ArraySpec::ram(32 * 1024, 64).named("rung0"),
            ArraySpec::table(2 * 1024 * 1024, 8).named("widened"),
            ArraySpec::ram(1024 * 1024, 64)
                .with_max_cycle_time(1e-12)
                .named("dropped"),
            ArraySpec::cam(64, 64, 48).named("cam"),
            ArraySpec::cam(256, 64, 40)
                .with_ports(Ports {
                    search: 2,
                    ..Ports::single_rw()
                })
                .named("cam-2-search"),
            ArraySpec::ram(1024 * 1024, 64)
                .with_kind(ArrayKind::Edram)
                .named("edram"),
            ArraySpec::ram(512 * 1024, 64)
                .with_access_bits(128)
                .named("narrow"),
            ArraySpec::table(128, 64)
                .with_ports(Ports::reg_file(6, 3))
                .named("rf"),
            shared_cols.clone(),
        ];
        // The shared-columns spec does exercise sharing: its strict
        // pass has more column geometries than distinct column counts.
        let bits = shared_cols.bits_per_entry as usize;
        let geoms: Vec<usize> = NORMAL_RAM
            .nspd_options
            .iter()
            .flat_map(|&nspd| {
                pow2s_up_to(NORMAL_RAM.max_ndwl.min(bits * nspd))
                    .map(move |ndwl| (bits * nspd).div_ceil(ndwl))
            })
            .collect();
        let mut distinct = geoms.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() < geoms.len(), "{geoms:?}");
        let targets = [
            OptTarget::Delay,
            OptTarget::Energy,
            OptTarget::EnergyDelay,
            OptTarget::EnergyDelaySquared,
            OptTarget::Area,
        ];
        for spec in &specs {
            for target in targets {
                let fast = solve_uncached(&t, spec, target).unwrap();
                let refr = reference::solve_reference(&t, spec, target).unwrap();
                let ctx = format!("{} / {target:?}", spec.name);
                assert_eq!(
                    (
                        fast.ndwl,
                        fast.ndbl,
                        fast.nspd,
                        fast.rows_per_mat,
                        fast.cols_per_mat
                    ),
                    (
                        refr.ndwl,
                        refr.ndbl,
                        refr.nspd,
                        refr.rows_per_mat,
                        refr.cols_per_mat
                    ),
                    "organization diverged: {ctx}"
                );
                for (a, b, what) in [
                    (fast.access_time, refr.access_time, "access_time"),
                    (fast.cycle_time, refr.cycle_time, "cycle_time"),
                    (fast.read_energy, refr.read_energy, "read_energy"),
                    (fast.write_energy, refr.write_energy, "write_energy"),
                    (fast.search_energy, refr.search_energy, "search_energy"),
                    (fast.area, refr.area, "area"),
                    (fast.height, refr.height, "height"),
                    (fast.width, refr.width, "width"),
                    (
                        fast.leakage.subthreshold,
                        refr.leakage.subthreshold,
                        "leakage.subthreshold",
                    ),
                    (fast.leakage.gate, refr.leakage.gate, "leakage.gate"),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what} diverged: {ctx}");
                }
                assert_eq!(
                    fast.relaxation, refr.relaxation,
                    "relaxation diverged: {ctx}"
                );
            }
        }
    }

    #[test]
    fn reference_mode_routes_solves_through_the_reference_sweep() {
        let t = tech();
        let spec = ArraySpec::ram(64 * 1024, 64).named("mode-check");
        let fast = solve_uncached(&t, &spec, OptTarget::EnergyDelay).unwrap();
        set_reference_mode(true);
        let routed = solve_uncached(&t, &spec, OptTarget::EnergyDelay);
        set_reference_mode(false);
        let routed = routed.unwrap();
        assert_eq!(routed.access_time.to_bits(), fast.access_time.to_bits());
        assert_eq!(routed.read_energy.to_bits(), fast.read_energy.to_bits());
        assert_eq!(
            (routed.ndwl, routed.ndbl, routed.nspd),
            (fast.ndwl, fast.ndbl, fast.nspd)
        );
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        // A 2 MB array crosses PAR_SWEEP_MIN_BITS, so its sweep actually
        // fans out when more than one thread is available.
        let t = tech();
        let spec = ArraySpec::ram(2 * 1024 * 1024, 64).named("l2");
        mcpat_par::set_thread_override(1);
        let serial = solve_uncached(&t, &spec, OptTarget::EnergyDelay).unwrap();
        let mut parallel = Vec::new();
        for n in [2usize, 3, 8] {
            mcpat_par::set_thread_override(n);
            parallel.push(solve_uncached(&t, &spec, OptTarget::EnergyDelay).unwrap());
        }
        mcpat_par::set_thread_override(0);
        for p in parallel {
            assert_eq!(
                (p.ndwl, p.ndbl, p.nspd, p.rows_per_mat, p.cols_per_mat),
                (
                    serial.ndwl,
                    serial.ndbl,
                    serial.nspd,
                    serial.rows_per_mat,
                    serial.cols_per_mat
                )
            );
            assert_eq!(p.access_time.to_bits(), serial.access_time.to_bits());
            assert_eq!(p.read_energy.to_bits(), serial.read_energy.to_bits());
            assert_eq!(p.area.to_bits(), serial.area.to_bits());
        }
    }
}
