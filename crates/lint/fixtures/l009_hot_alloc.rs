//! L009 fixture: a marked hot region that hits the global allocator on
//! every candidate — fresh `Vec`s, formatted labels, and clones inside
//! the loop instead of a fixed-size buffer hoisted out of it.

pub fn score_candidates(cells: &[(usize, usize)]) -> f64 {
    let mut best = f64::INFINITY;
    // lint: hot
    for &(rows, cols) in cells {
        let lanes: Vec<f64> = Vec::new();
        let label = format!("{rows}x{cols}");
        let copy = label.clone();
        let score = (rows.max(cols).max(lanes.len().max(copy.len()))) as f64;
        if score < best {
            best = score;
        }
    }
    // lint: hot end
    best
}
