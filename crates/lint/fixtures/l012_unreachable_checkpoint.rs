//! L012 fixture: a sweep whose solver call *resolves* in the call
//! graph — and the resolved callee provably never reaches an
//! `mcpat_obs::guard` checkpoint. Unlike L008 (opaque callee, syntactic
//! fallback) this is hard interprocedural evidence.

pub struct Candidate {
    pub width: f64,
}

/// Resolvable but checkpoint-free: two frames of pure arithmetic.
pub fn build_inner(width: f64) -> f64 {
    width * 2.0 + 1.0
}

pub fn build(c: &Candidate) -> f64 {
    build_inner(c.width)
}

pub fn sweep(candidates: &[Candidate]) -> f64 {
    let mut best = f64::INFINITY;
    // BAD (L012): `build` resolves to the fn above, which never calls
    // check()/budget_check() — a deadline cannot interrupt this loop.
    for c in candidates {
        let score = build(c);
        if score < best {
            best = score;
        }
    }
    best
}
