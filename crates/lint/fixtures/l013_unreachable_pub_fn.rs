//! L013 fixture: every `pub fn` must be reachable from an entry point
//! (a binary's `main`, an example, perfbench, or a trait item). Lines
//! marked BAD are the only L013 findings.

pub struct Point {
    pub x: f64,
}

impl Point {
    /// Reached only as a fn-path value handed to `map`.
    pub fn from_raw(x: f64) -> Point {
        Point { x }
    }
}

/// Reached only from a trait-impl method, which dispatch reaches.
pub fn describe(p: &Point) -> String {
    format!("({})", p.x)
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&describe(self))
    }
}

// lint: allow(L013, fixture demonstrates suppression)
pub fn integration_seam() {}

// BAD (L013): nothing calls it.
pub fn orphan() -> f64 {
    1.0
}

// BAD (L013): its only caller is itself.
pub fn countdown(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        countdown(n - 1)
    }
}

// A pattern binding (`let Some(active) =`) passes nothing.
// BAD (L013): its name appears only in a pattern.
pub fn active() -> bool {
    true
}

/// A private fn is not public API: never an L013 finding.
fn helper() -> f64 {
    2.0
}

fn main() {
    let points: Vec<Point> = [1.0, helper()].into_iter().map(Point::from_raw).collect();
    for p in &points {
        println!("{p}");
    }
    let Some(active) = points.first() else { return };
    println!("{active}");
}
