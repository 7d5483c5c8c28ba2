//! `cancel_all` bumps the process-global cancel generation, which
//! cancels every budget alive in the process. Run next to the unit
//! tests, it would cancel the budgets their parallel threads hold, so
//! it lives in its own test binary and therefore its own process.

use mcpat_obs::guard::{cancel_all, Budget};

#[test]
fn cancel_all_hits_live_budgets_only() {
    let before = Budget::unbounded();
    cancel_all();
    let after = Budget::unbounded();
    assert!(before.is_cancelled());
    assert!(!after.is_cancelled());
}
