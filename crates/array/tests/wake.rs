#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! The optimizer's pool wake: joins queue their branches quietly, and a
//! real array solve announces them, so a cold build still fans out.
//!
//! The only test in its binary: it reads the process-global pool
//! counters and needs the worker parked when the solve starts.

use mcpat_array::{memo, ArraySpec, OptTarget};
use mcpat_tech::{DeviceType, TechNode, TechParams};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[test]
fn a_real_solve_hands_queued_join_branches_to_a_worker() {
    let tech = TechParams::new(TechNode::N45, DeviceType::Hp, 360.0);
    // 32 KB stays under the solver's own fan-out threshold, so any
    // wake-up below comes from the optimizer's entry, not a `par_map`.
    let spec = ArraySpec::ram(32 * 1024, 64);
    memo::set_enabled(false);
    mcpat_par::set_thread_override(2);
    // Spawn the worker and let it park.
    mcpat_par::join2(|| (), || ()).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let me = std::thread::current().id();
    let taken = AtomicBool::new(false);
    let before = mcpat_par::pool::stats();
    let (solved, other) = mcpat_par::join2(
        || {
            let solved = spec.solve(&tech, OptTarget::EnergyDelay);
            // Hold the caller until the worker has the queued branch
            // (bounded, so a lost hand-off fails instead of hanging).
            let start = Instant::now();
            while !taken.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(5) {
                std::thread::yield_now();
            }
            solved
        },
        || {
            taken.store(true, Ordering::SeqCst);
            std::thread::current().id()
        },
    )
    .unwrap();
    let after = mcpat_par::pool::stats();
    mcpat_par::set_thread_override(0);
    memo::set_auto();

    solved.unwrap();
    assert!(
        after.wakeups > before.wakeups,
        "the solve must announce the queued branch: {before:?} -> {after:?}"
    );
    assert_ne!(other, me, "a worker, not the caller, ran the queued branch");
}
