#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Concurrent cold builds on the shared pool and solve cache.
//!
//! Several threads build overlapping sets of chips at once against a
//! cleared solve cache, so the same array keys are requested while
//! their first solve is still in flight, and threads helping the pool
//! pick up each other's tasks mid-solve. Every round must finish, and
//! every chip must be bit-identical to a serial build. A round that
//! does not finish within its time limit fails the test instead of
//! hanging it.

use std::sync::mpsc;
use std::time::Duration;

use mcpat::array::memo;
use mcpat::{Processor, ProcessorConfig};

/// Rounds of concurrent cold builds.
const ROUNDS: usize = 60;

/// Threads building at once in each round.
const BUILDERS: usize = 3;

/// Generous per-round limit: a round normally takes milliseconds.
const ROUND_LIMIT: Duration = Duration::from_secs(60);

fn presets() -> Vec<ProcessorConfig> {
    vec![
        ProcessorConfig::niagara(),
        ProcessorConfig::niagara2(),
        ProcessorConfig::alpha21364(),
        ProcessorConfig::tulsa(),
    ]
}

/// The chip's report minus its build-statistics line (thread count and
/// cache traffic legitimately differ between runs).
fn report(chip: &Processor) -> String {
    chip.report()
        .lines()
        .filter(|line| !line.trim_start().starts_with("Build:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn concurrent_cold_builds_always_finish_bit_identical() {
    mcpat::par::set_thread_override(1);
    memo::set_enabled(false);
    let reference: Vec<String> = presets()
        .iter()
        .map(|cfg| report(&Processor::build(cfg).unwrap()))
        .collect();

    mcpat::par::set_thread_override(4);
    memo::set_enabled(true);
    for round in 0..ROUNDS {
        memo::clear();
        let (tx, rx) = mpsc::channel();
        for builder in 0..BUILDERS {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let configs = presets();
                // Each builder walks the presets from a different start,
                // so every key is requested by several threads at once.
                let reports: Vec<(usize, String)> = (0..configs.len())
                    .map(|k| {
                        let i = (k + builder + round) % configs.len();
                        (i, report(&Processor::build(&configs[i]).unwrap()))
                    })
                    .collect();
                let _ = tx.send(reports);
            });
        }
        drop(tx);
        for _ in 0..BUILDERS {
            let reports = rx
                .recv_timeout(ROUND_LIMIT)
                .unwrap_or_else(|e| panic!("round {round}: builders did not finish: {e}"));
            for (i, got) in reports {
                assert_eq!(got, reference[i], "round {round}: preset {i} differs");
            }
        }
    }
    mcpat::par::set_thread_override(0);
    memo::set_auto();
}
