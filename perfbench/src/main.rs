//! `perfbench --workload <eval_cold|dse_sweep|serve_mixed> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints, as the
//! last line of standard output, one JSON object with the metrics.
//! Exits 1 when an output is wrong or the run cannot complete.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perfbench::parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&args) {
        Ok(outcome) => {
            for (workload, digest) in &outcome.digests {
                println!("digest {workload} {digest:016x}");
            }
            for note in &outcome.notes {
                println!("{note}");
            }
            for m in &outcome.mismatches {
                eprintln!("perfbench: MISMATCH {m}");
            }
            println!("{}", outcome.to_json());
            if outcome.mismatches.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
