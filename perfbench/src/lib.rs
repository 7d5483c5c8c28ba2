//! `mcpat-perfbench`: the end-to-end and per-layer benchmark of the
//! mcpat-rs model stack. README.md describes the workloads, the metrics
//! and how to run it.

pub mod dse_sweep;
pub mod eval_cold;
pub mod measure;
pub mod serve_mixed;

use measure::Metrics;
use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EvalCold,
    DseSweep,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::EvalCold, Workload::DseSweep, Workload::ServeMixed];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalCold => "eval_cold",
            Workload::DseSweep => "dse_sweep",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    fn run(self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        match self {
            Workload::EvalCold => eval_cold::run(seed, seconds),
            Workload::DseSweep => dse_sweep::run(seed, seconds),
            Workload::ServeMixed => serve_mixed::run(seed, seconds),
        }
    }

    fn run_traced(self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        match self {
            Workload::EvalCold => eval_cold::run_traced(seed, seconds),
            Workload::DseSweep => dse_sweep::run_traced(seed, seconds),
            Workload::ServeMixed => serve_mixed::run_traced(seed, seconds),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
///
/// # Errors
///
/// A missing, unknown or malformed argument.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, Some(false));
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Every output that failed a correctness check.
    pub mismatches: Vec<String>,
    /// `(workload, digest)` of outputs that do not depend on run length.
    pub digests: Vec<(&'static str, u64)>,
    /// Lines printed before the result line (the host index and the
    /// unscaled figures).
    pub notes: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.0.extend(other.metrics.0);
        self.mismatches.extend(other.mismatches);
        self.digests.extend(other.digests);
        self.notes.extend(other.notes);
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics` (name → value and unit).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_owned()
            };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Runs the benchmark. With tracing off, the named workload runs alone
/// and reports the end-to-end metrics. With tracing on, every workload
/// runs its traced pass for a third of the time, starting with the named
/// one, since the per-layer metrics span all three.
///
/// # Errors
///
/// Anything that stops a workload from completing; output mismatches are
/// reported in the [`Outcome`] instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if !args.trace {
        return args.workload.run(args.seed, args.seconds);
    }
    let mut order = vec![args.workload];
    order.extend(Workload::ALL.into_iter().filter(|&w| w != args.workload));
    let mut all = Outcome::default();
    for w in order {
        all.absorb(w.run_traced(args.seed, args.seconds / 3.0)?);
    }
    Ok(all)
}
