//! The "Tool speed" section of EXPERIMENTS.md, rendered from a
//! `benchline` JSON (`BENCH_toolspeed.json`), so the prose numbers are
//! regenerated from the measurements instead of copied by hand:
//!
//! ```text
//! cargo run --release -p mcpat-bench --bin benchline -- --render BENCH_toolspeed.json
//! ```
//!
//! A unit test keeps the committed EXPERIMENTS.md section equal to the
//! rendering of the committed JSON.

use serde_json::Value;
use std::fmt::Write as _;

/// The section heading; the rendering starts with it.
pub const HEADING: &str = "## Tool speed (the paper's \"fast\" claim)";

/// Table rows: label and the `benchmarks` entries it covers (several
/// entries share one cell, joined by " / ").
const ROWS: [(&str, &[&str]); 9] = [
    (
        "array solve, 32 KB / 2 MB / 16 MB",
        &["array_solve_32kb", "array_solve_2mb", "array_solve_16mb"],
    ),
    ("core build (generic OoO)", &["core_build_ooo"]),
    ("chip build, Niagara2", &["chip_build_niagara2"]),
    ("chip build, Tulsa", &["chip_build_tulsa"]),
    (
        "`explore_batch`, 16 candidates",
        &["explore_batch_16_candidates"],
    ),
    (
        "clock bisection, full rebuild per probe",
        &["clock_bisection_full"],
    ),
    (
        "clock bisection, in-place retarget",
        &["clock_bisection_incremental"],
    ),
    ("streaming DSE, 10⁴ candidates", &["dse_10k_candidates"]),
    ("naive DSE, 10³ full builds", &["dse_naive_1k_fullbuild"]),
];

/// Three significant figures (at most four decimals), with thousands
/// separators from 100 up.
fn sig3(x: f64) -> String {
    if !(x.is_finite() && x > 0.0) {
        return format!("{x}");
    }
    let decimals = (2 - x.log10().floor() as i32).clamp(0, 4) as usize;
    if decimals == 0 {
        grouped(x.round() as u64)
    } else {
        format!("{x:.decimals$}")
    }
}

/// An integer with comma thousands separators.
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn num(v: &Value, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number `{}`", path.join(".")))
}

fn text<'a>(v: &'a Value, path: &[&str]) -> Result<&'a str, String> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string `{}`", path.join(".")))
}

/// The cell for one column over several rows: the values joined by
/// " / ", or, for `range`, their span (one value when all agree).
fn cell(values: &[f64], range: bool, fmt: fn(f64) -> String) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match (range, values) {
        (_, [one]) => fmt(*one),
        (true, _) if fmt(lo) == fmt(hi) => fmt(lo),
        (true, _) => format!("{}–{}", fmt(lo), fmt(hi)),
        (false, _) => values
            .iter()
            .map(|&x| fmt(x))
            .collect::<Vec<_>>()
            .join(" / "),
    }
}

fn count(x: f64) -> String {
    grouped(x.round() as u64)
}

/// Renders the section, heading included, from a benchline JSON.
///
/// # Errors
///
/// A field the section quotes is missing from `bench`.
pub fn render(bench: &Value) -> Result<String, String> {
    let benchmarks = bench
        .get("benchmarks")
        .and_then(Value::as_seq)
        .ok_or("missing `benchmarks`")?;
    let row = |name: &str| -> Result<&Value, String> {
        benchmarks
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("missing benchmark `{name}`"))
    };
    let mut s = String::new();
    let _ = writeln!(s, "{HEADING}\n");
    let _ = writeln!(
        s,
        "Rendered by `benchline --render BENCH_toolspeed.json` from the\n\
         committed JSON, a benchline {} run at revision `{}`{},\n\
         median of {} reps per mode, host label `{}`. *Serial* runs one\n\
         thread with the solve cache off, *parallel* the default thread count\n\
         with the cache off, *warm* the default thread count with the cache\n\
         populated.\n\
         Allocations are heap allocations of one run.\n",
        match bench.get("quick").and_then(Value::as_bool) {
            Some(false) => "full",
            _ => "`--quick`",
        },
        text(bench, &["revision"])?,
        match text(bench, &["worktree"])? {
            "clean" => "",
            "modified" => " plus uncommitted changes",
            _ => " (working tree state unknown)",
        },
        num(bench, &["reps_per_mode"])?,
        text(bench, &["host", "label"])?,
    );
    let _ = writeln!(
        s,
        "| Row | serial ms | parallel ms | warm ms | allocs serial / warm |\n\
         |---|---:|---:|---:|---:|"
    );
    for (label, names) in ROWS {
        let rows = names
            .iter()
            .map(|n| row(n))
            .collect::<Result<Vec<_>, _>>()?;
        let column = |key: &str| -> Result<Vec<f64>, String> {
            rows.iter().map(|r| num(r, &[key])).collect()
        };
        let allocs = |key: &str| -> Result<String, String> { Ok(cell(&column(key)?, true, count)) };
        let _ = writeln!(
            s,
            "| {label} | {} | {} | {} | {} / {} |",
            cell(&column("serial_ms")?, false, sig3),
            cell(&column("parallel_ms")?, false, sig3),
            cell(&column("warm_cache_ms")?, true, sig3),
            allocs("allocs_serial")?,
            allocs("allocs_warm")?,
        );
    }
    let dse = |key: &str| num(bench, &["dse", key]);
    let serve = |key: &str| num(bench, &["serve", key]);
    let speedup = |key: &str| num(bench, &["speedups", key]);
    let pool = |key: &str| num(bench, &["pool", key]);
    let chip_builds = |key: &str| -> Result<String, String> {
        let values = ["chip_build_niagara2", "chip_build_tulsa"]
            .iter()
            .map(|n| num(row(n)?, &[key]))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(cell(&values, true, sig3))
    };
    let _ = write!(
        s,
        "\nThe streaming DSE engine prunes {:.0}% of the 10⁴ candidates (gated\n\
         ≥ {:.1}%) and retires {} candidates/s serial against {} for the naive\n\
         build-every-candidate loop ({}x; gated ≥ {}x), at {:.2} allocations\n\
         per candidate (gated ≤ {}). A 10⁵-candidate sweep takes {} ms at the\n\
         default thread count. A serve request takes {} ms against a warm\n\
         shared cache and {} ms cold ({}x; gated ≥ {}x). A warm Niagara2 build\n\
         wakes the worker pool {} times (gated ≤ {}). Incremental bisection\n\
         is {}x faster than rebuilding per probe, a warm chip build {}x faster\n\
         than a cold one, and the parallel build {}x faster than the serial one\n\
         on this `{}` host. Whole-chip power, area and timing in {} ms cold, or\n\
         {} ms warm (the Niagara2 and Tulsa rows), is McPAT's fast-exploration\n\
         pitch.\n",
        dse("prune_rate")? * 100.0,
        dse("min_allowed_prune_rate")? * 100.0,
        count(dse("candidates_per_sec_serial")?),
        count(dse("naive_candidates_per_sec_serial")?),
        sig3(dse("streaming_vs_naive_speedup")?),
        dse("min_allowed_streaming_speedup")?,
        dse("allocs_per_candidate")?,
        dse("max_allowed_allocs_per_candidate")?,
        sig3(dse("sweep_100k_wall_ms")?),
        sig3(serve("warm_request_ms")?),
        sig3(serve("cold_request_ms")?),
        sig3(serve("warm_vs_cold_speedup")?),
        serve("min_allowed_speedup")?,
        pool("warm_niagara2_build_wakeups")?,
        pool("max_allowed")?,
        sig3(speedup("bisection_incremental_vs_full")?),
        sig3(speedup("chip_build_warm_cache_vs_cold")?),
        sig3(speedup("chip_build_parallel_vs_serial")?),
        text(bench, &["host", "label"])?,
        chip_builds("serial_ms")?,
        chip_builds("warm_cache_ms")?,
    );
    Ok(s)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_three_significant_figures() {
        assert_eq!(sig3(0.1069), "0.107");
        assert_eq!(sig3(1.5469), "1.55");
        assert_eq!(sig3(67.195), "67.2");
        assert_eq!(sig3(1601.11), "1,601");
        assert_eq!(sig3(0.0005), "0.0005");
        assert_eq!(count(148_821.0), "148,821");
        assert_eq!(cell(&[0.0005, 0.0006, 0.0006], true, sig3), "0.0005–0.0006");
        assert_eq!(cell(&[2.0, 2.0], true, count), "2");
        assert_eq!(cell(&[0.107, 0.073], false, sig3), "0.107 / 0.0730");
    }

    /// EXPERIMENTS.md quotes the committed JSON through `render`, never
    /// by hand: its section must equal the rendering byte for byte.
    #[test]
    fn experiments_md_tool_speed_section_is_rendered_from_the_committed_json() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let json = std::fs::read_to_string(root.join("BENCH_toolspeed.json")).unwrap();
        let rendered = render(&serde_json::from_str(&json).unwrap()).unwrap();
        let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
        let start = doc.find(HEADING).expect("Tool speed heading");
        let len = doc[start..].find("\n---").expect("section end");
        assert_eq!(
            doc[start..start + len].trim_end(),
            rendered.trim_end(),
            "regenerate with `benchline --render BENCH_toolspeed.json`"
        );
    }
}
