//! `mcpat-lint` command-line entry point.
//!
//! ```text
//! cargo lint                              # alias; human-readable, exit 1 on violations
//! cargo run -p mcpat-lint -- --json       # JSON report on stdout
//! cargo run -p mcpat-lint -- --out f.json # also write the JSON report to f.json
//! cargo run -p mcpat-lint -- --sarif f    # also write a SARIF 2.1.0 report to f
//! cargo run -p mcpat-lint -- --deny-warnings # exit 1 on warnings too (unused allows)
//! cargo run -p mcpat-lint -- --root DIR   # lint a different workspace root
//! ```
//!
//! Exit codes: 0 clean, 1 violations found (warnings count only under
//! `--deny-warnings`), 2 usage or I/O error.

use std::path::PathBuf;

struct Options {
    json: bool,
    out: Option<PathBuf>,
    sarif: Option<PathBuf>,
    deny_warnings: bool,
    root: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        out: None,
        sarif: None,
        deny_warnings: false,
        root: mcpat_lint::default_root(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // `cargo lint` is an alias ending in `--`, so `cargo lint -- --json`
            // hands us a literal separator; swallow it.
            "--" => {}
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--out" => {
                let path = it.next().ok_or("--out requires a file path")?;
                opts.out = Some(PathBuf::from(path));
            }
            "--sarif" => {
                let path = it.next().ok_or("--sarif requires a file path")?;
                opts.sarif = Some(PathBuf::from(path));
            }
            "--root" => {
                let path = it.next().ok_or("--root requires a directory path")?;
                opts.root = PathBuf::from(path);
            }
            "--help" | "-h" => {
                return Err(String::from(
                    "usage: mcpat-lint [--json] [--out FILE] [--sarif FILE] \
                     [--deny-warnings] [--root DIR]",
                ))
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let report = match mcpat_lint::lint_workspace(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "mcpat-lint: cannot read workspace at {}: {e}",
                opts.root.display()
            );
            std::process::exit(2);
        }
    };

    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("mcpat-lint: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    if let Some(path) = &opts.sarif {
        if let Err(e) = std::fs::write(path, report.to_sarif()) {
            eprintln!("mcpat-lint: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }

    if opts.json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }

    let fail = report.has_errors() || (opts.deny_warnings && !report.findings.is_empty());
    std::process::exit(i32::from(fail));
}
