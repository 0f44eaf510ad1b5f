//! `gm-check` — run the workspace lints and exit non-zero on findings.
//!
//! ```text
//! cargo run -p gm-check              # check this workspace
//! cargo run -p gm-check -- --root D  # check another tree (lint fixtures)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => {
                    eprintln!("gm-check: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: gm-check [--root DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("gm-check: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // Default root: the workspace this binary was built from.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    let files = match gm_check::collect_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("gm-check: reading {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let diags = gm_check::run(&files);
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        eprintln!(
            "gm-check: {} files clean (delegation, lock-order, panic-freedom, atomic-ordering, \
             span-discipline, knobs)",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("gm-check: {} finding(s)", diags.len());
        ExitCode::FAILURE
    }
}
