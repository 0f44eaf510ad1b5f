//! The repo benchmark: six workloads measured end to end, a layer ladder,
//! and a correctness gate, in one command. See `benchmark/README.md`.

mod compare;
mod gate;
mod metrics;
mod probe;
mod record;
mod report;
mod round;
mod spans;
mod stack;
mod stats;
mod sys;
mod workloads;

use std::process::ExitCode;

use workloads::{Spec, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};

fn usage() -> String {
    format!(
        "{USAGE}\nseeds: {DEFAULT_SEED} by default; {HELD_OUT_SEED} is held out for checking a claim on inputs it was not tuned on"
    )
}

const USAGE: &str = "\
usage: run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--quick] [--out F]
       run.sh compare A.json B.json
       run.sh spread SET.json SET.json...

Without --workload every workload runs, each in its own process, and the
set is written to --out (default benchmark/out/set.json).
workloads: micro local_scan snap_mixed shard_mixed wire_point fleet_write";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 12.0,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => a.out = Some(value("a path")?),
            "--quick" => a.quick = true,
            // Bare `--trace` means 1; the driver always passes 0 or 1.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    let result = if args.trace {
        report::traced(spec, args)
    } else {
        report::untraced(spec, args)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[{}] failed: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    report.print_human();
    if let Some(path) = &args.out {
        if let Err(e) = report::write_file(path, &report.document().to_pretty_string()) {
            eprintln!("[{}] cannot write {path}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    }
    // The contract's result line, last on standard output.
    println!("{}", report.contract_line().to_compact_string());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        for v in &report.violations {
            eprintln!("[{}] GATE: {v}", spec.name);
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => {
            return match argv.as_slice() {
                [_, a, b] => compare::run(a, b),
                _ => {
                    eprintln!("{}", usage());
                    ExitCode::from(2)
                }
            }
        }
        Some("spread") if argv.len() > 2 => return compare::spreads(&argv[1..]),
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => match workloads::find(name) {
            Some(spec) => run_one(spec, &args),
            None => {
                eprintln!("unknown workload {name}\n{}", usage());
                ExitCode::from(2)
            }
        },
        None => report::run_set(&WORKLOADS, &args),
    }
}
