//! `compare A.json B.json`: the fixed bounds applied per (metric, workload),
//! and `spread SET.json...`: how far runs of one commit sit apart.
//!
//! Each file is a set document, or a ledger entry holding several under
//! `"sets"`. A side's value is the median over its sets; its spread is the
//! quartile distance over its sets as a share of that median — the driver's
//! statistic — and unknown (taken as 0) when it holds a single set.

use std::process::ExitCode;

use graphmark::model::json::Json;

use crate::metrics::{self, Better, Def};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// The run-to-run spread is wider than the bound: not unchanged, unknown.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against the baseline `a`. Returns the verdict and by what share
/// of the baseline `b` is worse (negative when better).
pub fn judge(def: &Def, a: Side, b: Side) -> (Verdict, f64) {
    let bound = def.bound.unwrap_or(0.0);
    let change = (b.value - a.value) / a.value;
    let worse_by = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

fn sets(doc: &Json) -> Vec<&Json> {
    match doc.get("sets").and_then(Json::as_arr) {
        Some(sets) => sets.iter().collect(),
        None => vec![doc],
    }
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    side_of(&sets(doc), workload, metric)
}

fn side_of(sets: &[&Json], workload: &str, metric: &str) -> Option<Side> {
    let values: Vec<f64> = sets
        .iter()
        .filter_map(|s| {
            let m = s.get("workloads")?.get(workload)?.get("metrics")?;
            m.get(metric)?.get("value")?.as_float()
        })
        .collect();
    let value = median(&values)?;
    Some(Side {
        value,
        spread: spread(&values).unwrap_or(0.0),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print one row per workload and metric; fail when anything got worse.
pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    for doc in [&a, &b] {
        if sets(doc)
            .iter()
            .any(|s| s.get("comparable").and_then(Json::as_bool) == Some(false))
        {
            eprintln!("a --quick set is not comparable");
            return ExitCode::from(2);
        }
    }
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut worse = 0;
    for w in &WORKLOADS {
        for def in metrics::end_to_end() {
            let (Some(sa), Some(sb)) = (side(&a, w.name, &def.name), side(&b, w.name, &def.name))
            else {
                println!("{:<12} {:<14} missing on one side", w.name, def.name);
                continue;
            };
            let (verdict, worse_by) = judge(&def, sa, sb);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<12} {:<14} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}{}",
                w.name,
                def.name,
                sa.value,
                sb.value,
                worse_by * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.name(),
                if verdict == Verdict::Unresolved {
                    format!(" (spread {:.0}%)", sa.spread.max(sb.spread) * 100.0)
                } else {
                    String::new()
                }
            );
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{worse} (metric, workload) pairs got worse by more than their bound");
        ExitCode::FAILURE
    }
}

/// Print, per workload and end-to-end metric, the median and the spread over
/// the given sets (one run per seed, say) beside the metric's bound; fail
/// when a spread is wider than its bound.
pub fn spreads(paths: &[String]) -> ExitCode {
    let docs: Vec<Json> = match paths.iter().map(|p| load(p)).collect() {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let all: Vec<&Json> = docs.iter().flat_map(sets).collect();
    let mut wide = 0;
    for w in &WORKLOADS {
        for def in metrics::end_to_end() {
            let Some(s) = side_of(&all, w.name, &def.name) else {
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            wide += usize::from(s.spread > bound);
            println!(
                "{:<12} {:<14} median {:>14.4}  spread {:>6.2}%  bound {:>3.0}%{}",
                w.name,
                def.name,
                s.value,
                s.spread * 100.0,
                bound * 100.0,
                match s.spread {
                    x if x > bound => "  > BOUND",
                    x if x > bound / 3.0 => "  > bound/3",
                    _ => "",
                }
            );
        }
    }
    if wide == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{wide} (metric, workload) pairs spread wider than their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better) -> Def {
        Def {
            name: "m".into(),
            unit: "us".into(),
            better,
            bound: Some(0.10),
        }
    }

    fn steady(value: f64) -> Side {
        Side {
            value,
            spread: 0.02,
        }
    }

    #[test]
    fn direction_decides_which_change_is_worse() {
        let (v, by) = judge(&def(Better::Lower), steady(100.0), steady(120.0));
        assert_eq!(v, Verdict::Worse);
        assert!((by - 0.20).abs() < 1e-12);
        assert_eq!(
            judge(&def(Better::Higher), steady(100.0), steady(120.0)).0,
            Verdict::Better
        );
        assert_eq!(
            judge(&def(Better::Higher), steady(100.0), steady(80.0)).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&def(Better::Lower), steady(100.0), steady(105.0)).0,
            Verdict::Same
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = Side {
            value: 100.0,
            spread: 0.30,
        };
        assert_eq!(
            judge(&def(Better::Lower), steady(100.0), noisy).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&def(Better::Lower), noisy, steady(200.0)).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn sides_come_from_one_set_or_a_ledger_of_sets() {
        let set = |v: f64| {
            format!(
                r#"{{"workloads":{{"micro":{{"metrics":{{"ops_per_s":{{"value":{v},"unit":"ops/s"}}}}}}}}}}"#
            )
        };
        let one = Json::parse(&set(100.0)).unwrap();
        assert_eq!(
            side(&one, "micro", "ops_per_s"),
            Some(Side {
                value: 100.0,
                spread: 0.0
            })
        );
        let ledger =
            Json::parse(&format!(r#"{{"sets":[{},{}]}}"#, set(100.0), set(110.0))).unwrap();
        let s = side(&ledger, "micro", "ops_per_s").unwrap();
        assert!((s.value - 105.0).abs() < 1e-12);
        // Two values: the exclusive quartiles sit 1.5 ranges apart.
        assert!((s.spread - 15.0 / 105.0).abs() < 1e-12);
        assert_eq!(side(&one, "micro", "p50_us"), None);
    }
}
