//! The metric tables: every name the benchmark reports, with its unit and
//! direction, and for end-to-end metrics the regression bound. They are
//! stated once, in `BENCHMARK.json` at the repo root, which is compiled in.

use graphmark::model::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

fn manifest() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn table(key: &str) -> Vec<Def> {
    let text = |j: &Json, field: &str| -> String {
        j.get(field)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a {key} metric lacks {field}"))
            .to_string()
    };
    manifest()
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|j| Def {
            name: text(j, "name"),
            unit: text(j, "unit"),
            better: match text(j, "better").as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => panic!("BENCHMARK.json: better is {other}"),
            },
            bound: j.get("bound").and_then(Json::as_float),
        })
        .collect()
}

/// What a user of the system sees, measured with tracing off.
pub fn end_to_end() -> Vec<Def> {
    table("end_to_end")
}

/// One layer each, from the traced run. Layers are the crate names.
pub fn per_layer() -> Vec<Def> {
    table("per_layer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_names_the_workloads_and_every_metric_once() {
        let m = manifest();
        let listed = m
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (j, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
        }
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!(e2e.iter().all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(layers.iter().all(|d| d.bound.is_none()));
        let mut names: Vec<String> = e2e.iter().chain(&layers).map(|d| d.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), e2e.len() + layers.len());
    }
}
