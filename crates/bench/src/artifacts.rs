//! The paper's tables and figures as one table.
//!
//! Every artifact is one [`Artifact`] row: its name on the `reproduce`
//! command line, its title, the datasets it reads, what it runs and how it
//! renders, and the paper's expected shape, as data. A [`Harness`] runs any
//! subset of [`ARTIFACTS`]: it generates each dataset the subset reads once,
//! and runs the full Freebase suite once, in the union of the run modes its
//! [`Render::Suite`] rows ask for.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::time::Instant;

use gm_core::catalog::QueryId;
use gm_core::complex::{self, ComplexParams, ComplexQuery};
use gm_core::params::Workload;
use gm_core::report::{Outcome, Report, RunMode};
use gm_core::runner::{BenchConfig, Runner};
use gm_core::{summary, QueryInstance};
use gm_datasets::stats::{dataset_stats, render_table};
use gm_datasets::DatasetId::{self, FrbL, FrbM, FrbO, FrbS, Ldbc, Mico};
use gm_model::api::LoadOptions;
use gm_model::{graphson, Dataset, GdbError, QueryCtx};
use graphmark::registry::EngineKind;

use crate::{instances_for, run_queries, DataBank, Env};

/// One table or figure of the paper.
pub struct Artifact {
    /// Name on the `reproduce` command line.
    pub name: &'static str,
    /// Heading printed above the output.
    pub title: &'static str,
    /// Every dataset it reads.
    pub datasets: &'static [DatasetId],
    /// What it runs and prints.
    pub render: Render,
    /// The paper's expected shape, printed under the output ("" = none).
    pub expected: &'static str,
}

/// How an artifact produces its output.
pub enum Render {
    /// Query panels run in isolation mode: for each of the artifact's
    /// datasets in order, one queries × engines matrix per panel covering it.
    Panels(&'static [Panel]),
    /// A renderer over the full suite — every Table 2 query on every engine
    /// and Freebase sample — run in these modes.
    Suite(
        &'static [RunMode],
        fn(&Harness, &Report, &mut String) -> fmt::Result,
    ),
    /// A renderer that runs what it needs itself.
    Custom(fn(&Harness, &mut String) -> fmt::Result),
}

/// One matrix of a figure.
pub struct Panel {
    /// Heading of each of its matrices (the dataset is appended).
    pub title: &'static str,
    /// Datasets it runs on.
    pub datasets: &'static [DatasetId],
    /// Query instances, in row order.
    pub queries: &'static [Queries],
    /// Build the attribute index before querying.
    pub with_index: bool,
}

/// Query instances of a panel.
pub enum Queries {
    /// The queries numbered in this inclusive range.
    Range(u8, u8),
    /// One query at each BFS depth of this inclusive range.
    Depths(QueryId, u8, u8),
}

impl Panel {
    fn instances(&self) -> Vec<QueryInstance> {
        let mut out = Vec::new();
        for q in self.queries {
            match *q {
                Queries::Range(lo, hi) => out.extend(instances_for(lo..=hi)),
                Queries::Depths(id, lo, hi) => out.extend((lo..=hi).map(|d| QueryInstance {
                    id,
                    depth: Some(d),
                    k: None,
                })),
            }
        }
        out
    }
}

const FRB: &[DatasetId] = &DatasetId::FREEBASE;
const LDBC: &[DatasetId] = &[Ldbc];

const fn panel(
    title: &'static str,
    datasets: &'static [DatasetId],
    queries: &'static [Queries],
) -> Panel {
    Panel {
        title,
        datasets,
        queries,
        with_index: false,
    }
}

/// Every artifact, in the order `reproduce all` runs them.
pub static ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "table1",
        title: "Table 1 — features and characteristics of the tested systems",
        datasets: &[],
        render: Render::Custom(table1),
        expected: "",
    },
    Artifact {
        name: "table2",
        title: "Table 2 — the test queries by category, with their Gremlin 2.6 text",
        datasets: &[],
        render: Render::Custom(table2),
        expected: "",
    },
    Artifact {
        name: "table3",
        title: "Table 3 — dataset characteristics",
        datasets: &DataBank::ORDER,
        render: Render::Custom(table3),
        expected: "Frb samples fragmented & modular; ldbc single component with edge \
                   properties; MiCo/Frb sparse; Yeast/ldbc denser.",
    },
    Artifact {
        name: "fig1_space",
        title: "Figure 1(a, b) — space occupancy per engine and dataset",
        datasets: &[FrbO, FrbM, FrbL, FrbS, Ldbc, Mico],
        render: Render::Custom(fig1_space),
        expected: "columnar smallest on Frb (delta encoding); triple ≈ 3× everyone (three \
                   B+Trees + fixed-extent journal); cluster competitive on ldbc (value \
                   dictionary) but penalized on Frb-S (per-label cluster metadata).",
    },
    Artifact {
        name: "fig3_load",
        title: "Figure 3(a) — data loading time, with the bulk-load ablation",
        datasets: &DataBank::ORDER,
        render: Render::Custom(fig3_load),
        expected: "document/linked fastest; cluster sensitive to |L| (frb-s); triple \
                   orders slower without bulk loading.",
    },
    Artifact {
        name: "fig2_complex",
        title: "Figure 2 — complex queries on ldbc (ms)",
        datasets: LDBC,
        render: Render::Custom(fig2_complex),
        expected: "relational fastest on city/company/university (single-label \
                   conditional joins) and slowest on places (multi-label traversal with \
                   large intermediates); triple times out; native engines dominate \
                   friend-of-friend and triangle.",
    },
    Artifact {
        name: "fig3_cud",
        title: "Figure 3(b, c) — insertions, updates and deletions",
        datasets: FRB,
        render: Render::Panels(&[
            panel(
                "Figure 3(b) — insertions Q2–Q7",
                FRB,
                &[Queries::Range(2, 7)],
            ),
            panel(
                "Figure 3(c) — updates/deletions Q16–Q21",
                FRB,
                &[Queries::Range(16, 21)],
            ),
        ]),
        expected: "bitmap/document/linked(v1) fastest CUD; linked(v2) pays the wrapper \
                   shim; columnar slowest on inserts (consistency checks + schema \
                   inference) but competitive on deletes (tombstones); relational fast on \
                   Q2 but slow when a new column forces an ALTER TABLE (Q5/Q6).",
    },
    Artifact {
        name: "fig4_read",
        title: "Figure 4 — selections, id search, and Q11 with an attribute index",
        datasets: FRB,
        render: Render::Panels(&[
            panel(
                "Figure 4(a) — selections Q8–Q13",
                FRB,
                &[Queries::Range(8, 13)],
            ),
            panel(
                "Figure 4(b) — id search Q14–Q15",
                FRB,
                &[Queries::Range(14, 15)],
            ),
            Panel {
                with_index: true,
                ..panel(
                    "Figure 4(c) — Q11 with attribute index",
                    FRB,
                    &[Queries::Range(11, 11)],
                )
            },
        ]),
        expected: "bitmap fastest counts; document slowest whole-graph reads \
                   (materializes every document); relational an order faster on Q11–Q13; \
                   the index helps linked/cluster/relational by orders of magnitude but \
                   changes nothing for bitmap and document. (The paper also has Titan gain \
                   from it; our columnar engine only records the declaration and scans \
                   either way — a fidelity gap listed in ROADMAP.)",
    },
    Artifact {
        name: "fig5_traverse",
        title: "Figure 5 — neighborhoods and degree filters",
        datasets: FRB,
        render: Render::Panels(&[
            panel(
                "Figure 5(a) — neighborhood Q22–Q27",
                FRB,
                &[Queries::Range(22, 27)],
            ),
            panel(
                "Figure 5(b) — degree filters Q28–Q31",
                FRB,
                &[Queries::Range(28, 31)],
            ),
        ]),
        expected: "cluster/linked/document lead Q22–Q27; relational slowest unless \
                   label-filtered (Q24); linked best on Q28–Q31 with bitmap failing on the \
                   larger Freebase samples.",
    },
    Artifact {
        name: "fig6_bfs",
        title: "Figure 6 — breadth-first traversal",
        datasets: FRB,
        render: Render::Panels(&[panel(
            "Figure 6 — BFS Q32 at depths 2–5",
            FRB,
            &[Queries::Depths(QueryId::Q32, 2, 5)],
        )]),
        expected: "linked scales best across depths; cluster and columnar(v10) second at \
                   depth 2 with cluster edging ahead at depth ≥ 3; relational and bitmap \
                   slowest.",
    },
    Artifact {
        name: "fig7_paths",
        title: "Figure 7(a, b) — shortest paths and label-constrained BFS",
        datasets: &[FrbS, FrbO, FrbM, FrbL, Ldbc],
        // On Freebase the label filter empties after one hop (§6.4), so the
        // labelled queries run on ldbc.
        render: Render::Panels(&[
            panel(
                "Figure 7(a) — shortest path Q34",
                FRB,
                &[Queries::Range(34, 34)],
            ),
            panel(
                "Figure 7(b) — labeled BFS Q33 (d2–5) + SP Q35",
                LDBC,
                &[Queries::Depths(QueryId::Q33, 2, 5), Queries::Range(35, 35)],
            ),
        ]),
        expected: "linked fastest; bitmap second on labeled BFS (bitmap AND); \
                   columnar(v10) second on labeled shortest path; relational slowest (joins \
                   over every edge table).",
    },
    Artifact {
        name: "fig1_timeouts",
        title: "Figure 1(c) — non-completions over the full suite (Frb-S/O/M/L)",
        datasets: FRB,
        render: Render::Suite(&[RunMode::Isolation, RunMode::Batch], fig1_timeouts),
        expected: "linked completes everything; triple collects the most non-completions; \
                   bitmap fails the degree filters on the larger Freebase samples (resource \
                   exhaustion).",
    },
    Artifact {
        name: "fig7_overall",
        title: "Figure 7(c, d) — total completed time, single and batch executions",
        datasets: FRB,
        render: Render::Suite(&[RunMode::Isolation, RunMode::Batch], fig7_overall),
        expected: "",
    },
    Artifact {
        name: "table4",
        title: "Table 4 — evaluation summary (✓ near-best · ⚠ slow/problems · blank mid)",
        datasets: FRB,
        render: Render::Suite(&[RunMode::Isolation], table4),
        expected: "",
    },
];

/// The artifact of that name.
pub fn find(name: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.name == name)
}

/// Runs artifacts over datasets generated once.
pub struct Harness {
    env: Env,
    bank: DataBank,
    suite_modes: Vec<RunMode>,
    suite: OnceCell<Report>,
}

impl Harness {
    /// A harness for these artifacts: generates every dataset they read.
    pub fn new(env: Env, artifacts: &[&Artifact]) -> Harness {
        let mut ids = Vec::new();
        let mut suite_modes = Vec::new();
        for a in artifacts {
            ids.extend_from_slice(a.datasets);
            if let Render::Suite(modes, _) = a.render {
                for mode in modes {
                    if !suite_modes.contains(mode) {
                        suite_modes.push(*mode);
                    }
                }
            }
        }
        let bank = DataBank::generate(&env, &ids);
        Harness {
            env,
            bank,
            suite_modes,
            suite: OnceCell::new(),
        }
    }

    fn data(&self, id: DatasetId) -> &Dataset {
        self.bank.get(id)
    }

    /// The full suite on the Freebase samples, run on first use.
    fn suite(&self) -> &Report {
        self.suite.get_or_init(|| {
            let env = &self.env;
            let mut report = Report::default();
            for id in DatasetId::FREEBASE {
                let data = self.data(id);
                let workload = Workload::choose(data, env.seed, (env.batch as usize).max(16));
                for kind in &env.engines {
                    eprintln!("[suite] {} on {} …", kind.name(), id.name());
                    let factory = move || kind.make();
                    let mut runner = Runner::new(&factory, data, &workload, env.config());
                    report.extend(runner.run_suite(&self.suite_modes));
                }
            }
            report
        })
    }

    /// Run one of the artifacts this harness was built for; returns what it
    /// prints.
    pub fn render(&self, a: &Artifact) -> String {
        let bar = "#".repeat(56);
        let mut out = format!("\n{bar}\n###  {}\n{bar}\n\n=== {} ===\n", a.name, a.title);
        match a.render {
            Render::Panels(panels) => self.panels(a, panels, &mut out),
            Render::Suite(_, render) => render(self, self.suite(), &mut out),
            Render::Custom(render) => render(self, &mut out),
        }
        .expect("formatting into a String cannot fail");
        if !a.expected.is_empty() {
            out.push_str(&format!("\nExpected shape (paper): {}\n", a.expected));
        }
        out
    }

    fn panels(&self, a: &Artifact, panels: &[Panel], out: &mut String) -> fmt::Result {
        let mode = RunMode::Isolation;
        for &id in a.datasets {
            for p in panels.iter().filter(|p| p.datasets.contains(&id)) {
                let report = run_queries(
                    &self.env,
                    self.data(id),
                    &p.instances(),
                    &[mode],
                    p.with_index,
                );
                writeln!(
                    out,
                    "\n=== {} — dataset {} ({mode}) ===",
                    p.title,
                    id.name()
                )?;
                out.push_str(&report.render_matrix(mode));
            }
        }
        Ok(())
    }
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn table1(_: &Harness, out: &mut String) -> fmt::Result {
    let line = |out: &mut String, cells: [&str; 8]| {
        let [a, b, c, d, e, f, g, h] = cells;
        writeln!(
            out,
            "{a:<14} | {b:<20} | {c:<22} | {d:<50} | {e:<14} | {f:<9} | {g:<5} | {h:<5}"
        )
    };
    line(
        out,
        [
            "engine",
            "emulates",
            "type",
            "storage",
            "edge traversal",
            "optimized",
            "async",
            "index",
        ],
    )?;
    writeln!(out, "{}", "-".repeat(160))?;
    for kind in EngineKind::ALL {
        let f = kind.make().features();
        line(
            out,
            [
                &f.name,
                kind.emulates(),
                &f.system_type,
                &f.storage,
                &f.edge_traversal,
                yes_no(f.optimized_adapter),
                yes_no(f.async_writes),
                yes_no(f.attribute_indexes),
            ],
        )?;
    }
    Ok(())
}

fn table2(_: &Harness, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "{:<5} | {:<72} | {:<42} | Cat",
        "#", "Query (Gremlin 2.6)", "Description"
    )?;
    writeln!(out, "{}", "-".repeat(130))?;
    let mut last_cat = None;
    for q in QueryId::ALL {
        let cat = q.category();
        let tag = if last_cat == Some(cat) {
            ' '
        } else {
            cat.tag()
        };
        last_cat = Some(cat);
        writeln!(
            out,
            "Q{:<4} | {:<72} | {:<42} | {tag}",
            q.number(),
            q.gremlin(),
            q.description()
        )?;
    }
    Ok(())
}

fn table3(h: &Harness, out: &mut String) -> fmt::Result {
    let rows: Vec<_> = DataBank::ORDER
        .iter()
        .map(|id| dataset_stats(h.data(*id)))
        .collect();
    writeln!(out, "(scale '{}')\n", h.env.scale.name)?;
    out.push_str(&render_table(&rows));
    Ok(())
}

fn fig1_space(h: &Harness, out: &mut String) -> fmt::Result {
    // The paper splits the figure: (a) Frb-O/M/L, (b) Frb-S/LDBC/MiCo.
    for (panel, ids) in [
        ("Figure 1(a)", [FrbO, FrbM, FrbL]),
        ("Figure 1(b)", [FrbS, Ldbc, Mico]),
    ] {
        writeln!(out, "\n=== {panel} — space occupancy (KiB) ===")?;
        write!(out, "{:<14}", "engine")?;
        for id in ids {
            write!(out, " | {:>12}", id.name())?;
        }
        writeln!(out, "\n{}", "-".repeat(14 + ids.len() * 15))?;
        for kind in &h.env.engines {
            write!(out, "{:<14}", kind.name())?;
            for id in ids {
                let mut db = kind.make();
                db.bulk_load(h.data(id), &LoadOptions::default())
                    .expect("load");
                write!(out, " | {:>12.1}", db.space().total() as f64 / 1024.0)?;
            }
            writeln!(out)?;
        }
        write!(out, "{:<14}", "raw json")?;
        for id in ids {
            write!(
                out,
                " | {:>12.1}",
                graphson::raw_json_bytes(h.data(id)) as f64 / 1024.0
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn fig3_load(h: &Harness, out: &mut String) -> fmt::Result {
    let env = &h.env;
    let load_ms = |kind: EngineKind, data: &Dataset, load: LoadOptions| {
        let workload = Workload::choose(data, env.seed, 4);
        let factory = move || kind.make();
        let config = BenchConfig {
            load,
            ..env.config()
        };
        Runner::new(&factory, data, &workload, config)
            .measure_load()
            .0
            .millis()
    };
    writeln!(out, "\n=== Figure 3(a) — load time (ms) ===")?;
    write!(out, "{:<14}", "engine")?;
    for id in DataBank::ORDER {
        write!(out, " | {:>10}", id.name())?;
    }
    writeln!(out, "\n{}", "-".repeat(14 + DataBank::ORDER.len() * 13))?;
    for kind in &env.engines {
        write!(out, "{:<14}", kind.name())?;
        for id in DataBank::ORDER {
            write!(
                out,
                " | {:>10.1}",
                load_ms(*kind, h.data(id), LoadOptions::default())
            )?;
        }
        writeln!(out)?;
    }
    // Ablation: bulk vs per-statement load for the engines where the paper
    // calls the difference out (§6.2: BlazeGraph's "bulk loading" option,
    // Titan's schema-inference cost).
    writeln!(
        out,
        "\n=== Load ablation — bulk vs per-item path (frb-m, ms) ==="
    )?;
    for kind in [
        EngineKind::Triple,
        EngineKind::ColumnarV05,
        EngineKind::ColumnarV10,
    ] {
        let [bulk, item] = [true, false].map(|bulk| {
            let load = LoadOptions {
                bulk,
                index_during_load: false,
            };
            load_ms(kind, h.data(FrbM), load)
        });
        writeln!(
            out,
            "{:<14}  bulk: {bulk:>10.1}   per-item: {item:>10.1}   slowdown: {:>5.1}x",
            kind.name(),
            item / bulk.max(1e-9)
        )?;
    }
    Ok(())
}

fn fig2_complex(h: &Harness, out: &mut String) -> fmt::Result {
    let env = &h.env;
    let data = h.data(Ldbc);
    let params = ComplexParams::choose(data, env.seed);
    write!(out, "{:<18}", "query")?;
    for kind in &env.engines {
        write!(out, " | {:>14}", kind.name())?;
    }
    writeln!(out, "\n{}", "-".repeat(18 + env.engines.len() * 17))?;
    for q in ComplexQuery::ALL {
        write!(out, "{:<18}", q.name())?;
        for kind in &env.engines {
            let mut db = kind.make();
            db.bulk_load(data, &LoadOptions::default()).expect("load");
            let p = params.resolve(db.as_ref()).expect("params");
            let ctx = QueryCtx::with_timeout(env.timeout);
            let start = Instant::now();
            let cell = match complex::execute(q, db.as_mut(), &p, &ctx) {
                Ok(_) => format!("{:.3}", start.elapsed().as_secs_f64() * 1e3),
                Err(GdbError::Timeout) => "TIMEOUT".to_string(),
                Err(e) => format!("ERR:{e:.8}"),
            };
            write!(out, " | {cell:>14}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn fig1_timeouts(h: &Harness, report: &Report, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "{:<14} | {:>12} | {:>12}",
        "engine", "interactive", "batch"
    )?;
    writeln!(out, "{}", "-".repeat(45))?;
    let single = report.timeouts_by_engine(RunMode::Isolation);
    let batch = report.timeouts_by_engine(RunMode::Batch);
    for kind in &h.env.engines {
        let count = |by: &BTreeMap<String, u64>| by.get(kind.name()).copied().unwrap_or(0);
        writeln!(
            out,
            "{:<14} | {:>12} | {:>12}",
            kind.name(),
            count(&single),
            count(&batch)
        )?;
    }
    Ok(())
}

/// Figure 7(c, d), and §6.4's single-vs-batch ratio analysis (CUD amortizes
/// setup; reads scale linearly).
fn fig7_overall(h: &Harness, report: &Report, out: &mut String) -> fmt::Result {
    for (panel, mode) in [("7(c)", RunMode::Isolation), ("7(d)", RunMode::Batch)] {
        let kind = if mode == RunMode::Batch {
            "batch"
        } else {
            "single"
        };
        writeln!(
            out,
            "\n=== Figure {panel} — total completed time, {kind} executions (s) ==="
        )?;
        for (engine, secs) in report.total_seconds_by_engine(mode) {
            writeln!(out, "{engine:<14} {secs:>10.3}")?;
        }
    }
    let batch_len = h.env.batch;
    writeln!(
        out,
        "\n=== Single vs batch ratio (batch / (single × {batch_len})) ==="
    )?;
    writeln!(
        out,
        "values < 1 mean per-query setup dominates the single run"
    )?;
    let completed = |mode| {
        report
            .rows
            .iter()
            .filter(move |r| r.mode == mode && r.outcome == Outcome::Completed)
    };
    let mut by_engine: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for single in completed(RunMode::Isolation) {
        // The same query on the same engine and dataset, run as a batch.
        let same = |b: &&gm_core::report::Measurement| {
            (&b.engine, &b.dataset, &b.query) == (&single.engine, &single.dataset, &single.query)
        };
        if let Some(batch) = completed(RunMode::Batch).find(same) {
            let entry = by_engine.entry(&single.engine).or_insert((0.0, 0.0));
            entry.0 += batch.millis();
            entry.1 += single.millis() * batch_len as f64;
        }
    }
    for (engine, (batch, scaled_single)) in by_engine {
        if scaled_single > 0.0 {
            writeln!(out, "{engine:<14} {:>8.3}", batch / scaled_single)?;
        }
    }
    Ok(())
}

fn table4(_: &Harness, report: &Report, out: &mut String) -> fmt::Result {
    writeln!(out, "\n{}", summary::derive(report).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::Duration;

    use gm_core::report::Measurement;
    use gm_datasets::Scale;

    fn tiny_env(batch: u32) -> Env {
        Env {
            scale: Scale::tiny(),
            seed: 42,
            timeout: Duration::from_secs(5),
            batch,
            engines: vec![EngineKind::LinkedV2],
        }
    }

    #[test]
    fn names_are_unique_and_in_the_old_reproduce_all_order() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            [
                "table1",
                "table2",
                "table3",
                "fig1_space",
                "fig3_load",
                "fig2_complex",
                "fig3_cud",
                "fig4_read",
                "fig5_traverse",
                "fig6_bfs",
                "fig7_paths",
                "fig1_timeouts",
                "fig7_overall",
                "table4",
            ]
        );
        // The names are the binaries `reproduce` replaced, each once.
        for a in ARTIFACTS {
            assert_eq!(find(a.name).map(|f| f.title), Some(a.title));
            if let Render::Panels(panels) = a.render {
                for p in panels {
                    for id in p.datasets {
                        assert!(
                            a.datasets.contains(id),
                            "{}: {} not generated",
                            a.name,
                            id.name()
                        );
                    }
                }
            }
        }
        assert!(find("reproduce_all").is_none());
    }

    /// Every artifact runs end to end on the tiniest inputs: one engine, one
    /// round per batch, each dataset generated once, the suite run once.
    #[test]
    fn every_artifact_renders_its_title_at_tiny_scale() {
        let all: Vec<&Artifact> = ARTIFACTS.iter().collect();
        let harness = Harness::new(tiny_env(1), &all);
        for a in ARTIFACTS {
            let out = harness.render(a);
            assert!(
                out.contains(&format!("=== {} ===", a.title)),
                "{}:\n{out}",
                a.name
            );
            assert!(
                out.contains(a.expected),
                "{}: expected shape missing",
                a.name
            );
            // A body beyond the banner, title and note.
            assert!(
                out.lines().count() > 9,
                "{} rendered nothing:\n{out}",
                a.name
            );
            if let Render::Panels(panels) = a.render {
                for p in panels {
                    assert!(
                        out.contains(p.title),
                        "{}: panel {} missing",
                        a.name,
                        p.title
                    );
                }
            }
        }
        // The suite ran once, in the union of the modes its readers need.
        assert_eq!(harness.suite_modes, [RunMode::Isolation, RunMode::Batch]);
        assert!(harness
            .suite()
            .rows
            .iter()
            .any(|r| r.mode == RunMode::Batch));
    }

    /// §6.4's ratio divides a query's batch time by its single time on the
    /// same dataset, never by another dataset's.
    #[test]
    fn the_batch_ratio_pairs_runs_of_one_dataset() {
        let run = |dataset: &str, mode, ms: f64| Measurement {
            engine: "e".into(),
            dataset: dataset.into(),
            query: "Q8".into(),
            mode,
            outcome: Outcome::Completed,
            nanos: (ms * 1e6) as u64,
            cardinality: None,
        };
        let report = Report {
            rows: vec![
                run("small", RunMode::Isolation, 1.0),
                run("small", RunMode::Batch, 5.0),
                run("large", RunMode::Isolation, 100.0),
                run("large", RunMode::Batch, 500.0),
            ],
        };
        let mut out = String::new();
        fig7_overall(&Harness::new(tiny_env(10), &[]), &report, &mut out).unwrap();
        // (5 + 500) / ((1 + 100) × 10)
        let ratio = out
            .lines()
            .last()
            .unwrap()
            .split_whitespace()
            .collect::<Vec<_>>();
        assert_eq!(ratio, ["e", "0.500"], "{out}");
    }
}
