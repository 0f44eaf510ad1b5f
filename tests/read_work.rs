//! The cost model's pins for the read queries: `QueryCtx::work()` after
//! each selection and id search (Q8–Q15) on every engine variant, bare and
//! as a two-shard composite, over one fixed generated dataset and parameter
//! seed — the read-side twin of `adjacency_work.rs`.
//!
//! A change to how an engine scans, filters or looks up by id — or how a
//! layer forwards those calls — must leave these figures exactly where they
//! are; a deliberate cost-model change re-pins them, and the failure
//! message prints the table to paste.

use graphmark::core::catalog::{execute_read, QueryId, QueryInstance};
use graphmark::core::params::Workload;
use graphmark::datasets::{self, DatasetId, Scale};
use graphmark::model::api::{GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::QueryCtx;
use graphmark::registry::EngineKind;

const DATASET: DatasetId = DatasetId::Mico;
const DATA_SEED: u64 = 42;
const PARAM_SEED: u64 = 7;

/// Work per read instance, Q8–Q15 in order.
#[rustfmt::skip]
const PINS: &[(&str, [u64; 8])] = &[
    ("document", [400, 4320, 4320, 400, 4320, 4320, 0, 0]),
    ("document/s2", [776, 4320, 4320, 776, 4320, 4320, 0, 0]),
    ("triple", [400, 4320, 4320, 400, 4320, 1951, 0, 0]),
    ("triple/s2", [776, 4320, 4320, 776, 4320, 1951, 0, 0]),
    ("linked(v1)", [400, 4320, 4320, 400, 4320, 4320, 0, 0]),
    ("linked(v1)/s2", [776, 4320, 4320, 776, 4320, 4320, 0, 0]),
    ("linked(v2)", [400, 4320, 4320, 400, 4320, 4320, 0, 0]),
    ("linked(v2)/s2", [776, 4320, 4320, 776, 4320, 4320, 0, 0]),
    ("cluster", [400, 4320, 4320, 400, 0, 1951, 0, 0]),
    ("cluster/s2", [776, 4320, 4320, 390, 0, 1951, 0, 0]),
    ("bitmap", [0, 0, 4320, 400, 0, 4320, 0, 0]),
    ("bitmap/s2", [0, 0, 4320, 776, 0, 4320, 0, 0]),
    ("relational", [400, 4320, 4320, 400, 0, 1951, 0, 0]),
    ("relational/s2", [776, 4320, 4320, 400, 0, 1951, 0, 0]),
    ("columnar(v05)", [5159, 9479, 5159, 5159, 9479, 7110, 0, 0]),
    ("columnar(v05)/s2", [6025, 10345, 6025, 6025, 10345, 7976, 0, 0]),
    ("columnar(v10)", [5159, 9479, 5159, 5159, 9479, 7110, 0, 0]),
    ("columnar(v10)/s2", [6025, 10345, 6025, 6025, 10345, 7976, 0, 0]),
];

fn read_instances() -> Vec<QueryInstance> {
    QueryId::ALL
        .iter()
        .filter(|q| (8..=15).contains(&q.number()))
        .map(|q| QueryInstance::plain(*q))
        .collect()
}

fn work_row(db: &dyn GraphSnapshot, data: &graphmark::model::Dataset) -> Vec<u64> {
    let params = Workload::choose(data, PARAM_SEED, 16)
        .resolve(db)
        .expect("resolve");
    read_instances()
        .iter()
        .map(|inst| {
            let ctx = QueryCtx::unbounded();
            execute_read(inst, db, &params, &ctx)
                .unwrap_or_else(|e| panic!("{} {}: {e}", db.name(), inst.name()));
            ctx.work()
        })
        .collect()
}

#[test]
fn read_work_is_pinned_on_every_variant() {
    let data = datasets::generate(DATASET, Scale::tiny(), DATA_SEED);
    assert_eq!(read_instances().len(), 8);
    let mut rows: Vec<(String, Vec<u64>)> = Vec::new();
    for kind in EngineKind::ALL {
        let mut bare = kind.make();
        bare.bulk_load(&data, &LoadOptions::default()).unwrap();
        rows.push((kind.name().to_string(), work_row(&*bare, &data)));
        let mut sharded = kind.make_sharded(2);
        sharded.bulk_load(&data, &LoadOptions::default()).unwrap();
        rows.push((format!("{}/s2", kind.name()), work_row(&sharded, &data)));
    }
    let table: String = rows
        .iter()
        .map(|(name, work)| format!("    (\"{name}\", {work:?}),\n"))
        .collect();
    let pinned: String = PINS
        .iter()
        .map(|(name, work)| format!("    (\"{name}\", {work:?}),\n"))
        .collect();
    assert!(
        table == pinned,
        "read work moved; the measured table is:\n{table}"
    );
}
