//! The cost model's pins: `QueryCtx::work()` after each traversal query
//! (Q22–Q35) on every engine variant, bare and as a two-shard composite,
//! over one fixed generated dataset and parameter seed.
//!
//! Engines tick once per element they touch, and the tick count is the
//! granularity at which the paper's per-query timeout fires. A change to
//! how adjacency is walked — or forwarded through a layer — must leave
//! these figures exactly where they are; a deliberate cost-model change
//! re-pins them, and the failure message prints the table to paste.

use graphmark::core::catalog::{execute_read, Category, QueryInstance};
use graphmark::core::params::Workload;
use graphmark::datasets::{self, DatasetId, Scale};
use graphmark::model::api::{GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::QueryCtx;
use graphmark::registry::EngineKind;

const DATASET: DatasetId = DatasetId::Mico;
const DATA_SEED: u64 = 42;
const PARAM_SEED: u64 = 7;
/// Degree threshold for Q28–Q30.
const K: u64 = 3;

/// Work per traversal instance, in `QueryInstance::full_suite` order:
/// Q22–Q27, Q28–Q30 (k = 3), Q31, Q32 (d = 2..5), Q33 (d = 2..5), Q34, Q35.
#[rustfmt::skip]
const PINS: &[(&str, [u64; 20])] = &[
    ("document", [9, 4, 13, 9, 4, 13, 800, 800, 800, 4720, 1106, 14644, 17280, 17280, 255, 3968, 11904, 12477, 202, 529]),
    ("document/s2", [9, 4, 13, 9, 4, 13, 1552, 1176, 1552, 5096, 1106, 14644, 17280, 17280, 255, 3968, 11904, 12477, 202, 561]),
    ("triple", [9, 4, 13, 9, 4, 13, 4720, 4720, 9040, 4720, 1106, 14644, 17280, 17280, 255, 3968, 11904, 12477, 202, 529]),
    ("triple/s2", [9, 4, 13, 9, 4, 13, 5096, 5096, 9416, 5096, 1106, 14644, 17280, 17280, 255, 3968, 11904, 12477, 202, 561]),
    ("linked(v1)", [9, 4, 13, 9, 4, 13, 4720, 4720, 9040, 4720, 1106, 14644, 17280, 17280, 255, 3968, 11904, 12477, 214, 372]),
    ("linked(v1)/s2", [9, 4, 13, 9, 4, 13, 5096, 5096, 9416, 5096, 1106, 14644, 17280, 17280, 255, 3968, 11904, 12477, 235, 372]),
    ("linked(v2)", [9, 4, 5, 9, 4, 13, 4720, 4720, 9040, 4720, 1106, 14644, 17280, 17280, 156, 2514, 7456, 7792, 478, 227]),
    ("linked(v2)/s2", [9, 4, 5, 9, 4, 13, 5096, 5096, 9416, 5096, 1106, 14644, 17280, 17280, 156, 2514, 7456, 7792, 356, 227]),
    ("cluster", [9, 4, 13, 9, 4, 13, 800, 800, 800, 4720, 1106, 14644, 17280, 17280, 255, 3968, 11904, 12477, 202, 529]),
    ("cluster/s2", [9, 4, 13, 9, 4, 13, 1552, 1176, 1552, 5096, 1106, 14644, 17280, 17280, 255, 3968, 11904, 12477, 202, 561]),
    ("bitmap", [9, 4, 5, 9, 4, 13, 400, 400, 400, 4720, 1106, 14644, 17280, 17280, 156, 2514, 7456, 7792, 659, 290]),
    ("bitmap/s2", [9, 4, 5, 9, 4, 13, 5872, 5496, 10192, 5096, 1106, 14644, 17280, 17280, 156, 2514, 7456, 7792, 346, 330]),
    ("relational", [108, 103, 6, 99, 99, 99, 40000, 40000, 40000, 4320, 2492, 38800, 56781, 56781, 162, 2573, 7782, 8174, 1362, 349]),
    ("relational/s2", [183, 93, 7, 174, 89, 174, 68296, 35588, 68296, 39908, 3542, 56841, 84715, 84715, 168, 2632, 8099, 8541, 1499, 390]),
    ("columnar(v05)", [13, 7, 7, 13, 7, 20, 9479, 9479, 13799, 9479, 1311, 17746, 21239, 21239, 168, 2632, 8108, 8556, 239, 242]),
    ("columnar(v05)/s2", [14, 7, 9, 14, 7, 21, 12861, 12278, 19114, 12278, 1340, 18141, 21729, 21729, 180, 2750, 8742, 9290, 374, 253]),
    ("columnar(v10)", [13, 7, 7, 13, 7, 20, 9479, 9479, 13799, 9479, 1311, 17746, 21239, 21239, 168, 2632, 8108, 8556, 239, 242]),
    ("columnar(v10)/s2", [14, 7, 9, 14, 7, 21, 12861, 12278, 19114, 12278, 1340, 18141, 21729, 21729, 180, 2750, 8742, 9290, 374, 253]),
];

fn traversal_instances() -> Vec<QueryInstance> {
    QueryInstance::full_suite(K)
        .into_iter()
        .filter(|i| i.id.category() == Category::Traversal)
        .collect()
}

fn work_row(db: &dyn GraphSnapshot, data: &graphmark::model::Dataset) -> Vec<u64> {
    let params = Workload::choose(data, PARAM_SEED, 16)
        .resolve(db)
        .expect("resolve");
    traversal_instances()
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
fn traversal_work_is_pinned_on_every_variant() {
    let data = datasets::generate(DATASET, Scale::tiny(), DATA_SEED);
    assert_eq!(traversal_instances().len(), 20);
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
        "traversal work moved; the measured table is:\n{table}"
    );
}
