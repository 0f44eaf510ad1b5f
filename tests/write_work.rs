//! The write path's pins: allocation calls per mutation (Q2–Q7, Q16–Q21
//! through `catalog::execute`, then the driver's four `WriteOp`s through
//! `apply_write`) on every engine variant — bare, as a two-shard
//! composite, and through a copy-on-write cell's `with_write` (the
//! `KeyRecorder` path) — plus the graph each run leaves behind, over one
//! fixed generated dataset and parameter seed. The write-side twin of
//! `read_work.rs`.
//!
//! A layer that starts copying a mutation's label, properties or dataset
//! on its way to the engine moves these figures; so does an engine whose
//! write changes what it stores. A deliberate change re-pins them, and the
//! failure message prints the table to paste. Counted with
//! `gm_model::testkit`'s wrapping global allocator, per thread.

use graphmark::core::catalog::{execute, QueryId, QueryInstance};
use graphmark::core::params::{ResolvedParams, Workload};
use graphmark::datasets::{self, DatasetId, Scale};
use graphmark::model::api::{GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::testkit::{allocations, CountingAlloc};
use graphmark::model::{Dataset, Eid, QueryCtx};
use graphmark::mvcc::{SnapshotMode, SnapshotSource};
use graphmark::registry::EngineKind;
use graphmark::workload::{apply_write, WriteOp};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DATASET: DatasetId = DatasetId::Mico;
const DATA_SEED: u64 = 42;
const PARAM_SEED: u64 = 7;
const ROUNDS: usize = 3;
const WRITE_OPS: [WriteOp; 4] = [
    WriteOp::AddVertex,
    WriteOp::AddEdge,
    WriteOp::SetVertexProp,
    WriteOp::RemoveOwnEdge,
];

/// Per variant: allocation calls per op — Q2–Q7 and Q16–Q21, each run
/// for every round before the next and summed over the rounds, then the
/// four `WriteOp`s — and the end state (`vertex_count`, `edge_count`,
/// `space().total()`).
#[rustfmt::skip]
const PINS: &[(&str, [u64; 16], [u64; 3])] = &[
    ("document", [23, 9, 18, 58, 28, 69, 41, 31, 20, 0, 27, 0, 14, 5, 19, 0], [404, 4257, 473630]),
    ("document/s2", [31, 12, 23, 57, 34, 88, 40, 31, 112, 0, 28, 0, 14, 5, 19, 0], [404, 4257, 653774]),
    ("document/cow", [23, 12, 22, 62, 31, 78, 45, 34, 23, 3, 30, 4, 14, 6, 20, 1], [404, 4257, 473630]),
    ("triple", [25, 7, 10, 10, 3, 55, 1, 0, 104, 3, 3, 0, 10, 4, 4, 1], [404, 4257, 2284777]),
    ("triple/s2", [23, 8, 13, 10, 11, 65, 0, 0, 173, 3, 3, 0, 10, 4, 3, 1], [404, 4257, 3536289]),
    ("triple/cow", [25, 10, 14, 14, 6, 64, 5, 3, 107, 6, 6, 4, 10, 5, 5, 2], [404, 4257, 2284777]),
    ("linked(v1)", [19, 5, 11, 13, 6, 40, 4, 3, 36, 0, 7, 0, 13, 4, 4, 0], [404, 4257, 341436]),
    ("linked(v1)/s2", [26, 7, 16, 13, 13, 54, 4, 3, 103, 0, 7, 0, 13, 4, 5, 0], [404, 4257, 531237]),
    ("linked(v1)/cow", [19, 8, 15, 17, 9, 49, 8, 6, 39, 3, 10, 4, 13, 5, 5, 1], [404, 4257, 341436]),
    ("linked(v2)", [25, 11, 17, 19, 12, 94, 10, 9, 225, 6, 13, 6, 15, 6, 6, 2], [404, 4257, 395516]),
    ("linked(v2)/s2", [32, 13, 22, 19, 19, 112, 10, 9, 312, 6, 13, 6, 15, 6, 7, 2], [404, 4257, 592417]),
    ("linked(v2)/cow", [25, 14, 21, 23, 15, 103, 14, 12, 228, 9, 16, 10, 15, 7, 7, 3], [404, 4257, 395516]),
    ("cluster", [22, 95, 104, 61, 23, 700, 43, 25, 2561, 84, 33, 0, 15, 35, 19, 28], [404, 4257, 664566]),
    ("cluster/s2", [32, 75, 85, 61, 30, 616, 43, 28, 2141, 84, 33, 0, 16, 23, 20, 16], [404, 4257, 1193442]),
    ("cluster/cow", [22, 98, 108, 65, 26, 709, 47, 28, 2564, 87, 36, 4, 15, 36, 20, 29], [404, 4257, 664566]),
    ("bitmap", [26, 6, 13, 22, 16, 33, 7, 8, 33, 0, 0, 0, 22, 6, 7, 0], [404, 4257, 366160]),
    ("bitmap/s2", [46, 10, 24, 22, 23, 49, 7, 8, 139, 0, 0, 0, 22, 6, 9, 0], [404, 4257, 567024]),
    ("bitmap/cow", [26, 9, 17, 26, 19, 42, 11, 11, 36, 3, 3, 4, 22, 7, 8, 1], [404, 4257, 366160]),
    ("relational", [21, 7, 20, 811, 122, 32, 0, 0, 14, 0, 0, 0, 16, 8, 3, 0], [404, 4257, 373686]),
    ("relational/s2", [30, 14, 31, 417, 67, 52, 0, 0, 76, 0, 0, 0, 17, 8, 4, 0], [404, 4257, 561928]),
    ("relational/cow", [21, 10, 24, 815, 125, 41, 4, 3, 17, 3, 3, 4, 16, 9, 4, 1], [404, 4257, 373686]),
    ("columnar(v05)", [47, 26, 37, 21, 20, 248, 9, 19, 133, 0, 6, 16, 19, 11, 6, 0], [404, 4257, 199958]),
    ("columnar(v05)/s2", [54, 28, 43, 20, 28, 266, 9, 19, 234, 0, 6, 15, 20, 11, 7, 0], [404, 4257, 377039]),
    ("columnar(v05)/cow", [47, 29, 41, 25, 23, 257, 13, 22, 136, 3, 9, 20, 19, 12, 7, 1], [404, 4257, 199997]),
    ("columnar(v10)", [47, 26, 37, 21, 20, 248, 9, 19, 133, 0, 6, 16, 19, 11, 6, 0], [404, 4257, 199932]),
    ("columnar(v10)/s2", [54, 28, 43, 20, 28, 266, 9, 19, 234, 0, 6, 15, 20, 11, 7, 0], [404, 4257, 377013]),
    ("columnar(v10)/cow", [47, 29, 41, 25, 23, 257, 13, 22, 136, 3, 9, 20, 19, 12, 7, 1], [404, 4257, 199997]),
];

fn write_instances() -> Vec<QueryInstance> {
    QueryId::ALL
        .iter()
        .filter(|q| q.is_mutation() && q.number() != 1)
        .map(|q| QueryInstance::plain(*q))
        .collect()
}

fn params_of(db: &dyn GraphSnapshot, data: &Dataset) -> ResolvedParams {
    Workload::choose(data, PARAM_SEED, 16)
        .resolve(db)
        .expect("resolve")
}

/// One op of the suite, run against the variant's write path.
type OpFn<'a> = dyn FnMut(&mut dyn GraphDb) + 'a;

/// Run the suite, each op handed to `write` as one mutation batch; returns
/// the allocation calls per op.
fn run_suite(name: &str, params: &ResolvedParams, write: &mut dyn FnMut(&mut OpFn)) -> [u64; 16] {
    let mut calls = [0u64; 16];
    let ctx = QueryCtx::unbounded();
    for (slot, inst) in write_instances().iter().enumerate() {
        for round in 0..ROUNDS {
            calls[slot] += allocations(|| {
                write(&mut |db| {
                    execute(inst, db, params, round, &ctx)
                        .unwrap_or_else(|e| panic!("{name} {} round {round}: {e}", inst.name()));
                })
            })
            .calls;
        }
    }
    let mut owned: Vec<Eid> = Vec::new();
    for (i, wop) in WRITE_OPS.iter().enumerate() {
        calls[12 + i] = allocations(|| {
            write(&mut |db| {
                apply_write(*wop, db, params, 0, i as u64, &mut owned)
                    .unwrap_or_else(|e| panic!("{name} {wop:?}: {e}"));
            })
        })
        .calls;
    }
    calls
}

fn end_state(g: &dyn GraphSnapshot) -> [u64; 3] {
    let ctx = QueryCtx::unbounded();
    [
        g.vertex_count(&ctx).expect("vertex_count"),
        g.edge_count(&ctx).expect("edge_count"),
        g.space().total(),
    ]
}

type Row = (String, [u64; 16], [u64; 3]);

fn direct(name: String, db: &mut dyn GraphDb, data: &Dataset) -> Row {
    db.bulk_load(data, &LoadOptions::default()).unwrap();
    let params = params_of(db, data);
    let calls = run_suite(&name, &params, &mut |op| op(db));
    let end = end_state(db);
    (name, calls, end)
}

/// Through a cell's `with_write`: the load's working copy is never pinned
/// before the suite, so no op pays the clone that opens an epoch.
fn through_cell(name: String, cell: &dyn SnapshotSource, data: &Dataset) -> Row {
    let mut params = None;
    cell.with_write(&mut |db| {
        db.bulk_load(data, &LoadOptions::default())?;
        params = Some(params_of(db, data));
        Ok(0)
    })
    .unwrap();
    let params = params.expect("params resolved");
    let calls = run_suite(&name, &params, &mut |op| {
        cell.with_write(&mut |db| {
            op(db);
            Ok(1)
        })
        .unwrap();
    });
    let end = end_state(&*cell.snapshot().unwrap());
    (name, calls, end)
}

#[test]
fn write_work_is_pinned_on_every_variant() {
    let data = datasets::generate(DATASET, Scale::tiny(), DATA_SEED);
    assert_eq!(write_instances().len(), 12);
    let mut rows: Vec<Row> = Vec::new();
    for kind in EngineKind::ALL {
        rows.push(direct(kind.name().to_string(), &mut *kind.make(), &data));
        rows.push(direct(
            format!("{}/s2", kind.name()),
            &mut kind.make_sharded(2),
            &data,
        ));
        let cell = kind.make_snapshot_source(SnapshotMode::Cow);
        rows.push(through_cell(format!("{}/cow", kind.name()), &*cell, &data));
    }
    let table: String = rows
        .iter()
        .map(|(name, calls, end)| format!("    (\"{name}\", {calls:?}, {end:?}),\n"))
        .collect();
    let pinned: String = PINS
        .iter()
        .map(|(name, calls, end)| format!("    (\"{name}\", {calls:?}, {end:?}),\n"))
        .collect();
    assert!(
        table == pinned,
        "write work moved; the measured table is:\n{table}"
    );
}
