//! The write path's storage work: the `storage.lsm.*`, `storage.bptree.*`
//! and `storage.cow.*` counter deltas of each mutation (Q2–Q7, Q16–Q21
//! through `catalog::execute`, then the driver's four `WriteOp`s through
//! `apply_write`) on every engine variant — bare, and through a
//! copy-on-write cell pinned after every op, so each op's write opens an
//! epoch whose pages it copies — over the stream `write_work.rs` runs. The
//! storage-side twin of `write_work.rs`'s allocation pins.
//!
//! A change to the bookkeeping around an engine's writes (what resolves a
//! canonical id, what a removal retires) must leave these figures exactly
//! where they are; only a change to what an engine stores, or how its
//! stores copy, moves them. A deliberate change re-pins them, and the
//! failure message prints the table to paste.
//!
//! The registry is process-wide, so this binary holds one test and nothing
//! else moves the counters while it reads them.

use gm_obs::ObsMode;
use graphmark::core::catalog::{execute, QueryId, QueryInstance};
use graphmark::core::params::{ResolvedParams, Workload};
use graphmark::datasets::{self, DatasetId, Scale};
use graphmark::model::api::{GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::{Dataset, Eid, QueryCtx};
use graphmark::mvcc::{SnapshotMode, SnapshotSource};
use graphmark::registry::EngineKind;
use graphmark::workload::{apply_write, WriteOp};

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

/// The storage counters, without their `storage.` prefix.
const COUNTERS: [&str; 10] = [
    "lsm.cells_scanned",
    "lsm.runs_probed",
    "lsm.scans",
    "lsm.merged_scans",
    "lsm.flushes",
    "lsm.compactions",
    "bptree.descents",
    "bptree.finger_hits",
    "cow.pages_copied",
    "cow.bytes_copied",
];

/// Per variant and counter that moved: its delta per op — Q2–Q7 and
/// Q16–Q21, each run for every round before the next and summed over the
/// rounds, then the four `WriteOp`s. A counter a variant's stream never
/// moves has no row.
#[rustfmt::skip]
const PINS: &[(&str, &str, [u64; 16])] = &[
    ("linked(v1)/cow", "cow.pages_copied", [12, 11, 10, 6, 6, 29, 3, 4, 79, 13, 3, 0, 3, 3, 2, 3]),
    ("linked(v1)/cow", "cow.bytes_copied", [88320, 87808, 80000, 51456, 50304, 224384, 25344, 33664, 654080, 107264, 25344, 0, 25600, 24064, 17152, 24064]),
    ("linked(v2)/cow", "cow.pages_copied", [12, 10, 9, 6, 6, 27, 3, 4, 98, 13, 3, 0, 3, 3, 2, 3]),
    ("linked(v2)/cow", "cow.bytes_copied", [88320, 77696, 72576, 51456, 50304, 202368, 25344, 33664, 795136, 106368, 25344, 0, 25600, 23168, 17152, 23168]),
    ("columnar(v05)", "lsm.cells_scanned", [0, 0, 0, 0, 0, 0, 0, 0, 94, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v05)", "lsm.runs_probed", [0, 28, 28, 6, 3, 134, 6, 0, 33, 0, 16, 9, 0, 10, 2, 0]),
    ("columnar(v05)", "lsm.scans", [0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v05)", "lsm.merged_scans", [0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v05)/cow", "lsm.cells_scanned", [0, 0, 0, 0, 0, 0, 0, 0, 94, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v05)/cow", "lsm.runs_probed", [0, 55, 55, 9, 6, 257, 9, 0, 64, 0, 32, 17, 0, 20, 3, 0]),
    ("columnar(v05)/cow", "lsm.scans", [0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v05)/cow", "lsm.merged_scans", [0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v05)/cow", "cow.pages_copied", [0, 3, 3, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]),
    ("columnar(v05)/cow", "cow.bytes_copied", [0, 73728, 73728, 0, 0, 73728, 0, 0, 0, 0, 0, 0, 0, 24576, 0, 0]),
    ("columnar(v10)", "lsm.cells_scanned", [0, 0, 0, 0, 0, 0, 0, 0, 94, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v10)", "lsm.runs_probed", [0, 5, 5, 0, 1, 26, 0, 0, 9, 0, 3, 3, 0, 2, 0, 0]),
    ("columnar(v10)", "lsm.scans", [0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v10)", "lsm.merged_scans", [0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v10)/cow", "lsm.cells_scanned", [0, 0, 0, 0, 0, 0, 0, 0, 94, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v10)/cow", "lsm.runs_probed", [0, 30, 30, 0, 6, 156, 0, 0, 54, 0, 16, 17, 0, 12, 0, 0]),
    ("columnar(v10)/cow", "lsm.scans", [0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v10)/cow", "lsm.merged_scans", [0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]),
    ("columnar(v10)/cow", "cow.pages_copied", [0, 3, 3, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]),
    ("columnar(v10)/cow", "cow.bytes_copied", [0, 73728, 73728, 0, 0, 73728, 0, 0, 0, 0, 0, 0, 0, 24576, 0, 0]),
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

fn read_counters() -> [u64; 10] {
    let g = gm_obs::global();
    COUNTERS.map(|name| g.counter(&format!("storage.{name}")).get())
}

/// The counter deltas while `f` runs.
fn deltas(f: impl FnOnce()) -> [u64; 10] {
    let before = read_counters();
    f();
    let after = read_counters();
    std::array::from_fn(|i| after[i] - before[i])
}

/// One op of the suite, run against the variant's write path.
type OpFn<'a> = dyn FnMut(&mut dyn GraphDb) + 'a;

/// Run the suite, each op handed to `write` as one mutation batch; returns
/// the counter deltas per op, indexed `[op][counter]`.
fn run_suite(
    name: &str,
    params: &ResolvedParams,
    write: &mut dyn FnMut(&mut OpFn),
) -> [[u64; 10]; 16] {
    let mut moved = [[0u64; 10]; 16];
    let ctx = QueryCtx::unbounded();
    for (slot, inst) in write_instances().iter().enumerate() {
        for round in 0..ROUNDS {
            let d = deltas(|| {
                write(&mut |db| {
                    execute(inst, db, params, round, &ctx)
                        .unwrap_or_else(|e| panic!("{name} {} round {round}: {e}", inst.name()));
                })
            });
            for (sum, x) in moved[slot].iter_mut().zip(d) {
                *sum += x;
            }
        }
    }
    let mut owned: Vec<Eid> = Vec::new();
    for (i, wop) in WRITE_OPS.iter().enumerate() {
        moved[12 + i] = deltas(|| {
            write(&mut |db| {
                apply_write(*wop, db, params, 0, i as u64, &mut owned)
                    .unwrap_or_else(|e| panic!("{name} {wop:?}: {e}"));
            })
        });
    }
    moved
}

type Row = (String, &'static str, [u64; 16]);

/// The rows of one variant: one per counter its stream moved.
fn rows_of(name: String, moved: [[u64; 10]; 16]) -> Vec<Row> {
    (0..COUNTERS.len())
        .map(|c| (name.clone(), COUNTERS[c], moved.map(|op| op[c])))
        .filter(|(_, _, per_op)| per_op.iter().any(|&x| x > 0))
        .collect()
}

fn direct(name: String, db: &mut dyn GraphDb, data: &Dataset) -> Vec<Row> {
    db.bulk_load(data, &LoadOptions::default()).unwrap();
    let params = params_of(db, data);
    let moved = run_suite(&name, &params, &mut |op| op(db));
    rows_of(name, moved)
}

/// Through a cell's `with_write`, pinning after every op: the pin
/// publishes the op's epoch, so the next op clones the published graph and
/// copies the pages it writes.
fn through_cell(name: String, cell: &dyn SnapshotSource, data: &Dataset) -> Vec<Row> {
    let mut params = None;
    cell.with_write(&mut |db| {
        db.bulk_load(data, &LoadOptions::default())?;
        params = Some(params_of(db, data));
        Ok(0)
    })
    .unwrap();
    let params = params.expect("params resolved");
    drop(cell.snapshot().unwrap());
    let moved = run_suite(&name, &params, &mut |op| {
        cell.with_write(&mut |db| {
            op(db);
            Ok(1)
        })
        .unwrap();
        drop(cell.snapshot().unwrap());
    });
    rows_of(name, moved)
}

#[test]
fn storage_work_is_pinned_on_every_variant() {
    gm_obs::set_mode(ObsMode::Counters);
    let data = datasets::generate(DATASET, Scale::tiny(), DATA_SEED);
    assert_eq!(write_instances().len(), 12);
    let mut rows: Vec<Row> = Vec::new();
    for kind in EngineKind::ALL {
        rows.extend(direct(kind.name().to_string(), &mut *kind.make(), &data));
        let cell = kind.make_snapshot_source(SnapshotMode::Cow);
        rows.extend(through_cell(format!("{}/cow", kind.name()), &*cell, &data));
    }
    let table: String = rows
        .iter()
        .map(|(name, counter, per_op)| format!("    (\"{name}\", \"{counter}\", {per_op:?}),\n"))
        .collect();
    let pinned: String = PINS
        .iter()
        .map(|(name, counter, per_op)| format!("    (\"{name}\", \"{counter}\", {per_op:?}),\n"))
        .collect();
    assert!(
        table == pinned,
        "storage work moved; the measured table is:\n{table}"
    );
}
