//! The read path's storage work: the `storage.*` counter deltas of each read
//! query (Q8–Q15 and Q22–Q35, Q28–Q30 at the workload's k, Q32/Q33 at
//! d = 2) on every bare engine variant — once right after the bulk load,
//! and again after three rounds of the driver's four `WriteOp`s, which put
//! writes in the columnar memtable across its runs so its scans merge. The
//! read-side twin of `storage_work.rs`, over its dataset and seeds.
//!
//! How a scan is read — walked or merged, through its iterator or drained —
//! must leave these figures exactly where they are: they count the source
//! entries each scan consumes, the runs it probes and whether it merged.
//! Only a change to what an engine stores, or to which cells a query
//! reads, moves them. A deliberate change re-pins them, and the failure
//! message prints the table to paste.
//!
//! The registry is process-wide, so this binary holds one test and nothing
//! else moves the counters while it reads them.

use gm_obs::ObsMode;
use graphmark::core::catalog::{execute_read, QueryId, QueryInstance};
use graphmark::core::params::{ResolvedParams, Workload};
use graphmark::datasets::{self, DatasetId, Scale};
use graphmark::model::api::{GraphDb, LoadOptions};
use graphmark::model::{Eid, QueryCtx};
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

/// The read instances, in query order.
const READS: usize = 22;

/// Per variant, phase (`load`: after the bulk load; `writes`: after the
/// write rounds) and counter that moved: its delta per read instance. A
/// counter a phase never moves has no row.
#[rustfmt::skip]
const PINS: &[(&str, &str, &str, [u64; READS])] = &[
    ("triple", "load", "bptree.descents", [0, 0, 0, 1, 1660, 0, 0, 0, 9, 4, 13, 9, 4, 13, 0, 0, 0, 4123, 526, 175, 129, 361]),
    ("triple", "load", "bptree.finger_hits", [0, 0, 0, 399, 2660, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 197, 27, 80, 10, 176]),
    ("triple", "writes", "bptree.descents", [0, 0, 0, 2, 1659, 0, 0, 0, 9, 4, 13, 9, 4, 13, 0, 0, 0, 4124, 526, 175, 129, 361]),
    ("triple", "writes", "bptree.finger_hits", [0, 0, 0, 401, 2661, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 196, 27, 80, 10, 176]),
    ("columnar(v05)", "load", "lsm.cells_scanned", [5159, 5159, 5159, 5159, 5159, 5159, 3, 0, 5, 4, 0, 5, 4, 9, 5159, 5159, 5159, 5159, 232, 0, 42, 0]),
    ("columnar(v05)", "load", "lsm.runs_probed", [3, 3, 3, 3, 3, 3, 7, 3, 5, 5, 7, 5, 5, 8, 3, 3, 3, 3, 113, 40, 16, 49]),
    ("columnar(v05)", "load", "lsm.scans", [1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 1, 1, 28, 0, 4, 0]),
    ("columnar(v05)", "writes", "lsm.cells_scanned", [5175, 5175, 5175, 5175, 5175, 5175, 4, 0, 5, 4, 0, 5, 4, 9, 5175, 5175, 5175, 5175, 232, 0, 42, 0]),
    ("columnar(v05)", "writes", "lsm.runs_probed", [3, 3, 3, 3, 3, 3, 7, 3, 5, 5, 7, 5, 5, 8, 3, 3, 3, 3, 113, 40, 16, 49]),
    ("columnar(v05)", "writes", "lsm.scans", [1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 1, 1, 28, 0, 4, 0]),
    ("columnar(v05)", "writes", "lsm.merged_scans", [1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]),
    ("columnar(v10)", "load", "lsm.cells_scanned", [5159, 5159, 5159, 5159, 5159, 5159, 3, 0, 5, 4, 0, 5, 4, 9, 5159, 5159, 5159, 5159, 232, 0, 42, 0]),
    ("columnar(v10)", "load", "lsm.runs_probed", [1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 1, 28, 12, 4, 14]),
    ("columnar(v10)", "load", "lsm.scans", [1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 1, 1, 28, 0, 4, 0]),
    ("columnar(v10)", "writes", "lsm.cells_scanned", [5175, 5175, 5175, 5175, 5175, 5175, 4, 0, 5, 4, 0, 5, 4, 9, 5175, 5175, 5175, 5175, 232, 0, 42, 0]),
    ("columnar(v10)", "writes", "lsm.runs_probed", [1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 1, 28, 12, 4, 14]),
    ("columnar(v10)", "writes", "lsm.scans", [1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 2, 1, 1, 1, 1, 28, 0, 4, 0]),
    ("columnar(v10)", "writes", "lsm.merged_scans", [1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]),
];

fn read_instances(k: u64) -> Vec<QueryInstance> {
    QueryId::ALL
        .iter()
        .filter(|q| matches!(q.number(), 8..=15 | 22..=35))
        .map(|&id| match id.number() {
            28..=30 => QueryInstance {
                id,
                depth: None,
                k: Some(k),
            },
            32 | 33 => QueryInstance {
                id,
                depth: Some(2),
                k: None,
            },
            _ => QueryInstance::plain(id),
        })
        .collect()
}

fn read_counters() -> [u64; 10] {
    let g = gm_obs::global();
    COUNTERS.map(|name| g.counter(&format!("storage.{name}")).get())
}

/// The counter deltas of each read, indexed `[read][counter]`.
fn run_reads(
    db: &dyn GraphDb,
    reads: &[QueryInstance],
    params: &ResolvedParams,
) -> [[u64; 10]; READS] {
    let mut moved = [[0u64; 10]; READS];
    for (slot, inst) in reads.iter().enumerate() {
        let ctx = QueryCtx::unbounded();
        let before = read_counters();
        execute_read(inst, db, params, &ctx)
            .unwrap_or_else(|e| panic!("{} {}: {e}", db.name(), inst.name()));
        let after = read_counters();
        moved[slot] = std::array::from_fn(|i| after[i] - before[i]);
    }
    moved
}

type Row = (String, &'static str, &'static str, [u64; READS]);

/// The rows of one variant and phase: one per counter its reads moved.
fn rows_of(name: &str, phase: &'static str, moved: [[u64; 10]; READS]) -> Vec<Row> {
    (0..COUNTERS.len())
        .map(|c| {
            (
                name.to_string(),
                phase,
                COUNTERS[c],
                moved.map(|read| read[c]),
            )
        })
        .filter(|(_, _, _, per_read)| per_read.iter().any(|&x| x > 0))
        .collect()
}

#[test]
fn read_storage_work_is_pinned_on_every_variant() {
    gm_obs::set_mode(ObsMode::Counters);
    let data = datasets::generate(DATASET, Scale::tiny(), DATA_SEED);
    let mut rows: Vec<Row> = Vec::new();
    for kind in EngineKind::ALL {
        let name = kind.name();
        let mut db = kind.make();
        db.bulk_load(&data, &LoadOptions::default()).unwrap();
        let workload = Workload::choose(&data, PARAM_SEED, 16);
        let params = workload.resolve(&*db).expect("resolve");
        let reads = read_instances(workload.k);
        assert_eq!(reads.len(), READS);
        rows.extend(rows_of(name, "load", run_reads(&*db, &reads, &params)));
        let mut owned: Vec<Eid> = Vec::new();
        for round in 0..ROUNDS {
            for (i, wop) in WRITE_OPS.iter().enumerate() {
                let op_index = (round * WRITE_OPS.len() + i) as u64;
                apply_write(*wop, &mut *db, &params, 0, op_index, &mut owned)
                    .unwrap_or_else(|e| panic!("{name} {wop:?}: {e}"));
            }
        }
        rows.extend(rows_of(name, "writes", run_reads(&*db, &reads, &params)));
    }
    let line = |name: &str, phase: &str, counter: &str, per_read: &[u64; READS]| {
        format!("    (\"{name}\", \"{phase}\", \"{counter}\", {per_read:?}),\n")
    };
    let table: String = rows.iter().map(|(n, p, c, r)| line(n, p, c, r)).collect();
    let pinned: String = PINS.iter().map(|(n, p, c, r)| line(n, p, c, r)).collect();
    assert!(
        table == pinned,
        "read storage work moved; the measured table is:\n{table}"
    );
}
