//! Cross-engine snapshot-consistency integration test.
//!
//! The gm-mvcc contract, checked against every registry engine variant
//! under the copy-on-write `CowCell` (both columnar variants on their
//! snapshot store tuning):
//!
//! 1. pin a snapshot, then run the full read-query suite against it **while
//!    a writer thread applies interleaved mutations** — every result must
//!    equal the sequential replay at the pinned epoch (a reference engine
//!    loaded with the same dataset and no writes);
//! 2. a snapshot pinned after the writer finishes must equal the sequential
//!    replay of the same writes (reference engine + the same mutation
//!    sequence applied single-threaded);
//! 3. epochs are strictly monotone across the write burst.

use graphmark::core::catalog::{self, QueryInstance};
use graphmark::core::params::{ResolvedParams, Workload};
use graphmark::model::api::{GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::{testkit, QueryCtx};
use graphmark::mvcc::SnapshotMode;
use graphmark::registry::EngineKind;
use graphmark::workload::{apply_write, WriteOp, WORKLOAD_SLOTS};

const SEED: u64 = 77;
const WRITER_OPS: u64 = 150;

/// The deterministic write burst both sides replay: a cycle over every
/// driver write op, applied by "worker 0".
fn write_sequence() -> Vec<WriteOp> {
    let cycle = [
        WriteOp::AddVertex,
        WriteOp::AddEdge,
        WriteOp::SetVertexProp,
        WriteOp::AddEdge,
        WriteOp::RemoveOwnEdge,
    ];
    (0..WRITER_OPS)
        .map(|i| cycle[(i % cycle.len() as u64) as usize])
        .collect()
}

/// Run every read-only query instance of the paper's suite; returns
/// (name, cardinality) pairs for exact comparison.
fn read_suite(db: &dyn GraphSnapshot, params: &ResolvedParams) -> Vec<(String, u64)> {
    QueryInstance::full_suite(params.k)
        .into_iter()
        .filter(|inst| !inst.id.is_mutation())
        .map(|inst| {
            let ctx = QueryCtx::unbounded();
            let card = catalog::execute_read(&inst, db, params, &ctx)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", inst.name(), db.name()));
            (inst.name(), card)
        })
        .collect()
}

fn check_engine(kind: EngineKind, mode: SnapshotMode) {
    let data = testkit::chain_dataset(240);
    let workload = Workload::choose(&data, SEED, WORKLOAD_SLOTS);

    // The snapshot source under test.
    let source = kind.make_snapshot_source(mode);
    source
        .with_write(&mut |db| {
            db.bulk_load(&data, &LoadOptions::default())?;
            db.sync()?;
            Ok(0)
        })
        .expect("load source");
    let src_params = {
        let snap = source.snapshot().expect("pin for resolve");
        workload
            .resolve(snap.as_ref())
            .expect("resolve on snapshot")
    };

    // The sequential reference: same dataset, same canonical parameters.
    let mut reference: Box<dyn GraphDb> = kind.make();
    reference
        .bulk_load(&data, &LoadOptions::default())
        .expect("load reference");
    reference.sync().expect("sync reference");
    let ref_params = workload
        .resolve(reference.as_ref())
        .expect("resolve reference");

    // Phase 1: pin, then scan WHILE a writer thread mutates the source.
    let snap0 = source.snapshot().expect("pin snap0");
    let pinned_expected = read_suite(reference.as_ref(), &ref_params);
    std::thread::scope(|s| {
        let source = source.as_ref();
        let params = &src_params;
        let writer = s.spawn(move || {
            let mut owned = Vec::new();
            for (i, wop) in write_sequence().into_iter().enumerate() {
                source
                    .with_write(&mut |db| apply_write(wop, db, params, 0, i as u64, &mut owned))
                    .unwrap_or_else(|e| panic!("write {i} failed on {}: {e}", kind.name()));
            }
        });
        // Interleave: run the suite twice against the pinned epoch while
        // the writer is (probably) mid-burst. Both passes must equal the
        // no-writes sequential replay exactly.
        for pass in 0..2 {
            let got = read_suite(snap0.as_ref(), &src_params);
            assert_eq!(
                got,
                pinned_expected,
                "{} pass {pass}: pinned scan diverged from the sequential \
                 replay at the pinned epoch",
                kind.name(),
            );
        }
        writer.join().expect("writer thread");
    });

    // Phase 2: a fresh pin equals the sequential replay of the same writes.
    let mut owned = Vec::new();
    for (i, wop) in write_sequence().into_iter().enumerate() {
        apply_write(
            wop,
            reference.as_mut(),
            &ref_params,
            0,
            i as u64,
            &mut owned,
        )
        .unwrap_or_else(|e| panic!("reference write {i} failed on {}: {e}", kind.name()));
    }
    reference.sync().expect("sync reference after writes");
    let snap1 = source.snapshot().expect("pin snap1");
    assert!(
        snap1.epoch() > snap0.epoch(),
        "{}: epoch must advance across the write burst",
        kind.name(),
    );
    let got = read_suite(snap1.as_ref(), &src_params);
    let expected = read_suite(reference.as_ref(), &ref_params);
    assert_eq!(
        got,
        expected,
        "{}: post-writes snapshot diverged from the sequential replay",
        kind.name(),
    );

    // The old pin still answers from its epoch (no torn reads, ever).
    assert_eq!(
        read_suite(snap0.as_ref(), &src_params),
        pinned_expected,
        "{}: the original pin tore after the writes",
        kind.name(),
    );
}

/// All engine variants under the generic copy-on-write cell.
#[test]
fn cow_snapshots_are_consistent_on_every_engine() {
    for kind in EngineKind::ALL {
        check_engine(kind, SnapshotMode::Cow);
    }
}
