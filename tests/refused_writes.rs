//! A write the engine refuses for its arguments publishes nothing else.
//!
//! The relational engine caps labels and property names at 63 bytes and
//! declares it (`EngineFeatures::max_identifier_len`). A write transaction
//! refuses a longer name when the write is buffered, as autocommit refuses
//! it — so the transaction can be dropped with its earlier writes unseen,
//! instead of failing at commit after replaying them. And a copy-on-write
//! batch that fails after it made the epoch's pending copy drops that copy.
//! Both on a `CowCell` and on a two-shard `ShardedSource`.

use graphmark::model::api::{GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::{testkit, GdbError, Value};
use graphmark::mvcc::{SnapshotMode, SnapshotSource, WriteTxn};
use graphmark::registry::EngineKind;

fn sources() -> Vec<Box<dyn SnapshotSource>> {
    let data = testkit::chain_dataset(10);
    let cell = EngineKind::Relational.make_snapshot_source(SnapshotMode::Cow);
    let sharded = Box::new(EngineKind::Relational.make_sharded_source(2));
    let sources: Vec<Box<dyn SnapshotSource>> = vec![cell, sharded];
    for src in &sources {
        src.with_write(&mut |db| db.bulk_load(&data, &LoadOptions::default()).map(|_| 0))
            .expect("load");
    }
    sources
}

fn y_of_v7(src: &dyn SnapshotSource) -> Option<Value> {
    let pin = src.snapshot().expect("pin");
    let v7 = pin.resolve_vertex(7).expect("v7 resolves");
    pin.vertex_property(v7, "y").expect("property read")
}

#[test]
fn a_transaction_refuses_a_long_name_when_it_is_buffered() {
    let long = "l".repeat(100);
    for src in sources() {
        let name = src.engine();
        let seq = src.txn_log().map(|log| log.seq());
        let mut txn = WriteTxn::begin(&*src).expect("begin");
        let v7 = txn.resolve_vertex(7).expect("v7 resolves");
        txn.set_vertex_property(v7, "y", Value::Int(5))
            .expect("buffered");
        let buffered = txn.add_vertex(&long, &vec![]).map(drop);
        let autocommit = src.with_write(&mut |db| db.add_vertex(&long, &vec![]).map(|_| 1));
        match (&buffered, &autocommit) {
            (Err(GdbError::Invalid(t)), Err(GdbError::Invalid(a))) => {
                assert_eq!(t, a, "{name}: the transaction refuses as autocommit does")
            }
            other => panic!("{name}: both must refuse the 100-byte label, got {other:?}"),
        }
        assert_eq!(
            txn.op_count(),
            1,
            "{name}: the refused write is not buffered"
        );
        txn.abort();
        assert_eq!(y_of_v7(&*src), None, "{name}: nothing published");
        assert_eq!(src.txn_log().map(|log| log.seq()), seq, "{name}: no commit");
    }
}

#[test]
fn a_failed_cow_batch_drops_the_copy_it_made() {
    let long = "l".repeat(100);
    let src = EngineKind::Relational.make_snapshot_source(SnapshotMode::Cow);
    let data = testkit::chain_dataset(10);
    src.with_write(&mut |db| db.bulk_load(&data, &LoadOptions::default()).map(|_| 0))
        .expect("load");
    let epoch = src.snapshot().expect("publishing pin").epoch();
    let refused = src.with_write(&mut |db| {
        let v7 = db.resolve_vertex(7).expect("v7 resolves");
        db.set_vertex_property(v7, "y", Value::Int(5))?;
        db.add_vertex(&long, &vec![]).map(|_| 2)
    });
    assert!(matches!(refused, Err(GdbError::Invalid(_))), "{refused:?}");
    assert_eq!(y_of_v7(&*src), None, "the batch's first write is dropped");
    assert_eq!(
        src.snapshot().expect("pin").epoch(),
        epoch,
        "no epoch published"
    );
}
