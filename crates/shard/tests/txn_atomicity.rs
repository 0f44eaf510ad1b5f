//! A write transaction's commit is all or nothing, on a single
//! copy-on-write cell and on a two-shard [`ShardedSource`] alike.
//!
//! Three ways a commit could publish part of its write set, each on
//! `chain_dataset(10)` (`v_i → v_{i+1}`, nine edges):
//!
//! * inside one transaction, removing a vertex must hide its edges from
//!   the transaction's own point reads and counts, so no later buffered
//!   write can name an edge the replay will already have cascaded away;
//! * whatever the write set, a commit that fails leaves the graph and the
//!   commit log exactly as they were;
//! * a concurrent autocommit removal whose cascade deletes an edge the
//!   transaction wrote is a conflict — its key names the vertex, not the
//!   edge, so validation alone misses it — and fails the commit before
//!   any of the write set lands.

use engine_linked::LinkedGraph;
use gm_model::api::{GraphDb, GraphSnapshot, LoadOptions};
use gm_model::{testkit, Eid, GdbError, QueryCtx, Value, Vid};
use gm_mvcc::{CowCell, SnapshotSource, WriteTxn};
use gm_shard::ShardedSource;

fn cell() -> Box<dyn SnapshotSource> {
    Box::new(CowCell::new(LinkedGraph::v1()))
}

/// Both sources, loaded with the chain.
fn sources() -> Vec<Box<dyn SnapshotSource>> {
    let sharded: Box<dyn SnapshotSource> = Box::new(ShardedSource::from_factory(2, cell));
    let data = testkit::chain_dataset(10);
    let all = vec![cell(), sharded];
    for source in &all {
        source
            .with_write(&mut |db| {
                db.bulk_load(&data, &LoadOptions::default())?;
                Ok(0)
            })
            .unwrap();
    }
    all
}

/// `(v3, v7, e2)`: e2 is `v2 → v3`, one of v3's two edges.
fn ids(source: &dyn SnapshotSource) -> (Vid, Vid, Eid) {
    let snap = source.snapshot().unwrap();
    (
        snap.resolve_vertex(3).unwrap(),
        snap.resolve_vertex(7).unwrap(),
        snap.resolve_edge(2).unwrap(),
    )
}

fn counts(source: &dyn SnapshotSource) -> (u64, u64) {
    let snap = source.snapshot().unwrap();
    let ctx = QueryCtx::unbounded();
    (
        snap.vertex_count(&ctx).unwrap(),
        snap.edge_count(&ctx).unwrap(),
    )
}

fn seq(source: &dyn SnapshotSource) -> u64 {
    source.txn_log().expect("every source keeps a log").seq()
}

#[test]
fn a_removed_vertex_takes_its_edges_out_of_the_txn_view() {
    for source in sources() {
        let name = source.engine();
        let (v3, _, e2) = ids(&*source);
        let ctx = QueryCtx::unbounded();
        let mut txn = WriteTxn::begin(&*source).unwrap();
        txn.remove_vertex(v3).unwrap();
        assert_eq!(txn.edge(e2).unwrap(), None, "{name}");
        assert_eq!(txn.edge_endpoints(e2).unwrap(), None, "{name}");
        assert_eq!(txn.edge_label(e2).unwrap(), None, "{name}");
        assert_eq!(txn.vertex_count(&ctx).unwrap(), 9, "{name}");
        assert_eq!(txn.edge_count(&ctx).unwrap(), 7, "{name}");
        assert!(
            matches!(
                txn.set_edge_property(e2, "x", Value::Int(1)),
                Err(GdbError::EdgeNotFound(_))
            ),
            "{name}: a cascaded edge takes no writes"
        );
        assert_eq!(txn.commit(&*source).unwrap(), 1, "{name}");
        assert_eq!(counts(&*source), (9, 7), "{name}");
    }
}

#[test]
fn a_commit_applies_all_of_its_write_set_or_none_of_it() {
    for source in sources() {
        let name = source.engine();
        let (v3, _, e2) = ids(&*source);
        let before = seq(&*source);
        let mut txn = WriteTxn::begin(&*source).unwrap();
        txn.remove_vertex(v3).unwrap();
        // Whether the transaction refuses this write now or its commit
        // fails on it later, the commit must not land half of the set.
        let _ = txn.set_edge_property(e2, "x", Value::Int(1));
        match txn.commit(&*source) {
            Ok(_) => {
                assert_eq!(counts(&*source), (9, 7), "{name}");
                assert!(seq(&*source) > before, "{name}: a commit is logged");
            }
            Err(e) => {
                assert_eq!(counts(&*source), (10, 9), "{name}: failed with {e}");
                assert_eq!(seq(&*source), before, "{name}: failed with {e}");
            }
        }
    }
}

#[test]
fn a_commit_racing_a_cascade_conflicts_and_applies_nothing() {
    for source in sources() {
        let name = source.engine();
        let (v3, v7, e2) = ids(&*source);
        let mut txn = WriteTxn::begin(&*source).unwrap();
        txn.set_vertex_property(v7, "y", Value::Int(5)).unwrap();
        txn.set_edge_property(e2, "x", Value::Int(1)).unwrap();
        // An autocommit removal cascades to e2; its only key is v3.
        source
            .with_write(&mut |db| db.remove_vertex(v3).map(|()| 1))
            .unwrap();
        let logged = seq(&*source);
        match txn.commit(&*source) {
            Err(GdbError::TxnConflict(why)) => assert!(why.contains("edge"), "{name}: {why}"),
            other => panic!("{name}: expected a conflict, got {other:?}"),
        }
        let snap = source.snapshot().unwrap();
        assert_eq!(snap.vertex_property(v7, "y").unwrap(), None, "{name}");
        assert_eq!(seq(&*source), logged, "{name}");
        assert_eq!(counts(&*source), (9, 7), "{name}");
    }
}
