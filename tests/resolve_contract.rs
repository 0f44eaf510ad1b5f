//! The canonical-resolution contract of `GraphSnapshot::resolve_vertex` /
//! `resolve_edge` — the id of the element the bulk load placed there while
//! that element is live, else `None` — where the differential oracle
//! (`crates/net/tests/oracle.rs`, which holds every stack to it after
//! generated writes) does not reach: a write transaction's view of the
//! elements it removed.

use graphmark::model::api::{GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::{testkit, GdbResult};
use graphmark::mvcc::{SnapshotMode, SnapshotSource, WriteTxn};
use graphmark::registry::EngineKind;

const N: u64 = 10;

fn load(db: &mut dyn GraphDb) -> GdbResult<u64> {
    let chain = testkit::chain_dataset(N);
    db.bulk_load(&chain, &LoadOptions::default()).map(|_| 0)
}

/// What a view resolves, `[vertices, edges]` by canonical id.
type Ids = [Vec<Option<u64>>; 2];

fn ids(view: &dyn GraphSnapshot) -> Ids {
    [
        (0..N)
            .map(|c| view.resolve_vertex(c).map(|v| v.0))
            .collect(),
        (0..N - 1)
            .map(|c| view.resolve_edge(c).map(|e| e.0))
            .collect(),
    ]
}

/// What a view must answer after vertex 3 is removed: the loaded ids, less
/// vertex 3 and edges 2 and 3 (its cascade).
fn expected_after(loaded: &Ids) -> Ids {
    let mut want = loaded.clone();
    want[0][3] = None;
    want[1][2] = None;
    want[1][3] = None;
    want
}

/// A transaction that removes loaded vertex 3 stops resolving it, and
/// edges 2 and 3 that its cascade takes, in its own view — on a cell and on
/// a two-shard composite — and the commit makes that everyone's view.
#[test]
fn a_transaction_stops_resolving_what_it_removed() {
    let kind = EngineKind::LinkedV1;
    let cell = kind.make_snapshot_source(SnapshotMode::Cow);
    let sharded = kind.make_sharded_source(2);
    for (name, src) in [("cow", &*cell), ("s2", &sharded as &dyn SnapshotSource)] {
        src.with_write(&mut |db| load(db)).unwrap();
        let mut txn = WriteTxn::begin(src).unwrap();
        let loaded = ids(&txn);
        let v3 = txn.resolve_vertex(3).expect("vertex 3 resolves");
        txn.remove_vertex(v3).unwrap();
        assert_eq!(txn.vertex(v3).unwrap(), None, "{name}: the txn removed v3");
        let want = expected_after(&loaded);
        assert_eq!(ids(&txn), want, "{name}: the txn's own view");
        txn.commit(src).unwrap();
        let committed = ids(&*src.snapshot().unwrap());
        assert_eq!(committed, want, "{name}: after the commit");
    }
}
