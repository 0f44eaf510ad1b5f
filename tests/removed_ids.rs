//! A removal records only ids the bulk load handed out.
//!
//! `gm_model::Resolution` stops resolving a removed loaded element by
//! recording its id. Relational and cluster put a label's table in an id's
//! high bits, so an edge added later under a loaded label sorts among the
//! loaded ids; its removal must not grow the removed-set, which would
//! otherwise grow by one id per such removal for the engine's lifetime.
//! Bare relational removes an edge without allocating, so its allocations
//! (counted with `gm_model::testkit`'s per-thread allocator) show the set;
//! cluster's depend on how wide the label's ids encode, so both are held
//! through a two-shard composite, whose `space()` counts the ids its
//! routing maps record removed.

use graphmark::model::api::{GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::testkit::{self, allocations, CountingAlloc};
use graphmark::model::Eid;
use graphmark::registry::EngineKind;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn load(db: &mut dyn GraphDb) {
    let chain = testkit::chain_dataset(10);
    db.bulk_load(&chain, &LoadOptions::default()).unwrap();
}

/// The bytes a two-shard composite's routing maps report after 20 cycles
/// that add an edge labelled `label` between loaded vertices 0 and 1 and
/// remove it: the maps count each id their `Resolution` recorded removed.
fn routing_bytes_after_cycles(kind: EngineKind, label: &str) -> u64 {
    let mut db = kind.make_sharded(2);
    load(&mut db);
    let (a, b) = (db.resolve_vertex(0).unwrap(), db.resolve_vertex(1).unwrap());
    for _ in 0..20 {
        let e = db.add_edge(a, b, label, &vec![]).unwrap();
        db.remove_edge(e).unwrap();
    }
    let space = db.space().components;
    space
        .iter()
        .find(|(name, _)| name == "shard routing maps")
        .unwrap()
        .1
}

/// Allocation calls of removing 20 edges labelled `label`, added after the
/// load between loaded vertices 0 and 1.
fn removal_allocs(kind: EngineKind, label: &str) -> u64 {
    let mut db = kind.make();
    load(&mut *db);
    let (a, b) = (db.resolve_vertex(0).unwrap(), db.resolve_vertex(1).unwrap());
    let added: Vec<Eid> = (0..20)
        .map(|_| db.add_edge(a, b, label, &vec![]).unwrap())
        .collect();
    allocations(|| added.iter().for_each(|&e| db.remove_edge(e).unwrap())).calls
}

/// `next` is the chain's first edge label, so its table sorts first and an
/// edge added under it sorts among the loaded ids; `fresh` sorts past them.
#[test]
fn removing_an_edge_added_under_a_loaded_label_records_nothing() {
    let allocs = ["next", "fresh"].map(|label| removal_allocs(EngineKind::Relational, label));
    assert_eq!(
        allocs[0], allocs[1],
        "relational: 20 removals under a loaded label allocate as under a fresh one"
    );
    for kind in [EngineKind::Relational, EngineKind::Cluster] {
        let bytes = ["next", "fresh"].map(|label| routing_bytes_after_cycles(kind, label));
        assert_eq!(
            bytes[0],
            bytes[1],
            "{}/s2: routing maps after 20 add-then-remove cycles",
            kind.name()
        );
    }
}
