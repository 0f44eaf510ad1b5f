//! A `has()` scan on the record engines allocates per match, not per
//! scanned record: linked and cluster compare each stored property in
//! place, and the triple engine's per-subject SPO probe walks the tree
//! without collecting. So does the columnar engine's whole-store scan: it
//! compares each stored cell, and each edge entry's property, in place.
//! Nor does the triple engine's degree count collect a hub's edges.
//! Counted with `gm_model::testkit`'s wrapping global allocator, per thread
//! so the harness's other threads do not leak into the count.

use graphmark::engines::{
    cluster::ClusterGraph, columnar::ColumnarGraph, linked::LinkedGraph, triple::TripleGraph,
};
use graphmark::model::api::{Direction, GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::testkit::{self, CountingAlloc};
use graphmark::model::value::Value;
use graphmark::model::{Dataset, QueryCtx};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Records scanned per query.
const RECORDS: usize = 10_000;
/// A bound that no per-record allocation fits under.
const FEW: u64 = 64;

/// `RECORDS` vertices and as many edges, each with a unique `name`, a
/// `kind` shared by one in ten, and a `w` integer. `"absent"` is stored,
/// under `other` only, so it is a known string no `name` holds.
fn dataset() -> Dataset {
    let mut d = Dataset::new("predicate-alloc");
    let props = |i: usize| {
        vec![
            ("name".into(), Value::Str(format!("element-{i}"))),
            ("kind".into(), Value::Str(format!("kind-{}", i % 10))),
            ("w".into(), Value::Int(i as i64 % 10)),
        ]
    };
    for i in 0..RECORDS {
        d.add_vertex("n", props(i));
    }
    d.add_vertex("n", vec![("other".into(), Value::Str("absent".into()))]);
    for i in 0..RECORDS {
        let (src, dst) = (i as u64, (i as u64 * 31 + 7) % RECORDS as u64);
        d.add_edge(src, dst, "e", props(i));
    }
    d
}

fn engines(data: &Dataset) -> Vec<Box<dyn GraphDb>> {
    let mut out: Vec<Box<dyn GraphDb>> = vec![
        Box::new(LinkedGraph::v2()),
        Box::new(ClusterGraph::new()),
        Box::new(TripleGraph::new()),
        Box::new(ColumnarGraph::v10()),
    ];
    for db in &mut out {
        db.bulk_load(data, &LoadOptions::default()).unwrap();
    }
    out
}

/// Q11 and Q12 for `name = value`: (hits, allocations) of each.
fn both_scans(db: &dyn GraphDb, name: &str, value: &Value) -> [(usize, u64); 2] {
    let ctx = QueryCtx::unbounded();
    let mut hits = 0;
    let vertices = testkit::allocations(|| {
        hits = db.vertices_with_property(name, value, &ctx).unwrap().len();
    });
    let q11 = (hits, vertices.calls);
    let edges = testkit::allocations(|| {
        hits = db.edges_with_property(name, value, &ctx).unwrap().len();
    });
    [q11, (hits, edges.calls)]
}

#[test]
fn a_scan_that_matches_nothing_allocates_a_constant() {
    let data = dataset();
    for db in engines(&data) {
        let absent = Value::Str("absent".into());
        for (query, (hits, allocs)) in ["Q11", "Q12"].iter().zip(both_scans(&*db, "name", &absent))
        {
            assert_eq!(hits, 0, "{} {query}", db.name());
            assert!(
                allocs < FEW,
                "{} {query}: {allocs} allocations over {RECORDS} records",
                db.name()
            );
        }
    }
}

#[test]
fn a_scan_allocates_per_match_not_per_record() {
    let data = dataset();
    for db in engines(&data) {
        let cases = [
            ("name", Value::Str("element-4321".into()), 1),
            ("kind", Value::Str("kind-3".into()), RECORDS / 10),
            ("w", Value::Float(3.0), RECORDS / 10),
        ];
        for (name, value, want) in cases {
            for (query, (hits, allocs)) in ["Q11", "Q12"].iter().zip(both_scans(&*db, name, &value))
            {
                assert_eq!(hits, want, "{} {query} {name}", db.name());
                // The answer vector grows by doubling: a handful of
                // allocations for a thousand hits.
                assert!(
                    allocs < FEW,
                    "{} {query} has({name}, {value:?}): {allocs} allocations for {hits} hits",
                    db.name()
                );
            }
        }
    }
}

#[test]
fn triple_degree_of_a_hub_allocates_nothing() {
    let mut db = TripleGraph::new();
    let hub = db.add_vertex("n", &vec![]).unwrap();
    for _ in 0..1_000 {
        let v = db.add_vertex("n", &vec![]).unwrap();
        db.add_edge(hub, v, "e", &vec![]).unwrap();
        db.add_edge(v, hub, "e", &vec![]).unwrap();
    }
    let ctx = QueryCtx::unbounded();
    let mut degree = 0;
    let counted = testkit::allocations(|| {
        degree = db.vertex_degree(hub, Direction::Both, &ctx).unwrap();
    });
    assert_eq!(degree, 2_000);
    assert_eq!(counted.calls, 0, "vertex_degree over {degree} edges");
}
