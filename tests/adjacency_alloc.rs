//! A hop on the cluster engine reads an edge record's `src`/`dst` head and
//! never decodes its property list, so `v.out()` (Q23) over a hub allocates
//! a constant number of times however many string-property edges it
//! crosses. Counted with `gm_model::testkit`'s wrapping global allocator,
//! per thread so the harness's other threads do not leak into the count.

use graphmark::engines::cluster::ClusterGraph;
use graphmark::model::api::{Direction, GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::testkit::{self, CountingAlloc};
use graphmark::model::value::Value;
use graphmark::model::{Dataset, QueryCtx, Vid};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Edges out of (and into) the hub.
const EDGES: u64 = 2_000;
/// A bound that no per-edge allocation fits under.
const FEW: u64 = 64;

/// Vertex 0 is a hub with an edge to each other vertex and one back from
/// each; every edge carries three string properties.
fn hub() -> Dataset {
    let mut d = Dataset::new("adjacency-alloc");
    for i in 0..=EDGES {
        d.add_vertex("n", vec![("name".into(), Value::Str(format!("v{i}")))]);
    }
    let props = |i: u64| {
        vec![
            ("name".into(), Value::Str(format!("edge-{i}"))),
            ("kind".into(), Value::Str(format!("kind-{}", i % 7))),
            (
                "note".into(),
                Value::Str("a string every edge decodes".into()),
            ),
        ]
    };
    for i in 1..=EDGES {
        d.add_edge(0, i, "out", props(i));
        d.add_edge(i, 0, "in", props(i));
    }
    d
}

#[test]
fn hops_allocate_per_call_not_per_edge() {
    let mut db = ClusterGraph::new();
    db.bulk_load(&hub(), &LoadOptions::default()).unwrap();
    let ctx = QueryCtx::unbounded();
    let v = db.resolve_vertex(0).unwrap();
    for (dir, label, want) in [
        (Direction::Out, None, EDGES),
        (Direction::In, None, EDGES),
        (Direction::Both, None, 2 * EDGES),
        (Direction::Both, Some("in"), EDGES),
    ] {
        let mut hits = 0;
        let allocs = testkit::allocations(|| {
            hits = db.neighbors(v, dir, label, &ctx).unwrap().len() as u64;
        });
        assert_eq!(hits, want, "{dir:?} {label:?}");
        assert!(
            allocs.calls < FEW,
            "{dir:?} {label:?}: {} allocations over {hits} edges",
            allocs.calls
        );
    }
}

#[test]
fn edge_endpoints_allocate_nothing() {
    let mut db = ClusterGraph::new();
    db.bulk_load(&hub(), &LoadOptions::default()).unwrap();
    let eids: Vec<_> = (0..2 * EDGES)
        .map(|e| db.resolve_edge(e).unwrap())
        .collect();
    let mut ends: Vec<(Vid, Vid)> = Vec::with_capacity(eids.len());
    let allocs = testkit::allocations(|| {
        for &e in &eids {
            ends.push(db.edge_endpoints(e).unwrap().expect("live edge"));
        }
    });
    assert_eq!(allocs.calls, 0, "{} edges", eids.len());
    let hub = db.resolve_vertex(0).unwrap();
    assert!(ends.iter().all(|&(src, dst)| src == hub || dst == hub));
}
