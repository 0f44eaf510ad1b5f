//! Engine conformance suite, and shared test helpers.
//!
//! Every engine crate runs [`conformance_suite`] in its tests: it loads a
//! small, hand-checkable dataset and asserts the *semantics* of every
//! [`GraphDb`] method. The whole benchmark rests on all engines giving
//! identical answers — only their latencies may differ — so this suite is
//! the first line of defence, complemented by the cross-engine equivalence
//! tests in the workspace's `tests/` directory.
//!
//! [`CountingAlloc`] + [`allocations`] turn "this path does not allocate"
//! into an assertion for any test binary that installs the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use crate::api::{Direction, GraphDb, LoadOptions};
use crate::ctx::QueryCtx;
use crate::dataset::Dataset;
use crate::error::GdbError;
use crate::value::Value;

/// A small social-style graph with every feature the trait exercises:
/// parallel edges, self-loops, multiple labels, properties on both
/// vertices and edges, and an isolated vertex.
///
/// ```text
///   v0(ann)   --knows-->  v1(bob)   --knows-->  v2(col)
///   v0        --knows-->  v1                  (parallel edge)
///   v2        --likes-->  v0
///   v2        --likes-->  v2                  (self-loop)
///   v3(dan)   (isolated, label "robot")
///   v4(eve)   --follows-> v0
/// ```
pub fn tiny_dataset() -> Dataset {
    let mut d = Dataset::new("testkit-tiny");
    let v0 = d.add_vertex(
        "person",
        vec![
            ("name".into(), Value::Str("ann".into())),
            ("age".into(), Value::Int(30)),
        ],
    );
    let v1 = d.add_vertex(
        "person",
        vec![
            ("name".into(), Value::Str("bob".into())),
            ("age".into(), Value::Int(25)),
        ],
    );
    let v2 = d.add_vertex(
        "person",
        vec![
            ("name".into(), Value::Str("col".into())),
            ("age".into(), Value::Int(30)),
        ],
    );
    let v3 = d.add_vertex("robot", vec![("name".into(), Value::Str("dan".into()))]);
    let v4 = d.add_vertex("person", vec![("name".into(), Value::Str("eve".into()))]);
    let _ = v3;
    d.add_edge(v0, v1, "knows", vec![("since".into(), Value::Int(2010))]);
    d.add_edge(v1, v2, "knows", vec![("since".into(), Value::Int(2012))]);
    d.add_edge(v0, v1, "knows", vec![]); // parallel
    d.add_edge(v2, v0, "likes", vec![("weight".into(), Value::Float(0.5))]);
    d.add_edge(v2, v2, "likes", vec![]); // self-loop
    d.add_edge(v4, v0, "follows", vec![]);
    d
}

/// A larger random-ish graph used for scan/timeout checks.
pub fn chain_dataset(n: u64) -> Dataset {
    let mut d = Dataset::new("testkit-chain");
    for i in 0..n {
        d.add_vertex(
            if i % 3 == 0 { "even" } else { "odd" },
            vec![("idx".into(), Value::Int(i as i64))],
        );
    }
    for i in 0..n.saturating_sub(1) {
        d.add_edge(i, i + 1, if i % 2 == 0 { "next" } else { "link" }, vec![]);
    }
    d
}

/// Run `f` on a thread of its own and panic unless it returns within
/// `guard`: a regression that hangs fails its test instead of wedging the
/// whole run.
pub fn within<T: Send + 'static>(guard: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || done.send(f()));
    let value = result
        .recv_timeout(guard)
        .unwrap_or_else(|_| panic!("no result within the {guard:?} wall-clock guard"));
    worker
        .join()
        .expect("worker already sent its result")
        .expect("receiver outlives the worker");
    value
}

/// What a closure allocated on the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation calls (a growing `realloc` is one).
    pub calls: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

thread_local! {
    static ALLOCS: Cell<Allocs> = const { Cell::new(Allocs { calls: 0, bytes: 0 }) };
}

/// A global allocator that counts every allocation per thread and defers
/// the work to [`System`]. A test binary installs it with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;` and
/// measures with [`allocations`]; counting per thread keeps the harness's
/// other threads out of the number.
pub struct CountingAlloc;

// SAFETY: defers every operation to `System` unchanged; the thread-local is
// a `const`-initialised `Cell` with no destructor, so touching it from
// inside the allocator neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| {
            let seen = n.get();
            n.set(Allocs {
                calls: seen.calls.wrapping_add(1),
                bytes: seen.bytes.wrapping_add(layout.size() as u64),
            })
        });
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What `f` allocated on this thread. Counts only under [`CountingAlloc`];
/// zero in a binary that did not install it.
pub fn allocations(f: impl FnOnce()) -> Allocs {
    let before = ALLOCS.with(Cell::get);
    f();
    let after = ALLOCS.with(Cell::get);
    Allocs {
        calls: after.calls.wrapping_sub(before.calls),
        bytes: after.bytes.wrapping_sub(before.bytes),
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Run the full conformance battery against a fresh engine from `make`.
///
/// Panics with a descriptive message on the first violation.
pub fn conformance_suite(make: &mut dyn FnMut() -> Box<dyn GraphDb>) {
    check_load_and_reads(&mut *make);
    check_traversals(&mut *make);
    check_mutations(&mut *make);
    check_deletes(&mut *make);
    check_indexes(&mut *make);
    check_timeouts(&mut *make);
    check_degree_scan(&mut *make);
    check_space_and_features(&mut *make);
}

fn load_tiny(make: &mut dyn FnMut() -> Box<dyn GraphDb>) -> Box<dyn GraphDb> {
    let mut db = make();
    let stats = db
        .bulk_load(&tiny_dataset(), &LoadOptions::default())
        .expect("bulk_load failed");
    assert_eq!(stats.vertices, 5, "load stats vertices");
    assert_eq!(stats.edges, 6, "load stats edges");
    db
}

/// Map canonical vertex ids to internal ones for assertion convenience.
fn vids(db: &dyn GraphDb) -> Vec<crate::Vid> {
    (0..5)
        .map(|c| {
            db.resolve_vertex(c)
                .unwrap_or_else(|| panic!("canonical v{c} unmapped"))
        })
        .collect()
}

fn check_load_and_reads(make: &mut dyn FnMut() -> Box<dyn GraphDb>) {
    let db = load_tiny(make);
    let ctx = QueryCtx::unbounded();

    assert_eq!(db.vertex_count(&ctx).unwrap(), 5, "Q8 vertex count");
    assert_eq!(db.edge_count(&ctx).unwrap(), 6, "Q9 edge count");

    let mut labels = db.edge_label_set(&ctx).unwrap();
    labels.sort();
    assert_eq!(labels, vec!["follows", "knows", "likes"], "Q10 label set");

    let v = vids(db.as_ref());

    // Q11: vertices with age == 30 -> ann, col.
    let hits = db
        .vertices_with_property("age", &Value::Int(30), &ctx)
        .unwrap();
    assert_eq!(
        sorted(hits.iter().map(|x| x.0).collect()),
        sorted(vec![v[0].0, v[2].0]),
        "Q11 property search"
    );
    // Missing property value.
    assert!(db
        .vertices_with_property("age", &Value::Int(99), &ctx)
        .unwrap()
        .is_empty());

    // Q12: edges with since == 2012.
    let hits = db
        .edges_with_property("since", &Value::Int(2012), &ctx)
        .unwrap();
    assert_eq!(hits.len(), 1, "Q12 edge property search");

    // Q13: edges labeled "knows" -> 3.
    assert_eq!(
        db.edges_with_label("knows", &ctx).unwrap().len(),
        3,
        "Q13 label search"
    );
    assert_eq!(db.edges_with_label("nope", &ctx).unwrap().len(), 0);

    // Q14: vertex by id.
    let vd = db.vertex(v[0]).unwrap().expect("v0 exists");
    assert_eq!(vd.label, "person");
    assert_eq!(
        vd.props.iter().find(|(n, _)| n == "name").map(|(_, v)| v),
        Some(&Value::Str("ann".into())),
        "Q14 materializes properties"
    );

    // Q15: edge by id.
    let e0 = db.resolve_edge(0).expect("canonical e0");
    let ed = db.edge(e0).unwrap().expect("e0 exists");
    assert_eq!(ed.label, "knows");
    assert_eq!((ed.src, ed.dst), (v[0], v[1]), "Q15 endpoints");
    assert_eq!(
        ed.props.iter().find(|(n, _)| n == "since").map(|(_, v)| v),
        Some(&Value::Int(2010))
    );

    // Scans visit everything exactly once.
    let scanned: Vec<u64> = db
        .scan_vertices(&ctx)
        .unwrap()
        .map(|r| r.unwrap().0)
        .collect();
    assert_eq!(scanned.len(), 5, "vertex scan cardinality");
    let scanned_e: Vec<u64> = db.scan_edges(&ctx).unwrap().map(|r| r.unwrap().0).collect();
    assert_eq!(scanned_e.len(), 6, "edge scan cardinality");

    // Accessors.
    assert_eq!(db.vertex_label(v[3]).unwrap().as_deref(), Some("robot"));
    assert_eq!(db.edge_label(e0).unwrap().as_deref(), Some("knows"));
    assert_eq!(db.edge_endpoints(e0).unwrap(), Some((v[0], v[1])));
    assert_eq!(
        db.vertex_property(v[1], "age").unwrap(),
        Some(Value::Int(25))
    );
    assert_eq!(db.vertex_property(v[1], "nope").unwrap(), None);
    assert_eq!(
        db.edge_property(e0, "since").unwrap(),
        Some(Value::Int(2010))
    );
}

fn check_traversals(make: &mut dyn FnMut() -> Box<dyn GraphDb>) {
    let db = load_tiny(make);
    let ctx = QueryCtx::unbounded();
    let v = vids(db.as_ref());

    // Q23 out(): v0 -> bob twice (parallel edges count).
    let out = db.neighbors(v[0], Direction::Out, None, &ctx).unwrap();
    assert_eq!(
        sorted(out.iter().map(|x| x.0).collect()),
        sorted(vec![v[1].0, v[1].0]),
        "Q23 out neighbors with parallel edge"
    );

    // Q22 in(): v0 <- col, eve.
    let inn = db.neighbors(v[0], Direction::In, None, &ctx).unwrap();
    assert_eq!(
        sorted(inn.iter().map(|x| x.0).collect()),
        sorted(vec![v[2].0, v[4].0]),
        "Q22 in neighbors"
    );

    // Q24 both('likes') at v2: likes-out to v0, self-loop twice.
    let both = db
        .neighbors(v[2], Direction::Both, Some("likes"), &ctx)
        .unwrap();
    assert_eq!(
        sorted(both.iter().map(|x| x.0).collect()),
        sorted(vec![v[0].0, v[2].0, v[2].0]),
        "Q24 labeled both() with self-loop seen from both ends"
    );

    // Labeled filter with no matches.
    assert!(db
        .neighbors(v[0], Direction::Out, Some("likes"), &ctx)
        .unwrap()
        .is_empty());

    // Degrees (Q28-30 predicate).
    assert_eq!(db.vertex_degree(v[0], Direction::Out, &ctx).unwrap(), 2);
    assert_eq!(db.vertex_degree(v[0], Direction::In, &ctx).unwrap(), 2);
    assert_eq!(db.vertex_degree(v[0], Direction::Both, &ctx).unwrap(), 4);
    assert_eq!(
        db.vertex_degree(v[2], Direction::Both, &ctx).unwrap(),
        4,
        "self-loop counts twice in both()"
    );
    assert_eq!(db.vertex_degree(v[3], Direction::Both, &ctx).unwrap(), 0);

    // Q25-27 edge label sets.
    let mut labels = db.vertex_edge_labels(v[0], Direction::Both, &ctx).unwrap();
    labels.sort();
    assert_eq!(labels, vec!["follows", "knows", "likes"], "Q27 both labels");
    let mut labels = db.vertex_edge_labels(v[0], Direction::Out, &ctx).unwrap();
    labels.sort();
    assert_eq!(labels, vec!["knows"], "Q26 out labels dedup");

    // vertex_edges returns matching EdgeRefs.
    let refs = db.vertex_edges(v[0], Direction::Out, None, &ctx).unwrap();
    assert_eq!(refs.len(), 2);
    assert!(refs.iter().all(|r| r.other == v[1]));
}

fn check_mutations(make: &mut dyn FnMut() -> Box<dyn GraphDb>) {
    let mut db = load_tiny(make);
    let ctx = QueryCtx::unbounded();
    let v = vids(db.as_ref());

    // Q2: add vertex with properties.
    let nv = db
        .add_vertex("person", &vec![("name".into(), Value::Str("fred".into()))])
        .unwrap();
    assert_eq!(db.vertex_count(&ctx).unwrap(), 6);
    assert_eq!(
        db.vertex_property(nv, "name").unwrap(),
        Some(Value::Str("fred".into()))
    );

    // Q3/Q4: add edges.
    let ne = db.add_edge(nv, v[0], "knows", &vec![]).unwrap();
    assert_eq!(db.edge_count(&ctx).unwrap(), 7);
    assert_eq!(db.edge_endpoints(ne).unwrap(), Some((nv, v[0])));
    let ne2 = db
        .add_edge(nv, v[1], "rated", &vec![("stars".into(), Value::Int(5))])
        .unwrap();
    assert_eq!(db.edge_property(ne2, "stars").unwrap(), Some(Value::Int(5)));
    assert!(
        db.edge_label_set(&ctx)
            .unwrap()
            .contains(&"rated".to_string()),
        "new edge label appears in Q10"
    );

    // Q5/Q16: set vertex property (new + update).
    db.set_vertex_property(nv, "age", Value::Int(40)).unwrap();
    assert_eq!(db.vertex_property(nv, "age").unwrap(), Some(Value::Int(40)));
    db.set_vertex_property(nv, "age", Value::Int(41)).unwrap();
    assert_eq!(db.vertex_property(nv, "age").unwrap(), Some(Value::Int(41)));

    // Q6/Q17: set edge property.
    db.set_edge_property(ne, "since", Value::Int(2024)).unwrap();
    assert_eq!(
        db.edge_property(ne, "since").unwrap(),
        Some(Value::Int(2024))
    );

    // Adding an edge to a missing vertex fails.
    let missing = crate::Vid(u64::MAX - 7);
    assert!(db.add_edge(missing, v[0], "x", &vec![]).is_err());

    // Mutations visible to search after sync.
    db.sync().unwrap();
    let hits = db
        .vertices_with_property("name", &Value::Str("fred".into()), &ctx)
        .unwrap();
    assert_eq!(hits, vec![nv], "new vertex findable by property");
}

fn check_deletes(make: &mut dyn FnMut() -> Box<dyn GraphDb>) {
    let mut db = load_tiny(make);
    let ctx = QueryCtx::unbounded();
    let v = vids(db.as_ref());
    let e0 = db.resolve_edge(0).unwrap();

    // Q20/Q21 property removal.
    assert_eq!(
        db.remove_vertex_property(v[0], "age").unwrap(),
        Some(Value::Int(30))
    );
    assert_eq!(db.remove_vertex_property(v[0], "age").unwrap(), None);
    assert_eq!(db.vertex_property(v[0], "age").unwrap(), None);
    assert_eq!(
        db.remove_edge_property(e0, "since").unwrap(),
        Some(Value::Int(2010))
    );
    assert_eq!(db.edge_property(e0, "since").unwrap(), None);

    // Q19: edge removal.
    db.remove_edge(e0).unwrap();
    assert_eq!(db.edge_count(&ctx).unwrap(), 5);
    assert_eq!(db.edge(e0).unwrap(), None);
    assert!(db.remove_edge(e0).is_err(), "double edge delete errors");
    // v0 -> v1 still connected via the parallel edge.
    let out = db.neighbors(v[0], Direction::Out, None, &ctx).unwrap();
    assert_eq!(out, vec![v[1]], "parallel edge survives");

    // Q18: vertex removal cascades to incident edges.
    db.remove_vertex(v[2]).unwrap();
    assert_eq!(db.vertex_count(&ctx).unwrap(), 4);
    // col had: in knows from bob, out likes to ann, self-loop likes = 3 edges.
    assert_eq!(
        db.edge_count(&ctx).unwrap(),
        2,
        "cascade removed col's 3 edges"
    );
    assert_eq!(db.vertex(v[2]).unwrap(), None);
    assert!(db.remove_vertex(v[2]).is_err());
    // ann's in-neighbors no longer include col.
    let inn = db.neighbors(v[0], Direction::In, None, &ctx).unwrap();
    assert_eq!(inn, vec![v[4]]);
    // Scans reflect deletions.
    assert_eq!(db.scan_edges(&ctx).unwrap().count(), 2);
    assert_eq!(db.scan_vertices(&ctx).unwrap().count(), 4);
}

fn check_indexes(make: &mut dyn FnMut() -> Box<dyn GraphDb>) {
    let mut db = load_tiny(make);
    let ctx = QueryCtx::unbounded();
    if !db.features().attribute_indexes {
        assert!(matches!(
            db.create_vertex_index("name"),
            Err(GdbError::Unsupported(_))
        ));
        return;
    }
    let before = db
        .vertices_with_property("name", &Value::Str("ann".into()), &ctx)
        .unwrap();
    db.create_vertex_index("name").unwrap();
    assert!(db.has_vertex_index("name"));
    assert!(!db.has_vertex_index("other"));
    let after = db
        .vertices_with_property("name", &Value::Str("ann".into()), &ctx)
        .unwrap();
    assert_eq!(
        sorted(before.iter().map(|x| x.0).collect()),
        sorted(after.iter().map(|x| x.0).collect()),
        "index must not change results"
    );
    // Index stays correct under mutation.
    let nv = db
        .add_vertex("person", &vec![("name".into(), Value::Str("ann".into()))])
        .unwrap();
    db.sync().unwrap();
    let hits = db
        .vertices_with_property("name", &Value::Str("ann".into()), &ctx)
        .unwrap();
    assert_eq!(hits.len(), after.len() + 1, "index sees inserts");
    db.remove_vertex(nv).unwrap();
    let hits = db
        .vertices_with_property("name", &Value::Str("ann".into()), &ctx)
        .unwrap();
    assert_eq!(hits.len(), after.len(), "index sees deletes");
    // Property update moves the entry.
    let target = hits[0];
    db.set_vertex_property(target, "name", Value::Str("zoe".into()))
        .unwrap();
    let hits = db
        .vertices_with_property("name", &Value::Str("zoe".into()), &ctx)
        .unwrap();
    assert!(hits.contains(&target), "index sees updates");
}

fn check_timeouts(make: &mut dyn FnMut() -> Box<dyn GraphDb>) {
    let mut db = make();
    db.bulk_load(&chain_dataset(20_000), &LoadOptions::default())
        .expect("chain load");
    // An already-expired context must abort a full scan with Timeout.
    let ctx = QueryCtx::with_timeout(Duration::from_millis(0));
    std::thread::sleep(Duration::from_millis(2));
    let outcome = db.vertex_count(&ctx);
    assert_eq!(
        outcome,
        Err(GdbError::Timeout),
        "scan must observe the deadline ({})",
        db.name()
    );
}

fn check_degree_scan(make: &mut dyn FnMut() -> Box<dyn GraphDb>) {
    let db = load_tiny(make);
    let ctx = QueryCtx::unbounded();
    let v = vids(db.as_ref());
    // Vertices with both-degree >= 4: ann (4) and col (4).
    let hits = db.degree_scan(Direction::Both, 4, &ctx);
    match hits {
        Ok(hits) => {
            assert_eq!(
                sorted(hits.iter().map(|x| x.0).collect()),
                sorted(vec![v[0].0, v[2].0]),
                "Q30 degree scan"
            );
            // k = 0 matches everything.
            assert_eq!(db.degree_scan(Direction::Both, 0, &ctx).unwrap().len(), 5);
        }
        Err(GdbError::ResourceExhausted(_)) => {
            // Acceptable: the bitmap engine's adapter-faithful failure mode.
        }
        Err(e) => panic!("degree_scan failed unexpectedly: {e}"),
    }
}

fn check_space_and_features(make: &mut dyn FnMut() -> Box<dyn GraphDb>) {
    let db = load_tiny(make);
    let report = db.space();
    assert!(report.total() > 0, "space report must be non-empty");
    assert!(!report.components.is_empty());
    let f = db.features();
    assert!(!f.name.is_empty());
    assert!(!f.storage.is_empty());
    assert_eq!(f.name, db.name());
}
