//! A panic while the server serves a request — an engine bug — reaches the
//! client as a named error, never as a dropped socket: the request is
//! answered `Corrupt` with the panic's message and its connection closes,
//! while the server and fresh connections go on. A write that panicked
//! under the locked host's write lock leaves it poisoned, which the next
//! write hears as `Poisoned`.

use std::time::Duration;

use gm_model::api::{Applied, Direction, EdgeData, EdgeRef, EngineFeatures, Mutation};
use gm_model::api::{LoadOptions, SpaceReport, VertexData};
use gm_model::{testkit, Eid, GdbError, GdbResult, GraphDb, GraphSnapshot, QueryCtx, Value, Vid};
use gm_net::{RemoteEngine, Server};
use graphmark::registry::EngineKind;

/// The label whose `AddVertex` panics.
const TRIPWIRE: &str = "tripwire";

/// A real engine behind a forwarding double whose `vertex_count` always
/// panics, as does its `apply` of an `AddVertex` labelled [`TRIPWIRE`].
struct Tripwire(Box<dyn GraphDb>);

impl GraphSnapshot for Tripwire {
    fn name(&self) -> String {
        self.0.name()
    }
    fn features(&self) -> EngineFeatures {
        self.0.features()
    }
    fn epoch(&self) -> u64 {
        self.0.epoch()
    }
    fn resolve_vertex(&self, canonical: u64) -> Option<Vid> {
        self.0.resolve_vertex(canonical)
    }
    fn resolve_edge(&self, canonical: u64) -> Option<Eid> {
        self.0.resolve_edge(canonical)
    }
    fn vertex_count(&self, _ctx: &QueryCtx) -> GdbResult<u64> {
        panic!("tripwire in vertex_count");
    }
    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        self.0.edge_count(ctx)
    }
    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.0.edge_label_set(ctx)
    }
    fn vertices_with_property(&self, n: &str, v: &Value, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        self.0.vertices_with_property(n, v, ctx)
    }
    fn edges_with_property(&self, n: &str, v: &Value, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        self.0.edges_with_property(n, v, ctx)
    }
    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        self.0.edges_with_label(label, ctx)
    }
    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        self.0.vertex(v)
    }
    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        self.0.edge(e)
    }
    fn for_each_incident(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
        f: &mut dyn FnMut(EdgeRef) -> GdbResult<()>,
    ) -> GdbResult<()> {
        self.0.for_each_incident(v, dir, label, ctx, f)
    }
    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.0.vertex_edge_labels(v, dir, ctx)
    }
    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        self.0.scan_vertices(ctx)
    }
    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        self.0.scan_edges(ctx)
    }
    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.0.vertex_property(v, name)
    }
    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        self.0.edge_property(e, name)
    }
    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        self.0.edge_endpoints(e)
    }
    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        self.0.edge_label(e)
    }
    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        self.0.vertex_label(v)
    }
    fn has_vertex_index(&self, prop: &str) -> bool {
        self.0.has_vertex_index(prop)
    }
    fn space(&self) -> SpaceReport {
        self.0.space()
    }
}

impl GraphDb for Tripwire {
    fn apply(&mut self, m: Mutation<'_>) -> GdbResult<Applied> {
        if matches!(&m, Mutation::AddVertex(label, _) if label == TRIPWIRE) {
            panic!("tripwire in apply");
        }
        self.0.apply(m)
    }
}

/// The `Corrupt` message of a request answered for a panic, or a failure
/// naming what came back instead.
fn panic_message<T: std::fmt::Debug>(answer: GdbResult<T>) -> String {
    match answer {
        Err(GdbError::Corrupt(why)) => why,
        other => panic!("expected the panic as Corrupt, got {other:?}"),
    }
}

#[test]
fn a_panicking_engine_answers_a_named_error_and_the_server_goes_on() {
    let server = Server::bind(
        "127.0.0.1:0",
        Box::new(|| Box::new(Tripwire(EngineKind::LinkedV2.make())) as Box<dyn GraphDb>),
    )
    .unwrap()
    .spawn()
    .unwrap();
    let addr = server.addr().to_string();
    let ctx = QueryCtx::with_timeout(Duration::from_secs(10));

    let mut first = RemoteEngine::connect(&addr).unwrap();
    let data = testkit::chain_dataset(10);
    first.bulk_load(&data, &LoadOptions::default()).unwrap();
    let why = panic_message(first.vertex_count(&ctx));
    assert!(why.contains("panicked serving"), "{why}");
    assert!(why.contains("tripwire in vertex_count"), "{why}");
    // The panicking connection is closed: its state is not trusted.
    assert!(
        matches!(first.edge_count(&ctx), Err(GdbError::Io(_))),
        "the connection closed"
    );

    // A read that panicked poisoned nothing: a fresh connection reads.
    let mut second = RemoteEngine::connect(&addr).unwrap();
    assert_eq!(second.edge_count(&ctx), Ok(9));
    let why = panic_message(second.add_vertex(TRIPWIRE, &vec![]));
    assert!(why.contains("tripwire in apply"), "{why}");

    // The write panicked under the host's write lock: the next write, and
    // the next read, hear that it is poisoned — never a dropped socket.
    let mut third = RemoteEngine::connect(&addr).unwrap();
    let write = third.add_vertex("after", &vec![]);
    assert!(matches!(write, Err(GdbError::Poisoned(_))), "{write:?}");
    let read = third.edge_count(&ctx);
    assert!(matches!(read, Err(GdbError::Poisoned(_))), "{read:?}");
    server.shutdown();
}
