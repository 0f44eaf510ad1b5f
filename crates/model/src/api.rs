//! The engine API — graphmark's analogue of a TinkerPop/Gremlin adapter.
//!
//! Every storage engine implements [`GraphDb`]. The 35 microbenchmark queries
//! (paper Table 2) and the complex LDBC-style workload decompose into calls
//! on this trait, exactly as Gremlin queries decompose into primitive
//! operators (§1, *Micro-benchmarking*). The traversal layer (`gm-traversal`)
//! builds BFS, shortest paths, and multi-step traversals from these
//! primitives so that **per-engine differences come only from the physical
//! data organization underneath**.

use std::borrow::Cow;
use std::time::Duration;

use crate::ctx::QueryCtx;
use crate::dataset::Dataset;
use crate::error::{GdbError, GdbResult};
use crate::ids::{Eid, Vid};
use crate::value::{Props, Value};

/// Traversal direction, matching Gremlin's `in()`, `out()`, `both()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow incoming edges (`v.in()` / `v.inE()`).
    In,
    /// Follow outgoing edges (`v.out()` / `v.outE()`).
    Out,
    /// Follow edges in both directions (`v.both()` / `v.bothE()`).
    Both,
}

impl Direction {
    /// The opposite direction; `Both` is its own opposite.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::In => Direction::Out,
            Direction::Out => Direction::In,
            Direction::Both => Direction::Both,
        }
    }

    /// All three directions, for tests and sweeps.
    pub const ALL: [Direction; 3] = [Direction::In, Direction::Out, Direction::Both];
}

/// One incident edge as [`GraphSnapshot::for_each_incident`] visits it: the
/// edge and its far endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Internal edge id.
    pub eid: Eid,
    /// The endpoint on the far side of the edge relative to the queried
    /// vertex. For self-loops this equals the queried vertex.
    pub other: Vid,
}

/// Materialized vertex (Q14 result shape).
#[derive(Debug, Clone, PartialEq)]
pub struct VertexData {
    /// Internal id.
    pub id: Vid,
    /// Vertex label.
    pub label: String,
    /// Properties.
    pub props: Props,
}

/// Materialized edge (Q15 result shape).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeData {
    /// Internal id.
    pub id: Eid,
    /// Source vertex.
    pub src: Vid,
    /// Destination vertex.
    pub dst: Vid,
    /// Edge label.
    pub label: String,
    /// Properties.
    pub props: Props,
}

/// Options for [`GraphDb::bulk_load`] (Q1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadOptions {
    /// Use the engine's bulk path if it has one. The paper had to enable
    /// this explicitly for BlazeGraph ("bulk loading" option, §6.2); with
    /// `false` the triple engine updates all three B+Trees per statement.
    pub bulk: bool,
    /// Build attribute indexes during the load instead of after.
    pub index_during_load: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            bulk: true,
            index_during_load: false,
        }
    }
}

/// Load outcome (vertex/edge counts as seen by the engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadStats {
    /// Vertices ingested.
    pub vertices: u64,
    /// Edges ingested.
    pub edges: u64,
}

/// Structure-by-structure space accounting (Figure 1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpaceReport {
    /// Named components, e.g. `("node records", 1_048_576)`.
    pub components: Vec<(String, u64)>,
}

impl SpaceReport {
    /// Add a named component.
    pub fn add(&mut self, name: impl Into<String>, bytes: u64) {
        self.components.push((name.into(), bytes));
    }

    /// Total bytes across all components.
    pub fn total(&self) -> u64 {
        self.components.iter().map(|(_, b)| *b).sum()
    }
}

/// Static description of an engine for the Table 1 reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineFeatures {
    /// Short engine name, e.g. `"linked(v1)"`.
    pub name: String,
    /// `"Native"` or `"Hybrid (…)"`, as in Table 1.
    pub system_type: String,
    /// Physical storage summary, as in Table 1's *Storage* column.
    pub storage: String,
    /// How edge traversal is resolved, as in Table 1's *Edge Traversal*.
    pub edge_traversal: String,
    /// Whether the adapter conflates multiple query steps into one plan
    /// (Table 1's "Optimized" column; true for the relational engine).
    pub optimized_adapter: bool,
    /// Whether writes are acknowledged before reaching the primary store
    /// (the document engine's asynchronous journal; biases CUD latency,
    /// §6.4 "Insertions …" caveat).
    pub async_writes: bool,
    /// Whether user-controlled attribute indexes are supported (Figure 4c;
    /// the triple engine has none, as BlazeGraph in §6.4 *Effect of Indexing*).
    pub attribute_indexes: bool,
    /// The longest label or property name the engine stores, in bytes
    /// (`None`: no limit). A write naming a longer one is refused, with
    /// [`check_identifier`]'s error — by the engine, and by a write
    /// transaction when the write is buffered ([`Mutation::check_identifiers`]).
    pub max_identifier_len: Option<u32>,
}

/// The one refusal a bulk load meets, from every engine and the sharded
/// composite alike: an engine that holds a vertex, loaded or added.
pub fn require_empty(db: &dyn GraphSnapshot) -> GdbResult<()> {
    let ctx = QueryCtx::unbounded();
    if db.scan_vertices(&ctx)?.next().is_some() {
        return Err(GdbError::Invalid(
            "bulk_load requires an empty engine".into(),
        ));
    }
    Ok(())
}

/// Refuse an identifier (a label or property name) longer than `limit`
/// bytes: the one refusal an engine declaring
/// [`EngineFeatures::max_identifier_len`] makes.
pub fn check_identifier(name: &str, limit: usize) -> GdbResult<()> {
    if name.len() > limit {
        return Err(GdbError::Invalid(format!(
            "identifier '{}…' exceeds {limit} bytes (the engine's identifier limit)",
            &name[..name.floor_char_boundary(24)]
        )));
    }
    Ok(())
}

/// The **read-only half** of the engine interface — everything a consistent
/// view of the graph can answer without mutating it.
///
/// Every query in this trait takes `&self` (plus, for scans and traversals, a
/// [`QueryCtx`] carrying the cooperative deadline; implementations must call
/// [`QueryCtx::tick`] at least once per element touched so timeouts observe
/// the same granularity across engines).
///
/// Three kinds of values implement it:
///
/// * live engines — every [`GraphDb`] is a `GraphSnapshot` of "now"
///   (`GraphDb: GraphSnapshot`), so `&dyn GraphDb` upcasts wherever a
///   read-only view is expected;
/// * pinned snapshots — `gm-mvcc` hands out immutable epoch views that
///   answer reads while writers keep mutating the live engine;
/// * remote proxies — `gm-net`'s client forwards each read over a socket.
///
/// `catalog::execute_read`, the traversal algorithms, and the workload
/// driver's read path are all written against this trait, which is what lets
/// a scan run against a stable epoch instead of holding the engine's read
/// lock for its whole duration.
///
/// # Adjacency
///
/// An engine reads a neighbourhood with one walk,
/// [`for_each_incident`](GraphSnapshot::for_each_incident). The collectors
/// [`neighbors`](GraphSnapshot::neighbors) and
/// [`vertex_edges`](GraphSnapshot::vertex_edges) are derived from it and
/// final — the `gm-check` delegation lint reports any impl that overrides
/// one — so a traversal costs exactly the engine's walk however it is
/// consumed, and layers forward the walk alone.
/// [`vertex_degree`](GraphSnapshot::vertex_degree) defaults to counting the
/// walk, and [`vertex_edge_labels`](GraphSnapshot::vertex_edge_labels) is
/// per engine. An engine overrides the degree only where it answers from
/// something other than the walk, because that difference is the paper's
/// physical data organization: the cluster engine reads the degree stored
/// in its vertex record, the document engine counts its endpoint hash
/// index, the bitmap engine materializes the incident list (the adapter
/// flaw behind its Q28–Q31 behaviour), the relational engine ticks once per
/// edge table, and the triple engine counts POS entries without a label
/// probe. `testkit::conformance_suite` holds every such answer to the walk.
pub trait GraphSnapshot: Send + Sync {
    /// Variant-qualified engine name (e.g. `"linked(v2)"`).
    fn name(&self) -> String;

    /// Static feature description (Table 1).
    fn features(&self) -> EngineFeatures;

    /// The epoch (graph version) this view observes. Live engines report 0
    /// ("unversioned: reads see whatever writes have landed"); pinned
    /// `gm-mvcc` snapshots report their publish epoch, which is strictly
    /// monotone per source and lets harnesses tag every read sample with the
    /// graph version that produced it.
    fn epoch(&self) -> u64 {
        0
    }

    /// Map a canonical vertex id to this engine's internal id.
    ///
    /// Used by the benchmark runner *outside* the timed region ("the lookup
    /// for the object is performed before the time is measured", §4.2).
    ///
    /// The contract, kept by one [`Resolution`](crate::Resolution) on every
    /// stack: the id of the element the bulk load placed there **while
    /// that element is live**, else `None` — a removed element stops
    /// resolving, and its canonical id never comes to name an element a
    /// later insert puts in its slot.
    fn resolve_vertex(&self, canonical: u64) -> Option<Vid>;

    /// Map a canonical edge id to this engine's internal id (the contract
    /// of [`GraphSnapshot::resolve_vertex`]).
    fn resolve_edge(&self, canonical: u64) -> Option<Eid>;

    // ----- Read (Q8–Q15) ----------------------------------------------

    /// Q8: total number of vertices.
    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64>;

    /// Q9: total number of edges.
    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64>;

    /// Q10: distinct edge labels (order unspecified, no duplicates).
    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>>;

    /// Q11: vertices whose property `name` equals `value`.
    fn vertices_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>>;

    /// Q12: edges whose property `name` equals `value`.
    fn edges_with_property(&self, name: &str, value: &Value, ctx: &QueryCtx)
        -> GdbResult<Vec<Eid>>;

    /// Q13: edges with the given label.
    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>>;

    /// Q14: the vertex with internal id `v`, fully materialized.
    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>>;

    /// Q15: the edge with internal id `e`, fully materialized.
    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>>;

    // ----- Traversal primitives (Q22–Q35 build on these) ----------------
    //
    // One walk, two collectors derived from it, and the two per-vertex
    // answers an engine may take from elsewhere (see "Adjacency" above).

    /// Visit the edges incident to `v` in `dir`, optionally restricted to
    /// a label, handing each to `f` with its far endpoint, in the engine's
    /// physical order. Parallel edges are visited once each and a
    /// self-loop twice under `Both` (once per end). An unknown label visits
    /// nothing; a missing vertex is [`GdbError::VertexNotFound`].
    ///
    /// The engine ticks `ctx` per element it touches, as every scan does.
    /// `f` may fail — to tick a context of its own or to give up — and its
    /// first error ends the walk and is returned; there is no other way to
    /// stop early.
    ///
    /// [`GdbError::VertexNotFound`]: crate::GdbError::VertexNotFound
    fn for_each_incident(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
        f: &mut dyn FnMut(EdgeRef) -> GdbResult<()>,
    ) -> GdbResult<()>;

    /// The far endpoints of [`for_each_incident`]'s visit, in its order
    /// (parallel edges yield repeats) — Gremlin's `out()`/`in()`/`both()`.
    ///
    /// [`for_each_incident`]: GraphSnapshot::for_each_incident
    // gm-check: derived
    fn neighbors(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        let mut out = Vec::new();
        self.for_each_incident(v, dir, label, ctx, &mut |r| {
            out.push(r.other);
            Ok(())
        })?;
        Ok(out)
    }

    /// [`for_each_incident`]'s visit, collected — Gremlin's
    /// `outE()`/`inE()`/`bothE()`.
    ///
    /// [`for_each_incident`]: GraphSnapshot::for_each_incident
    // gm-check: derived
    fn vertex_edges(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<EdgeRef>> {
        let mut out = Vec::new();
        self.for_each_incident(v, dir, label, ctx, &mut |r| {
            out.push(r);
            Ok(())
        })?;
        Ok(out)
    }

    /// Number of incident edges (Q28–Q30 predicate). The default counts
    /// the walk ([`count_incident`]).
    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        count_incident(self, v, dir, None, ctx)
    }

    /// Q25/Q26/Q27: distinct labels of incident edges.
    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>>;

    /// Iterate all vertex ids (`g.V`). Engines yield `Err(Timeout)` if the
    /// context expires mid-scan.
    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>>;

    /// Iterate all edge ids (`g.E`).
    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>>;

    // ----- Element accessors used by traversal filters -------------------

    /// Single vertex property lookup.
    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>>;

    /// Single edge property lookup.
    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>>;

    /// Source and destination of an edge.
    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>>;

    /// Label of an edge.
    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>>;

    /// Label of a vertex.
    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>>;

    // ----- Bulk traversal helpers -----------------------------------------

    /// Q28–Q30: all vertices with at least `k` incident edges in `dir`.
    ///
    /// The default implementation is the Gremlin decomposition — scan all
    /// vertices and evaluate the degree filter per vertex. Engines may
    /// override it with a physically better (or, in the bitmap engine's
    /// case, deliberately adapter-faithful worse) strategy; the paper's
    /// Figure 5(b) differences come precisely from these implementations.
    fn degree_scan(&self, dir: Direction, k: u64, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        gremlin_degree_scan(self, dir, k, ctx)
    }

    /// Q31: distinct vertices reachable over one hop in `dir` from any
    /// vertex (`g.V.out.dedup()` — "nodes having an incoming edge" for
    /// `Out`).
    ///
    /// The default is the Gremlin decomposition: per-vertex neighbor
    /// expansion followed by dedup. Engines whose adapter conflates steps
    /// into one plan (Table 1's "Optimized") may override — the relational
    /// engine answers with one pass over its edge tables, which is why the
    /// paper finds "Sqlg is able to complete only Q.31" among the
    /// whole-graph filters (§6.4).
    fn distinct_neighbor_scan(&self, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        gremlin_distinct_neighbor_scan(self, dir, ctx)
    }

    // ----- Attribute indexes (Figure 4c) ---------------------------------

    /// Whether a vertex index on `prop` exists.
    fn has_vertex_index(&self, prop: &str) -> bool;

    // ----- Space (Figure 1) ----------------------------------------------

    /// Structure-by-structure space report.
    fn space(&self) -> SpaceReport;
}

/// The default [`GraphSnapshot::degree_scan`]: scan all vertices and evaluate
/// the degree filter per vertex. Public so an engine that overrides the
/// method can be tested against the decomposition it replaces.
pub fn gremlin_degree_scan<G: GraphSnapshot + ?Sized>(
    g: &G,
    dir: Direction,
    k: u64,
    ctx: &QueryCtx,
) -> GdbResult<Vec<Vid>> {
    let mut out = Vec::new();
    let scan = g.scan_vertices(ctx)?;
    for v in scan {
        let v = v?;
        if g.vertex_degree(v, dir, ctx)? >= k {
            out.push(v);
        }
    }
    Ok(out)
}

/// How many edges [`GraphSnapshot::for_each_incident`] visits: the default
/// [`GraphSnapshot::vertex_degree`], and Q22–Q24's answer, which must walk
/// even on an engine that stores its degrees.
pub fn count_incident<G: GraphSnapshot + ?Sized>(
    g: &G,
    v: Vid,
    dir: Direction,
    label: Option<&str>,
    ctx: &QueryCtx,
) -> GdbResult<u64> {
    let mut n = 0u64;
    g.for_each_incident(v, dir, label, ctx, &mut |_| {
        n += 1;
        Ok(())
    })?;
    Ok(n)
}

/// The default [`GraphSnapshot::distinct_neighbor_scan`]: per-vertex
/// neighbor expansion followed by dedup. Public for the same reason as
/// [`gremlin_degree_scan`].
pub fn gremlin_distinct_neighbor_scan<G: GraphSnapshot + ?Sized>(
    g: &G,
    dir: Direction,
    ctx: &QueryCtx,
) -> GdbResult<Vec<Vid>> {
    let mut out = Vec::new();
    let scan = g.scan_vertices(ctx)?;
    let mut sources = Vec::new();
    for v in scan {
        sources.push(v?);
    }
    for v in sources {
        g.for_each_incident(v, dir, None, ctx, &mut |r| {
            out.push(r.other);
            Ok(())
        })?;
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// One of the paper's write primitives as a value: Q1's bulk load, the
/// creates Q2–Q7, the updates and deletes Q16–Q21, plus the index build of
/// Figure 4c and the journal flush. [`GraphDb::apply`] takes one, and
/// every layer between a caller and an engine — a lock, a key recorder, a
/// transaction's write set, a shard router, a socket — moves this value
/// instead of re-spelling the primitive set.
///
/// Names, properties and the dataset are borrowed on the typed path
/// ([`GraphDb::add_vertex`] and friends build a `Mutation` without
/// allocating) and owned only where a mutation outlives its caller: a
/// transaction's buffered write set, or a frame decoded off the wire
/// ([`Mutation::into_owned`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation<'a> {
    /// Q1: ingest a canonical dataset into an empty engine
    /// ([`GraphDb::bulk_load`]).
    BulkLoad(Cow<'a, Dataset>, LoadOptions),
    /// Q2: add a vertex with a label and properties.
    AddVertex(Cow<'a, str>, Cow<'a, Props>),
    /// Q3/Q4: add an edge `src → dst` with a label and properties.
    AddEdge(Vid, Vid, Cow<'a, str>, Cow<'a, Props>),
    /// Q5/Q16: insert or update a vertex property.
    SetVertexProperty(Vid, Cow<'a, str>, Value),
    /// Q6/Q17: insert or update an edge property.
    SetEdgeProperty(Eid, Cow<'a, str>, Value),
    /// Q18: delete a vertex with its incident edges and properties.
    RemoveVertex(Vid),
    /// Q19: delete an edge and its properties.
    RemoveEdge(Eid),
    /// Q20: remove a vertex property.
    RemoveVertexProperty(Vid, Cow<'a, str>),
    /// Q21: remove an edge property.
    RemoveEdgeProperty(Eid, Cow<'a, str>),
    /// Build a user-controlled index on a vertex property (Figure 4c).
    CreateVertexIndex(Cow<'a, str>),
    /// Flush asynchronous write buffers (the document engine's journal).
    Sync,
}

impl Mutation<'_> {
    /// Refuse this mutation if a label or property name it stores is longer
    /// than `limit` bytes ([`EngineFeatures::max_identifier_len`]).
    pub fn check_identifiers(&self, limit: Option<u32>) -> GdbResult<()> {
        let Some(limit) = limit else {
            return Ok(());
        };
        let (name, props): (Option<&str>, &[(String, Value)]) = match self {
            Mutation::AddVertex(label, props) | Mutation::AddEdge(_, _, label, props) => {
                (Some(label), props)
            }
            Mutation::SetVertexProperty(_, name, _) | Mutation::SetEdgeProperty(_, name, _) => {
                (Some(name), &[])
            }
            _ => (None, &[]),
        };
        name.into_iter()
            .chain(props.iter().map(|(n, _)| n.as_str()))
            .try_for_each(|n| check_identifier(n, limit as usize))
    }

    /// The same mutation owning everything it borrowed.
    pub fn into_owned(self) -> Mutation<'static> {
        fn own<T: ToOwned + ?Sized>(c: Cow<'_, T>) -> Cow<'static, T> {
            Cow::Owned(c.into_owned())
        }
        use Mutation::*;
        match self {
            BulkLoad(data, opts) => BulkLoad(own(data), opts),
            AddVertex(label, props) => AddVertex(own(label), own(props)),
            AddEdge(src, dst, label, props) => AddEdge(src, dst, own(label), own(props)),
            SetVertexProperty(v, name, value) => SetVertexProperty(v, own(name), value),
            SetEdgeProperty(e, name, value) => SetEdgeProperty(e, own(name), value),
            RemoveVertex(v) => RemoveVertex(v),
            RemoveEdge(e) => RemoveEdge(e),
            RemoveVertexProperty(v, name) => RemoveVertexProperty(v, own(name)),
            RemoveEdgeProperty(e, name) => RemoveEdgeProperty(e, own(name)),
            CreateVertexIndex(prop) => CreateVertexIndex(own(prop)),
            Sync => Sync,
        }
    }
}

/// Generate an engine's [`GraphDb::apply`]: one `match` handing each
/// [`Mutation`] to the engine's inherent write body for that primitive —
/// `load_dataset`, `insert_vertex`, `insert_edge`, `put_vertex_property`,
/// `put_edge_property`, `delete_vertex`, `delete_edge`,
/// `delete_vertex_property`, `delete_edge_property`, `build_vertex_index` —
/// so every engine names its bodies alike and none shadows a derived
/// mutator. `Sync` answers `Ok(())` unless `sync = |engine| expr` says how
/// the engine flushes (the document engine's journal).
///
/// The canonical-id bookkeeping is written here, once, over the engine's
/// [`Resolution`](crate::Resolution) field `resolution`: a load is refused
/// by [`require_empty`], then the [`LoadedIds`](crate::LoadedIds)
/// `load_dataset` returns are frozen and answer its [`LoadStats`]; a
/// removal retires the removed ids, and `delete_vertex` returns the ids of
/// the edges its cascade removed.
#[macro_export]
macro_rules! engine_apply {
    () => {
        $crate::engine_apply!(sync = |_engine| Ok(()));
    };
    (sync = |$e:ident| $sync:expr) => {
        fn apply(
            &mut self,
            m: $crate::api::Mutation<'_>,
        ) -> $crate::error::GdbResult<$crate::api::Applied> {
            use $crate::api::Mutation::*;
            match m {
                BulkLoad(data, opts) => {
                    $crate::api::require_empty(&*self)?;
                    self.resolution = $crate::Resolution::frozen(self.load_dataset(&data, &opts)?);
                    Ok(self.resolution.stats().into())
                }
                AddVertex(label, props) => self.insert_vertex(&label, &props).map(Into::into),
                AddEdge(s, d, label, props) => {
                    self.insert_edge(s, d, &label, &props).map(Into::into)
                }
                SetVertexProperty(v, name, x) => {
                    self.put_vertex_property(v, &name, x).map(Into::into)
                }
                SetEdgeProperty(e, name, x) => self.put_edge_property(e, &name, x).map(Into::into),
                RemoveVertex(v) => {
                    for e in self.delete_vertex(v)? {
                        self.resolution.retire_edge($crate::Eid(e));
                    }
                    self.resolution.retire_vertex(v);
                    Ok($crate::api::Applied::Done)
                }
                RemoveEdge(e) => {
                    self.delete_edge(e)?;
                    self.resolution.retire_edge(e);
                    Ok($crate::api::Applied::Done)
                }
                RemoveVertexProperty(v, name) => {
                    self.delete_vertex_property(v, &name).map(Into::into)
                }
                RemoveEdgeProperty(e, name) => self.delete_edge_property(e, &name).map(Into::into),
                CreateVertexIndex(prop) => self.build_vertex_index(&prop).map(Into::into),
                Sync => {
                    let $e = self;
                    $sync.map(Into::into)
                }
            }
        }
    };
}

/// Generate an engine's [`GraphSnapshot::resolve_vertex`] and
/// [`GraphSnapshot::resolve_edge`] from its `resolution` field (see
/// [`engine_apply!`](crate::engine_apply)).
#[macro_export]
macro_rules! engine_resolve {
    () => {
        fn resolve_vertex(&self, canonical: u64) -> Option<$crate::Vid> {
            self.resolution.vertex(canonical)
        }

        fn resolve_edge(&self, canonical: u64) -> Option<$crate::Eid> {
            self.resolution.edge(canonical)
        }
    };
}

/// What [`GraphDb::apply`] answered. The typed mutators unwrap it; an
/// answer of the wrong shape for its mutation is [`GdbError::Corrupt`].
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// Applied; nothing to report.
    Done,
    /// The id of the vertex or edge a creation made.
    Id(u64),
    /// The value a property removal took out, if there was one.
    Value(Option<Value>),
    /// What a bulk load ingested.
    Loaded(LoadStats),
}

impl Applied {
    fn mismatch(self, want: &str) -> GdbError {
        GdbError::Corrupt(format!("a write answered {self:?} where {want} was due"))
    }

    /// The answer of a mutation that reports nothing.
    pub fn done(self) -> GdbResult<()> {
        match self {
            Applied::Done => Ok(()),
            other => Err(other.mismatch("no answer")),
        }
    }

    /// The id a creation answered.
    pub fn id(self) -> GdbResult<u64> {
        match self {
            Applied::Id(id) => Ok(id),
            other => Err(other.mismatch("an id")),
        }
    }

    /// The value a property removal answered.
    pub fn value(self) -> GdbResult<Option<Value>> {
        match self {
            Applied::Value(v) => Ok(v),
            other => Err(other.mismatch("a property value")),
        }
    }

    /// The counts a bulk load answered.
    pub fn loaded(self) -> GdbResult<LoadStats> {
        match self {
            Applied::Loaded(stats) => Ok(stats),
            other => Err(other.mismatch("load counts")),
        }
    }
}

/// What an engine's write body returns, as its [`Applied`] answer.
macro_rules! applied_from {
    ($($ty:ty => |$x:pat_param| $answer:expr;)*) => {$(
        impl From<$ty> for Applied {
            fn from($x: $ty) -> Applied {
                $answer
            }
        }
    )*};
}

applied_from! {
    () => |()| Applied::Done;
    Vid => |v| Applied::Id(v.0);
    Eid => |e| Applied::Id(e.0);
    Option<Value> => |v| Applied::Value(v);
    LoadStats => |stats| Applied::Loaded(stats);
}

/// The common engine interface: the read-only half ([`GraphSnapshot`]) plus
/// every mutating operation.
///
/// Mutating operations take `&mut self`; queries take `&self` and live on
/// the supertrait. Engines are `Send + Sync` (inherited from
/// `GraphSnapshot`): all interior state is owned (no `Rc`/`Cell`), so the
/// concurrent workload driver (`gm-workload`) can share one engine across
/// client threads behind an `RwLock` — concurrent reads through `&self`,
/// serialized writes through `&mut self`. The type system enforces the
/// read/write split twice over: every mutating method takes `&mut self`,
/// and a pinned `&dyn GraphSnapshot` cannot name a mutation at all.
///
/// # Writes
///
/// An engine writes through one method, [`apply`](GraphDb::apply), which
/// takes the primitive as a [`Mutation`] value. The typed mutators
/// ([`bulk_load`](GraphDb::bulk_load), [`add_vertex`](GraphDb::add_vertex),
/// … [`sync`](GraphDb::sync)) are derived from it and final — the
/// `gm-check` delegation lint reports any impl that overrides one — so a
/// layer forwards, records, buffers, routes or ships `apply` alone, and
/// the write set is spelled once, by [`Mutation`].
pub trait GraphDb: GraphSnapshot {
    /// Apply one write primitive and report its answer: [`Applied::Id`]
    /// for a creation, [`Applied::Value`] for a property removal,
    /// [`Applied::Loaded`] for a bulk load, [`Applied::Done`] otherwise.
    fn apply(&mut self, m: Mutation<'_>) -> GdbResult<Applied>;

    // ----- Load (Q1) --------------------------------------------------

    /// Ingest a canonical dataset into an **empty** engine, one that holds
    /// no vertex: any other refuses with [`GdbError::Invalid`]
    /// ([`require_empty`]).
    // gm-check: derived
    fn bulk_load(&mut self, data: &Dataset, opts: &LoadOptions) -> GdbResult<LoadStats> {
        self.apply(Mutation::BulkLoad(Cow::Borrowed(data), opts.clone()))?
            .loaded()
    }

    // ----- Create (Q2–Q7) ---------------------------------------------

    /// Q2: add a vertex with properties; returns the internal id.
    // gm-check: derived
    fn add_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        let m = Mutation::AddVertex(label.into(), Cow::Borrowed(props));
        self.apply(m)?.id().map(Vid)
    }

    /// Q3/Q4: add an edge (with properties for Q4).
    // gm-check: derived
    fn add_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        let m = Mutation::AddEdge(src, dst, label.into(), Cow::Borrowed(props));
        self.apply(m)?.id().map(Eid)
    }

    /// Q5/Q16: insert or update a vertex property.
    // gm-check: derived
    fn set_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        self.apply(Mutation::SetVertexProperty(v, name.into(), value))?
            .done()
    }

    /// Q6/Q17: insert or update an edge property.
    // gm-check: derived
    fn set_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        self.apply(Mutation::SetEdgeProperty(e, name.into(), value))?
            .done()
    }

    // ----- Update / Delete (Q16–Q21) ------------------------------------

    /// Q18: delete a vertex together with its incident edges and properties.
    // gm-check: derived
    fn remove_vertex(&mut self, v: Vid) -> GdbResult<()> {
        self.apply(Mutation::RemoveVertex(v))?.done()
    }

    /// Q19: delete an edge and its properties.
    // gm-check: derived
    fn remove_edge(&mut self, e: Eid) -> GdbResult<()> {
        self.apply(Mutation::RemoveEdge(e))?.done()
    }

    /// Q20: remove a vertex property; returns the previous value if present.
    // gm-check: derived
    fn remove_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.apply(Mutation::RemoveVertexProperty(v, name.into()))?
            .value()
    }

    /// Q21: remove an edge property; returns the previous value if present.
    // gm-check: derived
    fn remove_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        self.apply(Mutation::RemoveEdgeProperty(e, name.into()))?
            .value()
    }

    // ----- Attribute indexes (Figure 4c) ---------------------------------

    /// Build a user-controlled index on a vertex property. Engines without
    /// this capability return [`GdbError::Unsupported`](crate::GdbError).
    // gm-check: derived
    fn create_vertex_index(&mut self, prop: &str) -> GdbResult<()> {
        self.apply(Mutation::CreateVertexIndex(prop.into()))?.done()
    }

    /// Flush any asynchronous write buffers (document engine journal).
    /// Engines with synchronous writes answer it as a no-op. The
    /// benchmark runner calls it after CUD batches *outside* the timed
    /// region, matching the client-side measurement caveat of §6.4.
    // gm-check: derived
    fn sync(&mut self) -> GdbResult<()> {
        self.apply(Mutation::Sync)?.done()
    }
}

// ----- blanket delegation through Box ---------------------------------------
//
// `Box<dyn GraphDb>` is the currency of the engine registry and the workload
// driver; composites like `gm-shard`'s `ShardedGraph<E>` are generic over
// `E: GraphDb` and want to accept registry engines directly. Delegating the
// traits through `Box` makes `Box<dyn GraphDb>: GraphDb` (and likewise for
// `GraphSnapshot`), so `ShardedGraph<Box<dyn GraphDb>>` just works. The
// `forward_*` macros generate every method — including the overridable
// scans — as a forward to the boxed value, so per-engine physical
// strategies survive the indirection and a newly added trait method can
// never silently fall back to its default here.

impl<T: GraphSnapshot + ?Sized> GraphSnapshot for Box<T> {
    crate::forward_graph_snapshot!(target = |s| (**s));
}

impl<T: GraphDb + ?Sized> GraphDb for Box<T> {
    crate::forward_graph_db!(target = |s| (**s));
}

/// A timeout helper used by the runner: the paper's per-query budget.
#[derive(Debug, Clone, Copy)]
pub struct TimeBudget {
    /// Wall-clock budget for one query execution.
    pub per_query: Duration,
}

impl Default for TimeBudget {
    fn default() -> Self {
        // The paper uses 2 hours on server hardware with up to 314M edges;
        // scaled-down datasets get a proportionally scaled-down default.
        TimeBudget {
            per_query: Duration::from_secs(30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::In.reverse(), Direction::Out);
        assert_eq!(Direction::Out.reverse(), Direction::In);
        assert_eq!(Direction::Both.reverse(), Direction::Both);
    }

    #[test]
    fn space_report_totals() {
        let mut r = SpaceReport::default();
        r.add("a", 10);
        r.add("b", 32);
        assert_eq!(r.total(), 42);
        assert_eq!(r.components.len(), 2);
    }

    #[test]
    fn load_options_default_is_bulk() {
        assert!(LoadOptions::default().bulk);
        assert!(!LoadOptions::default().index_during_load);
    }
}
