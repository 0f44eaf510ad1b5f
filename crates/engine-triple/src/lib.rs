//! # engine-triple — the BlazeGraph-class RDF engine
//!
//! Reproduces the architecture the paper describes for BlazeGraph
//! (§3.1/§3.2):
//!
//! * everything is a **Subject–Predicate–Object statement** over a term
//!   dictionary; "each statement is indexed three times by changing the
//!   order of the values … a B+Tree is built for each one of SPO, POS, OSP";
//! * **edges are reified**: an edge is a subject with `SRC`/`DST`/`LBL`
//!   statements plus one statement per property, so "traversing the
//!   structure of the graph may require more than one access to the
//!   corresponding B+Tree";
//! * without the **bulk-load option** every statement insertion updates all
//!   three B+Trees *and* the engine's per-predicate metadata — the paper had
//!   to enable bulk loading explicitly to load in reasonable time (§6.2);
//! * storage is a **journal file allocated in fixed-size extents**, which
//!   together with the triple indexing explains why BlazeGraph "requires,
//!   on average, three times the size of any other system" (Figure 1);
//! * there are **no user-controllable attribute indexes** (§6.4, *Effect of
//!   Indexing*: "BlazeGraph provides no such capability").
//!
//! `g.V.has()` / `g.E.has()` (Q11/Q12) keep the adapter's plan the paper
//! blames for BlazeGraph's slow attribute search (§6.5): scan every vertex
//! or edge and probe SPO once for each, without the POS index on the
//! property. Only where each probe starts is this engine's choice: the
//! subjects arrive in ascending order, so a probe starts at the leaf the
//! previous one started in (a `gm_storage::bptree::Finger`) instead of at
//! the root, as do the label and endpoint probes of one incident-edge walk.
//! Each query adds its probes to `storage.bptree.descents` and
//! `storage.bptree.finger_hits` once.

use std::collections::HashMap;

use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, LoadStats,
    SpaceReport, VertexData,
};
use gm_model::fxmap::FxHashMap;
use gm_model::value::{Props, Value};
use gm_model::{Dataset, Eid, GdbError, GdbResult, QueryCtx, Vid};
use gm_storage::bptree::{BPlusTree, Finger};

/// Journal extent size; space is charged in whole extents.
pub const JOURNAL_EXTENT: u64 = 1 << 20;

/// Bytes charged per statement in the journal (3 term ids + header).
const STATEMENT_BYTES: u64 = 32;

// Built-in predicate terms, allocated at construction in this order. They
// live in `terms` only: `preds` maps user property names, so a property
// called `rdf:type` gets a predicate of its own.
const P_TYPE: u64 = 0;
const P_SRC: u64 = 1;
const P_DST: u64 = 2;
const P_LBL: u64 = 3;

/// What a term id denotes.
#[derive(Debug, Clone, PartialEq)]
enum Term {
    /// A graph vertex.
    Vertex,
    /// A (reified) graph edge.
    Edge,
    /// A literal value (labels are string literals).
    Literal(Value),
    /// A predicate (built-in or property name).
    Pred(String),
}

type Triple = (u64, u64, u64);

/// The BlazeGraph-class engine. See crate docs for the layout.
#[derive(Clone)]
pub struct TripleGraph {
    terms: Vec<Term>,
    literals: HashMap<Value, u64>,
    preds: FxHashMap<String, u64>,
    spo: BPlusTree<Triple, ()>,
    pos: BPlusTree<Triple, ()>,
    osp: BPlusTree<Triple, ()>,
    /// Per-predicate statement counts — the metadata BlazeGraph maintains
    /// after each non-bulk insertion.
    pred_stats: FxHashMap<u64, u64>,
    vmap: Vec<u64>,
    emap: Vec<u64>,
    statements: u64,
}

impl Default for TripleGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl TripleGraph {
    /// A fresh, empty engine.
    pub fn new() -> Self {
        TripleGraph {
            terms: ["rdf:type", "g:src", "g:dst", "g:label"]
                .map(|name| Term::Pred(name.to_string()))
                .into(),
            literals: HashMap::new(),
            preds: FxHashMap::default(),
            spo: BPlusTree::new(),
            pos: BPlusTree::new(),
            osp: BPlusTree::new(),
            pred_stats: FxHashMap::default(),
            vmap: Vec::new(),
            emap: Vec::new(),
            statements: 0,
        }
    }

    fn literal(&mut self, v: &Value) -> u64 {
        if let Some(&id) = self.literals.get(v) {
            return id;
        }
        let id = self.terms.len() as u64;
        self.terms.push(Term::Literal(v.clone()));
        self.literals.insert(v.clone(), id);
        id
    }

    fn pred(&mut self, name: &str) -> u64 {
        if let Some(&id) = self.preds.get(name) {
            return id;
        }
        let id = self.terms.len() as u64;
        self.terms.push(Term::Pred(name.to_string()));
        self.preds.insert(name.to_string(), id);
        id
    }

    fn new_vertex_term(&mut self) -> u64 {
        let id = self.terms.len() as u64;
        self.terms.push(Term::Vertex);
        id
    }

    fn new_edge_term(&mut self) -> u64 {
        let id = self.terms.len() as u64;
        self.terms.push(Term::Edge);
        id
    }

    fn is_vertex(&self, t: u64) -> bool {
        matches!(self.terms.get(t as usize), Some(Term::Vertex))
    }

    fn is_edge(&self, t: u64) -> bool {
        matches!(self.terms.get(t as usize), Some(Term::Edge))
    }

    fn literal_value(&self, t: u64) -> Option<&Value> {
        match self.terms.get(t as usize) {
            Some(Term::Literal(v)) => Some(v),
            _ => None,
        }
    }

    fn pred_name(&self, t: u64) -> Option<&str> {
        match self.terms.get(t as usize) {
            Some(Term::Pred(n)) => Some(n.as_str()),
            _ => None,
        }
    }

    /// Insert a statement into all three B+Trees and update metadata.
    fn assert_stmt(&mut self, s: u64, p: u64, o: u64) {
        if self.spo.insert((s, p, o), ()).is_none() {
            self.pos.insert((p, o, s), ());
            self.osp.insert((o, s, p), ());
            *self.pred_stats.entry(p).or_insert(0) += 1;
            self.statements += 1;
        }
    }

    /// Remove a statement from all three B+Trees.
    fn retract_stmt(&mut self, s: u64, p: u64, o: u64) -> bool {
        if self.spo.remove(&(s, p, o)).is_some() {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
            if let Some(n) = self.pred_stats.get_mut(&p) {
                *n -= 1;
            }
            self.statements -= 1;
            true
        } else {
            false
        }
    }

    /// Range over SPO with fixed subject (and optional predicate).
    fn spo_range(&self, s: u64, p: Option<u64>) -> impl Iterator<Item = Triple> + '_ {
        let (lo, hi) = match p {
            Some(p) => ((s, p, 0), (s, p + 1, 0)),
            None => ((s, 0, 0), (s + 1, 0, 0)),
        };
        self.spo.range(&lo, Some(&hi)).map(|(k, _)| *k)
    }

    /// Range over POS with fixed predicate (and optional object).
    fn pos_range(&self, p: u64, o: Option<u64>) -> impl Iterator<Item = Triple> + '_ {
        let (lo, hi) = match o {
            Some(o) => ((p, o, 0), (p, o + 1, 0)),
            None => ((p, 0, 0), (p + 1, 0, 0)),
        };
        self.pos.range(&lo, Some(&hi)).map(|(k, _)| *k)
    }

    /// The single object of (s, p, *), if any.
    fn object_of(&self, s: u64, p: u64) -> Option<u64> {
        self.object_near(&mut Finger::default(), s, p)
    }

    /// [`object_of`](Self::object_of) for one of a run of probes in
    /// ascending subject order: the SPO probe starts at `finger`.
    fn object_near(&self, finger: &mut Finger, s: u64, p: u64) -> Option<u64> {
        self.spo
            .finger_range(finger, &(s, p, 0), Some(&(s, p + 1, 0)))
            .next()
            .map(|((_, _, o), _)| *o)
    }

    /// The subjects of `kind` — vertices (`P_TYPE`) or edges (`P_LBL`) —
    /// whose property `name` is `value`, sorted. The adapter's plan for
    /// `g.V.has()` / `g.E.has()` (§6.5, BlazeGraph discussion): scan every
    /// subject through POS and probe SPO once per subject, never POS on
    /// `(p, o)` — the automatic triple indexes are not exploited by the
    /// per-step graph API. The subjects come out of POS in ascending order
    /// within each label, so each probe starts at the previous probe's
    /// leaf; only where a probe starts differs from the adapter.
    fn subjects_with(
        &self,
        kind: u64,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<u64>> {
        let Some(&p) = self.preds.get(name) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        fingered(|finger| {
            for (_, _, s) in self.pos_range(kind, None) {
                ctx.tick()?;
                if let Some(o) = self.object_near(finger, s, p) {
                    if self.literal_value(o) == Some(value) {
                        out.push(s);
                    }
                }
            }
            Ok(())
        })?;
        out.sort_unstable();
        Ok(out)
    }

    fn require_vertex(&self, v: u64) -> GdbResult<()> {
        if self.is_vertex(v) && self.object_of(v, P_TYPE).is_some() {
            Ok(())
        } else {
            Err(GdbError::VertexNotFound(v))
        }
    }

    fn require_edge(&self, e: u64) -> GdbResult<()> {
        if self.is_edge(e) && self.object_of(e, P_SRC).is_some() {
            Ok(())
        } else {
            Err(GdbError::EdgeNotFound(e))
        }
    }

    /// Properties of an element: all statements minus the built-ins.
    fn props_of(&self, s: u64) -> Props {
        let mut out = Props::new();
        for (_, p, o) in self.spo_range(s, None) {
            if p <= P_LBL {
                continue;
            }
            if let (Some(name), Some(value)) = (self.pred_name(p), self.literal_value(o)) {
                out.push((name.to_string(), value.clone()));
            }
        }
        out
    }

    fn add_vertex_stmts(&mut self, label: &str, props: &Props) -> u64 {
        let v = self.new_vertex_term();
        let label_term = self.literal(&Value::Str(label.to_string()));
        self.assert_stmt(v, P_TYPE, label_term);
        for (name, value) in props {
            let p = self.pred(name);
            let o = self.literal(value);
            self.assert_stmt(v, p, o);
        }
        v
    }

    fn add_edge_stmts(&mut self, src: u64, dst: u64, label: &str, props: &Props) -> u64 {
        let e = self.new_edge_term();
        let label_term = self.literal(&Value::Str(label.to_string()));
        self.assert_stmt(e, P_SRC, src);
        self.assert_stmt(e, P_DST, dst);
        self.assert_stmt(e, P_LBL, label_term);
        for (name, value) in props {
            let p = self.pred(name);
            let o = self.literal(value);
            self.assert_stmt(e, p, o);
        }
        e
    }
}

/// Run `probes` with a fresh finger, then add its tallies to the registry
/// once, however `probes` ends.
fn fingered(probes: impl FnOnce(&mut Finger) -> GdbResult<()>) -> GdbResult<()> {
    let mut finger = Finger::default();
    let done = probes(&mut finger);
    finger.publish();
    done
}

impl GraphSnapshot for TripleGraph {
    fn name(&self) -> String {
        "triple".into()
    }

    fn features(&self) -> EngineFeatures {
        EngineFeatures {
            name: self.name(),
            system_type: "Hybrid (RDF)".into(),
            storage: "RDF statements (SPO/POS/OSP B+Trees over a journal)".into(),
            edge_traversal: "B+Tree".into(),
            optimized_adapter: false,
            async_writes: false,
            attribute_indexes: false,
            max_identifier_len: None,
        }
    }

    fn resolve_vertex(&self, canonical: u64) -> Option<Vid> {
        self.vmap.get(canonical as usize).map(|&v| Vid(v))
    }

    fn resolve_edge(&self, canonical: u64) -> Option<Eid> {
        self.emap.get(canonical as usize).map(|&e| Eid(e))
    }

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut n = 0u64;
        for _ in self.pos_range(P_TYPE, None) {
            ctx.tick()?;
            n += 1;
        }
        Ok(n)
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut n = 0u64;
        for _ in self.pos_range(P_LBL, None) {
            ctx.tick()?;
            n += 1;
        }
        Ok(n)
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let mut out = Vec::new();
        let mut last: Option<u64> = None;
        for (_, o, _) in self.pos_range(P_LBL, None) {
            ctx.tick()?;
            if last != Some(o) {
                last = Some(o);
                if let Some(Value::Str(s)) = self.literal_value(o) {
                    out.push(s.clone());
                }
            }
        }
        Ok(out)
    }

    fn vertices_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        // Adapter-faithful: one SPO probe per vertex (see `subjects_with`).
        let found = self.subjects_with(P_TYPE, name, value, ctx)?;
        Ok(found.into_iter().map(Vid).collect())
    }

    fn edges_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Eid>> {
        // Adapter-faithful: one SPO probe per edge (see `subjects_with`).
        let found = self.subjects_with(P_LBL, name, value, ctx)?;
        Ok(found.into_iter().map(Eid).collect())
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        let Some(&label_term) = self.literals.get(&Value::Str(label.to_string())) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (_, _, s) in self.pos_range(P_LBL, Some(label_term)) {
            ctx.tick()?;
            out.push(Eid(s));
        }
        out.sort_unstable();
        Ok(out)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        if self.require_vertex(v.0).is_err() {
            return Ok(None);
        }
        let label = self
            .object_of(v.0, P_TYPE)
            .and_then(|o| self.literal_value(o))
            .and_then(|val| val.as_str())
            .unwrap_or("<unknown>")
            .to_string();
        Ok(Some(VertexData {
            id: v,
            label,
            props: self.props_of(v.0),
        }))
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        if self.require_edge(e.0).is_err() {
            return Ok(None);
        }
        let src = self.object_of(e.0, P_SRC).expect("edge src");
        let dst = self.object_of(e.0, P_DST).expect("edge dst");
        let label = self
            .object_of(e.0, P_LBL)
            .and_then(|o| self.literal_value(o))
            .and_then(|val| val.as_str())
            .unwrap_or("<unknown>")
            .to_string();
        Ok(Some(EdgeData {
            id: e,
            src: Vid(src),
            dst: Vid(dst),
            label,
            props: self.props_of(e.0),
        }))
    }

    fn for_each_incident(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
        f: &mut dyn FnMut(EdgeRef) -> GdbResult<()>,
    ) -> GdbResult<()> {
        self.require_vertex(v.0)?;
        let want = match label {
            Some(l) => match self.literals.get(&Value::Str(l.to_string())) {
                Some(&t) => Some(t),
                None => return Ok(()),
            },
            None => None,
        };
        // Edge subjects come out of POS in ascending order, and an edge's
        // label and endpoint probes hit neighbouring SPO keys: one finger
        // per direction.
        let mut visit = |edge_pred: u64, other_pred: u64| {
            fingered(|finger| {
                for (_, _, e) in self.pos_range(edge_pred, Some(v.0)) {
                    ctx.tick()?;
                    if let Some(want) = want {
                        // One more B+Tree access for the label of the reified edge.
                        if self.object_near(finger, e, P_LBL) != Some(want) {
                            continue;
                        }
                    }
                    let Some(other) = self.object_near(finger, e, other_pred) else {
                        continue;
                    };
                    f(EdgeRef {
                        eid: Eid(e),
                        other: Vid(other),
                    })?;
                }
                Ok(())
            })
        };
        if matches!(dir, Direction::Out | Direction::Both) {
            visit(P_SRC, P_DST)?;
        }
        if matches!(dir, Direction::In | Direction::Both) {
            visit(P_DST, P_SRC)?;
        }
        Ok(())
    }

    // Not the walk: counts POS entries without probing SPO for the far end.
    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        self.require_vertex(v.0)?;
        let mut n = 0u64;
        if matches!(dir, Direction::Out | Direction::Both) {
            for _ in self.pos_range(P_SRC, Some(v.0)) {
                ctx.tick()?;
                n += 1;
            }
        }
        if matches!(dir, Direction::In | Direction::Both) {
            for _ in self.pos_range(P_DST, Some(v.0)) {
                ctx.tick()?;
                n += 1;
            }
        }
        Ok(n)
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let mut seen: Vec<u64> = Vec::new();
        self.for_each_incident(v, dir, None, ctx, &mut |r| {
            if let Some(o) = self.object_of(r.eid.0, P_LBL) {
                if !seen.contains(&o) {
                    seen.push(o);
                }
            }
            Ok(())
        })?;
        Ok(seen
            .into_iter()
            .filter_map(|o| self.literal_value(o))
            .filter_map(|val| val.as_str().map(String::from))
            .collect())
    }

    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        Ok(Box::new(self.pos_range(P_TYPE, None).map(
            move |(_, _, s)| {
                ctx.tick()?;
                Ok(Vid(s))
            },
        )))
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        Ok(Box::new(self.pos_range(P_LBL, None).map(
            move |(_, _, s)| {
                ctx.tick()?;
                Ok(Eid(s))
            },
        )))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.require_vertex(v.0)?;
        let Some(&p) = self.preds.get(name) else {
            return Ok(None);
        };
        Ok(self
            .object_of(v.0, p)
            .and_then(|o| self.literal_value(o))
            .cloned())
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        self.require_edge(e.0)?;
        let Some(&p) = self.preds.get(name) else {
            return Ok(None);
        };
        Ok(self
            .object_of(e.0, p)
            .and_then(|o| self.literal_value(o))
            .cloned())
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        if self.require_edge(e.0).is_err() {
            return Ok(None);
        }
        Ok(Some((
            Vid(self.object_of(e.0, P_SRC).expect("src")),
            Vid(self.object_of(e.0, P_DST).expect("dst")),
        )))
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        if self.require_edge(e.0).is_err() {
            return Ok(None);
        }
        Ok(self
            .object_of(e.0, P_LBL)
            .and_then(|o| self.literal_value(o))
            .and_then(|val| val.as_str().map(String::from)))
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        if self.require_vertex(v.0).is_err() {
            return Ok(None);
        }
        Ok(self
            .object_of(v.0, P_TYPE)
            .and_then(|o| self.literal_value(o))
            .and_then(|val| val.as_str().map(String::from)))
    }

    fn has_vertex_index(&self, _prop: &str) -> bool {
        false
    }

    fn space(&self) -> SpaceReport {
        let mut r = SpaceReport::default();
        let key_bytes = |_: &Triple| 24u64;
        let val_bytes = |_: &()| 0u64;
        r.add("SPO index", self.spo.approx_bytes(key_bytes, val_bytes));
        r.add("POS index", self.pos.approx_bytes(key_bytes, val_bytes));
        r.add("OSP index", self.osp.approx_bytes(key_bytes, val_bytes));
        let dict: u64 = self
            .terms
            .iter()
            .map(|t| match t {
                Term::Literal(v) => 24 + v.approx_bytes(),
                Term::Pred(n) => 24 + n.len() as u64,
                _ => 8,
            })
            .sum();
        r.add("term dictionary", dict);
        // The journal is allocated in fixed-size extents.
        let raw = self.statements * STATEMENT_BYTES;
        let extents = raw.div_ceil(JOURNAL_EXTENT).max(1) * JOURNAL_EXTENT;
        r.add("journal (fixed extents)", extents);
        r
    }
}

/// The write bodies behind [`GraphDb::apply`] (`gm_model::engine_apply!`).
impl TripleGraph {
    fn load_dataset(&mut self, data: &Dataset, opts: &LoadOptions) -> GdbResult<LoadStats> {
        if !self.vmap.is_empty() {
            return Err(GdbError::Invalid(
                "bulk_load requires an empty engine".into(),
            ));
        }
        if opts.bulk {
            // Bulk path: dictionary-encode everything first, then build each
            // index from pre-sorted statements (append-mostly inserts).
            let mut stmts: Vec<Triple> = Vec::new();
            for v in &data.vertices {
                let term = self.new_vertex_term();
                self.vmap.push(term);
                let label_term = self.literal(&Value::Str(v.label.clone()));
                stmts.push((term, P_TYPE, label_term));
                for (name, value) in &v.props {
                    let p = self.pred(name);
                    let o = self.literal(value);
                    stmts.push((term, p, o));
                }
            }
            for e in &data.edges {
                let term = self.new_edge_term();
                self.emap.push(term);
                let label_term = self.literal(&Value::Str(e.label.clone()));
                stmts.push((term, P_SRC, self.vmap[e.src as usize]));
                stmts.push((term, P_DST, self.vmap[e.dst as usize]));
                stmts.push((term, P_LBL, label_term));
                for (name, value) in &e.props {
                    let p = self.pred(name);
                    let o = self.literal(value);
                    stmts.push((term, p, o));
                }
            }
            stmts.sort_unstable();
            stmts.dedup();
            for &(s, p, o) in &stmts {
                self.spo.insert((s, p, o), ());
            }
            let mut pos_stmts: Vec<Triple> = stmts.iter().map(|&(s, p, o)| (p, o, s)).collect();
            pos_stmts.sort_unstable();
            for &k in &pos_stmts {
                self.pos.insert(k, ());
            }
            let mut osp_stmts: Vec<Triple> = stmts.iter().map(|&(s, p, o)| (o, s, p)).collect();
            osp_stmts.sort_unstable();
            for &k in &osp_stmts {
                self.osp.insert(k, ());
            }
            // Metadata once, at the end.
            for &(_, p, _) in &stmts {
                *self.pred_stats.entry(p).or_insert(0) += 1;
            }
            self.statements = stmts.len() as u64;
        } else {
            // Default path: statement-at-a-time, metadata after each item.
            for v in &data.vertices {
                let term = self.add_vertex_stmts(&v.label, &v.props);
                self.vmap.push(term);
            }
            for e in &data.edges {
                let term = self.add_edge_stmts(
                    self.vmap[e.src as usize],
                    self.vmap[e.dst as usize],
                    &e.label,
                    &e.props,
                );
                self.emap.push(term);
            }
        }
        Ok(LoadStats {
            vertices: data.vertices.len() as u64,
            edges: data.edges.len() as u64,
        })
    }

    fn insert_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        Ok(Vid(self.add_vertex_stmts(label, props)))
    }

    fn insert_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        self.require_vertex(src.0)?;
        self.require_vertex(dst.0)?;
        Ok(Eid(self.add_edge_stmts(src.0, dst.0, label, props)))
    }

    fn put_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        self.require_vertex(v.0)?;
        let p = self.pred(name);
        // Retract the old statement (if any), assert the new one.
        if let Some(o) = self.object_of(v.0, p) {
            self.retract_stmt(v.0, p, o);
        }
        let o = self.literal(&value);
        self.assert_stmt(v.0, p, o);
        Ok(())
    }

    fn put_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        self.require_edge(e.0)?;
        let p = self.pred(name);
        if let Some(o) = self.object_of(e.0, p) {
            self.retract_stmt(e.0, p, o);
        }
        let o = self.literal(&value);
        self.assert_stmt(e.0, p, o);
        Ok(())
    }

    fn delete_vertex(&mut self, v: Vid) -> GdbResult<()> {
        self.require_vertex(v.0)?;
        // Incident edges via POS on src/dst.
        let mut incident: Vec<u64> = self
            .pos_range(P_SRC, Some(v.0))
            .chain(self.pos_range(P_DST, Some(v.0)))
            .map(|(_, _, s)| s)
            .collect();
        incident.sort_unstable();
        incident.dedup();
        for e in incident {
            self.delete_edge(Eid(e))?;
        }
        let stmts: Vec<Triple> = self.spo_range(v.0, None).collect();
        for (s, p, o) in stmts {
            self.retract_stmt(s, p, o);
        }
        Ok(())
    }

    fn delete_edge(&mut self, e: Eid) -> GdbResult<()> {
        self.require_edge(e.0)?;
        let stmts: Vec<Triple> = self.spo_range(e.0, None).collect();
        for (s, p, o) in stmts {
            self.retract_stmt(s, p, o);
        }
        Ok(())
    }

    fn delete_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.require_vertex(v.0)?;
        let Some(&p) = self.preds.get(name) else {
            return Ok(None);
        };
        if let Some(o) = self.object_of(v.0, p) {
            let old = self.literal_value(o).cloned();
            self.retract_stmt(v.0, p, o);
            Ok(old)
        } else {
            Ok(None)
        }
    }

    fn delete_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        self.require_edge(e.0)?;
        let Some(&p) = self.preds.get(name) else {
            return Ok(None);
        };
        if let Some(o) = self.object_of(e.0, p) {
            let old = self.literal_value(o).cloned();
            self.retract_stmt(e.0, p, o);
            Ok(old)
        } else {
            Ok(None)
        }
    }

    fn build_vertex_index(&mut self, _prop: &str) -> GdbResult<()> {
        Err(GdbError::Unsupported(
            "BlazeGraph-class engine has no user-controllable attribute indexes".into(),
        ))
    }
}

impl GraphDb for TripleGraph {
    gm_model::engine_apply!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_model::testkit;

    #[test]
    fn conformance() {
        testkit::conformance_suite(&mut || Box::new(TripleGraph::new()));
    }

    #[test]
    fn non_bulk_load_matches_bulk_load() {
        let mut bulk = TripleGraph::new();
        bulk.bulk_load(
            &testkit::tiny_dataset(),
            &LoadOptions {
                bulk: true,
                index_during_load: false,
            },
        )
        .unwrap();
        let mut slow = TripleGraph::new();
        slow.bulk_load(
            &testkit::tiny_dataset(),
            &LoadOptions {
                bulk: false,
                index_during_load: false,
            },
        )
        .unwrap();
        let ctx = QueryCtx::unbounded();
        assert_eq!(
            bulk.vertex_count(&ctx).unwrap(),
            slow.vertex_count(&ctx).unwrap()
        );
        assert_eq!(
            bulk.edge_count(&ctx).unwrap(),
            slow.edge_count(&ctx).unwrap()
        );
        let mut a = bulk.edge_label_set(&ctx).unwrap();
        let mut b = slow.edge_label_set(&ctx).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(bulk.statements, slow.statements);
    }

    #[test]
    fn statements_per_element() {
        let mut g = TripleGraph::new();
        let a = g
            .add_vertex("n", &vec![("p".into(), Value::Int(1))])
            .unwrap();
        assert_eq!(g.statements, 2, "vertex = type + 1 prop");
        let b = g.add_vertex("n", &vec![]).unwrap();
        assert_eq!(g.statements, 3);
        g.add_edge(a, b, "l", &vec![("w".into(), Value::Int(2))])
            .unwrap();
        assert_eq!(g.statements, 7, "edge = src + dst + label + 1 prop");
    }

    #[test]
    fn three_indexes_stay_in_sync() {
        let mut g = TripleGraph::new();
        g.bulk_load(&testkit::tiny_dataset(), &LoadOptions::default())
            .unwrap();
        assert_eq!(g.spo.len(), g.pos.len());
        assert_eq!(g.spo.len(), g.osp.len());
        let v = g.resolve_vertex(0).unwrap();
        g.remove_vertex(v).unwrap();
        assert_eq!(g.spo.len(), g.pos.len());
        assert_eq!(g.spo.len(), g.osp.len());
    }

    #[test]
    fn journal_space_is_extent_quantized() {
        let g = TripleGraph::new();
        let space = g.space();
        let journal = space
            .components
            .iter()
            .find(|(n, _)| n.starts_with("journal"))
            .map(|(_, b)| *b)
            .unwrap();
        assert_eq!(journal % JOURNAL_EXTENT, 0);
        assert!(
            journal >= JOURNAL_EXTENT,
            "at least one extent pre-allocated"
        );
    }

    #[test]
    fn literals_are_shared_across_elements() {
        let mut g = TripleGraph::new();
        g.add_vertex("person", &vec![("city".into(), Value::Str("x".into()))])
            .unwrap();
        let before = g.terms.len();
        g.add_vertex("person", &vec![("city".into(), Value::Str("x".into()))])
            .unwrap();
        // Only the new vertex term is allocated; label, pred, literal reused.
        assert_eq!(g.terms.len(), before + 1);
    }

    #[test]
    fn update_replaces_statement() {
        let mut g = TripleGraph::new();
        let v = g
            .add_vertex("n", &vec![("p".into(), Value::Int(1))])
            .unwrap();
        let stmts = g.statements;
        g.set_vertex_property(v, "p", Value::Int(2)).unwrap();
        assert_eq!(g.statements, stmts, "retract + assert keeps count");
        assert_eq!(g.vertex_property(v, "p").unwrap(), Some(Value::Int(2)));
    }
}
