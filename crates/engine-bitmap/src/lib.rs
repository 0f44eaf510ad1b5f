//! # engine-bitmap — the Sparksee/DEX-class engine
//!
//! Reproduces the architecture the paper describes for Sparksee (§3.2):
//!
//! * separate data structures for **objects**, **relationships** and each
//!   **attribute name**; objects carry sequential ids from one shared id
//!   space;
//! * each structure is "a map from keys to values, and a **bitmap for each
//!   value**": label → bitmap of members, attribute value → bitmap of
//!   owners, node → bitmap of incident edges;
//! * many operations become **bitwise operations on bitmaps** — counting is
//!   a cardinality read, label-filtered adjacency is an AND of two bitmaps —
//!   which is why the paper finds Sparksee fastest on counts, id lookups
//!   and CUD;
//! * "operations like edge traversals have **no constant time guarantees**":
//!   every hop pays map lookups to resolve edge endpoints;
//! * the **degree-filter adapter flaw** (§6.4: Q28–Q31 exhaust all RAM on
//!   the Freebase samples, "linked to a known problem in the Gremlin
//!   implementation") is reproduced faithfully: [`BitmapGraph::degree_scan`]
//!   materializes every vertex's incident-edge list and *retains* the
//!   buffers for the duration of the scan; a configurable cap turns the
//!   paper's OOM kill into a clean [`GdbError::ResourceExhausted`].

use std::collections::HashMap;

use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, LoadStats,
    SpaceReport, VertexData,
};
use gm_model::fxmap::FxHashMap;
use gm_model::interner::Interner;
use gm_model::value::{Props, Value};
use gm_model::{Dataset, Eid, GdbError, GdbResult, QueryCtx, Vid};
use gm_storage::bitmap::Bitmap;

/// Default cap on entries retained by the degree-filter adapter before the
/// engine reports resource exhaustion (the paper's RAM+swap exhaustion,
/// made deterministic). Sized so that, at the reproduction's default
/// scales, the failure appears on the larger Freebase samples — mirroring
/// §6.4 where Sparksee fails Q28–Q31 "on all the Freebase subsamples" while
/// completing Yeast, MiCo and LDBC.
pub const DEFAULT_MATERIALIZATION_CAP: u64 = 50_000;

/// Per-attribute storage: forward map + one bitmap per distinct value.
#[derive(Debug, Default, Clone)]
struct AttrStore {
    by_oid: FxHashMap<u64, Value>,
    by_value: HashMap<Value, Bitmap>,
}

impl AttrStore {
    fn set(&mut self, oid: u64, value: Value) -> Option<Value> {
        if let Some(old) = self.by_oid.get(&oid).cloned() {
            if let Some(bm) = self.by_value.get_mut(&old) {
                bm.remove(oid);
                if bm.is_empty() {
                    self.by_value.remove(&old);
                }
            }
            self.by_value.entry(value.clone()).or_default().insert(oid);
            self.by_oid.insert(oid, value);
            Some(old)
        } else {
            self.by_value.entry(value.clone()).or_default().insert(oid);
            self.by_oid.insert(oid, value);
            None
        }
    }

    fn remove(&mut self, oid: u64) -> Option<Value> {
        let old = self.by_oid.remove(&oid)?;
        if let Some(bm) = self.by_value.get_mut(&old) {
            bm.remove(oid);
            if bm.is_empty() {
                self.by_value.remove(&old);
            }
        }
        Some(old)
    }

    fn bytes(&self) -> u64 {
        let fwd: u64 = self
            .by_oid
            .values()
            .map(|v| 16 + v.approx_bytes())
            .sum::<u64>();
        let bwd: u64 = self
            .by_value
            .iter()
            .map(|(v, bm)| v.approx_bytes() + bm.bytes())
            .sum::<u64>();
        fwd + bwd + 64
    }
}

/// The Sparksee-class engine. See crate docs for the layout.
#[derive(Clone)]
pub struct BitmapGraph {
    vertices: Bitmap,
    edges: Bitmap,
    vlabel_bitmaps: Vec<Bitmap>,
    elabel_bitmaps: Vec<Bitmap>,
    vlabels: Interner,
    elabels: Interner,
    keys: Interner,
    edge_src: FxHashMap<u64, u64>,
    edge_dst: FxHashMap<u64, u64>,
    edge_label: FxHashMap<u64, u32>,
    out_edges: FxHashMap<u64, Bitmap>,
    in_edges: FxHashMap<u64, Bitmap>,
    vattrs: FxHashMap<u32, AttrStore>,
    eattrs: FxHashMap<u32, AttrStore>,
    vertex_label_of: FxHashMap<u64, u32>,
    next_oid: u64,
    vmap: Vec<u64>,
    emap: Vec<u64>,
    declared_indexes: Vec<u32>,
    materialization_cap: u64,
}

impl Default for BitmapGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl BitmapGraph {
    /// A fresh engine with [`DEFAULT_MATERIALIZATION_CAP`].
    pub fn new() -> Self {
        Self::with_materialization_cap(DEFAULT_MATERIALIZATION_CAP)
    }

    /// A fresh engine with an explicit degree-scan materialization cap.
    pub fn with_materialization_cap(cap: u64) -> Self {
        BitmapGraph {
            vertices: Bitmap::new(),
            edges: Bitmap::new(),
            vlabel_bitmaps: Vec::new(),
            elabel_bitmaps: Vec::new(),
            vlabels: Interner::new(),
            elabels: Interner::new(),
            keys: Interner::new(),
            edge_src: FxHashMap::default(),
            edge_dst: FxHashMap::default(),
            edge_label: FxHashMap::default(),
            out_edges: FxHashMap::default(),
            in_edges: FxHashMap::default(),
            vattrs: FxHashMap::default(),
            eattrs: FxHashMap::default(),
            vertex_label_of: FxHashMap::default(),
            next_oid: 0,
            vmap: Vec::new(),
            emap: Vec::new(),
            declared_indexes: Vec::new(),
            materialization_cap: cap,
        }
    }

    fn alloc_oid(&mut self) -> u64 {
        let oid = self.next_oid;
        self.next_oid += 1;
        oid
    }

    fn require_vertex(&self, v: u64) -> GdbResult<()> {
        if self.vertices.contains(v) {
            Ok(())
        } else {
            Err(GdbError::VertexNotFound(v))
        }
    }

    fn require_edge(&self, e: u64) -> GdbResult<()> {
        if self.edges.contains(e) {
            Ok(())
        } else {
            Err(GdbError::EdgeNotFound(e))
        }
    }

    fn elabel_bitmap_mut(&mut self, label: u32) -> &mut Bitmap {
        while self.elabel_bitmaps.len() <= label as usize {
            self.elabel_bitmaps.push(Bitmap::new());
        }
        &mut self.elabel_bitmaps[label as usize]
    }

    fn vlabel_bitmap_mut(&mut self, label: u32) -> &mut Bitmap {
        while self.vlabel_bitmaps.len() <= label as usize {
            self.vlabel_bitmaps.push(Bitmap::new());
        }
        &mut self.vlabel_bitmaps[label as usize]
    }

    fn add_edge_raw(&mut self, src: u64, dst: u64, label: u32, props: &Props) -> GdbResult<u64> {
        self.require_vertex(src)?;
        self.require_vertex(dst)?;
        let e = self.alloc_oid();
        self.edges.insert(e);
        self.elabel_bitmap_mut(label).insert(e);
        self.edge_src.insert(e, src);
        self.edge_dst.insert(e, dst);
        self.edge_label.insert(e, label);
        self.out_edges.entry(src).or_default().insert(e);
        self.in_edges.entry(dst).or_default().insert(e);
        for (name, value) in props {
            let key = self.keys.intern(name);
            self.eattrs.entry(key).or_default().set(e, value.clone());
        }
        Ok(e)
    }

    /// Incident-edge oids for (v, dir), optionally intersected with a label
    /// bitmap (a pure bitwise AND — Sparksee's signature move).
    fn incident(&self, v: u64, dir: Direction, label: Option<u32>) -> Vec<u64> {
        let empty = Bitmap::new();
        let outs = self.out_edges.get(&v).unwrap_or(&empty);
        let ins = self.in_edges.get(&v).unwrap_or(&empty);
        let combined = match dir {
            Direction::Out => outs.clone(),
            Direction::In => ins.clone(),
            Direction::Both => outs.or(ins),
        };
        let filtered = match label {
            Some(l) => match self.elabel_bitmaps.get(l as usize) {
                Some(bm) => combined.and(bm),
                None => Bitmap::new(),
            },
            None => combined,
        };
        let mut oids: Vec<u64> = filtered.iter().collect();
        // both() must see self-loops twice (they are in `outs` AND `ins`,
        // but OR collapses them) — re-add the duplicates.
        if dir == Direction::Both {
            let loops = outs.and(ins);
            for e in loops.iter() {
                if label.is_none_or(|l| {
                    self.elabel_bitmaps
                        .get(l as usize)
                        .is_some_and(|bm| bm.contains(e))
                }) {
                    oids.push(e);
                }
            }
        }
        oids
    }
}

impl GraphSnapshot for BitmapGraph {
    fn name(&self) -> String {
        "bitmap".into()
    }

    fn features(&self) -> EngineFeatures {
        EngineFeatures {
            name: self.name(),
            system_type: "Native".into(),
            storage: "Indexed bitmaps (map + bitmap per value)".into(),
            edge_traversal: "B+Tree/Bitmap".into(),
            optimized_adapter: false,
            async_writes: false,
            attribute_indexes: true,
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
        // Cardinality is maintained by the bitmaps — Sparksee's adapter
        // resolves the count without iterating objects (§6.4: best on Q8).
        ctx.check_clock()?;
        Ok(self.vertices.len())
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        ctx.check_clock()?;
        Ok(self.edges.len())
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        // The adapter's de-duplication is per-edge (the "sub-optimal
        // implementation of the de-duplication step" of §6.4): iterate every
        // edge, look its label up, dedup in a set.
        let mut seen: Vec<bool> = vec![false; self.elabels.len()];
        for e in self.edges.iter() {
            ctx.tick()?;
            if let Some(&l) = self.edge_label.get(&e) {
                seen[l as usize] = true;
            }
        }
        Ok(seen
            .iter()
            .enumerate()
            .filter(|(_, s)| **s)
            .filter_map(|(i, _)| self.elabels.resolve(i as u32).map(String::from))
            .collect())
    }

    fn vertices_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        // Adapter-level scan: the Gremlin has() step filters object by
        // object; the engine's value bitmaps are not consulted (which is
        // why indexes bring Sparksee no benefit in Figure 4c).
        let Some(key) = self.keys.get(name) else {
            return Ok(Vec::new());
        };
        let Some(attr) = self.vattrs.get(&key) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for v in self.vertices.iter() {
            ctx.tick()?;
            if attr.by_oid.get(&v) == Some(value) {
                out.push(Vid(v));
            }
        }
        Ok(out)
    }

    fn edges_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Eid>> {
        let Some(key) = self.keys.get(name) else {
            return Ok(Vec::new());
        };
        let Some(attr) = self.eattrs.get(&key) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for e in self.edges.iter() {
            ctx.tick()?;
            if attr.by_oid.get(&e) == Some(value) {
                out.push(Eid(e));
            }
        }
        Ok(out)
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        // Per-edge label check through the adapter, like the property scan.
        let Some(want) = self.elabels.get(label) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for e in self.edges.iter() {
            ctx.tick()?;
            if self.edge_label.get(&e) == Some(&want) {
                out.push(Eid(e));
            }
        }
        Ok(out)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        if !self.vertices.contains(v.0) {
            return Ok(None);
        }
        let label = self
            .vertex_label_of
            .get(&v.0)
            .and_then(|&l| self.vlabels.resolve(l))
            .unwrap_or("<unknown>")
            .to_string();
        let mut props = Props::new();
        for (key, attr) in &self.vattrs {
            if let Some(val) = attr.by_oid.get(&v.0) {
                props.push((
                    self.keys.resolve(*key).expect("known key").to_string(),
                    val.clone(),
                ));
            }
        }
        props.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Some(VertexData {
            id: v,
            label,
            props,
        }))
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        if !self.edges.contains(e.0) {
            return Ok(None);
        }
        let mut props = Props::new();
        for (key, attr) in &self.eattrs {
            if let Some(val) = attr.by_oid.get(&e.0) {
                props.push((
                    self.keys.resolve(*key).expect("known key").to_string(),
                    val.clone(),
                ));
            }
        }
        props.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Some(EdgeData {
            id: e,
            src: Vid(self.edge_src[&e.0]),
            dst: Vid(self.edge_dst[&e.0]),
            label: self
                .edge_label
                .get(&e.0)
                .and_then(|&l| self.elabels.resolve(l))
                .unwrap_or("<unknown>")
                .to_string(),
            props,
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
        let label_id = match label {
            Some(l) => match self.elabels.get(l) {
                Some(id) => Some(id),
                None => return Ok(()),
            },
            None => None,
        };
        for e in self.incident(v.0, dir, label_id) {
            ctx.tick()?;
            let src = self.edge_src[&e];
            let dst = self.edge_dst[&e];
            let other = if src == v.0 { dst } else { src };
            f(EdgeRef {
                eid: Eid(e),
                other: Vid(other),
            })?;
        }
        Ok(())
    }

    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        self.require_vertex(v.0)?;
        // Adapter-faithful: `it.inE.count()` materializes the iterator into
        // a list and counts it (the root cause of the Q28-31 behaviour).
        let materialized = self.incident(v.0, dir, None);
        ctx.tick_n(materialized.len() as u64 + 1)?;
        Ok(materialized.len() as u64)
    }

    fn degree_scan(&self, dir: Direction, k: u64, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        // The known adapter flaw: every vertex's incident edges are
        // materialized AND retained until the scan finishes. On graphs past
        // the cap this aborts with ResourceExhausted (the paper's RAM
        // exhaustion, §6.4).
        let mut retained: Vec<Vec<u64>> = Vec::new();
        let mut retained_total = 0u64;
        let mut out = Vec::new();
        for v in self.vertices.iter() {
            ctx.tick()?;
            let materialized = self.incident(v, dir, None);
            retained_total += materialized.len() as u64 + 8;
            if retained_total > self.materialization_cap {
                return Err(GdbError::ResourceExhausted(format!(
                    "degree-filter adapter retained {retained_total} entries (cap {})",
                    self.materialization_cap
                )));
            }
            if materialized.len() as u64 >= k {
                out.push(Vid(v));
            }
            retained.push(materialized);
        }
        std::hint::black_box(&retained);
        Ok(out)
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.require_vertex(v.0)?;
        let mut seen: Vec<u32> = Vec::new();
        for e in self.incident(v.0, dir, None) {
            ctx.tick()?;
            let l = self.edge_label[&e];
            if !seen.contains(&l) {
                seen.push(l);
            }
        }
        Ok(seen
            .into_iter()
            .filter_map(|l| self.elabels.resolve(l).map(String::from))
            .collect())
    }

    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        Ok(Box::new(self.vertices.iter().map(move |v| {
            ctx.tick()?;
            Ok(Vid(v))
        })))
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        Ok(Box::new(self.edges.iter().map(move |e| {
            ctx.tick()?;
            Ok(Eid(e))
        })))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.require_vertex(v.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        Ok(self
            .vattrs
            .get(&key)
            .and_then(|a| a.by_oid.get(&v.0))
            .cloned())
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        self.require_edge(e.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        Ok(self
            .eattrs
            .get(&key)
            .and_then(|a| a.by_oid.get(&e.0))
            .cloned())
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        if !self.edges.contains(e.0) {
            return Ok(None);
        }
        Ok(Some((Vid(self.edge_src[&e.0]), Vid(self.edge_dst[&e.0]))))
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        if !self.edges.contains(e.0) {
            return Ok(None);
        }
        Ok(self
            .edge_label
            .get(&e.0)
            .and_then(|&l| self.elabels.resolve(l))
            .map(String::from))
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        if !self.vertices.contains(v.0) {
            return Ok(None);
        }
        Ok(self
            .vertex_label_of
            .get(&v.0)
            .and_then(|&l| self.vlabels.resolve(l))
            .map(String::from))
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        self.keys
            .get(prop)
            .map(|k| self.declared_indexes.contains(&k))
            .unwrap_or(false)
    }

    fn space(&self) -> SpaceReport {
        let mut r = SpaceReport::default();
        r.add("object bitmaps", self.vertices.bytes() + self.edges.bytes());
        r.add(
            "label bitmaps",
            self.vlabel_bitmaps.iter().map(|b| b.bytes()).sum::<u64>()
                + self.elabel_bitmaps.iter().map(|b| b.bytes()).sum::<u64>(),
        );
        r.add(
            "relationship maps",
            (self.edge_src.len() + self.edge_dst.len() + self.edge_label.len()) as u64 * 16
                + self.vertex_label_of.len() as u64 * 12,
        );
        r.add(
            "adjacency bitmaps",
            self.out_edges.values().map(|b| b.bytes() + 8).sum::<u64>()
                + self.in_edges.values().map(|b| b.bytes() + 8).sum::<u64>(),
        );
        r.add(
            "attribute stores",
            self.vattrs.values().map(|a| a.bytes()).sum::<u64>()
                + self.eattrs.values().map(|a| a.bytes()).sum::<u64>(),
        );
        r.add(
            "dictionaries",
            self.vlabels.bytes() + self.elabels.bytes() + self.keys.bytes(),
        );
        r
    }
}

/// The write bodies behind [`GraphDb::apply`] (`gm_model::engine_apply!`).
impl BitmapGraph {
    fn load_dataset(&mut self, data: &Dataset, _opts: &LoadOptions) -> GdbResult<LoadStats> {
        if !self.vmap.is_empty() {
            return Err(GdbError::Invalid(
                "bulk_load requires an empty engine".into(),
            ));
        }
        for v in &data.vertices {
            let vid = self.insert_vertex(&v.label, &v.props)?;
            self.vmap.push(vid.0);
        }
        for e in &data.edges {
            let label = self.elabels.intern(&e.label);
            let eid = self.add_edge_raw(
                self.vmap[e.src as usize],
                self.vmap[e.dst as usize],
                label,
                &e.props,
            )?;
            self.emap.push(eid);
        }
        Ok(LoadStats {
            vertices: data.vertices.len() as u64,
            edges: data.edges.len() as u64,
        })
    }

    fn insert_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        let label_id = self.vlabels.intern(label);
        let v = self.alloc_oid();
        self.vertices.insert(v);
        self.vlabel_bitmap_mut(label_id).insert(v);
        self.vertex_label_of.insert(v, label_id);
        for (name, value) in props {
            let key = self.keys.intern(name);
            self.vattrs.entry(key).or_default().set(v, value.clone());
        }
        Ok(Vid(v))
    }

    fn insert_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        let label_id = self.elabels.intern(label);
        Ok(Eid(self.add_edge_raw(src.0, dst.0, label_id, props)?))
    }

    fn put_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        self.require_vertex(v.0)?;
        let key = self.keys.intern(name);
        self.vattrs.entry(key).or_default().set(v.0, value);
        Ok(())
    }

    fn put_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        self.require_edge(e.0)?;
        let key = self.keys.intern(name);
        self.eattrs.entry(key).or_default().set(e.0, value);
        Ok(())
    }

    fn delete_vertex(&mut self, v: Vid) -> GdbResult<()> {
        self.require_vertex(v.0)?;
        let incident = self.incident(v.0, Direction::Both, None);
        let mut seen = Vec::new();
        for e in incident {
            if !seen.contains(&e) {
                seen.push(e);
                self.delete_edge(Eid(e))?;
            }
        }
        for attr in self.vattrs.values_mut() {
            attr.remove(v.0);
        }
        if let Some(l) = self.vertex_label_of.remove(&v.0) {
            self.vlabel_bitmaps[l as usize].remove(v.0);
        }
        self.out_edges.remove(&v.0);
        self.in_edges.remove(&v.0);
        self.vertices.remove(v.0);
        Ok(())
    }

    fn delete_edge(&mut self, e: Eid) -> GdbResult<()> {
        self.require_edge(e.0)?;
        let src = self.edge_src.remove(&e.0).expect("edge src");
        let dst = self.edge_dst.remove(&e.0).expect("edge dst");
        let label = self.edge_label.remove(&e.0).expect("edge label");
        if let Some(bm) = self.out_edges.get_mut(&src) {
            bm.remove(e.0);
        }
        if let Some(bm) = self.in_edges.get_mut(&dst) {
            bm.remove(e.0);
        }
        self.elabel_bitmaps[label as usize].remove(e.0);
        for attr in self.eattrs.values_mut() {
            attr.remove(e.0);
        }
        self.edges.remove(e.0);
        Ok(())
    }

    fn delete_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.require_vertex(v.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        Ok(self.vattrs.get_mut(&key).and_then(|a| a.remove(v.0)))
    }

    fn delete_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        self.require_edge(e.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        Ok(self.eattrs.get_mut(&key).and_then(|a| a.remove(e.0)))
    }

    fn build_vertex_index(&mut self, prop: &str) -> GdbResult<()> {
        // The value bitmaps already exist; the index declaration is recorded
        // but the Gremlin adapter's scan path cannot exploit it — exactly
        // the "Sparksee … not able to take advantage of such indexes"
        // finding (§6.4, Effect of Indexing).
        let key = self.keys.intern(prop);
        if !self.declared_indexes.contains(&key) {
            self.declared_indexes.push(key);
        }
        Ok(())
    }
}

impl GraphDb for BitmapGraph {
    gm_model::engine_apply!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_model::testkit;

    #[test]
    fn conformance() {
        testkit::conformance_suite(&mut || Box::new(BitmapGraph::new()));
    }

    #[test]
    fn oid_space_is_shared() {
        let mut g = BitmapGraph::new();
        let v0 = g.add_vertex("n", &vec![]).unwrap();
        let v1 = g.add_vertex("n", &vec![]).unwrap();
        let e = g.add_edge(v0, v1, "x", &vec![]).unwrap();
        assert_eq!(v0.0, 0);
        assert_eq!(v1.0, 1);
        assert_eq!(e.0, 2, "edges share the sequential oid space");
    }

    #[test]
    fn counts_are_constant_work() {
        let mut g = BitmapGraph::new();
        g.bulk_load(&testkit::chain_dataset(5000), &LoadOptions::default())
            .unwrap();
        let ctx = QueryCtx::unbounded();
        assert_eq!(g.vertex_count(&ctx).unwrap(), 5000);
        assert_eq!(g.edge_count(&ctx).unwrap(), 4999);
        assert_eq!(ctx.work(), 0, "cardinality reads must not iterate");
    }

    #[test]
    fn labeled_adjacency_is_a_bitmap_and() {
        let mut g = BitmapGraph::new();
        let hub = g.add_vertex("n", &vec![]).unwrap();
        for i in 0..100 {
            let v = g.add_vertex("n", &vec![]).unwrap();
            g.add_edge(hub, v, if i % 4 == 0 { "rare" } else { "common" }, &vec![])
                .unwrap();
        }
        let ctx = QueryCtx::unbounded();
        let rare = g
            .neighbors(hub, Direction::Out, Some("rare"), &ctx)
            .unwrap();
        assert_eq!(rare.len(), 25);
        // Only matching edges are touched after the AND.
        assert!(
            ctx.work() <= 30,
            "AND prunes before iteration ({})",
            ctx.work()
        );
    }

    #[test]
    fn degree_scan_exhausts_at_cap() {
        let mut g = BitmapGraph::with_materialization_cap(100);
        g.bulk_load(&testkit::chain_dataset(200), &LoadOptions::default())
            .unwrap();
        let ctx = QueryCtx::unbounded();
        let err = g.degree_scan(Direction::Both, 1, &ctx).unwrap_err();
        assert!(matches!(err, GdbError::ResourceExhausted(_)));
    }

    #[test]
    fn degree_scan_works_under_cap() {
        let mut g = BitmapGraph::new();
        g.bulk_load(&testkit::chain_dataset(100), &LoadOptions::default())
            .unwrap();
        let ctx = QueryCtx::unbounded();
        // Interior chain vertices have both-degree 2.
        let hits = g.degree_scan(Direction::Both, 2, &ctx).unwrap();
        assert_eq!(hits.len(), 98);
    }

    #[test]
    fn attr_store_value_bitmaps_stay_consistent() {
        let mut g = BitmapGraph::new();
        let v = g
            .add_vertex("n", &vec![("color".into(), Value::Str("red".into()))])
            .unwrap();
        g.set_vertex_property(v, "color", Value::Str("blue".into()))
            .unwrap();
        let key = g.keys.get("color").unwrap();
        let attr = g.vattrs.get(&key).unwrap();
        assert!(!attr.by_value.contains_key(&Value::Str("red".into())));
        assert!(attr
            .by_value
            .get(&Value::Str("blue".into()))
            .unwrap()
            .contains(v.0));
    }

    #[test]
    fn index_declaration_does_not_change_results() {
        let mut g = BitmapGraph::new();
        g.bulk_load(&testkit::tiny_dataset(), &LoadOptions::default())
            .unwrap();
        let ctx = QueryCtx::unbounded();
        let before = g
            .vertices_with_property("age", &Value::Int(30), &ctx)
            .unwrap();
        g.create_vertex_index("age").unwrap();
        assert!(g.has_vertex_index("age"));
        let after = g
            .vertices_with_property("age", &Value::Int(30), &ctx)
            .unwrap();
        assert_eq!(before, after);
    }
}
