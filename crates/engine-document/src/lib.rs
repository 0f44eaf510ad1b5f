//! # engine-document — the ArangoDB-class hybrid engine
//!
//! Reproduces the architecture the paper describes for ArangoDB (§3.1/§3.2):
//!
//! * every node and edge is a **self-contained document "serialized in a
//!   compressed binary format"** ([`bytes`]-backed buffers with varint/value
//!   encoding);
//! * a **specialized hash index on edge endpoints** accelerates traversals
//!   (`_from` → edges, `_to` → edges);
//! * writes are **registered in RAM and asynchronously flushed** — the write
//!   journal makes CUD latencies look excellent because "the time is
//!   measured on the client side and we have no control on when those
//!   operations get materialized on disk" (§6.4, the paper's explicit bias
//!   caveat, surfaced here via [`EngineFeatures::async_writes`]);
//! * whole-graph reads must **materialize (deserialize) every document**:
//!   the paper traces ArangoDB's Q9/Q10 timeouts to exactly this
//!   ("it materializes all edges while counting them");
//! * attribute index declarations are accepted but **do not change the scan
//!   path** ("ArangoDB showed no difference in running times, so we suspect
//!   some defect in the Gremlin implementation", §6.4).

use bytes::Bytes;

use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, SpaceReport,
    VertexData,
};
use gm_model::fxmap::FxHashMap;
use gm_model::interner::Interner;
use gm_model::value::{Props, Value};
use gm_model::{Dataset, Eid, GdbError, GdbResult, LoadedIds, QueryCtx, Resolution, Vid};
use gm_storage::codec::{read_varint, write_varint};
use gm_storage::hashidx::HashIndex;
use gm_storage::valcodec::{decode_props, encode_props};

/// Journal entries accumulated before a background flush.
const JOURNAL_FLUSH_THRESHOLD: usize = 1024;

/// Edge document header: `_from` and `_to` at fixed offsets so traversals
/// can resolve endpoints without materializing the document.
const EDGE_HEADER: usize = 16;

/// The ArangoDB-class engine. See crate docs for the layout.
#[derive(Clone)]
pub struct DocumentGraph {
    vdocs: FxHashMap<u64, Bytes>,
    edocs: FxHashMap<u64, Bytes>,
    /// Async write overlay: documents acknowledged but not yet in the
    /// primary store. `None` = pending deletion.
    v_overlay: FxHashMap<u64, Option<Bytes>>,
    e_overlay: FxHashMap<u64, Option<Bytes>>,
    overlay_ops: usize,
    out_index: HashIndex,
    in_index: HashIndex,
    vlabels: Interner,
    elabels: Interner,
    keys: Interner,
    next_key: u64,
    /// Where the bulk load placed each canonical element.
    resolution: Resolution,
    declared_indexes: Vec<u32>,
}

impl Default for DocumentGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentGraph {
    /// A fresh, empty engine.
    pub fn new() -> Self {
        DocumentGraph {
            vdocs: FxHashMap::default(),
            edocs: FxHashMap::default(),
            v_overlay: FxHashMap::default(),
            e_overlay: FxHashMap::default(),
            overlay_ops: 0,
            out_index: HashIndex::new(),
            in_index: HashIndex::new(),
            vlabels: Interner::new(),
            elabels: Interner::new(),
            keys: Interner::new(),
            next_key: 0,
            resolution: Resolution::default(),
            declared_indexes: Vec::new(),
        }
    }

    fn alloc_key(&mut self) -> u64 {
        let k = self.next_key;
        self.next_key += 1;
        k
    }

    // ---- document encoding ------------------------------------------------
    //
    // Vertex doc: [label varint][props]
    // Edge doc:   [_from u64 LE][_to u64 LE][label varint][props]

    fn encode_vertex_doc(&mut self, label: u32, props: &Props) -> Bytes {
        let mut buf = Vec::with_capacity(16);
        write_varint(&mut buf, label as u64);
        let interned: Vec<(u32, Value)> = props
            .iter()
            .map(|(n, v)| (self.keys.intern(n), v.clone()))
            .collect();
        encode_props(&mut buf, &interned);
        Bytes::from(buf)
    }

    fn encode_edge_doc(&mut self, from: u64, to: u64, label: u32, props: &Props) -> Bytes {
        let mut buf = Vec::with_capacity(EDGE_HEADER + 8);
        buf.extend_from_slice(&from.to_le_bytes());
        buf.extend_from_slice(&to.to_le_bytes());
        write_varint(&mut buf, label as u64);
        let interned: Vec<(u32, Value)> = props
            .iter()
            .map(|(n, v)| (self.keys.intern(n), v.clone()))
            .collect();
        encode_props(&mut buf, &interned);
        Bytes::from(buf)
    }

    /// Full vertex materialization (label id + properties).
    fn decode_vertex_doc(&self, doc: &[u8]) -> (u32, Vec<(u32, Value)>) {
        let mut pos = 0usize;
        let label = read_varint(doc, &mut pos).expect("label") as u32;
        let props = decode_props(doc, &mut pos).expect("props");
        (label, props)
    }

    /// Full edge materialization.
    fn decode_edge_doc(&self, doc: &[u8]) -> (u64, u64, u32, Vec<(u32, Value)>) {
        let from = u64::from_le_bytes(doc[0..8].try_into().expect("_from"));
        let to = u64::from_le_bytes(doc[8..16].try_into().expect("_to"));
        let mut pos = EDGE_HEADER;
        let label = read_varint(doc, &mut pos).expect("label") as u32;
        let props = decode_props(doc, &mut pos).expect("props");
        (from, to, label, props)
    }

    /// Header-only endpoint read (the hash-index-accelerated fast path).
    fn edge_endpoints_raw(doc: &[u8]) -> (u64, u64) {
        (
            u64::from_le_bytes(doc[0..8].try_into().expect("_from")),
            u64::from_le_bytes(doc[8..16].try_into().expect("_to")),
        )
    }

    fn edge_label_raw(doc: &[u8]) -> u32 {
        let mut pos = EDGE_HEADER;
        read_varint(doc, &mut pos).expect("label") as u32
    }

    // ---- overlay-aware document access -------------------------------------

    fn get_vdoc(&self, key: u64) -> Option<&Bytes> {
        match self.v_overlay.get(&key) {
            Some(Some(doc)) => Some(doc),
            Some(None) => None,
            None => self.vdocs.get(&key),
        }
    }

    fn get_edoc(&self, key: u64) -> Option<&Bytes> {
        match self.e_overlay.get(&key) {
            Some(Some(doc)) => Some(doc),
            Some(None) => None,
            None => self.edocs.get(&key),
        }
    }

    fn put_vdoc(&mut self, key: u64, doc: Bytes) {
        self.v_overlay.insert(key, Some(doc));
        self.bump_overlay();
    }

    fn put_edoc(&mut self, key: u64, doc: Bytes) {
        self.e_overlay.insert(key, Some(doc));
        self.bump_overlay();
    }

    fn del_vdoc(&mut self, key: u64) {
        self.v_overlay.insert(key, None);
        self.bump_overlay();
    }

    fn del_edoc(&mut self, key: u64) {
        self.e_overlay.insert(key, None);
        self.bump_overlay();
    }

    fn bump_overlay(&mut self) {
        self.overlay_ops += 1;
        if self.overlay_ops >= JOURNAL_FLUSH_THRESHOLD {
            self.apply_overlay();
        }
    }

    fn apply_overlay(&mut self) {
        for (k, doc) in self.v_overlay.drain() {
            match doc {
                Some(d) => {
                    self.vdocs.insert(k, d);
                }
                None => {
                    self.vdocs.remove(&k);
                }
            }
        }
        for (k, doc) in self.e_overlay.drain() {
            match doc {
                Some(d) => {
                    self.edocs.insert(k, d);
                }
                None => {
                    self.edocs.remove(&k);
                }
            }
        }
        self.overlay_ops = 0;
    }

    /// Iterate all live vertex documents (primary + overlay).
    fn iter_vdocs<'a>(&'a self) -> impl Iterator<Item = (u64, &'a Bytes)> + 'a {
        let primary = self
            .vdocs
            .iter()
            .filter(|(k, _)| !self.v_overlay.contains_key(k))
            .map(|(k, d)| (*k, d));
        let overlay = self
            .v_overlay
            .iter()
            .filter_map(|(k, d)| d.as_ref().map(|d| (*k, d)));
        primary.chain(overlay)
    }

    fn iter_edocs<'a>(&'a self) -> impl Iterator<Item = (u64, &'a Bytes)> + 'a {
        let primary = self
            .edocs
            .iter()
            .filter(|(k, _)| !self.e_overlay.contains_key(k))
            .map(|(k, d)| (*k, d));
        let overlay = self
            .e_overlay
            .iter()
            .filter_map(|(k, d)| d.as_ref().map(|d| (*k, d)));
        primary.chain(overlay)
    }

    fn resolve_props(&self, interned: Vec<(u32, Value)>) -> Props {
        interned
            .into_iter()
            .map(|(k, v)| (self.keys.resolve(k).expect("known key").to_string(), v))
            .collect()
    }
}

impl GraphSnapshot for DocumentGraph {
    fn name(&self) -> String {
        "document".into()
    }

    fn features(&self) -> EngineFeatures {
        EngineFeatures {
            name: self.name(),
            system_type: "Hybrid (Document)".into(),
            storage: "Serialized binary documents".into(),
            edge_traversal: "Hash index".into(),
            optimized_adapter: false,
            async_writes: true,
            attribute_indexes: true,
            max_identifier_len: None,
        }
    }

    gm_model::engine_resolve!();

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        // The Gremlin adapter materializes every object while counting.
        let mut n = 0u64;
        for (_, doc) in self.iter_vdocs() {
            ctx.tick()?;
            std::hint::black_box(self.decode_vertex_doc(doc));
            n += 1;
        }
        Ok(n)
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut n = 0u64;
        for (_, doc) in self.iter_edocs() {
            ctx.tick()?;
            std::hint::black_box(self.decode_edge_doc(doc));
            n += 1;
        }
        Ok(n)
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let mut seen = vec![false; self.elabels.len()];
        for (_, doc) in self.iter_edocs() {
            ctx.tick()?;
            let (_, _, label, props) = self.decode_edge_doc(doc);
            std::hint::black_box(props);
            seen[label as usize] = true;
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
        let Some(key) = self.keys.get(name) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (k, doc) in self.iter_vdocs() {
            ctx.tick()?;
            let (_, props) = self.decode_vertex_doc(doc);
            if props.iter().any(|(pk, pv)| *pk == key && pv == value) {
                out.push(Vid(k));
            }
        }
        out.sort_unstable();
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
        let mut out = Vec::new();
        for (k, doc) in self.iter_edocs() {
            ctx.tick()?;
            let (_, _, _, props) = self.decode_edge_doc(doc);
            if props.iter().any(|(pk, pv)| *pk == key && pv == value) {
                out.push(Eid(k));
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        let Some(want) = self.elabels.get(label) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (k, doc) in self.iter_edocs() {
            ctx.tick()?;
            let (_, _, l, props) = self.decode_edge_doc(doc);
            std::hint::black_box(props);
            if l == want {
                out.push(Eid(k));
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        match self.get_vdoc(v.0) {
            None => Ok(None),
            Some(doc) => {
                let (label, props) = self.decode_vertex_doc(doc);
                Ok(Some(VertexData {
                    id: v,
                    label: self
                        .vlabels
                        .resolve(label)
                        .unwrap_or("<unknown>")
                        .to_string(),
                    props: self.resolve_props(props),
                }))
            }
        }
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        match self.get_edoc(e.0) {
            None => Ok(None),
            Some(doc) => {
                let (from, to, label, props) = self.decode_edge_doc(doc);
                Ok(Some(EdgeData {
                    id: e,
                    src: Vid(from),
                    dst: Vid(to),
                    label: self
                        .elabels
                        .resolve(label)
                        .unwrap_or("<unknown>")
                        .to_string(),
                    props: self.resolve_props(props),
                }))
            }
        }
    }

    fn for_each_incident(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
        f: &mut dyn FnMut(EdgeRef) -> GdbResult<()>,
    ) -> GdbResult<()> {
        if self.get_vdoc(v.0).is_none() {
            return Err(GdbError::VertexNotFound(v.0));
        }
        let want = match label {
            Some(l) => match self.elabels.get(l) {
                Some(id) => Some(id),
                None => return Ok(()),
            },
            None => None,
        };
        let mut visit = |eid: u64, outgoing: bool| -> GdbResult<()> {
            ctx.tick()?;
            let Some(doc) = self.get_edoc(eid) else {
                return Ok(());
            };
            if let Some(want) = want {
                if Self::edge_label_raw(doc) != want {
                    return Ok(());
                }
            }
            let (from, to) = Self::edge_endpoints_raw(doc);
            f(EdgeRef {
                eid: Eid(eid),
                other: Vid(if outgoing { to } else { from }),
            })
        };
        if matches!(dir, Direction::Out | Direction::Both) {
            for eid in self.out_index.get(v.0) {
                visit(eid, true)?;
            }
        }
        if matches!(dir, Direction::In | Direction::Both) {
            for eid in self.in_index.get(v.0) {
                visit(eid, false)?;
            }
        }
        Ok(())
    }

    // Not the walk: the endpoint hash index counts its entries.
    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        if self.get_vdoc(v.0).is_none() {
            return Err(GdbError::VertexNotFound(v.0));
        }
        ctx.tick()?;
        let n = match dir {
            Direction::Out => self.out_index.count(v.0),
            Direction::In => self.in_index.count(v.0),
            Direction::Both => self.out_index.count(v.0) + self.in_index.count(v.0),
        };
        Ok(n as u64)
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let mut seen: Vec<u32> = Vec::new();
        self.for_each_incident(v, dir, None, ctx, &mut |r| {
            let doc = self.get_edoc(r.eid.0).expect("edge exists");
            let l = Self::edge_label_raw(doc);
            if !seen.contains(&l) {
                seen.push(l);
            }
            Ok(())
        })?;
        Ok(seen
            .into_iter()
            .filter_map(|l| self.elabels.resolve(l).map(String::from))
            .collect())
    }

    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        Ok(Box::new(self.iter_vdocs().map(move |(k, doc)| {
            ctx.tick()?;
            // Scans materialize documents (the hybrid's handicap).
            std::hint::black_box(self.decode_vertex_doc(doc));
            Ok(Vid(k))
        })))
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        Ok(Box::new(self.iter_edocs().map(move |(k, doc)| {
            ctx.tick()?;
            std::hint::black_box(self.decode_edge_doc(doc));
            Ok(Eid(k))
        })))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let doc = self.get_vdoc(v.0).ok_or(GdbError::VertexNotFound(v.0))?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let (_, props) = self.decode_vertex_doc(doc);
        Ok(props.into_iter().find(|(k, _)| *k == key).map(|(_, v)| v))
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let doc = self.get_edoc(e.0).ok_or(GdbError::EdgeNotFound(e.0))?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let (_, _, _, props) = self.decode_edge_doc(doc);
        Ok(props.into_iter().find(|(k, _)| *k == key).map(|(_, v)| v))
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        Ok(self.get_edoc(e.0).map(|doc| {
            let (from, to) = Self::edge_endpoints_raw(doc);
            (Vid(from), Vid(to))
        }))
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        Ok(self.get_edoc(e.0).and_then(|doc| {
            self.elabels
                .resolve(Self::edge_label_raw(doc))
                .map(String::from)
        }))
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        Ok(self.get_vdoc(v.0).and_then(|doc| {
            let (label, _) = self.decode_vertex_doc(doc);
            self.vlabels.resolve(label).map(String::from)
        }))
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        self.keys
            .get(prop)
            .map(|k| self.declared_indexes.contains(&k))
            .unwrap_or(false)
    }

    fn space(&self) -> SpaceReport {
        let mut r = SpaceReport::default();
        r.add(
            "vertex documents",
            self.vdocs
                .values()
                .map(|d| d.len() as u64 + 24)
                .sum::<u64>(),
        );
        r.add(
            "edge documents",
            self.edocs
                .values()
                .map(|d| d.len() as u64 + 24)
                .sum::<u64>(),
        );
        r.add(
            "endpoint hash indexes",
            self.out_index.bytes() + self.in_index.bytes(),
        );
        r.add(
            "write journal",
            self.v_overlay
                .values()
                .chain(self.e_overlay.values())
                .map(|d| d.as_ref().map_or(16, |d| d.len() as u64 + 24))
                .sum::<u64>(),
        );
        r.add(
            "dictionaries",
            self.vlabels.bytes() + self.elabels.bytes() + self.keys.bytes(),
        );
        r
    }
}

/// The write bodies behind [`GraphDb::apply`] (`gm_model::engine_apply!`).
impl DocumentGraph {
    fn load_dataset(&mut self, data: &Dataset, _opts: &LoadOptions) -> GdbResult<LoadedIds> {
        // Native-script load path (the paper had to bypass Gremlin): write
        // documents straight into the primary store.
        let mut vmap = Vec::with_capacity(data.vertices.len());
        let mut emap = Vec::with_capacity(data.edges.len());
        for v in &data.vertices {
            let key = self.alloc_key();
            let label = self.vlabels.intern(&v.label);
            let doc = self.encode_vertex_doc(label, &v.props);
            self.vdocs.insert(key, doc);
            vmap.push(key);
        }
        for e in &data.edges {
            let key = self.alloc_key();
            let label = self.elabels.intern(&e.label);
            let from = vmap[e.src as usize];
            let to = vmap[e.dst as usize];
            let doc = self.encode_edge_doc(from, to, label, &e.props);
            self.edocs.insert(key, doc);
            self.out_index.insert(from, key);
            self.in_index.insert(to, key);
            emap.push(key);
        }
        Ok((vmap, emap))
    }

    fn insert_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        let key = self.alloc_key();
        let label = self.vlabels.intern(label);
        let doc = self.encode_vertex_doc(label, props);
        self.put_vdoc(key, doc);
        Ok(Vid(key))
    }

    fn insert_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        if self.get_vdoc(src.0).is_none() {
            return Err(GdbError::VertexNotFound(src.0));
        }
        if self.get_vdoc(dst.0).is_none() {
            return Err(GdbError::VertexNotFound(dst.0));
        }
        let key = self.alloc_key();
        let label = self.elabels.intern(label);
        let doc = self.encode_edge_doc(src.0, dst.0, label, props);
        self.put_edoc(key, doc);
        // The endpoint hash index is maintained with the write (ArangoDB
        // builds these automatically).
        self.out_index.insert(src.0, key);
        self.in_index.insert(dst.0, key);
        Ok(Eid(key))
    }

    fn put_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        let doc = self
            .get_vdoc(v.0)
            .ok_or(GdbError::VertexNotFound(v.0))?
            .clone();
        let (label, mut props) = self.decode_vertex_doc(&doc);
        let key = self.keys.intern(name);
        if let Some(slot) = props.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            props.push((key, value));
        }
        let named = self.resolve_props(props);
        let doc = self.encode_vertex_doc(label, &named);
        self.put_vdoc(v.0, doc);
        Ok(())
    }

    fn put_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        let doc = self
            .get_edoc(e.0)
            .ok_or(GdbError::EdgeNotFound(e.0))?
            .clone();
        let (from, to, label, mut props) = self.decode_edge_doc(&doc);
        let key = self.keys.intern(name);
        if let Some(slot) = props.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            props.push((key, value));
        }
        let named = self.resolve_props(props);
        let doc = self.encode_edge_doc(from, to, label, &named);
        self.put_edoc(e.0, doc);
        Ok(())
    }

    fn delete_vertex(&mut self, v: Vid) -> GdbResult<Vec<u64>> {
        if self.get_vdoc(v.0).is_none() {
            return Err(GdbError::VertexNotFound(v.0));
        }
        let mut incident = self.out_index.get(v.0);
        incident.extend(self.in_index.get(v.0));
        incident.sort_unstable();
        incident.dedup();
        for &e in &incident {
            // Edge may already be gone if it was a self-loop handled earlier.
            if self.get_edoc(e).is_some() {
                self.delete_edge(Eid(e))?;
            }
        }
        self.del_vdoc(v.0);
        Ok(incident)
    }

    fn delete_edge(&mut self, e: Eid) -> GdbResult<()> {
        let doc = self.get_edoc(e.0).ok_or(GdbError::EdgeNotFound(e.0))?;
        let (from, to) = Self::edge_endpoints_raw(doc);
        self.out_index.remove(from, e.0);
        self.in_index.remove(to, e.0);
        self.del_edoc(e.0);
        Ok(())
    }

    fn delete_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let doc = self
            .get_vdoc(v.0)
            .ok_or(GdbError::VertexNotFound(v.0))?
            .clone();
        let (label, mut props) = self.decode_vertex_doc(&doc);
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let Some(p) = props.iter().position(|(k, _)| *k == key) else {
            return Ok(None);
        };
        let old = props.remove(p).1;
        let named = self.resolve_props(props);
        let doc = self.encode_vertex_doc(label, &named);
        self.put_vdoc(v.0, doc);
        Ok(Some(old))
    }

    fn delete_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let doc = self
            .get_edoc(e.0)
            .ok_or(GdbError::EdgeNotFound(e.0))?
            .clone();
        let (from, to, label, mut props) = self.decode_edge_doc(&doc);
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let Some(p) = props.iter().position(|(k, _)| *k == key) else {
            return Ok(None);
        };
        let old = props.remove(p).1;
        let named = self.resolve_props(props);
        let doc = self.encode_edge_doc(from, to, label, &named);
        self.put_edoc(e.0, doc);
        Ok(Some(old))
    }

    fn build_vertex_index(&mut self, prop: &str) -> GdbResult<()> {
        // Accepted, recorded, never consulted by the Gremlin scan path
        // (§6.4: "no difference in running times").
        let key = self.keys.intern(prop);
        if !self.declared_indexes.contains(&key) {
            self.declared_indexes.push(key);
        }
        Ok(())
    }
}

impl GraphDb for DocumentGraph {
    gm_model::engine_apply!(
        sync = |engine| {
            // The asynchronous journal lands in the primary store.
            engine.apply_overlay();
            Ok(())
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_model::testkit;

    #[test]
    fn conformance() {
        testkit::conformance_suite(&mut || Box::new(DocumentGraph::new()));
    }

    #[test]
    fn writes_land_in_overlay_first() {
        let mut g = DocumentGraph::new();
        let v = g.add_vertex("n", &vec![]).unwrap();
        assert!(g.v_overlay.contains_key(&v.0), "write acknowledged in RAM");
        assert!(!g.vdocs.contains_key(&v.0), "primary store not yet updated");
        g.sync().unwrap();
        assert!(g.vdocs.contains_key(&v.0));
        assert!(g.v_overlay.is_empty());
    }

    #[test]
    fn overlay_reads_are_read_your_writes() {
        let mut g = DocumentGraph::new();
        let a = g
            .add_vertex("n", &vec![("x".into(), Value::Int(1))])
            .unwrap();
        // Visible before any sync.
        assert_eq!(g.vertex_property(a, "x").unwrap(), Some(Value::Int(1)));
        let b = g.add_vertex("n", &vec![]).unwrap();
        let e = g.add_edge(a, b, "l", &vec![]).unwrap();
        let ctx = QueryCtx::unbounded();
        assert_eq!(g.neighbors(a, Direction::Out, None, &ctx).unwrap(), vec![b]);
        g.remove_edge(e).unwrap();
        assert!(g
            .neighbors(a, Direction::Out, None, &ctx)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn overlay_auto_flushes_at_threshold() {
        let mut g = DocumentGraph::new();
        for _ in 0..(JOURNAL_FLUSH_THRESHOLD + 10) {
            g.add_vertex("n", &vec![]).unwrap();
        }
        assert!(
            g.v_overlay.len() < JOURNAL_FLUSH_THRESHOLD,
            "background flush kicked in"
        );
        let ctx = QueryCtx::unbounded();
        assert_eq!(
            g.vertex_count(&ctx).unwrap(),
            (JOURNAL_FLUSH_THRESHOLD + 10) as u64
        );
    }

    #[test]
    fn deletion_via_overlay_hides_primary_doc() {
        let mut g = DocumentGraph::new();
        g.bulk_load(&testkit::tiny_dataset(), &LoadOptions::default())
            .unwrap();
        let v = g.resolve_vertex(3).unwrap(); // isolated robot
        g.remove_vertex(v).unwrap();
        assert!(g.vdocs.contains_key(&v.0), "primary still has the doc");
        assert_eq!(g.vertex(v).unwrap(), None, "overlay tombstone wins");
        let ctx = QueryCtx::unbounded();
        assert_eq!(g.vertex_count(&ctx).unwrap(), 4);
    }

    #[test]
    fn traversal_uses_header_not_full_doc() {
        // Endpoint resolution reads the fixed header; this is a semantic
        // test that parallel edges and self-loops resolve correctly.
        let mut g = DocumentGraph::new();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        g.add_edge(a, b, "x", &vec![("p".into(), Value::Str("ignored".into()))])
            .unwrap();
        g.add_edge(a, a, "x", &vec![]).unwrap();
        let ctx = QueryCtx::unbounded();
        let mut got: Vec<u64> = g
            .neighbors(a, Direction::Both, None, &ctx)
            .unwrap()
            .iter()
            .map(|v| v.0)
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![a.0, a.0, b.0]);
    }

    #[test]
    fn index_declared_but_scan_unchanged() {
        let mut g = DocumentGraph::new();
        g.bulk_load(&testkit::tiny_dataset(), &LoadOptions::default())
            .unwrap();
        let ctx = QueryCtx::unbounded();
        let before_work = {
            let c = QueryCtx::unbounded();
            g.vertices_with_property("age", &Value::Int(30), &c)
                .unwrap();
            c.work()
        };
        g.create_vertex_index("age").unwrap();
        let after = g
            .vertices_with_property("age", &Value::Int(30), &ctx)
            .unwrap();
        assert_eq!(after.len(), 2);
        assert_eq!(ctx.work(), before_work, "same scan work despite index");
    }
}
