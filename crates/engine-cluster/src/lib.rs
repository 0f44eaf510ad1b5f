//! # engine-cluster — the OrientDB-class native engine
//!
//! Reproduces the physical architecture the paper describes for OrientDB
//! (§3.2):
//!
//! * records live in per-type **clusters**; a logical record id ("rid",
//!   cluster + position) points into an **append-only store with a
//!   logical→physical position table**, so objects can move without
//!   changing identity ([`gm_storage::PageStore`]);
//! * each vertex record **embeds its adjacency** (the RIDBAG): the lists of
//!   incident edge rids, so neighbor access is a record read plus one edge
//!   record hop per neighbor (Table 1's "2-hop pointer"); the hop reads the
//!   edge record's `src`/`dst` head and never decodes its properties;
//! * one cluster per **edge label** — creating a label allocates cluster
//!   metadata, which is why the paper finds OrientDB's load time and space
//!   "highly sensitive to the edge label cardinality" (§6.2) on Frb-S with
//!   its ~1.8K labels;
//! * string attribute values are **de-duplicated through a dictionary**,
//!   reproducing OrientDB's best-in-class space on the text-heavy LDBC
//!   dataset (Figure 1); a `has()` filter without an index reads each
//!   record in place, skipping the adjacency and comparing a wanted string
//!   by its dictionary id (looked up once per query), so a scan allocates
//!   per match, not per record;
//! * attribute indexes are SB-Tree-like ordered indexes
//!   ([`gm_storage::BPlusTree`]).

use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, SpaceReport,
    VertexData,
};
use gm_model::fxmap::FxHashMap;
use gm_model::interner::Interner;
use gm_model::value::{Props, Value};
use gm_model::{Dataset, Eid, GdbError, GdbResult, LoadedIds, QueryCtx, Resolution, Vid};
use gm_storage::bptree::BPlusTree;
use gm_storage::codec::{read_varint, unzigzag, write_varint, zigzag};
use gm_storage::pagestore::PageStore;

/// Bits reserved for the in-cluster position of a rid.
const POS_BITS: u64 = 40;
const POS_MASK: u64 = (1 << POS_BITS) - 1;

/// Fixed metadata footprint charged per cluster (OrientDB materializes
/// several files per cluster: .pcl, .cpm, …). This drives the Frb-S space
/// behaviour the paper reports.
const CLUSTER_METADATA_BYTES: u64 = 4096;

fn rid(cluster: u32, pos: u64) -> u64 {
    ((cluster as u64) << POS_BITS) | pos
}

fn rid_cluster(r: u64) -> u32 {
    (r >> POS_BITS) as u32
}

fn rid_pos(r: u64) -> u64 {
    r & POS_MASK
}

/// The OrientDB-class engine. See crate docs for the layout.
#[derive(Clone)]
pub struct ClusterGraph {
    vertex_clusters: Vec<PageStore>,
    edge_clusters: Vec<PageStore>,
    vlabels: Interner,
    elabels: Interner,
    keys: Interner,
    /// String-value dictionary (de-duplication).
    strings: Interner,
    /// Where the bulk load placed each canonical element.
    resolution: Resolution,
    /// SB-tree-like attribute indexes: key id -> value -> rids.
    indexes: FxHashMap<u32, BPlusTree<Value, Vec<u64>>>,
}

impl Default for ClusterGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterGraph {
    /// A fresh, empty engine.
    pub fn new() -> Self {
        ClusterGraph {
            vertex_clusters: Vec::new(),
            edge_clusters: Vec::new(),
            vlabels: Interner::new(),
            elabels: Interner::new(),
            keys: Interner::new(),
            strings: Interner::new(),
            resolution: Resolution::default(),
            indexes: FxHashMap::default(),
        }
    }

    fn vertex_cluster_for(&mut self, label: &str) -> u32 {
        let id = self.vlabels.intern(label);
        while self.vertex_clusters.len() <= id as usize {
            self.vertex_clusters.push(PageStore::new());
        }
        id
    }

    fn edge_cluster_for(&mut self, label: &str) -> u32 {
        let id = self.elabels.intern(label);
        while self.edge_clusters.len() <= id as usize {
            self.edge_clusters.push(PageStore::new());
        }
        id
    }

    // ---- record encoding -------------------------------------------------
    //
    // Vertex record: [n_out varint][eids...][n_in varint][eids...][props]
    // Edge record:   [src varint][dst varint][props]
    // Props:         [n varint] n × ([key varint][tag u8][payload])
    //   tag 1 bool, 2 int zigzag-varint, 3 float 8B, 5 dict-string varint.

    fn encode_props(&mut self, out: &mut Vec<u8>, props: &Props) -> Vec<(u32, Value)> {
        write_varint(out, props.len() as u64);
        let mut interned = Vec::with_capacity(props.len());
        for (name, value) in props {
            let key = self.keys.intern(name);
            interned.push((key, value.clone()));
            write_varint(out, key as u64);
            match value {
                Value::Null => out.push(0),
                Value::Bool(b) => {
                    out.push(1);
                    out.push(*b as u8);
                }
                Value::Int(i) => {
                    out.push(2);
                    write_varint(out, zigzag(*i));
                }
                Value::Float(f) => {
                    out.push(3);
                    out.extend_from_slice(&f.to_le_bytes());
                }
                Value::Str(s) => {
                    out.push(5);
                    let sid = self.strings.intern(s);
                    write_varint(out, sid as u64);
                }
            }
        }
        interned
    }

    fn decode_props(&self, buf: &[u8], pos: &mut usize) -> Vec<(u32, Value)> {
        let n = read_varint(buf, pos).expect("prop count") as usize;
        let mut props = Vec::with_capacity(n);
        for _ in 0..n {
            let (key, stored) = read_prop(buf, pos);
            let value = match stored {
                Stored::Scalar(value) => value,
                Stored::Str(sid) => Value::Str(
                    self.strings
                        .resolve(sid)
                        .expect("dictionary entry")
                        .to_string(),
                ),
            };
            props.push((key, value));
        }
        props
    }

    /// `value` as it is stored, for comparing against records in place;
    /// `None` for a string the dictionary lacks, which no record can hold.
    fn stored_form(&self, value: &Value) -> Option<Stored> {
        match value {
            Value::Str(s) => self.strings.get(s).map(Stored::Str),
            scalar => Some(Stored::Scalar(scalar.clone())),
        }
    }

    /// Whether the property list encoded at `pos` holds `key = want`, read
    /// in place without resolving a string.
    fn props_match(rec: &[u8], mut pos: usize, key: u32, want: &Stored) -> bool {
        let n = read_varint(rec, &mut pos).expect("prop count");
        (0..n).any(|_| {
            let (k, stored) = read_prop(rec, &mut pos);
            k == key && stored == *want
        })
    }

    fn encode_vertex(&mut self, out_edges: &[u64], in_edges: &[u64], props: &Props) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + 9 * (out_edges.len() + in_edges.len()));
        write_varint(&mut buf, out_edges.len() as u64);
        for &e in out_edges {
            write_varint(&mut buf, e);
        }
        write_varint(&mut buf, in_edges.len() as u64);
        for &e in in_edges {
            write_varint(&mut buf, e);
        }
        self.encode_props(&mut buf, props);
        buf
    }

    fn encode_edge(&mut self, src: u64, dst: u64, props: &Props) -> Vec<u8> {
        let mut buf = Vec::with_capacity(20);
        write_varint(&mut buf, src);
        write_varint(&mut buf, dst);
        self.encode_props(&mut buf, props);
        buf
    }

    fn vertex_record(&self, v: u64) -> GdbResult<&[u8]> {
        let cluster = rid_cluster(v) as usize;
        self.vertex_clusters
            .get(cluster)
            .and_then(|c| c.get(rid_pos(v)))
            .ok_or(GdbError::VertexNotFound(v))
    }

    fn edge_record(&self, e: u64) -> GdbResult<&[u8]> {
        let cluster = rid_cluster(e) as usize;
        self.edge_clusters
            .get(cluster)
            .and_then(|c| c.get(rid_pos(e)))
            .ok_or(GdbError::EdgeNotFound(e))
    }

    /// Decode only the adjacency lists of a vertex record.
    fn decode_adjacency(buf: &[u8]) -> (Vec<u64>, Vec<u64>, usize) {
        let mut pos = 0usize;
        let n_out = read_varint(buf, &mut pos).expect("n_out") as usize;
        let mut out = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            out.push(read_varint(buf, &mut pos).expect("out eid"));
        }
        let n_in = read_varint(buf, &mut pos).expect("n_in") as usize;
        let mut inn = Vec::with_capacity(n_in);
        for _ in 0..n_in {
            inn.push(read_varint(buf, &mut pos).expect("in eid"));
        }
        (out, inn, pos)
    }

    /// Skip the adjacency lists of a vertex record: where its properties
    /// start.
    fn skip_adjacency(buf: &[u8]) -> usize {
        let mut pos = 0usize;
        for _ in 0..2 {
            let n = read_varint(buf, &mut pos).expect("adjacency length");
            for _ in 0..n {
                read_varint(buf, &mut pos).expect("adjacency eid");
            }
        }
        pos
    }

    /// `(src, dst, where the properties start)` of an edge record.
    fn edge_head(rec: &[u8]) -> GdbResult<(u64, u64, usize)> {
        let mut pos = 0usize;
        let src = read_varint(rec, &mut pos).ok_or_else(|| corrupt("edge src"))?;
        let dst = read_varint(rec, &mut pos).ok_or_else(|| corrupt("edge dst"))?;
        Ok((src, dst, pos))
    }

    /// Decode just the (out_degree, in_degree) header cheaply.
    fn decode_degrees(buf: &[u8]) -> (u64, u64) {
        let mut pos = 0usize;
        let n_out = read_varint(buf, &mut pos).expect("n_out");
        for _ in 0..n_out {
            read_varint(buf, &mut pos).expect("skip");
        }
        let n_in = read_varint(buf, &mut pos).expect("n_in");
        (n_out, n_in)
    }

    fn vertex_props(&self, v: u64) -> GdbResult<Vec<(u32, Value)>> {
        let rec = self.vertex_record(v)?;
        let mut pos = Self::skip_adjacency(rec);
        Ok(self.decode_props(rec, &mut pos))
    }

    #[allow(clippy::type_complexity)]
    fn edge_parts(&self, e: u64) -> GdbResult<(u64, u64, Vec<(u32, Value)>)> {
        let rec = self.edge_record(e)?;
        let (src, dst, mut pos) = Self::edge_head(rec)?;
        let props = self.decode_props(rec, &mut pos);
        Ok((src, dst, props))
    }

    /// Read-modify-write a vertex record through a closure.
    #[allow(clippy::type_complexity)]
    fn rewrite_vertex(
        &mut self,
        v: u64,
        f: impl FnOnce(&mut Vec<u64>, &mut Vec<u64>, &mut Vec<(u32, Value)>),
    ) -> GdbResult<()> {
        let rec = self.vertex_record(v)?;
        let (mut out, mut inn, mut pos) = Self::decode_adjacency(rec);
        let mut props = self.decode_props(rec, &mut pos);
        f(&mut out, &mut inn, &mut props);
        // Re-encode with names resolved back (dictionary stays stable).
        let named: Props = props
            .iter()
            .map(|(k, val)| {
                (
                    self.keys.resolve(*k).expect("known key").to_string(),
                    val.clone(),
                )
            })
            .collect();
        let buf = self.encode_vertex(&out, &inn, &named);
        let cluster = rid_cluster(v) as usize;
        if !self.vertex_clusters[cluster].put(rid_pos(v), &buf) {
            return Err(GdbError::VertexNotFound(v));
        }
        Ok(())
    }

    fn index_insert(&mut self, key: u32, value: &Value, v: u64) {
        if let Some(idx) = self.indexes.get_mut(&key) {
            match idx.get(value) {
                Some(list) => {
                    let mut list = list.clone();
                    list.push(v);
                    idx.insert(value.clone(), list);
                }
                None => {
                    idx.insert(value.clone(), vec![v]);
                }
            }
        }
    }

    fn index_remove(&mut self, key: u32, value: &Value, v: u64) {
        if let Some(idx) = self.indexes.get_mut(&key) {
            if let Some(list) = idx.get(value) {
                let mut list = list.clone();
                if let Some(p) = list.iter().position(|&x| x == v) {
                    list.swap_remove(p);
                }
                if list.is_empty() {
                    idx.remove(value);
                } else {
                    idx.insert(value.clone(), list);
                }
            }
        }
    }
}

fn corrupt(what: &str) -> GdbError {
    GdbError::Corrupt(what.to_string())
}

/// One property value as a record holds it: a scalar decodes without
/// allocating and compares through `Value`'s own equality; a string stays
/// its dictionary id.
#[derive(PartialEq)]
enum Stored {
    Scalar(Value),
    Str(u32),
}

/// Decode the `(key, value)` property at `pos`, advancing past it.
fn read_prop(buf: &[u8], pos: &mut usize) -> (u32, Stored) {
    let key = read_varint(buf, pos).expect("prop key") as u32;
    let tag = buf[*pos];
    *pos += 1;
    let stored = match tag {
        0 => Stored::Scalar(Value::Null),
        1 => {
            let b = buf[*pos] != 0;
            *pos += 1;
            Stored::Scalar(Value::Bool(b))
        }
        2 => Stored::Scalar(Value::Int(unzigzag(read_varint(buf, pos).expect("int")))),
        3 => {
            let f = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("f64"));
            *pos += 8;
            Stored::Scalar(Value::Float(f))
        }
        5 => Stored::Str(read_varint(buf, pos).expect("dict id") as u32),
        t => unreachable!("bad prop tag {t}"),
    };
    (key, stored)
}

impl GraphSnapshot for ClusterGraph {
    fn name(&self) -> String {
        "cluster".into()
    }

    fn features(&self) -> EngineFeatures {
        EngineFeatures {
            name: self.name(),
            system_type: "Native".into(),
            storage: "Linked records in per-label clusters (append-only, indirection table)".into(),
            edge_traversal: "2-hop pointer".into(),
            optimized_adapter: false,
            async_writes: false,
            attribute_indexes: true,
            max_identifier_len: None,
        }
    }

    gm_model::engine_resolve!();

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut n = 0u64;
        for c in &self.vertex_clusters {
            for _ in c.iter_ids() {
                ctx.tick()?;
                n += 1;
            }
        }
        Ok(n)
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut n = 0u64;
        for c in &self.edge_clusters {
            for _ in c.iter_ids() {
                ctx.tick()?;
                n += 1;
            }
        }
        Ok(n)
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        // Labels are clusters: still iterate edges (Gremlin semantics) but
        // the label is implied by the cluster — no record decode needed.
        let mut out = Vec::new();
        for (cluster, store) in self.edge_clusters.iter().enumerate() {
            let mut any = false;
            for _ in store.iter_ids() {
                ctx.tick()?;
                any = true;
            }
            if any {
                out.push(
                    self.elabels
                        .resolve(cluster as u32)
                        .expect("cluster label")
                        .to_string(),
                );
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
        let Some(key) = self.keys.get(name) else {
            return Ok(Vec::new());
        };
        if let Some(idx) = self.indexes.get(&key) {
            let mut hits: Vec<Vid> = idx
                .get(value)
                .map(|l| l.iter().map(|&x| Vid(x)).collect())
                .unwrap_or_default();
            hits.sort_unstable();
            return Ok(hits);
        }
        let Some(want) = self.stored_form(value) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (cluster, store) in self.vertex_clusters.iter().enumerate() {
            for pos in store.iter_ids() {
                ctx.tick()?;
                let v = rid(cluster as u32, pos);
                let rec = self.vertex_record(v)?;
                if Self::props_match(rec, Self::skip_adjacency(rec), key, &want) {
                    out.push(Vid(v));
                }
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
        let Some(want) = self.stored_form(value) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (cluster, store) in self.edge_clusters.iter().enumerate() {
            for pos in store.iter_ids() {
                ctx.tick()?;
                let e = rid(cluster as u32, pos);
                let rec = self.edge_record(e)?;
                let (_, _, props) = Self::edge_head(rec)?;
                if Self::props_match(rec, props, key, &want) {
                    out.push(Eid(e));
                }
            }
        }
        Ok(out)
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        // A dedicated cluster holds exactly these edges.
        let Some(cluster) = self.elabels.get(label) else {
            return Ok(Vec::new());
        };
        let store = &self.edge_clusters[cluster as usize];
        let mut out = Vec::with_capacity(store.len() as usize);
        for pos in store.iter_ids() {
            ctx.tick()?;
            out.push(Eid(rid(cluster, pos)));
        }
        Ok(out)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        match self.vertex_record(v.0) {
            Err(_) => Ok(None),
            Ok(rec) => {
                let mut pos = Self::skip_adjacency(rec);
                let props = self.decode_props(rec, &mut pos);
                Ok(Some(VertexData {
                    id: v,
                    label: self
                        .vlabels
                        .resolve(rid_cluster(v.0))
                        .unwrap_or("<unknown>")
                        .to_string(),
                    props: props
                        .into_iter()
                        .map(|(k, val)| (self.keys.resolve(k).expect("known key").to_string(), val))
                        .collect(),
                }))
            }
        }
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        match self.edge_parts(e.0) {
            Err(_) => Ok(None),
            Ok((src, dst, props)) => Ok(Some(EdgeData {
                id: e,
                src: Vid(src),
                dst: Vid(dst),
                label: self
                    .elabels
                    .resolve(rid_cluster(e.0))
                    .unwrap_or("<unknown>")
                    .to_string(),
                props: props
                    .into_iter()
                    .map(|(k, val)| (self.keys.resolve(k).expect("known key").to_string(), val))
                    .collect(),
            })),
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
        let rec = self.vertex_record(v.0)?;
        let (out, inn, _) = Self::decode_adjacency(rec);
        let want_cluster = match label {
            Some(l) => match self.elabels.get(l) {
                Some(c) => Some(c),
                None => return Ok(()),
            },
            None => None,
        };
        let mut visit = |eids: &[u64], outgoing: bool| -> GdbResult<()> {
            for &e in eids {
                ctx.tick()?;
                // Label filter resolves from the rid alone — no record read.
                if let Some(c) = want_cluster {
                    if rid_cluster(e) != c {
                        continue;
                    }
                }
                let (src, dst, _) = Self::edge_head(self.edge_record(e)?)?;
                let other = if outgoing { dst } else { src };
                f(EdgeRef {
                    eid: Eid(e),
                    other: Vid(other),
                })?;
            }
            Ok(())
        };
        if matches!(dir, Direction::Out | Direction::Both) {
            visit(&out, true)?;
        }
        if matches!(dir, Direction::In | Direction::Both) {
            visit(&inn, false)?;
        }
        Ok(())
    }

    // Not the walk: the degree is stored in the vertex record.
    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        ctx.tick()?;
        let rec = self.vertex_record(v.0)?;
        let (n_out, n_in) = Self::decode_degrees(rec);
        Ok(match dir {
            Direction::Out => n_out,
            Direction::In => n_in,
            Direction::Both => n_out + n_in,
        })
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let rec = self.vertex_record(v.0)?;
        let (out, inn, _) = Self::decode_adjacency(rec);
        let mut clusters: Vec<u32> = Vec::new();
        let mut visit = |eids: &[u64]| -> GdbResult<()> {
            for &e in eids {
                ctx.tick()?;
                let c = rid_cluster(e);
                if !clusters.contains(&c) {
                    clusters.push(c);
                }
            }
            Ok(())
        };
        if matches!(dir, Direction::Out | Direction::Both) {
            visit(&out)?;
        }
        if matches!(dir, Direction::In | Direction::Both) {
            visit(&inn)?;
        }
        Ok(clusters
            .into_iter()
            .filter_map(|c| self.elabels.resolve(c).map(String::from))
            .collect())
    }

    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        Ok(Box::new(self.vertex_clusters.iter().enumerate().flat_map(
            move |(cluster, store)| {
                store.iter_ids().map(move |pos| {
                    ctx.tick()?;
                    Ok(Vid(rid(cluster as u32, pos)))
                })
            },
        )))
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        Ok(Box::new(self.edge_clusters.iter().enumerate().flat_map(
            move |(cluster, store)| {
                store.iter_ids().map(move |pos| {
                    ctx.tick()?;
                    Ok(Eid(rid(cluster as u32, pos)))
                })
            },
        )))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let Some(key) = self.keys.get(name) else {
            self.vertex_record(v.0)?;
            return Ok(None);
        };
        Ok(self
            .vertex_props(v.0)?
            .into_iter()
            .find(|(k, _)| *k == key)
            .map(|(_, val)| val))
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let Some(key) = self.keys.get(name) else {
            self.edge_record(e.0)?;
            return Ok(None);
        };
        let (_, _, props) = self.edge_parts(e.0)?;
        Ok(props
            .into_iter()
            .find(|(k, _)| *k == key)
            .map(|(_, val)| val))
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        match self.edge_record(e.0).and_then(Self::edge_head) {
            Err(_) => Ok(None),
            Ok((src, dst, _)) => Ok(Some((Vid(src), Vid(dst)))),
        }
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        if self.edge_record(e.0).is_err() {
            return Ok(None);
        }
        Ok(self.elabels.resolve(rid_cluster(e.0)).map(String::from))
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        if self.vertex_record(v.0).is_err() {
            return Ok(None);
        }
        Ok(self.vlabels.resolve(rid_cluster(v.0)).map(String::from))
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        self.keys
            .get(prop)
            .map(|k| self.indexes.contains_key(&k))
            .unwrap_or(false)
    }

    fn space(&self) -> SpaceReport {
        let mut r = SpaceReport::default();
        r.add(
            "vertex clusters",
            self.vertex_clusters.iter().map(|c| c.bytes()).sum::<u64>(),
        );
        r.add(
            "edge clusters",
            self.edge_clusters.iter().map(|c| c.bytes()).sum::<u64>(),
        );
        r.add(
            "cluster metadata",
            (self.vertex_clusters.len() + self.edge_clusters.len()) as u64 * CLUSTER_METADATA_BYTES,
        );
        r.add("value dictionary", self.strings.bytes());
        r.add(
            "schema/label store",
            self.vlabels.bytes() + self.elabels.bytes() + self.keys.bytes(),
        );
        let idx: u64 = self
            .indexes
            .values()
            .map(|t| t.approx_bytes(|k| k.approx_bytes(), |v| 8 * v.len() as u64 + 24))
            .sum();
        if idx > 0 {
            r.add("sb-tree indexes", idx);
        }
        r
    }
}

/// The write bodies behind [`GraphDb::apply`] (`gm_model::engine_apply!`).
impl ClusterGraph {
    fn load_dataset(&mut self, data: &Dataset, _opts: &LoadOptions) -> GdbResult<LoadedIds> {
        // Pass 1: edges first, collecting adjacency per canonical vertex, so
        // each vertex record is written exactly once (no rewrite storm).
        let mut out_adj: Vec<Vec<u64>> = vec![Vec::new(); data.vertices.len()];
        let mut in_adj: Vec<Vec<u64>> = vec![Vec::new(); data.vertices.len()];
        // Vertices need rids before edges can reference them: allocate
        // positions deterministically (insertion order per label cluster).
        let mut vmap = Vec::with_capacity(data.vertices.len());
        let mut pending_vertex_pos: Vec<(u32, u64)> = Vec::with_capacity(data.vertices.len());
        let mut next_pos_per_cluster: FxHashMap<u32, u64> = FxHashMap::default();
        for v in &data.vertices {
            let cluster = self.vertex_cluster_for(&v.label);
            let pos = next_pos_per_cluster.entry(cluster).or_insert(0);
            pending_vertex_pos.push((cluster, *pos));
            vmap.push(rid(cluster, *pos));
            *pos += 1;
        }
        let mut emap = Vec::with_capacity(data.edges.len());
        for e in &data.edges {
            let cluster = self.edge_cluster_for(&e.label);
            let src = vmap[e.src as usize];
            let dst = vmap[e.dst as usize];
            let buf = self.encode_edge(src, dst, &e.props);
            let pos = self.edge_clusters[cluster as usize].alloc(&buf);
            let eid = rid(cluster, pos);
            emap.push(eid);
            out_adj[e.src as usize].push(eid);
            in_adj[e.dst as usize].push(eid);
        }
        // Pass 2: write vertex records with their full RIDBAGs.
        for (i, v) in data.vertices.iter().enumerate() {
            let (cluster, expected_pos) = pending_vertex_pos[i];
            let buf = self.encode_vertex(&out_adj[i], &in_adj[i], &v.props);
            let pos = self.vertex_clusters[cluster as usize].alloc(&buf);
            debug_assert_eq!(pos, expected_pos, "cluster position drift");
        }
        Ok((vmap, emap))
    }

    fn insert_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        let cluster = self.vertex_cluster_for(label);
        let buf = self.encode_vertex(&[], &[], props);
        let pos = self.vertex_clusters[cluster as usize].alloc(&buf);
        let v = rid(cluster, pos);
        for (name, value) in props {
            let key = self.keys.intern(name);
            self.index_insert(key, value, v);
        }
        Ok(Vid(v))
    }

    fn insert_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        self.vertex_record(src.0)?;
        self.vertex_record(dst.0)?;
        let cluster = self.edge_cluster_for(label);
        let buf = self.encode_edge(src.0, dst.0, props);
        let pos = self.edge_clusters[cluster as usize].alloc(&buf);
        let e = rid(cluster, pos);
        // RIDBAG updates: rewrite both endpoint records (append-only).
        self.rewrite_vertex(src.0, |out, _, _| out.push(e))?;
        if dst != src {
            self.rewrite_vertex(dst.0, |_, inn, _| inn.push(e))?;
        } else {
            self.rewrite_vertex(dst.0, |_, inn, _| inn.push(e))?;
        }
        Ok(Eid(e))
    }

    fn put_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        let key = self.keys.intern(name);
        let mut old: Option<Value> = None;
        let val = value.clone();
        self.rewrite_vertex(v.0, |_, _, props| {
            if let Some(slot) = props.iter_mut().find(|(k, _)| *k == key) {
                old = Some(std::mem::replace(&mut slot.1, val));
            } else {
                props.push((key, val));
            }
        })?;
        if let Some(old) = old {
            self.index_remove(key, &old, v.0);
        }
        self.index_insert(key, &value, v.0);
        Ok(())
    }

    fn put_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        let (src, dst, mut props) = self.edge_parts(e.0)?;
        let key = self.keys.intern(name);
        if let Some(slot) = props.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            props.push((key, value));
        }
        let named: Props = props
            .iter()
            .map(|(k, val)| {
                (
                    self.keys.resolve(*k).expect("known key").to_string(),
                    val.clone(),
                )
            })
            .collect();
        let buf = self.encode_edge(src, dst, &named);
        let cluster = rid_cluster(e.0) as usize;
        if !self.edge_clusters[cluster].put(rid_pos(e.0), &buf) {
            return Err(GdbError::EdgeNotFound(e.0));
        }
        Ok(())
    }

    fn delete_vertex(&mut self, v: Vid) -> GdbResult<Vec<u64>> {
        let rec = self.vertex_record(v.0)?;
        let (out, inn, mut pos) = Self::decode_adjacency(rec);
        let props = self.decode_props(rec, &mut pos);
        let mut incident: Vec<u64> = out;
        incident.extend(inn);
        incident.sort_unstable();
        incident.dedup();
        for &e in &incident {
            self.delete_edge(Eid(e))?;
        }
        for (key, value) in &props {
            self.index_remove(*key, value, v.0);
        }
        let cluster = rid_cluster(v.0) as usize;
        self.vertex_clusters[cluster].free(rid_pos(v.0));
        Ok(incident)
    }

    fn delete_edge(&mut self, e: Eid) -> GdbResult<()> {
        let (src, dst, _) = self.edge_parts(e.0)?;
        let eid = e.0;
        self.rewrite_vertex(src, |out, _, _| out.retain(|&x| x != eid))?;
        self.rewrite_vertex(dst, |_, inn, _| inn.retain(|&x| x != eid))?;
        let cluster = rid_cluster(eid) as usize;
        self.edge_clusters[cluster].free(rid_pos(eid));
        Ok(())
    }

    fn delete_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let Some(key) = self.keys.get(name) else {
            self.vertex_record(v.0)?;
            return Ok(None);
        };
        let mut old = None;
        self.rewrite_vertex(v.0, |_, _, props| {
            if let Some(p) = props.iter().position(|(k, _)| *k == key) {
                old = Some(props.remove(p).1);
            }
        })?;
        if let Some(old) = &old {
            self.index_remove(key, old, v.0);
        }
        Ok(old)
    }

    fn delete_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let (src, dst, mut props) = self.edge_parts(e.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let mut old = None;
        if let Some(p) = props.iter().position(|(k, _)| *k == key) {
            old = Some(props.remove(p).1);
            let named: Props = props
                .iter()
                .map(|(k, val)| {
                    (
                        self.keys.resolve(*k).expect("known key").to_string(),
                        val.clone(),
                    )
                })
                .collect();
            let buf = self.encode_edge(src, dst, &named);
            let cluster = rid_cluster(e.0) as usize;
            self.edge_clusters[cluster].put(rid_pos(e.0), &buf);
        }
        Ok(old)
    }

    fn build_vertex_index(&mut self, prop: &str) -> GdbResult<()> {
        let key = self.keys.intern(prop);
        if self.indexes.contains_key(&key) {
            return Ok(());
        }
        let mut idx: BPlusTree<Value, Vec<u64>> = BPlusTree::new();
        for (cluster, store) in self.vertex_clusters.iter().enumerate() {
            for pos in store.iter_ids() {
                let v = rid(cluster as u32, pos);
                let props = self.vertex_props(v)?;
                if let Some((_, value)) = props.into_iter().find(|(k, _)| *k == key) {
                    match idx.get(&value) {
                        Some(list) => {
                            let mut list = list.clone();
                            list.push(v);
                            idx.insert(value, list);
                        }
                        None => {
                            idx.insert(value, vec![v]);
                        }
                    }
                }
            }
        }
        self.indexes.insert(key, idx);
        Ok(())
    }
}

impl GraphDb for ClusterGraph {
    gm_model::engine_apply!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_model::testkit;

    #[test]
    fn conformance() {
        testkit::conformance_suite(&mut || Box::new(ClusterGraph::new()));
    }

    #[test]
    fn rids_encode_cluster_and_position() {
        let mut g = ClusterGraph::new();
        let a = g.add_vertex("person", &vec![]).unwrap();
        let b = g.add_vertex("city", &vec![]).unwrap();
        let c = g.add_vertex("person", &vec![]).unwrap();
        assert_eq!(
            rid_cluster(a.0),
            rid_cluster(c.0),
            "same label, same cluster"
        );
        assert_ne!(rid_cluster(a.0), rid_cluster(b.0));
        assert_eq!(rid_pos(a.0), 0);
        assert_eq!(rid_pos(c.0), 1);
    }

    #[test]
    fn per_label_edge_clusters_drive_space() {
        // Many distinct edge labels cost cluster metadata (the Frb-S effect).
        let mut few = ClusterGraph::new();
        let mut many = ClusterGraph::new();
        for g in [&mut few, &mut many] {
            for _ in 0..20 {
                g.add_vertex("n", &vec![]).unwrap();
            }
        }
        for i in 0..19u64 {
            few.add_edge(
                Vid(few.vertex_rid(i)),
                Vid(few.vertex_rid(i + 1)),
                "same",
                &vec![],
            )
            .unwrap();
            many.add_edge(
                Vid(many.vertex_rid(i)),
                Vid(many.vertex_rid(i + 1)),
                &format!("label{i}"),
                &vec![],
            )
            .unwrap();
        }
        assert!(many.space().total() > few.space().total());
    }

    #[test]
    fn string_dictionary_dedups() {
        let mut g = ClusterGraph::new();
        let shared = "a-fairly-long-shared-attribute-value".to_string();
        for _ in 0..100 {
            g.add_vertex("n", &vec![("tag".into(), Value::Str(shared.clone()))])
                .unwrap();
        }
        assert_eq!(g.strings.len(), 1, "one dictionary entry for 100 uses");
    }

    #[test]
    fn add_edge_rewrites_grow_garbage() {
        let mut g = ClusterGraph::new();
        let hub = g.add_vertex("n", &vec![]).unwrap();
        let mut garbage_before = 0;
        for i in 0..20 {
            let v = g.add_vertex("n", &vec![]).unwrap();
            g.add_edge(hub, v, "e", &vec![]).unwrap();
            let garbage: u64 = g.vertex_clusters.iter().map(|c| c.garbage_bytes()).sum();
            if i > 0 {
                assert!(garbage > garbage_before, "each edge appends a new version");
            }
            garbage_before = garbage;
        }
    }

    #[test]
    fn degree_reads_header_only() {
        let mut g = ClusterGraph::new();
        let hub = g.add_vertex("n", &vec![]).unwrap();
        for _ in 0..100 {
            let v = g.add_vertex("n", &vec![]).unwrap();
            g.add_edge(hub, v, "e", &vec![]).unwrap();
        }
        let ctx = QueryCtx::unbounded();
        assert_eq!(g.vertex_degree(hub, Direction::Out, &ctx).unwrap(), 100);
        assert_eq!(g.vertex_degree(hub, Direction::In, &ctx).unwrap(), 0);
        // Header decode: one tick, not one per edge.
        assert!(
            ctx.work() < 10,
            "degree must not walk edges ({})",
            ctx.work()
        );
    }

    #[test]
    fn edges_with_label_reads_single_cluster() {
        let mut g = ClusterGraph::new();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        for _ in 0..10 {
            g.add_edge(a, b, "x", &vec![]).unwrap();
            g.add_edge(a, b, "y", &vec![]).unwrap();
        }
        let ctx = QueryCtx::unbounded();
        let hits = g.edges_with_label("x", &ctx).unwrap();
        assert_eq!(hits.len(), 10);
        assert!(ctx.work() <= 12, "only the x cluster is scanned");
    }

    impl ClusterGraph {
        fn vertex_rid(&self, canonical: u64) -> u64 {
            // Test-only helper: vertices created by add_vertex do not
            // resolve; reconstruct the rid from cluster 0 position.
            rid(0, canonical)
        }
    }
}
