//! # engine-columnar — the Titan-class hybrid engine
//!
//! Reproduces the architecture the paper describes for Titan over its
//! Cassandra backend (§3.1/§3.2):
//!
//! * "Titan adopts the **adjacency list format**, where each vertex is
//!   stored alongside the list of incident edges": a vertex is a row in the
//!   LSM column store ([`gm_storage::LsmTable`]), its properties and
//!   adjacency are columns of that row;
//! * neighbor ids inside each adjacency cell are **delta-encoded**
//!   ([`gm_storage::codec::delta_encode`]-style gaps) — "a strategy very
//!   effective in graphs with nodes of high degree" that gives Titan the
//!   best space footprint in Figure 1;
//! * writes perform **consistency checks and schema inference** (§6.2:
//!   disabling automatic schema inference "significantly reduc\[ed\] the
//!   loading times"), which is why Titan is among the slowest for
//!   insertions (§6.4);
//! * deletions are **tombstones** — "marks an item as removed instead of
//!   actually removing it" — making Titan *faster* at deletes than at
//!   inserts (§6.5);
//! * "for each edge traversal, it needs to access the node (row) ID index
//!   first": every hop goes through the LSM's point/prefix lookup path;
//! * two variants mirror the tested versions: [`Variant::V05`] (smaller
//!   memtable, more runs, uncached existence checks) and [`Variant::V10`]
//!   (production tuning: bigger memtable, fewer runs, cached row index).
//!
//! # Read path
//!
//! The store hands out cells **borrowed** from its memtable and flat runs
//! (see [`gm_storage::lsm`]), and the engine decodes them where they lie:
//! keys are fixed-size stack arrays parsed back by `Column::parse`, an
//! adjacency cell is walked by a non-allocating cursor that undoes the gap
//! encoding and steps over each entry's property list, and property lists
//! are materialised only where a query returns them. Whole-graph filters
//! (`degree_scan`, `distinct_neighbor_scan`) are **one ordered pass**: a
//! row's label, property and adjacency cells are contiguous in key order, so
//! a row's degree is known by the time the next label cell comes by. A cell
//! that does not decode is reported as [`GdbError::Corrupt`], never a panic.
//!
//! The bulk load writes the store **in key order**, row by row: the label,
//! the properties by key id, then the OUT and the IN adjacency cells by
//! label id. Every memtable flush of a load is therefore a run whose keys
//! follow the previous run's, and a scan of a freshly loaded store walks
//! the runs back to back instead of merging them (see [`gm_storage::lsm`]).
//! Each cell is still put once, so the flush and compaction schedule — and
//! with it each variant's run count, more runs for V05 than for V10 — is
//! what any write order gives. Writes after the load land across the runs'
//! key range, so a scan that covers the rows they touch merges again.

use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, SpaceReport,
    VertexData,
};
use gm_model::fxmap::{FxHashMap, FxHashSet};
use gm_model::interner::Interner;
use gm_model::value::{Props, Value};
use gm_model::{Dataset, Eid, GdbError, GdbResult, LoadedIds, QueryCtx, Resolution, Vid};
use gm_storage::codec::{read_varint, write_varint};
use gm_storage::lsm::{LsmConfig, LsmTable};
use gm_storage::segvec::SegVec;
use gm_storage::valcodec::{
    decode_props, decode_value, encode_props, encode_value, find_prop, skip_props,
};

/// Store tuning for snapshot hosting (`CowCell<ColumnarGraph>`): a 1 Ki-entry
/// memtable over up to 8 runs. A clone shares every immutable run and
/// closed `SegVec` page and deep-copies only the mutable overlays, of
/// which the memtable is the largest, so a dirty epoch's clone is bounded
/// by the memtable, not by the graph: about one `SegVec` page's worth of
/// entries whatever the graph size (the same knob Titan deployments tune
/// per workload). The stock configurations ([`ColumnarGraph::new`]) keep
/// up to 8 Ki entries in memory, which a clone per dirty epoch would copy.
pub const SNAPSHOT_STORE: LsmConfig = LsmConfig {
    memtable_limit: 1024,
    max_runs: 8,
};

/// Column qualifiers within a row.
const Q_LABEL: u8 = 0x00;
const Q_PROP: u8 = 0x01;
const Q_ADJ: u8 = 0x02;

const DIR_OUT: u8 = 0;
const DIR_IN: u8 = 1;

/// Engine variant mirroring the two Titan versions of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Titan 0.5-style: small memtable, many runs, existence checks go to
    /// the store.
    V05,
    /// Titan 1.0-style: production tuning with a cached row index.
    V10,
}

/// One entry of an adjacency cell.
#[derive(Debug, Clone, PartialEq)]
struct AdjEntry {
    other: u64,
    eid: u64,
    /// Edge properties (key id, value); populated on the OUT side only.
    props: Vec<(u32, Value)>,
}

/// A bulk load's adjacency entry: `(direction, label id, other, eid)`.
type LoadEntry = (u8, u32, u64, u64);

/// A bulk load's adjacency entries grouped by row in one flat array:
/// row `r`'s are `entries[starts[r]..starts[r + 1]]`, sorted, so they come
/// cell by cell in key order and in cell order within each cell.
struct LoadRows {
    starts: Vec<usize>,
    entries: Vec<LoadEntry>,
}

impl LoadRows {
    /// Group the `(row, entry)` pairs `pairs()` yields by a counting sort on
    /// the row, then sort each row's few entries.
    fn group<I: Iterator<Item = (usize, LoadEntry)>>(rows: usize, pairs: impl Fn() -> I) -> Self {
        let mut starts = vec![0; rows + 1];
        for (row, _) in pairs() {
            starts[row + 1] += 1;
        }
        for row in 0..rows {
            starts[row + 1] += starts[row];
        }
        let mut next = starts.clone();
        let mut entries = vec![(0, 0, 0, 0); starts[rows]];
        for (row, entry) in pairs() {
            entries[next[row]] = entry;
            next[row] += 1;
        }
        for row in 0..rows {
            entries[starts[row]..starts[row + 1]].sort_unstable();
        }
        LoadRows { starts, entries }
    }

    /// Row `row`'s adjacency cells, in key order: the entries of one
    /// (direction, label) each.
    fn cells(&self, row: usize) -> impl Iterator<Item = &[LoadEntry]> {
        self.entries[self.starts[row]..self.starts[row + 1]]
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
    }
}

/// What a store key addresses within its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    Label,
    /// Property cell of this key id.
    Prop(u32),
    /// Adjacency cell of (direction, edge label id).
    Adj {
        dir: u8,
        label: u32,
    },
}

impl Column {
    /// Split a store key into its vertex id and column.
    fn parse(key: &[u8]) -> GdbResult<(u64, Column)> {
        let column = match key.split_first_chunk::<8>() {
            Some((vid, [Q_LABEL])) => Some((vid, Column::Label)),
            Some((vid, [Q_PROP, a, b, c, d])) => {
                Some((vid, Column::Prop(u32::from_be_bytes([*a, *b, *c, *d]))))
            }
            Some((vid, [Q_ADJ, dir, a, b, c, d])) => Some((
                vid,
                Column::Adj {
                    dir: *dir,
                    label: u32::from_be_bytes([*a, *b, *c, *d]),
                },
            )),
            _ => None,
        };
        let (vid, column) = column.ok_or_else(|| GdbError::Corrupt("malformed row key".into()))?;
        Ok((u64::from_be_bytes(*vid), column))
    }
}

fn corrupt_adj() -> GdbError {
    GdbError::Corrupt("malformed adjacency cell".into())
}

/// The label id stored in a row's label cell.
fn decode_label(cell: &[u8]) -> GdbResult<u32> {
    read_varint(cell, &mut 0)
        .and_then(|l| u32::try_from(l).ok())
        .ok_or_else(|| GdbError::Corrupt("malformed label cell".into()))
}

/// One adjacency entry read in place; `props` is its still-encoded
/// property list.
#[derive(Debug, Clone, Copy)]
struct AdjRef<'a> {
    other: u64,
    eid: u64,
    props: &'a [u8],
}

impl AdjRef<'_> {
    fn decode_props(&self) -> GdbResult<Vec<(u32, Value)>> {
        decode_props(self.props, &mut 0).ok_or_else(corrupt_adj)
    }

    fn prop(&self, key: u32) -> GdbResult<Option<Value>> {
        find_prop(self.props, &mut 0, key).ok_or_else(corrupt_adj)
    }
}

/// Non-allocating cursor over the entries of an adjacency cell: undoes the
/// gap encoding and steps over each property list without decoding it.
struct AdjCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    left: u64,
    prev: u64,
}

impl<'a> AdjCursor<'a> {
    fn new(buf: &'a [u8]) -> GdbResult<Self> {
        let mut pos = 0;
        let left = read_varint(buf, &mut pos).ok_or_else(corrupt_adj)?;
        Ok(AdjCursor {
            buf,
            pos,
            left,
            prev: 0,
        })
    }

    fn read(&mut self) -> Option<AdjRef<'a>> {
        let other = self
            .prev
            .checked_add(read_varint(self.buf, &mut self.pos)?)?;
        let eid = read_varint(self.buf, &mut self.pos)?;
        let start = self.pos;
        skip_props(self.buf, &mut self.pos)?;
        self.prev = other;
        Some(AdjRef {
            other,
            eid,
            props: self.buf.get(start..self.pos)?,
        })
    }
}

impl<'a> Iterator for AdjCursor<'a> {
    type Item = GdbResult<AdjRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let entry = self.read();
        self.left = if entry.is_some() { self.left - 1 } else { 0 };
        Some(entry.ok_or_else(corrupt_adj))
    }
}

/// The Titan-class engine. See crate docs for the layout.
///
/// `Clone` is **structurally cheap** — the property a copy-on-write snapshot
/// cell relies on (see [`SNAPSHOT_STORE`]): the LSM's immutable runs are
/// `Arc`-shared, the dense `edge_index` column is an append-only
/// [`SegVec`] whose pages are `Arc`-shared, the interners and the load's
/// [`Resolution`] share on clone, and the remaining overlays (memtable,
/// tombstone sets, schema) are small relative to the graph. A clone is therefore a
/// consistent visible-length watermark over the shared pages, not a second
/// copy of the adjacency data.
#[derive(Clone)]
pub struct ColumnarGraph {
    variant: Variant,
    store: LsmTable,
    /// Tombstoned vertex rows. Row existence for v1.0 is the dense-id check
    /// `vid < next_vid && !deleted`; v0.5 pays the store lookup instead
    /// (the uncached existence check the paper attributes to Titan 0.5).
    deleted_vertices: FxHashSet<u64>,
    /// Edge column: eid-indexed (eids are dense, handed out sequentially),
    /// append-only; entry = (src, dst, label). Deletions tombstone in
    /// [`ColumnarGraph::deleted_edges`], never remove here.
    edge_index: SegVec<(u64, u64, u32)>,
    /// Tombstoned edges (the Cassandra deletion mechanism).
    deleted_edges: FxHashSet<u64>,
    /// Inferred property schema: key id -> type tag (0xFF = mixed).
    schema: FxHashMap<u32, u8>,
    vlabels: Interner,
    elabels: Interner,
    keys: Interner,
    next_vid: u64,
    next_eid: u64,
    /// Where the bulk load placed each canonical element.
    resolution: Resolution,
    declared_indexes: Vec<u32>,
    vertex_rows: u64,
}

impl ColumnarGraph {
    /// A fresh engine of the given variant, with the variant's stock
    /// Cassandra-style store tuning.
    pub fn new(variant: Variant) -> Self {
        let config = match variant {
            Variant::V05 => LsmConfig {
                memtable_limit: 2048,
                max_runs: 8,
            },
            Variant::V10 => LsmConfig {
                memtable_limit: 8192,
                max_runs: 4,
            },
        };
        Self::with_store_config(variant, config)
    }

    /// A fresh engine with explicit store tuning (snapshot hosting tunes
    /// the memtable smaller — see [`SNAPSHOT_STORE`]).
    pub fn with_store_config(variant: Variant, config: LsmConfig) -> Self {
        ColumnarGraph {
            variant,
            store: LsmTable::new(config),
            deleted_vertices: FxHashSet::default(),
            edge_index: SegVec::new(),
            deleted_edges: FxHashSet::default(),
            schema: FxHashMap::default(),
            vlabels: Interner::new(),
            elabels: Interner::new(),
            keys: Interner::new(),
            next_vid: 0,
            next_eid: 0,
            resolution: Resolution::default(),
            declared_indexes: Vec::new(),
            vertex_rows: 0,
        }
    }

    /// Titan 0.5-style engine.
    pub fn v05() -> Self {
        Self::new(Variant::V05)
    }

    /// Titan 1.0-style engine.
    pub fn v10() -> Self {
        Self::new(Variant::V10)
    }

    // ---- key construction ------------------------------------------------
    //
    // Row key = vertex id (8 bytes BE) ‖ qualifier ‖ column. Keys have fixed
    // sizes and are built on the stack; [`Column::parse`] reads them back.

    fn key_label(vid: u64) -> [u8; 9] {
        let mut k = [Q_LABEL; 9];
        k[..8].copy_from_slice(&vid.to_be_bytes());
        k
    }

    /// Prefix of every property cell of the row.
    fn key_prop_prefix(vid: u64) -> [u8; 9] {
        let mut k = [Q_PROP; 9];
        k[..8].copy_from_slice(&vid.to_be_bytes());
        k
    }

    fn key_prop(vid: u64, key: u32) -> [u8; 13] {
        let mut k = [Q_PROP; 13];
        k[..8].copy_from_slice(&vid.to_be_bytes());
        k[9..].copy_from_slice(&key.to_be_bytes());
        k
    }

    /// Prefix of every adjacency cell of (row, direction).
    fn key_adj_prefix(vid: u64, dir: u8) -> [u8; 10] {
        let mut k = [Q_ADJ; 10];
        k[..8].copy_from_slice(&vid.to_be_bytes());
        k[9] = dir;
        k
    }

    fn key_adj(vid: u64, dir: u8, label: u32) -> [u8; 14] {
        let mut k = [Q_ADJ; 14];
        k[..8].copy_from_slice(&vid.to_be_bytes());
        k[9] = dir;
        k[10..].copy_from_slice(&label.to_be_bytes());
        k
    }

    // ---- adjacency cell codec ---------------------------------------------
    //
    // Cell value: varint count, then per entry sorted by `other`:
    //   varint gap(other)   (delta encoding — the Titan space trick)
    //   varint eid
    //   props blob (encode_props; empty list on the IN side)
    //
    // Reads walk the cell in place with an [`AdjCursor`]; only the
    // read-modify-write path materialises it.

    /// Encode `(other, eid, props)` entries, sorted by `other`, into `out`.
    fn encode_adj<'p>(
        out: &mut Vec<u8>,
        entries: impl ExactSizeIterator<Item = (u64, u64, &'p [(u32, Value)])>,
    ) {
        write_varint(out, entries.len() as u64);
        let mut prev = 0u64;
        for (other, eid, props) in entries {
            write_varint(out, other - prev);
            write_varint(out, eid);
            encode_props(out, props);
            prev = other;
        }
    }

    fn decode_adj(buf: &[u8]) -> GdbResult<Vec<AdjEntry>> {
        AdjCursor::new(buf)?
            .map(|entry| {
                let entry = entry?;
                Ok(AdjEntry {
                    other: entry.other,
                    eid: entry.eid,
                    props: entry.decode_props()?,
                })
            })
            .collect()
    }

    /// Read-modify-write an adjacency cell.
    fn adj_rmw(
        &mut self,
        vid: u64,
        dir: u8,
        label: u32,
        f: impl FnOnce(&mut Vec<AdjEntry>),
    ) -> GdbResult<()> {
        let key = Self::key_adj(vid, dir, label);
        let mut entries = match self.store.get(&key) {
            Some(cell) => Self::decode_adj(cell)?,
            None => Vec::new(),
        };
        f(&mut entries);
        if entries.is_empty() {
            self.store.delete(&key);
        } else {
            let mut cell = Vec::with_capacity(8 + entries.len() * 6);
            let refs = entries.iter().map(|e| (e.other, e.eid, &e.props[..]));
            Self::encode_adj(&mut cell, refs);
            self.store.put(&key, &cell);
        }
        Ok(())
    }

    // ---- schema inference and consistency checks ---------------------------

    fn value_tag(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Titan's automatic schema maintenance: look up, infer, validate.
    fn infer_schema(&mut self, props: &[(u32, Value)]) {
        for (key, value) in props {
            self.infer_prop(*key, value);
        }
    }

    fn infer_prop(&mut self, key: u32, value: &Value) {
        let tag = Self::value_tag(value);
        match self.schema.get(&key) {
            None => {
                self.schema.insert(key, tag);
            }
            Some(&t) if t != tag => {
                self.schema.insert(key, 0xFF);
            }
            _ => {}
        }
    }

    /// Row existence check: v1.0 answers from the dense id space plus the
    /// vertex tombstone set (O(1), its cached row index), v0.5 pays a store
    /// lookup.
    fn row_exists(&self, vid: u64) -> bool {
        match self.variant {
            Variant::V10 => vid < self.next_vid && !self.deleted_vertices.contains(&vid),
            Variant::V05 => self.store.contains(&Self::key_label(vid)),
        }
    }

    fn require_vertex(&self, vid: u64) -> GdbResult<()> {
        if self.row_exists(vid) {
            Ok(())
        } else {
            Err(GdbError::VertexNotFound(vid))
        }
    }

    fn live_edge(&self, eid: u64) -> Option<&(u64, u64, u32)> {
        if self.deleted_edges.contains(&eid) {
            return None;
        }
        self.edge_index.get(eid as usize)
    }

    /// The OUT-side adjacency entry of edge `eid` — the one that carries
    /// its properties — if the source row still has it.
    fn out_entry(&self, src: u64, label: u32, eid: u64) -> GdbResult<Option<AdjRef<'_>>> {
        let Some(cell) = self.store.get(&Self::key_adj(src, DIR_OUT, label)) else {
            return Ok(None);
        };
        for entry in AdjCursor::new(cell)? {
            let entry = entry?;
            if entry.eid == eid {
                return Ok(Some(entry));
            }
        }
        Ok(None)
    }

    fn intern_props(&mut self, props: &Props) -> Vec<(u32, Value)> {
        props
            .iter()
            .map(|(n, v)| (self.keys.intern(n), v.clone()))
            .collect()
    }

    fn key_name(&self, key: u32) -> GdbResult<String> {
        self.keys
            .resolve(key)
            .map(String::from)
            .ok_or_else(|| GdbError::Corrupt("cell names an unknown property key".into()))
    }

    fn add_vertex_raw(&mut self, label: u32, props: &[(u32, Value)]) -> u64 {
        let vid = self.next_vid;
        self.next_vid += 1;
        let props = props.iter().map(|(key, value)| (*key, value));
        self.put_vertex_cells(vid, label, props, &mut Vec::new());
        self.vertex_rows += 1;
        vid
    }

    /// Put a row's label cell, then a cell per property in the order given,
    /// encoding each into `cell`.
    fn put_vertex_cells<'v>(
        &mut self,
        vid: u64,
        label: u32,
        props: impl Iterator<Item = (u32, &'v Value)>,
        cell: &mut Vec<u8>,
    ) {
        cell.clear();
        write_varint(cell, label as u64);
        self.store.put(&Self::key_label(vid), cell);
        for (key, value) in props {
            cell.clear();
            encode_value(cell, value);
            self.store.put(&Self::key_prop(vid, key), cell);
        }
    }

    /// Tick once per entry of an adjacency cell and hand each live (not
    /// tombstoned) one to `f`, until it fails.
    fn each_live(
        &self,
        cell: &[u8],
        ctx: &QueryCtx,
        mut f: impl FnMut(AdjRef<'_>) -> GdbResult<()>,
    ) -> GdbResult<()> {
        for entry in AdjCursor::new(cell)? {
            ctx.tick()?;
            let entry = entry?;
            if !self.deleted_edges.contains(&entry.eid) {
                f(entry)?;
            }
        }
        Ok(())
    }

    /// Visit the live adjacency entries of (vid, dir) with their edge label
    /// id, optionally restricted to one label cell, until `f` fails.
    fn each_incident(
        &self,
        vid: u64,
        dir: u8,
        label: Option<u32>,
        ctx: &QueryCtx,
        mut f: impl FnMut(u32, AdjRef<'_>) -> GdbResult<()>,
    ) -> GdbResult<()> {
        match label {
            Some(l) => {
                ctx.tick()?;
                if let Some(cell) = self.store.get(&Self::key_adj(vid, dir, l)) {
                    self.each_live(cell, ctx, |e| f(l, e))?;
                }
            }
            None => {
                for (key, cell) in self.store.scan_prefix(&Self::key_adj_prefix(vid, dir)) {
                    ctx.tick()?;
                    if let (_, Column::Adj { label, .. }) = Column::parse(key)? {
                        self.each_live(cell, ctx, |e| f(label, e))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// [`ColumnarGraph::each_incident`] over the direction cells `dir`
    /// selects: OUT before IN.
    fn each_incident_dir(
        &self,
        vid: u64,
        dir: Direction,
        label: Option<u32>,
        ctx: &QueryCtx,
        mut f: impl FnMut(u32, AdjRef<'_>) -> GdbResult<()>,
    ) -> GdbResult<()> {
        for d in [DIR_OUT, DIR_IN] {
            if selects(dir, d) {
                self.each_incident(vid, d, label, ctx, &mut f)?;
            }
        }
        Ok(())
    }

    /// The label-id restriction a label argument asks for; the outer `None`
    /// is a label no edge carries, which nothing matches.
    fn edge_label_filter(&self, label: Option<&str>) -> Option<Option<u32>> {
        match label {
            Some(l) => self.elabels.get(l).map(Some),
            None => Some(None),
        }
    }

    /// Walk every cell of the store in key order, one tick per cell.
    fn each_cell(
        &self,
        ctx: &QueryCtx,
        mut f: impl FnMut(u64, Column, &[u8]) -> GdbResult<()>,
    ) -> GdbResult<()> {
        for (key, cell) in self.store.scan_range(&[], None) {
            ctx.tick()?;
            let (vid, column) = Column::parse(key)?;
            f(vid, column, cell)?;
        }
        Ok(())
    }
}

/// Whether a query direction covers the adjacency cells of `dir`.
fn selects(query: Direction, dir: u8) -> bool {
    match query {
        Direction::Out => dir == DIR_OUT,
        Direction::In => dir == DIR_IN,
        Direction::Both => true,
    }
}

impl GraphSnapshot for ColumnarGraph {
    fn name(&self) -> String {
        match self.variant {
            Variant::V05 => "columnar(v05)".into(),
            Variant::V10 => "columnar(v10)".into(),
        }
    }

    fn features(&self) -> EngineFeatures {
        EngineFeatures {
            name: self.name(),
            system_type: "Hybrid (Columnar)".into(),
            storage: "Vertex-indexed adjacency-list rows over an LSM".into(),
            edge_traversal: "Row-key index".into(),
            optimized_adapter: true,
            async_writes: false,
            attribute_indexes: true,
            max_identifier_len: None,
        }
    }

    gm_model::engine_resolve!();

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        // g.V iterates rows: a full store scan filtered to label cells.
        let mut n = 0u64;
        self.each_cell(ctx, |_, column, _| {
            n += u64::from(column == Column::Label);
            Ok(())
        })?;
        Ok(n)
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut n = 0u64;
        self.each_cell(ctx, |_, column, cell| match column {
            Column::Adj { dir: DIR_OUT, .. } => self.each_live(cell, ctx, |_| {
                n += 1;
                Ok(())
            }),
            _ => Ok(()),
        })?;
        Ok(n)
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let mut seen = vec![false; self.elabels.len()];
        self.each_cell(ctx, |_, column, cell| {
            if let Column::Adj {
                dir: DIR_OUT,
                label,
            } = column
            {
                let seen = seen
                    .get_mut(label as usize)
                    .ok_or_else(|| GdbError::Corrupt("cell names an unknown edge label".into()))?;
                if !*seen {
                    for entry in AdjCursor::new(cell)? {
                        if !self.deleted_edges.contains(&entry?.eid) {
                            *seen = true;
                            break;
                        }
                    }
                }
            }
            Ok(())
        })?;
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
        let Some(key_id) = self.keys.get(name) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        self.each_cell(ctx, |vid, column, cell| {
            if column == Column::Prop(key_id) && decode_value(cell, &mut 0).as_ref() == Some(value)
            {
                out.push(Vid(vid));
            }
            Ok(())
        })?;
        Ok(out)
    }

    fn edges_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Eid>> {
        let Some(key_id) = self.keys.get(name) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        self.each_cell(ctx, |_, column, cell| match column {
            Column::Adj { dir: DIR_OUT, .. } => self.each_live(cell, ctx, |entry| {
                if entry.prop(key_id)?.as_ref() == Some(value) {
                    out.push(Eid(entry.eid));
                }
                Ok(())
            }),
            _ => Ok(()),
        })?;
        out.sort_unstable();
        Ok(out)
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        let Some(want) = self.elabels.get(label) else {
            return Ok(Vec::new());
        };
        let wanted = Column::Adj {
            dir: DIR_OUT,
            label: want,
        };
        let mut out = Vec::new();
        self.each_cell(ctx, |_, column, cell| {
            if column == wanted {
                self.each_live(cell, ctx, |e| {
                    out.push(Eid(e.eid));
                    Ok(())
                })?;
            }
            Ok(())
        })?;
        out.sort_unstable();
        Ok(out)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        if !self.row_exists(v.0) {
            return Ok(None);
        }
        let label_cell = self
            .store
            .get(&Self::key_label(v.0))
            .ok_or_else(|| GdbError::Corrupt("row without label cell".into()))?;
        let label = decode_label(label_cell)?;
        let mut props = Props::new();
        for (key, cell) in self.store.scan_prefix(&Self::key_prop_prefix(v.0)) {
            if let (_, Column::Prop(k)) = Column::parse(key)? {
                if let Some(value) = decode_value(cell, &mut 0) {
                    props.push((self.key_name(k)?, value));
                }
            }
        }
        Ok(Some(VertexData {
            id: v,
            label: self
                .vlabels
                .resolve(label)
                .unwrap_or("<unknown>")
                .to_string(),
            props,
        }))
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        // Row-key index first, then scan the source row for the edge cell.
        let Some(&(src, dst, label)) = self.live_edge(e.0) else {
            return Ok(None);
        };
        let entry = self
            .out_entry(src, label, e.0)?
            .ok_or_else(|| GdbError::Corrupt("edge missing from adjacency cell".into()))?;
        Ok(Some(EdgeData {
            id: e,
            src: Vid(src),
            dst: Vid(dst),
            label: self
                .elabels
                .resolve(label)
                .unwrap_or("<unknown>")
                .to_string(),
            props: entry
                .decode_props()?
                .into_iter()
                .map(|(k, v)| Ok((self.key_name(k)?, v)))
                .collect::<GdbResult<Props>>()?,
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
        let Some(want) = self.edge_label_filter(label) else {
            return Ok(());
        };
        self.each_incident_dir(v.0, dir, want, ctx, |_, e| {
            f(EdgeRef {
                eid: Eid(e.eid),
                other: Vid(e.other),
            })
        })
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.require_vertex(v.0)?;
        let mut seen: Vec<u32> = Vec::new();
        self.each_incident_dir(v.0, dir, None, ctx, |label, _| {
            if !seen.contains(&label) {
                seen.push(label);
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
        Ok(Box::new(self.store.scan_range(&[], None).filter_map(
            move |(key, _)| match ctx.tick().and_then(|()| Column::parse(key)) {
                Ok((vid, Column::Label)) => Some(Ok(Vid(vid))),
                Ok(_) => None,
                Err(e) => Some(Err(e)),
            },
        )))
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        // One cursor per OUT cell, flattened; a cell that fails to open
        // yields its error in the cursor's place.
        let cursors = self
            .store
            .scan_range(&[], None)
            .filter_map(
                move |(key, cell)| match ctx.tick().and_then(|()| Column::parse(key)) {
                    Ok((_, Column::Adj { dir: DIR_OUT, .. })) => Some(AdjCursor::new(cell)),
                    Ok(_) => None,
                    Err(e) => Some(Err(e)),
                },
            );
        Ok(Box::new(
            cursors
                .flat_map(|cursor| {
                    let (entries, failed) = match cursor {
                        Ok(cursor) => (Some(cursor), None),
                        Err(e) => (None, Some(Err(e))),
                    };
                    entries.into_iter().flatten().chain(failed)
                })
                .filter_map(|entry| match entry {
                    Ok(e) if self.deleted_edges.contains(&e.eid) => None,
                    Ok(e) => Some(Ok(Eid(e.eid))),
                    Err(e) => Some(Err(e)),
                }),
        ))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.require_vertex(v.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        Ok(self
            .store
            .get(&Self::key_prop(v.0, key))
            .and_then(|cell| decode_value(cell, &mut 0)))
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let &(src, _, label) = self.live_edge(e.0).ok_or(GdbError::EdgeNotFound(e.0))?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        match self.out_entry(src, label, e.0)? {
            Some(entry) => entry.prop(key),
            None => Ok(None),
        }
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        Ok(self.live_edge(e.0).map(|&(s, d, _)| (Vid(s), Vid(d))))
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        Ok(self
            .live_edge(e.0)
            .and_then(|&(_, _, l)| self.elabels.resolve(l))
            .map(String::from))
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        if !self.row_exists(v.0) {
            return Ok(None);
        }
        let Some(cell) = self.store.get(&Self::key_label(v.0)) else {
            return Ok(None);
        };
        Ok(self.vlabels.resolve(decode_label(cell)?).map(String::from))
    }

    /// Q28–Q30 as **one ordered pass** over the store instead of a row
    /// lookup per vertex: a row's label, property and adjacency cells are
    /// contiguous in key order — the "vertex stored alongside the list of
    /// incident edges" layout — so the degree of each row is known by the
    /// time the next label cell comes by. Rows come out in ascending id.
    fn degree_scan(&self, dir: Direction, k: u64, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        let mut out = Vec::new();
        // The row being counted: (vertex id, live degree so far).
        let mut row: Option<(u64, u64)> = None;
        let mut close = |row: Option<(u64, u64)>| {
            if let Some((vid, degree)) = row {
                if degree >= k {
                    out.push(Vid(vid));
                }
            }
        };
        self.each_cell(ctx, |vid, column, cell| {
            match column {
                Column::Label => close(row.replace((vid, 0))),
                Column::Adj { dir: d, .. } if selects(dir, d) => {
                    if let Some((_, degree)) = row.as_mut().filter(|(at, _)| *at == vid) {
                        self.each_live(cell, ctx, |_| {
                            *degree += 1;
                            Ok(())
                        })?;
                    }
                }
                _ => {}
            }
            Ok(())
        })?;
        close(row);
        Ok(out)
    }

    /// Q31 in the same single pass: every live `other` of the selected
    /// adjacency cells, sorted and deduplicated.
    fn distinct_neighbor_scan(&self, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        let mut out = Vec::new();
        let mut row = None;
        self.each_cell(ctx, |vid, column, cell| {
            match column {
                Column::Label => row = Some(vid),
                Column::Adj { dir: d, .. } if row == Some(vid) && selects(dir, d) => {
                    self.each_live(cell, ctx, |e| {
                        out.push(Vid(e.other));
                        Ok(())
                    })?;
                }
                _ => {}
            }
            Ok(())
        })?;
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        self.keys
            .get(prop)
            .map(|k| self.declared_indexes.contains(&k))
            .unwrap_or(false)
    }

    fn space(&self) -> SpaceReport {
        let mut r = SpaceReport::default();
        r.add("lsm store (rows + columns)", self.store.bytes());
        r.add("edge column (eid-indexed)", self.edge_index.bytes());
        r.add(
            "tombstone sets",
            (self.deleted_edges.len() + self.deleted_vertices.len()) as u64 * 8 + 96,
        );
        r.add(
            "schema registry",
            self.schema.len() as u64 * 5
                + self.vlabels.bytes()
                + self.elabels.bytes()
                + self.keys.bytes(),
        );
        r
    }
}

/// The write bodies behind [`GraphDb::apply`] (`gm_model::engine_apply!`).
impl ColumnarGraph {
    fn load_dataset(&mut self, data: &Dataset, opts: &LoadOptions) -> GdbResult<LoadedIds> {
        let mut vmap = Vec::with_capacity(data.vertices.len());
        let mut emap = Vec::with_capacity(data.edges.len());
        if opts.bulk {
            // Schema declared up front (no per-item inference), adjacency
            // grouped per row in memory, and every cell written once, row by
            // row in key order (crate docs): each memtable flush is then a
            // run whose keys follow the previous run's. The cells are those
            // any order writes, so the flush and compaction schedule and
            // each variant's run count are too.
            let (first_vid, first_eid) = (self.next_vid, self.next_eid);
            let mut labels = Vec::with_capacity(data.vertices.len());
            let mut prop_keys = Vec::new();
            for v in &data.vertices {
                for (name, value) in &v.props {
                    let key = self.keys.intern(name);
                    self.infer_prop(key, value);
                    prop_keys.push(key);
                }
                labels.push(self.vlabels.intern(&v.label));
                vmap.push(self.next_vid);
                self.next_vid += 1;
                self.vertex_rows += 1;
            }
            let mut edge_props = Vec::with_capacity(data.edges.len());
            for e in &data.edges {
                let eid = self.next_eid;
                self.next_eid += 1;
                emap.push(eid);
                let label = self.elabels.intern(&e.label);
                let (src, dst) = (vmap[e.src as usize], vmap[e.dst as usize]);
                let props = self.intern_props(&e.props);
                self.infer_schema(&props);
                debug_assert_eq!(self.edge_index.len() as u64, eid);
                self.edge_index.push((src, dst, label));
                edge_props.push(props);
            }
            let edges = &self.edge_index;
            let rows = LoadRows::group(data.vertices.len(), || {
                (first_eid..self.next_eid)
                    .filter_map(|eid| Some((eid, *edges.get(eid as usize)?)))
                    .flat_map(|(eid, (src, dst, label))| {
                        [
                            ((src - first_vid) as usize, (DIR_OUT, label, dst, eid)),
                            ((dst - first_vid) as usize, (DIR_IN, label, src, eid)),
                        ]
                    })
            });
            let (mut at, mut props, mut cell) = (0, Vec::new(), Vec::new());
            for (row, v) in data.vertices.iter().enumerate() {
                let vid = first_vid + row as u64;
                let ids = &prop_keys[at..at + v.props.len()];
                at += v.props.len();
                props.clear();
                props.extend(ids.iter().copied().zip(v.props.iter().map(|(_, v)| v)));
                // Stable: a name given twice is put twice, the later last.
                props.sort_by_key(|&(key, _)| key);
                self.put_vertex_cells(vid, labels[row], props.iter().copied(), &mut cell);
                for entries in rows.cells(row) {
                    let (dir, label, ..) = entries[0];
                    let entries = entries.iter().map(|&(dir, _, other, eid)| {
                        let props = match dir {
                            DIR_OUT => &edge_props[(eid - first_eid) as usize][..],
                            _ => &[],
                        };
                        (other, eid, props)
                    });
                    cell.clear();
                    Self::encode_adj(&mut cell, entries);
                    self.store.put(&Self::key_adj(vid, dir, label), &cell);
                }
            }
            // The bulk loader flushes its memtable to an SSTable run at the
            // end, like Titan's batch loading against Cassandra.
            self.store.flush();
        } else {
            for v in &data.vertices {
                let vid = self.insert_vertex(&v.label, &v.props)?;
                vmap.push(vid.0);
            }
            for e in &data.edges {
                let (src, dst) = (Vid(vmap[e.src as usize]), Vid(vmap[e.dst as usize]));
                let eid = self.insert_edge(src, dst, &e.label, &e.props)?;
                emap.push(eid.0);
            }
        }
        Ok((vmap, emap))
    }

    fn insert_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        let interned = self.intern_props(props);
        // Schema inference per write (the Titan overhead).
        self.infer_schema(&interned);
        let label = self.vlabels.intern(label);
        Ok(Vid(self.add_vertex_raw(label, &interned)))
    }

    fn insert_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        // Consistency checks on both endpoints.
        self.require_vertex(src.0)?;
        self.require_vertex(dst.0)?;
        let interned = self.intern_props(props);
        self.infer_schema(&interned);
        let label = self.elabels.intern(label);
        let eid = self.next_eid;
        self.next_eid += 1;
        debug_assert_eq!(self.edge_index.len() as u64, eid);
        self.edge_index.push((src.0, dst.0, label));
        // Read-modify-write both adjacency cells.
        let entry = AdjEntry {
            other: dst.0,
            eid,
            props: interned,
        };
        self.adj_rmw(src.0, DIR_OUT, label, |entries| {
            let pos = entries
                .binary_search_by_key(&(entry.other, eid), |e| (e.other, e.eid))
                .unwrap_or_else(|p| p);
            entries.insert(pos, entry);
        })?;
        let in_entry = AdjEntry {
            other: src.0,
            eid,
            props: Vec::new(),
        };
        self.adj_rmw(dst.0, DIR_IN, label, |entries| {
            let pos = entries
                .binary_search_by_key(&(in_entry.other, eid), |e| (e.other, e.eid))
                .unwrap_or_else(|p| p);
            entries.insert(pos, in_entry);
        })?;
        Ok(Eid(eid))
    }

    fn put_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        self.require_vertex(v.0)?;
        let key = self.keys.intern(name);
        self.infer_schema(&[(key, value.clone())]);
        let mut cell = Vec::new();
        encode_value(&mut cell, &value);
        self.store.put(&Self::key_prop(v.0, key), &cell);
        Ok(())
    }

    fn put_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        let &(src, _, label) = self.live_edge(e.0).ok_or(GdbError::EdgeNotFound(e.0))?;
        let key = self.keys.intern(name);
        self.infer_schema(&[(key, value.clone())]);
        self.adj_rmw(src, DIR_OUT, label, |entries| {
            if let Some(entry) = entries.iter_mut().find(|x| x.eid == e.0) {
                if let Some(slot) = entry.props.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = value;
                } else {
                    entry.props.push((key, value));
                }
            }
        })
    }

    fn delete_vertex(&mut self, v: Vid) -> GdbResult<Vec<u64>> {
        self.require_vertex(v.0)?;
        // Tombstone every incident edge.
        let ctx = QueryCtx::unbounded();
        let mut eids: Vec<u64> = Vec::new();
        self.each_incident_dir(v.0, Direction::Both, None, &ctx, |_, e| {
            eids.push(e.eid);
            Ok(())
        })?;
        self.deleted_edges.extend(eids.iter().copied());
        // Tombstone all of the row's cells.
        let keys: Vec<Vec<u8>> = self
            .store
            .scan_prefix(&v.0.to_be_bytes())
            .map(|(k, _)| k.to_vec())
            .collect();
        for k in keys {
            self.store.delete(&k);
        }
        self.deleted_vertices.insert(v.0);
        self.vertex_rows -= 1;
        Ok(eids)
    }

    fn delete_edge(&mut self, e: Eid) -> GdbResult<()> {
        if self.live_edge(e.0).is_none() {
            return Err(GdbError::EdgeNotFound(e.0));
        }
        // Pure tombstone — no adjacency rewrite (the fast-delete mechanism).
        self.deleted_edges.insert(e.0);
        Ok(())
    }

    fn delete_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.require_vertex(v.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let k = Self::key_prop(v.0, key);
        let old = self
            .store
            .get(&k)
            .and_then(|cell| decode_value(cell, &mut 0));
        if old.is_some() {
            self.store.delete(&k);
        }
        Ok(old)
    }

    fn delete_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let &(src, _, label) = self.live_edge(e.0).ok_or(GdbError::EdgeNotFound(e.0))?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let mut old = None;
        self.adj_rmw(src, DIR_OUT, label, |entries| {
            if let Some(entry) = entries.iter_mut().find(|x| x.eid == e.0) {
                if let Some(pos) = entry.props.iter().position(|(k, _)| *k == key) {
                    old = Some(entry.props.remove(pos).1);
                }
            }
        })?;
        Ok(old)
    }

    fn build_vertex_index(&mut self, prop: &str) -> GdbResult<()> {
        // Titan supports graph-centric indexes and gains 2–5 orders from
        // them in the paper's Figure 4c. Here the declaration is only
        // recorded (`has_vertex_index` answers it): no value index is
        // built and Q11 scans the store either way — a fidelity gap, listed
        // in ROADMAP.
        let key = self.keys.intern(prop);
        if !self.declared_indexes.contains(&key) {
            self.declared_indexes.push(key);
        }
        Ok(())
    }
}

impl GraphDb for ColumnarGraph {
    gm_model::engine_apply!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_model::testkit;

    #[test]
    fn v05_conformance() {
        testkit::conformance_suite(&mut || Box::new(ColumnarGraph::v05()));
    }

    #[test]
    fn v10_conformance() {
        testkit::conformance_suite(&mut || Box::new(ColumnarGraph::v10()));
    }

    #[test]
    fn adjacency_cells_are_delta_encoded() {
        // A high-degree vertex with dense neighbor ids compresses far below
        // 16 bytes/edge.
        let mut g = ColumnarGraph::v10();
        let hub = g.add_vertex("n", &vec![]).unwrap();
        let spokes: Vec<Vid> = (0..1000)
            .map(|_| g.add_vertex("n", &vec![]).unwrap())
            .collect();
        for s in &spokes {
            g.add_edge(hub, *s, "e", &vec![]).unwrap();
        }
        let cell = g
            .store
            .get(&ColumnarGraph::key_adj(hub.0, DIR_OUT, 0))
            .unwrap();
        assert!(
            cell.len() < 1000 * 8,
            "delta+varint beats fixed-width ({} bytes for 1000 edges)",
            cell.len()
        );
        let ctx = QueryCtx::unbounded();
        assert_eq!(g.vertex_degree(hub, Direction::Out, &ctx).unwrap(), 1000);
    }

    #[test]
    fn deletes_are_tombstones() {
        let mut g = ColumnarGraph::v10();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        let e = g.add_edge(a, b, "l", &vec![]).unwrap();
        let cell_key = ColumnarGraph::key_adj(a.0, DIR_OUT, 0);
        let before = g.store.get(&cell_key).unwrap().to_vec();
        g.remove_edge(e).unwrap();
        // The adjacency cell is untouched; only the tombstone set grows.
        assert_eq!(g.store.get(&cell_key).unwrap(), before);
        assert!(g.deleted_edges.contains(&e.0));
        let ctx = QueryCtx::unbounded();
        assert!(g
            .neighbors(a, Direction::Out, None, &ctx)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn schema_inference_tracks_types() {
        let mut g = ColumnarGraph::v10();
        g.add_vertex("n", &vec![("x".into(), Value::Int(1))])
            .unwrap();
        let key = g.keys.get("x").unwrap();
        assert_eq!(g.schema.get(&key), Some(&2u8));
        // Conflicting type downgrades to "mixed".
        g.add_vertex("n", &vec![("x".into(), Value::Str("s".into()))])
            .unwrap();
        assert_eq!(g.schema.get(&key), Some(&0xFFu8));
    }

    /// What a loaded engine answers: every read of the query catalog over a
    /// few parameter draws (on a dataset large enough to draw them from),
    /// then every vertex and edge record in full.
    fn catalog_reads(g: &ColumnarGraph, data: &Dataset) -> Vec<String> {
        use gm_core::catalog::{execute_read, QueryInstance};
        use gm_core::params::Workload;
        let ctx = QueryCtx::unbounded();
        let mut out = Vec::new();
        let draws = if data.vertex_count() >= 8 { 0..3 } else { 0..0 };
        for seed in draws {
            let workload = Workload::choose(data, seed, 4);
            let params = workload.resolve(g).unwrap();
            for inst in QueryInstance::full_suite(workload.k) {
                if !inst.id.is_mutation() {
                    let answer = execute_read(&inst, g, &params, &ctx);
                    out.push(format!("seed {seed} {}: {answer:?}", inst.name()));
                }
            }
        }
        for i in 0..data.vertices.len() as u64 {
            let v = g.resolve_vertex(i).unwrap();
            out.push(format!("{:?}", g.vertex(v)));
        }
        for i in 0..data.edges.len() as u64 {
            let e = g.resolve_edge(i).unwrap();
            out.push(format!("{:?}", g.edge(e)));
        }
        out
    }

    #[test]
    fn bulk_load_writes_each_cell_once() {
        let mut chain = testkit::chain_dataset(500);
        // A name given twice keeps its later value; a vertex lists its
        // names out of key-id order.
        chain.vertices[7].props.push(("idx".into(), Value::Int(-7)));
        let tag = ("tag".into(), Value::Str("nine".into()));
        chain.vertices[9].props.insert(0, tag);
        let one_by_one = LoadOptions {
            bulk: false,
            index_during_load: false,
        };
        let ctx = QueryCtx::unbounded();
        let mut g = ColumnarGraph::v10();
        g.bulk_load(&chain, &LoadOptions::default()).unwrap();
        assert_eq!(g.vertex_count(&ctx).unwrap(), 500);
        assert_eq!(g.edge_count(&ctx).unwrap(), 499);
        let v7 = g.resolve_vertex(7).unwrap();
        let idx = g.vertex_property(v7, "idx").unwrap();
        assert_eq!(idx, Some(Value::Int(-7)), "the later value wins");
        // The one-by-one path agrees on everything.
        for variant in [Variant::V05, Variant::V10] {
            for data in [&chain, &testkit::tiny_dataset()] {
                let mut bulk = ColumnarGraph::new(variant);
                bulk.bulk_load(data, &LoadOptions::default()).unwrap();
                let mut slow = ColumnarGraph::new(variant);
                slow.bulk_load(data, &one_by_one).unwrap();
                let (got, want) = (catalog_reads(&bulk, data), catalog_reads(&slow, data));
                assert_eq!(got.len(), want.len());
                for (got, want) in got.iter().zip(&want) {
                    assert_eq!(got, want, "{variant:?} on {}", data.name);
                }
            }
        }
    }

    #[test]
    fn bulk_load_leaves_key_disjoint_runs_on_the_same_schedule() {
        // (store tuning, runs, flushes, compactions): what the load left
        // when it wrote adjacency cells in hash-map order. Each cell is
        // still put once, so no flush moves. A 7-cell memtable puts flush
        // boundaries at every position within a row.
        let small = LsmConfig {
            memtable_limit: 7,
            max_runs: 4,
        };
        let cases = [
            (testkit::chain_dataset(500), None, (1, 1, 0)),
            (testkit::tiny_dataset(), None, (1, 1, 0)),
            (testkit::chain_dataset(500), Some(&small), (4, 286, 141)),
            (testkit::tiny_dataset(), Some(&small), (4, 4, 0)),
            (testkit::chain_dataset(100), Some(&small), (3, 57, 27)),
        ];
        for variant in [Variant::V05, Variant::V10] {
            for (data, config, pinned) in &cases {
                let mut g = match config {
                    None => ColumnarGraph::new(variant),
                    Some(config) => ColumnarGraph::with_store_config(variant, (*config).clone()),
                };
                g.bulk_load(data, &LoadOptions::default()).unwrap();
                let stats = g.store.stats();
                let what = format!("{variant:?} {config:?} on {}", data.name);
                let counts = (g.store.run_count(), stats.flushes, stats.compactions);
                assert_eq!(counts, *pinned, "{what}");
                assert!(!g.store.scan_range(&[], None).merges(), "{what}");
            }
        }
        // Vertices that list their property names out of key-id order.
        let mut shuffled = testkit::chain_dataset(100);
        for v in shuffled.vertices.iter_mut().skip(1).step_by(3) {
            v.props.insert(0, ("tag".into(), Value::Int(1)));
        }
        for memtable_limit in 2..10 {
            let config = LsmConfig {
                memtable_limit,
                max_runs: 4,
            };
            let mut g = ColumnarGraph::with_store_config(Variant::V10, config);
            g.bulk_load(&shuffled, &LoadOptions::default()).unwrap();
            assert!(g.store.run_count() > 1);
            assert!(!g.store.scan_range(&[], None).merges(), "{memtable_limit}");
        }
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g = ColumnarGraph::v10();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        g.add_edge(a, b, "l", &vec![]).unwrap();
        g.add_edge(a, b, "l", &vec![]).unwrap();
        g.add_edge(a, a, "l", &vec![]).unwrap();
        let ctx = QueryCtx::unbounded();
        assert_eq!(g.vertex_degree(a, Direction::Out, &ctx).unwrap(), 3);
        assert_eq!(g.vertex_degree(a, Direction::Both, &ctx).unwrap(), 4);
        let mut n: Vec<u64> = g
            .neighbors(a, Direction::Out, None, &ctx)
            .unwrap()
            .iter()
            .map(|v| v.0)
            .collect();
        n.sort_unstable();
        assert_eq!(n, vec![a.0, b.0, b.0]);
    }

    #[test]
    fn edge_props_live_on_out_side_only() {
        let mut g = ColumnarGraph::v10();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        let e = g
            .add_edge(a, b, "l", &vec![("w".into(), Value::Float(1.5))])
            .unwrap();
        assert_eq!(g.edge_property(e, "w").unwrap(), Some(Value::Float(1.5)));
        let in_cell = g
            .store
            .get(&ColumnarGraph::key_adj(b.0, DIR_IN, 0))
            .unwrap();
        let out_cell = g
            .store
            .get(&ColumnarGraph::key_adj(a.0, DIR_OUT, 0))
            .unwrap();
        assert!(in_cell.len() < out_cell.len(), "IN side carries no props");
    }

    #[test]
    fn clone_shares_closed_segments_and_runs() {
        // The structural-sharing property a snapshot cell's clone per dirty
        // epoch relies on: cloning a loaded engine reuses the LSM runs and
        // the closed edge-column segments instead of copying the adjacency
        // data.
        let mut g = ColumnarGraph::v10();
        g.bulk_load(&testkit::chain_dataset(4000), &LoadOptions::default())
            .unwrap();
        let frozen = g.clone();
        // Mutating the original must not disturb the clone.
        let a = g.resolve_vertex(0).unwrap();
        let b = g.resolve_vertex(1).unwrap();
        for _ in 0..200 {
            g.add_edge(a, b, "burst", &vec![]).unwrap();
        }
        let ctx = QueryCtx::unbounded();
        assert_eq!(frozen.edge_count(&ctx).unwrap(), 3999);
        assert_eq!(g.edge_count(&ctx).unwrap(), 4199);
        // 4000 edges at SEGMENT=1024 fill 3 pages, all still shared; only
        // the tail page the original kept appending to was copied.
        assert_eq!(frozen.edge_index.unshared_pages(&g.edge_index), 1);
        assert!(frozen.store.run_count() >= 1, "bulk load flushed a run");
    }

    /// A graph that exercises everything the one-pass filters must agree
    /// with the per-vertex decomposition on: several labels, parallel
    /// edges, self-loops, removed edges, a removed vertex, cells rewritten
    /// across runs, and entries still in the memtable.
    fn ragged(variant: Variant) -> ColumnarGraph {
        let mut g = ColumnarGraph::with_store_config(
            variant,
            LsmConfig {
                memtable_limit: 16,
                max_runs: 4,
            },
        );
        let vs: Vec<Vid> = (0..40)
            .map(|i| {
                g.add_vertex("n", &vec![("idx".into(), Value::Int(i))])
                    .unwrap()
            })
            .collect();
        let mut edges = Vec::new();
        let mut x = 12345u64;
        for i in 0..160 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (a, b) = (vs[(x >> 33) as usize % 40], vs[(x >> 13) as usize % 40]);
            let label = ["a", "b", "c"][i % 3];
            edges.push(g.add_edge(a, b, label, &vec![]).unwrap());
            if i % 16 == 0 {
                edges.push(g.add_edge(a, b, label, &vec![]).unwrap()); // parallel
                edges.push(g.add_edge(a, a, label, &vec![]).unwrap()); // self-loop
            }
        }
        for e in edges.iter().step_by(7) {
            g.remove_edge(*e).unwrap();
        }
        g.remove_vertex(vs[5]).unwrap();
        g.remove_vertex(vs[39]).unwrap();
        g.add_edge(vs[0], vs[1], "late", &vec![]).unwrap();
        assert!(g.store.run_count() >= 3, "cells are spread over runs");
        g
    }

    #[test]
    fn one_pass_filters_equal_the_per_vertex_decomposition() {
        use gm_model::api::{gremlin_degree_scan, gremlin_distinct_neighbor_scan};
        let ctx = QueryCtx::unbounded();
        for variant in [Variant::V05, Variant::V10] {
            let g = ragged(variant);
            assert_eq!(g.vertex_count(&ctx).unwrap(), 38);
            for dir in [Direction::Out, Direction::In, Direction::Both] {
                let mut sizes = Vec::new();
                for k in [0, 1, 2, 4, 6, 9, 100] {
                    let hits = g.degree_scan(dir, k, &ctx).unwrap();
                    assert_eq!(
                        hits,
                        gremlin_degree_scan(&g, dir, k, &ctx).unwrap(),
                        "{} degree_scan({dir:?}, {k})",
                        g.name()
                    );
                    sizes.push(hits.len());
                }
                assert_eq!(sizes[0], 38, "k = 0 admits every live row");
                assert!(0 < sizes[4] && sizes[4] < 38, "thresholds bite: {sizes:?}");
                assert_eq!(sizes[6], 0);
                let reached = g.distinct_neighbor_scan(dir, &ctx).unwrap();
                assert_eq!(
                    reached,
                    gremlin_distinct_neighbor_scan(&g, dir, &ctx).unwrap(),
                    "{} distinct_neighbor_scan({dir:?})",
                    g.name()
                );
                assert!(!reached.is_empty());
            }
        }
    }

    #[test]
    fn one_pass_filters_observe_the_deadline() {
        let mut g = ColumnarGraph::v10();
        g.bulk_load(&testkit::chain_dataset(5_000), &LoadOptions::default())
            .unwrap();
        let ctx = QueryCtx::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            g.degree_scan(Direction::Both, 1, &ctx),
            Err(GdbError::Timeout)
        );
        let ctx = QueryCtx::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            g.distinct_neighbor_scan(Direction::Out, &ctx),
            Err(GdbError::Timeout)
        );
    }

    #[test]
    fn malformed_cells_are_corrupt_not_panics() {
        let mut g = ColumnarGraph::v10();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        let e = g
            .add_edge(a, b, "l", &vec![("w".into(), Value::Int(1))])
            .unwrap();
        let ctx = QueryCtx::unbounded();
        let corrupt = |r: GdbResult<()>| assert!(matches!(r, Err(GdbError::Corrupt(_))), "{r:?}");

        // An adjacency cell cut short inside its first entry.
        let key = ColumnarGraph::key_adj(a.0, DIR_OUT, 0);
        let cell = g.store.get(&key).unwrap().to_vec();
        g.store.put(&key, &cell[..cell.len() - 1]);
        corrupt(g.edge_count(&ctx).map(drop));
        corrupt(g.edge(e).map(drop));
        corrupt(g.edge_property(e, "w").map(drop));
        corrupt(g.neighbors(a, Direction::Out, None, &ctx).map(drop));
        corrupt(g.degree_scan(Direction::Out, 1, &ctx).map(drop));
        corrupt(g.distinct_neighbor_scan(Direction::Both, &ctx).map(drop));
        corrupt(
            g.scan_edges(&ctx)
                .unwrap()
                .collect::<GdbResult<Vec<_>>>()
                .map(drop),
        );
        corrupt(g.add_edge(a, b, "l", &vec![]).map(drop));
        g.store.put(&key, &cell);
        assert_eq!(g.edge_count(&ctx), Ok(1));

        // An empty label cell.
        g.store.put(&ColumnarGraph::key_label(b.0), &[]);
        corrupt(g.vertex(b).map(drop));
        corrupt(g.vertex_label(b).map(drop));

        // A key of no known shape.
        g.store.put(&[0, 0, 0, 0, 0, 0, 0, 9, 0x7F], b"?");
        corrupt(g.vertex_count(&ctx).map(drop));
        corrupt(
            g.scan_vertices(&ctx)
                .unwrap()
                .collect::<GdbResult<Vec<_>>>()
                .map(drop),
        );
    }

    #[test]
    fn variants_differ_in_store_tuning() {
        let v05 = ColumnarGraph::v05();
        let v10 = ColumnarGraph::v10();
        assert_ne!(v05.name(), v10.name());
    }
}
