//! # engine-relational — the Sqlg/Postgres-class hybrid engine
//!
//! Reproduces the architecture the paper describes for Sqlg (§3.1/§3.2):
//!
//! * "every vertex type \[is\] a separate table and edge labels \[are\]
//!   many-to-many join tables";
//! * edge tables carry **foreign-key B+Tree indexes** on both endpoints, so
//!   a label-restricted hop is one indexed probe — the reason Sqlg "performs
//!   extremely well" on 1–2-hop single-label traversals (§6.3);
//! * an **unlabeled** hop must union over *every* edge table ("it accesses
//!   all tables for all edges, and performs very large joins") — the reason
//!   Sqlg is "the slowest engine" for BFS/shortest-path (§6.4);
//! * property search scans a single column without materializing rows,
//!   making Q11–Q13 "an order of magnitude faster than the others" (§6.4),
//!   and user indexes bring the relational engine its documented further
//!   speed-up (Figure 4c);
//! * adding a property whose **column does not exist yet is an
//!   `ALTER TABLE`** that rewrites the table — the paper's "much slower for
//!   all other queries where it has to change the table structure";
//! * identifier length is capped (Postgres truncates at 63 bytes; the paper
//!   notes Sqlg "has a limit on the maximum length of labels").

use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, LoadStats,
    SpaceReport, VertexData,
};
use gm_model::fxmap::FxHashMap;
use gm_model::interner::Interner;
use gm_model::value::{Props, Value};
use gm_model::{Dataset, Eid, GdbError, GdbResult, QueryCtx, Vid};
use gm_storage::bptree::BPlusTree;

/// Postgres-style identifier length cap.
pub const MAX_IDENTIFIER_LEN: usize = 63;

const ROW_BITS: u64 = 40;
const ROW_MASK: u64 = (1 << ROW_BITS) - 1;

fn gid(table: u32, row: u64) -> u64 {
    ((table as u64) << ROW_BITS) | row
}

fn gid_table(g: u64) -> u32 {
    (g >> ROW_BITS) as u32
}

fn gid_row(g: u64) -> u64 {
    g & ROW_MASK
}

/// A vertex table: one per vertex label.
#[derive(Debug, Default, Clone)]
struct VertexTable {
    /// Column key ids in declaration order.
    columns: Vec<u32>,
    /// Rows; `None` = deleted. Cell layout parallels `columns`.
    rows: Vec<Option<Vec<Option<Value>>>>,
    live: u64,
    /// Secondary indexes: column -> (value, row) -> ().
    indexes: FxHashMap<u32, BPlusTree<(Value, u64), ()>>,
    /// Rewrites caused by ALTER TABLE (exposed for tests/ablation).
    alter_count: u64,
}

impl VertexTable {
    fn column_pos(&self, key: u32) -> Option<usize> {
        self.columns.iter().position(|&c| c == key)
    }

    /// Ensure a column exists; returns its position. A new column is an
    /// ALTER TABLE: every existing row is rewritten.
    fn ensure_column(&mut self, key: u32) -> usize {
        if let Some(p) = self.column_pos(key) {
            return p;
        }
        self.columns.push(key);
        for row in self.rows.iter_mut().flatten() {
            row.push(None); // physical rewrite of the tuple
        }
        self.alter_count += 1;
        self.columns.len() - 1
    }

    fn index_insert(&mut self, key: u32, value: &Value, row: u64) {
        if let Some(idx) = self.indexes.get_mut(&key) {
            idx.insert((value.clone(), row), ());
        }
    }

    fn index_remove(&mut self, key: u32, value: &Value, row: u64) {
        if let Some(idx) = self.indexes.get_mut(&key) {
            idx.remove(&(value.clone(), row));
        }
    }

    fn bytes(&self) -> u64 {
        let mut total = 64 + self.columns.len() as u64 * 8;
        for row in self.rows.iter().flatten() {
            total += 24;
            for cell in row.iter().flatten() {
                total += cell.approx_bytes();
            }
        }
        for idx in self.indexes.values() {
            total += idx.approx_bytes(|(v, _)| v.approx_bytes() + 8, |_| 0);
        }
        total
    }
}

/// One edge row: (src gid, dst gid, property cells).
type EdgeRow = (u64, u64, Vec<Option<Value>>);

/// An edge table: one per edge label (a many-to-many join table).
#[derive(Debug, Default, Clone)]
struct EdgeTable {
    columns: Vec<u32>,
    /// Rows; `None` = deleted.
    rows: Vec<Option<EdgeRow>>,
    live: u64,
    /// FK indexes: endpoint gid -> row ids.
    src_index: BPlusTree<(u64, u64), ()>,
    dst_index: BPlusTree<(u64, u64), ()>,
    alter_count: u64,
}

impl EdgeTable {
    fn column_pos(&self, key: u32) -> Option<usize> {
        self.columns.iter().position(|&c| c == key)
    }

    fn ensure_column(&mut self, key: u32) -> usize {
        if let Some(p) = self.column_pos(key) {
            return p;
        }
        self.columns.push(key);
        for row in self.rows.iter_mut().flatten() {
            row.2.push(None);
        }
        self.alter_count += 1;
        self.columns.len() - 1
    }

    /// Rows whose endpoint matches, via the FK index, read lazily off its
    /// range.
    fn rows_by_endpoint(&self, endpoint: u64, src_side: bool) -> impl Iterator<Item = u64> + '_ {
        let idx = if src_side {
            &self.src_index
        } else {
            &self.dst_index
        };
        idx.range(&(endpoint, 0), Some(&(endpoint + 1, 0)))
            .map(|((_, row), _)| *row)
    }

    fn bytes(&self) -> u64 {
        let mut total = 64 + self.columns.len() as u64 * 8;
        for (_, _, cells) in self.rows.iter().flatten() {
            total += 40;
            for cell in cells.iter().flatten() {
                total += cell.approx_bytes();
            }
        }
        total += self.src_index.approx_bytes(|_| 16, |_| 0);
        total += self.dst_index.approx_bytes(|_| 16, |_| 0);
        total
    }
}

/// The Sqlg-class engine. See crate docs for the layout.
#[derive(Clone)]
pub struct RelationalGraph {
    vtables: Vec<VertexTable>,
    etables: Vec<EdgeTable>,
    vlabels: Interner,
    elabels: Interner,
    keys: Interner,
    vmap: Vec<u64>,
    emap: Vec<u64>,
}

impl Default for RelationalGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl RelationalGraph {
    /// A fresh, empty engine.
    pub fn new() -> Self {
        RelationalGraph {
            vtables: Vec::new(),
            etables: Vec::new(),
            vlabels: Interner::new(),
            elabels: Interner::new(),
            keys: Interner::new(),
            vmap: Vec::new(),
            emap: Vec::new(),
        }
    }

    fn check_identifier(name: &str) -> GdbResult<()> {
        gm_model::api::check_identifier(name, MAX_IDENTIFIER_LEN)
    }

    fn vtable_for(&mut self, label: &str) -> GdbResult<u32> {
        Self::check_identifier(label)?;
        let id = self.vlabels.intern(label);
        while self.vtables.len() <= id as usize {
            self.vtables.push(VertexTable::default());
        }
        Ok(id)
    }

    fn etable_for(&mut self, label: &str) -> GdbResult<u32> {
        Self::check_identifier(label)?;
        let id = self.elabels.intern(label);
        while self.etables.len() <= id as usize {
            self.etables.push(EdgeTable::default());
        }
        Ok(id)
    }

    fn vrow(&self, v: u64) -> GdbResult<&Vec<Option<Value>>> {
        self.vtables
            .get(gid_table(v) as usize)
            .and_then(|t| t.rows.get(gid_row(v) as usize))
            .and_then(|r| r.as_ref())
            .ok_or(GdbError::VertexNotFound(v))
    }

    fn erow(&self, e: u64) -> GdbResult<&EdgeRow> {
        self.etables
            .get(gid_table(e) as usize)
            .and_then(|t| t.rows.get(gid_row(e) as usize))
            .and_then(|r| r.as_ref())
            .ok_or(GdbError::EdgeNotFound(e))
    }

    fn insert_vertex_row(&mut self, table: u32, props: &Props) -> GdbResult<u64> {
        for (name, _) in props {
            Self::check_identifier(name)?;
        }
        let keys: Vec<u32> = props.iter().map(|(n, _)| self.keys.intern(n)).collect();
        let t = &mut self.vtables[table as usize];
        let positions: Vec<usize> = keys.iter().map(|&k| t.ensure_column(k)).collect();
        let mut cells: Vec<Option<Value>> = vec![None; t.columns.len()];
        for (pos, (_, value)) in positions.iter().zip(props) {
            cells[*pos] = Some(value.clone());
        }
        let row = t.rows.len() as u64;
        t.rows.push(Some(cells));
        t.live += 1;
        for (k, (_, value)) in keys.iter().zip(props) {
            t.index_insert(*k, value, row);
        }
        Ok(gid(table, row))
    }

    fn insert_edge_row(&mut self, table: u32, src: u64, dst: u64, props: &Props) -> GdbResult<u64> {
        for (name, _) in props {
            Self::check_identifier(name)?;
        }
        let keys: Vec<u32> = props.iter().map(|(n, _)| self.keys.intern(n)).collect();
        let t = &mut self.etables[table as usize];
        let positions: Vec<usize> = keys.iter().map(|&k| t.ensure_column(k)).collect();
        let mut cells: Vec<Option<Value>> = vec![None; t.columns.len()];
        for (pos, (_, value)) in positions.iter().zip(props) {
            cells[*pos] = Some(value.clone());
        }
        let row = t.rows.len() as u64;
        t.rows.push(Some((src, dst, cells)));
        t.live += 1;
        t.src_index.insert((src, row), ());
        t.dst_index.insert((dst, row), ());
        Ok(gid(table, row))
    }

    fn resolve_key(&self, name: &str) -> Option<u32> {
        self.keys.get(name)
    }

    fn named_props(&self, columns: &[u32], cells: &[Option<Value>]) -> Props {
        columns
            .iter()
            .zip(cells)
            .filter_map(|(k, cell)| {
                cell.as_ref().map(|v| {
                    (
                        self.keys.resolve(*k).expect("known key").to_string(),
                        v.clone(),
                    )
                })
            })
            .collect()
    }
}

impl GraphSnapshot for RelationalGraph {
    fn name(&self) -> String {
        "relational".into()
    }

    fn features(&self) -> EngineFeatures {
        EngineFeatures {
            name: self.name(),
            system_type: "Hybrid (Relational)".into(),
            storage: "Tables (one per vertex/edge label)".into(),
            edge_traversal: "Table join".into(),
            optimized_adapter: true,
            async_writes: false,
            attribute_indexes: true,
            max_identifier_len: Some(MAX_IDENTIFIER_LEN as u32),
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
        for t in &self.vtables {
            for row in &t.rows {
                ctx.tick()?;
                if row.is_some() {
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut n = 0u64;
        for t in &self.etables {
            for row in &t.rows {
                ctx.tick()?;
                if row.is_some() {
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let mut out = Vec::new();
        for (table, t) in self.etables.iter().enumerate() {
            ctx.tick_n(t.rows.len() as u64)?;
            if t.live > 0 {
                out.push(
                    self.elabels
                        .resolve(table as u32)
                        .expect("table label")
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
        let Some(key) = self.resolve_key(name) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (table, t) in self.vtables.iter().enumerate() {
            // Indexed probe when available.
            if let Some(idx) = t.indexes.get(&key) {
                ctx.tick()?;
                for ((_, row), _) in
                    idx.range(&(value.clone(), 0), Some(&(value.clone(), u64::MAX)))
                {
                    out.push(Vid(gid(table as u32, *row)));
                }
                continue;
            }
            // Column scan otherwise — cheap per row, no materialization.
            let Some(pos) = t.column_pos(key) else {
                continue; // table has no such column at all
            };
            for (row, cells) in t.rows.iter().enumerate() {
                ctx.tick()?;
                if let Some(cells) = cells {
                    if cells[pos].as_ref() == Some(value) {
                        out.push(Vid(gid(table as u32, row as u64)));
                    }
                }
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
        let Some(key) = self.resolve_key(name) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (table, t) in self.etables.iter().enumerate() {
            let Some(pos) = t.column_pos(key) else {
                continue;
            };
            for (row, cells) in t.rows.iter().enumerate() {
                ctx.tick()?;
                if let Some((_, _, cells)) = cells {
                    if cells[pos].as_ref() == Some(value) {
                        out.push(Eid(gid(table as u32, row as u64)));
                    }
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        let Some(table) = self.elabels.get(label) else {
            return Ok(Vec::new());
        };
        let t = &self.etables[table as usize];
        let mut out = Vec::with_capacity(t.live as usize);
        for (row, cells) in t.rows.iter().enumerate() {
            ctx.tick()?;
            if cells.is_some() {
                out.push(Eid(gid(table, row as u64)));
            }
        }
        Ok(out)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        match self.vrow(v.0) {
            Err(_) => Ok(None),
            Ok(cells) => {
                let t = &self.vtables[gid_table(v.0) as usize];
                Ok(Some(VertexData {
                    id: v,
                    label: self
                        .vlabels
                        .resolve(gid_table(v.0))
                        .unwrap_or("<unknown>")
                        .to_string(),
                    props: self.named_props(&t.columns, cells),
                }))
            }
        }
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        match self.erow(e.0) {
            Err(_) => Ok(None),
            Ok((src, dst, cells)) => {
                let t = &self.etables[gid_table(e.0) as usize];
                Ok(Some(EdgeData {
                    id: e,
                    src: Vid(*src),
                    dst: Vid(*dst),
                    label: self
                        .elabels
                        .resolve(gid_table(e.0))
                        .unwrap_or("<unknown>")
                        .to_string(),
                    props: self.named_props(&t.columns, cells),
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
        self.vrow(v.0)?;
        // Label given: single join table, indexed probe. No label: union
        // over every edge table (the expensive plan).
        let tables = match label {
            Some(l) => match self.elabels.get(l) {
                Some(t) => t..t + 1,
                None => return Ok(()),
            },
            None => 0..self.etables.len() as u32,
        };
        for table in tables {
            let t = &self.etables[table as usize];
            ctx.tick()?; // per-table probe cost (join setup)
            if matches!(dir, Direction::Out | Direction::Both) {
                for row in t.rows_by_endpoint(v.0, true) {
                    ctx.tick()?;
                    let (_, dst, _) = t.rows[row as usize].as_ref().expect("indexed row");
                    f(EdgeRef {
                        eid: Eid(gid(table, row)),
                        other: Vid(*dst),
                    })?;
                }
            }
            if matches!(dir, Direction::In | Direction::Both) {
                for row in t.rows_by_endpoint(v.0, false) {
                    ctx.tick()?;
                    let (src, _, _) = t.rows[row as usize].as_ref().expect("indexed row");
                    f(EdgeRef {
                        eid: Eid(gid(table, row)),
                        other: Vid(*src),
                    })?;
                }
            }
        }
        Ok(())
    }

    // Not the walk: one tick per edge table, counting its endpoint index.
    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        self.vrow(v.0)?;
        let mut n = 0u64;
        for t in &self.etables {
            ctx.tick()?;
            if matches!(dir, Direction::Out | Direction::Both) {
                n += t.rows_by_endpoint(v.0, true).count() as u64;
            }
            if matches!(dir, Direction::In | Direction::Both) {
                n += t.rows_by_endpoint(v.0, false).count() as u64;
            }
        }
        Ok(n)
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        self.vrow(v.0)?;
        let mut out = Vec::new();
        for (table, t) in self.etables.iter().enumerate() {
            ctx.tick()?;
            let mut any = false;
            if matches!(dir, Direction::Out | Direction::Both) {
                any |= t.rows_by_endpoint(v.0, true).next().is_some();
            }
            if !any && matches!(dir, Direction::In | Direction::Both) {
                any |= t.rows_by_endpoint(v.0, false).next().is_some();
            }
            if any {
                out.push(
                    self.elabels
                        .resolve(table as u32)
                        .expect("table label")
                        .to_string(),
                );
            }
        }
        Ok(out)
    }

    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        Ok(Box::new(self.vtables.iter().enumerate().flat_map(
            move |(table, t)| {
                t.rows.iter().enumerate().filter_map(move |(row, cells)| {
                    if let Err(e) = ctx.tick() {
                        return Some(Err(e));
                    }
                    cells
                        .as_ref()
                        .map(|_| Ok(Vid(gid(table as u32, row as u64))))
                })
            },
        )))
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        Ok(Box::new(self.etables.iter().enumerate().flat_map(
            move |(table, t)| {
                t.rows.iter().enumerate().filter_map(move |(row, cells)| {
                    if let Err(e) = ctx.tick() {
                        return Some(Err(e));
                    }
                    cells
                        .as_ref()
                        .map(|_| Ok(Eid(gid(table as u32, row as u64))))
                })
            },
        )))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let cells = self.vrow(v.0)?;
        let Some(key) = self.resolve_key(name) else {
            return Ok(None);
        };
        let t = &self.vtables[gid_table(v.0) as usize];
        Ok(t.column_pos(key).and_then(|pos| cells[pos].clone()))
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let (_, _, cells) = self.erow(e.0)?;
        let Some(key) = self.resolve_key(name) else {
            return Ok(None);
        };
        let t = &self.etables[gid_table(e.0) as usize];
        Ok(t.column_pos(key).and_then(|pos| cells[pos].clone()))
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        match self.erow(e.0) {
            Err(_) => Ok(None),
            Ok((src, dst, _)) => Ok(Some((Vid(*src), Vid(*dst)))),
        }
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        if self.erow(e.0).is_err() {
            return Ok(None);
        }
        Ok(self.elabels.resolve(gid_table(e.0)).map(String::from))
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        if self.vrow(v.0).is_err() {
            return Ok(None);
        }
        Ok(self.vlabels.resolve(gid_table(v.0)).map(String::from))
    }

    fn distinct_neighbor_scan(&self, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<Vid>> {
        // The optimized adapter conflates `g.V.out.dedup()` into
        // `SELECT DISTINCT dst FROM <every edge table>` — one sequential
        // pass per table instead of a probe per vertex.
        let mut out = Vec::new();
        for t in &self.etables {
            for row in t.rows.iter().flatten() {
                ctx.tick()?;
                let (src, dst, _) = row;
                if matches!(dir, Direction::Out | Direction::Both) {
                    out.push(Vid(*dst));
                }
                if matches!(dir, Direction::In | Direction::Both) {
                    out.push(Vid(*src));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        self.keys
            .get(prop)
            .map(|k| self.vtables.iter().any(|t| t.indexes.contains_key(&k)))
            .unwrap_or(false)
    }

    fn space(&self) -> SpaceReport {
        let mut r = SpaceReport::default();
        r.add(
            "vertex tables",
            self.vtables.iter().map(|t| t.bytes()).sum::<u64>(),
        );
        r.add(
            "edge tables (incl. FK indexes)",
            self.etables.iter().map(|t| t.bytes()).sum::<u64>(),
        );
        r.add(
            "catalog",
            self.vlabels.bytes() + self.elabels.bytes() + self.keys.bytes(),
        );
        r
    }
}

/// The write bodies behind [`GraphDb::apply`] (`gm_model::engine_apply!`).
impl RelationalGraph {
    fn load_dataset(&mut self, data: &Dataset, _opts: &LoadOptions) -> GdbResult<LoadStats> {
        if !self.vmap.is_empty() {
            return Err(GdbError::Invalid(
                "bulk_load requires an empty engine".into(),
            ));
        }
        // Declare the full schema first (one ALTER storm avoided), as Sqlg's
        // COPY-based loader effectively does.
        for v in &data.vertices {
            let table = self.vtable_for(&v.label)?;
            let keys: Vec<u32> = v.props.iter().map(|(n, _)| self.keys.intern(n)).collect();
            let t = &mut self.vtables[table as usize];
            for k in keys {
                t.ensure_column(k);
            }
        }
        for v in &data.vertices {
            let table = self.vtable_for(&v.label)?;
            let g = self.insert_vertex_row(table, &v.props)?;
            self.vmap.push(g);
        }
        for e in &data.edges {
            let table = self.etable_for(&e.label)?;
            let g = self.insert_edge_row(
                table,
                self.vmap[e.src as usize],
                self.vmap[e.dst as usize],
                &e.props,
            )?;
            self.emap.push(g);
        }
        Ok(LoadStats {
            vertices: data.vertices.len() as u64,
            edges: data.edges.len() as u64,
        })
    }

    fn insert_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        let table = self.vtable_for(label)?;
        Ok(Vid(self.insert_vertex_row(table, props)?))
    }

    fn insert_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        self.vrow(src.0)?;
        self.vrow(dst.0)?;
        let table = self.etable_for(label)?;
        Ok(Eid(self.insert_edge_row(table, src.0, dst.0, props)?))
    }

    fn put_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        self.vrow(v.0)?;
        Self::check_identifier(name)?;
        let key = self.keys.intern(name);
        let t = &mut self.vtables[gid_table(v.0) as usize];
        let pos = t.ensure_column(key);
        let row = gid_row(v.0);
        let cells = t.rows[row as usize].as_mut().expect("checked live");
        let old = cells[pos].replace(value.clone());
        if let Some(old) = old {
            t.index_remove(key, &old, row);
        }
        t.index_insert(key, &value, row);
        Ok(())
    }

    fn put_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        self.erow(e.0)?;
        Self::check_identifier(name)?;
        let key = self.keys.intern(name);
        let t = &mut self.etables[gid_table(e.0) as usize];
        let pos = t.ensure_column(key);
        let row = gid_row(e.0);
        let cells = &mut t.rows[row as usize].as_mut().expect("checked live").2;
        cells[pos] = Some(value);
        Ok(())
    }

    fn delete_vertex(&mut self, v: Vid) -> GdbResult<()> {
        self.vrow(v.0)?;
        // Delete incident edges: probe the FK indexes of every edge table.
        let mut incident: Vec<u64> = Vec::new();
        for (table, t) in self.etables.iter().enumerate() {
            for row in t.rows_by_endpoint(v.0, true) {
                incident.push(gid(table as u32, row));
            }
            for row in t.rows_by_endpoint(v.0, false) {
                incident.push(gid(table as u32, row));
            }
        }
        incident.sort_unstable();
        incident.dedup();
        for e in incident {
            self.delete_edge(Eid(e))?;
        }
        let table = gid_table(v.0);
        let row = gid_row(v.0);
        let t = &mut self.vtables[table as usize];
        // Drop index entries for this row.
        let cells = t.rows[row as usize].take().expect("checked live");
        t.live -= 1;
        let columns = t.columns.clone();
        for (k, cell) in columns.iter().zip(cells) {
            if let Some(value) = cell {
                t.index_remove(*k, &value, row);
            }
        }
        Ok(())
    }

    fn delete_edge(&mut self, e: Eid) -> GdbResult<()> {
        self.erow(e.0)?;
        let table = gid_table(e.0);
        let row = gid_row(e.0);
        let t = &mut self.etables[table as usize];
        let (src, dst, _) = t.rows[row as usize].take().expect("checked live");
        t.live -= 1;
        t.src_index.remove(&(src, row));
        t.dst_index.remove(&(dst, row));
        Ok(())
    }

    fn delete_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.vrow(v.0)?;
        let Some(key) = self.resolve_key(name) else {
            return Ok(None);
        };
        let t = &mut self.vtables[gid_table(v.0) as usize];
        let Some(pos) = t.column_pos(key) else {
            return Ok(None);
        };
        let row = gid_row(v.0);
        let cells = t.rows[row as usize].as_mut().expect("checked live");
        let old = cells[pos].take();
        if let Some(old) = &old {
            t.index_remove(key, old, row);
        }
        Ok(old)
    }

    fn delete_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        self.erow(e.0)?;
        let Some(key) = self.resolve_key(name) else {
            return Ok(None);
        };
        let t = &mut self.etables[gid_table(e.0) as usize];
        let Some(pos) = t.column_pos(key) else {
            return Ok(None);
        };
        let cells = &mut t.rows[gid_row(e.0) as usize]
            .as_mut()
            .expect("checked live")
            .2;
        Ok(cells[pos].take())
    }

    fn build_vertex_index(&mut self, prop: &str) -> GdbResult<()> {
        let key = self.keys.intern(prop);
        for t in self.vtables.iter_mut() {
            if t.indexes.contains_key(&key) {
                continue;
            }
            let Some(pos) = t.column_pos(key) else {
                continue;
            };
            let mut idx: BPlusTree<(Value, u64), ()> = BPlusTree::new();
            for (row, cells) in t.rows.iter().enumerate() {
                if let Some(cells) = cells {
                    if let Some(value) = &cells[pos] {
                        idx.insert((value.clone(), row as u64), ());
                    }
                }
            }
            t.indexes.insert(key, idx);
        }
        Ok(())
    }
}

impl GraphDb for RelationalGraph {
    gm_model::engine_apply!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_model::testkit;

    #[test]
    fn conformance() {
        testkit::conformance_suite(&mut || Box::new(RelationalGraph::new()));
    }

    #[test]
    fn one_table_per_label() {
        let mut g = RelationalGraph::new();
        g.add_vertex("person", &vec![]).unwrap();
        g.add_vertex("city", &vec![]).unwrap();
        g.add_vertex("person", &vec![]).unwrap();
        assert_eq!(g.vtables.len(), 2);
        assert_eq!(g.vtables[0].live, 2);
        assert_eq!(g.vtables[1].live, 1);
    }

    #[test]
    fn new_property_triggers_alter_table() {
        let mut g = RelationalGraph::new();
        let vids: Vec<Vid> = (0..10)
            .map(|_| {
                g.add_vertex("n", &vec![("a".into(), Value::Int(1))])
                    .unwrap()
            })
            .collect();
        assert_eq!(g.vtables[0].alter_count, 1, "column 'a' added once");
        g.set_vertex_property(vids[0], "b", Value::Int(2)).unwrap();
        assert_eq!(g.vtables[0].alter_count, 2, "new column = ALTER TABLE");
        // Every row was rewritten to the new arity.
        for row in g.vtables[0].rows.iter().flatten() {
            assert_eq!(row.len(), 2);
        }
        // Setting an existing column does not alter.
        g.set_vertex_property(vids[1], "b", Value::Int(3)).unwrap();
        assert_eq!(g.vtables[0].alter_count, 2);
    }

    #[test]
    fn labeled_hop_probes_one_table() {
        let mut g = RelationalGraph::new();
        let a = g.add_vertex("n", &vec![]).unwrap();
        for i in 0..50 {
            let b = g.add_vertex("n", &vec![]).unwrap();
            g.add_edge(a, b, &format!("label{}", i % 10), &vec![])
                .unwrap();
        }
        let labeled = QueryCtx::unbounded();
        let hits = g
            .neighbors(a, Direction::Out, Some("label3"), &labeled)
            .unwrap();
        assert_eq!(hits.len(), 5);
        let unlabeled = QueryCtx::unbounded();
        g.neighbors(a, Direction::Out, None, &unlabeled).unwrap();
        assert!(
            labeled.work() * 3 < unlabeled.work(),
            "unlabeled hop unions all tables ({} vs {})",
            labeled.work(),
            unlabeled.work()
        );
    }

    #[test]
    fn long_identifiers_rejected() {
        let mut g = RelationalGraph::new();
        let long = "x".repeat(100);
        assert!(matches!(
            g.add_vertex(&long, &vec![]),
            Err(GdbError::Invalid(_))
        ));
        let v = g.add_vertex("ok", &vec![]).unwrap();
        assert!(matches!(
            g.set_vertex_property(v, &long, Value::Int(1)),
            Err(GdbError::Invalid(_))
        ));
    }

    #[test]
    fn long_non_ascii_identifiers_are_rejected_not_panicked_on() {
        // A 2-byte and a 3-byte char each straddling byte 24, where the
        // error message cuts its quote.
        for (name, quoted) in [
            (
                format!("a{}", "é".repeat(40)),
                format!("a{}", "é".repeat(11)),
            ),
            (
                format!("ab{}", "€".repeat(30)),
                format!("ab{}", "€".repeat(7)),
            ),
        ] {
            assert!(!name.is_char_boundary(24));
            let mut g = RelationalGraph::new();
            let a = g.add_vertex("ok", &vec![]).unwrap();
            let b = g.add_vertex("ok", &vec![]).unwrap();
            let e = g.add_edge(a, b, "ok", &vec![]).unwrap();
            let prop = vec![(name.clone(), Value::Int(1))];
            let results = [
                g.add_vertex(&name, &vec![]).map(|_| ()),
                g.add_edge(a, b, &name, &vec![]).map(|_| ()),
                g.add_vertex("ok", &prop).map(|_| ()),
                g.add_edge(a, b, "ok", &prop).map(|_| ()),
                g.set_vertex_property(a, &name, Value::Int(1)),
                g.set_edge_property(e, &name, Value::Int(1)),
            ];
            for result in results {
                match result {
                    Err(GdbError::Invalid(msg)) => {
                        assert!(msg.contains(&format!("'{quoted}…'")), "{msg}")
                    }
                    other => panic!("expected Invalid, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn index_probe_beats_column_scan() {
        let mut g = RelationalGraph::new();
        for i in 0..2000i64 {
            g.add_vertex("n", &vec![("x".into(), Value::Int(i % 100))])
                .unwrap();
        }
        let scan_ctx = QueryCtx::unbounded();
        let scan_hits = g
            .vertices_with_property("x", &Value::Int(7), &scan_ctx)
            .unwrap();
        g.create_vertex_index("x").unwrap();
        let idx_ctx = QueryCtx::unbounded();
        let idx_hits = g
            .vertices_with_property("x", &Value::Int(7), &idx_ctx)
            .unwrap();
        assert_eq!(scan_hits, idx_hits);
        assert!(
            idx_ctx.work() * 100 < scan_ctx.work(),
            "index probe is orders faster ({} vs {})",
            idx_ctx.work(),
            scan_ctx.work()
        );
    }

    #[test]
    fn fk_indexes_survive_deletions() {
        let mut g = RelationalGraph::new();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        let e1 = g.add_edge(a, b, "l", &vec![]).unwrap();
        let _e2 = g.add_edge(a, b, "l", &vec![]).unwrap();
        g.remove_edge(e1).unwrap();
        let ctx = QueryCtx::unbounded();
        assert_eq!(g.neighbors(a, Direction::Out, None, &ctx).unwrap(), vec![b]);
        assert_eq!(g.vertex_degree(b, Direction::In, &ctx).unwrap(), 1);
    }
}
