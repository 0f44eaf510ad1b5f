//! # engine-linked — the Neo4j-class native engine
//!
//! Reproduces the physical architecture the paper describes for Neo4j
//! (§3.2, *Native System Architectures*):
//!
//! * one fixed-size **record file** each for nodes, edges, properties and
//!   relationship groups; ids are file offsets, so id lookup is O(1)
//!   arithmetic;
//! * node records point at the **first edge of a doubly-linked edge chain**;
//!   the other edges are found by following links, so visiting a node's
//!   neighbors costs O(degree), independent of graph size;
//! * properties are **off-loaded** into linked property records with string
//!   payloads in a dynamic string store — scanning the graph structure never
//!   materializes attribute data (the separation the paper's conclusions
//!   single out as the winning design), and a `has()` filter reads each
//!   property record in place: it walks the chain and compares a string's
//!   length, then its string-store bytes, so a scan allocates per match,
//!   not per record;
//! * two variants mirror the two tested versions:
//!   [`Variant::V1`] (Neo4j 1.9) keeps one untyped chain pair per node;
//!   [`Variant::V2`] (Neo4j 3.0) splits chains **by edge type and
//!   direction** (relationship groups) and routes every element access
//!   through a TinkerPop-style wrapper shim that materializes a wrapper
//!   object per touched element — reproducing both §6.4 observations
//!   ("Progress across Versions"): v2 wins on label-filtered traversals and
//!   loses on CUD / search-by-id / unfiltered edge walks.
//!
//! `Clone` is **structurally cheap**: every field that grows with the graph
//! is a paged, `Arc`-shared store ([`RecordFile`], [`SegVec`], the
//! interners, one `Arc` per attribute index), so a clone bumps reference
//! counts and a write after it copies only the pages it lands in — what
//! makes a copy-on-write MVCC epoch cost O(pages touched), not O(graph).

use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, SpaceReport,
    VertexData,
};
use gm_model::fxmap::FxHashMap;
use gm_model::interner::Interner;
use gm_model::value::{Props, Value};
use gm_model::{Dataset, Eid, GdbError, GdbResult, LoadedIds, QueryCtx, Resolution, Vid};
use gm_storage::records::RecordFile;
use gm_storage::segvec::SegVec;
use std::sync::Arc;

const NIL: u64 = u64::MAX;
/// Group key used by V1 for its single untyped relationship chain.
const UNTYPED: u32 = u32::MAX;

const NODE_REC: usize = 16; // label u32 | first_prop u64
const EDGE_REC: usize = 64; // src u64 | dst u64 | label u32 | src_prev | src_next | dst_prev | dst_next | first_prop
const PROP_REC: usize = 32; // key u32 | tag u8 | payload [16] | next u64
const GROUP_REC: usize = 28; // label u32 | first_out u64 | first_in u64 | next u64

/// Bytes per page of the dynamic string store.
const STRING_PAGE: usize = 4096;

/// Offsets of the chain heads and the next-group link in a group record.
const GROUP_FIRST_OUT: usize = 4;
const GROUP_FIRST_IN: usize = 12;
const GROUP_NEXT: usize = 20;

/// Engine variant, mirroring the two Neo4j versions of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Neo4j 1.9-style: one untyped doubly-linked chain pair per node,
    /// direct API calls without wrapper overhead.
    V1,
    /// Neo4j 3.0-style: relationship chains split by (type, direction)
    /// groups, plus a per-access wrapper shim.
    V2,
}

/// One attribute index: value -> vertex ids.
type AttrIndex = FxHashMap<Value, Vec<u64>>;

/// The Neo4j-class engine. See the crate docs for the layout.
#[derive(Clone)]
pub struct LinkedGraph {
    variant: Variant,
    nodes: RecordFile,
    edges: RecordFile,
    props: RecordFile,
    /// Relationship group records (edge chain heads for one edge type),
    /// chained per node in creation order. V1 keeps exactly one [`UNTYPED`]
    /// group per node; V2 one group per incident edge label.
    groups: RecordFile,
    /// First group record of each node slot, [`NIL`] for none.
    group_heads: SegVec<u64>,
    strings: SegVec<u8>,
    labels: Interner,
    keys: Interner,
    /// Where the bulk load placed each canonical element.
    resolution: Resolution,
    /// User-created attribute indexes by key id, each shared with clones
    /// until a write hits it.
    indexes: FxHashMap<u32, Arc<AttrIndex>>,
    /// Running totals of the `space()` byte model for the relationship
    /// groups and the attribute indexes, so `space()` never walks them.
    group_bytes: u64,
    index_bytes: u64,
}

/// `space()` bytes of one index entry: the key, its id list, map overhead.
fn index_entry_bytes(value: &Value, ids: usize) -> u64 {
    value.approx_bytes() + 8 * ids as u64 + 32
}

impl LinkedGraph {
    /// A fresh, empty engine of the given variant.
    pub fn new(variant: Variant) -> Self {
        LinkedGraph {
            variant,
            nodes: RecordFile::new(NODE_REC),
            edges: RecordFile::new(EDGE_REC),
            props: RecordFile::new(PROP_REC),
            groups: RecordFile::new(GROUP_REC),
            group_heads: SegVec::new(),
            strings: SegVec::with_rows(1, STRING_PAGE),
            labels: Interner::new(),
            keys: Interner::new(),
            resolution: Resolution::default(),
            indexes: FxHashMap::default(),
            group_bytes: 0,
            index_bytes: 0,
        }
    }

    /// Convenience constructor for the 1.9-style variant.
    pub fn v1() -> Self {
        Self::new(Variant::V1)
    }

    /// Convenience constructor for the 3.0-style variant.
    pub fn v2() -> Self {
        Self::new(Variant::V2)
    }

    // ---- record field helpers ------------------------------------------

    fn read_u64(rec: &[u8], off: usize) -> u64 {
        u64::from_le_bytes(rec[off..off + 8].try_into().expect("field"))
    }

    fn read_u32(rec: &[u8], off: usize) -> u32 {
        u32::from_le_bytes(rec[off..off + 4].try_into().expect("field"))
    }

    fn write_u64(rec: &mut [u8], off: usize, v: u64) {
        rec[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn write_u32(rec: &mut [u8], off: usize, v: u32) {
        rec[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn node_rec(&self, v: u64) -> GdbResult<[u8; NODE_REC]> {
        self.nodes
            .get(v)
            .map(|r| r.try_into().expect("node record size"))
            .ok_or(GdbError::VertexNotFound(v))
    }

    fn edge_rec(&self, e: u64) -> GdbResult<[u8; EDGE_REC]> {
        self.edges
            .get(e)
            .map(|r| r.try_into().expect("edge record size"))
            .ok_or(GdbError::EdgeNotFound(e))
    }

    // ---- TinkerPop wrapper shim (V2 only) ------------------------------

    /// The V2 adapter wraps every touched element into a fresh wrapper
    /// object (the licensing shim of §6.4). We reproduce the *work* of that
    /// wrapper: allocate a wrapper, re-read the element header through the
    /// record file, and resolve its label string.
    #[inline]
    fn wrap_vertex(&self, v: u64) {
        if self.variant == Variant::V2 {
            if let Some(rec) = self.nodes.get(v) {
                let label = Self::read_u32(rec, 0);
                let wrapper = Box::new((v, label, self.labels.resolve(label).map(String::from)));
                std::hint::black_box(&wrapper);
            }
        }
    }

    #[inline]
    fn wrap_edge(&self, e: u64) {
        if self.variant == Variant::V2 {
            if let Some(rec) = self.edges.get(e) {
                let label = Self::read_u32(rec, 16);
                let wrapper = Box::new((e, label, self.labels.resolve(label).map(String::from)));
                std::hint::black_box(&wrapper);
            }
        }
    }

    // ---- string store ---------------------------------------------------

    fn store_string(&mut self, s: &str) -> (u64, u32) {
        let off = self.strings.len() as u64;
        self.strings.extend_from_slice(s.as_bytes());
        (off, s.len() as u32)
    }

    fn load_string(&self, off: u64, len: u32) -> String {
        let mut bytes = Vec::with_capacity(len as usize);
        self.strings
            .copy_range(off as usize, len as usize, &mut bytes);
        String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    // ---- property chains -------------------------------------------------

    fn encode_prop(&mut self, key: u32, value: &Value, next: u64) -> Vec<u8> {
        let mut rec = vec![0u8; PROP_REC];
        Self::write_u32(&mut rec, 0, key);
        match value {
            Value::Null => rec[4] = 0,
            Value::Bool(b) => {
                rec[4] = 1;
                rec[5] = *b as u8;
            }
            Value::Int(i) => {
                rec[4] = 2;
                rec[5..13].copy_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                rec[4] = 3;
                rec[5..13].copy_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                rec[4] = 4;
                let (off, len) = self.store_string(s);
                Self::write_u64(&mut rec, 5, off);
                Self::write_u32(&mut rec, 13, len);
            }
        }
        Self::write_u64(&mut rec, 21, next);
        rec
    }

    fn decode_prop_value(&self, rec: &[u8]) -> Value {
        match rec[4] {
            0 => Value::Null,
            1 => Value::Bool(rec[5] != 0),
            2 => Value::Int(i64::from_le_bytes(rec[5..13].try_into().expect("int"))),
            3 => Value::Float(f64::from_le_bytes(rec[5..13].try_into().expect("float"))),
            4 => {
                let off = Self::read_u64(rec, 5);
                let len = Self::read_u32(rec, 13);
                Value::Str(self.load_string(off, len))
            }
            t => unreachable!("bad prop tag {t}"),
        }
    }

    /// Whether property record `rec` holds a value equal to `value`, read in
    /// place: a string compares its length, then the string-store bytes;
    /// a scalar decodes without allocating and compares through `Value`'s
    /// own equality (Int/Float cross-equality, `total_cmp` for floats).
    fn prop_eq(&self, rec: &[u8], value: &Value) -> bool {
        match (rec[4], value) {
            (4, Value::Str(want)) => {
                Self::read_u32(rec, 13) as usize == want.len()
                    && self
                        .strings
                        .range_eq(Self::read_u64(rec, 5) as usize, want.as_bytes())
            }
            (4, _) => false,
            _ => self.decode_prop_value(rec) == *value,
        }
    }

    /// Walk a property chain to the record for `key`: `(record_id, record)`.
    fn prop_rec(&self, mut cur: u64, key: u32) -> Option<(u64, &[u8])> {
        while cur != NIL {
            let rec = self.props.get(cur)?;
            if Self::read_u32(rec, 0) == key {
                return Some((cur, rec));
            }
            cur = Self::read_u64(rec, 21);
        }
        None
    }

    /// Walk a property chain, returning `(record_id, value)` for `key`.
    fn find_prop(&self, head: u64, key: u32) -> Option<(u64, Value)> {
        self.prop_rec(head, key)
            .map(|(rid, rec)| (rid, self.decode_prop_value(rec)))
    }

    /// Whether the chain at `head` holds `key = value`, compared in place.
    fn has_prop(&self, head: u64, key: u32, value: &Value) -> bool {
        self.prop_rec(head, key)
            .is_some_and(|(_, rec)| self.prop_eq(rec, value))
    }

    /// Collect a whole property chain.
    fn collect_props(&self, mut cur: u64) -> Props {
        let mut out = Props::new();
        while cur != NIL {
            let Some(rec) = self.props.get(cur) else {
                break;
            };
            let key = Self::read_u32(rec, 0);
            let name = self.keys.resolve(key).unwrap_or("<unknown>").to_string();
            out.push((name, self.decode_prop_value(rec)));
            cur = Self::read_u64(rec, 21);
        }
        out.reverse(); // chains are prepended; restore insertion order
        out
    }

    /// Free every record of a property chain.
    fn free_prop_chain(&mut self, mut cur: u64) {
        while cur != NIL {
            let next = match self.props.get(cur) {
                Some(rec) => Self::read_u64(rec, 21),
                None => break,
            };
            self.props.free(cur);
            cur = next;
        }
    }

    /// Set `key = value` in the chain starting at `head`; returns the new
    /// head and the previous value, if any.
    fn set_prop_in_chain(&mut self, head: u64, key: u32, value: &Value) -> (u64, Option<Value>) {
        if let Some((rid, old)) = self.find_prop(head, key) {
            let next = Self::read_u64(self.props.get(rid).expect("live prop"), 21);
            let rec = self.encode_prop(key, value, next);
            self.props.put(rid, &rec);
            (head, Some(old))
        } else {
            let rec = self.encode_prop(key, value, head);
            let rid = self.props.alloc(&rec);
            (rid, None)
        }
    }

    /// Remove `key` from the chain at `head`; returns (new_head, removed).
    fn remove_prop_in_chain(&mut self, head: u64, key: u32) -> (u64, Option<Value>) {
        let mut prev = NIL;
        let mut cur = head;
        while cur != NIL {
            let rec = match self.props.get(cur) {
                Some(r) => r,
                None => break,
            };
            let next = Self::read_u64(rec, 21);
            if Self::read_u32(rec, 0) == key {
                let old = self.decode_prop_value(rec);
                if prev == NIL {
                    self.props.free(cur);
                    return (next, Some(old));
                }
                let mut prev_rec = self.props.get(prev).expect("live").to_vec();
                Self::write_u64(&mut prev_rec, 21, next);
                self.props.put(prev, &prev_rec);
                self.props.free(cur);
                return (head, Some(old));
            }
            prev = cur;
            cur = next;
        }
        (head, None)
    }

    // ---- relationship groups ---------------------------------------------

    fn group_key(&self, label: u32) -> u32 {
        match self.variant {
            Variant::V1 => UNTYPED,
            Variant::V2 => label,
        }
    }

    fn group_rec(&self, g: u64) -> [u8; GROUP_REC] {
        self.groups
            .get(g)
            .expect("group chains link live records")
            .try_into()
            .expect("group record size")
    }

    fn first_group(&self, node: u64) -> u64 {
        self.group_heads.get(node as usize).copied().unwrap_or(NIL)
    }

    /// The group record of `node` for `label`, appended to the node's chain
    /// if it has none yet.
    fn group_of(&mut self, node: u64, label: u32) -> u64 {
        let key = self.group_key(label);
        let mut last = NIL;
        let mut cur = self.first_group(node);
        while cur != NIL {
            let rec = self.group_rec(cur);
            if Self::read_u32(&rec, 0) == key {
                return cur;
            }
            last = cur;
            cur = Self::read_u64(&rec, GROUP_NEXT);
        }
        let mut rec = [0u8; GROUP_REC];
        Self::write_u32(&mut rec, 0, key);
        Self::write_u64(&mut rec, GROUP_FIRST_OUT, NIL);
        Self::write_u64(&mut rec, GROUP_FIRST_IN, NIL);
        Self::write_u64(&mut rec, GROUP_NEXT, NIL);
        let g = self.groups.alloc(&rec);
        if last == NIL {
            *self
                .group_heads
                .get_mut(node as usize)
                .expect("live node has a group-head slot") = g;
            self.group_bytes += 16;
        } else {
            self.set_group_field(last, GROUP_NEXT, g);
        }
        self.group_bytes += 20;
        g
    }

    fn set_group_field(&mut self, g: u64, off: usize, value: u64) {
        let mut rec = self.group_rec(g);
        Self::write_u64(&mut rec, off, value);
        self.groups.put(g, &rec);
    }

    /// Free every group record of `node` (its edges are already gone).
    fn free_groups(&mut self, node: u64) {
        let mut cur = self.first_group(node);
        if cur == NIL {
            return;
        }
        self.group_bytes -= 16;
        while cur != NIL {
            let next = Self::read_u64(&self.group_rec(cur), GROUP_NEXT);
            self.groups.free(cur);
            self.group_bytes -= 20;
            cur = next;
        }
        *self
            .group_heads
            .get_mut(node as usize)
            .expect("live node has a group-head slot") = NIL;
    }

    /// Walk the chains for (`node`, `dir`, `label`), invoking `f` with
    /// (edge id, edge record, walking_out) until it fails.
    fn walk_edges(
        &self,
        node: u64,
        dir: Direction,
        label: Option<u32>,
        ctx: &QueryCtx,
        mut f: impl FnMut(u64, &[u8; EDGE_REC], bool) -> GdbResult<()>,
    ) -> GdbResult<()> {
        let mut group = self.first_group(node);
        while group != NIL {
            let g = self.group_rec(group);
            group = Self::read_u64(&g, GROUP_NEXT);
            // V1 has a single untyped group that must always be walked;
            // V2 can skip non-matching groups — the split-by-type win.
            if self.variant == Variant::V2
                && label.is_some_and(|want| want != Self::read_u32(&g, 0))
            {
                continue;
            }
            let chains = [
                (Direction::Out, GROUP_FIRST_OUT, true),
                (Direction::In, GROUP_FIRST_IN, false),
            ];
            for (side, head_off, out_chain) in chains {
                if dir != side && dir != Direction::Both {
                    continue;
                }
                let mut cur = Self::read_u64(&g, head_off);
                while cur != NIL {
                    ctx.tick()?;
                    let rec = self.edge_rec(cur)?;
                    let lbl = Self::read_u32(&rec, 16);
                    if label.is_none_or(|want| lbl == want) {
                        f(cur, &rec, out_chain)?;
                    }
                    cur = if out_chain {
                        Self::read_u64(&rec, 28) // src_next
                    } else {
                        Self::read_u64(&rec, 44) // dst_next
                    };
                }
            }
        }
        Ok(())
    }

    /// Unlink edge `e` from the chain of `node` on the given side.
    fn unlink_edge(&mut self, e: u64, node: u64, label: u32, out_side: bool) -> GdbResult<()> {
        let rec = self.edge_rec(e)?;
        let (prev, next) = if out_side {
            (Self::read_u64(&rec, 20), Self::read_u64(&rec, 28))
        } else {
            (Self::read_u64(&rec, 36), Self::read_u64(&rec, 44))
        };
        if prev != NIL {
            let mut prev_rec = self.edge_rec(prev)?;
            // Which side of `prev` points at `e`? prev belongs to the same
            // chain of `node`, so its side is determined by whether node is
            // prev's src (out chain) or dst (in chain).
            let prev_src = Self::read_u64(&prev_rec, 0);
            let off = if out_side && prev_src == node { 28 } else { 44 };
            Self::write_u64(&mut prev_rec, off, next);
            self.edges.put(prev, &prev_rec);
        } else {
            // e was the head: repoint the group.
            let g = self.group_of(node, label);
            let side = if out_side {
                GROUP_FIRST_OUT
            } else {
                GROUP_FIRST_IN
            };
            self.set_group_field(g, side, next);
        }
        if next != NIL {
            let mut next_rec = self.edge_rec(next)?;
            let next_src = Self::read_u64(&next_rec, 0);
            let off = if out_side && next_src == node { 20 } else { 36 };
            Self::write_u64(&mut next_rec, off, prev);
            self.edges.put(next, &next_rec);
        }
        Ok(())
    }

    fn add_edge_internal(
        &mut self,
        src: u64,
        dst: u64,
        label: u32,
        props: &Props,
    ) -> GdbResult<u64> {
        if !self.nodes.is_live(src) {
            return Err(GdbError::VertexNotFound(src));
        }
        if !self.nodes.is_live(dst) {
            return Err(GdbError::VertexNotFound(dst));
        }
        // Build the property chain first.
        let mut first_prop = NIL;
        for (name, value) in props {
            let key = self.keys.intern(name);
            first_prop = self.encode_and_alloc_prop(key, value, first_prop);
        }
        let mut rec = vec![0u8; EDGE_REC];
        Self::write_u64(&mut rec, 0, src);
        Self::write_u64(&mut rec, 8, dst);
        Self::write_u32(&mut rec, 16, label);
        Self::write_u64(&mut rec, 52, first_prop);

        // Prepend to src's out chain and dst's in chain.
        let src_group = self.group_of(src, label);
        let dst_group = self.group_of(dst, label);
        let old_out = Self::read_u64(&self.group_rec(src_group), GROUP_FIRST_OUT);
        let old_in = Self::read_u64(&self.group_rec(dst_group), GROUP_FIRST_IN);
        Self::write_u64(&mut rec, 20, NIL); // src_prev
        Self::write_u64(&mut rec, 28, old_out); // src_next
        Self::write_u64(&mut rec, 36, NIL); // dst_prev
        Self::write_u64(&mut rec, 44, old_in); // dst_next
        let e = self.edges.alloc(&rec);
        // Fix group heads and old heads' prev pointers.
        self.set_group_field(src_group, GROUP_FIRST_OUT, e);
        self.set_group_field(dst_group, GROUP_FIRST_IN, e);
        if old_out != NIL {
            let mut r = self.edge_rec(old_out)?;
            let s = Self::read_u64(&r, 0);
            let off = if s == src { 20 } else { 36 };
            Self::write_u64(&mut r, off, e);
            self.edges.put(old_out, &r);
        }
        if old_in != NIL {
            let mut r = self.edge_rec(old_in)?;
            let s = Self::read_u64(&r, 0);
            // in-chain prev pointer lives on the dst side unless old head's
            // src equals dst and it was linked on the out side — the chain
            // side is determined by membership: old_in is in dst's
            // in-chain, so the dst_prev slot (offset 36) is always the right
            // one — including for self-loops, whose out side was fixed above.
            let _ = s;
            Self::write_u64(&mut r, 36, e);
            self.edges.put(old_in, &r);
        }
        Ok(e)
    }

    fn encode_and_alloc_prop(&mut self, key: u32, value: &Value, next: u64) -> u64 {
        let rec = self.encode_prop(key, value, next);
        self.props.alloc(&rec)
    }

    // ---- index maintenance ----------------------------------------------

    fn index_insert(&mut self, key: u32, value: &Value, v: u64) {
        let Some(idx) = self.indexes.get_mut(&key) else {
            return;
        };
        let idx = Arc::make_mut(idx);
        match idx.get_mut(value) {
            Some(list) => {
                list.push(v);
                self.index_bytes += 8;
            }
            None => {
                idx.insert(value.clone(), vec![v]);
                self.index_bytes += index_entry_bytes(value, 1);
            }
        }
    }

    fn index_remove(&mut self, key: u32, value: &Value, v: u64) {
        let Some(idx) = self.indexes.get_mut(&key) else {
            return;
        };
        // Look before copying: a miss must not un-share the index.
        let Some(pos) = idx
            .get(value)
            .and_then(|list| list.iter().position(|&x| x == v))
        else {
            return;
        };
        let idx = Arc::make_mut(idx);
        let list = idx.get_mut(value).expect("entry just found");
        list.swap_remove(pos);
        self.index_bytes -= 8;
        if list.is_empty() {
            idx.remove(value);
            self.index_bytes -= index_entry_bytes(value, 0);
        }
    }

    fn first_prop_of_node(&self, v: u64) -> GdbResult<u64> {
        Ok(Self::read_u64(&self.node_rec(v)?, 4))
    }

    fn set_first_prop_of_node(&mut self, v: u64, head: u64) -> GdbResult<()> {
        let mut rec = self.node_rec(v)?;
        Self::write_u64(&mut rec, 4, head);
        self.nodes.put(v, &rec);
        Ok(())
    }
}

impl GraphSnapshot for LinkedGraph {
    fn name(&self) -> String {
        match self.variant {
            Variant::V1 => "linked(v1)".into(),
            Variant::V2 => "linked(v2)".into(),
        }
    }

    fn features(&self) -> EngineFeatures {
        EngineFeatures {
            name: self.name(),
            system_type: "Native".into(),
            storage: "Linked fixed-size records".into(),
            edge_traversal: "Direct pointer".into(),
            optimized_adapter: false,
            async_writes: false,
            attribute_indexes: true,
            max_identifier_len: None,
        }
    }

    gm_model::engine_resolve!();

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        // g.V.count() iterates the node file (ticking per slot); the record
        // file itself knows its live count, but the Gremlin semantics scan.
        let mut n = 0u64;
        for page in self.nodes.chunks() {
            for _ in page {
                ctx.tick()?;
                n += 1;
            }
        }
        Ok(n)
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut n = 0u64;
        for page in self.edges.chunks() {
            for _ in page {
                ctx.tick()?;
                n += 1;
            }
        }
        Ok(n)
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let mut seen = vec![false; self.labels.len()];
        for page in self.edges.chunks() {
            for (_, rec) in page {
                ctx.tick()?;
                seen[Self::read_u32(rec, 16) as usize] = true;
            }
        }
        Ok(seen
            .iter()
            .enumerate()
            .filter(|(_, s)| **s)
            .filter_map(|(i, _)| self.labels.resolve(i as u32).map(String::from))
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
        if let Some(idx) = self.indexes.get(&key) {
            let mut hits: Vec<Vid> = idx
                .get(value)
                .map(|v| v.iter().map(|&x| Vid(x)).collect())
                .unwrap_or_default();
            hits.sort_unstable();
            return Ok(hits);
        }
        let mut out = Vec::new();
        for page in self.nodes.chunks() {
            for (v, rec) in page {
                ctx.tick()?;
                if self.has_prop(Self::read_u64(rec, 4), key, value) {
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
        let mut out = Vec::new();
        for page in self.edges.chunks() {
            for (e, rec) in page {
                ctx.tick()?;
                if self.has_prop(Self::read_u64(rec, 52), key, value) {
                    out.push(Eid(e));
                }
            }
        }
        Ok(out)
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        let Some(want) = self.labels.get(label) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for page in self.edges.chunks() {
            for (e, rec) in page {
                ctx.tick()?;
                if Self::read_u32(rec, 16) == want {
                    out.push(Eid(e));
                }
            }
        }
        Ok(out)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        self.wrap_vertex(v.0);
        match self.nodes.get(v.0) {
            None => Ok(None),
            Some(rec) => {
                let label_id = Self::read_u32(rec, 0);
                let first_prop = Self::read_u64(rec, 4);
                Ok(Some(VertexData {
                    id: v,
                    label: self
                        .labels
                        .resolve(label_id)
                        .unwrap_or("<unknown>")
                        .to_string(),
                    props: self.collect_props(first_prop),
                }))
            }
        }
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        self.wrap_edge(e.0);
        match self.edges.get(e.0) {
            None => Ok(None),
            Some(rec) => {
                let label_id = Self::read_u32(rec, 16);
                Ok(Some(EdgeData {
                    id: e,
                    src: Vid(Self::read_u64(rec, 0)),
                    dst: Vid(Self::read_u64(rec, 8)),
                    label: self
                        .labels
                        .resolve(label_id)
                        .unwrap_or("<unknown>")
                        .to_string(),
                    props: self.collect_props(Self::read_u64(rec, 52)),
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
        if !self.nodes.is_live(v.0) {
            return Err(GdbError::VertexNotFound(v.0));
        }
        let label_id = match label {
            Some(l) => match self.labels.get(l) {
                Some(id) => Some(id),
                None => return Ok(()),
            },
            None => None,
        };
        self.walk_edges(v.0, dir, label_id, ctx, |e, rec, out_chain| {
            let other = if out_chain {
                Self::read_u64(rec, 8)
            } else {
                Self::read_u64(rec, 0)
            };
            f(EdgeRef {
                eid: Eid(e),
                other: Vid(other),
            })
        })
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        if !self.nodes.is_live(v.0) {
            return Err(GdbError::VertexNotFound(v.0));
        }
        let mut seen: Vec<u32> = Vec::new();
        self.walk_edges(v.0, dir, None, ctx, |_, rec, _| {
            let l = Self::read_u32(rec, 16);
            if !seen.contains(&l) {
                seen.push(l);
            }
            Ok(())
        })?;
        Ok(seen
            .into_iter()
            .filter_map(|l| self.labels.resolve(l).map(String::from))
            .collect())
    }

    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        Ok(Box::new(self.nodes.iter_ids().map(move |v| {
            ctx.tick()?;
            Ok(Vid(v))
        })))
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        Ok(Box::new(self.edges.iter_ids().map(move |e| {
            ctx.tick()?;
            Ok(Eid(e))
        })))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let head = self.first_prop_of_node(v.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        Ok(self.find_prop(head, key).map(|(_, val)| val))
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let rec = self.edge_rec(e.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        Ok(self
            .find_prop(Self::read_u64(&rec, 52), key)
            .map(|(_, val)| val))
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        match self.edges.get(e.0) {
            None => Ok(None),
            Some(rec) => Ok(Some((
                Vid(Self::read_u64(rec, 0)),
                Vid(Self::read_u64(rec, 8)),
            ))),
        }
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        match self.edges.get(e.0) {
            None => Ok(None),
            Some(rec) => Ok(self
                .labels
                .resolve(Self::read_u32(rec, 16))
                .map(String::from)),
        }
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        match self.nodes.get(v.0) {
            None => Ok(None),
            Some(rec) => Ok(self
                .labels
                .resolve(Self::read_u32(rec, 0))
                .map(String::from)),
        }
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        self.keys
            .get(prop)
            .map(|k| self.indexes.contains_key(&k))
            .unwrap_or(false)
    }

    fn space(&self) -> SpaceReport {
        let mut r = SpaceReport::default();
        r.add("node records", self.nodes.bytes());
        r.add("edge records", self.edges.bytes());
        r.add("property records", self.props.bytes());
        r.add("string store", self.strings.len() as u64);
        r.add("label/type store", self.labels.bytes() + self.keys.bytes());
        // Modelled as the per-node group lists they stand for: 16 bytes per
        // node that has any, 20 per group.
        r.add("relationship groups", self.group_bytes);
        if self.index_bytes > 0 {
            r.add("attribute indexes", self.index_bytes);
        }
        r
    }
}

/// The write bodies behind [`GraphDb::apply`] (`gm_model::engine_apply!`).
impl LinkedGraph {
    fn load_dataset(&mut self, data: &Dataset, _opts: &LoadOptions) -> GdbResult<LoadedIds> {
        let mut vmap = Vec::with_capacity(data.vertices.len());
        for v in &data.vertices {
            vmap.push(self.insert_vertex(&v.label, &v.props)?.0);
        }
        let mut emap = Vec::with_capacity(data.edges.len());
        for e in &data.edges {
            let label = self.labels.intern(&e.label);
            let (src, dst) = (vmap[e.src as usize], vmap[e.dst as usize]);
            emap.push(self.add_edge_internal(src, dst, label, &e.props)?);
        }
        Ok((vmap, emap))
    }

    fn insert_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        let label_id = self.labels.intern(label);
        let mut first_prop = NIL;
        for (name, value) in props {
            let key = self.keys.intern(name);
            first_prop = self.encode_and_alloc_prop(key, value, first_prop);
        }
        let mut rec = vec![0u8; NODE_REC];
        Self::write_u32(&mut rec, 0, label_id);
        Self::write_u64(&mut rec, 4, first_prop);
        let v = self.nodes.alloc(&rec);
        if v as usize == self.group_heads.len() {
            self.group_heads.push(NIL);
        }
        for (name, value) in props {
            let key = self.keys.intern(name);
            self.index_insert(key, value, v);
        }
        self.wrap_vertex(v);
        Ok(Vid(v))
    }

    fn insert_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        let label_id = self.labels.intern(label);
        let e = self.add_edge_internal(src.0, dst.0, label_id, props)?;
        self.wrap_edge(e);
        Ok(Eid(e))
    }

    fn put_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        let head = self.first_prop_of_node(v.0)?;
        let key = self.keys.intern(name);
        let (new_head, old) = self.set_prop_in_chain(head, key, &value);
        if new_head != head {
            self.set_first_prop_of_node(v.0, new_head)?;
        }
        if let Some(old) = old {
            self.index_remove(key, &old, v.0);
        }
        self.index_insert(key, &value, v.0);
        self.wrap_vertex(v.0);
        Ok(())
    }

    fn put_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        let mut rec = self.edge_rec(e.0)?;
        let head = Self::read_u64(&rec, 52);
        let key = self.keys.intern(name);
        let (new_head, _) = self.set_prop_in_chain(head, key, &value);
        if new_head != head {
            Self::write_u64(&mut rec, 52, new_head);
            self.edges.put(e.0, &rec);
        }
        self.wrap_edge(e.0);
        Ok(())
    }

    fn delete_vertex(&mut self, v: Vid) -> GdbResult<Vec<u64>> {
        if !self.nodes.is_live(v.0) {
            return Err(GdbError::VertexNotFound(v.0));
        }
        self.wrap_vertex(v.0);
        // Collect incident edges first (walking while mutating is unsound).
        let ctx = QueryCtx::unbounded();
        let mut incident = Vec::new();
        self.walk_edges(v.0, Direction::Both, None, &ctx, |e, _, _| {
            incident.push(e);
            Ok(())
        })?;
        incident.sort_unstable();
        incident.dedup(); // self-loops appear on both chains
        for &e in &incident {
            self.delete_edge(Eid(e))?;
        }
        // Remove properties (and index entries).
        let head = self.first_prop_of_node(v.0)?;
        let props = self.collect_props(head);
        for (name, value) in &props {
            if let Some(key) = self.keys.get(name) {
                self.index_remove(key, value, v.0);
            }
        }
        self.free_prop_chain(head);
        self.free_groups(v.0);
        self.nodes.free(v.0);
        Ok(incident)
    }

    fn delete_edge(&mut self, e: Eid) -> GdbResult<()> {
        let rec = self.edge_rec(e.0)?;
        self.wrap_edge(e.0);
        let src = Self::read_u64(&rec, 0);
        let dst = Self::read_u64(&rec, 8);
        let label = Self::read_u32(&rec, 16);
        self.unlink_edge(e.0, src, label, true)?;
        self.unlink_edge(e.0, dst, label, false)?;
        self.free_prop_chain(Self::read_u64(&rec, 52));
        self.edges.free(e.0);
        Ok(())
    }

    fn delete_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        let head = self.first_prop_of_node(v.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let (new_head, old) = self.remove_prop_in_chain(head, key);
        if new_head != head {
            self.set_first_prop_of_node(v.0, new_head)?;
        }
        if let Some(old) = &old {
            self.index_remove(key, old, v.0);
        }
        self.wrap_vertex(v.0);
        Ok(old)
    }

    fn delete_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let mut rec = self.edge_rec(e.0)?;
        let head = Self::read_u64(&rec, 52);
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let (new_head, old) = self.remove_prop_in_chain(head, key);
        if new_head != head {
            Self::write_u64(&mut rec, 52, new_head);
            self.edges.put(e.0, &rec);
        }
        self.wrap_edge(e.0);
        Ok(old)
    }

    fn build_vertex_index(&mut self, prop: &str) -> GdbResult<()> {
        let key = self.keys.intern(prop);
        if self.indexes.contains_key(&key) {
            return Ok(());
        }
        let mut idx = AttrIndex::default();
        for (v, rec) in self.nodes.chunks().flatten() {
            let head = Self::read_u64(rec, 4);
            if let Some((_, value)) = self.find_prop(head, key) {
                idx.entry(value).or_default().push(v);
            }
        }
        self.index_bytes += idx
            .iter()
            .map(|(value, ids)| index_entry_bytes(value, ids.len()))
            .sum::<u64>();
        self.indexes.insert(key, Arc::new(idx));
        Ok(())
    }
}

impl GraphDb for LinkedGraph {
    gm_model::engine_apply!();
}

/// Diagnostics for the sharing and space-accounting tests.
#[cfg(test)]
impl LinkedGraph {
    fn group_count(&self, node: u64) -> usize {
        let mut n = 0;
        let mut cur = self.first_group(node);
        while cur != NIL {
            n += 1;
            cur = Self::read_u64(&self.group_rec(cur), GROUP_NEXT);
        }
        n
    }

    /// Pages, over every paged store, that `self` does not share with
    /// `other`: what a clone copied or appended since it was taken.
    fn unshared_pages(&self, other: &LinkedGraph) -> usize {
        self.nodes.unshared_pages(&other.nodes)
            + self.edges.unshared_pages(&other.edges)
            + self.props.unshared_pages(&other.props)
            + self.groups.unshared_pages(&other.groups)
            + self.group_heads.unshared_pages(&other.group_heads)
            + self.strings.unshared_pages(&other.strings)
    }

    /// `(group_bytes, index_bytes)` recomputed from the stores themselves.
    fn recomputed_totals(&self) -> (u64, u64) {
        let groups = (0..self.nodes.capacity_slots())
            .map(|node| self.group_count(node) as u64)
            .filter(|&n| n > 0)
            .map(|n| 16 + 20 * n)
            .sum();
        let indexes = self
            .indexes
            .values()
            .flat_map(|idx| idx.iter())
            .map(|(value, ids)| index_entry_bytes(value, ids.len()))
            .sum();
        (groups, indexes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_core::catalog::{execute_read, QueryInstance};
    use gm_core::params::Workload;
    use gm_datasets::{DatasetId, Scale};
    use gm_model::testkit;

    #[test]
    fn v1_conformance() {
        testkit::conformance_suite(&mut || Box::new(LinkedGraph::v1()));
    }

    #[test]
    fn v2_conformance() {
        testkit::conformance_suite(&mut || Box::new(LinkedGraph::v2()));
    }

    #[test]
    fn ids_are_file_offsets() {
        let mut g = LinkedGraph::v1();
        let a = g.add_vertex("x", &vec![]).unwrap();
        let b = g.add_vertex("x", &vec![]).unwrap();
        assert_eq!((a.0, b.0), (0, 1), "sequential slot ids");
    }

    #[test]
    fn chain_order_is_lifo() {
        // Neo4j prepends at the chain head: the most recently added edge is
        // visited first.
        let mut g = LinkedGraph::v1();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        let c = g.add_vertex("n", &vec![]).unwrap();
        g.add_edge(a, b, "e", &vec![]).unwrap();
        g.add_edge(a, c, "e", &vec![]).unwrap();
        let ctx = QueryCtx::unbounded();
        let out = g.neighbors(a, Direction::Out, None, &ctx).unwrap();
        assert_eq!(out, vec![c, b]);
    }

    #[test]
    fn v2_groups_split_by_label() {
        let mut g = LinkedGraph::v2();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        g.add_edge(a, b, "x", &vec![]).unwrap();
        g.add_edge(a, b, "y", &vec![]).unwrap();
        assert_eq!(g.group_count(a.0), 2, "one group per label");
        let mut g1 = LinkedGraph::v1();
        let a = g1.add_vertex("n", &vec![]).unwrap();
        let b = g1.add_vertex("n", &vec![]).unwrap();
        g1.add_edge(a, b, "x", &vec![]).unwrap();
        g1.add_edge(a, b, "y", &vec![]).unwrap();
        assert_eq!(g1.group_count(a.0), 1, "v1 keeps one untyped chain");
    }

    #[test]
    fn middle_of_chain_unlink() {
        let mut g = LinkedGraph::v1();
        let hub = g.add_vertex("n", &vec![]).unwrap();
        let spokes: Vec<Vid> = (0..5)
            .map(|_| g.add_vertex("n", &vec![]).unwrap())
            .collect();
        let edges: Vec<Eid> = spokes
            .iter()
            .map(|s| g.add_edge(hub, *s, "e", &vec![]).unwrap())
            .collect();
        // Remove the middle edge, then the head, then the tail.
        g.remove_edge(edges[2]).unwrap();
        g.remove_edge(edges[4]).unwrap(); // chain head (LIFO)
        g.remove_edge(edges[0]).unwrap(); // chain tail
        let ctx = QueryCtx::unbounded();
        let mut left: Vec<u64> = g
            .neighbors(hub, Direction::Out, None, &ctx)
            .unwrap()
            .iter()
            .map(|v| v.0)
            .collect();
        left.sort_unstable();
        assert_eq!(left, vec![spokes[1].0, spokes[3].0]);
        assert_eq!(g.vertex_degree(hub, Direction::Out, &ctx).unwrap(), 2);
    }

    #[test]
    fn property_records_reused_after_delete() {
        let mut g = LinkedGraph::v1();
        let v = g
            .add_vertex(
                "n",
                &vec![("a".into(), Value::Int(1)), ("b".into(), Value::Int(2))],
            )
            .unwrap();
        let props_before = g.props.len();
        g.remove_vertex_property(v, "a").unwrap();
        assert_eq!(g.props.len(), props_before - 1);
        g.set_vertex_property(v, "c", Value::Int(3)).unwrap();
        assert_eq!(g.props.len(), props_before, "freed slot reused");
        assert_eq!(g.vertex_property(v, "b").unwrap(), Some(Value::Int(2)));
        assert_eq!(g.vertex_property(v, "c").unwrap(), Some(Value::Int(3)));
    }

    #[test]
    fn string_values_round_trip_through_dynamic_store() {
        let mut g = LinkedGraph::v1();
        let long = "x".repeat(500);
        let v = g
            .add_vertex("n", &vec![("s".into(), Value::Str(long.clone()))])
            .unwrap();
        assert_eq!(g.vertex_property(v, "s").unwrap(), Some(Value::Str(long)));
    }

    #[test]
    fn space_components_present() {
        let mut g = LinkedGraph::v1();
        g.bulk_load(&testkit::tiny_dataset(), &LoadOptions::default())
            .unwrap();
        let report = g.space();
        let names: Vec<&str> = report.components.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"node records"));
        assert!(names.contains(&"edge records"));
        assert!(names.contains(&"property records"));
    }

    #[test]
    fn label_filtered_walk_skips_groups_in_v2() {
        // Both variants agree on results; v2 touches fewer edges (work
        // measured through the ctx tick counter).
        let mut v1 = LinkedGraph::v1();
        let mut v2 = LinkedGraph::v2();
        for g in [&mut v1, &mut v2] {
            let a = g.add_vertex("n", &vec![]).unwrap();
            for i in 0..50 {
                let b = g.add_vertex("n", &vec![]).unwrap();
                let label = if i % 10 == 0 { "rare" } else { "common" };
                g.add_edge(a, b, label, &vec![]).unwrap();
            }
        }
        let ctx1 = QueryCtx::unbounded();
        let r1 = v1
            .neighbors(Vid(0), Direction::Out, Some("rare"), &ctx1)
            .unwrap();
        let ctx2 = QueryCtx::unbounded();
        let r2 = v2
            .neighbors(Vid(0), Direction::Out, Some("rare"), &ctx2)
            .unwrap();
        assert_eq!(r1.len(), 5);
        assert_eq!(r2.len(), 5);
        assert!(
            ctx2.work() < ctx1.work(),
            "v2 grouped chains touch fewer edges ({} vs {})",
            ctx2.work(),
            ctx1.work()
        );
    }

    /// Every read of the catalog's suite, answered by `g`.
    fn catalog_answers(g: &LinkedGraph, workload: &Workload) -> Vec<(String, u64)> {
        let params = workload.resolve(g).unwrap();
        let ctx = QueryCtx::unbounded();
        QueryInstance::full_suite(workload.k)
            .iter()
            .filter(|inst| !inst.id.is_mutation())
            .map(|inst| (inst.name(), execute_read(inst, g, &params, &ctx).unwrap()))
            .collect()
    }

    #[test]
    fn a_write_after_clone_copies_a_few_pages_and_never_leaks() {
        let data = gm_datasets::generate(DatasetId::Yeast, Scale::small(), 7);
        let workload = Workload::choose(&data, 23, 12);
        for variant in [Variant::V1, Variant::V2] {
            let mut base = LinkedGraph::new(variant);
            base.bulk_load(&data, &LoadOptions::default()).unwrap();
            base.create_vertex_index(&workload.vertex_prop.0).unwrap();
            let total_pages = base.unshared_pages(&LinkedGraph::new(variant));
            assert!(total_pages > 80, "dataset spans many pages ({total_pages})");
            let before = catalog_answers(&base, &workload);
            let (a, b) = (
                base.resolve_vertex(3).unwrap(),
                base.resolve_vertex(900).unwrap(),
            );
            let victim = base.resolve_edge(1234).unwrap();

            type Write<'a> = &'a dyn Fn(&mut LinkedGraph);
            let writes: [(&str, Write); 3] = [
                ("add_edge", &|g| {
                    g.add_edge(a, b, "fresh-label", &vec![("w".into(), Value::Int(1))])
                        .unwrap();
                }),
                ("set_vertex_property", &|g| {
                    g.set_vertex_property(a, "note", Value::Str("x".repeat(40)))
                        .unwrap();
                }),
                ("remove_edge", &|g| g.remove_edge(victim).unwrap()),
            ];
            for (what, write) in writes {
                let mut copy = base.clone();
                assert_eq!(copy.unshared_pages(&base), 0, "a clone copies no page");
                write(&mut copy);
                let copied = copy.unshared_pages(&base);
                assert!(
                    (1..=16).contains(&copied),
                    "{what} on a {variant:?} clone copied {copied} of {total_pages} pages"
                );
                assert_eq!(
                    catalog_answers(&base, &workload),
                    before,
                    "{what} on the clone leaked into the original"
                );
            }
        }
    }

    #[test]
    fn space_totals_match_the_per_node_group_list_model() {
        // Totals recorded from the hash-map-of-group-lists layout this
        // engine had before groups became records: the byte model must not
        // move with the physical layout.
        let cases = [
            ("tiny", testkit::tiny_dataset(), 2075, 2135),
            ("chain100", testkit::chain_dataset(100), 15360, 17320),
        ];
        for (name, data, want_v1, want_v2) in cases {
            for (mut g, want) in [(LinkedGraph::v1(), want_v1), (LinkedGraph::v2(), want_v2)] {
                g.bulk_load(&data, &LoadOptions::default()).unwrap();
                g.create_vertex_index("name").unwrap();
                assert_eq!(g.space().total(), want, "{name} on {}", g.name());
                assert_eq!((g.group_bytes, g.index_bytes), g.recomputed_totals());
            }
        }
    }

    #[test]
    fn running_space_totals_survive_random_cud() {
        let data = testkit::chain_dataset(60);
        for variant in [Variant::V1, Variant::V2] {
            let mut g = LinkedGraph::new(variant);
            g.bulk_load(&data, &LoadOptions::default()).unwrap();
            g.create_vertex_index("tag").unwrap();
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let mut vertices: Vec<Vid> = g.nodes.iter_ids().map(Vid).collect();
            for step in 0..600 {
                let v = vertices[next(vertices.len() as u64) as usize];
                let w = vertices[next(vertices.len() as u64) as usize];
                match next(6) {
                    0 => vertices.push(
                        g.add_vertex("n", &vec![("tag".into(), Value::Int(3))])
                            .unwrap(),
                    ),
                    1 => {
                        let label = ["a", "b", "c"][next(3) as usize];
                        g.add_edge(v, w, label, &vec![]).unwrap();
                    }
                    2 => g
                        .set_vertex_property(v, "tag", Value::Int(next(4) as i64))
                        .unwrap(),
                    3 => {
                        g.remove_vertex_property(v, "tag").unwrap();
                    }
                    4 => {
                        let ctx = QueryCtx::unbounded();
                        if let Some(e) = g
                            .vertex_edges(v, Direction::Both, None, &ctx)
                            .unwrap()
                            .first()
                        {
                            g.remove_edge(e.eid).unwrap();
                        }
                    }
                    _ if vertices.len() > 8 => {
                        g.remove_vertex(v).unwrap();
                        vertices.retain(|x| *x != v);
                    }
                    _ => {}
                }
                assert_eq!(
                    (g.group_bytes, g.index_bytes),
                    g.recomputed_totals(),
                    "{variant:?} step {step}"
                );
            }
        }
    }
}
